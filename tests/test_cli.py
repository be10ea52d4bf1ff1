import json
import math
import re
import struct

import numpy as np
import pytest

from deltashock import interact
from deltashock.battery import BATTERY
from deltashock.cli import (_front_times, _grid_rows, emit, main,
                            parse_scenario, render_svg, scenario_to_dict)
from deltashock.core import Line, State
from deltashock.evaluate import sample
from deltashock.interact import fan_solution, run
from deltashock.verify import auto_window


@pytest.fixture
def case1_file(tmp_path):
    p = tmp_path / "case1.json"
    p.write_text(json.dumps({"states": [[6, 1], [3, 1], [0, 1]], "offset": -1.0,
                             "t_max": 2.0, "grid": [41, 21]}))
    return p


def test_parse_scenario(case1_file):
    sc, opts = parse_scenario(case1_file)
    assert sc.left == State(6, 1)
    assert sc.t_max == 2.0
    assert opts["grid"] == (41, 21)
    assert opts["window"] is None


def test_parse_round_trip(case1_file, tmp_path):
    sc, _ = parse_scenario(case1_file)
    p2 = tmp_path / "round.json"
    p2.write_text(json.dumps(scenario_to_dict(sc)))
    sc2, _ = parse_scenario(p2)
    assert sc2 == sc


def test_invalid_scenario_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"states": [[3, 1], [3, 1], [0, 1]],
                             "offset": -1.0}))
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "u0 >= u1 + 2 violated" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("args, extra", [
    pytest.param(["--grid", "a,b"], {}, id="grid-not-numbers"),
    pytest.param(["--grid", "3"], {}, id="grid-one-number"),
    pytest.param(["--grid", "1,1"], {}, id="grid-below-2"),
    pytest.param(["--grid", "20.5,10"], {}, id="grid-not-integer"),
    pytest.param(["--window", "1"], {}, id="window-one-number"),
    pytest.param(["--window", "5,1"], {}, id="window-reversed"),
    pytest.param(["--window", "0,inf"], {}, id="window-infinite"),
    pytest.param(["--window=-1e308,1e308"], {}, id="window-width-overflows"),
    pytest.param(["--t-max", "-1"], {}, id="t-max-negative"),
    pytest.param(["--t-max", "nan"], {}, id="t-max-nan"),
    pytest.param([], {"grid": "ab"}, id="file-grid-text"),
    pytest.param([], {"grid": [1, 1]}, id="file-grid-below-2"),
    pytest.param([], {"window": ["a", "b"]}, id="file-window-text"),
    pytest.param([], {"window": [5, 1]}, id="file-window-reversed"),
    pytest.param([], {"window": [-1e308, 1e308]}, id="file-window-width-overflows"),
    pytest.param([], {"t_max": -1}, id="file-t-max-negative"),
    pytest.param([], {"outputs": [1]}, id="file-outputs-not-object"),
    pytest.param([], {"outputs": {"svg": "false"}}, id="file-outputs-svg-text"),
])
def test_bad_solve_option_exits_2(args, extra, tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"states": [[6, 1], [3, 1], [0, 1]], "offset": -1.0,
                             **extra}))
    assert main(["solve", str(p), "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    name = args[0].split("=")[0] if args else next(iter(extra))
    assert err.startswith(f"error: {name} must be")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_tracking_failure_exits_4(tmp_path, capsys, monkeypatch):
    # a fault: the breakdown inside the fan gets no time
    monkeypatch.setattr(interact, "breakdown_time", lambda curve, after: None)
    p = tmp_path / "case4iia.json"
    p.write_text(json.dumps(scenario_to_dict(BATTERY["case4iia"])))
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate fan passage")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_breakdown_at_fan_entry_exits_0(tmp_path):
    # at an exact u-gap of 2 the delta loses overcompressibility where it
    # enters the fan: it breaks down on the fan edge
    for k, (states, offset) in enumerate([
            ([[-2, 1], [0, 1], [-2, 1]], 1.0),
            ([[1.25, 0.672883255536642], [5.5, 1.3808802634686494],
              [3.5, 0.6273382232099308]], 2.0931151696592165)]):
        p, out = tmp_path / f"gap2-{k}.json", tmp_path / f"o{k}"
        p.write_text(json.dumps({"states": states, "offset": offset}))
        assert main(["solve", str(p), "--out", str(out)]) == 0
        doc = json.loads((out / "events.json").read_text())
        fronts = {f["id"]: f for f in doc["fronts"]}
        bd = next(e for e in doc["events"]
                  if e["rule"] == "BreakdownBifurcation")
        delta, edge = sorted((fronts[f] for f in bd["incoming"]),
                             key=lambda f: f["kind"])
        assert (delta["kind"], edge["kind"]) == ("delta_shock", "fan_edge")
        line = edge["geometry"]
        assert bd["x"] == pytest.approx(
            line["x0"] + line["slope"] * (bd["t"] - line["t0"]), abs=1e-12)


def test_overflowing_crossing_exits_0(tmp_path):
    # a contact and a fan edge would cross at t = 3.46e307 with x = -inf
    p = tmp_path / "far.json"
    p.write_text(json.dumps({
        "states": [[-683.167488598586, 0.00022070735544151807],
                   [508679.4833689168, 0.0],
                   [0.29015314025339817, -568.4945003878698]],
        "offset": 27749.495519258642}))
    assert main(["solve", str(p), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "events.json").read_text())
    assert [e["rule"] for e in doc["events"]] == ["DeltaEntersFan",
                                                  "BreakdownBifurcation"]


def test_solve_writes_outputs(case1_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", str(case1_file), "--out", str(out), "--svg"]) == 0
    for name in ("events.json", "fronts.csv", "u.csv", "v.csv", "atoms.csv",
                 "diagram.svg"):
        assert (out / name).exists()
    doc = json.loads((out / "events.json").read_text())
    assert doc["case"] == 1
    (ev,) = doc["events"]
    assert ev["rule"] == "MergeDeltas"
    assert ev["t"] == pytest.approx(1 / 3)
    assert ev["x"] == pytest.approx(0.5)
    svg = (out / "diagram.svg").read_text()
    assert "<svg" in svg and "polyline" in svg


def test_emit_without_atoms_writes_header_only(tmp_path):
    sol = fan_solution(State(3, 1), State(2, 1), t_max=2.0)
    emit(sol, tmp_path / "o", nx=11, nt=5, window=(-5.0, 5.0), svg=False)
    rows = (tmp_path / "o" / "atoms.csv").read_text().strip().splitlines()
    assert rows == ["t,front_id,x,alpha,alpha0,alpha1"]


def test_riemann_subcommand(capsys):
    assert main(["riemann", "--left", "3,1", "--right", "2,1",
                 "--atom", "5"]) == 0
    out = capsys.readouterr().out
    assert "delta contact" in out and "shock" in out
    assert "strength 5" in out
    assert main(["riemann", "--left", "bogus", "--right", "2,1"]) == 2
    capsys.readouterr()
    # non-finite states and atoms exit 2 with one line naming the argument
    for flag, argv in [
            ("--left", ["--left", "inf,1", "--right", "0,1"]),
            ("--left", ["--left", "1,nan", "--right", "0,1"]),
            ("--right", ["--left", "4,1", "--right", "0,-inf"]),
            ("--atom", ["--left", "4,1", "--right", "0,1", "--atom", "nan"]),
            ("--atom", ["--left", "4,1", "--right", "0,1", "--atom", "inf"])]:
        assert main(["riemann"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be ")
        assert captured.err.count("\n") == 1


def test_riemann_negative_u_takes_equals_form(capsys):
    # argparse reads a value such as -1,1 after a space as an option
    assert main(["riemann", "--left=-1,1", "--right=-4,1"]) == 0
    assert "delta shock" in capsys.readouterr().out


def test_verify_subcommand(case1_file, capsys):
    assert main(["verify", str(case1_file), "--tests", "20",
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


def test_oracle_subcommand(tmp_path, capsys):
    p = tmp_path / "c4.json"
    p.write_text(json.dumps({"states": [[4, 1], [1, 1], [1.5, 1]],
                             "offset": -1.0}))
    assert main(["oracle", str(p), "--n", "80"]) == 0
    assert "trajectory sup error" in capsys.readouterr().out


def test_oracle_outside_fan_cases_exits_2(case1_file, tmp_path, capsys):
    assert main(["oracle", str(case1_file), "--n", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the fan oracle applies to cases 4 and 5")
    p = tmp_path / "c4.json"
    p.write_text(json.dumps({"states": [[4, 1], [1, 1], [1.5, 1]],
                             "offset": -1.0}))
    assert main(["oracle", str(p), "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the fan oracle needs at least 2 fan steps")
    assert "Traceback" not in err


@pytest.mark.parametrize("states, offset", [
    pytest.param([[-2, 1], [0, 1], [-2, 1]], 1.0, id="case5-fan-left"),
    pytest.param([[0, 1], [-2, 0.8], [0, 1.2]], -1.0, id="case4-fan-right"),
])
def test_oracle_breakdown_at_fan_entry_exits_2(states, offset, tmp_path, capsys):
    # at a u-gap of exactly 2 the delta breaks down where it meets the fan,
    # so there is no fan-interior delta shock to compare with the oracle
    p = tmp_path / "gap2.json"
    p.write_text(json.dumps({"states": states, "offset": offset}))
    assert main(["oracle", str(p), "--n", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no fan-interior delta shock")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the weak pairing's time cells beside the fan centre "
    "under-resolve a 1/t^2 integrand (weak residual 5.301, exit 3)"))
def test_verify_wide_fan_passes(tmp_path):
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"states": [[-1000, 1], [1000, 1], [0, 1]],
                             "offset": 1.0}))
    assert main(["verify", str(p)]) == 0


def test_verify_rejects_zero_tests(case1_file, capsys):
    # and every other bad count, seed or tolerance, before any work
    for flag, value in (("--tests", "0"), ("--tests", "2.5"), ("--seed", "-1"),
                        ("--seed", "x"), ("--tol", "nan"), ("--tol", "-1e-6"),
                        ("--tol", "inf")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(case1_file), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "Traceback" not in err


def test_solve_outputs_deterministic(case1_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["solve", str(case1_file), "--out", str(out1), "--svg"])
    main(["solve", str(case1_file), "--out", str(out2), "--svg"])
    for name in ("events.json", "fronts.csv", "u.csv", "v.csv", "atoms.csv",
                 "diagram.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_emit_over_stale_files_matches_fresh(tmp_path):
    """Re-emission over stale files longer and shorter than the output, and
    through a symlink, gives the bytes of a fresh emission, and every file
    keeps its inode.  Without SVG output an earlier diagram.svg is left as
    it was."""
    sol = run(BATTERY["case4iia"])
    fresh, out, target = tmp_path / "fresh", tmp_path / "out", tmp_path / "elsewhere"
    names = [p.name for p in emit(sol, fresh, nx=41, nt=17)]
    assert len(names) == 6
    out.mkdir()
    for k, name in enumerate(names):
        size = (fresh / name).stat().st_size
        # a stale file longer than the output is the case that catches a
        # write which does not cut the file to length; the link, inode and
        # svg=False checks pin what re-emission has always done
        stale = b"stale," * (size // 3 if k % 2 else size // 12)
        if name == "u.csv":
            target.write_bytes(stale)
            (out / name).symlink_to(target)
        else:
            (out / name).write_bytes(stale)
    inodes = [(out / name).stat().st_ino for name in names]
    emit(sol, out, nx=41, nt=17)
    for name in names:
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert (out / "u.csv").readlink() == target
    assert target.read_bytes() == (fresh / "u.csv").read_bytes()
    assert [(out / name).stat().st_ino for name in names] == inodes
    (out / "diagram.svg").write_bytes(b"earlier run")
    emit(sol, out, nx=41, nt=17, svg=False)
    assert (out / "diagram.svg").read_bytes() == b"earlier run"


def _reference_files(sol, nx, nt, window):
    """fronts.csv, u.csv, v.csv and atoms.csv as a per-point loop writes
    them: ``sample`` per time row, ``format(x, ".12g")`` per value."""
    fmt = lambda x: format(float(x), ".12g")
    t_max = sol.t_max_computed
    x_grid = np.linspace(window[0], window[1], nx)
    head = "t," + ",".join(fmt(x) for x in x_grid)
    u_rows, v_rows = [head], [head]
    atom_rows = ["t,front_id,x,alpha,alpha0,alpha1"]
    for t in np.linspace(t_max / nt, t_max, nt):
        s = sample(sol, float(t), x_grid)
        u_rows.append(",".join(fmt(x) for x in [t, *s.u_vals]))
        v_rows.append(",".join(fmt(x) for x in [t, *s.v_regular_vals]))
        for a in s.atoms:
            atom_rows.append(",".join([fmt(t), str(a.front_id)] + [
                fmt(x) for x in (a.x, a.alpha, a.alpha0, a.alpha1)]))
    front_rows = ["front_id,kind,t,x,alpha,alpha0,alpha1"]
    for f in sorted(sol.fronts.values(), key=lambda f: f.fid):
        ts = _front_times(f, t_max)
        for t in [] if ts is None else ts:
            vals = [t, f.geom.pos(t)]
            if f.strength is not None:
                vals += f.atom(t)
            cells = [fmt(x) for x in vals] + [""] * (5 - len(vals))
            front_rows.append(",".join([str(f.fid), f.kind.value] + cells))
    return {name: "\n".join(rows) + "\n" for name, rows in (
        ("fronts.csv", front_rows), ("u.csv", u_rows), ("v.csv", v_rows),
        ("atoms.csv", atom_rows))}


@pytest.mark.parametrize("name, nx, nt", [
    *(pytest.param(name, 41, 17, id=name) for name in BATTERY),
    # the default grid: case1's rows are all runs, case5_bif_left's have
    # about 15k run heads
    pytest.param("case1", 201, 101, id="case1-201x101"),
    pytest.param("case5_bif_left", 201, 101, id="case5_bif_left-201x101"),
])
def test_emit_matches_per_point_reference(name, nx, nt, tmp_path):
    sol = run(BATTERY[name])
    window = auto_window(sol, sol.t_max_computed, pad=0.5)
    emit(sol, tmp_path, nx=nx, nt=nt, window=window, svg=False)
    for fname, text in _reference_files(sol, nx, nt, window).items():
        assert (tmp_path / fname).read_text() == text, fname


def test_grid_rows_runs_match_per_value_format():
    nan1, nan2 = (struct.unpack("<d", struct.pack("<Q", b))[0]
                  for b in (0x7FF8000000000001, 0x7FF8000000000002))
    inf = float("inf")
    t = np.array([1.0, 2.5, 3.0])
    vals = np.array([
        [-0.0, 0.0, 0.0, -0.0, nan1, nan2, nan2, 1.0],
        [inf, inf, -inf, -inf, 0.1, 0.1, 3.0, 3.0],  # the run ends the row
        [3.0, 3.0, 1 / 3, 1 / 3, 1 / 3, -inf, inf, 2.5],  # t = last of row 1
    ])
    fmt = lambda x: format(x, ".12g")

    def reference(t, vals):
        return ["h"] + [",".join(fmt(x) for x in [ti, *row])
                        for ti, row in zip(t.tolist(), vals.tolist())]

    expect = reference(t, vals)
    assert _grid_rows("h", t, vals) == expect
    assert expect[1] == "1,-0,0,0,-0,nan,nan,nan,1"
    assert expect[3] == "3,3,3,0.333333333333,0.333333333333,0.333333333333,-inf,inf,2.5"
    for t, vals in [
        ([0.5], [[0.5, 1.0, 1.0, -0.0]]),                 # one row
        ([1.0, 2.0, 3.0], [[1.0], [0.0], [-inf]]),        # one column
        ([1.0, 2.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]),  # one run per row
        ([1.0, 2.0], [[0.0, 0.0, 7.0], [2.0, 2.0, -0.0]]),  # heads in the last column
        ([2.5, 4.0], [[2.5, 2.5, 0.1], [-4.0, 4.0, 4.0]]),  # a run from t on
    ]:
        t, vals = np.array(t), np.array(vals)
        assert _grid_rows("h", t, vals) == reference(t, vals), (t, vals)


@pytest.mark.parametrize("name", list(BATTERY))
def test_straight_fronts_are_drawn_as_segments(name):
    """Each straight front's polyline is the first and last point of the
    256-sample polyline kept inside the window's 2% margin, and every point
    it drops lies within 0.01 px of that segment; a curve keeps all 256."""
    sol = run(BATTERY[name])
    t_max = sol.t_max_computed
    x0, x1 = window = auto_window(sol, t_max, pad=1.0)
    got = re.findall(r'<polyline [^>]*points="([^"]*)"',
                     render_svg(sol, window, t_max))
    expect, dropped = [], 0
    for f in sorted(sol.fronts.values(), key=lambda f: f.fid):
        ts = _front_times(f, t_max, n=256)
        if ts is None:
            continue
        xs = f.geom.pos(ts)
        keep = (xs >= x0 - 0.02 * (x1 - x0)) & (xs <= x1 + 0.02 * (x1 - x0))
        if not keep.any():
            continue
        # the pixels of an 880 x 660 canvas with a 55 px margin
        xy = np.column_stack([55.0 + (xs[keep] - x0) * 770.0 / (x1 - x0),
                              605.0 - ts[keep] * 550.0 / t_max])
        pts = ["%.2f,%.2f" % tuple(p) for p in xy.tolist()]
        if isinstance(f.geom, Line):
            a, b = xy[0], xy[-1]
            d = xy - a
            span = math.hypot(*(b - a))
            off = (np.abs(d[:, 0] * (b - a)[1] - d[:, 1] * (b - a)[0]) / span
                   if span else np.hypot(d[:, 0], d[:, 1]))
            assert off.max() <= 0.01, (f.fid, off.max())
            dropped += len(pts) - 2
            pts = [pts[0], pts[-1]]
        expect.append(" ".join(pts))
    assert got == expect
    assert dropped > 0

