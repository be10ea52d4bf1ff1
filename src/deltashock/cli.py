"""Command-line interface: scenario ingestion, solving, emission of events,
front samples, field grids, atom tables and x-t wave diagrams, plus the
verification and fan-oracle subcommands.

Exit codes: 0 success, 2 invalid scenario/input, 3 verification failure,
4 tracking failure (the front tracker could not resolve an interaction).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .core import FrontKind, Line, LogCurve, Scenario, Solution, SqrtCurve, State
from .evaluate import atom_rows, fields
from .interact import (ScenarioError, TrackingError, run, validate_pair,
                       validate_scenario)
from .riemann import solve_grp
from . import verify as V

_KIND_STYLE = {
    FrontKind.SHOCK: ('stroke="#d62728" stroke-width="1.6"', "shock"),
    FrontKind.CONTACT: ('stroke="#1f77b4" stroke-width="1.4" '
                        'stroke-dasharray="7,5"', "contact"),
    FrontKind.DELTA_SHOCK: ('stroke="#000000" stroke-width="3.4"', "delta shock"),
    FrontKind.DELTA_CONTACT: ('stroke="#6a0dad" stroke-width="3.0" '
                              'stroke-dasharray="11,5"', "delta contact"),
    FrontKind.FAN_EDGE: ('stroke="#888888" stroke-width="1.0" '
                         'stroke-dasharray="2,4"', "fan edge"),
}


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _finite(*nums) -> bool:
    return all(map(math.isfinite, nums))


# option: (count of numbers, requirement, test of the numbers)
_OPTIONS = {
    "grid": (2, "two integers NX,NT >= 2",
             lambda *n: all(x >= 2 and x.is_integer() for x in n)),
    "window": (2, "two finite numbers X0,X1 with X0 < X1 and a finite X1 - X0",
               lambda a, b: a < b and _finite(b - a)),
    "t_max": (1, "a finite number > 0", lambda t: 0.0 < t < math.inf),
    "left": (2, "two finite numbers U,V", _finite),
    "right": (2, "two finite numbers U,V", _finite),
    "atom": (1, "a finite number", _finite),
}


def _option(name: str, value):
    """Validate the grid, window or t_max of a scenario file (a JSON number
    or list) or of the command line (text "A,B"), or a state or atom of the
    riemann subcommand; ``name`` is the key or the flag.  Returns (nx, nt),
    a pair of floats or one float; raises ScenarioError naming the option."""
    key = name.lstrip("-").replace("-", "_")
    count, need, test = _OPTIONS[key]
    items = (value.split(",") if isinstance(value, str)
             else value if isinstance(value, list) else [value])
    try:
        nums = [float(p) for p in items]
    except (TypeError, ValueError, OverflowError):
        nums = []
    if len(nums) != count or not test(*nums):
        raise ScenarioError(f"{name} must be {need}, got {value!r}")
    if key == "grid":
        return int(nums[0]), int(nums[1])
    return tuple(nums) if count == 2 else nums[0]


def parse_scenario(path) -> tuple[Scenario, dict]:
    """Read a scenario JSON file; returns the validated Scenario and the
    emission options (grid, window, outputs) with defaults filled in."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        states = raw["states"]
        if len(states) != 3:
            raise ScenarioError("states must hold exactly three [u, v] pairs")
        l, m, r = (State(float(u), float(v)) for (u, v) in states)
        sc = Scenario(l, m, r, float(raw["offset"]),
                      _option("t_max", raw.get("t_max", 10.0)))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    validate_scenario(sc)
    opts = {
        "grid": _option("grid", raw.get("grid", [201, 101])),
        "window": _option("window", raw["window"]) if "window" in raw else None,
        "outputs": raw.get("outputs", {}),
    }
    if not (isinstance(opts["outputs"], dict)
            and isinstance(opts["outputs"].get("svg", True), bool)):
        raise ScenarioError("outputs must be an object whose svg is true or "
                            f"false, got {opts['outputs']!r}")
    return sc, opts


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "states": [[sc.left.u, sc.left.v], [sc.middle.u, sc.middle.v],
                   [sc.right.u, sc.right.v]],
        "offset": sc.offset,
        "t_max": sc.t_max,
    }


def _geometry_dict(geom) -> dict:
    if isinstance(geom, Line):
        return {"type": "line", "t0": geom.t0, "x0": geom.x0, "slope": geom.m}
    if isinstance(geom, SqrtCurve):
        return {"type": "sqrt", "u_k": geom.u_k, "K": geom.K,
                "tc": geom.tc, "xc": geom.xc}
    if isinstance(geom, LogCurve):
        return {"type": "log", "C": geom.C, "tc": geom.tc, "xc": geom.xc}
    raise TypeError(type(geom))


def _front_times(front, t_max: float, n: int = 64):
    t1 = min(front.death, t_max)
    if t1 <= front.birth:
        return None
    lo = front.birth
    if isinstance(front.geom, (SqrtCurve, LogCurve)):
        # uniform in sqrt/log warp keeps the polyline within pixel tolerance
        s = np.linspace(math.sqrt(max(lo - front.geom.tc, 1e-12)),
                        math.sqrt(t1 - front.geom.tc), n)
        return front.geom.tc + s * s
    return np.linspace(lo, t1, n)


def _grid_rows(head: str, t_grid, vals) -> list:
    """CSV lines of a field grid: the header, then per time row the time and
    the row's values in %.12g, which writes the same text as
    ``format(x, ".12g")``, inf and -inf included.

    Each run of bitwise-equal neighbours in a row (a constant state) is
    formatted once, all runs in one ``%`` call, and its text repeated for
    the run's length.  Bits, not values, decide a run, so -0.0 beside 0.0
    still prints as -0 and 0; column 0 always starts a run, so a run never
    crosses a row and the next head in flat order ends it."""
    grid = np.column_stack([t_grid, vals])
    bits = grid.view(np.int64)
    heads = np.ones(grid.shape, dtype=bool)
    heads[:, 1:] = bits[:, 1:] != bits[:, :-1]
    at = np.flatnonzero(heads)
    texts = ("%.12g,\0" * len(at) % tuple(grid.ravel()[at].tolist())).split("\0")
    runs = list(map(str.__mul__, texts[:-1], np.diff(at, append=grid.size).tolist()))
    ends = np.cumsum(heads.sum(axis=1)).tolist()
    return [head] + ["".join(runs[a:b])[:-1] for a, b in zip([0] + ends, ends)]


def emit(sol: Solution, out_dir, nx: int = 201, nt: int = 101,
         window=None, svg: bool = True) -> list:
    """Write events.json, fronts.csv, u.csv, v.csv, atoms.csv and (optionally)
    diagram.svg under ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_max = sol.t_max_computed
    if window is None:
        window = V.auto_window(sol, t_max, pad=1.0)
    x_grid = np.linspace(window[0], window[1], nx)
    t_grid = np.linspace(t_max / nt, t_max, nt)
    written = []

    ev_doc = {
        "case": sol.case_id,
        "label": sol.case_label,
        "scenario": scenario_to_dict(sol.scenario) if sol.scenario else None,
        "events": [
            {"t": e.t, "x": e.x, "rule": e.rule,
             "incoming": list(e.incoming), "outgoing": list(e.outgoing)}
            for e in sol.events
        ],
        "fronts": [
            {"id": f.fid, "kind": f.kind.value, "birth": f.birth,
             "death": (None if math.isinf(f.death) else f.death),
             "geometry": _geometry_dict(f.geom)}
            for f in sorted(sol.fronts.values(), key=lambda f: f.fid)
        ],
    }
    p = out / "events.json"
    p.write_text(json.dumps(ev_doc, indent=2, sort_keys=True) + "\n")
    written.append(p)

    lines = ["front_id,kind,t,x,alpha,alpha0,alpha1"]
    for f in sorted(sol.fronts.values(), key=lambda f: f.fid):
        ts = _front_times(f, t_max)
        if ts is None:
            continue
        cols, tail = [ts, f.geom.pos(ts)], ",,,"
        if f.strength is not None:
            cols, tail = cols + list(f.atom(ts)), ""
        row = f"{f.fid},{f.kind.value}," + ",".join(["%.12g"] * len(cols)) + tail
        lines.append("\n".join([row] * len(ts))
                     % tuple(np.column_stack(cols).ravel().tolist()))
    p = out / "fronts.csv"
    p.write_text("\n".join(lines) + "\n")
    written.append(p)

    head = "t," + ",".join(["%.12g"] * nx) % tuple(x_grid.tolist())
    u, v = fields(sol, t_grid, x_grid)
    tl, atoms = t_grid.tolist(), atom_rows(sol, t_grid)
    atom_lines = ["\n".join(["t,front_id,x,alpha,alpha0,alpha1"]
                            + ["%.12g,%d,%.12g,%.12g,%.12g,%.12g"] * len(atoms))
                  % tuple(chain.from_iterable((tl[j], *a) for j, *a in atoms))]
    for name, rows in (("u.csv", _grid_rows(head, t_grid, u)),
                       ("v.csv", _grid_rows(head, t_grid, v)),
                       ("atoms.csv", atom_lines)):
        p = out / name
        p.write_text("\n".join(rows) + "\n")
        written.append(p)

    if svg:
        p = out / "diagram.svg"
        p.write_text(render_svg(sol, window, t_max))
        written.append(p)
    return written


def render_svg(sol: Solution, window, t_max: float) -> str:
    """x-t wave diagram: shocks solid, contacts dashed, delta fronts heavy,
    fan edges dotted, interaction events as dots."""
    width, height, m = 880, 660, 55.0
    x0, x1 = window
    sx = (width - 2 * m) / (x1 - x0)
    sy = (height - 2 * m) / t_max

    def px(x):
        return m + (x - x0) * sx

    def py(t):
        return height - m - t * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m:.1f}" y1="{height-m:.1f}" x2="{width-m:.1f}" '
        f'y2="{height-m:.1f}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{m:.1f}" y1="{height-m:.1f}" x2="{m:.1f}" y2="{m:.1f}" '
        f'stroke="#333" stroke-width="1"/>',
        f'<text x="{width-m+8:.1f}" y="{height-m+4:.1f}" font-size="14">x</text>',
        f'<text x="{m-14:.1f}" y="{m-8:.1f}" font-size="14">t</text>',
        f'<text x="{m:.1f}" y="{height-m+18:.1f}" font-size="11" '
        f'text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{width-m:.1f}" y="{height-m+18:.1f}" font-size="11" '
        f'text-anchor="middle">{_fmt(x1)}</text>',
        f'<text x="{m-6:.1f}" y="{m+4:.1f}" font-size="11" '
        f'text-anchor="end">{_fmt(t_max)}</text>',
    ]
    for f in sorted(sol.fronts.values(), key=lambda f: f.fid):
        ts = _front_times(f, t_max, n=256)
        if ts is None:
            continue
        xs = f.geom.pos(ts)
        keep = (xs >= x0 - 0.02 * (x1 - x0)) & (xs <= x1 + 0.02 * (x1 - x0))
        if not np.any(keep):
            continue
        if isinstance(f.geom, Line):    # a segment: its two ends draw it
            keep[keep.nonzero()[0][1:-1]] = False
        xy = np.column_stack([px(xs[keep]), py(ts[keep])])
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        style, _ = _KIND_STYLE[f.kind]
        parts.append(f'<polyline fill="none" {style} points="{pts}"/>')
    for e in sol.events:
        if e.t <= t_max and x0 <= e.x <= x1:
            parts.append(f'<circle cx="{px(e.x):.2f}" cy="{py(e.t):.2f}" r="4" '
                         f'fill="#000"/>')
            parts.append(f'<text x="{px(e.x)+7:.2f}" y="{py(e.t)-6:.2f}" '
                         f'font-size="10" fill="#444">{e.rule}</text>')
    ly = m
    for kind, (style, label) in _KIND_STYLE.items():
        parts.append(f'<line x1="{width-200:.1f}" y1="{ly:.1f}" '
                     f'x2="{width-160:.1f}" y2="{ly:.1f}" {style}/>')
        parts.append(f'<text x="{width-152:.1f}" y="{ly+4:.1f}" '
                     f'font-size="11">{label}</text>')
        ly += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _describe_fan(fan) -> str:
    lines = [f"wave structure: {fan.case.value}"]
    for piece in fan.fronts:
        g = piece.geom
        desc = f"  {_KIND_STYLE[piece.kind][1]:13s} speed {_fmt(g.m)}"
        if piece.strength is not None:
            a0 = piece.strength(g.t0)
            r = piece.strength.rate(g.t0)
            desc += f"  strength {_fmt(a0)} + {_fmt(r)} (t - {_fmt(g.t0)})"
        lines.append(desc)
    if not fan.fronts:
        lines.append("  constant state, no waves")
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    sc, opts = parse_scenario(args.scenario)
    if args.t_max is not None:
        sc = Scenario(sc.left, sc.middle, sc.right, sc.offset,
                      _option("--t-max", args.t_max))
    nx, nt = opts["grid"] if args.grid is None else _option("--grid", args.grid)
    window = (opts["window"] if args.window is None
              else _option("--window", args.window))
    sol = run(sc)
    svg = args.svg or opts["outputs"].get("svg", True)
    written = emit(sol, args.out, nx=nx, nt=nt, window=window, svg=svg)
    print(f"case {sol.case_label}: {len(sol.events)} interaction event(s)")
    for e in sol.events:
        print(f"  t={_fmt(e.t)} x={_fmt(e.x)}  {e.rule}")
    for p in written:
        print(f"wrote {p}")
    return 0


def _cmd_riemann(args) -> int:
    left = State(*_option("--left", args.left))
    right = State(*_option("--right", args.right))
    validate_pair(left, right, "--left and --right")
    fan = solve_grp(left, right, _option("--atom", args.atom))
    print(_describe_fan(fan))
    return 0


def _cmd_verify(args) -> int:
    sc, _ = parse_scenario(args.scenario)
    sol = run(sc)
    phis = V.random_test_functions(sol, args.tests, seed=args.seed)
    worst = max(max(map(abs, V.weak_residual(sol, phi))) for phi in phis)
    t_hi = min(sc.t_max, 5.0)
    merr = V.mass_balance(sol, V.auto_window(sol, t_hi),
                          np.linspace(1e-3, t_hi, 11))
    margins = V.overcompressibility_report(sol)
    worst_m = min((min(lo, hi) for _, lo, hi in margins), default=0.0)
    mass_tol, margin_tol = 1e-8, -1e-9
    checks = [
        (worst <= args.tol, f"weak residual: max {worst:.3e} over "
                            f"{args.tests} test functions (tol {args.tol:.1e})"),
        (merr <= mass_tol, f"mass balance: max {merr:.3e} "
                           f"(tol {mass_tol:.1e})"),
        (worst_m >= margin_tol,
         f"overcompressibility: min margin {worst_m:.3e}"),
    ]
    for passed, text in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    return 0 if all(passed for passed, _ in checks) else 3


def _cmd_oracle(args) -> int:
    sc, _ = parse_scenario(args.scenario)
    sol = run(sc)
    orun = V.fan_approx_oracle(sc, args.n)
    te, ae = V.compare_oracle(sol, orun)
    print(f"fan steps: {args.n}")
    print(f"trajectory sup error: {te:.6e}")
    print(f"strength   sup error: {ae:.6e}")
    return 0


def _at_least(low, kind):
    """An argparse type: the text as a finite ``kind`` (int or float) >= low;
    argparse reports the ValueError of a malformed text by the kind's name."""
    def parse(text: str):
        n = kind(text)
        if not low <= n < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and at least {low}, got {text}")
        return n
    parse.__name__ = kind.__name__
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use, once per process:
    parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="deltashock",
        description="Exact front tracking for delta shock wave interactions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scenario and emit outputs")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--t-max", help="end time T > 0")
    p.add_argument("--grid", help="NX,NT sample grid")
    p.add_argument("--window", help="X0,X1 sample window")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--svg", action="store_true", help="force the SVG diagram")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("riemann", help="solve a two-state (generalized) "
                                       "Riemann problem and print the fan")
    p.add_argument("--left", required=True,
                   help="u,v; a negative u needs the = form, --left=-1,2")
    p.add_argument("--right", required=True,
                   help="u,v; a negative u needs the = form, --right=-1,2")
    p.add_argument("--atom", default=0.0,
                   help="initial point-atom mass at the origin")
    p.set_defaults(func=_cmd_riemann)

    p = sub.add_parser("verify", help="run the residual battery on a scenario")
    p.add_argument("scenario")
    p.add_argument("--tests", type=_at_least(1, int), default=200)
    p.add_argument("--seed", type=_at_least(0, int), default=1234)
    p.add_argument("--tol", type=_at_least(0.0, float), default=1e-6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="compare against the N-shock fan oracle")
    p.add_argument("scenario")
    p.add_argument("--n", type=int, required=True, help="fan step count")
    p.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrackingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
