import functools
import math
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock.core import Scenario, State, WCurvedV, WTildeCurvedV
from deltashock.evaluate import atom_rows, atoms_at, fields, sample
from deltashock.interact import TrackingError, fan_solution, run
from solution_checks import four_state_draws, track


@pytest.fixture(scope="module")
def case1():
    return run(BATTERY["case1"])


def test_case1_sample_at_t1(case1):
    s = sample(case1, 1.0, np.array([-3.0, 0.0, 2.0, 2.6, 5.0]))
    assert np.allclose(s.u_vals, [6, 6, 6, 0, 0])
    assert np.allclose(s.v_regular_vals, 1.0)
    (atom,) = s.atoms
    assert atom.x == pytest.approx(2.5)
    assert atom.alpha == pytest.approx(6.0)


def test_case1_atoms_premerge(case1):
    a, b = atoms_at(case1, 0.25)
    assert a.alpha == pytest.approx(0.75)
    assert b.alpha == pytest.approx(0.75)
    assert a.x < b.x
    assert a.alpha0 + a.alpha1 == pytest.approx(a.alpha, abs=1e-12)


def test_atoms_at_one_x_in_front_id_order(case1):
    # two atoms at one x, listed right to left in their epoch, come out in
    # front-id order, as atom_rows gives them
    ep = case1.epochs[0]
    a, b = ep.fronts
    fronts = {**case1.fronts, b: replace(case1.fronts[b], geom=case1.fronts[a].geom)}
    tied = replace(case1, fronts=fronts,
                   epochs=(replace(ep, fronts=(b, a)), *case1.epochs[1:]))
    atoms = atoms_at(tied, 0.25)
    assert atoms[0].x == atoms[1].x
    assert [atom.front_id for atom in atoms] == [a, b]
    assert [row[1] for row in atom_rows(tied, [0.25])] == [a, b]


def test_atoms_continuous_across_merge(case1):
    t_ev = case1.events[0].t
    before = atoms_at(case1, t_ev * (1 - 1e-9))
    after = atoms_at(case1, t_ev * (1 + 1e-9))
    assert len(before) == 2 and len(after) == 1
    assert sum(a.alpha for a in before) == pytest.approx(after[0].alpha, rel=1e-6)
    xs = [a.x for a in before] + [after[0].x]
    assert max(xs) - min(xs) <= 1e-6


def test_lemma_contact_atom_constant():
    sol = fan_solution(State(3, 1), State(2, 1), gamma=5.0)
    for t in (0.5, 2.0, 7.0):
        (atom,) = atoms_at(sol, t)
        assert atom.alpha == pytest.approx(5.0)
        assert atom.alpha0 == pytest.approx(2.5)  # even split on a contact


def test_initial_data_continuity(case1):
    s = sample(case1, 1e-6, np.array([-5.0, -0.5, 3.0]))
    assert np.allclose(s.u_vals, [6, 3, 0])


def test_on_front_resolves_left(case1):
    # the merged delta sits exactly at x = 2.5 when t = 1
    s = sample(case1, 1.0, np.array([2.5]))
    assert s.u_vals[0] == 6.0


def test_sample_rejects_nonpositive_time(case1):
    with pytest.raises(ValueError):
        sample(case1, 0.0, [0.0])
    with pytest.raises(ValueError):
        atoms_at(case1, -1.0)
    # a time that is not finite is no time of the solution either
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sample(case1, t, [0.0])
        with pytest.raises(ValueError):
            fields(case1, [1.0, t], [0.0])
        with pytest.raises(ValueError):
            atoms_at(case1, t)


def test_sample_rejects_nan_x(case1):
    # a NaN x is no point of the line; +-inf are the outer states
    with pytest.raises(ValueError):
        sample(case1, 1.0, [math.nan])
    with pytest.raises(ValueError):
        fields(case1, [1.0], [0.0, math.nan])
    s = sample(case1, 1.0, [-math.inf, math.inf])
    assert s.u_vals.tolist() == [6.0, 0.0]
    assert s.v_regular_vals.tolist() == [1.0, 1.0]


def test_sample_takes_one_time(case1):
    # a sequence of times is refused, not cut to its first entry
    for t in ([1.0, 5.0], (1.0,), np.array([1.0, 5.0]), np.array([1.0])):
        with pytest.raises(ValueError):
            sample(case1, t, [0.0])
        with pytest.raises(ValueError):
            atoms_at(case1, t)
    # one time of any real type is that time, held as a float
    ref = sample(case1, 1.0, [0.0, 2.6])
    for t in (1, np.float64(1.0), np.array(1.0), np.int64(1)):
        s = sample(case1, t, [0.0, 2.6])
        assert type(s.t) is float and s.t == 1.0
        assert s.u_vals.tolist() == ref.u_vals.tolist()
        assert s.atoms == ref.atoms == atoms_at(case1, t)


def test_epoch_at_is_the_last_epoch_started(case1):
    t_merge = case1.events[0].t
    assert case1.epoch_at(0.0) is case1.epochs[0]
    assert case1.epoch_at(math.nextafter(t_merge, 0.0)) is case1.epochs[0]
    assert case1.epoch_at(t_merge) is case1.epochs[1]
    assert case1.epoch_at(math.inf) is case1.epochs[1]
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError):
            case1.epoch_at(t)


def test_w_region_values_increase_toward_contact():
    sol = run(BATTERY["case4iib"])
    t = 3.0
    g1 = 3.0 + 3.0 * (t - 1.5)          # straight delta contact
    g2 = 4.0 * t - math.sqrt(6.0 * t)   # continued shock curve
    xs = np.linspace(g1 + 1e-4, g2 - 1e-4, 9)
    s = sample(sol, t, xs)
    assert np.all(np.isfinite(s.v_regular_vals))
    assert np.all(np.diff(s.v_regular_vals) < 0)  # decreasing away from it


def test_singular_marker_not_silently_large():
    sol = run(BATTERY["case4iib"])
    t = 3.0
    g1 = 3.0 + 3.0 * (t - 1.5)
    # past the on-front snap tolerance but indistinguishable from the
    # singular boundary at working precision: a signed marker, not a huge float
    s = sample(sol, t, np.array([g1 + 1e-11]))
    assert math.isinf(s.v_regular_vals[0]) and s.v_regular_vals[0] > 0


def test_sample_is_pure(case1):
    xs = np.linspace(-3, 6, 41)
    a = sample(case1, 0.9, xs)
    b = sample(case1, 0.9, xs)
    assert np.array_equal(a.u_vals, b.u_vals)
    assert np.array_equal(a.v_regular_vals, b.v_regular_vals)
    assert a.atoms == b.atoms


def _times_across_epochs(sol):
    """Times in every epoch: a uniform grid, each epoch start, and points
    just before and after each start."""
    starts = np.array([ep.t0 for ep in sol.epochs if ep.t0 > 0.0])
    ts = np.concatenate([np.linspace(0.02, sol.t_max_computed, 23), starts,
                         starts * (1 - 1e-7), starts * (1 + 1e-7)])
    return np.unique(ts)


@pytest.mark.parametrize("name", list(BATTERY))
def test_fields_rows_equal_sample(name):
    sol = run(BATTERY[name])
    ts = _times_across_epochs(sol)
    assert len({sol.epoch_at(t).t0 for t in ts}) == len(sol.epochs)
    # x points exactly on the fronts, plus a uniform window around them
    on = {}
    for j in range(0, len(ts), 3):
        ep = sol.epoch_at(ts[j])
        pos = [sol.fronts[f].geom.pos(ts[j]) for f in ep.fronts]
        for k, x in enumerate(pos):
            if all(abs(x - y) > 1e-9 for y in pos[:k] + pos[k + 1:]):
                on[x] = (j, ep.regions[k])
    xs = np.unique(np.concatenate([np.linspace(-5.0, 30.0, 71), list(on)]))
    u, v = fields(sol, ts, xs)
    assert u.shape == v.shape == (len(ts), len(xs))
    for j, t in enumerate(ts):
        s = sample(sol, float(t), xs)
        assert np.array_equal(u[j], s.u_vals)
        assert np.array_equal(v[j], s.v_regular_vals)
    # a point on a front takes its left region's value
    assert on
    for x, (j, rid) in on.items():
        i = int(np.searchsorted(xs, x))
        assert u[j, i] == sol.regions[rid].u_law(x, float(ts[j]))


@pytest.mark.parametrize("name", list(BATTERY))
def test_fields_shuffled_repeated_times_equal_sample(name):
    # the rows of one epoch are not contiguous, and some rows repeat
    sol = run(BATTERY[name])
    ts = _times_across_epochs(sol)
    rng = np.random.default_rng(24)
    ts = rng.permutation(np.concatenate([ts, rng.choice(ts, 12)]))
    starts = [sol.epoch_at(t).t0 for t in ts]
    runs = 1 + sum(a != b for a, b in zip(starts, starts[1:]))
    assert runs > len(set(starts)) and len(set(ts)) < len(ts)
    xs = np.linspace(-5.0, 30.0, 71)
    u, v = fields(sol, ts, xs)
    for j, t in enumerate(ts.tolist()):
        s = sample(sol, t, xs)
        assert u[j].tobytes() == s.u_vals.tobytes()
        assert v[j].tobytes() == s.v_regular_vals.tobytes()


def test_one_point_curved_region_row_equals_grid():
    # a row whose curved region holds exactly one point passes that point
    # to the laws as a float; the grid passes arrays, with the same bits
    seen = set()
    for name in ("case5_bif_left", "case5_bif_mid"):
        sol = run(BATTERY[name])
        for ep in sol.epochs:
            t = ep.t0 + 0.5 * (min(ep.t1, ep.t0 + 2.0) - ep.t0)
            pos = [sol.fronts[f].geom.pos(t) for f in ep.fronts]
            for k, rid in enumerate(ep.regions):
                law = sol.regions[rid].v_law
                if not isinstance(law, (WCurvedV, WTildeCurvedV)):
                    continue
                xs = np.array([min(pos) - 1.0, 0.5 * (pos[k - 1] + pos[k]),
                               max(pos) + 1.0])
                u, v = fields(sol, [t, t + 1e-3], xs)
                s = sample(sol, t, xs)
                assert np.array_equal(u[0], s.u_vals)
                assert np.array_equal(v[0], s.v_regular_vals)
                assert math.isfinite(s.v_regular_vals[1])
                seen.add(type(law))
    assert seen == {WCurvedV, WTildeCurvedV}


@pytest.mark.parametrize("name", list(BATTERY))
def test_atom_table_rows_equal_atoms_at(name):
    # the rows of atom_rows, as a table of one row list per time
    sol = run(BATTERY[name])
    ts = _times_across_epochs(sol)
    rows = atom_rows(sol, ts)
    js = [r[0] for r in rows]
    assert js == sorted(js) and set(js) <= set(range(len(ts)))
    table = [[r[1:] for r in rows if r[0] == j] for j in range(len(ts))]
    for t, row in zip(ts, table):
        assert row == [(a.front_id, a.x, a.alpha, a.alpha0, a.alpha1)
                       for a in atoms_at(sol, float(t))]
        assert [x for _, x, *_ in row] == sorted(x for _, x, *_ in row)
        for fid, *vals in row:
            assert type(fid) is int and all(type(v) is float for v in vals)
    assert any(table)


def _fields_per_point(sol, ts, xs):
    """u and v one point at a time: the epoch by its start, the region by
    the fronts' positions at t (a point within 1e-12 of the nearest front
    at or left of it belongs to that front's left region), then the
    region's own laws on the point."""
    u = np.empty((len(ts), len(xs)))
    v = np.empty((len(ts), len(xs)))
    for j, t in enumerate(ts.tolist()):
        ep = [ep for ep in sol.epochs if ep.t0 <= t][-1]
        pos = [sol.fronts[f].geom.pos(t) for f in ep.fronts]
        for i, x in enumerate(xs.tolist()):
            k = sum(p <= x for p in pos)
            if k and abs(x - pos[k - 1]) <= 1e-12 * (1.0 + abs(pos[k - 1])):
                k -= 1
            reg = sol.regions[ep.regions[k]]
            u[j, i] = reg.u_law(x, t)
            v[j, i] = reg.v_law(x, t)
    return u, v


_SIGNED_ZEROS = Scenario(State(6.0, 1.0), State(3.0, -0.0), State(-0.0, 1.0),
                         offset=-1.0)


def _row_queries(sol, ts, xs):
    """Every row's x as given, shuffled with repeats, and with the event
    points of its time, where the fronts born there coincide at the
    epoch's start, and x = -inf and +inf."""
    rng = np.random.default_rng(len(xs))
    events = [ev.x for ev in sol.events]
    extra = np.array([-math.inf, math.inf, *events])
    shuffled = rng.permutation(np.concatenate([xs, xs[::7], extra]))
    return [np.concatenate([xs, extra]), shuffled]


@pytest.mark.parametrize("scenario", [
    *(pytest.param(sc, id=name) for name, sc in BATTERY.items()),
    pytest.param(_SIGNED_ZEROS, id="signed-zeros"),
])
def test_fields_match_per_point_reference(scenario):
    sol = run(scenario)
    ts = _times_across_epochs(sol)
    fronts_at = [sol.fronts[f].geom.pos(float(t))
                 for t in ts[::5] for f in sol.epoch_at(float(t)).fronts]
    xs = np.unique(np.concatenate([np.linspace(-5.0, 30.0, 71), fronts_at]))
    u, v = fields(sol, ts, xs)
    ref_u, ref_v = _fields_per_point(sol, ts, xs)
    # bitwise, so a signed zero or an infinity must come back as it is
    assert u.tobytes() == ref_u.tobytes()
    assert v.tobytes() == ref_v.tobytes()
    if scenario is _SIGNED_ZEROS:
        for vals in (u, v):
            assert np.any((vals == 0.0) & np.signbit(vals))
    # the one-row path: each time alone, the event times among them, on
    # shuffled and repeated x, the event points and +-inf
    ts = np.unique(np.concatenate([ts, [ev.t for ev in sol.events]]))
    for xq in _row_queries(sol, ts, xs):
        grid_u, grid_v = fields(sol, ts, xq)
        ref_u, ref_v = _fields_per_point(sol, ts, xq)
        for j, t in enumerate(ts.tolist()):
            row_u, row_v = fields(sol, [t], xq)
            assert row_u.shape == row_v.shape == (1, len(xq))
            for row, grid, ref in ((row_u, grid_u, ref_u), (row_v, grid_v, ref_v)):
                assert row.dtype == float
                assert row[0].tobytes() == grid[j].tobytes() == ref[j].tobytes()


@functools.cache
def _four_state_solutions(count: int = 3) -> list:
    """Of the seeded four-state draws that solve, the ``count`` with the
    most dead fronts."""
    sols = []
    for states, origins in four_state_draws(400):
        try:
            sols.append(track(states, origins))
        except TrackingError:
            pass
    sols.sort(key=lambda sol: -sum(f.death < math.inf for f in sol.fronts.values()))
    return sols[:count]


def _atoms_by_scan(sol, t):
    """(x, front_id, alpha, alpha0, alpha1) for every front the solution
    ever had that carries an atom alive at t, by x, ties by front id."""
    rows = [(f.geom.pos(t), f.fid, *f.atom(t)) for f in sol.fronts.values()
            if f.strength is not None and f.alive_at(t)]
    return sorted(rows, key=itemgetter(0, 1))


def _bits(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in row)
            for row in rows]


@pytest.mark.parametrize("solve", [
    *(pytest.param(functools.partial(run, sc), id=name)
      for name, sc in BATTERY.items()),
    pytest.param(functools.partial(run, _SIGNED_ZEROS), id="signed-zeros"),
    *(pytest.param(lambda k=k: _four_state_solutions()[k], id=f"four-state-{k}")
      for k in range(3)),
])
def test_one_time_path_matches_references(solve):
    # sample and atoms_at read only the epoch in force at t: they must
    # agree bitwise with the per-point fields and with a scan of every
    # front by alive_at, at times across the epochs and at each event time
    sol = solve()
    ts = np.unique(np.concatenate([_times_across_epochs(sol),
                                   [ev.t for ev in sol.events]]))
    fronts_at = [sol.fronts[f].geom.pos(float(t))
                 for t in ts[::5] for f in sol.epoch_at(float(t)).fronts]
    xs = np.unique(np.concatenate([np.linspace(-5.0, 30.0, 71), fronts_at,
                                   [ev.x for ev in sol.events]]))
    ref_u, ref_v = _fields_per_point(sol, ts, xs)
    dead = 0
    for j, t in enumerate(ts.tolist()):
        s = sample(sol, t, xs)
        assert s.u_vals.tobytes() == ref_u[j].tobytes()
        assert s.v_regular_vals.tobytes() == ref_v[j].tobytes()
        scan = _atoms_by_scan(sol, t)
        assert _bits((a.x, a.front_id, a.alpha, a.alpha0, a.alpha1)
                     for a in s.atoms) == _bits(scan)
        assert atoms_at(sol, t) == s.atoms
        dead += sum(f.strength is not None and f.death <= t
                    for f in sol.fronts.values())
    assert dead or not sol.events
