import math

import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock.core import Scenario, State
from deltashock.evaluate import atom_table, atoms_at, fields, sample
from deltashock.interact import fan_solution, run


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
def test_atom_table_rows_equal_atoms_at(name):
    sol = run(BATTERY[name])
    ts = _times_across_epochs(sol)
    table = atom_table(sol, ts)
    assert len(table) == len(ts)
    for t, row in zip(ts, table):
        assert row == atoms_at(sol, float(t))
        assert [a.x for a in row] == sorted(a.x for a in row)
        for a in row:
            assert all(type(getattr(a, k)) is float
                       for k in ("x", "alpha", "alpha0", "alpha1"))
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
