import warnings
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock import core
from deltashock.core import (ConstLaw, FieldLaw, State, WCurvedV, WTildeCurvedV,
                             split_weight)
from deltashock.evaluate import atoms_at
from deltashock.interact import fan_solution, run
from deltashock import verify as V
from solution_checks import dbump, entropy_compat_error, perturb_strength_rate


def test_testfunction_derivatives_match_fd():
    # phi_t and phi_x are products of the bump and its derivative
    phi = V.TestFunction(0.6, -0.3, 0.4, 1.1)
    rng = np.random.default_rng(0)
    r = rng.uniform(-1.2, 1.2, 40)
    h = 1e-6
    fd = (phi._bump(r + h) - phi._bump(r - h)) / (2 * h)
    assert np.allclose(dbump(r), fd, atol=1e-8)
    assert phi.value(0.6, -0.3) == phi.sup


def test_bump_integral_matches_gauss():
    # P(b) - P(a) against 32-point Gauss-Legendre, exact for the degree-16
    # bump; endpoints spread over [-1, 1] and clustered near +-1, where the
    # difference is a small remainder of two values close to P(+-1)
    rng = np.random.default_rng(20240801)
    n = 2000
    spread = rng.uniform(-1.0, 1.0, (n // 2, 2))
    near = rng.choice([-1.0, 1.0], (n // 2, 1)) * (
        1.0 - 10.0 ** rng.uniform(-12.0, 0.0, (n // 2, 2)))
    a, b = np.sort(np.concatenate([spread, near]), axis=1).T
    xg, wg = np.polynomial.legendre.leggauss(32)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    gauss = half * np.sum(wg * V.TestFunction._bump(mid[:, None]
                                                     + half[:, None] * xg),
                          axis=1)
    exact = V.TestFunction._bump_integral(b) - V.TestFunction._bump_integral(a)
    assert np.max(np.abs(exact - gauss)) <= 4e-15
    assert V.TestFunction._bump_integral(1.0) == pytest.approx(
        np.prod([2 * j / (2 * j + 1) for j in range(1, 9)]), rel=1e-15)


class _NodeConst(FieldLaw):
    """A constant law that is not a ``ConstLaw``: regions using it are
    integrated on x nodes, not as flat rows."""

    def __init__(self, value):
        self.value = value

    def __call__(self, x, t):
        return np.full(np.shape(x), self.value)


def _through_nodes(sol):
    def law(f):
        return _NodeConst(f.value) if isinstance(f, ConstLaw) else f
    regions = {rid: replace(reg, u_law=law(reg.u_law), v_law=law(reg.v_law))
               for rid, reg in sol.regions.items()}
    return replace(sol, regions=regions)


@pytest.fixture(scope="module")
def battery_pairs():
    return {name: (sol, _through_nodes(sol)) for name, sol in
            ((name, run(sc)) for name, sc in BATTERY.items())}


def test_flat_rows_match_node_quadrature(battery_pairs):
    worst = 0.0
    for sol, nodes in battery_pairs.values():
        for phi in V.random_test_functions(sol, 200, seed=20240801):
            flat = V.weak_residual(sol, phi)
            ref = V.weak_residual(nodes, phi)
            worst = max(worst, abs(flat[0] - ref[0]), abs(flat[1] - ref[1]))
    assert worst <= 1e-13


def test_flat_rows_match_node_quadrature_mass(battery_pairs):
    for sol, nodes in battery_pairs.values():
        t_hi = min(sol.t_max_computed, 5.0)
        window = V.auto_window(sol, t_hi)
        times = np.linspace(1e-3, t_hi, 11)
        for t in times:
            assert abs(V._mass_at(sol, t, *window)
                       - V._mass_at(nodes, t, *window)) <= 1e-13
        assert abs(V.mass_balance(sol, window, times)
                   - V.mass_balance(nodes, window, times)) <= 1e-13


def _flat_rows(table, ends, x_lo, x_hi, v):
    """A flat piece's ends clipped to [x_lo, x_hi] as a (2, rows) array on
    its non-empty rows, those rows, and v on them as a column."""
    a, b = (np.minimum(np.maximum(table[i], x_lo), x_hi) for i in ends)
    rows = np.flatnonzero(b - a > 0.0)
    v = np.broadcast_to(np.asarray(v, dtype=float), a.shape)[rows, None]
    return np.stack((a, b))[:, rows], rows, v


def _per_cell_pairing(sol, phi, laws, eps=None, atoms=False):
    """``verify._pairing`` one time cell at a time: every cell has its own
    time nodes, front positions, ``_slabs`` walk and x panels, and a flat
    piece is integrated on its non-empty rows, from its ends clipped to the
    window in x."""
    t_lo, t_hi = max(0.0, phi.tc - phi.st), phi.tc + phi.st
    x_lo, x_hi = phi.xc - phi.sx, phi.xc + phi.sx
    R = [0.0] * len(laws)
    for a, b in V._time_cells(sol, t_lo, t_hi, x_lo, x_hi, eps):
        ep = sol.epoch_at(0.5 * (a + b))
        xi, wxi = V._composite01(max(4, V._panels_for(b - a, phi.st)), V._ORDER)
        tn, tw = a + (b - a) * xi, (b - a) * wxi
        bt = tw * phi._bump((tn - phi.tc) / phi.st)
        dbt = tw * dbump((tn - phi.tc) / phi.st) / phi.st
        fronts = [sol.fronts[f] for f in ep.fronts]
        pos = [f.geom.pos(tn) for f in fronts]
        table = V._end_table(fronts, tn, x_lo, x_hi, eps)
        for rows, ends, x, wx, u, v in V._slabs(
                sol, ep, fronts, table, tn, x_lo, x_hi,
                lambda a, b, t, _: V._panels_for(float(np.max(b - a)), phi.sx),
                V._ORDER, eps):
            if x is None:   # exact x-integrals of the bump and its derivative
                ends, rows, v = _flat_rows(table, ends, x_lo, x_hi, v)
                r = (ends - phi.xc) / phi.sx
                ix = phi.sx * np.diff(phi._bump_integral(r), axis=0).T
                jx = np.diff(phi._bump(r), axis=0).T
            else:
                r = (x - phi.xc) / phi.sx
                ix, jx = wx * phi._bump(r), wx * dbump(r) / phi.sx
            for i, law in enumerate(laws):
                rho, flux = law(u, v)
                R[i] += float(np.dot(dbt[rows], np.sum(rho * ix, axis=1))
                              + np.dot(bt[rows], np.sum(flux * jx, axis=1)))
        for f, c in zip(fronts, pos):
            if atoms and f.kind.carries_atom:
                uL, uR = f.u_traces(tn)
                alpha = f.strength(tn)
                w0 = split_weight(uL, uR, np.asarray(f.geom.slope(tn)))
                m = alpha * (w0 * (uL - 1.0) + (1.0 - w0) * (uR - 1.0))
                rc = (c - phi.xc) / phi.sx
                R[-1] += float(np.sum(dbt * alpha * phi._bump(rc)
                                      + bt * m * dbump(rc) / phi.sx))
    if phi.tc - phi.st < 0.0:   # the initial term
        ep = sol.epochs[0]
        fronts = [sol.fronts[f] for f in ep.fronts]
        pos = [f.geom.pos(np.zeros(1)) for f in fronts]
        table = V._end_table(fronts, np.zeros(1), x_lo, x_hi)
        b0 = float(phi._bump(-phi.tc / phi.st))
        for _, ends, x, wx, u, v in V._slabs(sol, ep, fronts, table, np.zeros(1),
                                             x_lo, x_hi, lambda *_: 6, V._ORDER):
            if x is None:
                ends, _, v = _flat_rows(table, ends, x_lo, x_hi, v)
                p = phi._bump_integral((ends - phi.xc) / phi.sx)
                p0 = phi.sx * (p[1] - p[0])
            else:
                p0 = wx * phi._bump((x - phi.xc) / phi.sx)
            for i, law in enumerate(laws):
                R[i] += b0 * float(np.sum(law(u, v)[0] * p0))
        for f, c in zip(fronts, pos):
            if atoms and f.kind.carries_atom:
                R[-1] += float(f.strength(0.0)) * float(phi.value(0.0, c[0]))
    return R


def test_epoch_groups_match_per_cell_pairing(battery_pairs):
    # one pass per epoch changes the order of the sums and gives a node
    # piece the x panels of its widest row in the group, nothing else
    weak = (lambda u, v: (u, 0.5 * u * u), lambda u, v: (v, (u - 1.0) * v))
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    entropy = (lambda u, v: (pair.eta(u, v), pair.q(u, v)),)
    worst, multi, initial = 0.0, 0, 0
    for sol, _ in battery_pairs.values():
        for k, phi in enumerate(V.random_test_functions(sol, 200, seed=20240801)):
            cells = V._time_cells(sol, max(0.0, phi.tc - phi.st),
                                  phi.tc + phi.st, phi.xc - phi.sx,
                                  phi.xc + phi.sx)
            epochs = {id(sol.epoch_at(0.5 * (a + b))) for a, b in cells}
            multi += len(cells) >= 5 and len(epochs) >= 2
            initial += phi.tc - phi.st < 0.0
            ref = _per_cell_pairing(sol, phi, weak, atoms=True)
            got = V.weak_residual(sol, phi)
            worst = max(worst, abs(got[0] - ref[0]), abs(got[1] - ref[1]))
            if k < 20:
                (ref,) = _per_cell_pairing(sol, phi, entropy, eps=1e-3)
                assert V.entropy_residual(sol, pair, phi, eps=1e-3) == \
                    pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert multi >= 100 and initial >= 100
    assert worst <= 1e-13


def test_entropy_strips_overlap_between_merging_deltas():
    # before case1's MergeDeltas at (1/3, 1/2) the region between the two
    # deltas is narrower than 2 eps: both strips overlap it and its main
    # piece has b < a, which must add nothing
    sol = run(BATTERY["case1"])
    (merge,) = sol.events
    assert (merge.t, merge.x) == pytest.approx((1 / 3, 1 / 2))
    eps = 1e-2
    phi = V.TestFunction(merge.t, merge.x, 0.1, 0.3)
    cells = V._time_cells(sol, phi.tc - phi.st, phi.tc + phi.st,
                          phi.xc - phi.sx, phi.xc + phi.sx, eps)
    # the gap 1 - 3t reaches 2 eps and eps inside the support
    assert any(b == pytest.approx(merge.t - 2 * eps / 3) for _, b in cells)
    assert any(b == pytest.approx(merge.t - eps / 3) for _, b in cells)
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    entropy = (lambda u, v: (pair.eta(u, v), pair.q(u, v)),)
    (ref,) = _per_cell_pairing(sol, phi, entropy, eps=eps)
    assert V.entropy_residual(sol, pair, phi, eps=eps) == pytest.approx(
        ref, rel=1e-9)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("name", ["case1", "case3", "case4i", "case5_bif_left"])
def test_entropy_residual_over_a_delta_birth(name, eps):
    # the support covers t = 0 with an atom front inside; the strips have
    # no width at t = 0, so the initial term pairs the unregularized data
    sol = run(BATTERY[name])
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    entropy = (lambda u, v: (pair.eta(u, v), pair.q(u, v)),)
    births = [float(f.geom.pos(0.0)) for f in sol.fronts.values()
              if f.kind.carries_atom and f.birth == 0.0]
    assert births
    for x0 in births:
        phi = V.TestFunction(0.05, x0 + 0.1, 0.1, 0.4)
        (ref,) = _per_cell_pairing(sol, phi, entropy, eps=eps)
        assert V.entropy_residual(sol, pair, phi, eps=eps) == pytest.approx(
            ref, rel=1e-9)


@pytest.mark.parametrize("name, scale", [
    ("case1", 1e-17), ("case4iia", 1e-17), ("case5_bif_left", 1e-17),
    ("case4iia", 2e-15), ("case5_bif_left", 1e-16)])
def test_initial_term_when_epoch_0_has_no_time_cell(name, scale):
    # with the offset scaled down, the first events come before the end of
    # the shortest time cell, so epoch 0 has none: the t = 0 row is a group
    # of its own, on epoch 0's fronts.  At the larger scales the first cell
    # lies in the epoch of a SqrtCurve delta or a LogCurve contact, which
    # warn at t = 0
    sc = BATTERY[name]
    sol = run(replace(sc, offset=sc.offset * scale))
    weak = (lambda u, v: (u, 0.5 * u * u), lambda u, v: (v, (u - 1.0) * v))
    phis = [phi for phi in V.random_test_functions(sol, 200, seed=20240801)
            if phi.tc - phi.st < 0.0]
    assert len(phis) >= 20
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for phi in phis:
            (a, b), *_ = V._time_cells(sol, 0.0, phi.tc + phi.st,
                                       phi.xc - phi.sx, phi.xc + phi.sx)
            assert sol.epoch_at(0.5 * (a + b)) is not sol.epochs[0]
            ref = _per_cell_pairing(sol, phi, weak, atoms=True)
            assert V.weak_residual(sol, phi) == pytest.approx(
                ref, rel=0.0, abs=1e-13)


def test_one_bump_table_per_epoch_group(battery_pairs, monkeypatch):
    # a group evaluates the bump's antiderivative once, on its end table,
    # the initial term included; never once per piece
    calls = []
    bump_integral = V.TestFunction._bump_integral

    def count(*args):
        calls.append(1)
        return bump_integral(*args)

    monkeypatch.setattr(V.TestFunction, "_bump_integral", staticmethod(count))
    groups = 0
    for sol, _ in battery_pairs.values():
        for phi in V.random_test_functions(sol, 200, seed=20240801):
            cells = V._time_cells(sol, max(0.0, phi.tc - phi.st),
                                  phi.tc + phi.st, phi.xc - phi.sx,
                                  phi.xc + phi.sx)
            groups += len(list(groupby(cells, lambda c: sol.epoch_at(
                0.5 * (c[0] + c[1])))))
            V.weak_residual(sol, phi)
    assert groups > 2000 and len(calls) == groups


def test_node_blocks_stay_bounded(battery_pairs, monkeypatch):
    # a node piece of a long epoch group is evaluated in row blocks
    sizes = []
    x_nodes = V._x_nodes

    def record(*args):
        out = x_nodes(*args)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(V, "_x_nodes", record)
    for sol, _ in battery_pairs.values():
        for phi in V.random_test_functions(sol, 200, seed=20240801):
            V.weak_residual(sol, phi)
    assert sizes and max(sizes) <= V._NODE_BLOCK


CURVED = ("case5_bif_left", "case5_bif_mid")


@pytest.mark.parametrize("name", CURVED)
def test_mass_balance_after_breakdown(name):
    # the first times after the breakdown at t = 2 find the curved region
    # thin; integrated in its back-trace root, its mass is exact
    sol = run(BATTERY[name])
    t_hi = min(sol.t_max_computed, 5.0)
    times = np.linspace(1e-3, t_hi, 11)
    assert V.mass_balance(sol, V.auto_window(sol, t_hi), times) <= 1e-13


@pytest.mark.parametrize("name", CURVED)
def test_curved_row_integrates_v_in_closed_form(name):
    # in the back-trace root s, v dx = 2 v2 (2B + s) ds: one row of a curved
    # piece integrates v to v2 (4B s + s^2) between its ends' coordinates
    sol = run(BATTERY[name])
    seen = set()
    for ep in sol.epochs:
        t = ep.t0 + 0.5 * (min(ep.t1, 2.0 * ep.t0 + 1.0) - ep.t0)
        fronts = [sol.fronts[f] for f in ep.fronts]
        tn = np.array([t])
        pos = [float(f.geom.pos(t)) for f in fronts]
        x_lo, x_hi = min(pos) - 1.0, max(pos) + 1.0
        ends = V._end_table(fronts, tn, x_lo, x_hi)
        for k, rid in enumerate(ep.regions):
            law = sol.regions[rid].v_law
            if not isinstance(law, (WCurvedV, WTildeCurvedV)):
                continue
            pieces = [p for p in V._slabs(sol, ep, fronts, ends, tn, x_lo, x_hi,
                                          V._mass_panels, V._MASS_ORDER)
                      if p[2] is not None and p[2][0, 0] > ends[k, 0]
                      and p[2][0, -1] < ends[k + 1, 0]]
            (_, _, x, wx, _, v), = pieces
            q = law.coord(ends[k:k + 2, 0] - law.singular_locus(t), t)
            exact = law.v2 * np.diff(4.0 * law.B * q + q * q)[0]
            assert float(np.sum(wx * v)) == pytest.approx(exact, rel=1e-14)
            seen.add(type(law))
    assert seen == {WCurvedV, WTildeCurvedV}


def test_curved_roots_only_at_row_ends(battery_pairs, monkeypatch):
    # the curved profiles' back-trace root runs on the two ends of each row
    # of a node piece, never on its nodes: their own closed form gives d and v
    sizes, dims, rows = [], set(), []
    curved_s = core._curved_s

    def root(g0, *args):
        sizes.append(np.size(g0))
        dims.add(np.ndim(g0))
        return curved_s(g0, *args)

    monkeypatch.setattr(core, "_curved_s", root)
    for cls in (WCurvedV, WTildeCurvedV):
        def from_coord(self, s, t, _orig=cls.from_coord):
            rows.append(np.shape(s)[0])
            return _orig(self, s, t)
        monkeypatch.setattr(cls, "from_coord", from_coord)
    for sol, _ in battery_pairs.values():
        for phi in V.random_test_functions(sol, 200, seed=20240801):
            V.weak_residual(sol, phi)
    assert rows and sum(sizes) == 2 * sum(rows) and dims == {1}


def _atom_fronts_met(sol, phi):
    """Per (epoch group, atom front) pair of ``phi``'s weak pairing, whether
    the bump's x-factor is nonzero at some time node of the group."""
    cells = V._time_cells(sol, max(0.0, phi.tc - phi.st), phi.tc + phi.st,
                          phi.xc - phi.sx, phi.xc + phi.sx)
    met = []
    for ep, group in groupby(cells, lambda c: sol.epoch_at(0.5 * (c[0] + c[1]))):
        tn = np.concatenate([a + (b - a) * V._composite01(
            max(4, V._panels_for(b - a, phi.st)), V._ORDER)[0] for a, b in group])
        for f in (sol.fronts[fid] for fid in ep.fronts):
            if f.kind.carries_atom:
                rc = (f.geom.pos(tn) - phi.xc) / phi.sx
                met.append(bool(np.any(1.0 - rc * rc > 0.0)))
    return met


def _count_split_weight(monkeypatch):
    calls = []

    def count(*args):
        calls.append(1)
        return split_weight(*args)

    monkeypatch.setattr(V, "split_weight", count)
    return calls


def test_atom_fronts_outside_the_support_are_skipped(battery_pairs, monkeypatch):
    # a group evaluates an atom front's traces, strength and split only when
    # the front meets the support at some time node
    calls = _count_split_weight(monkeypatch)
    met = []
    for sol, _ in battery_pairs.values():
        for phi in V.random_test_functions(sol, 200, seed=20240801):
            met += _atom_fronts_met(sol, phi)
            V.weak_residual(sol, phi)
    assert len(calls) == sum(met)
    assert 0.3 <= met.count(False) / len(met) <= 0.6


@pytest.mark.parametrize("left, right, kept", [
    (State(4, 1), State(0, 1), 1),    # x = 2t enters the support at t = tc
    (State(2, 1), State(-2, 1), 0),   # x = 0 runs along its left edge
], ids=["entering", "along_edge"])
def test_atom_front_at_the_support_edge(left, right, kept, monkeypatch):
    # the delta line passes through (tc, xc - sx), where the bump's x-factor
    # vanishes; the skip must agree with a pairing that always integrates
    sol = fan_solution(left, right)
    (front,) = sol.fronts.values()
    tc, st, sx = 0.5, 0.3, 0.5
    phi = V.TestFunction(tc, float(front.geom.pos(tc)) + sx, st, sx)
    weak = (lambda u, v: (u, 0.5 * u * u), lambda u, v: (v, (u - 1.0) * v))
    ref = _per_cell_pairing(sol, phi, weak, atoms=True)
    calls = _count_split_weight(monkeypatch)
    got = V.weak_residual(sol, phi)
    assert len(calls) == kept == sum(_atom_fronts_met(sol, phi))
    assert got == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_quadrature_cache_is_read_only(battery_pairs):
    # every call shares the cached nodes and weights; the pairings scale
    # their own copies in place, never these
    for sol, _ in battery_pairs.values():
        for phi in V.random_test_functions(sol, 20, seed=20240801):
            assert all(np.isfinite(V.weak_residual(sol, phi)))
    assert len(V._GL_CACHE) >= 2
    for arrays in V._GL_CACHE.values():
        for a in arrays:
            with pytest.raises(ValueError):
                a *= 2.0


def test_random_test_functions_deterministic():
    sol = run(BATTERY["case1"])
    a = V.random_test_functions(sol, 10, seed=7)
    b = V.random_test_functions(sol, 10, seed=7)
    assert a == b


def test_constant_solution_zero_residual():
    sol = fan_solution(State(2, 3), State(2, 3))
    phi = V.TestFunction(0.3, 0.1, 0.25, 0.8)
    ru, rv = V.weak_residual(sol, phi)
    assert abs(ru) < 1e-14 and abs(rv) < 1e-14


def test_pure_delta_riemann_residual():
    sol = fan_solution(State(4, 1), State(0, 1))
    for phi in V.random_test_functions(sol, 60, seed=3, t_hi=2.0):
        assert max(map(abs, V.weak_residual(sol, phi))) <= 1e-6


def test_residual_detects_wrong_strength_slope():
    sol = run(BATTERY["case1"])
    fid = sol.events[0].outgoing[0]
    bad = perturb_strength_rate(sol, fid, 0.1)
    x_on = bad.fronts[fid].geom.pos(0.8)
    phi = V.TestFunction(0.8, x_on, 0.4, 1.0)
    _, rv = V.weak_residual(bad, phi)
    assert abs(rv) >= 1e-2 * phi.sup


def test_mass_balance_case1():
    sol = run(BATTERY["case1"])
    err = V.mass_balance(sol, (-10.0, 10.0), np.linspace(1e-3, 1.0, 6))
    assert err <= 1e-8
    (atom,) = atoms_at(sol, 1.0)
    assert atom.alpha == pytest.approx(6.0)


def test_mass_balance_rejects_escaping_fronts():
    sol = run(BATTERY["case1"])
    with pytest.raises(ValueError):
        V.mass_balance(sol, (-1.0, 1.0), np.linspace(1e-3, 1.0, 4))


def test_zero_deficit_structures_carry_no_atoms():
    sol = fan_solution(State(3, 3), State(2, 1))  # contact + shock only
    assert atoms_at(sol, 1.0) == ()
    err = V.mass_balance(sol, (-6.0, 6.0), np.linspace(1e-3, 1.5, 5))
    assert err <= 1e-10


def test_lemma_contact_mass_constant():
    sol = fan_solution(State(3, 1), State(2, 1), gamma=5.0)
    for t in (0.3, 1.0, 2.0):
        (atom,) = atoms_at(sol, t)
        assert atom.alpha == pytest.approx(5.0)
    err = V.mass_balance(sol, (-8.0, 8.0), np.linspace(1e-3, 2.0, 5))
    assert err <= 1e-8


def test_oracle_requires_fan_case():
    with pytest.raises(ValueError):
        V.fan_approx_oracle(BATTERY["case1"], 100)
    with pytest.raises(ValueError):
        V.fan_approx_oracle(BATTERY["case4i"], 1)


def test_oracle_small_n_stays_merge_only():
    # u-steps of (u2-u1)/2 < 2: both interactions are plain delta merges
    orun = V.fan_approx_oracle(BATTERY["case4i"], 2)
    assert orun.end_kind == "merged-out"


FAN_CASES = [n for n in BATTERY if n.startswith(("case4", "case5"))]


@pytest.mark.parametrize("name", FAN_CASES)
def test_oracle_end_matches_exact(name):
    # the oracle ends in a bifurcation exactly when the exact solution breaks
    # down, near its breakdown time t_s and nearer as n grows
    sol = run(BATTERY[name])
    ev = next((e for e in sol.events if e.rule == "BreakdownBifurcation"), None)
    coarse = V.fan_approx_oracle(BATTERY[name], 50)
    fine = V.fan_approx_oracle(BATTERY[name], 200)
    if ev is None:
        assert coarse.end_kind == fine.end_kind == "merged-out"
        return
    assert coarse.end_kind == fine.end_kind == "bifurcation"
    assert coarse.t_end == pytest.approx(ev.t, rel=0.1)
    assert abs(fine.t_end - ev.t) < abs(coarse.t_end - ev.t)


def test_oracle_absolute_accuracy_case4i():
    sol = run(BATTERY["case4i"])
    orun = V.fan_approx_oracle(BATTERY["case4i"], 100)
    traj_err, strength_err = V.compare_oracle(sol, orun)
    assert traj_err < 0.05
    assert strength_err < 0.05


@pytest.mark.parametrize("name", ["case4i", "case5_nobif", "case5_bif_left"])
def test_oracle_convergence(name):
    sol = run(BATTERY[name])
    errs = []
    for n in (50, 100, 200, 400):
        orun = V.fan_approx_oracle(BATTERY[name], n)
        errs.append(V.compare_oracle(sol, orun))
    for k in range(3):
        assert errs[k + 1][0] <= 0.6 * errs[k][0]
        assert errs[k + 1][1] <= 0.6 * errs[k][1]


def test_entropy_pair_rejects_nonconvex():
    with pytest.raises(ValueError):
        V.EntropyPair(lambda u: u * u, lambda m: -m * m, lambda u: u)


def test_entropy_smooth_region():
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    sol = run(BATTERY["case4iia"])
    phi = V.TestFunction(0.3, 0.25, 0.07, 0.06)  # strictly inside the fan
    assert abs(V.entropy_residual(sol, pair, phi)) <= 1e-8


def test_entropy_shock_production_nonnegative():
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    sol = fan_solution(State(3, 3), State(2, 1))
    phi = V.TestFunction(1.0, 2.5, 0.5, 0.6)
    assert V.entropy_residual(sol, pair, phi) >= 0.0


def test_entropy_delta_contact_linear_in_eps():
    pair = V.EntropyPair(lambda u: u * u, lambda m: np.exp(-m),
                         lambda u: u * u - u ** 3 / 3.0)
    sol = fan_solution(State(2, 3), State(2, 3), gamma=1.0)
    phi = V.TestFunction(0.15, 0.0, 0.4, 1.0)
    rs = [V.entropy_residual(sol, pair, phi, eps=e)
          for e in (1e-2, 1e-3, 1e-4)]
    assert rs[0] / rs[1] == pytest.approx(10.0, rel=0.05)
    assert rs[1] / rs[2] == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("build, phi", [
    (lambda: run(BATTERY["case4iia"]), V.TestFunction(0.3, 0.25, 0.07, 0.06)),
    (lambda: fan_solution(State(3, 3), State(2, 1)),
     V.TestFunction(1.0, 2.5, 0.5, 0.6)),
], ids=["case4iia_fan", "contact_shock"])
def test_entropy_strips_touch_only_atom_fronts(build, phi):
    # no atom front in the support: the strips must leave every slab alone
    sol = build()
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    assert (V.entropy_residual(sol, pair, phi, eps=1e-3)
            == V.entropy_residual(sol, pair, phi))


def test_entropy_strip_edges_converge_in_order(monkeypatch):
    # the strip beside the fan-interior delta shock meets the fan edges
    # inside the support; with the strip edges cut, order 16 is converged
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    sol = run(BATTERY["case4i"])
    phi = V.random_test_functions(sol, 200, seed=20240801)[11]
    r16 = V.entropy_residual(sol, pair, phi, eps=1e-3)
    monkeypatch.setattr(V, "_ORDER", 48)
    r48 = V.entropy_residual(sol, pair, phi, eps=1e-3)
    assert r16 == pytest.approx(r48, rel=1e-8)


def test_entropy_requires_eps_on_atoms():
    sol = fan_solution(State(4, 1), State(0, 1))
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    phi = V.TestFunction(0.5, 1.0, 0.3, 1.0)  # covers the delta line x = 2t
    with pytest.raises(ValueError):
        V.entropy_residual(sol, pair, phi)


def test_entropy_compat_random_polynomials():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        fc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        gc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        pair = V.polynomial_pair(fc, gc)
        us = rng.uniform(-2, 2, 40)
        vs = rng.uniform(-2, 2, 40)
        worst = max(worst, entropy_compat_error(pair, us, vs))
    assert worst <= 1e-6
