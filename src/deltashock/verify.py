"""Independent verification: distributional weak-form residuals, mass
balance, entropy-pair residuals, and a brute-force oracle that approximates
rarefaction fans by many small non-physical shocks.

The weak residual of an exact solution is zero up to quadrature tolerance;
nothing in here reuses the closed forms the tracker integrates, so agreement
is evidence, not tautology.  The times at which fronts cross the edges of a
test function's box come from the tracker's own intersection algebra
(``fronts.line_crossings``), but they only place quadrature cuts: they
affect the quadrature's accuracy, not what the residual measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Optional

import numpy as np

from .core import (
    ConstLaw,
    FanExpV,
    FrontKind,
    INF,
    Line,
    Scenario,
    Solution,
    SqrtCurve,
    State,
    split_weight,
)
from .fronts import line_crossings
from .interact import ScenarioError, validate_scenario
from .riemann import WaveCase, classify, rh_deficit

_GL_CACHE: dict = {}
_ORDER = 16        # Gauss points per panel of the weak and entropy pairings
_MASS_ORDER = 20   # Gauss points per panel of the mass integrals
_NODE_BLOCK = 8192  # most x nodes per block of a node piece (see ``_slabs``)


def _read_only(*arrays):
    """The arrays, made read-only: every later call shares a cached one."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = _read_only(*np.polynomial.legendre.leggauss(n))
    return _GL_CACHE[n]


def _composite01(panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on (0, 1), read-only."""
    key = ("c01", panels, order)
    if key not in _GL_CACHE:
        xg, wg = _gl(order)
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wts = (half[:, None] * wg[None, :]).ravel()
        _GL_CACHE[key] = _read_only(pts, wts)
    return _GL_CACHE[key]


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

_BUMP_POW = 8


def _bump_antiderivative_coefs(n: int) -> tuple:
    """c_k with int_0^r (1 - s^2)^n ds = r sum_k c_k (1 - r^2)^k.

    From (2m+1) I_m = r (1 - r^2)^m + 2m I_{m-1}, I_0 = r:
    c_k = prod_{j=k+1..n} 2j / ((2k+1) prod_{j=k+1..n} (2j+1)).  Every c_k is
    positive, so the sum has no cancellation anywhere on [-1, 1].
    """
    coefs = []
    for k in range(n + 1):
        num, den = 1, 2 * k + 1
        for j in range(k + 1, n + 1):
            num, den = num * 2 * j, den * (2 * j + 1)
        coefs.append(num / den)  # exact integers, one correct rounding
    return tuple(coefs)


_BUMP_ANTIDERIVATIVE = _bump_antiderivative_coefs(_BUMP_POW)


def _bump_base(r):
    """max(1 - r^2, 0), built in one new array (0-d for a scalar r)."""
    s = np.multiply(r, r, out=np.empty(np.shape(r)))
    np.subtract(1.0, s, out=s)
    return np.maximum(s, 0.0, out=s)


@dataclass(frozen=True)
class TestFunction:
    """Tensor-product bump (1 - r^2)^8 per direction, supported on
    [tc-st, tc+st] x [xc-sx, xc+sx].

    Polynomial inside its support, so Gauss panels integrate it against the
    (piecewise analytic) field laws to machine accuracy; only the value and
    first partials enter the weak pairing, for which C^7 regularity is ample.
    """

    tc: float
    xc: float
    st: float
    sx: float

    __test__ = False  # not a pytest item, despite the name

    @staticmethod
    def _bump(r):
        return _bump_base(r) ** _BUMP_POW

    @staticmethod
    def _bump_integral(r, s=None):
        """P(r) = int_0^r bump; constant outside [-1, 1].  A caller that
        has clipped r to [-1, 1] passes s = 1 - r^2 along."""
        if s is None:
            r = np.minimum(np.maximum(np.asarray(r, dtype=float), -1.0), 1.0)
            s = 1.0 - r * r
        p = s * _BUMP_ANTIDERIVATIVE[-1]
        for c in _BUMP_ANTIDERIVATIVE[-2:0:-1]:
            p += c
            p *= s
        p += _BUMP_ANTIDERIVATIVE[0]
        p *= r
        return p

    def _x_factors(self, x):
        """r = (x - xc)/sx clipped to [-1, 1], s = 1 - r^2, P(r), bump(r)."""
        r = np.minimum(np.maximum((x - self.xc) / self.sx, -1.0), 1.0)
        s = 1.0 - r * r
        return r, s, self._bump_integral(r, s), s ** _BUMP_POW

    def value(self, t, x):
        return (self._bump((np.asarray(t) - self.tc) / self.st)
                * self._bump((np.asarray(x) - self.xc) / self.sx))

    @property
    def sup(self) -> float:
        return 1.0


def random_test_functions(sol: Solution, count: int, seed: int,
                          t_hi: Optional[float] = None):
    """Deterministically seeded bumps with centers around the solution's
    fronts and events and scales spanning two decades."""
    rng = np.random.default_rng(seed)
    T = t_hi if t_hi is not None else min(sol.t_max_computed, 5.0)
    out = []
    ev_pts = [(e.t, e.x) for e in sol.events if e.t < 0.9 * T]
    for _ in range(count):
        mode = rng.integers(0, 3)
        if mode == 0 and ev_pts:
            et, ex = ev_pts[int(rng.integers(0, len(ev_pts)))]
            tc = max(0.02 * T, et + 0.1 * T * rng.normal())
            xc = ex + 0.1 * T * rng.normal()
        else:
            tc = rng.uniform(0.08, 1.0) * T
            fronts = [f for f in sol.fronts.values() if f.alive_at(tc)]
            if mode == 1 and fronts:
                f = fronts[int(rng.integers(0, len(fronts)))]
                xc = f.geom.pos(tc) + 0.05 * T * rng.normal()
            else:
                pos = [f.geom.pos(tc) for f in fronts]
                lo = min(pos) - 1.0 if pos else -1.0
                hi = max(pos) + 1.0 if pos else 1.0
                xc = rng.uniform(lo, hi)
        st = T * 10.0 ** rng.uniform(-2.3, -0.55)
        sx = max(1.0, T) * 10.0 ** rng.uniform(-2.0, -0.4)
        out.append(TestFunction(float(tc), float(xc), float(st), float(sx)))
    return out


# ---------------------------------------------------------------------------
# quadrature over a solution
# ---------------------------------------------------------------------------

def _time_cells(sol: Solution, t_lo: float, t_hi: float, x_lo: float,
                x_hi: float, eps: Optional[float] = None):
    """Split [t_lo, t_hi] at epoch boundaries and at the times fronts enter
    or leave the window [x_lo, x_hi], so every cell's integrand varies on the
    cell's own scale.

    With ``eps``, the edges front +- eps of the strips beside atom fronts
    (see ``_slabs``) are cut too: where they cross the window's edges, and
    where adjacent fronts come within eps of each other (a strip meets the
    neighbouring front) or, both carrying atoms, within 2 eps (the two
    strips meet).  The gap is solved against the pair's straight member;
    a pair of two curves is not cut.
    """
    cuts = {t_lo, t_hi}
    for ep in sol.epochs:
        if t_lo < ep.t0 < t_hi:
            cuts.add(ep.t0)
        lo, hi = max(t_lo, ep.t0), min(t_hi, ep.t1)
        if eps is None or not lo < hi:
            continue
        fronts = [sol.fronts[f] for f in ep.fronts]
        for f, g in zip(fronts, fronts[1:]):
            n = f.kind.carries_atom + g.kind.carries_atom
            for gap in (eps, 2.0 * eps)[:n]:
                if isinstance(g.geom, Line):
                    line, other = replace(g.geom, x0=g.geom.x0 - gap), f.geom
                elif isinstance(f.geom, Line):
                    line, other = replace(f.geom, x0=f.geom.x0 + gap), g.geom
                else:
                    continue
                cuts.update(line_crossings(line, other, lo, hi))
    edges = [Line(0.0, X, 0.0) for X in (x_lo, x_hi)]
    strip_edges = edges if eps is None else edges + [
        Line(0.0, X + d, 0.0) for X in (x_lo, x_hi) for d in (-eps, eps)]
    for f in sol.fronts.values():
        lo, hi = max(t_lo, f.birth), min(t_hi, f.death)
        if lo < hi:
            for line in strip_edges if f.kind.carries_atom else edges:
                cuts.update(line_crossings(line, f.geom, lo, hi))
    cs = sorted(cuts)
    return [(a, b) for a, b in zip(cs, cs[1:]) if b - a > 1e-15 * (1.0 + abs(b))]


def _x_nodes(lo, hi, panels, order):
    """Per-row quadrature nodes/weights for rows of intervals [lo_i, hi_i],
    in x or in a singular v-law's coordinate (see ``_slabs``)."""
    xi, wxi = _composite01(panels, order)
    w = hi - lo
    return lo[:, None] + w[:, None] * xi[None, :], w[:, None] * wxi[None, :]


def _end_table(fronts, tn, x_lo: float, x_hi: float, eps=None):
    """The unclipped x of the region pieces' ends at the time nodes ``tn``,
    one row each: p_{-1} = x_lo, the nf ``fronts`` at p_j, p_nf = x_hi, and
    with ``eps`` the strip edges: row nf + 2 + j is max(p_j - eps, p_{j-1})
    and row 2 nf + 2 + j is min(p_j + eps, max(p_j, p_{j+1})).  At t = 0
    the strips have no width: the initial data is not regularized."""
    nf = len(fronts)
    ends = np.empty((nf + 2 if eps is None else 3 * nf + 2, len(tn)))
    ends[0], ends[nf + 1] = x_lo, x_hi
    for j, f in enumerate(fronts):
        ends[j + 1] = f.geom.pos(tn)
    if eps is not None:
        p, before, after = ends[1:nf + 1], ends[:nf], ends[2:nf + 2]
        eps = eps * (tn > 0.0)
        np.maximum(p - eps, before, out=ends[nf + 2:2 * nf + 2])
        np.minimum(p + eps, np.maximum(p, after), out=ends[2 * nf + 2:])
    return ends


def _slabs(sol: Solution, ep, fronts, ends, tn, x_lo: float, x_hi: float,
           panels: Callable, order: int, eps: Optional[float] = None):
    """Quadrature over the region pieces of one epoch at the time nodes
    ``tn``, where ``ends`` is the ``_end_table`` of the epoch's ``fronts``.

    Each region is clipped to [x_lo, x_hi] row by row.  With ``eps``, the
    strips of width eps on both sides of every atom front are pieces of their
    own, on which v is the atom spread evenly, alpha/(2 eps).  Yields
    (rows, ends, x, wx, u, v) per piece.  A piece on which neither u nor v
    depends on x (ConstLaw u and v, or a strip beside a ConstLaw u) is flat:
    ``rows`` is every row, ``slice(None)``, ``ends`` the table rows (a, b)
    of its ends (a row with b <= a adds nothing), x = wx = None, u a float
    and v a float or per-row.  Every other piece has x nodes: ``rows`` are
    its non-empty rows in ``tn``, ``ends`` is None, x and wx the nodes and
    weights (``panels(a, b, t, u_law)`` panels of ``order`` points, from
    the rows' ends a, b, times t and the region's u-law; a singular v-law's
    lie in its coordinate, see ``FieldLaw``, which takes one root per row
    end for the curved profiles), u and v the fields there (a fan's v from
    its u).  A node piece comes in blocks of whole rows, at most
    ``_NODE_BLOCK`` nodes each unless one row alone has more, so the arrays
    of a long run of time nodes stay small; a block changes no row's nodes.
    A strip or node piece with no row of positive width is skipped.
    """
    nf = len(fronts)
    for k, rid in enumerate(ep.regions):
        reg = sol.regions[rid]
        flat_u = isinstance(reg.u_law, ConstLaw)
        lo, hi, pieces = k, k + 1, []
        if eps is not None:
            if k > 0 and fronts[k - 1].kind.carries_atom:
                lo = 2 * nf + 1 + k
                pieces.append((k, lo, fronts[k - 1]))
            if k < nf and fronts[k].kind.carries_atom:
                hi = nf + 2 + k
                pieces.append((hi, k + 1, fronts[k]))
        pieces.append((lo, hi, None))
        for ia, ib, owner in pieces:
            if flat_u and owner is None and isinstance(reg.v_law, ConstLaw):
                yield (slice(None), (ia, ib), None, None, reg.u_law.value,
                       reg.v_law.value)
                continue
            a, b = np.maximum(ends[ia], x_lo), np.minimum(ends[ib], x_hi)
            rows = np.flatnonzero(b - a > 0.0)
            if not len(rows):
                continue
            if flat_u and owner is not None:     # a strip: alpha/(2 eps) per row
                v = owner.strength(tn) / (2.0 * eps)
                yield slice(None), (ia, ib), None, None, reg.u_law.value, v
                continue
            a, b, t = a[rows], b[rows], tn[rows]
            n = panels(a, b, t, reg.u_law)
            law = reg.v_law if owner is None and reg.v_law.singular_left else None
            if law is not None:
                # distance past the blow-up locus; noise-level offsets snap to
                # zero, or the coordinate, sqrt-like there, would turn 1e-15 of
                # round-off into a missing sliver of visible mass ~ sqrt(1e-15)
                locus = law.singular_locus(t)
                off = a - locus
                off[off < 1e-11 * (1.0 + np.abs(locus))] = 0.0
                locus = a - off
                a, b = law.coord(off, t), law.coord(off + (b - a), t)
            step = max(1, _NODE_BLOCK // (n * order))
            for i in range(0, len(t), step):
                blk = slice(i, i + step)
                x, wx = _x_nodes(a[blk], b[blk], n, order)
                if law is not None:              # x, wx were q, dq
                    x, dd, v = law.from_coord(x, t[blk, None])
                    x += locus[blk, None]
                    wx *= dd
                u = reg.u_law(x, t[blk, None])
                if owner is not None:
                    v = np.broadcast_to(owner.strength(t[blk])[:, None]
                                        / (2.0 * eps), x.shape)
                elif isinstance(reg.v_law, FanExpV):
                    v = reg.v_law.of_u(u)
                elif law is None:
                    v = reg.v_law(x, t[blk, None])
                yield rows[blk], None, x, wx, u, v


def _panels_for(width, scale):
    return min(max(math.ceil(3.0 * width / max(scale, 1e-300)), 1), 8)


def _pairing(sol: Solution, phi: TestFunction, laws, eps: Optional[float] = None,
             atoms: bool = False) -> list:
    """Per component, int int rho phi_t + f phi_x over the support of ``phi``
    plus the initial term int rho(u0, v0) phi(0, x) dx, where each of
    ``laws`` maps (u, v) to its component's (rho, f).

    The time cells of one epoch are contiguous and make one group.  Each
    cell keeps its own time panels, but the front positions, phi's t-factor,
    the ``_slabs`` walk and the atom line integrals run once per group, on
    the time nodes of all its cells; a node piece gets the x panels of its
    widest row in the group.  phi is a t-factor times an x-factor, which a
    group evaluates with its antiderivative P once, on its ``_end_table``
    at r clipped to [-1, 1].  A flat piece (see ``_slabs``) has the exact
    x-integrals sx [P(r_b) - P(r_a)] and bump(r_b) - bump(r_a) on its rows
    with r_b > r_a, and is skipped if it has none; a node piece builds its
    weights from one factor s^7 wx, by squaring, and per-row t-weights.

    The initial term is the t = 0 edge of that integral: a row at t = 0 in
    epoch 0's group, with phi_t weight phi's t-factor at 0 and phi_x weight
    0.  Where ``_time_cells`` leaves epoch 0 no cell, it is a group alone.

    The last component is v's and may carry the solution's delta atoms.  With
    ``atoms`` they enter as measures: per atom front the line integral of
    alpha phi_t + m phi_x with the split-product flux
    m = alpha0 (uL-1) + alpha1 (uR-1), and the initial atoms in the initial
    term.  A group integrates a front's line integral only if the bump's
    x-factor, read from the front's row of the table, is nonzero at some of
    its time nodes; otherwise the integrand is exactly zero, and the front's
    traces, strength and split are never evaluated; a straight front between
    constant u has its traces and split as floats.  With ``eps`` the atoms
    are spread over strips beside their fronts (see ``_slabs``).  With
    neither, an atom front inside the support is an error.
    """
    t_lo, t_hi = max(0.0, phi.tc - phi.st), phi.tc + phi.st
    x_lo, x_hi = phi.xc - phi.sx, phi.xc + phi.sx
    R = [0.0] * len(laws)
    cells = _time_cells(sol, t_lo, t_hi, x_lo, x_hi, eps) if t_hi > t_lo else []
    if phi.tc - phi.st < 0.0 < t_hi:
        cells.insert(0, (0.0, 0.0))          # the initial term's row
    for ep, group in groupby(cells, lambda c: sol.epoch_at(0.5 * (c[0] + c[1]))):
        tn, tw = [], []
        for a, b in group:
            xi, wxi = (_composite01(max(4, _panels_for(b - a, phi.st)), _ORDER)
                       if b > 0.0 else _gl(1))  # (0, 0): one node, weight 0
            tn.append(a + (b - a) * xi)
            tw.append((b - a) * wxi)
        tn, tw = np.concatenate(tn), np.concatenate(tw)
        rt = (tn - phi.tc) / phi.st
        s = _bump_base(rt)
        bt = s ** _BUMP_POW                  # weights of the phi_x terms
        bt *= tw
        btx = bt * (-2.0 * _BUMP_POW / phi.sx)  # times bump'(r)/(r s^7)
        rt *= -2.0 * _BUMP_POW               # weights of the phi_t terms
        dbt = s ** (_BUMP_POW - 1)
        dbt *= rt
        dbt *= tw
        dbt /= phi.st
        if tn[0] == 0.0:  # the t = 0 row: phi_t weight phi's t-factor at 0
            dbt[0] = s[0] ** _BUMP_POW       # (its phi_x weight bt is 0)
        fronts = [sol.fronts[f] for f in ep.fronts]
        ends = _end_table(fronts, tn, x_lo, x_hi, eps)
        r, s, P, Q = phi._x_factors(ends)
        if eps is None and not atoms and any(
                f.kind.carries_atom and s[j + 1].any() for j, f in enumerate(fronts)):
            raise ValueError("an atom front crosses the test function "
                             "support; pass eps for the strip regularization")
        for rows, ab, x, wx, u, v in _slabs(
                sol, ep, fronts, ends, tn, x_lo, x_hi,
                lambda a, b, t, u_law: _panels_for(float(np.max(b - a)), phi.sx),
                _ORDER, eps):
            if x is None:
                ia, ib = ab
                nonempty = r[ib] > r[ia]
                if not nonempty.any():
                    continue
                ix, jx = (P[ib] - P[ia]) * nonempty, (Q[ib] - Q[ia]) * nonempty
                if isinstance(v, np.ndarray):  # a strip: alpha/(2 eps) per row
                    for i, law in enumerate(laws):
                        rho, flux = law(u, v)
                        R[i] += float(phi.sx * np.dot(ix * rho, dbt)
                                      + np.dot(jx * flux, bt))
                    continue
                ix, jx = phi.sx * float(ix @ dbt), float(jx @ bt)
                for i, law in enumerate(laws):
                    rho, flux = law(u, v)
                    R[i] += float(rho * ix + flux * jx)
                continue
            rx = x - phi.xc
            rx /= phi.sx
            sn = _bump_base(rx)
            s2 = sn * sn                         # g = s^7 wx, by squaring
            g = s2 * s2
            g *= s2
            g *= sn
            g *= wx
            bx = g * sn                          # phi_t weights at the nodes
            bx *= dbt[rows, None]
            dbx = rx                             # phi_x weights, rx in place
            dbx *= g
            dbx *= btx[rows, None]
            for i, law in enumerate(laws):
                rho, flux = law(u, v)
                R[i] += float(np.vdot(bx, rho) + np.vdot(dbx, flux))
        if atoms:
            for j, f in enumerate(fronts, 1):
                if not (f.kind.carries_atom and s[j].any()):
                    continue  # the front stays outside the support
                tq = tn[0] if isinstance(f.geom, Line) and all(
                    isinstance(law, ConstLaw) for law in f.u_laws) else tn
                uL, uR = f.u_traces(tq)
                alpha = f.strength(tn)
                w0 = split_weight(uL, uR, f.geom.slope(tq))
                m = (alpha * w0 * (uL - 1.0)
                     + alpha * (1.0 - w0) * (uR - 1.0))
                db = -2.0 * _BUMP_POW / phi.sx * r[j] * s[j] ** (_BUMP_POW - 1)
                R[-1] += float(np.dot(alpha * Q[j], dbt) + np.dot(m * db, bt))
    return R


def weak_residual(sol: Solution, phi: TestFunction) -> tuple[float, float]:
    """Distributional residuals (R_u, R_v) of the solution against ``phi``.

    R_u = int u phi_t + (u^2/2) phi_x + initial term; R_v likewise with flux
    (u-1)v plus, per atom front, int alpha phi_t + m phi_x dt along the front
    with the split-product flux m = alpha0 (uL-1) + alpha1 (uR-1).
    Both vanish (to quadrature tolerance) iff the fields, speeds, strengths
    and splits jointly satisfy the weak formulation.
    """
    ru, rv = _pairing(sol, phi, (lambda u, v: (u, 0.5 * u * u),
                                 lambda u, v: (v, (u - 1.0) * v)), atoms=True)
    return ru, rv


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def auto_window(sol: Solution, t_hi: float, pad: float = 1.0):
    ts = np.linspace(1e-3, t_hi, 40)
    lo, hi = INF, -INF
    for f in sol.fronts.values():
        tt = ts[(ts >= f.birth) & (ts < f.death)]
        if len(tt):
            p = f.geom.pos(tt)
            lo = min(lo, float(np.min(p)))
            hi = max(hi, float(np.max(p)))
    if lo > hi:                 # no front at the sampled times
        return -pad, pad
    return lo - pad, hi + pad


def _mass_panels(a, b, t, u_law):
    # at least one panel per 2 of u across the piece: in a fan v = e^u
    # changes on the scale t - tc, however wide the fan is
    du = float(np.max(np.abs(u_law(b, t) - u_law(a, t))))
    return max(min(max(math.ceil(float(np.max(b - a)) / 0.2), 4), 40),
               math.ceil(du / 2.0))


def _mass_at(sol: Solution, t: float, X0: float, X1: float) -> float:
    ep = sol.epoch_at(t)
    fronts = [sol.fronts[f] for f in ep.fronts]
    tn = np.array([t])
    ends = _end_table(fronts, tn, X0, X1)
    if np.any(ends[1:-1] <= X0) or np.any(ends[1:-1] >= X1):
        raise ValueError(f"fronts exit the window [{X0}, {X1}] at t={t}")
    total = 0.0
    for _, ab, x, w, _, v in _slabs(sol, ep, fronts, ends, tn, X0, X1,
                                    _mass_panels, _MASS_ORDER):
        if x is None:
            width = np.minimum(ends[ab[1]], X1) - np.maximum(ends[ab[0]], X0)
            total += float(np.sum(v * width, where=width > 0.0))
        else:
            total += float(np.sum(w * v))
    for f in fronts:
        if f.kind.carries_atom:
            total += float(f.strength(t))
    return total


def mass_balance(sol: Solution, window: tuple[float, float], times) -> float:
    """Max violation of integral conservation of v (regular part plus atoms)
    against the boundary fluxes (u-1)v over consecutive time intervals."""
    X0, X1 = window
    times = np.asarray(times, dtype=float)
    masses = [_mass_at(sol, t, X0, X1) for t in times]
    err = 0.0
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        # boundary regions are the constant outer states at all battery times
        ep = sol.epoch_at(0.5 * (t0 + t1))
        reg_l = sol.regions[ep.regions[0]]
        reg_r = sol.regions[ep.regions[-1]]
        fl = float((reg_l.u_law(X0, t0) - 1.0) * reg_l.v_law(X0, t0))
        fr = float((reg_r.u_law(X1, t0) - 1.0) * reg_r.v_law(X1, t0))
        expect = (fl - fr) * (t1 - t0)
        err = max(err, abs(masses[k + 1] - masses[k] - expect))
    return err


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def overcompressibility_report(sol: Solution, samples: int = 200):
    """Per delta-shock front: minimum margins of u_R <= cdot <= u_L - 1.

    Returns a list of (front id, min(cdot - u_R), min(u_L - 1 - cdot)).
    """
    cap = max(sol.t_max_computed, 1.0)
    out = []
    for f in sol.fronts.values():
        if f.kind is not FrontKind.DELTA_SHOCK:
            continue
        t1 = min(f.death, max(cap, f.birth * 2.0 + 1.0))
        ts = f.birth + (t1 - f.birth) * np.linspace(1e-9, 1.0, samples)
        cdot = f.geom.slope(ts)
        u_left, u_right = f.u_traces(ts)
        lo = cdot - u_right
        hi = u_left - 1.0 - cdot
        out.append((f.fid, float(np.min(lo)), float(np.min(hi))))
    return out


# ---------------------------------------------------------------------------
# entropy pairs
# ---------------------------------------------------------------------------

class EntropyPair:
    """eta(u, v) = f(u) + g(v e^{-u}) e^{u},  q = (u-1) eta + ftilde(u) with
    ftilde' = f' - f.  Compatible with the flux Jacobian by construction;
    convexity of f and g is checked numerically and non-convex pairs are
    rejected.
    """

    def __init__(self, f: Callable, g: Callable, ftilde: Callable):
        self.f, self.g, self.ftilde = f, g, ftilde
        lo, hi = -4.0, 4.0
        xs = np.linspace(lo, hi, 41)
        h = (hi - lo) / 200.0
        for fn, name in ((f, "f"), (g, "g")):
            second = (fn(xs + h) - 2.0 * fn(xs) + fn(xs - h)) / (h * h)
            if np.min(second) < -1e-7:
                raise ValueError(f"entropy pair requires convex {name}")

    def eta(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.f(u) + self.g(v * np.exp(-u)) * np.exp(u)

    def q(self, u, v):
        u = np.asarray(u, dtype=float)
        return (u - 1.0) * self.eta(u, v) + self.ftilde(u)


def polynomial_pair(f_coeffs, g_coeffs) -> EntropyPair:
    """Entropy pair from polynomial f and g (ascending coefficients);
    ftilde = f - int_0^u f solves ftilde' = f' - f."""
    polyval = np.polynomial.polynomial.polyval
    f = np.polynomial.Polynomial(np.asarray(f_coeffs, dtype=float))
    return EntropyPair(*(lambda u, c=c: polyval(np.asarray(u, float), c)
                         for c in (f.coef, np.asarray(g_coeffs, dtype=float),
                                   (f - f.integ()).coef)))


def entropy_residual(sol: Solution, pair: EntropyPair, phi: TestFunction,
                     eps: Optional[float] = None) -> float:
    """int eta phi_t + q phi_x (+ initial-data term with the function part
    of v) with every delta atom replaced by the two-sided strips of width
    eps and height alpha/(2 eps); the strips start at no width at t = 0, so
    the initial-data term pairs the unregularized v.

    Smooth exact regions contribute zero; admissible shocks contribute
    nonnegatively for phi >= 0; for a regularized delta contact the residual
    is the initial/birth-layer mismatch, of size O(eps).
    """
    (r,) = _pairing(sol, phi, (lambda u, v: (pair.eta(u, v), pair.q(u, v)),),
                    eps=eps)
    return r


# ---------------------------------------------------------------------------
# N-shock fan approximation oracle
# ---------------------------------------------------------------------------

@dataclass
class OracleRun:
    """Piecewise-linear delta trajectory / piecewise-affine strength from
    pure straight-line front tracking with the fan replaced by n steps."""

    n: int
    times: np.ndarray        # segment start times
    xs: np.ndarray           # positions at segment starts
    speeds: np.ndarray
    gammas: np.ndarray       # strengths at segment starts
    rates: np.ndarray
    t_end: float
    end_kind: str            # "bifurcation" | "merged-out"

    def _segment(self, t):
        """Per time, its segment's index and the time since its start."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                    len(self.times) - 1)
        return k, t - self.times[k]

    def traj(self, t):
        k, dt = self._segment(t)
        return self.xs[k] + self.speeds[k] * dt

    def strength(self, t):
        k, dt = self._segment(t)
        return self.gammas[k] + self.rates[k] * dt


def fan_approx_oracle(sc: Scenario, n: int) -> OracleRun:
    """Track the scenario with the rarefaction fan replaced by n equal-u
    steps (small non-physical shocks from the fan center, each with the
    zero-deficit v-ratio (2+h)/(2-h)), using only straight-line rules.

    Valid for the fan-bearing cases (4 and 5); returns the approximate delta
    trajectory and strength for comparison against the exact solution.
    """
    if n < 2:
        raise ScenarioError("the fan oracle needs at least 2 fan steps")
    case_id, _ = validate_scenario(sc)
    if case_id not in (4, 5):
        raise ScenarioError("the fan oracle applies to cases 4 and 5 only")
    u0, v0 = sc.left.u, sc.left.v
    u1, v1 = sc.middle.u, sc.middle.v
    u2, v2 = sc.right.u, sc.right.v
    if case_id == 4:
        h = (u2 - u1) / n
        ratio = (2.0 - h) / (2.0 + h)
        # passive fronts from the origin, slowest first: the contact, then
        # the fan steps; sector j right of step j has u1 + j h and v-level
        # v2 ratio^(n-j).  Each replaces the delta's right state.
        passive = [(u1 - 1.0, State(u1, v2 * ratio ** n))]
        for j in range(1, n + 1):
            passive.append((u1 + (j - 0.5) * h, State(u1 + j * h,
                                                      v2 * ratio ** (n - j))))
        left, right = State(u0, v0), State(u1, v1)
    else:
        h = (u1 - u0) / n
        ratio = (2.0 - h) / (2.0 + h)
        # fastest step first: it reaches the delta first; sector j left of
        # step j has u-level u1 - j h and v-level v1 ratio^j.  Each replaces
        # the delta's left state.
        passive = [(u1 - (j - 0.5) * h, State(u1 - j * h, v1 * ratio ** j))
                   for j in range(1, n + 1)]
        left, right = State(u1, v1), State(u2, v2)

    t, x, g = 0.0, sc.offset, 0.0
    c = 0.5 * (left.u + right.u)
    r = rh_deficit(left, right, c)
    segments = [(t, x, c, g, r)]
    t_end, end_kind = INF, "merged-out"
    for (pc, beyond) in passive:
        tau = (x - c * t) / (pc - c)
        g += r * (tau - t)
        x += c * (tau - t)
        t = tau
        if case_id == 4:
            right = beyond
        else:
            left = beyond
        if classify(left.u, right.u) is not WaveCase.DELTA_SHOCK:
            # overcompressibility exhausted: delta contact + shock
            segments.append((t, x, left.u - 1.0, g, 0.0))
            t_end, end_kind = t, "bifurcation"
            break
        c = 0.5 * (left.u + right.u)
        r = rh_deficit(left, right, c)
        segments.append((t, x, c, g, r))
    else:
        t_end = t + 10.0 * (t + 1.0)
    return OracleRun(n, *(np.asarray(col) for col in zip(*segments)),
                     t_end, end_kind)


def compare_oracle(sol: Solution, orun: OracleRun) -> tuple[float, float]:
    """Sup-norm trajectory and strength differences between the oracle's
    approximate delta front and the exact fan-interior delta front, over the
    common part of the fan-crossing interval."""
    exact = next((f for f in sol.fronts.values()
                  if f.kind is FrontKind.DELTA_SHOCK
                  and isinstance(f.geom, SqrtCurve)), None)
    if exact is None:
        raise ScenarioError("no fan-interior delta shock to compare: the "
                            "delta breaks down at fan entry")
    t0 = max(exact.birth, float(orun.times[1]) if len(orun.times) > 1
             else exact.birth)
    t1 = min(exact.death, orun.t_end)
    if not (t1 > t0):
        raise ScenarioError("no overlap between oracle and exact fan intervals")
    ts = np.linspace(t0, t1 * (1.0 - 1e-12), 400)
    traj_err = np.max(np.abs(orun.traj(ts) - exact.geom.pos(ts)))
    alpha_err = np.max(np.abs(orun.strength(ts) - exact.strength(ts)))
    return float(traj_err), float(alpha_err)
