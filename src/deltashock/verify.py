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
from typing import Callable, Optional

import numpy as np

from .core import (
    AffineStrength,
    FrontKind,
    INF,
    Line,
    Scenario,
    Solution,
    SqrtCurve,
    State,
)
from .fronts import line_crossings
from .interact import validate_scenario
from .riemann import WaveCase, classify, rh_deficit

_GL_CACHE: dict = {}


def _gl(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _composite01(panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes/weights on (0, 1)."""
    key = ("c01", panels, order)
    if key not in _GL_CACHE:
        xg, wg = _gl(order)
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        wts = (half[:, None] * wg[None, :]).ravel()
        _GL_CACHE[key] = (pts, wts)
    return _GL_CACHE[key]


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

_BUMP_POW = 8


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
        r = np.asarray(r, dtype=float)
        s = np.maximum(1.0 - r * r, 0.0)
        return s ** _BUMP_POW

    @staticmethod
    def _dbump(r):
        r = np.asarray(r, dtype=float)
        s = np.maximum(1.0 - r * r, 0.0)
        return -2.0 * _BUMP_POW * r * s ** (_BUMP_POW - 1)

    def value(self, t, x):
        return (self._bump((np.asarray(t) - self.tc) / self.st)
                * self._bump((np.asarray(x) - self.xc) / self.sx))

    def dt(self, t, x):
        return (self._dbump((np.asarray(t) - self.tc) / self.st) / self.st
                * self._bump((np.asarray(x) - self.xc) / self.sx))

    def dx(self, t, x):
        return (self._bump((np.asarray(t) - self.tc) / self.st)
                * self._dbump((np.asarray(x) - self.xc) / self.sx) / self.sx)

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

def _time_cells(sol: Solution, t_lo: float, t_hi: float,
                x_lo: Optional[float] = None, x_hi: Optional[float] = None):
    """Split [t_lo, t_hi] at epoch boundaries and (when an x-window is given)
    at the times fronts enter or leave the window, so every cell's integrand
    varies on the cell's own scale."""
    cuts = {t_lo, t_hi}
    for ep in sol.epochs:
        if t_lo < ep.t0 < t_hi:
            cuts.add(ep.t0)
    if x_lo is not None:
        for f in sol.fronts.values():
            lo, hi = max(t_lo, f.birth), min(t_hi, f.death)
            for X in (x_lo, x_hi):
                cuts.update(line_crossings(Line(0.0, X, 0.0), f.geom, lo, hi))
    cs = sorted(cuts)
    return [(a, b) for a, b in zip(cs, cs[1:]) if b - a > 1e-15 * (1.0 + abs(b))]


def _x_nodes(lo, hi, panels, order, off=None):
    """Per-row x quadrature nodes/weights for rows of intervals [lo_i, hi_i].

    With ``off`` (per-row distance from lo to the v-law's singular locus),
    integration runs in s = sqrt(x - locus) over [sqrt(off), sqrt(off + w)],
    which turns the -1/2-power blow-up into an analytic integrand; the exact
    distances s^2 are returned so singular laws evaluate cancellation-free.
    """
    xi, wxi = _composite01(panels, order)
    w = hi - lo
    if off is not None:
        locus = lo - off
        smin = np.sqrt(np.maximum(off, 0.0))
        smax = np.sqrt(np.maximum(off + w, 0.0))
        span = smax - smin
        s = smin[:, None] + span[:, None] * xi[None, :]
        d = s * s
        x = locus[:, None] + d
        wts = 2.0 * s * span[:, None] * wxi[None, :]
        return x, wts, d
    x = lo[:, None] + w[:, None] * xi[None, :]
    wts = w[:, None] * wxi[None, :]
    return x, wts, None


def _sing_offset(reg, lo, t):
    """Distance from interval starts to the singular locus (None when the
    region's v-law is regular).

    Noise-level offsets snap to zero: sqrt() in the graded parametrization
    would otherwise turn 1e-15 of position round-off into a missing boundary
    sliver of visible mass ~ sqrt(1e-15).
    """
    if not reg.singular_left:
        return None
    locus = np.asarray(reg.v_law.singular_locus(t))
    off = lo - locus
    off[off < 1e-11 * (1.0 + np.abs(locus))] = 0.0
    return off


def _v_eval(reg, x, t, d):
    """Region v values; graded nodes go through the law's distance-based
    evaluator."""
    if d is not None and hasattr(reg.v_law, "from_distance"):
        return np.asarray(reg.v_law.from_distance(d, t))
    return np.asarray(reg.v_law(x, t))


def _panels_for(width, scale, cap=8):
    return int(np.clip(math.ceil(3.0 * width / max(scale, 1e-300)), 1, cap))


def weak_residual(sol: Solution, phi: TestFunction,
                  order: int = 16) -> tuple[float, float]:
    """Distributional residuals (R_u, R_v) of the solution against ``phi``.

    R_u = int u phi_t + (u^2/2) phi_x + initial term; R_v likewise with flux
    (u-1)v plus, per atom front, int alpha phi_t + m phi_x dt along the front
    with the split-product flux m = alpha0 (uL-1) + alpha1 (uR-1).
    Both vanish (to quadrature tolerance) iff the fields, speeds, strengths
    and splits jointly satisfy the weak formulation.
    """
    t_lo = max(0.0, phi.tc - phi.st)
    t_hi = phi.tc + phi.st
    x_lo_box = phi.xc - phi.sx
    x_hi_box = phi.xc + phi.sx
    Ru = 0.0
    Rv = 0.0
    if t_hi > t_lo:
        for (a, b) in _time_cells(sol, t_lo, t_hi, x_lo_box, x_hi_box):
            ep = sol.epoch_at(0.5 * (a + b))
            tp = max(4, _panels_for(b - a, phi.st))
            xi, wxi = _composite01(tp, order)
            tn = a + (b - a) * xi
            tw = (b - a) * wxi
            fronts = [sol.fronts[f] for f in ep.fronts]
            pos = [f.geom.pos(tn) for f in fronts]
            nf = len(fronts)
            for k, rid in enumerate(ep.regions):
                reg = sol.regions[rid]
                bound = pos[k - 1] if k > 0 else np.full_like(tn, x_lo_box)
                hi = pos[k] if k < nf else np.full_like(tn, x_hi_box)
                lo = np.maximum(bound, x_lo_box)
                hi = np.minimum(hi, x_hi_box)
                rows = hi - lo > 0.0
                if not np.any(rows):
                    continue
                lo_r, hi_r, tn_r, tw_r = lo[rows], hi[rows], tn[rows], tw[rows]
                xp = _panels_for(float(np.max(hi_r - lo_r)), phi.sx)
                off_r = _sing_offset(reg, lo_r, tn_r)
                x, wx, dist = _x_nodes(lo_r, hi_r, xp, order, off_r)
                tt = tn_r[:, None]
                u = np.asarray(reg.u_law(x, tt))
                v = _v_eval(reg, x, tt, dist)
                pt = phi.dt(tt, x)
                px = phi.dx(tt, x)
                Ru += float(np.sum(tw_r * np.sum(wx * (u * pt + 0.5 * u * u * px),
                                                 axis=1)))
                Rv += float(np.sum(tw_r * np.sum(wx * (v * pt + (u - 1.0) * v * px),
                                                 axis=1)))
            for f, c in zip(fronts, pos):
                if not f.kind.carries_atom:
                    continue
                alpha, a0, a1 = f.atom(tn)
                u_left, _, u_right, _ = f.traces
                m = (np.asarray(a0) * (np.asarray(u_left(tn)) - 1.0)
                     + np.asarray(a1) * (np.asarray(u_right(tn)) - 1.0))
                Rv += float(np.sum(tw * (alpha * phi.dt(tn, c) + m * phi.dx(tn, c))))
    if phi.tc - phi.st < 0.0 < t_hi:
        iu, iv = _initial_terms(sol, phi, order)
        Ru += iu
        Rv += iv
    return Ru, Rv


def _initial_segments(sol: Solution, x_lo: float, x_hi: float):
    """Piecewise-constant initial data segments inside [x_lo, x_hi]."""
    ep = sol.epochs[0]
    fronts = [sol.fronts[f] for f in ep.fronts]
    pos = [f.geom.pos(0.0) for f in fronts]
    segs = []
    for k, rid in enumerate(ep.regions):
        lo = pos[k - 1] if k > 0 else x_lo
        hi = pos[k] if k < len(fronts) else x_hi
        lo, hi = max(lo, x_lo), min(hi, x_hi)
        if hi - lo > 0.0:
            segs.append((lo, hi, sol.regions[rid]))
    return segs


def _initial_terms(sol: Solution, phi: TestFunction, order: int):
    x_lo, x_hi = phi.xc - phi.sx, phi.xc + phi.sx
    xi, wxi = _composite01(6, order)
    iu = iv = 0.0
    for lo, hi, reg in _initial_segments(sol, x_lo, x_hi):
        x = lo + (hi - lo) * xi
        w = (hi - lo) * wxi
        p0 = phi.value(0.0, x)
        iu += float(np.sum(w * np.asarray(reg.u_law(x, 0.0)) * p0))
        iv += float(np.sum(w * np.asarray(reg.v_law(x, 0.0)) * p0))
    for f in sol.fronts.values():
        if f.kind.carries_atom and f.birth == 0.0:
            g0 = float(f.strength(0.0))
            if g0 != 0.0:
                iv += g0 * float(phi.value(0.0, f.geom.pos(0.0)))
    return iu, iv


def weak_residual_rel(sol: Solution, phi: TestFunction) -> float:
    ru, rv = weak_residual(sol, phi)
    return max(abs(ru), abs(rv)) / phi.sup


# ---------------------------------------------------------------------------
# mass balance
# ---------------------------------------------------------------------------

def auto_window(sol: Solution, t_hi: float, pad: float = 1.0):
    ts = np.linspace(1e-3, t_hi, 40)
    lo, hi = INF, -INF
    for f in sol.fronts.values():
        tt = ts[(ts >= f.birth) & (ts < f.death)]
        if len(tt):
            p = np.asarray(f.geom.pos(tt))
            lo = min(lo, float(np.min(p)))
            hi = max(hi, float(np.max(p)))
    return lo - pad, hi + pad


def _mass_at(sol: Solution, t: float, X0: float, X1: float,
             order: int = 20) -> float:
    ep = sol.epoch_at(t)
    fronts = [sol.fronts[f] for f in ep.fronts]
    pos = [f.geom.pos(t) for f in fronts]
    if pos and (min(pos) <= X0 or max(pos) >= X1):
        raise ValueError(f"fronts exit the window [{X0}, {X1}] at t={t}")
    total = 0.0
    for k, rid in enumerate(ep.regions):
        reg = sol.regions[rid]
        bound = pos[k - 1] if k > 0 else X0
        hi = pos[k] if k < len(fronts) else X1
        lo, hi = max(bound, X0), min(hi, X1)
        if hi - lo <= 0.0:
            continue
        panels = int(np.clip(math.ceil((hi - lo) / 0.2), 4, 40))
        lo_arr = np.array([lo])
        off = _sing_offset(reg, lo_arr, np.array([t]))
        x, w, dist = _x_nodes(lo_arr, np.array([hi]), panels, order, off)
        total += float(np.sum(w * _v_eval(reg, x, t, dist)))
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
        fl = float((np.asarray(reg_l.u_law(X0, t0)) - 1.0) * reg_l.v_law(X0, t0))
        fr = float((np.asarray(reg_r.u_law(X1, t0)) - 1.0) * reg_r.v_law(X1, t0))
        expect = (fl - fr) * (t1 - t0)
        err = max(err, abs(masses[k + 1] - masses[k] - expect))
    return err


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def overcompressibility_report(sol: Solution, samples: int = 200,
                               t_cap: Optional[float] = None):
    """Per delta-shock front: minimum margins of u_R <= cdot <= u_L - 1.

    Returns a list of (front id, min(cdot - u_R), min(u_L - 1 - cdot)).
    """
    cap = t_cap if t_cap is not None else max(sol.t_max_computed, 1.0)
    out = []
    for f in sol.fronts.values():
        if f.kind is not FrontKind.DELTA_SHOCK:
            continue
        t1 = min(f.death, max(cap, f.birth * 2.0 + 1.0))
        ts = f.birth + (t1 - f.birth) * np.linspace(1e-9, 1.0, samples)
        cdot = np.asarray(f.geom.slope(ts))
        u_left, _, u_right, _ = f.traces
        lo = cdot - np.asarray(u_right(ts))
        hi = np.asarray(u_left(ts)) - 1.0 - cdot
        out.append((f.fid, float(np.min(lo)), float(np.min(hi))))
    return out


def delta_contact_slope_error(sol: Solution, samples: int = 100) -> float:
    """Max deviation of delta-contact speeds from the local lambda1 = u - 1."""
    worst = 0.0
    for f in sol.fronts.values():
        if f.kind is not FrontKind.DELTA_CONTACT:
            continue
        t1 = min(f.death, max(sol.t_max_computed, f.birth * 2.0 + 1.0))
        ts = f.birth + (t1 - f.birth) * np.linspace(1e-6, 1.0 - 1e-9, samples)
        u_left, _, u_right, _ = f.traces
        lam = 0.5 * (np.asarray(u_left(ts)) + np.asarray(u_right(ts))) - 1.0
        worst = max(worst, float(np.max(np.abs(np.asarray(f.geom.slope(ts)) - lam))))
    return worst


def bifurcation_ordering_gap(sol: Solution, t_factor: float = 100.0,
                             samples: int = 200):
    """Min of (shock - contact) positions over (t_s, t_factor * t_s] after a
    bifurcation; positive means the delta contact stays strictly below."""
    ev = next((e for e in sol.events if e.rule == "BreakdownBifurcation"), None)
    if ev is None:
        return None
    dc = next(sol.fronts[f] for f in ev.outgoing
              if sol.fronts[f].kind is FrontKind.DELTA_CONTACT)
    sh = next(sol.fronts[f] for f in ev.outgoing
              if sol.fronts[f].kind is FrontKind.SHOCK)
    # start slightly inside the open interval: at t_s the curves touch by
    # construction and the positive gap grows like (t - t_s)^2
    ts = ev.t * np.logspace(math.log10(1.0 + 1e-6), math.log10(t_factor), samples)
    gap = np.asarray(sh.geom.pos(ts)) - np.asarray(dc.geom.pos(ts))
    return float(np.min(gap))


def perturb_strength_rate(sol: Solution, fid: int, ds: float) -> Solution:
    """Copy of the solution with one affine strength slope shifted by ds
    (a deliberately wrong solution the residual oracle must flag)."""
    f = sol.fronts[fid]
    if not isinstance(f.strength, AffineStrength):
        raise ValueError("only affine strength laws can be perturbed")
    law = AffineStrength(f.strength.s + ds, f.strength.gamma, f.strength.t_ref)
    fronts = dict(sol.fronts)
    fronts[fid] = replace(f, strength=law)
    return replace(sol, fronts=fronts)


# ---------------------------------------------------------------------------
# entropy pairs
# ---------------------------------------------------------------------------

class EntropyPair:
    """eta(u, v) = f(u) + g(v e^{-u}) e^{u},  q = (u-1) eta + ftilde(u) with
    ftilde' = f' - f.  Compatible with the flux Jacobian by construction;
    convexity of f and g is checked numerically and non-convex pairs are
    rejected.
    """

    def __init__(self, f: Callable, g: Callable, ftilde: Callable,
                 check_range=(-4.0, 4.0)):
        self.f, self.g, self.ftilde = f, g, ftilde
        lo, hi = check_range
        xs = np.linspace(lo, hi, 41)
        h = (hi - lo) / 200.0
        for fn, name in ((f, "f"), (g, "g")):
            second = (np.asarray(fn(xs + h)) - 2.0 * np.asarray(fn(xs))
                      + np.asarray(fn(xs - h))) / (h * h)
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
    ftilde is computed termwise from ftilde' = f' - f."""
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    g_coeffs = np.asarray(g_coeffs, dtype=float)

    def f(u):
        return np.polynomial.polynomial.polyval(np.asarray(u, float), f_coeffs)

    def g(m):
        return np.polynomial.polynomial.polyval(np.asarray(m, float), g_coeffs)

    ft = np.zeros(len(f_coeffs) + 1)
    for k, a in enumerate(f_coeffs):
        ft[k] += a
        ft[k + 1] -= a / (k + 1.0)

    def ftilde(u):
        return np.polynomial.polynomial.polyval(np.asarray(u, float), ft)

    return EntropyPair(f, g, ftilde)


def entropy_compat_error(pair: EntropyPair, us, vs, h: float = 1e-5) -> float:
    """Finite-difference check of q' = eta' . (flux Jacobian):
    dq/du = u eta_u + v eta_v and dq/dv = (u-1) eta_v."""
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    qu = (pair.q(us + h, vs) - pair.q(us - h, vs)) / (2.0 * h)
    qv = (pair.q(us, vs + h) - pair.q(us, vs - h)) / (2.0 * h)
    eu = (pair.eta(us + h, vs) - pair.eta(us - h, vs)) / (2.0 * h)
    ev = (pair.eta(us, vs + h) - pair.eta(us, vs - h)) / (2.0 * h)
    e1 = np.abs(qu - (us * eu + vs * ev))
    e2 = np.abs(qv - (us - 1.0) * ev)
    return float(max(np.max(e1), np.max(e2)))


def entropy_residual(sol: Solution, pair: EntropyPair, phi: TestFunction,
                     eps: Optional[float] = None, order: int = 16) -> float:
    """int eta phi_t + q phi_x (+ initial-data term with the function part
    of v) with every delta atom replaced by the two-sided strips of width
    eps and height alpha/(2 eps).

    Smooth exact regions contribute zero; admissible shocks contribute
    nonnegatively for phi >= 0; for a regularized delta contact the residual
    is the initial/birth-layer mismatch, of size O(eps).
    """
    t_lo = max(0.0, phi.tc - phi.st)
    t_hi = phi.tc + phi.st
    x_lo_box = phi.xc - phi.sx
    x_hi_box = phi.xc + phi.sx
    R = 0.0
    for (a, b) in _time_cells(sol, t_lo, t_hi, x_lo_box, x_hi_box):
        ep = sol.epoch_at(0.5 * (a + b))
        tp = max(4, _panels_for(b - a, phi.st))
        xi, wxi = _composite01(tp, order)
        tn = a + (b - a) * xi
        tw = (b - a) * wxi
        fronts = [sol.fronts[f] for f in ep.fronts]
        pos = [f.geom.pos(tn) for f in fronts]
        in_box = [bool(np.any((p > x_lo_box) & (p < x_hi_box))) for p in pos]
        strip = [eps is not None and f.kind.carries_atom for f in fronts]
        if eps is None and any(f.kind.carries_atom and ib
                               for f, ib in zip(fronts, in_box)):
            raise ValueError("an atom front crosses the test function "
                             "support; pass eps for the strip regularization")
        nf = len(fronts)
        for k, rid in enumerate(ep.regions):
            reg = sol.regions[rid]
            base_lo = pos[k - 1] if k > 0 else np.full_like(tn, x_lo_box)
            base_hi = pos[k] if k < nf else np.full_like(tn, x_hi_box)
            # carve the strip slivers off this region's slab
            pieces = []
            lo_eff = base_lo.copy()
            hi_eff = base_hi.copy()
            if k > 0 and strip[k - 1]:
                lo_eff = base_lo + eps
                pieces.append((base_lo, np.minimum(base_lo + eps, base_hi),
                               fronts[k - 1]))
            if k < nf and strip[k]:
                hi_eff = base_hi - eps
                pieces.append((np.maximum(base_hi - eps, base_lo), base_hi,
                               fronts[k]))
            pieces.append((lo_eff, hi_eff, None))
            for (plo, phi_, owner) in pieces:
                lo = np.maximum(plo, x_lo_box)
                hi = np.minimum(phi_, x_hi_box)
                rows = hi - lo > 0.0
                if not np.any(rows):
                    continue
                lo_r, hi_r, tn_r, tw_r = lo[rows], hi[rows], tn[rows], tw[rows]
                xp = _panels_for(float(np.median(hi_r - lo_r)), phi.sx, cap=6)
                off_r = _sing_offset(reg, lo_r, tn_r) if owner is None else None
                x, wx, dist = _x_nodes(lo_r, hi_r, xp, order, off_r)
                tt = tn_r[:, None]
                u = np.asarray(reg.u_law(x, tt)) + np.zeros_like(x)
                if owner is None:
                    v = _v_eval(reg, x, tt, dist) + np.zeros_like(x)
                else:
                    v = (np.asarray(owner.strength(tn_r))[:, None]
                         / (2.0 * eps)) + np.zeros_like(x)
                eta = pair.eta(u, v)
                q = pair.q(u, v)
                R += float(np.sum(tw_r * np.sum(
                    wx * (eta * phi.dt(tt, x) + q * phi.dx(tt, x)), axis=1)))
    if phi.tc - phi.st < 0.0 < t_hi:
        xi, wxi = _composite01(6, order)
        for lo, hi, reg in _initial_segments(sol, x_lo_box, x_hi_box):
            x = lo + (hi - lo) * xi
            w = (hi - lo) * wxi
            u0 = np.asarray(reg.u_law(x, 0.0))
            v0 = np.asarray(reg.v_law(x, 0.0))
            R += float(np.sum(w * pair.eta(u0, v0) * phi.value(0.0, x)))
    return R


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

    def traj(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                    len(self.times) - 1)
        return self.xs[k] + self.speeds[k] * (t - self.times[k])

    def strength(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                    len(self.times) - 1)
        return self.gammas[k] + self.rates[k] * (t - self.times[k])


def fan_approx_oracle(sc: Scenario, n: int) -> OracleRun:
    """Track the scenario with the rarefaction fan replaced by n equal-u
    steps (small non-physical shocks from the fan center, each with the
    zero-deficit v-ratio (2+h)/(2-h)), using only straight-line rules.

    Valid for the fan-bearing cases (4 and 5); returns the approximate delta
    trajectory and strength for comparison against the exact solution.
    """
    if n < 2:
        raise ValueError("need at least 2 fan steps")
    case_id, _ = validate_scenario(sc)
    if case_id not in (4, 5):
        raise ValueError("the fan oracle applies to cases 4 and 5 only")
    u0, v0 = sc.left.u, sc.left.v
    u1, v1 = sc.middle.u, sc.middle.v
    u2, v2 = sc.right.u, sc.right.v

    times, xs, speeds, gammas, rates = [], [], [], [], []

    def push(t, x, c, g, r):
        times.append(t)
        xs.append(x)
        speeds.append(c)
        gammas.append(g)
        rates.append(r)

    end_kind = "merged-out"
    if case_id == 4:
        h = (u2 - u1) / n
        ratio = (2.0 - h) / (2.0 + h)
        # passive fronts from the origin, slowest first: the contact, then
        # the fan steps; sector j right of step j has u1 + j h and v-level
        # v2 ratio^(n-j)
        passive = [(u1 - 1.0, State(u1, v2 * ratio ** n))]
        for j in range(1, n + 1):
            passive.append((u1 + (j - 0.5) * h, State(u1 + j * h,
                                                      v2 * ratio ** (n - j))))
        t, x, g = 0.0, sc.offset, 0.0
        left = State(u0, v0)
        right = State(u1, v1)
        c = 0.5 * (left.u + right.u)
        r = rh_deficit(left, right, c)
        push(t, x, c, g, r)
        t_end = INF
        for (pc, beyond) in passive:
            tau = (x - c * t) / (pc - c)
            g += r * (tau - t)
            x += c * (tau - t)
            t = tau
            right = beyond
            if classify(left.u, right.u) is WaveCase.DELTA_SHOCK:
                c = 0.5 * (left.u + right.u)
                r = rh_deficit(left, right, c)
                push(t, x, c, g, r)
            else:
                # overcompressibility exhausted: delta contact + shock
                push(t, x, left.u - 1.0, g, 0.0)
                t_end, end_kind = t, "bifurcation"
                break
        else:
            t_end = t + 10.0 * (t - times[0] + 1.0)
    else:
        h = (u1 - u0) / n
        ratio = (2.0 - h) / (2.0 + h)
        # fastest step first: it reaches the delta first; sector j left of
        # step j has u-level u1 - j h and v-level v1 ratio^j
        passive = [(u1 - (j - 0.5) * h, State(u1 - j * h, v1 * ratio ** j))
                   for j in range(1, n + 1)]
        t, x, g = 0.0, sc.offset, 0.0
        left = State(u1, v1)
        right = State(u2, v2)
        c = 0.5 * (left.u + right.u)
        r = rh_deficit(left, right, c)
        push(t, x, c, g, r)
        t_end = INF
        for (pc, beyond) in passive:
            tau = (x - c * t) / (pc - c)
            g += r * (tau - t)
            x += c * (tau - t)
            t = tau
            left = beyond
            if classify(left.u, right.u) is WaveCase.DELTA_SHOCK:
                c = 0.5 * (left.u + right.u)
                r = rh_deficit(left, right, c)
                push(t, x, c, g, r)
            else:
                push(t, x, left.u - 1.0, g, 0.0)
                t_end, end_kind = t, "bifurcation"
                break
        else:
            t_end = t + 10.0 * (t - times[0] + 1.0)

    return OracleRun(n, np.asarray(times), np.asarray(xs), np.asarray(speeds),
                     np.asarray(gammas), np.asarray(rates), t_end, end_kind)


def compare_oracle(sol: Solution, orun: OracleRun,
                   samples: int = 400) -> tuple[float, float]:
    """Sup-norm trajectory and strength differences between the oracle's
    approximate delta front and the exact fan-interior delta front, over the
    common part of the fan-crossing interval."""
    exact = next(f for f in sol.fronts.values()
                 if f.kind is FrontKind.DELTA_SHOCK
                 and isinstance(f.geom, SqrtCurve))
    t0 = max(exact.birth, float(orun.times[1]) if len(orun.times) > 1
             else exact.birth)
    t1 = min(exact.death, orun.t_end)
    if not (t1 > t0):
        raise ValueError("no overlap between oracle and exact fan intervals")
    ts = np.linspace(t0, t1 * (1.0 - 1e-12), samples)
    traj_err = np.max(np.abs(orun.traj(ts) - np.asarray(exact.geom.pos(ts))))
    alpha_err = np.max(np.abs(orun.strength(ts) - np.asarray(exact.strength(ts))))
    return float(traj_err), float(alpha_err)
