"""Checks of solutions and entropy pairs that only the tests use: the speed
of delta contacts, the ordering after a bifurcation, a deliberately wrong
solution for the residual oracle, the compatibility of an entropy pair, and
the derivative of the test functions' bump.
"""

import math
from dataclasses import replace

import numpy as np

from deltashock.core import AffineStrength, FrontKind, Solution
from deltashock.verify import _BUMP_POW, EntropyPair


def delta_contact_slope_error(sol: Solution, samples: int = 100) -> float:
    """Max deviation of delta-contact speeds from the local lambda1 = u - 1."""
    worst = 0.0
    for f in sol.fronts.values():
        if f.kind is not FrontKind.DELTA_CONTACT:
            continue
        t1 = min(f.death, max(sol.t_max_computed, f.birth * 2.0 + 1.0))
        ts = f.birth + (t1 - f.birth) * np.linspace(1e-6, 1.0 - 1e-9, samples)
        u_left, u_right = f.u_traces(ts)
        lam = 0.5 * (u_left + u_right) - 1.0
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


def dbump(r):
    """The derivative of ``verify.TestFunction._bump``, the bump
    (1 - r^2)^8 on [-1, 1] and 0 outside."""
    r = np.asarray(r, dtype=float)
    s = np.maximum(1.0 - r * r, 0.0)
    return -2.0 * _BUMP_POW * r * s ** (_BUMP_POW - 1)
