"""Shared domain types for the 2x2 system  u_t + (u^2/2)_x = 0,  v_t + ((u-1)v)_x = 0.

The u-field is a Burgers-type velocity, the v-field a density-like quantity
that may carry Dirac atoms on discontinuity curves.  Everything here is a
plain immutable value type: curve geometries in the x-t half plane, strength
laws for delta atoms, closed-form field laws for regions, and the event-graph
``Solution`` container produced by the front tracker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

INF = math.inf

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _returns_like(t, values):
    """Return a float if the array ``t`` is 0-d, else the ndarray ``values``."""
    return float(values) if t.ndim == 0 else values


# ---------------------------------------------------------------------------
# states and eigenstructure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class State:
    """Constant field pair (u, v).  v may be negative; both must be finite."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"non-finite state ({self.u}, {self.v})")


def eigenvalues(s: State) -> tuple[float, float]:
    """Characteristic speeds (lambda1, lambda2) = (u - 1, u).

    The first family is linearly degenerate, the second genuinely nonlinear,
    so lambda1 < lambda2 always (strict hyperbolicity).
    """
    return s.u - 1.0, s.u


@dataclass(frozen=True)
class Point:
    """A point (t, x) in the half plane t >= 0."""

    t: float
    x: float

    def __post_init__(self):
        if self.t < 0.0 or not math.isfinite(self.t) or not math.isfinite(self.x):
            raise ValueError(f"invalid point ({self.t}, {self.x})")


# ---------------------------------------------------------------------------
# curve geometries
# ---------------------------------------------------------------------------

class CurveGeometry:
    """Base for discontinuity-curve geometries; position/slope evaluable in t."""

    t_lo: float
    t_hi: float

    def pos(self, t):
        raise NotImplementedError

    def slope(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Line(CurveGeometry):
    """Straight front x = x0 + m (t - t0)."""

    t0: float
    x0: float
    m: float
    t_lo: float = 0.0
    t_hi: float = INF

    def pos(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, self.x0 + self.m * (t - self.t0))

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, np.full_like(t, self.m, dtype=float))


@dataclass(frozen=True)
class SqrtCurve(CurveGeometry):
    """Fan-interior trajectory x = xc + u_k (t - tc) + K sqrt(t - tc).

    Solves c'(t) = (c/t + u_k)/2 for a front flanked by the constant state
    u_k on one side and fan values x/t on the other (fan centered at
    (tc, xc)).  K < 0 means the constant side is on the left.
    """

    u_k: float
    K: float
    tc: float = 0.0
    xc: float = 0.0
    t_lo: float = 0.0
    t_hi: float = INF

    def pos(self, t):
        t = np.asarray(t, dtype=float)
        dt = t - self.tc
        return _returns_like(t, self.xc + self.u_k * dt + self.K * np.sqrt(dt))

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        dt = t - self.tc
        return _returns_like(t, self.u_k + self.K / (2.0 * np.sqrt(dt)))


@dataclass(frozen=True)
class LogCurve(CurveGeometry):
    """Fan characteristic x = xc + (t - tc) (C - log(t - tc)).

    Integral curve of dx/dt = x/t - 1 inside a fan centered at (tc, xc);
    these carry delta contact discontinuities after a breakdown.
    """

    C: float
    tc: float = 0.0
    xc: float = 0.0
    t_lo: float = 0.0
    t_hi: float = INF

    def pos(self, t):
        t = np.asarray(t, dtype=float)
        dt = t - self.tc
        return _returns_like(t, self.xc + dt * (self.C - np.log(dt)))

    def slope(self, t):
        t = np.asarray(t, dtype=float)
        dt = t - self.tc
        return _returns_like(t, self.C - np.log(dt) - 1.0)


# ---------------------------------------------------------------------------
# strength laws
# ---------------------------------------------------------------------------

class StrengthLaw:
    """Signed delta mass alpha(t) carried by a front."""

    def __call__(self, t):
        raise NotImplementedError

    def rate(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantStrength(StrengthLaw):
    gamma: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, np.full_like(t, self.gamma, dtype=float))

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, np.zeros_like(t))


@dataclass(frozen=True)
class AffineStrength(StrengthLaw):
    """alpha(t) = s (t - t_ref) + gamma with constant deficit rate s."""

    s: float
    gamma: float
    t_ref: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, self.s * (t - self.t_ref) + self.gamma)

    def rate(self, t):
        t = np.asarray(t, dtype=float)
        return _returns_like(t, np.full_like(t, self.s, dtype=float))


class TabulatedStrength(StrengthLaw):
    """alpha(t) = gamma0 + integral of a smooth rate, stored on quadrature panels.

    Panel boundary values are exact (composite Gauss-Legendre); evaluation
    inside a panel re-integrates from the left edge, so there is no
    interpolation error beyond quadrature tolerance.
    """

    def __init__(self, rate_fn: Callable, t0: float, t1: float, gamma0: float,
                 panels: int = 64):
        if not (t1 > t0):
            raise ValueError("empty strength range")
        self._rate = rate_fn
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.gamma0 = float(gamma0)
        edges = np.linspace(t0, t1, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.asarray(rate_fn(ts), dtype=float)
        panel_int = (vals @ _GL_WEIGHTS) * half
        self.edges = edges
        self.alpha_nodes = gamma0 + np.concatenate(([0.0], np.cumsum(panel_int)))

    def __call__(self, t):
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        span = self.t1 - self.t0
        if np.any(t < self.t0 - 1e-9 * span) or np.any(t > self.t1 + 1e-9 * span):
            raise ValueError("strength queried outside its range")
        tq = np.clip(t, self.t0, self.t1)
        k = np.clip(np.searchsorted(self.edges, tq, side="right") - 1, 0,
                    len(self.edges) - 2)
        a = self.edges[k]
        mid = 0.5 * (a + tq)
        half = 0.5 * (tq - a)
        ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        # a row-wise sum, not a matrix product: BLAS rounds a row differently
        # with the number of rows, and alpha(t) must not depend on what else
        # is queried with t
        vals = np.asarray(self._rate(ts), dtype=float)
        partial = np.sum(vals * _GL_WEIGHTS, axis=1) * half
        out = self.alpha_nodes[k] + partial
        return float(out[0]) if scalar else out

    def rate(self, t):
        return self._rate(np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# field laws (per-region closed forms)
# ---------------------------------------------------------------------------

class FieldLaw:
    """Closed-form evaluator for one field over one region.

    ``singular_left`` marks laws that blow up (exponent -1/2 in distance)
    at the region's left boundary; quadrature grades accordingly.
    """

    singular_left: bool = False

    def __call__(self, x, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstLaw(FieldLaw):
    value: float

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        return _returns_like(x, np.full_like(x, self.value, dtype=float))


@dataclass(frozen=True)
class FanU(FieldLaw):
    """u = (x - xc)/(t - tc) inside a centered rarefaction fan."""

    tc: float = 0.0
    xc: float = 0.0

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return _returns_like(x, (x - self.xc) / (t - self.tc))


@dataclass(frozen=True)
class FanExpV(FieldLaw):
    """v = v_ref exp((x - xc)/(t - tc) - u_ref) inside a fan.

    Continuous with the adjacent constant v_ref at the edge of slope u_ref.
    """

    v_ref: float
    u_ref: float
    tc: float = 0.0
    xc: float = 0.0

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return _returns_like(x, self.v_ref * np.exp((x - self.xc) / (t - self.tc)
                                                    - self.u_ref))


_MARKER_TOL = 1e-12


@dataclass(frozen=True)
class WStraightV(FieldLaw):
    """Post-breakdown profile between a straight delta contact and the shock.

    Constant along lines of slope u0 - 1.  With r = sqrt(x - (u0-1)t - y_edge)
    (distance past the contact in the transported coordinate),

        V = (1 + 2B/r) * v_ref * exp(u0 - 2B/(B + r) - u_ref),

    which is the value traced back along the characteristic to the shock at
    time (B + r)^2.  Blows up like r^{-1} ~ distance^{-1/2} at the contact.
    """

    B: float
    u0: float
    v_ref: float
    u_ref: float
    y_edge: float  # x - (u0-1) t on the carrying delta contact

    singular_left = True

    def singular_locus(self, t):
        """Position of the carrying delta contact (blow-up curve)."""
        return (self.u0 - 1.0) * np.asarray(t, dtype=float) + self.y_edge

    def from_distance(self, d, t):
        """Evaluate from the exact distance d > 0 past the delta contact
        (cancellation-free path used by graded quadrature)."""
        r = np.sqrt(np.asarray(d, dtype=float))
        return (1.0 + 2.0 * self.B / r) * self.v_ref * np.exp(
            self.u0 - 2.0 * self.B / (self.B + r) - self.u_ref)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        d = np.asarray(x - (self.u0 - 1.0) * t - self.y_edge, dtype=float)
        scale = 1.0 + np.abs(x) + np.abs((self.u0 - 1.0) * t)
        bad = d <= _MARKER_TOL * scale
        val = self.from_distance(np.where(bad, 1.0, d), t)
        val = np.where(bad, math.copysign(INF, self.v_ref), val)
        return _returns_like(x, val)


def _curved_s(g0, B, s_upper):
    """Solve g0 - 2 log(1 + s/B) - 2s/(B + s)... = 0, i.e. the back-trace
    C - log(tau) - u2 - 2B/sqrt(tau) = 0 written in s = sqrt(tau) - B with
    g0 = C - u2 - 2 - 2 log B the (well-conditioned) value at s = 0.

    Strictly decreasing in s >= 0, so bisection is safe; g0 <= 0 marks
    points at or past the delta contact.
    """
    g0 = np.asarray(g0, dtype=float)
    s_upper = np.broadcast_to(np.asarray(s_upper, dtype=float), g0.shape)

    def g(s):
        # C - 2 log(B+s) - u2 - 2B/(B+s) rewritten around s = 0
        return g0 - 2.0 * np.log1p(s / B) + 2.0 * s / (B + s)

    bad = g0 <= 0.0
    lo = np.zeros_like(g0)
    hi = np.where(bad, 1.0, s_upper * (1.0 + 1e-12) + 1e-300)
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        pos = g(mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi), bad


def _curved_value(g0, t, B, v2, s_upper):
    """Profile value v2 (2B + s)(B + s)^2 / (s t) at back-trace root s."""
    s, bad = _curved_s(g0, B, s_upper)
    sp = np.where(bad, 1.0, s)
    val = v2 * (2.0 * B + sp) * (B + sp) ** 2 / (sp * np.asarray(t, dtype=float))
    return np.where(bad, math.copysign(INF, v2), val)


@dataclass(frozen=True)
class WCurvedV(FieldLaw):
    """Post-breakdown profile inside a fan, between the delta contact (a
    log characteristic) and the shock (the sqrt curve).

    Along the curved characteristics dx/dt = x/t - 1 the conservation form
    v_t + ((u-1)v)_x = 0 with u = x/t forces the decay dv/dt = -v/t, so the
    value at (x, t) is the shock-side trace v2 (sqrt(tau)+B)/(sqrt(tau)-B)
    scaled by tau/t, where tau is the time at which the characteristic
    through (x, t) meets the shock.
    """

    B: float
    v2: float
    u2: float

    singular_left = True

    def singular_locus(self, t):
        ts = self.B * self.B
        t = np.asarray(t, dtype=float)
        return t * (self.u2 + 2.0 + np.log(ts) - np.log(t))

    def from_distance(self, d, t):
        t = np.asarray(t, dtype=float)
        g0 = np.asarray(d, dtype=float) / t
        return _curved_value(g0, t, self.B, self.v2, np.sqrt(t) - self.B)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        d = x - self.singular_locus(t)
        scale = 1.0 + np.abs(x)
        g0 = np.where(d <= _MARKER_TOL * scale, -1.0, d) / t
        val = _curved_value(g0, t, self.B, self.v2, np.sqrt(t) - self.B)
        return _returns_like(x, val)


@dataclass(frozen=True)
class WTildeCurvedV(FieldLaw):
    """Curved profile prolonged across the fan edge x = u0 t into the
    constant-u0 region: constant along lines of slope u0 - 1 (u is constant
    there), matched to the in-fan profile where the carrying line meets the
    edge at time t_hat = x - (u0-1)t.
    """

    u0: float
    B: float
    v2: float
    u2: float

    singular_left = True

    @property
    def t_exit(self):
        # time at which the carrying delta contact crossed the fan edge
        return self.B * self.B * math.exp(self.u2 + 2.0 - self.u0)

    def singular_locus(self, t):
        # the continued contact line of slope u0 - 1 through (t_exit, u0 t_exit)
        return self.t_exit + (self.u0 - 1.0) * np.asarray(t, dtype=float)

    def from_distance(self, d, t):
        # d is measured from the continued contact line; there t_hat = t_exit
        th = self.t_exit + np.asarray(d, dtype=float)
        g0 = np.log1p(np.asarray(d, dtype=float) / self.t_exit)
        return _curved_value(g0, th, self.B, self.v2, np.sqrt(th) - self.B)

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        t_hat = np.asarray(x - (self.u0 - 1.0) * t, dtype=float)
        d = t_hat - self.t_exit
        scale = 1.0 + np.abs(x) + np.abs((self.u0 - 1.0) * t)
        bad = d <= _MARKER_TOL * scale
        val = self.from_distance(np.where(bad, self.t_exit, d), t)
        return _returns_like(x, np.where(bad, math.copysign(INF, self.v2), val))


# ---------------------------------------------------------------------------
# fronts, regions, events, solutions
# ---------------------------------------------------------------------------

class FrontKind(Enum):
    SHOCK = "shock"
    CONTACT = "contact"
    DELTA_SHOCK = "delta_shock"
    DELTA_CONTACT = "delta_contact"
    FAN_EDGE = "fan_edge"

    @property
    def carries_atom(self) -> bool:
        return self in (FrontKind.DELTA_SHOCK, FrontKind.DELTA_CONTACT)


@dataclass(frozen=True)
class Region:
    """A region with its field laws.  ``singular_fid`` names the front
    carrying the -1/2-power blow-up of the v-law (graded quadrature applies
    only while that front is the region's actual left boundary)."""

    rid: int
    u_law: FieldLaw
    v_law: FieldLaw
    label: str = ""
    singular_fid: Optional[int] = None

    @property
    def singular_left(self) -> bool:
        return self.v_law.singular_left

    def const_state(self) -> State:
        if isinstance(self.u_law, ConstLaw) and isinstance(self.v_law, ConstLaw):
            return State(self.u_law.value, self.v_law.value)
        raise ValueError(f"region {self.rid} ({self.label}) is not constant")


@dataclass
class Front:
    """A discontinuity curve with its kind, geometry, neighbours and atom law.

    ``traces`` are (u_left, v_left, u_right, v_right) callables evaluated on
    the curve itself; they feed strength rates and split weights.
    """

    fid: int
    kind: FrontKind
    geom: CurveGeometry
    left_region: int
    right_region: int
    strength: Optional[StrengthLaw] = None
    traces: Optional[tuple] = None
    birth: float = 0.0
    death: float = INF
    breakdown_t: Optional[float] = None

    def __post_init__(self):
        if self.kind.carries_atom and self.strength is None:
            raise ValueError(f"{self.kind} front must carry a strength law")
        if not self.kind.carries_atom and self.strength is not None:
            raise ValueError(f"{self.kind} front cannot carry a strength law")

    def alive_at(self, t) -> bool:
        return self.birth <= t < self.death

    def split_fraction(self, t):
        """Left-sided weight w0(t): alpha0 = w0 alpha, alpha1 = (1-w0) alpha.

        Solves the delta'-coefficient condition
        (uL - 1 - c') a0 + (uR - 1 - c') a1 = 0; a contact-riding atom
        (uL = uR) splits evenly, the convention for the non-unique case.
        """
        u_left, _, u_right, _ = self.traces
        t = np.asarray(t, dtype=float)
        uL = np.asarray(u_left(t), dtype=float)
        uR = np.asarray(u_right(t), dtype=float)
        du = uL - uR
        even = np.abs(du) < 1e-12
        w0 = np.where(even, 0.5, (np.asarray(self.geom.slope(t)) - uR + 1.0)
                      / np.where(even, 1.0, du))
        return _returns_like(t, w0)

    def atom(self, t):
        """(alpha, alpha0, alpha1): the strength at t and its left- and
        right-sided components."""
        a = self.strength(t)
        w0 = self.split_fraction(t)
        return a, a * w0, a * (1.0 - np.asarray(w0))


@dataclass(frozen=True)
class Event:
    t: float
    x: float
    rule: str
    incoming: tuple
    outgoing: tuple


@dataclass
class Epoch:
    """Time slab with a fixed left-to-right front ordering.

    ``fronts`` has n entries and ``regions`` n+1; region k sits between
    fronts k-1 and k (unbounded at the outer ends).
    """

    t0: float
    t1: float
    fronts: tuple
    regions: tuple


@dataclass(frozen=True)
class Scenario:
    """Three constant states plus the signed start offset of the delta shock.

    offset < 0: the (left, middle) wave starts at x = offset, the
    (middle, right) wave at 0.  offset > 0: the (left, middle) wave starts
    at 0, the (middle, right) wave at x = offset.
    """

    left: State
    middle: State
    right: State
    offset: float
    t_max: float = 10.0

    def __post_init__(self):
        if self.offset == 0.0 or not math.isfinite(self.offset):
            raise ValueError("offset must be nonzero and finite")
        if not (self.t_max > 0.0):
            raise ValueError("t_max must be positive")


@dataclass
class Solution:
    """Event graph of a global weak solution: regions, fronts, events, epochs.

    Front geometries are valid for all t >= birth; ``t_max_computed`` only
    bounds what emission routines sample by default.
    """

    scenario: Scenario
    case_id: int
    case_label: str
    regions: dict
    fronts: dict
    events: list
    epochs: list
    t_max_computed: float

    def epoch_at(self, t: float) -> Epoch:
        if t < 0.0:
            raise ValueError("t must be >= 0")
        for ep in reversed(self.epochs):
            if t >= ep.t0:
                return ep
        return self.epochs[0]
