"""Shared domain types for the 2x2 system  u_t + (u^2/2)_x = 0,  v_t + ((u-1)v)_x = 0.

The u-field is a Burgers-type velocity, the v-field a density-like quantity
that may carry Dirac atoms on discontinuity curves.  Everything here is a
plain immutable value type: curve geometries in the x-t half plane, strength
laws for delta atoms, closed-form field laws for regions, and the event-graph
``Solution`` container produced by the front tracker.

Float/array contract.  The geometries (``Line``, ``SqrtCurve``,
``LogCurve``), the strength laws, the point laws ``ConstLaw``, ``FanU`` and
``FanExpV`` (and ``of_u``), the post-breakdown profiles ``WStraightV``,
``WCurvedV`` and ``WTildeCurvedV`` (value and every method), their
back-trace root ``_curved_s`` with its Halley iteration ``_halley``,
``split_weight`` and ``Front.u_traces``/``Front.atom`` take a time (and
position) either as a float, and then return a Python float computed in
plain float arithmetic, or as an array, and then return an array; a 0-d
array counts as a float.  One expression serves both, with bit-identical
results: Python and numpy round +, -, *, / and sqrt alike, but not exp,
log and expm1, which therefore stay numpy ufuncs on a float too.  A float
raises nowhere the array path returns a value: a negative sqrt argument
gives nan and a zero divisor numpy's signed inf or nan.  Augmented
assignment (``x += y``) updates a fresh array in place and rebinds a float,
so the longer expressions allocate little on arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Optional

import numpy as np

INF = math.inf
_EPS = float(np.finfo(float).eps)
_EPOCH_START = attrgetter("t0")  # the bisection key of Solution.epoch_at


# -- the float/array contract (see the module docstring) ---------------------

def _arg(t):
    """A float (or 0-d array) as a Python float, anything else as a float
    array."""
    if isinstance(t, float):
        return float(t)
    t = np.asarray(t, dtype=float)
    return float(t) if t.ndim == 0 else t


def _const(t, value):
    """The constant ``value`` in the type of ``t``."""
    if isinstance(t, float):
        return float(value)
    return np.full_like(t, value, dtype=float)


def _np(ufunc, *args):
    """A numpy ufunc, as a Python float on floats."""
    out = ufunc(*args)
    return out if isinstance(out, np.ndarray) else float(out)


def _sqrt(y):
    return math.sqrt(y) if type(y) is float and y >= 0.0 else _np(np.sqrt, y)


def _div(a, b):
    # float division by zero raises; numpy's gives inf or nan
    return _np(np.divide, a, b) if type(b) is float and b == 0.0 else a / b


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


# ---------------------------------------------------------------------------
# states and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class State:
    """Constant field pair (u, v).  v may be negative; both must be finite.

    The characteristic speeds are u - 1 (linearly degenerate) and u
    (genuinely nonlinear), so the system is strictly hyperbolic.
    """

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"non-finite state ({self.u}, {self.v})")


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
    """Base for discontinuity-curve geometries; position/slope evaluable in t.
    It has no lifetime; the carrying front's ``birth`` and ``death`` bound it."""

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

    def pos(self, t):
        return self.x0 + self.m * (_arg(t) - self.t0)

    def slope(self, t):
        return _const(_arg(t), self.m)


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

    def pos(self, t):
        dt = _arg(t) - self.tc
        return self.xc + self.u_k * dt + self.K * _sqrt(dt)

    def slope(self, t):
        dt = _arg(t) - self.tc
        return self.u_k + _div(self.K, 2.0 * _sqrt(dt))


@dataclass(frozen=True)
class LogCurve(CurveGeometry):
    """Fan characteristic x = xc + (t - tc) (C - log(t - tc)).

    Integral curve of dx/dt = x/t - 1 inside a fan centered at (tc, xc);
    these carry delta contact discontinuities after a breakdown.
    """

    C: float
    tc: float = 0.0
    xc: float = 0.0

    def pos(self, t):
        dt = _arg(t) - self.tc
        return self.xc + dt * (self.C - _np(np.log, dt))

    def slope(self, t):
        dt = _arg(t) - self.tc
        return self.C - _np(np.log, dt) - 1.0


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
        return _const(_arg(t), self.gamma)

    def rate(self, t):
        return _const(_arg(t), 0.0)


@dataclass(frozen=True)
class AffineStrength(StrengthLaw):
    """alpha(t) = s (t - t_ref) + gamma with constant deficit rate s."""

    s: float
    gamma: float
    t_ref: float

    def __call__(self, t):
        return self.s * (_arg(t) - self.t_ref) + self.gamma

    def rate(self, t):
        return _const(_arg(t), self.s)


@dataclass(frozen=True)
class TabulatedStrength(StrengthLaw):
    """Strength of a delta shock crossing a fan on ``curve``, in closed form.

    The fan side carries v = fan_v, so its trace on the curve is
    vf(y) = v_ref exp(u_k + K/sqrt(y) - u_ref) with y = t - tc, and the
    other side the constant v_k.  The deficit rate
    sigma [vf (1 - K/(2 sqrt y)) - v_k (1 + K/(2 sqrt y))], sigma = +1 with
    the fan on the right and -1 on the left, has the antiderivative
    F(y) = sigma [y vf(y) - v_k (y + K sqrt y)], so
    alpha(t) = gamma0 + F(t - tc) - F(t0 - tc).  ``t1`` is the end of the
    passage (breakdown or exit).  The name is historical: the benchmark's
    tracer wraps ``TabulatedStrength.__call__`` by name.
    """

    curve: SqrtCurve
    fan_v: FanExpV
    v_k: float
    sigma: float
    t0: float
    t1: float
    gamma0: float

    def _fan_trace(self, ry):
        # one exponent, the fan-side u minus u_ref, <= 0 in the fan: the
        # factors v_ref e^(u_k - u_ref) and e^(K/ry) overflow for |u| ~ 1e3
        return self.fan_v.of_u(self.curve.u_k + _div(self.curve.K, ry))

    def __call__(self, t):
        t = _arg(t)
        c = self.curve
        dt = t - self.t0
        y0 = self.t0 - c.tc
        ry, ry0 = _sqrt(t - c.tc), _sqrt(y0)
        q = _div(dt, ry + ry0)              # sqrt(y) - sqrt(y0)
        vf, vf0 = self._fan_trace(ry), self._fan_trace(ry0)
        # vf - vf0 = vf0 expm1(a), with a = K (1/sqrt(y) - 1/sqrt(y0)) the
        # change of the fan-side u; expm1(-|a|) times the larger trace has
        # no cancellation near entry and no overflow when vf0 underflows
        a = _div(-c.K * q, ry * ry0)
        dvf = _np(np.expm1, -abs(a)) * _where(a >= 0.0, -vf, vf0)
        jump = dt * vf + y0 * dvf           # y vf(y) - y0 vf(y0)
        return self.gamma0 + self.sigma * (jump - self.v_k * (dt + c.K * q))

    def rate(self, t):
        ry = _sqrt(_arg(t) - self.curve.tc)
        h = _div(self.curve.K, 2.0 * ry)
        return self.sigma * (self._fan_trace(ry) * (1.0 - h) - self.v_k * (1.0 + h))


# ---------------------------------------------------------------------------
# field laws (per-region closed forms)
# ---------------------------------------------------------------------------

class FieldLaw:
    """Closed-form evaluator for one field over one region.

    ``singular_left`` marks laws that blow up (exponent -1/2 in distance)
    at the region's left boundary, ``singular_locus``.  Quadrature runs in
    their own coordinate q, in which v dx is analytic: ``coord(d, t)`` is q
    at distance d past the locus, ``from_coord(q, t)`` is (d, dd/dq, v).
    """

    singular_left: bool = False

    def __call__(self, x, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstLaw(FieldLaw):
    value: float

    def __call__(self, x, t):
        return _const(_arg(x), self.value)


@dataclass(frozen=True)
class FanU(FieldLaw):
    """u = (x - xc)/(t - tc) inside a centered rarefaction fan."""

    tc: float = 0.0
    xc: float = 0.0

    def __call__(self, x, t):
        return _div(_arg(x) - self.xc, _arg(t) - self.tc)


@dataclass(frozen=True)
class FanExpV(FieldLaw):
    """v = v_ref exp((x - xc)/(t - tc) - u_ref) inside a fan.

    Continuous with the adjacent constant v_ref at the edge of slope u_ref.
    """

    v_ref: float
    u_ref: float
    tc: float = 0.0
    xc: float = 0.0

    def of_u(self, u):  # v where the fan's u is u, with the point law's bits
        return self.v_ref * _np(np.exp, u - self.u_ref)

    def __call__(self, x, t):
        return self.of_u(_div(_arg(x) - self.xc, _arg(t) - self.tc))


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
        return (self.u0 - 1.0) * _arg(t) + self.y_edge

    def from_distance(self, d, t):
        """The value at the exact distance d > 0 past the delta contact."""
        r = _sqrt(_arg(d))
        return (1.0 + _div(2.0 * self.B, r)) * self.v_ref * _np(
            np.exp, self.u0 - _div(2.0 * self.B, self.B + r) - self.u_ref)

    def coord(self, d, t):  # q = sqrt(d)
        return _sqrt(_arg(d))

    def from_coord(self, q, t):
        q = _arg(q)
        return q * q, 2.0 * q, self.from_distance(q * q, t)

    def __call__(self, x, t):
        x, ut = _arg(x), (self.u0 - 1.0) * _arg(t)
        d = x - ut - self.y_edge
        bad = d <= _MARKER_TOL * (1.0 + abs(x) + abs(ut))
        val = self.from_distance(_where(bad, 1.0, d), t)
        return _where(bad, math.copysign(INF, self.v_ref), val)


_HALLEY_MAX = 8  # safety cap; from the callers' guesses 4 steps reach full precision
# 1/k! for k = 20 down to 2: e^L - 1 - L to rounding for |L| < 1
_TAIL_COEF = tuple(1.0 / math.factorial(k) for k in range(20, 1, -1))


def _expm1_tail(L):
    """e^L - 1 - L, as its Taylor series for |L| < 1, where expm1(L) - L
    cancels."""
    small = abs(L) < 1.0
    Ls = _where(small, L, 0.0)
    # Horner, in place on an array; its first step, 0 Ls + 1/20!, is 1/20!
    series = _const(Ls, _TAIL_COEF[0])
    for c in _TAIL_COEF[1:]:
        series *= Ls
        series += c
    series *= Ls
    series *= Ls
    return _where(small, series, _np(np.expm1, L) - L)


def _halley(L, g, sigma: float):
    """Root of e^L - 1 + sigma L = g, sigma = +/-1, by Halley's iteration
    from L, elementwise; ``g`` is a scalar or has the shape of L.

    For sigma = -1 and small g the left side cancels to ~L^2/2, which
    leaves the iteration about eps/sqrt(2g) relative error; one Newton step
    on its series (``_expm1_tail``) restores full precision.  A point stops
    moving once its step is below rounding, so its value does not depend on
    the rest of the batch.  Each step is L -= 2 f d1 / (2 d1 d1 - f
    (em1 + 1)), f = em1 + sigma L - g, d1 = em1 + 1 + sigma, em1 = e^L - 1.
    """
    L = _arg(L) * 1.0            # a copy, with the sign of a zero kept
    done = False
    for _ in range(_HALLEY_MAX):
        em1 = _np(np.expm1, L)
        f = L * sigma
        f += em1
        f -= g
        d1 = em1 + (1.0 + sigma)
        step = f * 2.0
        step *= d1
        den = d1 * 2.0
        den *= d1
        em1 += 1.0
        em1 *= f
        den -= em1
        step = _where(done, 0.0, _div(step, den))
        L -= step
        tol = abs(L)                # done once |step| <= 2 eps (1 + |L|)
        tol += 1.0
        tol *= 2.0 * _EPS
        done |= abs(step) <= tol
        if done if isinstance(done, bool) else done.all():
            break
    if sigma < 0.0:
        step = _expm1_tail(L)
        step -= g
        L -= _div(step, _np(np.expm1, L))
    return L


def _curved_s(g0, B, s_upper):
    """Back-trace root s >= 0 of g0 = 2 log(1 + s/B) - 2s/(B + s), i.e. of
    C - log(tau) - u2 - 2B/sqrt(tau) = 0 in s = sqrt(tau) - B, with
    g0 = C - u2 - 2 - 2 log B its (well-conditioned) value at s = 0.

    With w = B/(B + s) this is w - ln w = 1 + g0/2, the W_0 side of the
    Lambert-W equation of ``fronts._log_roots``: L = ln w < 0 solves
    e^L - 1 - L = g0/2, and s = B expm1(-L).  The guesses are the
    branch-point series for small g0 and the asymptote L ~ e^-c - c,
    c = 1 + g0/2, for large.  Roots past ``s_upper`` (points beyond the
    shock) are clamped to it; g0 <= 0 marks points at or past the delta
    contact, where s is 1.
    """
    g = 0.5 * _arg(g0)
    bad = g <= 0.0
    g = _where(bad, 1.0, g)
    near = g <= 1.0
    p = _sqrt(2.0 * _where(near, g, 1.0))
    c = 1.0 + g
    L = _halley(_where(near, -p - p * p / 6.0, _np(np.exp, -c) - c), g, -1.0)
    L = _np(np.maximum, L, -_np(np.log1p, s_upper / B))
    return _where(bad, 1.0, B * _np(np.expm1, -L)), bad


def _curved_value(g0, t, B, v2, s_upper):
    """Profile value v2 (2B + s)(B + s)^2 / (s t) at back-trace root s."""
    s, bad = _curved_s(g0, B, s_upper)
    q = B + s
    val = _div(v2 * (2.0 * B + s) * (q * q), s * t)
    return _where(bad, math.copysign(INF, v2), val)


class _CurvedProfile(FieldLaw):
    """The quadrature coordinate of the curved profiles: the back-trace root
    s of ``_curved_s``, where g0 = 2 log1p(s/B) - 2s/(B + s) and
    v dx = 2 v2 (2B + s) ds.  A profile maps a distance d past its contact
    to g0 and the time T of its value (``_g0_of``), and g0 back to d and T
    (``_d_of``); then dd/ds = T dg0/ds."""

    singular_left = True

    def coord(self, d, t):  # the root s, 0 on the contact
        g0, T = self._g0_of(_arg(d), _arg(t))
        s, bad = _curved_s(g0, self.B, _sqrt(T) - self.B)
        return _where(bad, 0.0, s)

    def from_coord(self, s, t):
        s, B = _arg(s), self.B
        q = B + s
        d, T = self._d_of(2.0 * _np(np.log1p, _div(s, B)) - _div(2.0 * s, q), _arg(t))
        dd = T * _div(2.0 * s, q * q)
        return d, dd, _div(2.0 * self.v2 * (2.0 * B + s), dd)


@dataclass(frozen=True)
class WCurvedV(_CurvedProfile):
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

    def singular_locus(self, t):
        t = _arg(t)
        return t * (self.u2 + 2.0 + _np(np.log, self.B * self.B) - _np(np.log, t))

    def _g0_of(self, d, t):
        return _div(d, t), t

    def _d_of(self, g0, t):
        return t * g0, t

    def from_distance(self, d, t):
        g0, t = self._g0_of(_arg(d), _arg(t))
        return _curved_value(g0, t, self.B, self.v2, _sqrt(t) - self.B)

    def __call__(self, x, t):
        x, t = _arg(x), _arg(t)
        d = x - self.singular_locus(t)
        bad = d <= _MARKER_TOL * (1.0 + abs(x))
        return self.from_distance(_where(bad, -1.0, d), t)


@dataclass(frozen=True)
class WTildeCurvedV(_CurvedProfile):
    """Curved profile prolonged across the fan edge x = u0 t into the
    constant-u0 region: constant along lines of slope u0 - 1 (u is constant
    there), matched to the in-fan profile where the carrying line meets the
    edge at time t_hat = x - (u0-1)t.
    """

    u0: float
    B: float
    v2: float
    u2: float

    @property
    def t_exit(self):
        # time at which the carrying delta contact crossed the fan edge
        return self.B * self.B * math.exp(self.u2 + 2.0 - self.u0)

    def singular_locus(self, t):
        # the continued contact line of slope u0 - 1 through (t_exit, u0 t_exit)
        return self.t_exit + (self.u0 - 1.0) * _arg(t)

    def _g0_of(self, d, t):
        # d is measured from the continued contact line; there t_hat = t_exit
        return _np(np.log1p, _div(d, self.t_exit)), self.t_exit + d

    def _d_of(self, g0, t):
        d = self.t_exit * _np(np.expm1, g0)
        return d, self.t_exit + d

    def from_distance(self, d, t):
        g0, th = self._g0_of(_arg(d), t)
        return _curved_value(g0, th, self.B, self.v2, _sqrt(th) - self.B)

    def __call__(self, x, t):
        x, ut = _arg(x), (self.u0 - 1.0) * _arg(t)
        te = self.t_exit
        d = x - ut - te
        bad = d <= _MARKER_TOL * (1.0 + abs(x) + abs(ut))
        val = self.from_distance(_where(bad, te, d), t)
        return _where(bad, math.copysign(INF, self.v2), val)


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
    """A region with its field laws."""

    rid: int
    u_law: FieldLaw
    v_law: FieldLaw
    label: str = ""

    def const_state(self) -> State:
        if isinstance(self.u_law, ConstLaw) and isinstance(self.v_law, ConstLaw):
            return State(self.u_law.value, self.v_law.value)
        raise ValueError(f"region {self.rid} ({self.label}) is not constant")


def split_weight(uL, uR, slope):
    """Left-sided weight w0 of an atom with traces uL, uR on a front of the
    given slope (floats or arrays): the root of the delta'-coefficient
    condition, or 0.5 where |uL - uR| < 1e-12 (see ``Front.atom``)."""
    du = uL - uR
    even = abs(du) < 1e-12
    return _where(even, 0.5, (slope - uR + 1.0) / _where(even, 1.0, du))


@dataclass
class Front:
    """A discontinuity curve with its kind, geometry, neighbours and atom law.

    ``u_laws`` are the u-laws of the left and right regions: u on each side
    is all a front reads of its neighbours (split weights, spawn checks).
    """

    fid: int
    kind: FrontKind
    geom: CurveGeometry
    left_region: int
    right_region: int
    strength: Optional[StrengthLaw] = None
    u_laws: Optional[tuple] = None
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

    def u_traces(self, t):
        """(u_L, u_R) on the curve at times t; a constant side is its value
        (for an array t, an array filled with it), with no position
        evaluated."""
        t = _arg(t)
        return tuple(_const(t, law.value) if isinstance(law, ConstLaw)
                     else law(self.geom.pos(t), t) for law in self.u_laws)

    def atom(self, t):
        """(alpha, alpha0, alpha1): the strength at t and its left- and
        right-sided components, alpha0 = w0 alpha and alpha1 = (1-w0) alpha.

        The weight w0 solves the delta'-coefficient condition
        (uL - 1 - c') a0 + (uR - 1 - c') a1 = 0; a contact-riding atom
        (uL = uR) splits evenly, the convention for the non-unique case.
        """
        a = self.strength(t)
        w0 = split_weight(*self.u_traces(t), self.geom.slope(t))
        return a, a * w0, a * (1.0 - w0)


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
        """The epoch in force at time t >= 0: the last one that starts at or
        before t."""
        if not t >= 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        k = bisect_right(self.epochs, t, key=_EPOCH_START)
        return self.epochs[max(k, 1) - 1]
