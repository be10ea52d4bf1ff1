"""Shared domain types for the 2x2 system  u_t + (u^2/2)_x = 0,  v_t + ((u-1)v)_x = 0.

The u-field is a Burgers-type velocity, the v-field a density-like quantity
that may carry Dirac atoms on discontinuity curves.  Everything here is a
plain immutable value type: curve geometries in the x-t half plane, strength
laws for delta atoms, closed-form field laws for regions, and the event-graph
``Solution`` container produced by the front tracker.

Float/array contract.  The geometries (``Line``, ``SqrtCurve``,
``LogCurve``), the strength laws, the point laws ``ConstLaw``, ``FanU`` and
``FanExpV``, ``split_weight`` and ``Front.u_traces``/``Front.atom`` take a
time (and position) either as a float, and then return a Python float
computed in plain float arithmetic, or as an array, and then return an
array; a 0-d array counts as a float.  One expression serves both, with
bit-identical results: Python and numpy round +, -, *, / and sqrt alike,
but not exp, log and expm1, which therefore stay numpy ufuncs on a float
too.  A float raises nowhere the array path returns a value: a negative
sqrt argument gives nan and a zero divisor numpy's signed inf or nan.
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


def _returns_like(t, values):
    """Return a float if the array ``t`` is 0-d, else the ndarray ``values``."""
    return float(values) if t.ndim == 0 else values


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
        # one exponent, the fan-side trace minus u_ref, which is <= 0 in
        # the fan; the factors v_ref e^(u_k - u_ref) and e^(K/ry) apart
        # overflow for |u| ~ 1e3
        c = self.curve
        return self.fan_v.v_ref * _np(np.exp, c.u_k + _div(c.K, ry) - self.fan_v.u_ref)

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
    at the region's left boundary; quadrature grades accordingly.
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

    def __call__(self, x, t):
        return self.v_ref * _np(np.exp, _div(_arg(x) - self.xc, _arg(t) - self.tc)
                                - self.u_ref)


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


_HALLEY_MAX = 8  # safety cap; from the callers' guesses 4 steps reach full precision
# 1/k! for k = 20 down to 2: e^L - 1 - L to rounding for |L| < 1
_TAIL_COEF = tuple(1.0 / math.factorial(k) for k in range(20, 1, -1))


def _expm1_tail(L):
    """e^L - 1 - L, as its Taylor series for |L| < 1, where expm1(L) - L
    cancels; a float gives a float."""
    if isinstance(L, float):
        if not abs(L) < 1.0:
            return _np(np.expm1, L) - L
        series = _TAIL_COEF[0]
        for c in _TAIL_COEF[1:]:
            series = series * L + c
        return series * L * L
    small = np.abs(L) < 1.0
    Ls = np.where(small, L, 0.0)
    # Horner in place; its first step, 0 Ls + 1/20!, is 1/20! exactly
    series = np.full_like(Ls, _TAIL_COEF[0])
    for c in _TAIL_COEF[1:]:
        series *= Ls
        series += c
    series *= Ls
    series *= Ls
    out = np.expm1(L) - L
    np.copyto(out, series, where=small)
    return out


def _halley_one(L: float, g: float, sigma: float) -> float:
    """``_halley`` on one value, in float arithmetic."""
    for _ in range(_HALLEY_MAX):
        em1 = _np(np.expm1, L)
        f = em1 + sigma * L - g
        d1 = em1 + (1.0 + sigma)
        step = _div(2.0 * f * d1, 2.0 * d1 * d1 - f * (em1 + 1.0))
        L -= step
        if abs(step) <= 2.0 * _EPS * (1.0 + abs(L)):
            break
    if sigma < 0.0:
        L -= _div(_expm1_tail(L) - g, _np(np.expm1, L))
    return L


def _halley(L, g, sigma: float):
    """Root of e^L - 1 + sigma L = g, sigma = +/-1, by Halley's iteration
    from L, elementwise; ``g`` is a scalar or has the shape of L.

    For sigma = -1 and small g the left side cancels to ~L^2/2, which
    leaves the iteration about eps/sqrt(2g) relative error; one Newton step
    on its series (``_expm1_tail``) restores full precision.  A point stops
    moving once its step is below rounding, so its value does not depend on
    the rest of the batch.  One value is iterated in floats (a float in,
    a float out), several in place on one flat array; either way each
    operation is the one of the expression L -= 2 f d1 / (2 d1 d1 - f
    (em1 + 1)), f = em1 + sigma L - g, d1 = em1 + 1 + sigma,
    em1 = e^L - 1, in the same order, so an element's bits do not depend
    on the path.
    """
    shape = np.shape(L)
    L = np.array(L, dtype=float).reshape(-1)
    g = np.reshape(g, -1)
    if L.size == 1:
        root = _halley_one(float(L[0]), float(g[0]), sigma)
        return root if shape == () else np.full(shape, root)
    em1, f, d1, step, den = np.empty((5, L.size))
    done, now = np.zeros((2, L.size), dtype=bool)
    for _ in range(_HALLEY_MAX):
        np.expm1(L, out=em1)
        np.multiply(L, sigma, out=f)
        f += em1
        f -= g
        np.add(em1, 1.0 + sigma, out=d1)
        np.multiply(f, 2.0, out=step)
        step *= d1
        np.multiply(d1, 2.0, out=den)
        den *= d1
        em1 += 1.0
        em1 *= f
        den -= em1
        step /= den
        np.copyto(step, 0.0, where=done)
        L -= step
        # done once |step| <= 2 eps (1 + |L|)
        np.abs(L, out=em1)
        em1 += 1.0
        em1 *= 2.0 * _EPS
        np.abs(step, out=step)
        np.less_equal(step, em1, out=now)
        done |= now
        if done.all():
            break
    if sigma < 0.0:
        step = _expm1_tail(L)
        step -= g
        step /= np.expm1(L, out=em1)
        L -= step
    return L.reshape(shape)


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
    contact.
    """
    g = 0.5 * np.asarray(g0, dtype=float)
    bad = g <= 0.0
    g = np.where(bad, 1.0, g)
    p = np.sqrt(2.0 * np.minimum(g, 1.0))
    c = 1.0 + g
    L = _halley(np.where(g <= 1.0, -p - p * p / 6.0, np.exp(-c) - c), g, -1.0)
    L = np.maximum(L, -np.log1p(np.asarray(s_upper, dtype=float) / B))
    return np.where(bad, 1.0, B * np.expm1(-L)), bad


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
        """(u_L, u_R) on the curve at times t; a constant side is its value,
        with no position evaluated."""
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
