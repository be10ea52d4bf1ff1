"""Curve algebra: fan-interior trajectories, breakdown detection,
characteristics and intersections.

Front geometries are lines, square-root curves x = xc + u_k y + K sqrt(y)
and log characteristics x = xc + y (C - ln y), with y = t - tc measured
from a fan center.  Their crossings are closed forms, with no scanning:
a line meets a line linearly, a sqrt curve by a quadratic in sqrt(y), and a
log curve through y = exp(C - m) when it passes through the center or else
through a z - ln z = b with z = 1/y; a sqrt curve meets a log curve of the
same center through the same equation in z = 1/sqrt(y).  That equation's
roots are Lambert W values, found by Halley's iteration.  A tangential
contact (a double root, to within rounding of the terms) is no crossing.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .core import (INF, _EPS, CurveGeometry, Line, LogCurve, Point, SqrtCurve,
                   _halley)


def fan_delta_trajectory(entry: Point, u_const: float, fan_center: Point) -> SqrtCurve:
    """Trajectory of a delta shock flanked by the constant state u_const on
    one side and a fan centered at ``fan_center`` on the other.

    Solves c'(t) = (c(t)/t + u_const)/2 through the entry point (the u-field
    Rankine-Hugoniot condition with trace x/t on the fan side):
    c(t) = u_const t + K sqrt(t) with K = (x0 - u_const t0)/sqrt(t0) in
    fan-centered coordinates.
    """
    dt = entry.t - fan_center.t
    if dt <= 0.0:
        raise ValueError("entry point must lie strictly later than the fan center")
    dx = entry.x - fan_center.x
    K = (dx - u_const * dt) / math.sqrt(dt)
    return SqrtCurve(u_const, K, fan_center.t, fan_center.x)


def breakdown_time(curve: SqrtCurve, after: float) -> Optional[float]:
    """Time at which a fan-interior delta trajectory loses overcompressibility.

    The margin |K|/(2 sqrt(t - tc)) - 1 crosses zero at t_s = tc + K^2/4;
    there the constant-side inequality u_k -/+ 1 >< c'(t) becomes an equality
    and the fan-side trace equals u_k -/+ 2.  None when K = 0 or t_s is not
    a finite time later than ``after`` (the time the delta entered the fan).
    """
    if curve.K == 0.0:
        return None
    ts = curve.tc + 0.25 * curve.K * curve.K
    return ts if after < ts < INF else None


def characteristic_in_fan(through: Point, fan_center: Point) -> LogCurve:
    """The lambda1-characteristic dx/dt = x/t - 1 of a fan through a point."""
    dt = through.t - fan_center.t
    if dt <= 0.0:
        raise ValueError("characteristic anchor must lie after the fan center")
    dx = through.x - fan_center.x
    C = dx / dt + math.log(dt)
    return LogCurve(C, fan_center.t, fan_center.x)


def line_crossings(line: Line, geom: CurveGeometry, lo: float,
                   hi: float) -> list[float]:
    """Ascending times t in (lo, hi) at which ``geom`` crosses ``line``
    transversally, in closed form; tangential contacts are no crossing.

    With y = t - tc and D = line(tc) - xc for a curve centered at (tc, xc):
    a Line gives a linear equation; a SqrtCurve a quadratic in s = sqrt(y);
    a LogCurve y (C - m - ln y) = D, which is y = exp(C - m) for D = 0 and
    otherwise D z - ln z = C - m in z = 1/y (see ``_log_roots``).
    """
    if isinstance(geom, Line):
        dm = line.m - geom.m
        num = (geom.x0 - geom.m * geom.t0) - (line.x0 - line.m * line.t0)
        ts = [num / dm] if dm != 0.0 else []
    elif isinstance(geom, SqrtCurve):
        ts = _line_sqrt(line, geom)
    elif isinstance(geom, LogCurve):
        x_at_tc = line.x0 + line.m * (geom.tc - line.t0)
        D = x_at_tc - geom.xc
        b = geom.C - line.m
        terms = abs(geom.C) + abs(line.m)
        if D != 0.0:  # the rounding of D, relative to D, reaches ln D
            terms += (abs(x_at_tc) + abs(geom.xc)) / abs(D)
        ts = [geom.tc + math.exp(w) for w in _log_roots(D, b, terms)
              if w < _LN_MAX]
    else:
        raise TypeError(f"unsupported geometry {type(geom)}")
    return [t for t in ts if lo < t < hi]


def _line_sqrt(a: Line, b: SqrtCurve) -> list[float]:
    # in s = sqrt(t - tc):  (m - u_k) s^2 - K s + (line(tc) - xc) = 0
    ca = a.m - b.u_k
    cb = -b.K
    cc = (a.x0 + a.m * (b.tc - a.t0)) - b.xc
    roots = []
    if ca == 0.0:
        if cb != 0.0:
            roots = [-cc / cb]
    else:
        disc = cb * cb - 4.0 * ca * cc
        scale = cb * cb + abs(4.0 * ca * cc)
        if abs(disc) <= _TANGENT_ULPS * _EPS * scale:
            return []  # grazing contact: tangency, no transversal event
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        roots = [(-cb - sq) / (2.0 * ca), (-cb + sq) / (2.0 * ca)]
    return sorted(b.tc + s * s for s in roots if s > 0.0)


_TANGENT_ULPS = 8.0
_LN_MAX = math.log(sys.float_info.max)  # exp(w) past this is no finite time


def _log_roots(a: float, b: float, terms: float) -> list[float]:
    """Ascending w = -ln z over the transversal roots z > 0 of a z - ln z = b.

    For a > 0 the left side is strictly convex with minimum 1 + ln a at
    z = 1/a, so g = b - 1 - ln a alone decides the root count: two for
    g > 0, none for g < 0, and for g = 0 a double root, a tangency that is
    no event.  g counts as zero up to a few ulps of ``terms``, the sum of
    the magnitudes whose rounding reaches b - ln a.  For a <= 0 the left
    side decreases strictly and there is exactly one root.  The roots are
    z = -W(-a e^-b)/a on the W_0 and W_-1 branches of Lambert W (Corless et
    al., "On the Lambert W function", 1996), found by Halley's iteration on
    L = ln|a z|.
    """
    if a == 0.0:
        return [b]
    ln_a = math.log(abs(a))
    if a < 0.0:
        # v = -a z solves v + ln v = 1 + g
        g = ln_a - b - 1.0
        L = 0.5 * g if g <= 0.0 else math.log(1.0 + g - math.log1p(g))
        return [ln_a - _halley(L, g, +1.0)]
    g = b - 1.0 - ln_a
    if g <= _TANGENT_ULPS * _EPS * (terms + abs(ln_a) + 1.0):
        return []
    # u = a z solves u - ln u = 1 + g, with one root either side of u = 1:
    # branch-point series for small g, asymptotics for large g
    if g <= 1.0:
        p = math.sqrt(2.0 * g)
        guesses = (p - p * p / 6.0, -p - p * p / 6.0)
    else:
        c = 1.0 + g
        guesses = (math.log(c + math.log(c + math.log(c))), math.exp(-c) - c)
    return [ln_a - _halley(L, g, -1.0) for L in guesses]


def intersect(a: CurveGeometry, b: CurveGeometry, after: float) -> Optional[Point]:
    """Earliest transversal intersection of two front geometries with
    t > after, or None.  Grazing (tangential) contacts count as no event,
    and so does a crossing whose position overflows.

    Supported pairs, all in closed form: a Line with any geometry (see
    ``line_crossings``), and a SqrtCurve with a LogCurve of the same fan
    center, where (K/2) z - ln z = (C - u_k)/2 in z = 1/sqrt(t - tc).  A
    scenario has one fan with one fan-interior front at a time, so two
    SqrtCurves, or a SqrtCurve and LogCurve of different centers, never
    meet; they raise TypeError.
    """
    if not isinstance(a, Line):
        a, b = b, a
    if isinstance(a, Line):
        ts = line_crossings(a, b, after, INF)
    elif ({type(a), type(b)} == {SqrtCurve, LogCurve}
          and (a.tc, a.xc) == (b.tc, b.xc)):
        sq, lg = (a, b) if isinstance(a, SqrtCurve) else (b, a)
        # in s = sqrt(t - tc):  s (C - u_k - 2 ln s) = K
        ws = _log_roots(0.5 * sq.K, 0.5 * (lg.C - sq.u_k),
                        0.5 * (abs(lg.C) + abs(sq.u_k)))
        ts = [t for t in (sq.tc + math.exp(2.0 * w) for w in ws
                          if 2.0 * w < _LN_MAX) if t > after]
    else:
        raise TypeError(f"unsupported geometry pair {type(a)}, {type(b)}")
    if not ts:
        return None
    t = ts[0]
    x = 0.5 * (a.pos(t) + b.pos(t))
    return Point(t, x) if math.isfinite(x) else None
