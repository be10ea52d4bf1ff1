"""Two-state Riemann solvers, with or without an initial point atom.

Wave structure depends only on (u_L, u_R):

* u_R > u_L            -- contact discontinuity followed by a rarefaction fan
* u_R < u_L < u_R + 2  -- contact discontinuity followed by a shock
* u_L >= u_R + 2       -- a single delta shock at speed (u_L + u_R)/2

The boundary u_L = u_R + 2 belongs to the delta-shock branch; exactly there
the shock-contact intermediate value v* has a vanishing denominator, which is
what forces the measure-valued solution.  All coefficients below come from
the delta- and delta'-coefficient equations of the distributional weak form,
not from any shortcut relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    AffineStrength,
    ConstLaw,
    ConstantStrength,
    FanExpV,
    FanU,
    FrontKind,
    Line,
    Point,
    State,
)


class WaveCase(Enum):
    CONSTANT = "constant"
    RAREFACTION_CONTACT = "rarefaction_contact"
    SHOCK_CONTACT = "shock_contact"
    DELTA_SHOCK = "delta_shock"


def classify(u_l: float, u_r: float) -> WaveCase:
    """Partition of the (u_L, u_R) plane into the four wave structures."""
    if u_l == u_r:
        return WaveCase.CONSTANT
    if u_r > u_l:
        return WaveCase.RAREFACTION_CONTACT
    if u_l >= u_r + 2.0:
        return WaveCase.DELTA_SHOCK
    return WaveCase.SHOCK_CONTACT


def rh_deficit(left: State, right: State, speed: float) -> float:
    """Rankine-Hugoniot deficit of the v-equation at the given speed.

    s = c [v] - [(u-1) v].  Zero iff the plain jump satisfies the v-jump
    condition; otherwise s is exactly the growth rate of the delta strength
    a front moving at ``speed`` must carry.
    """
    return (speed * (right.v - left.v)
            - ((right.u - 1.0) * right.v - (left.u - 1.0) * left.v))


def v_star(u_l: float, u_r: float, v_r: float) -> float:
    """Intermediate v between the contact and the shock of a shock-contact fan.

    Solves rh_deficit((u_l, v*), (u_r, v_r), (u_l+u_r)/2) = 0:
    v* = v_r (2 + u_l - u_r) / (2 + u_r - u_l).
    """
    den = 2.0 + u_r - u_l
    if den == 0.0 or (2.0 + u_l - u_r) == 0.0:
        raise ValueError("v* degenerate: |u_l - u_r| = 2")
    return v_r * (2.0 + u_l - u_r) / den


@dataclass(frozen=True)
class FanPiece:
    """One front of a wave fan, with absolute geometry and optional atom."""

    kind: FrontKind
    geom: Line
    strength: Optional[AffineStrength | ConstantStrength] = None


@dataclass(frozen=True)
class WaveFan:
    """Ordered fronts and regions emanating from one origin point.

    ``regions`` holds len(fronts)+1 (u_law, v_law) pairs, leftmost first;
    the outer entries repeat the input states.
    """

    origin: Point
    case: WaveCase
    fronts: tuple
    regions: tuple


def _const_pair(s: State):
    return (ConstLaw(s.u), ConstLaw(s.v))


def solve_grp(left: State, right: State, gamma: float,
              origin: Point = Point(0.0, 0.0)) -> WaveFan:
    """Solve the generalized Riemann problem with an atom of mass ``gamma``
    sitting at the origin.

    gamma = 0 reduces to the classical solver.  A nonzero atom either joins
    the delta shock (u_L >= u_R + 2), rides the contact line of slope
    u_L - 1 as a constant-strength delta contact (the linearly degenerate
    continuation), or is transported along that same line through a
    rarefaction-side fan.
    """
    t0, x0 = origin.t, origin.x
    case = classify(left.u, right.u)
    fronts = []
    regions = [_const_pair(left)]

    if case is WaveCase.DELTA_SHOCK:
        c = 0.5 * (left.u + right.u)
        law = AffineStrength(rh_deficit(left, right, c), gamma, t0)
        fronts.append(FanPiece(FrontKind.DELTA_SHOCK, Line(t0, x0, c), law))
    elif gamma != 0.0 or case is not WaveCase.CONSTANT or left.v != right.v:
        # the 1-wave: the contact line of slope u_L - 1, carrying the atom
        kind, st = ((FrontKind.DELTA_CONTACT, ConstantStrength(gamma))
                    if gamma != 0.0 else (FrontKind.CONTACT, None))
        fronts.append(FanPiece(kind, Line(t0, x0, left.u - 1.0), st))
    if case is WaveCase.SHOCK_CONTACT:
        regions.append((ConstLaw(left.u),
                        ConstLaw(v_star(left.u, right.u, right.v))))
        fronts.append(FanPiece(FrontKind.SHOCK,
                               Line(t0, x0, 0.5 * (left.u + right.u))))
    elif case is WaveCase.RAREFACTION_CONTACT:
        regions.append((ConstLaw(left.u),
                        ConstLaw(right.v * math.exp(left.u - right.u))))
        fronts.append(FanPiece(FrontKind.FAN_EDGE, Line(t0, x0, left.u)))
        regions.append((FanU(t0, x0), FanExpV(right.v, right.u, t0, x0)))
        fronts.append(FanPiece(FrontKind.FAN_EDGE, Line(t0, x0, right.u)))

    regions.append(_const_pair(right))
    return WaveFan(origin, case, tuple(fronts), tuple(regions))
