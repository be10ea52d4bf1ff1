"""Event-driven front tracking for three-state interaction scenarios.

A scenario is two Riemann fans (one of which is a delta shock) released from
x = offset and x = 0.  The tracker repeatedly takes the earliest candidate
event: a crossing of two adjacent fronts after the current epoch's start, or
a scheduled overcompressibility breakdown.  Two fronts born at one point
are never a candidate, since they meet only there: lines meet once, and the
breakdown pair is tangent at its birth.  Each event is recorded under one
of seven rule names; the five classical interaction cases and their
sub-cases all emerge from those rules rather than being scripted.  Four
resolvers build the outgoing fronts: MergeDeltas, ShockHitsDelta,
DeltaCrossesContact and FrontExitsFan are one generalized Riemann problem
at the event point, with the incoming atoms' total mass as its initial atom
(front tracking, Holden & Risebro 2002); DeltaEntersFan,
BreakdownBifurcation and ContactContinuation have one resolver each.

Every spawned delta shock must be overcompressive, u_R <= c' <= u_L - 1,
which holds while its u-gap u_L - u_R is at least 2; the fan edges' u decide
how a fan passage ends.  The two margins are closed forms that never shrink
along a delta's life, so one evaluation decides it: at birth for a straight
delta between constant u-states, at the end of the fan passage for a
fan-interior one.  A front reads u on each side through ``Front.u_traces``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .core import (
    ConstLaw,
    ConstantStrength,
    Epoch,
    Event,
    FanExpV,
    FanU,
    Front,
    FrontKind,
    INF,
    Line,
    LogCurve,
    Point,
    Region,
    Scenario,
    Solution,
    SqrtCurve,
    State,
    TabulatedStrength,
    WCurvedV,
    WStraightV,
    WTildeCurvedV,
)
from .fronts import (
    breakdown_time,
    characteristic_in_fan,
    fan_delta_trajectory,
    intersect,
)
from .riemann import WaveCase, classify, rh_deficit, solve_grp, v_star

RULE_MERGE_DELTAS = "MergeDeltas"
RULE_DELTA_CROSSES_CONTACT = "DeltaCrossesContact"
RULE_SHOCK_HITS_DELTA = "ShockHitsDelta"
RULE_DELTA_ENTERS_FAN = "DeltaEntersFan"
RULE_BREAKDOWN = "BreakdownBifurcation"
RULE_FRONT_EXITS_FAN = "FrontExitsFan"
RULE_CONTACT_CONTINUATION = "ContactContinuation"

RESOLUTION_RULES = (
    RULE_MERGE_DELTAS,
    RULE_DELTA_CROSSES_CONTACT,
    RULE_SHOCK_HITS_DELTA,
    RULE_DELTA_ENTERS_FAN,
    RULE_BREAKDOWN,
    RULE_FRONT_EXITS_FAN,
    RULE_CONTACT_CONTINUATION,
)

MAX_EVENTS = 16


class ScenarioError(ValueError):
    """Scenario does not match any of the five interaction cases."""


class TrackingError(RuntimeError):
    """Internal inconsistency while building a solution."""


def validate_pair(a: State, b: State, what: str = "the states"):
    """Raise unless the v-deficit of ``a`` and ``b`` at their mean speed, the
    strength rate of a delta between them, is finite."""
    rate = rh_deficit(a, b, 0.5 * (a.u + b.u))
    if not math.isfinite(rate):
        raise ScenarioError(
            f"the v-deficit of {what} at their mean speed, a delta's strength "
            f"rate, overflows to {rate} (u={a.u}, {b.u}; v={a.v}, {b.v})")


def validate_scenario(sc: Scenario) -> tuple[int, str]:
    """Return (case id, sub-case label) or raise naming the violated inequality.

    Data whose closed forms overflow are refused first: each pair must pass
    ``validate_pair`` and the x-width the fronts can sweep by t_max be finite.

    offset < 0 requires the (left, middle) pair to form the delta shock;
    offset > 0 requires the (middle, right) pair to.  The other pair's wave
    structure (``classify``) then selects the case: a second delta shock
    (1), a shock-contact pair (2, 3), or a contact-rarefaction pair (4, 5).
    """
    left, middle, right = sc.left, sc.middle, sc.right
    u = u0, u1, u2 = left.u, middle.u, right.u
    validate_pair(left, middle, "states 0 and 1")
    validate_pair(middle, right, "states 1 and 2")
    validate_pair(left, right, "states 0 and 2")
    width = 2.0 * ((max(abs(u0), abs(u1), abs(u2)) + 1.0) * sc.t_max
                   + abs(sc.offset) + 1.0)
    if not math.isfinite(width):
        raise ScenarioError(
            f"the x-width the fronts can sweep by t_max, 2((max|u| + 1) t_max "
            f"+ |offset| + 1), overflows (u={u}, t_max={sc.t_max}, "
            f"offset={sc.offset})")
    neg = sc.offset < 0.0
    i, j = (0, 1) if neg else (1, 0)    # the delta pair, the other pair
    if classify(u[i], u[i + 1]) is not WaveCase.DELTA_SHOCK:
        raise ScenarioError(
            f"u{i} >= u{i + 1} + 2 violated (u{i}={u[i]}, u{i + 1}={u[i + 1]}); "
            f"the wave starting at a {'negative' if neg else 'positive'} "
            "offset must be a delta shock")
    other = classify(u[j], u[j + 1])
    if other is WaveCase.CONSTANT:
        raise ScenarioError(
            f"u{j} != u{j + 1} required (u{j}={u[j]}, u{j + 1}={u[j + 1]})")
    if other is WaveCase.DELTA_SHOCK:
        return 1, "1"
    if other is WaveCase.SHOCK_CONTACT:
        return (2, "2") if neg else (3, "3")
    # contact + rarefaction at the origin
    if neg:
        if u2 <= u0 - 2.0:
            return 4, "4(i)"
        if u0 <= u2:
            return 4, "4(ii)(a)"
        if u2 >= u0 - 1.0:
            return 4, "4(ii)(b)"
        return 4, "4(ii)(c)"
    if u0 >= u2 + 2.0:
        return 5, "5(no-bifurcation)"
    if u0 <= u2:
        return 5, "5(bifurcation,u0<=u2)"
    return 5, "5(bifurcation,u2<u0<u2+2)"


_PendingEvent = namedtuple("_PendingEvent", "t x incoming")


def _describe(f: Front) -> str:
    return f"front {f.fid} ({f.kind.value}, {type(f.geom).__name__})"


class _Tracker:
    def __init__(self):
        self.regions: dict[int, Region] = {}
        self.fronts: dict[int, Front] = {}
        self.origins: dict[int, Point] = {}
        self.events: list[Event] = []
        self.epochs: list[Epoch] = []
        self._next_rid = 0
        self._next_fid = 0

    # -- construction helpers ------------------------------------------------

    def _new_region(self, u_law, v_law, label="") -> int:
        rid = self._next_rid
        self._next_rid += 1
        self.regions[rid] = Region(rid, u_law, v_law, label)
        return rid

    def _new_front(self, kind, geom, lrid, rrid, origin: Point, strength=None,
                   breakdown_t=None) -> int:
        fid = self._next_fid
        self._next_fid += 1
        f = Front(fid, kind, geom, lrid, rrid, strength,
                  (self.regions[lrid].u_law, self.regions[rrid].u_law),
                  birth=origin.t, breakdown_t=breakdown_t)
        if kind is FrontKind.DELTA_SHOCK:
            self._check_overcompressive(f)
        self.fronts[fid] = f
        self.origins[fid] = origin
        return fid

    def _check_overcompressive(self, f: Front):
        """Raise unless the delta's slope c' keeps u_R <= c' <= u_L - 1 (to
        1e-9).  Both margins u_R - c' and c' - (u_L - 1) are constant on a
        straight delta between constant u-states and grow along a
        fan-interior one (-|K|/(2 sqrt(y)) and 1 - |K|/(2 sqrt(y))), so they
        are evaluated once: at birth, or at the end of the fan passage."""
        t = f.strength.t1 if isinstance(f.geom, SqrtCurve) else f.birth
        u_left, u_right = f.u_traces(t)
        cdot = f.geom.slope(t)
        lo, hi = u_right - cdot, cdot - (u_left - 1.0)
        if lo > 1e-9 or hi > 1e-9:
            raise TrackingError(
                f"non-overcompressive delta shock spawned (front {f.fid}, "
                f"max violations {lo:.3e}, {hi:.3e})")

    def _materialize_fan(self, fan, left_rid: int, right_rid: int):
        """Instantiate a WaveFan's fronts/regions between two existing regions."""
        inner = [self._new_region(u_law, v_law, "fan-inner")
                 for (u_law, v_law) in fan.regions[1:-1]]
        rids = [left_rid] + inner + [right_rid]
        return [self._new_front(piece.kind, piece.geom, rids[k], rids[k + 1],
                                fan.origin, strength=piece.strength)
                for k, piece in enumerate(fan.fronts)]

    def build_initial(self, states, origins, gamma: float = 0.0):
        """Epoch 0: the Riemann fan of each adjacent pair of ``states``,
        with the atom ``gamma``, from its point of ``origins``; a pair with
        no wave keeps one region."""
        labels = ("left", *["middle"] * (len(states) - 2), "right")
        fans = [solve_grp(a, b, gamma, p)
                for a, b, p in zip(states, states[1:], origins)]
        rids = [self._new_region(ConstLaw(states[0].u), ConstLaw(states[0].v), "left")]
        for st, label, fan in zip(states[1:], labels[1:], fans):
            rids.append(self._new_region(ConstLaw(st.u), ConstLaw(st.v), label)
                        if fan.fronts else rids[-1])
        fronts = tuple(fid for fan, lrid, rrid in zip(fans, rids, rids[1:])
                       for fid in self._materialize_fan(fan, lrid, rrid))
        regions = self._regions_for(fronts, rids[0], rids[-1])
        self.epochs.append(Epoch(0.0, INF, fronts, regions))

    def _regions_for(self, fronts, leftmost, rightmost):
        regions = [leftmost]
        for fid in fronts:
            regions.append(self.fronts[fid].right_region)
        if regions[-1] != rightmost:
            raise TrackingError("region chain mismatch")
        return tuple(regions)

    # -- event loop ----------------------------------------------------------

    def next_event(self) -> Optional[_PendingEvent]:
        """The earliest candidate: a crossing of two adjacent fronts after
        the epoch's start, or a scheduled breakdown.  Two fronts born at one
        point meet there only: lines meet once, and the breakdown pair is
        tangent at its birth (a double root), so such a pair is skipped."""
        ep = self.epochs[-1]
        fronts = [self.fronts[f] for f in ep.fronts]
        cands = [(f.breakdown_t, f.geom.pos(f.breakdown_t), (f.fid,))
                 for f in fronts if f.breakdown_t is not None]
        for a, b in zip(fronts, fronts[1:]):
            if self.origins[a.fid] == self.origins[b.fid]:
                continue
            try:
                p = intersect(a.geom, b.geom, ep.t0)
            except TypeError:           # a pair with no closed-form crossing
                raise TrackingError(
                    f"no crossing rule for adjacent {_describe(a)} and "
                    f"{_describe(b)} after t={ep.t0}") from None
            if p is not None:
                cands.append((p.t, p.x, (a.fid, b.fid)))
        return _PendingEvent(*min(cands)) if cands else None

    def resolve(self, ev: _PendingEvent):
        if len(ev.incoming) == 1:
            delta = self.fronts[ev.incoming[0]]
            return self._resolve_breakdown(ev, delta.geom, delta.strength(ev.t))
        kinds = [self.fronts[f].kind for f in ev.incoming]
        kindset = set(kinds)
        if kindset == {FrontKind.DELTA_SHOCK}:
            return self._resolve_riemann(ev, RULE_MERGE_DELTAS)
        if kindset == {FrontKind.DELTA_SHOCK, FrontKind.SHOCK}:
            return self._resolve_riemann(ev, RULE_SHOCK_HITS_DELTA)
        if kindset == {FrontKind.DELTA_SHOCK, FrontKind.CONTACT}:
            return self._resolve_riemann(ev, RULE_DELTA_CROSSES_CONTACT)
        if FrontKind.FAN_EDGE in kindset:
            edge, other = (self.fronts[f] for f in ev.incoming)
            if other.kind is FrontKind.FAN_EDGE:
                edge, other = other, edge
            if other.kind is FrontKind.DELTA_SHOCK and isinstance(other.geom, Line):
                return self._resolve_delta_enters_fan(ev, edge, other)
            if other.kind is FrontKind.DELTA_SHOCK or (
                    other.kind is FrontKind.SHOCK and isinstance(other.geom, SqrtCurve)):
                return self._resolve_riemann(ev, RULE_FRONT_EXITS_FAN)
            if other.kind is FrontKind.DELTA_CONTACT and isinstance(other.geom, LogCurve):
                return self._resolve_contact_continuation(ev, edge, other)
        raise TrackingError(
            f"no resolution rule for fronts {ev.incoming} of kinds {kinds} "
            f"at t={ev.t}, x={ev.x}")

    # -- commit machinery ----------------------------------------------------

    def _slice_bounds(self, ev: _PendingEvent):
        # the incoming fronts are one front or an adjacent pair, left first
        ep = self.epochs[-1]
        i = ep.fronts.index(ev.incoming[0])
        return ep, i, i + len(ev.incoming) - 1

    def _commit(self, ev, rule, new_fids, gamma_in):
        """Replace the incoming fronts by ``new_fids``; ``gamma_in`` is the
        incoming atoms' total strength at the event, as the resolver found it."""
        ep, i, j = self._slice_bounds(ev)
        for fid in ev.incoming:
            self.fronts[fid].death = ev.t
        gamma_out = sum(self.fronts[f].strength(ev.t) for f in new_fids
                        if self.fronts[f].strength is not None)
        if abs(gamma_out - gamma_in) > 1e-10 * (1.0 + abs(gamma_in)):
            raise TrackingError(
                f"strength not conserved at t={ev.t}: in={gamma_in}, out={gamma_out}")
        fronts = ep.fronts[:i] + tuple(new_fids) + ep.fronts[j + 1:]
        regions = self._regions_for(fronts, ep.regions[0], ep.regions[-1])
        ep.t1 = ev.t
        self.epochs.append(Epoch(ev.t, INF, fronts, regions))
        self.events.append(Event(ev.t, ev.x, rule, ev.incoming, tuple(new_fids)))

    def _outer_regions(self, ev):
        ep, i, j = self._slice_bounds(ev)
        return ep.regions[i], ep.regions[j + 1]

    # -- resolution rules ----------------------------------------------------

    def _const_state(self, rid: int) -> State:
        try:
            return self.regions[rid].const_state()
        except ValueError as exc:
            raise TrackingError(str(exc)) from None

    def _resolve_riemann(self, ev, rule):
        """The generalized Riemann problem between the two outer states with
        the incoming atoms' total mass.  A shock leaving the fan has the
        singular w-region (u0) on its left, whose trace there must be v*;
        (u0, v*) stands in for it."""
        lrid, rrid = self._outer_regions(ev)
        incoming = [self.fronts[f] for f in ev.incoming]
        deltas = [f for f in incoming if f.kind is FrontKind.DELTA_SHOCK]
        state_r = self._const_state(rrid)
        if rule == RULE_FRONT_EXITS_FAN and not deltas:
            left = self.regions[lrid]
            if not (isinstance(left.u_law, ConstLaw) and left.v_law.singular_left):
                raise TrackingError("unexpected exit orientation for a shock")
            u0 = left.u_law.value
            v_tilde = v_star(u0, state_r.u, state_r.v)
            w_trace = left.v_law(ev.x, ev.t)
            if abs(w_trace - v_tilde) > 1e-10 * (1.0 + abs(v_tilde)):
                raise TrackingError(
                    f"w-trace {w_trace} does not match v* {v_tilde} at fan exit")
            state_l = State(u0, v_tilde)
        else:
            state_l = self._const_state(lrid)
        gamma = sum(f.strength(ev.t) for f in incoming if f.strength is not None)
        fan = solve_grp(state_l, state_r, gamma, Point(ev.t, ev.x))
        if deltas and fan.case is not WaveCase.DELTA_SHOCK:
            raise TrackingError(
                f"{rule}: a delta shock came in without the u-gap >= 2 "
                f"(u_l={state_l.u}, u_r={state_r.u})")
        if rule == RULE_DELTA_CROSSES_CONTACT:
            speed = fan.fronts[0].geom.m
            if abs(speed - deltas[0].geom.m) > 1e-9 * (1.0 + abs(speed)):
                raise TrackingError("delta speed changed across a contact")
        self._commit(ev, rule, self._materialize_fan(fan, lrid, rrid), gamma)

    def _resolve_delta_enters_fan(self, ev, edge: Front, delta: Front):
        """The delta rides into the fan on ``fan_delta_trajectory``, where
        its u-gap to the fan trace shrinks from the near ``edge``'s to the
        far edge's.  A gap of 2 at the near edge (or below it, by rounding of
        the states) is a breakdown at the entry point, a gap below 2 at the
        far edge a breakdown inside the fan, and otherwise (a tie at 2
        included) the delta exits the fan."""
        lrid, rrid = self._outer_regions(ev)
        left, right = self.regions[lrid], self.regions[rrid]
        fan_on_right = isinstance(right.u_law, FanU)
        fan_reg = right if fan_on_right else left
        const = self._const_state(lrid if fan_on_right else rrid)
        sign = 1.0 if fan_on_right else -1.0
        center = Point(fan_reg.u_law.tc, fan_reg.u_law.xc)
        entry = Point(ev.t, ev.x)
        curve = fan_delta_trajectory(entry, const.u, center)
        gamma0 = delta.strength(ev.t)
        if sign * (const.u - edge.geom.m) <= 2.0:
            return self._resolve_breakdown(ev, curve, gamma0)
        # remaining fan edge: the front beyond the fan region in the new order
        ep, i, j = self._slice_bounds(ev)
        far_edge = self.fronts[ep.fronts[j + 1 if fan_on_right else i - 1]]
        if not isinstance(far_edge.geom, Line):
            raise TrackingError(
                f"{RULE_DELTA_ENTERS_FAN} at t={ev.t}: {_describe(delta)} "
                f"entered the fan across {_describe(edge)}, and beyond the "
                f"fan is {_describe(far_edge)}, not a straight fan edge")
        breaks = sign * (const.u - far_edge.geom.m) < 2.0
        if breaks:
            t_end = breakdown_time(curve, ev.t)
        else:
            p_exit = intersect(curve, far_edge.geom, ev.t)
            t_end = p_exit.t if p_exit is not None else None
        if t_end is None:
            raise TrackingError(
                f"degenerate fan passage at t={ev.t} (no "
                f"{'breakdown' if breaks else 'exit'} time)")
        law = TabulatedStrength(curve, fan_reg.v_law, const.v, sign,
                                ev.t, t_end, gamma0)
        fid = self._new_front(FrontKind.DELTA_SHOCK, curve, lrid, rrid,
                              entry, strength=law,
                              breakdown_t=t_end if breaks else None)
        self._commit(ev, RULE_DELTA_ENTERS_FAN, [fid], gamma0)

    def _resolve_breakdown(self, ev, curve: SqrtCurve, gamma_s: float):
        """The delta on ``curve`` with strength ``gamma_s`` splits at the
        event point into a delta contact and a shock that goes on along
        ``curve``: at a scheduled breakdown in the fan, or at fan entry."""
        lrid, rrid = self._outer_regions(ev)
        left, right = self.regions[lrid], self.regions[rrid]
        B = 0.5 * abs(curve.K)
        t_s, x_s = ev.t, ev.x
        origin = Point(t_s, x_s)
        if isinstance(right.u_law, FanU):
            # constant state on the left: straight delta contact, slope u0 - 1
            u0 = self._const_state(lrid).u
            fan_v: FanExpV = right.v_law
            w_rid = self._new_region(
                ConstLaw(u0),
                WStraightV(B, u0, fan_v.v_ref, fan_v.u_ref,
                           x_s - (u0 - 1.0) * t_s),
                "w-straight")
            contact = Line(t_s, x_s, u0 - 1.0)
        else:
            # constant state on the right: the contact rides a fan characteristic
            st_r = self._const_state(rrid)
            center = Point(left.u_law.tc, left.u_law.xc)
            contact = characteristic_in_fan(origin, center)
            w_rid = self._new_region(FanU(center.t, center.x),
                                     WCurvedV(B, st_r.v, st_r.u),
                                     "w-curved")
        f1 = self._new_front(FrontKind.DELTA_CONTACT, contact, lrid, w_rid,
                             origin, strength=ConstantStrength(gamma_s))
        f2 = self._new_front(FrontKind.SHOCK, curve, w_rid, rrid, origin)
        self._commit(ev, RULE_BREAKDOWN, [f1, f2], gamma_s)

    def _resolve_contact_continuation(self, ev, edge: Front, dc: Front):
        lrid, rrid = self._outer_regions(ev)
        left = self.regions[lrid]          # constant (u0, v_*) beyond the edge
        w_curved = self.regions[rrid]      # singular fan-interior region
        u0 = self._const_state(lrid).u
        wlaw = w_curved.v_law
        gamma = dc.strength(ev.t)
        w_tilde_rid = self._new_region(
            ConstLaw(u0), WTildeCurvedV(u0, wlaw.B, wlaw.v2, wlaw.u2),
            "w-tilde")
        origin = Point(ev.t, ev.x)
        f_dc = self._new_front(FrontKind.DELTA_CONTACT,
                               Line(ev.t, ev.x, u0 - 1.0),
                               lrid, w_tilde_rid, origin,
                               strength=ConstantStrength(gamma))
        f_edge = self._new_front(FrontKind.FAN_EDGE, edge.geom,
                                 w_tilde_rid, rrid, origin)
        self._commit(ev, RULE_CONTACT_CONTINUATION, [f_dc, f_edge], gamma)

    # -- driver ----------------------------------------------------------------

    def track(self):
        while True:
            ev = self.next_event()
            if ev is None:
                break
            if len(self.events) >= MAX_EVENTS:
                raise TrackingError(
                    f"event budget exceeded; last event at t={self.events[-1].t}")
            self.resolve(ev)

    def solution(self, sc: Optional[Scenario], case_id: int, case_label: str,
                 t_max: float) -> Solution:
        return Solution(sc, case_id, case_label, self.regions, self.fronts,
                        self.events, self.epochs, t_max_computed=t_max)


def run(sc: Scenario) -> Solution:
    """Construct the global weak solution for a valid scenario.

    Terminates after a bounded number of events; the returned graph's front
    descriptions stay valid for all t >= 0 (the solution is global), with
    ``t_max_computed`` only bounding default sampling horizons.
    """
    case_id, case_label = validate_scenario(sc)
    if sc.offset < 0.0:
        origins = Point(0.0, sc.offset), Point(0.0, 0.0)
    else:
        origins = Point(0.0, 0.0), Point(0.0, sc.offset)
    tr = _Tracker()
    tr.build_initial((sc.left, sc.middle, sc.right), origins)
    tr.track()
    return tr.solution(sc, case_id, case_label, sc.t_max)


def fan_solution(left: State, right: State, gamma: float = 0.0,
                 t_max: float = 10.0) -> Solution:
    """Wrap a single (generalized) Riemann fan as a one-epoch Solution.

    Used to verify standalone two-state solutions with the same residual
    machinery that checks full interaction solutions.
    """
    tr = _Tracker()
    tr.build_initial((left, right), (Point(0.0, 0.0),), gamma)
    return tr.solution(None, 0, "riemann", t_max)
