import itertools
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from deltashock import interact
from deltashock.battery import BATTERY
from deltashock.core import (FrontKind, Line, Region, Scenario, Solution,
                             SqrtCurve, State, WStraightV)
from deltashock.fronts import breakdown_time
from deltashock.interact import (ScenarioError, TrackingError, run,
                                 validate_scenario)
from deltashock.riemann import WaveCase, rh_deficit, v_star
from deltashock.verify import (
    TestFunction,
    _mass_at,
    auto_window,
    fan_approx_oracle,
    mass_balance,
    overcompressibility_report,
    weak_residual,
)
from solution_checks import delta_contact_slope_error, four_state_draws, track


def sc(u0, u1, u2, offset, v=(1.0, 1.0, 1.0)):
    return Scenario(State(u0, v[0]), State(u1, v[1]), State(u2, v[2]), offset)


def test_validate_scenario_examples():
    assert validate_scenario(sc(6, 3, 0, -1.0)) == (1, "1")
    assert validate_scenario(sc(4, 1, 2, -1.0))[0] == 4
    with pytest.raises(ScenarioError, match="u0 >= u1 \\+ 2 violated"):
        validate_scenario(sc(3, 3, 0, -1.0))


def test_validate_scenario_sub_labels():
    assert validate_scenario(sc(6, 2, 1, -1.0)) == (2, "2")
    assert validate_scenario(sc(4, 3, 1, +1.0)) == (3, "3")
    assert validate_scenario(sc(4, 1, 1.5, -1.0))[1] == "4(i)"
    assert validate_scenario(sc(4, 1, 4.5, -1.0))[1] == "4(ii)(a)"
    assert validate_scenario(sc(4, 1, 3.5, -1.0))[1] == "4(ii)(b)"
    assert validate_scenario(sc(4, 1, 2.5, -1.0))[1] == "4(ii)(c)"
    assert validate_scenario(sc(-1, 4, 0, +1.0))[1] == "5(bifurcation,u0<=u2)"
    assert validate_scenario(sc(1, 4, 0, +1.0))[1] == "5(bifurcation,u2<u0<u2+2)"
    assert validate_scenario(sc(3, 4, 0, +1.0))[1] == "5(no-bifurcation)"
    # boundary-equality routing
    assert validate_scenario(sc(4, 1, 2.0, -1.0))[1] == "4(i)"
    assert validate_scenario(sc(4, 1, 3.0, -1.0))[1] == "4(ii)(b)"
    assert validate_scenario(sc(2, 4, 0, +1.0))[1] == "5(no-bifurcation)"
    assert validate_scenario(sc(0, 4, 0, +1.0))[1] == "5(bifurcation,u0<=u2)"
    # a delta pair at a u-gap of exactly 2 is accepted at both signs
    assert validate_scenario(sc(3, 1, 0.5, -1.0)) == (2, "2")
    assert validate_scenario(sc(0, 3, 1, +1.0)) == (5, "5(bifurcation,u0<=u2)")
    # another pair at exactly 2 is a second delta shock: case 1, not 2 or 3
    assert validate_scenario(sc(6, 3, 1, -1.0)) == (1, "1")
    assert validate_scenario(sc(5, 3, 0, +1.0)) == (1, "1")


def test_validate_scenario_rejections():
    with pytest.raises(ScenarioError, match="u1 >= u2 \\+ 2 violated"):
        validate_scenario(sc(1, 2, 1, +1.0))
    with pytest.raises(ScenarioError, match="u1 != u2"):
        validate_scenario(sc(6, 2, 2, -1.0))
    with pytest.raises(ScenarioError, match="u0 != u1"):
        validate_scenario(sc(4, 4, 0, +1.0))
    # equal u in the other pair: the full text
    for scenario, text in (
            (sc(6, 2.5, 2.5, -1.0), "u1 != u2 required (u1=2.5, u2=2.5)"),
            (sc(4, 4, 2, +1.0), "u0 != u1 required (u0=4, u1=4)")):
        with pytest.raises(ScenarioError) as exc:
            validate_scenario(scenario)
        assert str(exc.value) == text
    # past 2**54, u + 2 rounds to u: equal states are still no delta shock
    with pytest.raises(ScenarioError, match="u0 >= u1 \\+ 2 violated"):
        validate_scenario(sc(1e17, 1e17, 0, -1.0))
    with pytest.raises(ValueError):
        sc(6, 3, 0, 0.0)
    # a positive-offset delta pair next to another delta pair is case 1
    assert validate_scenario(sc(8, 3, 0, +1.0)) == (1, "1")


# the full battery event table, (t, x, rule) per event
EXPECTED_EVENTS = {
    "case1": [(0.3333333333333333, 0.5, "MergeDeltas")],
    "case2": [
        (0.3333333333333333, 0.33333333333333326, "DeltaCrossesContact"),
        (0.4, 0.6000000000000001, "ShockHitsDelta"),
    ],
    "case3": [
        (0.6666666666666666, 2.4, "ShockHitsDelta"),
        (1.4666666666666668, 4.4, "DeltaCrossesContact"),
    ],
    "case4i": [
        (0.4, 0.0, "DeltaCrossesContact"),
        (0.6666666666666666, 0.6666666666666665, "DeltaEntersFan"),
        (0.96, 1.4400000000000002, "FrontExitsFan"),
    ],
    "case4iia": [
        (0.4, 0.0, "DeltaCrossesContact"),
        (0.6666666666666666, 0.6666666666666665, "DeltaEntersFan"),
        (1.4999999999999998, 2.9999999999999996, "BreakdownBifurcation"),
    ],
    "case4iib": [
        (0.4, 0.0, "DeltaCrossesContact"),
        (0.6666666666666666, 0.6666666666666665, "DeltaEntersFan"),
        (1.4999999999999998, 2.9999999999999996, "BreakdownBifurcation"),
        (23.999999999999996, 83.99999999999999, "FrontExitsFan"),
    ],
    "case4iic": [
        (0.4, 0.0, "DeltaCrossesContact"),
        (0.6666666666666666, 0.6666666666666665, "DeltaEntersFan"),
        (1.4999999999999998, 2.9999999999999996, "BreakdownBifurcation"),
        (2.666666666666666, 6.666666666666665, "FrontExitsFan"),
    ],
    "case5_bif_left": [
        (0.5, 2.0, "DeltaEntersFan"),
        (1.9999999999999996, 3.999999999999999, "BreakdownBifurcation"),
        (40.17107384637532, -40.17107384637532, "ContactContinuation"),
    ],
    "case5_bif_mid": [
        (0.5, 2.0, "DeltaEntersFan"),
        (1.9999999999999996, 3.999999999999999, "BreakdownBifurcation"),
        (5.436563656918088, 5.436563656918088, "ContactContinuation"),
        (7.999999999999998, 7.999999999999998, "FrontExitsFan"),
    ],
    "case5_nobif": [
        (0.5, 2.0, "DeltaEntersFan"),
        (0.8888888888888886, 2.666666666666666, "FrontExitsFan"),
        (2.666666666666666, 5.333333333333332, "DeltaCrossesContact"),
    ],
}


@pytest.mark.parametrize("name", list(BATTERY))
def test_battery_event_sequences(name):
    sol = run(BATTERY[name])
    expected = EXPECTED_EVENTS[name]
    assert [e.rule for e in sol.events] == [rule for _, _, rule in expected]
    for e, (t, x, _) in zip(sol.events, expected):
        assert math.isclose(e.t, t, rel_tol=1e-12)
        assert math.isclose(e.x, x, rel_tol=1e-12)


def test_case1_merge_values():
    sol = run(BATTERY["case1"])
    (ev,) = sol.events
    assert ev.t == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ev.x == pytest.approx(0.5, abs=1e-12)
    (out,) = ev.outgoing
    law = sol.fronts[out].strength
    assert law.gamma == pytest.approx(2.0, abs=1e-12)
    assert law.s == pytest.approx(6.0, abs=1e-12)
    alive = [f for f in sol.fronts.values() if math.isinf(f.death)]
    assert len(alive) == 1 and alive[0].kind is FrontKind.DELTA_SHOCK


def test_case2_event_values():
    sol = run(BATTERY["case2"])
    cross, merge = sol.events
    assert (cross.t, cross.x) == (pytest.approx(1 / 3), pytest.approx(1 / 3))
    # v* = 3 on the new right side; rate restarts at the deficit with it
    mid = sol.fronts[cross.outgoing[0]]
    t = cross.t + 0.01
    v_right = sol.regions[mid.right_region].v_law(mid.geom.pos(t), t)
    assert float(v_right) == pytest.approx(3.0)
    assert mid.strength.s == pytest.approx(
        rh_deficit(State(6, 1), State(2, 3), 4.0))
    assert (merge.t, merge.x) == (pytest.approx(0.4), pytest.approx(0.6))
    out = sol.fronts[merge.outgoing[0]]
    assert out.geom.m == pytest.approx(3.5)
    assert out.strength.gamma == pytest.approx(2.0, abs=1e-12)


def test_case3_contact_follow_through():
    sol = run(BATTERY["case3"])
    merge, cross = sol.events
    assert (merge.t, merge.x) == (pytest.approx(2 / 3), pytest.approx(2.4))
    assert (cross.t, cross.x) == (pytest.approx(22 / 15), pytest.approx(4.4))
    first = sol.fronts[merge.outgoing[0]]
    second = sol.fronts[cross.outgoing[0]]
    # same speed through the contact, only the strength rate changes
    assert first.geom.m == pytest.approx(second.geom.m) == pytest.approx(2.5)
    assert first.strength.s != pytest.approx(second.strength.s)


def test_case4_entry_and_breakdown_closed_forms():
    for name in ("case4iia", "case4iib", "case4iic"):
        sol = run(BATTERY[name])
        enter = next(e for e in sol.events if e.rule == "DeltaEntersFan")
        assert enter.t == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert enter.x == pytest.approx(2.0 / 3.0, abs=1e-12)
        curve = sol.fronts[enter.outgoing[0]].geom
        assert isinstance(curve, SqrtCurve)
        assert curve.K == pytest.approx(-math.sqrt(6.0), abs=1e-12)
        bd = next(e for e in sol.events if e.rule == "BreakdownBifurcation")
        assert bd.t == pytest.approx(1.5, abs=1e-12)
        assert bd.x == pytest.approx(3.0, abs=1e-12)


def test_case4iib_exit_and_w_trace():
    sol = run(BATTERY["case4iib"])
    exit_ev = next(e for e in sol.events if e.rule == "FrontExitsFan")
    assert exit_ev.t == pytest.approx(24.0, rel=1e-12)
    assert exit_ev.x == pytest.approx(84.0, rel=1e-12)
    contact, shock = (sol.fronts[f] for f in exit_ev.outgoing)
    assert contact.geom.m == pytest.approx(3.0)
    assert shock.geom.m == pytest.approx(3.75)
    # w is continuously prolonged: the new middle constant equals v*
    v_mid = sol.regions[contact.right_region].v_law.value
    v_tilde = 1.0 * (2 + 4 - 3.5) / (2 + 3.5 - 4)
    assert v_mid == pytest.approx(v_tilde, abs=1e-10)
    w_trace = sol.regions[contact.left_region].v_law(exit_ev.x, exit_ev.t)
    assert float(w_trace) == pytest.approx(v_tilde, abs=1e-10)


def test_case5_closed_forms():
    for name in ("case5_bif_left", "case5_bif_mid", "case5_nobif"):
        sol = run(BATTERY[name])
        enter = next(e for e in sol.events if e.rule == "DeltaEntersFan")
        assert enter.t == pytest.approx(0.5, abs=1e-12)
        assert enter.x == pytest.approx(2.0, abs=1e-12)
    sol = run(BATTERY["case5_bif_left"])
    bd = next(e for e in sol.events if e.rule == "BreakdownBifurcation")
    assert (bd.t, bd.x) == (pytest.approx(2.0, abs=1e-12),
                            pytest.approx(4.0, abs=1e-12))
    cont = next(e for e in sol.events if e.rule == "ContactContinuation")
    assert cont.t == pytest.approx(2.0 * math.exp(3.0), rel=1e-12)

    sol = run(BATTERY["case5_bif_mid"])
    cont = next(e for e in sol.events if e.rule == "ContactContinuation")
    assert cont.t == pytest.approx(2.0 * math.e, rel=1e-12)
    exit_ev = next(e for e in sol.events if e.rule == "FrontExitsFan")
    assert (exit_ev.t, exit_ev.x) == (pytest.approx(8.0), pytest.approx(8.0))

    sol = run(BATTERY["case5_nobif"])
    exit_ev = next(e for e in sol.events if e.rule == "FrontExitsFan")
    assert (exit_ev.t, exit_ev.x) == (pytest.approx(8.0 / 9.0),
                                      pytest.approx(8.0 / 3.0))
    out = sol.fronts[exit_ev.outgoing[0]]
    assert out.kind is FrontKind.DELTA_SHOCK
    assert out.geom.m == pytest.approx(1.5)
    cross = next(e for e in sol.events if e.rule == "DeltaCrossesContact")
    assert (cross.t, cross.x) == (pytest.approx(8.0 / 3.0),
                                  pytest.approx(16.0 / 3.0))


@pytest.mark.parametrize("name", list(BATTERY))
def test_strength_conserved_at_events(name):
    sol = run(BATTERY[name])
    for ev in sol.events:
        g_in = sum(float(sol.fronts[f].strength(ev.t)) for f in ev.incoming
                   if sol.fronts[f].strength is not None)
        g_out = sum(float(sol.fronts[f].strength(ev.t)) for f in ev.outgoing
                    if sol.fronts[f].strength is not None)
        assert g_out == pytest.approx(g_in, abs=1e-10)


@pytest.mark.parametrize("name", list(BATTERY))
def test_battery_monitors(name):
    sol = run(BATTERY[name])
    for fid, lo, hi in overcompressibility_report(sol):
        assert lo >= -1e-9 and hi >= -1e-9
    assert delta_contact_slope_error(sol) <= 1e-12
    # planarity: front positions stay strictly ordered within each epoch
    for ep in sol.epochs:
        t1 = ep.t1 if math.isfinite(ep.t1) else max(2.0 * ep.t0, 1.0) + 5.0
        for t in np.linspace(ep.t0, t1, 7)[1:-1]:
            pos = [sol.fronts[f].geom.pos(t) for f in ep.fronts]
            assert all(a < b + 1e-12 for a, b in zip(pos, pos[1:]))


def _random_scenario(case, rng):
    v = lambda: rng.uniform(0.2, 2.5)
    a2 = rng.uniform(0.3, 2.0)
    if case == 1:
        u2 = rng.uniform(-3, 3)
        u1 = u2 + 2.0 + rng.uniform(0.0, 2.0)
        u0 = u1 + 2.0 + rng.uniform(0.0, 2.0)
        off = -a2 if rng.random() < 0.5 else a2
        return sc(u0, u1, u2, off, (v(), v(), v()))
    if case == 2:
        u2 = rng.uniform(-3, 3)
        u1 = u2 + rng.uniform(0.1, 1.9)
        u0 = u1 + 2.0 + rng.uniform(0.0, 2.0)
        return sc(u0, u1, u2, -a2, (v(), v(), v()))
    if case == 3:
        u2 = rng.uniform(-3, 3)
        u1 = u2 + 2.0 + rng.uniform(0.0, 2.0)
        u0 = u1 + rng.uniform(0.1, 1.9)
        return sc(u0, u1, u2, +a2, (v(), v(), v()))
    if case == 4:
        u1 = rng.uniform(-3, 3)
        u0 = u1 + 2.0 + rng.uniform(0.1, 2.0)
        u2 = u1 + rng.uniform(0.05, 4.0)
        return sc(u0, u1, u2, -a2, (v(), v(), v()))
    u2 = rng.uniform(-3, 3)
    u1 = u2 + 2.0 + rng.uniform(0.1, 2.0)
    u0 = u2 + rng.uniform(-2.0, min(1.95, u1 - u2 - 0.05))
    return sc(u0, u1, u2, +a2, (v(), v(), v()))


@pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
def test_random_scenarios_terminate(case):
    rng = np.random.default_rng(100 + case)
    for k in range(120):
        scenario = _random_scenario(case, rng)
        sol = run(scenario)
        assert len(sol.events) <= 8
        for fid, lo, hi in overcompressibility_report(sol, samples=40):
            assert lo >= -1e-9 and hi >= -1e-9
        if k % 30 == 0:
            ev_t = sol.events[-1].t if sol.events else 0.5
            phi = TestFunction(ev_t * 0.8 + 0.05, 0.0, ev_t * 0.4 + 0.05, 2.0)
            assert max(map(abs, weak_residual(sol, phi))) <= 1e-6


def test_fan_spanning_2000_tracks_without_overflow():
    # crossing times near e^2000 and a fan-side trace v e^(u - u_ref) that
    # spans e^-2000 must neither overflow nor be mistaken for events
    sol = run(sc(-1000, 1000, 0, +1.0))
    assert [e.rule for e in sol.events] == ["DeltaEntersFan",
                                            "BreakdownBifurcation"]
    assert sol.events[1].t == pytest.approx(500.0, rel=1e-14)
    for fid, lo, hi in overcompressibility_report(sol):
        assert lo > 0.0 and hi > 0.0
    # v = e^u changes on the scale t of the fan, which is 2000 t wide in u
    t_hi = min(sol.t_max_computed, 5.0)
    assert mass_balance(sol, auto_window(sol, t_hi),
                        np.linspace(1e-3, t_hi, 11)) <= 1e-8


def _u_grid():
    # every valid draw of half-integer u in [-2, 4]^3 at offsets -1 and +1
    grid = [k / 2.0 for k in range(-4, 9)]
    for off in (-1.0, 1.0):
        for u in itertools.product(grid, repeat=3):
            scenario = sc(*u, off, v=(1.0, 0.8, 1.2))
            try:
                validate_scenario(scenario)
            except ScenarioError:
                continue
            yield scenario


def _delta_gap(scenario):
    # the u-gap of the delta pair, at least 2
    if scenario.offset < 0.0:
        return scenario.left.u - scenario.middle.u
    return scenario.middle.u - scenario.right.u


# per-rule event counts of the u-grid's solutions
U_GRID_RULES = {
    "BreakdownBifurcation": 600, "ContactContinuation": 300,
    "DeltaCrossesContact": 674, "DeltaEntersFan": 696, "FrontExitsFan": 510,
    "MergeDeltas": 70, "ShockHitsDelta": 170,
}


def test_u_grid_solves_every_draw():
    # at an exact u-gap of 2, where overcompressibility becomes an equality,
    # the delta breaks down as it enters the fan
    sols = [run(scenario) for scenario in _u_grid()]
    assert len(sols) == 1080
    assert Counter(e.rule for sol in sols for e in sol.events) == U_GRID_RULES


def test_gap_2_breakdown_at_fan_entry_matches_fan_oracle():
    # the N-step oracle, which uses no tracker, bifurcates at its first fan
    # step, a distance O(1/N) past the tracker's breakdown at fan entry
    errs = {100: 0.0, 400: 0.0, 1600: 0.0}
    for scenario in _u_grid():
        if validate_scenario(scenario)[0] not in (4, 5) or _delta_gap(
                scenario) != 2.0:
            continue
        sol = run(scenario)
        bd = next(e for e in sol.events if e.rule == "BreakdownBifurcation")
        assert {sol.fronts[f].kind for f in bd.incoming} == {
            FrontKind.DELTA_SHOCK, FrontKind.FAN_EDGE}
        for n in errs:
            orun = fan_approx_oracle(scenario, n)
            assert orun.end_kind == "bifurcation"
            errs[n] = max(errs[n], abs(orun.t_end - bd.t) / bd.t)
    assert all(err <= 4.0 / n for n, err in errs.items()), errs


def test_far_edge_tie_exits_the_fan():
    # u2 = u0 - 2 is sub-case 4(i): the delta's u-gap reaches 2 exactly as
    # it reaches the far fan edge, and it exits there as a delta shock
    sol = run(sc(4, 1, 2, -1.0))
    assert [e.rule for e in sol.events] == [
        "DeltaCrossesContact", "DeltaEntersFan", "FrontExitsFan"]
    (out,) = sol.events[-1].outgoing
    assert sol.fronts[out].kind is FrontKind.DELTA_SHOCK


@pytest.mark.parametrize("states, offset, rules", [
    # the delta crosses the contact 2.7e-13 before it meets the fan edge
    pytest.param(((735460.6, -127.5), (-9.04e-4, 0.0), (-1.88e-5, 2979.8)),
                 -0.0363, ["DeltaCrossesContact", "DeltaEntersFan",
                           "FrontExitsFan"], id="close-events"),
    # the breakdown pair leaves its birth point tangent, a double root of
    # the line-sqrt quadratic whose terms cancel from 5.8e11
    pytest.param(((-4910.04, -1276.95), (-6359.79, 0.0),
                  (-4910.47, 3045671.5)),
                 -162259.7, ["DeltaCrossesContact", "DeltaEntersFan",
                             "BreakdownBifurcation", "FrontExitsFan"],
                 id="tangent-birth"),
])
def test_large_magnitude_event_sequences(states, offset, rules):
    sol = run(Scenario(*(State(*s) for s in states), offset))
    assert [e.rule for e in sol.events] == rules
    for fid, lo, hi in overcompressibility_report(sol):
        assert lo >= 0.0 and hi >= 0.0
    t_hi = max(2.0 * sol.events[-1].t, 1.0)
    window = auto_window(sol, t_hi)
    ts = np.linspace(1e-3 * t_hi, t_hi, 11)
    mass = max(abs(_mass_at(sol, t, *window)) for t in ts)
    assert mass_balance(sol, window, ts) <= 1e-12 * mass


def _rules(sol):
    return [e.rule for e in sol.events]


@pytest.mark.xfail(strict=True, raises=TrackingError, reason=(
    "ROADMAP item 1: the singular marker band core._MARKER_TOL * (1 + |x|) "
    "is absolute, so at this scale the fan exit falls inside it "
    "(w-trace inf does not match v*)"))
@pytest.mark.parametrize("name", ["case4iic", "case5_bif_mid"])
def test_scaled_scenario_keeps_its_rules(name):
    # (t, x) -> (lam t, lam x) maps the solution onto itself
    sc = BATTERY[name]
    scaled = replace(sc, offset=sc.offset * 1e-13, t_max=sc.t_max * 1e-13)
    assert _rules(run(scaled)) == _rules(run(sc))


@pytest.mark.xfail(strict=True, raises=TrackingError, reason=(
    "ROADMAP item 1: the fan-exit w-trace check's 1e-10 relative bound does "
    "not allow for rounding of terms of size 2^20 "
    "(w-trace 7.000000001164153 does not match v* 7.0)"))
def test_boosted_scenario_keeps_its_rules():
    # u -> u + c, x -> x + c t maps the solution onto itself; a dyadic c
    # keeps an exact u-gap of 2 exact
    sc, c = BATTERY["case4iic"], 2.0 ** 20
    boosted = replace(sc, **{side: State(getattr(sc, side).u + c, getattr(sc, side).v)
                             for side in ("left", "middle", "right")})
    assert _rules(run(boosted)) == _rules(run(sc))


def test_overflowing_crossing_is_no_event():
    # a contact and a fan edge would cross at t = 3.46e307, where x
    # overflows to -inf
    sol = run(Scenario(State(-683.167488598586, 0.00022070735544151807),
                       State(508679.4833689168, 0.0),
                       State(0.29015314025339817, -568.4945003878698),
                       27749.495519258642))
    assert [e.rule for e in sol.events] == ["DeltaEntersFan",
                                            "BreakdownBifurcation"]
    for fid, lo, hi in overcompressibility_report(sol):
        assert lo > 0.0 and hi > 0.0


def _magnitude(rng):
    return float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 6.0))


def test_magnitude_fuzz_keeps_fronts_ordered():
    # u, v and the offset over ten decades of either sign (v = 0 with
    # probability 0.2): every draw ends in a ScenarioError that names the
    # violated inequality, or in a solution whose fronts keep their order
    # inside each epoch (checked at its midpoint; the last one at 2 t0 + 1)
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(400):
        u = [_magnitude(rng) for _ in range(3)]
        v = [0.0 if rng.random() < 0.2 else _magnitude(rng) for _ in range(3)]
        try:
            sol = run(sc(*u, _magnitude(rng), v))
        except ScenarioError as exc:
            assert "violated" in str(exc) or "required" in str(exc)
            continue
        solved += 1
        for ep in sol.epochs:
            t = (0.5 * (ep.t0 + ep.t1) if math.isfinite(ep.t1)
                 else 2.0 * ep.t0 + 1.0)
            pos = [float(sol.fronts[f].geom.pos(t)) for f in ep.fronts]
            assert all(a <= b + 1e-12 * (1.0 + abs(b))
                       for a, b in zip(pos, pos[1:])), (u, v, ep.t0)
    assert solved == 164


def _edit_later_fans(edit):
    # the scenario's own fans at t = 0 stay as they are
    real = interact.solve_grp

    def patched(*args):
        fan = real(*args)
        return edit(fan) if fan.origin.t > 0.0 else fan
    return patched


def _delta_past_left_limit(fan):
    # the fan's straight delta, half a unit steeper than u_L - 1 allows
    (delta,) = fan.fronts
    u_left = fan.regions[0][0].value
    return replace(fan, fronts=(replace(delta, geom=Line(
        fan.origin.t, fan.origin.x, u_left - 1.0 + 0.5)),))


def _breakdown_later(curve, after):
    return 2.0 * breakdown_time(curve, after)


def _not_constant(region):
    raise ValueError(f"region {region.rid} is not constant")


@pytest.mark.parametrize("name, target, attr, value, message", [
    ("case1", interact, "solve_grp", _edit_later_fans(
        lambda fan: replace(fan, case=WaveCase.SHOCK_CONTACT)),
     "without the u-gap >= 2"),
    ("case2", interact, "solve_grp", _edit_later_fans(
        lambda fan: replace(fan, fronts=(replace(
            fan.fronts[0], geom=Line(fan.origin.t, fan.origin.x, 9.0)),))),
     "delta speed changed across a contact"),
    ("case4iib", WStraightV, "singular_left", False,
     "unexpected exit orientation"),
    ("case4iib", interact, "v_star", lambda *a: 1.01 * v_star(*a),
     "does not match v"),
    ("case1", Region, "const_state", _not_constant, "is not constant"),
    ("case5_bif_left", Region, "const_state", _not_constant,
     "is not constant"),
    # the spawn check evaluates the margins once: at birth for a straight
    # delta between constant states, at the end of the fan passage for a
    # fan-interior one
    ("case1", interact, "solve_grp", _edit_later_fans(_delta_past_left_limit),
     "non-overcompressive delta shock spawned"),
    ("case4iia", interact, "breakdown_time", _breakdown_later,
     "non-overcompressive delta shock spawned"),
])
def test_riemann_resolver_fault_checks(monkeypatch, name, target, attr, value,
                                       message):
    monkeypatch.setattr(target, attr, value)
    with pytest.raises(TrackingError, match=message):
        run(BATTERY[name])


def test_fan_interior_spawn_margins_never_shrink():
    # the spawn check decides a fan-interior delta at the end of its fan
    # passage alone, which holds only if its margins u_R - c' and
    # c' - (u_L - 1) are nondecreasing over (birth, t1]
    sols = itertools.chain((run(s) for s in BATTERY.values()),
                           (run(s) for s in _u_grid()))
    checked = 0
    for sol in sols:
        for f in sol.fronts.values():
            if f.kind is not FrontKind.DELTA_SHOCK or not isinstance(
                    f.geom, SqrtCurve):
                continue
            checked += 1
            ts = np.linspace(f.birth, f.strength.t1, 1001)[1:]
            u_left, u_right = f.u_traces(ts)
            cdot = np.asarray(f.geom.slope(ts))
            for margin in (u_right - cdot, cdot - (u_left - 1.0)):
                rounding = 4.0 * np.finfo(float).eps * (1.0 + np.abs(margin))
                assert np.all(np.diff(margin) >= -rounding[1:])
    assert checked == 703


def test_four_state_draws_end_in_a_solution_or_a_tracking_error():
    # rules for four-state data are incomplete: a draw may stop, but only
    # with a TrackingError, where a curve beyond a fan, or two curves with
    # no crossing rule, once raised AttributeError and TypeError
    ends = Counter()
    for states, origins in four_state_draws(400):
        try:
            ends[type(track(states, origins))] += 1
        except TrackingError as exc:
            text = str(exc)
            end = next((e for e in ("not a straight fan edge", "no crossing rule")
                        if e in text), TrackingError)
            if end is not TrackingError:    # naming each front and its kind
                named = re.findall(r"front \d+ \([a-z_]+, [A-Za-z]+\)", text)
                assert len(named) >= 2
            ends[end] += 1
    assert set(ends) == {Solution, TrackingError, "not a straight fan edge",
                         "no crossing rule"}
    assert ends[Solution] >= 100
