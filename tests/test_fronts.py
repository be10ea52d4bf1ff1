import math

import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock.core import (
    FanExpV,
    Line,
    LogCurve,
    Point,
    SqrtCurve,
    TabulatedStrength,
)
from deltashock.fronts import (
    breakdown_time,
    characteristic_in_fan,
    fan_delta_trajectory,
    intersect,
    line_crossings,
)
from deltashock.interact import run

ORIGIN = Point(0.0, 0.0)


def test_fan_delta_trajectory_case4():
    c = fan_delta_trajectory(Point(2.0 / 3.0, 2.0 / 3.0), 4.0, ORIGIN)
    assert c.u_k == 4.0
    assert c.K == pytest.approx(-math.sqrt(6.0), abs=1e-14)
    ts = np.linspace(0.7, 4.0, 50)
    assert np.allclose(c.pos(ts), 4.0 * ts - math.sqrt(6.0) * np.sqrt(ts))


def test_fan_delta_trajectory_case5():
    c = fan_delta_trajectory(Point(0.5, 2.0), 0.0, ORIGIN)
    assert c.K == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
    assert c.pos(2.0) == pytest.approx(4.0)


def test_fan_delta_trajectory_stationary():
    c = fan_delta_trajectory(Point(1.0, 3.0), 3.0, ORIGIN)
    assert c.K == 0.0
    assert c.pos(5.0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        fan_delta_trajectory(Point(0.0, 0.0), 1.0, ORIGIN)


def test_trajectory_satisfies_its_ode():
    c = fan_delta_trajectory(Point(2.0 / 3.0, 2.0 / 3.0), 4.0, ORIGIN)
    ts = np.linspace(0.67, 30.0, 1000)
    resid = c.slope(ts) - 0.5 * (c.pos(ts) / ts + c.u_k)
    assert np.max(np.abs(resid)) <= 1e-12


def test_breakdown_time():
    assert breakdown_time(SqrtCurve(4.0, -math.sqrt(6.0)), 0.6) \
        == pytest.approx(1.5, abs=1e-15)
    assert breakdown_time(SqrtCurve(0.0, 2.0 * math.sqrt(2.0)), 0.4) \
        == pytest.approx(2.0, abs=1e-15)
    assert breakdown_time(SqrtCurve(3.0, 0.0), 0.0) is None
    # breakdown before the delta enters the fan does not count
    assert breakdown_time(SqrtCurve(4.0, -math.sqrt(6.0)), 2.0) is None


def test_characteristic_in_fan():
    c = characteristic_in_fan(Point(2.0, 4.0), ORIGIN)
    assert c.C == pytest.approx(2.0 + math.log(2.0))
    ts = np.linspace(1.0, 10.0, 30)
    assert np.allclose(c.pos(ts), ts * (2.0 + math.log(2.0) - np.log(ts)))
    assert c.slope(2.0) == pytest.approx(1.0)  # lambda1 of the fan value u=2
    c0 = characteristic_in_fan(Point(1.0, 0.0), ORIGIN)
    assert np.allclose(c0.pos(ts), -ts * np.log(ts))
    with pytest.raises(ValueError):
        characteristic_in_fan(Point(0.0, 0.0), ORIGIN)


def test_intersect_lines():
    p = intersect(Line(0.0, -1.0, 4.5), Line(0.0, 0.0, 1.5), after=0.0)
    assert (p.t, p.x) == (pytest.approx(1.0 / 3.0), pytest.approx(0.5))
    p = intersect(Line(0.0, -1.0, 2.5), Line(0.0, 0.0, 1.0), after=0.0)
    assert (p.t, p.x) == (pytest.approx(2.0 / 3.0), pytest.approx(2.0 / 3.0))
    assert intersect(Line(0.0, 0.0, 3.0), Line(0.0, -1.0, 3.0), after=0.0) is None
    # a crossing at t = 1e308, where x = 2e308 overflows, is no event
    assert intersect(Line(0.0, 0.0, 2.0), Line(0.0, 1e308, 1.0), after=0.0) is None


def test_intersect_line_sqrt_tangency_is_no_event():
    # the breakdown contact line is tangent to the continued shock curve
    B = math.sqrt(1.5)
    curve = SqrtCurve(4.0, -2.0 * B)
    tangent = Line(1.5, 3.0, 3.0)
    assert intersect(tangent, curve, after=1.5) is None


def test_intersect_line_sqrt_transversal():
    curve = SqrtCurve(4.0, -math.sqrt(6.0))
    edge = Line(0.0, 0.0, 3.5)
    p = intersect(edge, curve, after=0.7)
    assert p.t == pytest.approx(24.0)
    assert p.x == pytest.approx(84.0)


def test_intersect_line_log_closed_form():
    c1 = LogCurve(2.0 + math.log(2.0))
    edge = Line(0.0, 0.0, 1.0)
    p = intersect(edge, c1, after=2.0)
    assert p.t == pytest.approx(2.0 * math.e, rel=1e-12)
    # off the center: a close transversal pair around the curve's maximum
    # x = 1 at t = 1, which a scan over t steps across
    line, curve = Line(0.0, 0.999, 0.0), LogCurve(1.0)
    p1 = intersect(line, curve, after=0.01)
    assert p1.t == pytest.approx(0.955613, abs=1e-6)
    p2 = intersect(curve, line, after=p1.t)
    assert p2.t == pytest.approx(1.045053, abs=1e-6)
    for p in (p1, p2):
        assert curve.pos(p.t) == pytest.approx(0.999, abs=1e-12)
    assert intersect(line, curve, after=p2.t) is None
    # touching the maximum is tangency
    assert intersect(Line(0.0, 1.0, 0.0), curve, after=0.01) is None


def test_intersect_sqrt_log_shared_center():
    # the breakdown pair (delta contact on a characteristic, shock on the
    # continued sqrt curve) is tangent at breakdown and meets nowhere else
    for name in ("case5_bif_left", "case5_bif_mid"):
        sol = run(BATTERY[name])
        bd = next(e for e in sol.events if e.rule == "BreakdownBifurcation")
        contact, shock = (sol.fronts[f].geom for f in bd.outgoing)
        assert isinstance(contact, LogCurve) and isinstance(shock, SqrtCurve)
        assert intersect(contact, shock, after=bd.t * (1.0 + 1e-9)) is None
        assert intersect(shock, contact, after=0.0) is None
    # transversal: two crossings for K > 0, one for K < 0
    for shock, curve, count in ((SqrtCurve(0.0, 2.0 * math.sqrt(2.0)),
                                 LogCurve(3.5), 2),
                                (SqrtCurve(4.0, -math.sqrt(6.0)),
                                 LogCurve(1.0), 1)):
        after, ts = 0.0, []
        while (p := intersect(shock, curve, after)) is not None:
            assert shock.pos(p.t) == pytest.approx(curve.pos(p.t), abs=1e-12,
                                                   rel=1e-12)
            ts.append(p.t)
            after = p.t
        assert len(ts) == count


def test_intersect_unsupported_pairs_raise():
    with pytest.raises(TypeError):
        intersect(SqrtCurve(0.0, 1.0), SqrtCurve(1.0, -1.0), after=0.0)
    with pytest.raises(TypeError):
        intersect(SqrtCurve(0.0, 1.0), LogCurve(1.0, tc=0.5), after=0.0)
    with pytest.raises(TypeError):
        intersect(LogCurve(2.0), LogCurve(1.0), after=0.0)


@pytest.mark.parametrize("geom, X", [
    (Line(0.0, 2.0, -1.5), 0.5),
    (SqrtCurve(4.0, -math.sqrt(6.0)), -0.3),     # two crossings
    (SqrtCurve(0.0, 2.0 * math.sqrt(2.0)), 3.0),
    (LogCurve(1.0), 0.999),                       # close pair
    (LogCurve(2.0 + math.log(2.0)), 4.0),
    (LogCurve(1.0), -2.0),                        # x = X left of the center
    (LogCurve(0.3, tc=0.005, xc=1.0), 1.0),       # x = X through the center
])
def test_line_crossings_match_dense_sampling(geom, X):
    lo, hi = 0.01, 12.0
    ts = np.linspace(lo, hi, 1_000_001)
    f = np.asarray(geom.pos(ts)) - X
    brackets = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    got = line_crossings(Line(0.0, X, 0.0), geom, lo, hi)
    assert len(got) == len(brackets) > 0
    for t, k in zip(got, brackets):
        assert ts[k] <= t <= ts[k + 1]
        assert float(geom.pos(t)) == pytest.approx(X, abs=1e-12, rel=1e-12)
    # the interval is open at both ends
    assert line_crossings(Line(0.0, X, 0.0), geom, got[0], got[-1]) \
        == got[1:-1]


@pytest.mark.parametrize("name", ["case4iia", "case4iib", "case4iic",
                                  "case5_bif_left", "case5_bif_mid"])
def test_w_trace_on_shock_satisfies_v_rankine_hugoniot(name):
    # the singular region behind a bifurcated shock (WStraightV beside the
    # fan, WCurvedV inside it) meets the shock with c'[v] = [(u-1)v], also
    # where its trace blows up like (sqrt(t - tc) - B)^-1 at breakdown
    sol = run(BATTERY[name])
    bd = next(e for e in sol.events if e.rule == "BreakdownBifurcation")
    shock = sol.fronts[bd.outgoing[1]]
    curve = shock.geom
    B = 0.5 * abs(curve.K)
    t_end = min(shock.death, bd.t + 10.0)
    ts = bd.t + (t_end - bd.t) * np.geomspace(1e-4, 1.0, 200)
    x = np.asarray(curve.pos(ts))
    left, right = (sol.regions[r] for r in (shock.left_region, shock.right_region))
    uL, vL, uR, vR = (np.asarray(law(x, ts)) for law in (
        left.u_law, left.v_law, right.u_law, right.v_law))
    cp = np.asarray(curve.slope(ts))
    deficit = cp * (vR - vL) - ((uR - 1.0) * vR - (uL - 1.0) * vL)
    scale = (np.abs(cp) + np.abs(uL) + np.abs(uR) + 1.0) * (np.abs(vL) + np.abs(vR))
    gap = np.sqrt(ts - curve.tc) - B
    # the trace's rounding is amplified by sqrt(y)/gap, up to 1e4 here
    tol = 2.0 * np.finfo(float).eps * np.sqrt(ts - curve.tc) / gap
    assert np.all(np.abs(deficit) <= tol * scale)
    assert np.all(np.abs(vL * gap) <= 4.0 * B * np.max(np.abs(vR)))
    assert abs(vL[0] * gap[0]) >= 0.5 * B * abs(vR[0])


def test_strength_rate_continuous_at_fan_entry():
    sol = run(BATTERY["case4i"])
    enter = next(e for e in sol.events if e.rule == "DeltaEntersFan")
    before = sol.fronts[enter.incoming[0]]
    after = sol.fronts[enter.outgoing[0]]
    t0 = enter.t
    assert abs(float(before.strength.rate(t0)) - float(after.strength.rate(t0))) \
        <= 1e-10


def test_strength_integrate_constant_rate():
    # K = 0: the delta rides the fan's characteristic x = u_k t, the fan-side
    # trace v_ref e^(u_k - u_ref) is constant, and so is the rate
    vf = 2.0 * math.exp(1.5 - 3.0)
    for sigma in (1.0, -1.0):
        law = TabulatedStrength(SqrtCurve(1.5, 0.0), FanExpV(2.0, 3.0), 0.5,
                                sigma, 0.5, 2.0, 1.0)
        assert law.rate(1.3) == pytest.approx(sigma * (vf - 0.5), rel=1e-15)
        assert law(2.0) == pytest.approx(1.0 + 1.5 * sigma * (vf - 0.5),
                                         rel=1e-15)


def test_line_crossings_past_float_range_are_no_event():
    # x = 1 meets x = y (2000 - ln y) at y ~ 1/2000 and y ~ e^2000, and
    # x = sqrt(y) at the same sqrt(y) ~ 1/2000 and e^1000: the late roots
    # are no event
    far, line, sq = LogCurve(2000.0), Line(0.0, 1.0, 0.0), SqrtCurve(0.0, 1.0)
    (t,) = line_crossings(line, far, 0.0, math.inf)
    assert far.pos(t) == pytest.approx(1.0, rel=1e-12)
    assert intersect(line, far, after=t) is None
    p = intersect(sq, far, after=0.0)
    assert sq.pos(p.t) == pytest.approx(far.pos(p.t), rel=1e-12)
    assert intersect(sq, far, after=p.t) is None


def test_w_profile_straight_example():
    sol = run(BATTERY["case4iib"])
    w_reg = next(r for r in sol.regions.values() if r.label == "w-straight")
    # V at distance B^2 past the contact: back-trace to t = 4 B^2 = 6 where
    # the fan trace is u0 - 1 = 3, so V = 3 v2 exp(3 - u2) = 3 exp(-0.5)
    val = w_reg.v_law.from_distance(1.5, None)
    assert val == pytest.approx(3.0 * math.exp(3.0 - 3.5), rel=1e-12)


def test_w_profile_straight_constant_along_characteristics():
    sol = run(BATTERY["case4iib"])
    w_reg = next(r for r in sol.regions.values() if r.label == "w-straight")
    t1, t2 = 2.0, 7.0
    x1 = w_reg.v_law(3.0 + 3.0 * (t1 - 1.5) + 0.8, t1)
    x2 = w_reg.v_law(3.0 + 3.0 * (t2 - 1.5) + 0.8, t2)
    assert x1 == pytest.approx(x2, abs=1e-9)


def test_w_profile_curved_transports_t_weighted_value():
    # conservation form in the fan: w * t is constant along dx/dt = x/t - 1
    sol = run(BATTERY["case5_bif_mid"])
    w_reg = next(r for r in sol.regions.values() if r.label == "w-curved")
    t1 = 3.0
    x1 = 0.5 * (sol.fronts[5].geom.pos(t1) + sol.fronts[6].geom.pos(t1))
    C = x1 / t1 + math.log(t1)
    t2 = 3.8
    x2 = t2 * (C - math.log(t2))
    w1 = w_reg.v_law(x1, t1)
    w2 = w_reg.v_law(x2, t2)
    assert w1 * t1 == pytest.approx(w2 * t2, rel=1e-9)


def test_overcompressibility_sign_change_at_breakdown():
    curve = SqrtCurve(0.0, 2.0 * math.sqrt(2.0))  # case 5 battery geometry
    ts = 2.0
    margin = lambda t: (curve.pos(t) / t - 1.0) - curve.slope(t)
    assert margin(ts * (1 - 1e-10)) > 0 > margin(ts * (1 + 1e-10))
    assert abs(margin(ts)) <= 1e-9


def test_bifurcation_ordering_gap():
    from solution_checks import bifurcation_ordering_gap
    for name in ("case4iia", "case4iib", "case4iic",
                 "case5_bif_left", "case5_bif_mid"):
        gap = bifurcation_ordering_gap(run(BATTERY[name]))
        assert gap is not None and gap > 0.0
