import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deltashock.core import ConstantStrength, ConstLaw, Front, FrontKind, Line, State
from deltashock.interact import fan_solution
from deltashock.riemann import (
    WaveCase,
    classify,
    rh_deficit,
    solve_grp,
    v_star,
)
from deltashock.verify import TestFunction, weak_residual

finite = st.floats(min_value=-20, max_value=20, allow_nan=False)


def test_classify_examples():
    assert classify(0, 1) is WaveCase.RAREFACTION_CONTACT
    assert classify(3, 2) is WaveCase.SHOCK_CONTACT
    assert classify(4, 1) is WaveCase.DELTA_SHOCK
    assert classify(2, 2) is WaveCase.CONSTANT
    # boundary u_l = u_r + 2 belongs to the delta shock branch
    assert classify(3, 1) is WaveCase.DELTA_SHOCK


@given(u_l=finite, u_r=finite)
def test_classify_is_a_partition(u_l, u_r):
    preds = {
        WaveCase.CONSTANT: u_l == u_r,
        WaveCase.RAREFACTION_CONTACT: u_r > u_l,
        WaveCase.SHOCK_CONTACT: u_r < u_l < u_r + 2.0,
        WaveCase.DELTA_SHOCK: u_l >= u_r + 2.0,
    }
    assert sum(preds.values()) == 1
    assert preds[classify(u_l, u_r)]


def test_rh_deficit_examples():
    assert rh_deficit(State(4, 1), State(0, 1), 2.0) == pytest.approx(4.0)
    assert rh_deficit(State(1.3, -2.7), State(1.3, -2.7), 5.0) == 0.0
    assert rh_deficit(State(6, 1), State(3, 1), 4.5) == pytest.approx(3.0)


def test_v_star_examples():
    assert v_star(2, 1, 1) == pytest.approx(3.0)
    assert v_star(5, 5, 7) == pytest.approx(7.0)
    assert v_star(3, 2, 1) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        v_star(4, 2, 1)


def test_v_star_kills_the_deficit():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        u_r = rng.uniform(-10, 10)
        u_l = u_r + rng.uniform(1e-3, 2.0 - 1e-3)
        v_r = rng.uniform(-5, 5)
        vs = v_star(u_l, u_r, v_r)
        s = rh_deficit(State(u_l, vs), State(u_r, v_r), 0.5 * (u_l + u_r))
        assert abs(s) <= 1e-12 * (1.0 + abs(vs) + abs(v_r))


def split(alpha, speed, u_l, u_r):
    """(alpha0, alpha1) of an atom of strength alpha on a front of the given
    speed between constant u_l and u_r, through Front.atom."""
    f = Front(0, FrontKind.DELTA_SHOCK, Line(0.0, 0.0, speed), 0, 1,
              ConstantStrength(alpha), (ConstLaw(u_l), ConstLaw(u_r)))
    a, a0, a1 = f.atom(1.0)
    assert a == alpha
    return float(a0), float(a1)


def test_split_strength_examples():
    a0, a1 = split(2.0, 3.0, 6.0, 0.0)
    assert (a0, a1) == (pytest.approx(4.0 / 3.0), pytest.approx(2.0 / 3.0))
    assert -3.0 * 2.0 + 5.0 * a0 + (-1.0) * a1 == pytest.approx(0.0, abs=1e-12)
    assert split(0.0, 1.0, 4.0, 0.0) == (0.0, 0.0)
    a0, a1 = split(1.0, 3.0, 4.0, 0.0)
    assert (a0, a1) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-15))
    # a contact-riding atom (u_l = u_r) splits evenly by convention
    assert split(1.0, 1.0, 2.0, 2.0) == (0.5, 0.5)


@given(alpha=st.floats(min_value=0, max_value=10),
       u_r=finite,
       gap=st.floats(min_value=2.0, max_value=8.0),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_split_nonnegative_and_delta_prime_identity(alpha, u_r, gap, frac):
    u_l = u_r + gap
    speed = u_r + frac * (u_l - 1.0 - u_r)  # inside the overcompressive range
    a0, a1 = split(alpha, speed, u_l, u_r)
    assert a0 >= -1e-12 and a1 >= -1e-12
    ident = -speed * alpha + (u_l - 1.0) * a0 + (u_r - 1.0) * a1
    assert abs(ident) <= 1e-12 * (1.0 + abs(alpha) * (1 + abs(u_l) + abs(u_r)))


def test_solve_riemann_rarefaction_contact():
    fan = solve_grp(State(0, 1), State(1, math.e), 0.0)
    assert fan.case is WaveCase.RAREFACTION_CONTACT
    kinds = [p.kind for p in fan.fronts]
    assert kinds == [FrontKind.CONTACT, FrontKind.FAN_EDGE, FrontKind.FAN_EDGE]
    assert fan.fronts[0].geom.m == pytest.approx(-1.0)
    # v between the contact and the fan: e * exp(0 - 1) = 1, i.e. no jump
    v_mid = fan.regions[1][1].value
    assert v_mid == pytest.approx(1.0)
    # inside the fan v = e exp(x/t - 1)
    fan_v = fan.regions[2][1]
    assert fan_v(0.5, 1.0) == pytest.approx(math.e * math.exp(0.5 - 1.0))


def test_solve_riemann_delta_shock():
    fan = solve_grp(State(4, 1), State(0, 1), 0.0)
    assert fan.case is WaveCase.DELTA_SHOCK
    (piece,) = fan.fronts
    assert piece.geom.m == pytest.approx(2.0)
    assert piece.strength(1.0) == pytest.approx(4.0)  # alpha(t) = 4 t


def test_solve_riemann_equal_states():
    fan = solve_grp(State(2, 3), State(2, 3), 0.0)
    assert fan.fronts == ()


def test_solve_grp_lemma_fan():
    fan = solve_grp(State(3, 1), State(2, 1), 5.0)
    kinds = [p.kind for p in fan.fronts]
    assert kinds == [FrontKind.DELTA_CONTACT, FrontKind.SHOCK]
    dc, sh = fan.fronts
    assert dc.geom.m == pytest.approx(2.0)
    assert dc.strength(123.0) == pytest.approx(5.0)
    assert fan.regions[1][1].value == pytest.approx(3.0)  # v* = 3
    assert sh.geom.m == pytest.approx(2.5)


def test_solve_grp_delta_with_atom():
    fan = solve_grp(State(4, 1), State(0, 1), 2.0)
    (piece,) = fan.fronts
    assert piece.strength(1.0) == pytest.approx(6.0)  # 4 t + 2


def test_solve_grp_contact_riding_atom():
    fan = solve_grp(State(2, 3), State(2, 3), 1.0)
    (piece,) = fan.fronts
    assert piece.kind is FrontKind.DELTA_CONTACT
    assert piece.geom.m == pytest.approx(1.0)
    assert piece.strength(7.0) == pytest.approx(1.0)


@pytest.mark.parametrize("left,right,gamma", [
    (State(4, 1), State(0, 1), 0.0),
    (State(3, 1), State(2, 1), 5.0),
    (State(0, 1), State(1, math.e), 0.0),
    (State(4, 2), State(0.5, -1.0), 1.5),
    (State(1, 2), State(3, 0.7), 2.0),
])
def test_grp_solutions_pass_weak_residual(left, right, gamma):
    sol = fan_solution(left, right, gamma)
    rng = np.random.default_rng(5)
    for _ in range(25):
        phi = TestFunction(rng.uniform(0.05, 0.6), rng.uniform(-1.5, 1.5),
                           rng.uniform(0.05, 0.6), rng.uniform(0.2, 1.5))
        ru, rv = weak_residual(sol, phi)
        assert max(abs(ru), abs(rv)) <= 1e-6


@given(u_r=finite, gap=st.floats(min_value=2.0, max_value=6.0),
       v_l=finite, v_r=finite,
       gamma=st.floats(min_value=-3, max_value=3))
def test_grp_delta_overcompressive(u_r, gap, v_l, v_r, gamma):
    u_l = u_r + gap
    fan = solve_grp(State(u_l, v_l), State(u_r, v_r), gamma)
    (piece,) = fan.fronts
    c = piece.geom.m
    assert u_r <= c + 1e-12
    assert c <= u_l - 1.0 + 1e-12


def test_continuity_to_initial_data():
    from deltashock.evaluate import sample
    sol = fan_solution(State(4, 1), State(1.5, 2))
    for t in (1e-3, 1e-4):
        xs = np.array([-0.5, 0.5])
        s = sample(sol, t, xs)
        assert np.allclose(s.u_vals, [4, 1.5])
        assert np.allclose(s.v_regular_vals, [1, 2])
