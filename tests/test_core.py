import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deltashock.core import (
    AffineStrength,
    ConstantStrength,
    Line,
    LogCurve,
    Point,
    SqrtCurve,
    State,
    TabulatedStrength,
    WStraightV,
    eigenvalues,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_eigenvalues_examples():
    assert eigenvalues(State(2, 5)) == (1, 2)
    assert eigenvalues(State(0, 0)) == (-1, 0)
    assert eigenvalues(State(4, 1)) == (3, 4)


@given(u=finite, v=finite)
def test_strict_hyperbolicity(u, v):
    lam1, lam2 = eigenvalues(State(u, v))
    assert lam1 < lam2


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        State(math.inf, 0.0)
    with pytest.raises(ValueError):
        Point(-0.1, 0.0)


def test_line_geometry():
    ln = Line(0.5, 2.0, 3.0)
    assert ln.pos(0.5) == 2.0
    assert ln.pos(1.5) == 5.0
    assert ln.slope(7.0) == 3.0


def test_sqrt_curve_slope_and_continuity():
    c = SqrtCurve(4.0, -math.sqrt(6.0))
    ts = np.linspace(0.7, 50.0, 500)
    xs = c.pos(ts)
    # continuity: small steps give small increments
    assert np.all(np.abs(np.diff(xs)) < 10 * (ts[1] - ts[0]) * 5)
    # |K|/(2 sqrt(t)) shrinks, so the slope is monotone toward u_k
    slopes = c.slope(ts)
    assert np.all(np.diff(slopes) > 0)  # K < 0: slope increases toward 4
    assert np.allclose(slopes, 4.0 - math.sqrt(6.0) / (2.0 * np.sqrt(ts)))


def test_log_curve_matches_closed_form():
    c = LogCurve(2.0 + math.log(2.0))
    ts = np.linspace(0.5, 20.0, 200)
    assert np.allclose(c.pos(ts), ts * (2.0 + math.log(2.0) - np.log(ts)))
    assert np.allclose(c.slope(ts), 2.0 + math.log(2.0) - np.log(ts) - 1.0)


def test_affine_and_constant_strength():
    a = AffineStrength(3.0, 2.0, 0.5)
    assert a(0.5) == 2.0
    assert a(1.5) == 5.0
    assert a.rate(9.0) == 3.0
    c = ConstantStrength(4.0)
    assert c(17.0) == 4.0
    assert c.rate(17.0) == 0.0


def test_tabulated_strength_matches_reference_quadrature():
    rate = lambda t: np.sin(3.0 * t) + 0.25 * t
    law = TabulatedStrength(rate, 0.5, 2.5, gamma0=1.0)
    # independent reference: antiderivative in closed form
    ref = lambda t: 1.0 + (-(np.cos(3*t) - np.cos(1.5)) / 3.0
                           + 0.125 * (t*t - 0.25))
    assert np.all(np.diff(law.edges) > 0)
    # dyadic midpoints between tabulated nodes
    mids = 0.5 * (law.edges[1:] + law.edges[:-1])
    err = np.abs(law(mids) - ref(mids))
    assert np.max(err) <= 1e-9
    ts = np.linspace(0.5, 2.5, 777)
    assert np.max(np.abs(law(ts) - ref(ts))) <= 1e-9
    with pytest.raises(ValueError):
        law(3.0)


def test_tabulated_strength_independent_of_batch():
    # a time's strength has the same bits whether queried alone or in a batch
    law = TabulatedStrength(lambda t: np.exp(-t) * np.cos(5.0 * t), 0.3, 4.0,
                            gamma0=2.0)
    ts = np.linspace(0.3, 4.0, 1001)
    assert np.array_equal(law(ts), [law(float(t)) for t in ts])
    assert np.array_equal(law(ts[::7]), law(ts)[::7])


def test_w_straight_profile_value_and_blowup():
    # fan (v2=1, u2=3), u0=4, B^2 = 3/2: at distance B^2 past the contact
    # the back-traced time is 4 B^2 and the value is 3
    B2 = 1.5
    law = WStraightV(math.sqrt(B2), 4.0, 1.0, 3.0, y_edge=0.0)
    assert law.from_distance(B2, None) == pytest.approx(3.0, abs=1e-14)
    # blow-up marker at the contact itself
    assert math.isinf(law(0.0, 0.0))


def test_strip_integral_scales_like_sqrt_eps():
    B2 = 1.5
    law = WStraightV(math.sqrt(B2), 4.0, 1.0, 3.0, y_edge=0.0)

    def strip_integral(eps, n=20000):
        d = (np.arange(n) + 0.5) / n * eps
        return np.mean(law.from_distance(d, None)) * eps

    i1, i2 = strip_integral(1e-4), strip_integral(4e-4)
    assert i2 / i1 == pytest.approx(2.0, rel=0.02)  # halving exponent -1/2
