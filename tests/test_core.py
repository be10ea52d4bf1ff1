import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltashock import core
from deltashock.battery import BATTERY
from deltashock.core import (
    AffineStrength,
    ConstantStrength,
    ConstLaw,
    FanExpV,
    FanU,
    Front,
    FrontKind,
    Line,
    LogCurve,
    Point,
    Scenario,
    SqrtCurve,
    State,
    TabulatedStrength,
    WCurvedV,
    WStraightV,
    WTildeCurvedV,
    _HALLEY_MAX,
    _TAIL_COEF,
    _curved_s,
    _curved_value,
    _expm1_tail,
    _halley,
    split_weight,
)
from deltashock.interact import run

EPS = np.finfo(float).eps


# fans spanning u in [-1000, 1000], entered at either edge; at the left
# edge the fan-side trace v_ref e^(u - u_ref) starts out underflowed
EXTREME = (Scenario(State(-1000, 1), State(1000, 1), State(0, 1), offset=1.0),
           Scenario(State(1002, 1), State(-1000, 1), State(1000, 1), offset=-1.0))


def fan_strengths():
    """The fan-crossing delta laws of the battery and of EXTREME."""
    sols = [run(sc) for sc in (*BATTERY.values(), *EXTREME)]
    laws = [f.strength for sol in sols for f in sol.fronts.values()
            if isinstance(f.strength, TabulatedStrength)]
    assert len(laws) == 9
    return laws


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
    # the closed form against 40-point Gauss-Legendre of its own rate, the
    # deficit c'[v] - [(u-1)v], on panels graded toward entry, where the
    # rate of the EXTREME laws falls from 1000 to 3 within 0.01
    xg, wg = np.polynomial.legendre.leggauss(40)
    for law in fan_strengths():
        ts = law.t0 + (law.t1 - law.t0) * np.concatenate(
            ([0.0], np.geomspace(1e-9, 1.0, 61)))
        a, b = ts[:-1, None], ts[1:, None]
        nodes = 0.5 * (a + b) + 0.5 * (b - a) * xg
        rates = law.rate(nodes)
        panels = 0.5 * (ts[1:] - ts[:-1]) * (rates @ wg)
        ref = law.gamma0 + np.concatenate(([0.0], np.cumsum(panels)))
        scale = abs(law.gamma0) + np.sum(np.abs(rates) @ wg * 0.5
                                         * (ts[1:] - ts[:-1]))
        # the fan-side exponent u_k + K/sqrt(y) - u_ref rounds relative to
        # its terms
        tol = 4.0 * EPS * (1.0 + abs(law.curve.u_k) + abs(law.fan_v.u_ref))
        assert np.max(np.abs(law(ts) - ref)) <= tol * scale
        assert law(law.t0) == law.gamma0


def test_tabulated_strength_independent_of_batch():
    # a time's strength has the same bits whether queried alone or in a batch
    for law in fan_strengths():
        ts = np.linspace(law.t0, law.t1, 1001)
        assert np.array_equal(law(ts), [law(float(t)) for t in ts])
        assert np.array_equal(law(ts[::7]), law(ts)[::7])
        assert np.array_equal(law.rate(ts[::7]), law.rate(ts)[::7])


_MAG = st.floats(-1e6, 1e6)


def _float_path_matches(f, *args):
    """f on each float of ``args`` (equal-length lists) against f on them as
    arrays: a Python float with the array's bits, and no exception where the
    array path returns a value.  A NaN need only be NaN: IEEE 754 leaves the
    sign and payload of a NaN result open, and they follow operand order."""
    with np.errstate(all="ignore"):
        whole = np.asarray(f(*(np.array(a) for a in args)), dtype=float)
        each = [f(*point) for point in zip(*args)]
    assert all(type(y) is float for y in each)
    each, nan = np.array(each), np.isnan(whole)
    assert np.array_equal(np.isnan(each), nan)
    assert each[~nan].tobytes() == whole[~nan].tobytes()


# offsets from a singular locus, relative to 1 + |locus|: on it, inside
# the 1e-12 marker band, just outside it, and well past it
_BAND = st.sampled_from((0.0, -0.0, -1e-13, 1e-13, 5e-13, 1e-12, 2e-12, 1e-11))


@settings(max_examples=300, deadline=None)
@given(tc=_MAG, xc=_MAG, u_k=_MAG, K=_MAG, C=_MAG, v_ref=_MAG, u_ref=_MAG,
       v_k=_MAG, gamma=_MAG, sigma=st.sampled_from((-1.0, 1.0)),
       y0=st.floats(0.0, 1e6), ys=st.lists(_MAG, min_size=1, max_size=12),
       xs=st.lists(_MAG, min_size=14, max_size=14),
       ws=st.lists(st.floats(-50.0, 50.0), min_size=14, max_size=14),
       B=st.floats(1e-3, 1e3),
       rel=st.lists(st.one_of(_BAND, st.floats(-1.0, 10.0)), min_size=14,
                    max_size=14))
def test_float_path_matches_array_path(tc, xc, u_k, K, C, v_ref, u_ref, v_k,
                                       gamma, sigma, y0, ys, xs, ws, B, rel):
    # times from the fan center tc, the birth t0 = tc + y0 among them, and
    # times before tc, where sqrt and log leave their domain; exp also sees
    # moderate arguments: the point laws at x where the fan's u - u_ref is
    # w, and a fan-crossing strength with K and u_k - u_ref of size w
    t0 = tc + y0
    ts = [tc, t0] + [tc + y for y in ys]
    xs = xs[:len(ts)] + [xc + (u_ref + w) * (t - tc) for w, t in zip(ws, ts)]
    sq = SqrtCurve(u_k, K, tc, xc)
    fan_u, fan_v = FanU(tc, xc), FanExpV(v_ref, u_ref, tc, xc)
    strengths = (ConstantStrength(gamma), AffineStrength(v_k, gamma, t0),
                 TabulatedStrength(sq, fan_v, v_k, sigma, t0, t0 + 1.0, gamma),
                 TabulatedStrength(SqrtCurve(u_k, ws[0], tc, xc),
                                   FanExpV(v_ref, u_k + ws[1], tc, xc),
                                   v_k, sigma, t0, t0 + 1.0, gamma))
    for f in (*(g.pos for g in (Line(t0, xc, u_k), sq, LogCurve(C, tc, xc))),
              *(g.slope for g in (Line(t0, xc, u_k), sq, LogCurve(C, tc, xc))),
              *strengths, *(law.rate for law in strengths)):
        _float_path_matches(f, ts)
    for law in (ConstLaw(v_k), fan_u, fan_v):
        _float_path_matches(law, xs, ts + ts)
    _float_path_matches(fan_v.of_u, ws)
    _float_path_matches(split_weight, xs[:len(ts)], ys + [u_k, v_k], ts)
    for geom, u_laws in ((sq, (ConstLaw(u_ref), fan_u)),
                         (Line(t0, xc, K), (fan_u, ConstLaw(u_k)))):
        front = Front(0, FrontKind.DELTA_SHOCK, geom, 0, 1, strengths[2], u_laws)
        for k in range(2):
            _float_path_matches(lambda t: front.u_traces(t)[k], ts)
        for k in range(3):
            _float_path_matches(lambda t: front.atom(t)[k], ts)
    # the post-breakdown profiles, from before the breakdown time B^2 on,
    # at and beside their singular locus; their root, with guesses of
    # either side of it and g of any sign
    tw = [B * B * (0.5 + abs(w) / 10.0) for w in ws]
    for law in (WStraightV(B, u_k, v_ref, u_ref, xc), WCurvedV(B, v_ref, u_ref),
                WTildeCurvedV(ws[0], B, v_ref, ws[1])):
        with np.errstate(all="ignore"):
            locus = [law.singular_locus(t) for t in tw]
        _float_path_matches(law.singular_locus, tw)
        xw = [c + r * (1.0 + abs(c)) for c, r in zip(locus, rel)]
        _float_path_matches(law, xw, tw)
        _float_path_matches(law.from_distance, [r * t for r, t in zip(rel, tw)], tw)
        # the quadrature coordinate: q of a distance, and (d, dd/dq, v) of a q
        # from 0 (the locus) to past the shock, and below 0
        _float_path_matches(law.coord, [r * t for r, t in zip(rel, tw)], tw)
        for k in range(3):
            _float_path_matches(lambda q, t: law.from_coord(q, t)[k],
                                [r * B for r in rel], tw)
    _float_path_matches(lambda g0, t, s_up: _curved_value(g0, t, B, v_ref, s_up),
                        [r * (1.0 + abs(w)) for r, w in zip(rel, ws)], tw,
                        [math.sqrt(t) - B for t in tw])
    _float_path_matches(lambda L, g: _halley(L, g, sigma), [w / 10.0 for w in ws],
                        [r * abs(w) for r, w in zip(rel, ws)])


@settings(max_examples=200, deadline=None)
@given(tc=_MAG, xc=_MAG, v_ref=_MAG, u_ref=_MAG,
       ts=st.lists(_MAG, min_size=1, max_size=12),
       xs=st.lists(_MAG, min_size=12, max_size=12))
def test_fan_v_of_u_is_the_point_law(tc, xc, v_ref, u_ref, ts, xs):
    # a fan's v from its u has the point law's bits, on floats and arrays
    u_law, v_law = FanU(tc, xc), FanExpV(v_ref, u_ref, tc, xc)
    xs = xs[:len(ts)]
    with np.errstate(all="ignore"):
        for x, t in [*zip(xs, ts), (np.array(xs), np.array(ts))]:
            got = np.asarray(v_law.of_u(u_law(x, t)))
            assert got.tobytes() == np.asarray(v_law(x, t)).tobytes()


def test_curved_root_matches_mpmath():
    # w - ln w = 1 + g0/2 with w = B/(B + s) in (0, 1]: w = -W0(-e^-(1+g0/2));
    # the problem's own condition number grows like g0/2
    mpmath.mp.dps = 60
    g0 = np.concatenate([np.exp(-np.arange(1.0, 41.0)),
                         np.logspace(-12.0, 3.0, 151)])
    B = 1.7
    s, bad = _curved_s(g0, B, np.inf)
    assert not bad.any()
    for g, got in zip(g0, s):
        w = -mpmath.lambertw(-mpmath.exp(-(1 + mpmath.mpf(g) / 2))).real
        ref = B * (1 / w - 1)
        assert abs(got - ref) <= 4.0 * EPS * (1.0 + g / 2.0) * ref
    # at and past the contact, and clamped at the shock
    s, bad = _curved_s(np.array([0.0, -1.0, 5.0]), B, np.array([1.0, 1.0, 0.25]))
    assert bad.tolist() == [True, True, False] and s[2] == pytest.approx(0.25)


def _expm1_tail_ref(L):
    """``_expm1_tail`` as an out-of-place loop, the reference for its bits."""
    small = np.abs(L) < 1.0
    Ls = np.where(small, L, 0.0)
    series = np.zeros_like(Ls)
    for c in _TAIL_COEF:
        series = series * Ls + c
    return np.where(small, series * Ls * Ls, np.expm1(L) - L)


def _halley_ref(L, g, sigma):
    """``_halley`` as an out-of-place loop over the whole batch, a converged
    point held by np.where: the reference for its bits."""
    L = np.array(L, dtype=float)
    done = np.zeros(L.shape, dtype=bool)
    for _ in range(_HALLEY_MAX):
        em1 = np.expm1(L)
        f = em1 + sigma * L - g
        d1 = em1 + (1.0 + sigma)
        step = 2.0 * f * d1 / (2.0 * d1 * d1 - f * (em1 + 1.0))
        L -= np.where(done, 0.0, step)
        done |= np.abs(step) <= 2.0 * EPS * (1.0 + np.abs(L))
        if done.all():
            break
    if sigma < 0.0:
        L -= (_expm1_tail_ref(L) - g) / np.expm1(L)
    return float(L) if L.ndim == 0 else L


def _same_bits(got, ref):
    assert type(got) is type(ref)
    assert np.shape(got) == np.shape(ref)
    assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_halley_matches_reference_loop(monkeypatch):
    rng = np.random.default_rng(2024)
    g = np.concatenate([np.exp(-np.linspace(0.0, 700.0, 300)),
                        np.logspace(-12.0, 300.0, 200), rng.uniform(0.0, 3.0, 200)])
    p = np.sqrt(2.0 * np.minimum(g, 1.0))
    c = 1.0 + g
    with np.errstate(all="ignore"):
        for sigma, guesses in (
                # the W_0 and W_-1 sides of u - ln u = 1 + g, then v + ln v = 1 + g
                (-1.0, (np.where(g <= 1.0, -p - p * p / 6.0, np.exp(-c) - c),
                        np.where(g <= 1.0, p - p * p / 6.0, np.log(c + np.log(c))))),
                (1.0, (np.log(1.0 + g - np.log1p(g)), 0.5 * g))):
            for L0 in guesses:
                ref = _halley_ref(L0, g, sigma)
                _same_bits(_halley(L0, g, sigma), ref)
                # mixed batches: points that start on their root converge at
                # once, the rest later, and each keeps the bits it has alone
                mixed = np.where(rng.random(g.size) < 0.5, ref, L0)
                _same_bits(_halley(mixed, g, sigma), _halley_ref(mixed, g, sigma))
                for k in rng.choice(g.size, 40, replace=False):
                    one = (float(mixed[k]), float(g[k]), sigma)
                    _same_bits(_halley(*one), _halley_ref(*one))
                    _same_bits(_halley(mixed[k:k + 1], g[k:k + 1], sigma),
                               _halley_ref(mixed[k:k + 1], g[k:k + 1], sigma))
                # a batch of shape (2, n) against a scalar g
                _same_bits(_halley(mixed[:40].reshape(2, 20), 0.5, sigma),
                           _halley_ref(mixed[:40].reshape(2, 20), 0.5, sigma))
        L = np.concatenate([rng.uniform(-3.0, 3.0, 300), [0.0, -0.0, 1.0, -1.0,
                                                          math.inf, -math.inf, math.nan]])
        _same_bits(_expm1_tail(L), _expm1_tail_ref(L))
        for x in L.tolist():
            _same_bits(_expm1_tail(x), float(_expm1_tail_ref(np.array(x))))
        # the back-trace root through both: points at or past the contact
        # (g0 <= 0) and roots clamped at the shock (s_upper)
        g0 = np.concatenate([[0.0, -0.0, -1.0, -math.inf], 2.0 * g])
        s_upper = rng.uniform(0.0, 5.0, g0.size)
        got = [_curved_s(g0, 1.7, s_up) for s_up in (np.inf, s_upper, 0.25)]
        got += [_curved_s(float(a), 1.7, 0.25) for a in g0[:50]]
        monkeypatch.setattr(core, "_halley", _halley_ref)
        ref = [_curved_s(g0, 1.7, s_up) for s_up in (np.inf, s_upper, 0.25)]
        ref += [_curved_s(float(a), 1.7, 0.25) for a in g0[:50]]
    assert (got[1][0] == s_upper).any() and got[0][1].any()
    assert all(type(s) is float and type(bad) is bool for s, bad in got[3:])
    for (s, bad), (s_ref, bad_ref) in zip(got, ref):
        assert np.asarray(s).tobytes() == np.asarray(s_ref).tobytes()
        assert np.asarray(bad).tobytes() == np.asarray(bad_ref).tobytes()


def test_curved_profile_independent_of_batch():
    law = WCurvedV(math.sqrt(2.0), 1.0, 0.0)
    t = np.full(501, 6.0)
    x = np.linspace(float(law.singular_locus(6.0)), 6.0 * math.sqrt(2.0) + 2.0, 501)
    v = law(x, t)
    assert np.array_equal(v, [law(float(a), float(b)) for a, b in zip(x, t)])


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
