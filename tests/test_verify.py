import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock.core import State
from deltashock.evaluate import atoms_at
from deltashock.interact import fan_solution, run
from deltashock import verify as V


def test_testfunction_derivatives_match_fd():
    phi = V.TestFunction(0.6, -0.3, 0.4, 1.1)
    rng = np.random.default_rng(0)
    t = rng.uniform(0.25, 0.95, 40)
    x = rng.uniform(-1.3, 0.7, 40)
    h = 1e-6
    dt_fd = (phi.value(t + h, x) - phi.value(t - h, x)) / (2 * h)
    dx_fd = (phi.value(t, x + h) - phi.value(t, x - h)) / (2 * h)
    assert np.allclose(phi.dt(t, x), dt_fd, atol=1e-8)
    assert np.allclose(phi.dx(t, x), dx_fd, atol=1e-8)
    assert phi.value(0.6, -0.3) == phi.sup


def test_random_test_functions_deterministic():
    sol = run(BATTERY["case1"])
    a = V.random_test_functions(sol, 10, seed=7)
    b = V.random_test_functions(sol, 10, seed=7)
    assert a == b


def test_constant_solution_zero_residual():
    sol = fan_solution(State(2, 3), State(2, 3))
    phi = V.TestFunction(0.3, 0.1, 0.25, 0.8)
    ru, rv = V.weak_residual(sol, phi)
    assert abs(ru) < 1e-14 and abs(rv) < 1e-14


def test_pure_delta_riemann_residual():
    sol = fan_solution(State(4, 1), State(0, 1))
    for phi in V.random_test_functions(sol, 60, seed=3, t_hi=2.0):
        assert V.weak_residual_rel(sol, phi) <= 1e-6


def test_residual_detects_wrong_strength_slope():
    sol = run(BATTERY["case1"])
    fid = sol.events[0].outgoing[0]
    bad = V.perturb_strength_rate(sol, fid, 0.1)
    x_on = bad.fronts[fid].geom.pos(0.8)
    phi = V.TestFunction(0.8, x_on, 0.4, 1.0)
    _, rv = V.weak_residual(bad, phi)
    assert abs(rv) >= 1e-2 * phi.sup


def test_mass_balance_case1():
    sol = run(BATTERY["case1"])
    err = V.mass_balance(sol, (-10.0, 10.0), np.linspace(1e-3, 1.0, 6))
    assert err <= 1e-8
    (atom,) = atoms_at(sol, 1.0)
    assert atom.alpha == pytest.approx(6.0)


def test_mass_balance_rejects_escaping_fronts():
    sol = run(BATTERY["case1"])
    with pytest.raises(ValueError):
        V.mass_balance(sol, (-1.0, 1.0), np.linspace(1e-3, 1.0, 4))


def test_zero_deficit_structures_carry_no_atoms():
    sol = fan_solution(State(3, 3), State(2, 1))  # contact + shock only
    assert atoms_at(sol, 1.0) == ()
    err = V.mass_balance(sol, (-6.0, 6.0), np.linspace(1e-3, 1.5, 5))
    assert err <= 1e-10


def test_lemma_contact_mass_constant():
    sol = fan_solution(State(3, 1), State(2, 1), gamma=5.0)
    for t in (0.3, 1.0, 2.0):
        (atom,) = atoms_at(sol, t)
        assert atom.alpha == pytest.approx(5.0)
    err = V.mass_balance(sol, (-8.0, 8.0), np.linspace(1e-3, 2.0, 5))
    assert err <= 1e-8


def test_oracle_requires_fan_case():
    with pytest.raises(ValueError):
        V.fan_approx_oracle(BATTERY["case1"], 100)
    with pytest.raises(ValueError):
        V.fan_approx_oracle(BATTERY["case4i"], 1)


def test_oracle_small_n_stays_merge_only():
    # u-steps of (u2-u1)/2 < 2: both interactions are plain delta merges
    orun = V.fan_approx_oracle(BATTERY["case4i"], 2)
    assert orun.end_kind == "merged-out"


FAN_CASES = [n for n in BATTERY if n.startswith(("case4", "case5"))]


@pytest.mark.parametrize("name", FAN_CASES)
def test_oracle_end_matches_exact(name):
    # the oracle ends in a bifurcation exactly when the exact solution breaks
    # down, near its breakdown time t_s and nearer as n grows
    sol = run(BATTERY[name])
    ev = next((e for e in sol.events if e.rule == "BreakdownBifurcation"), None)
    coarse = V.fan_approx_oracle(BATTERY[name], 50)
    fine = V.fan_approx_oracle(BATTERY[name], 200)
    if ev is None:
        assert coarse.end_kind == fine.end_kind == "merged-out"
        return
    assert coarse.end_kind == fine.end_kind == "bifurcation"
    assert coarse.t_end == pytest.approx(ev.t, rel=0.1)
    assert abs(fine.t_end - ev.t) < abs(coarse.t_end - ev.t)


def test_oracle_absolute_accuracy_case4i():
    sol = run(BATTERY["case4i"])
    orun = V.fan_approx_oracle(BATTERY["case4i"], 100)
    traj_err, strength_err = V.compare_oracle(sol, orun)
    assert traj_err < 0.05
    assert strength_err < 0.05


@pytest.mark.parametrize("name", ["case4i", "case5_nobif", "case5_bif_left"])
def test_oracle_convergence(name):
    sol = run(BATTERY[name])
    errs = []
    for n in (50, 100, 200, 400):
        orun = V.fan_approx_oracle(BATTERY[name], n)
        errs.append(V.compare_oracle(sol, orun))
    for k in range(3):
        assert errs[k + 1][0] <= 0.6 * errs[k][0]
        assert errs[k + 1][1] <= 0.6 * errs[k][1]


def test_entropy_pair_rejects_nonconvex():
    with pytest.raises(ValueError):
        V.EntropyPair(lambda u: u * u, lambda m: -m * m, lambda u: u)


def test_entropy_smooth_region():
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    sol = run(BATTERY["case4iia"])
    phi = V.TestFunction(0.3, 0.25, 0.07, 0.06)  # strictly inside the fan
    assert abs(V.entropy_residual(sol, pair, phi)) <= 1e-8


def test_entropy_shock_production_nonnegative():
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    sol = fan_solution(State(3, 3), State(2, 1))
    phi = V.TestFunction(1.0, 2.5, 0.5, 0.6)
    assert V.entropy_residual(sol, pair, phi) >= 0.0


def test_entropy_delta_contact_linear_in_eps():
    pair = V.EntropyPair(lambda u: u * u, lambda m: np.exp(-m),
                         lambda u: u * u - u ** 3 / 3.0)
    sol = fan_solution(State(2, 3), State(2, 3), gamma=1.0)
    phi = V.TestFunction(0.15, 0.0, 0.4, 1.0)
    rs = [V.entropy_residual(sol, pair, phi, eps=e)
          for e in (1e-2, 1e-3, 1e-4)]
    assert rs[0] / rs[1] == pytest.approx(10.0, rel=0.05)
    assert rs[1] / rs[2] == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("build, phi", [
    (lambda: run(BATTERY["case4iia"]), V.TestFunction(0.3, 0.25, 0.07, 0.06)),
    (lambda: fan_solution(State(3, 3), State(2, 1)),
     V.TestFunction(1.0, 2.5, 0.5, 0.6)),
], ids=["case4iia_fan", "contact_shock"])
def test_entropy_strips_touch_only_atom_fronts(build, phi):
    # no atom front in the support: the strips must leave every slab alone
    sol = build()
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    assert (V.entropy_residual(sol, pair, phi, eps=1e-3)
            == V.entropy_residual(sol, pair, phi))


def test_entropy_requires_eps_on_atoms():
    sol = fan_solution(State(4, 1), State(0, 1))
    pair = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    phi = V.TestFunction(0.5, 1.0, 0.3, 1.0)  # covers the delta line x = 2t
    with pytest.raises(ValueError):
        V.entropy_residual(sol, pair, phi)


def test_entropy_compat_random_polynomials():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        fc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        gc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        pair = V.polynomial_pair(fc, gc)
        us = rng.uniform(-2, 2, 40)
        vs = rng.uniform(-2, 2, 40)
        worst = max(worst, V.entropy_compat_error(pair, us, vs))
    assert worst <= 1e-6
