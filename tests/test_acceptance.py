"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its tolerance.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report."""

import math

import numpy as np
import pytest

from deltashock.battery import BATTERY
from deltashock.cli import emit
from deltashock.core import FrontKind, State
from deltashock.interact import fan_solution, run
from deltashock import verify as V
from solution_checks import (bifurcation_ordering_gap, entropy_compat_error,
                             perturb_strength_rate)

SEED = 20240801


@pytest.fixture(scope="module")
def solutions():
    return {name: run(sc) for name, sc in BATTERY.items()}


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_weak_form_battery(solutions):
    worst_u = worst_v = 0.0
    for name, sol in solutions.items():
        for phi in V.random_test_functions(sol, 200, seed=SEED):
            ru, rv = V.weak_residual(sol, phi)
            worst_u = max(worst_u, abs(ru) / phi.sup)
            worst_v = max(worst_v, abs(rv) / phi.sup)
    assert worst_u <= 1e-6
    assert worst_v <= 1e-6
    _report(1, f"weak residuals over 10 x 200 test functions: "
               f"u-eq {worst_u:.2e}, v-eq {worst_v:.2e} (tol 1e-6)")


def test_criterion_2_closed_form_event_values(solutions):
    tol = 1e-12
    ev = solutions["case1"].events[0]
    assert abs(ev.t - 1.0 / 3.0) <= tol and abs(ev.x - 0.5) <= tol
    law = solutions["case1"].fronts[ev.outgoing[0]].strength
    assert abs(law.s - 6.0) <= tol and abs(law.gamma - 2.0) <= tol

    for name in ("case4i", "case4iia", "case4iib", "case4iic"):
        sol = solutions[name]
        enter = next(e for e in sol.events if e.rule == "DeltaEntersFan")
        assert abs(enter.t - 2.0 / 3.0) <= tol
        assert abs(enter.x - 2.0 / 3.0) <= tol
        curve = sol.fronts[enter.outgoing[0]].geom
        assert abs(curve.K + math.sqrt(6.0)) <= tol
    for name in ("case4iia", "case4iib", "case4iic"):
        bd = next(e for e in solutions[name].events
                  if e.rule == "BreakdownBifurcation")
        assert abs(bd.t - 1.5) <= tol and abs(bd.x - 3.0) <= tol

    for name in ("case5_bif_left", "case5_bif_mid", "case5_nobif"):
        enter = next(e for e in solutions[name].events
                     if e.rule == "DeltaEntersFan")
        assert abs(enter.t - 0.5) <= tol and abs(enter.x - 2.0) <= tol
    for name in ("case5_bif_left", "case5_bif_mid"):
        bd = next(e for e in solutions[name].events
                  if e.rule == "BreakdownBifurcation")
        assert abs(bd.t - 2.0) <= tol and abs(bd.x - 4.0) <= tol
    _report(2, "merge (1/3, 1/2, s=6, g=2); fan entry (2/3, 2/3), K=-sqrt(6), "
               "breakdown (3/2, 3); entry (1/2, 2), breakdown (2, 4) "
               "all exact to 1e-12")


def test_criterion_3_overcompressibility_monitor(solutions):
    checked = equalities = 0
    for name, sol in solutions.items():
        bd_times = {e.t for e in sol.events if e.rule == "BreakdownBifurcation"}
        for f in sol.fronts.values():
            if f.kind is not FrontKind.DELTA_SHOCK:
                continue
            checked += 1
            t1 = min(f.death, max(sol.t_max_computed, f.birth + 1.0))
            ts = f.birth + (t1 - f.birth) * np.linspace(1e-9, 1.0, 200)
            cdot = np.asarray(f.geom.slope(ts))
            u_left, u_right = f.u_traces(ts)
            lo = cdot - u_right
            hi = u_left - 1.0 - cdot
            assert np.min(lo) >= -1e-12 and np.min(hi) >= -1e-12
            ends_in_breakdown = any(abs(f.death - bt) <= 1e-12 * (1 + bt)
                                    for bt in bd_times)
            if ends_in_breakdown:
                equalities += 1
                # the margin's zero sits at K^2/4, within 1e-9 of the event
                t_zero = f.geom.tc + 0.25 * f.geom.K ** 2
                assert abs(t_zero - f.death) <= 1e-9
            else:
                assert min(np.min(lo), np.min(hi)) > 1e-9
    assert equalities == 5  # one breakdown per 4(ii)* and 5_bif* scenario
    _report(3, f"{checked} delta-shock fronts overcompressive at 200 samples; "
               f"{equalities} equalities, each at K^2/4 within 1e-9")


def test_criterion_4_ordering_inequality(solutions):
    names = [n for n, s in solutions.items()
             if any(e.rule == "BreakdownBifurcation" for e in s.events)]
    worst = math.inf
    for name in names:
        gap = bifurcation_ordering_gap(solutions[name], t_factor=100.0)
        assert gap is not None and gap > 0.0
        worst = min(worst, gap)
    assert {"case4iia", "case4iib", "case4iic",
            "case5_bif_left", "case5_bif_mid"} <= set(names)
    _report(4, f"contact strictly below shock on (t_s, 100 t_s] in "
               f"{len(names)} bifurcating scenarios (min gap {worst:.2e})")


def test_criterion_5_oracle_convergence(solutions):
    worst = 0.0
    for name in ("case4i", "case5_nobif", "case5_bif_left", "case5_bif_mid"):
        errs = []
        for n in (50, 100, 200, 400):
            orun = V.fan_approx_oracle(BATTERY[name], n)
            errs.append(V.compare_oracle(solutions[name], orun))
        for k in range(3):
            rt = errs[k + 1][0] / errs[k][0]
            ra = errs[k + 1][1] / errs[k][1]
            worst = max(worst, rt, ra)
            assert rt <= 0.6 and ra <= 0.6
    _report(5, f"N-shock trajectory/strength errors shrink per doubling, "
               f"worst ratio {worst:.3f} (tol 0.6)")


def test_criterion_6_mass_balance(solutions):
    worst = 0.0
    for name, sol in solutions.items():
        t_hi = min(sol.t_max_computed, 5.0)
        window = V.auto_window(sol, t_hi)
        err = V.mass_balance(sol, window, np.linspace(1e-3, t_hi, 11))
        worst = max(worst, err)
        assert err <= 1e-8
    _report(6, f"integrated conservation error {worst:.2e} on all ten "
               f"scenarios (tol 1e-8)")


def test_criterion_7_perturbation_sensitivity(solutions):
    weakest = math.inf
    for name in ("case1", "case2", "case3"):
        sol = solutions[name]
        fid = sol.events[-1].outgoing[0]
        bad = perturb_strength_rate(sol, fid, 0.1)
        f = bad.fronts[fid]
        t_c = f.birth + 0.45
        phi = V.TestFunction(t_c, f.geom.pos(t_c), 0.4, 1.0)
        _, rv = V.weak_residual(bad, phi)
        weakest = min(weakest, abs(rv) / phi.sup)
        assert abs(rv) >= 1e-2 * phi.sup
    _report(7, f"slope perturbation of 0.1 raises the residual to "
               f">= {weakest:.2e} x ||phi|| (tol 1e-2)")


def test_criterion_8_entropy_checks(solutions):
    quad = V.polynomial_pair([0, 0, 1], [0, 0, 1])
    phi_fan = V.TestFunction(0.3, 0.25, 0.07, 0.06)
    smooth = abs(V.entropy_residual(solutions["case4iia"], quad, phi_fan))
    assert smooth <= 1e-8

    bounded = V.EntropyPair(lambda u: u * u, lambda m: np.exp(-m),
                            lambda u: u * u - u ** 3 / 3.0)
    sol = fan_solution(State(2, 3), State(2, 3), gamma=1.0)
    phi = V.TestFunction(0.15, 0.0, 0.4, 1.0)
    rs = [V.entropy_residual(sol, bounded, phi, eps=e)
          for e in (1e-2, 1e-3, 1e-4)]
    assert rs[0] > rs[1] > rs[2] > 0.0
    assert rs[0] / rs[1] == pytest.approx(10.0, rel=0.05)
    assert rs[1] / rs[2] == pytest.approx(10.0, rel=0.05)

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(25):
        fc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        gc = np.array([rng.uniform(-1, 1), 0.0, rng.uniform(0.1, 1.0)])
        pair = V.polynomial_pair(fc, gc)
        us = rng.uniform(-2, 2, 40)
        vs = rng.uniform(-2, 2, 40)
        worst = max(worst, entropy_compat_error(pair, us, vs))
    assert worst <= 1e-6
    _report(8, f"smooth-region {smooth:.1e} (tol 1e-8); delta-contact "
               f"residual linear in eps ({rs[0]:.2e} -> {rs[2]:.2e}); "
               f"pair compatibility {worst:.1e} at 1000 states (tol 1e-6)")


def test_criterion_9_determinism(solutions, tmp_path):
    names = ("events.json", "fronts.csv", "u.csv", "v.csv", "atoms.csv",
             "diagram.svg")
    for name, sol in solutions.items():
        d1 = tmp_path / f"{name}-1"
        d2 = tmp_path / f"{name}-2"
        emit(sol, d1, nx=61, nt=23, svg=True)
        emit(sol, d2, nx=61, nt=23, svg=True)
        for fn in names:
            assert (d1 / fn).read_bytes() == (d2 / fn).read_bytes(), \
                f"{name}/{fn} differs between runs"
    _report(9, "two emissions of the full battery byte-identical "
               "(6 files x 10 scenarios)")
