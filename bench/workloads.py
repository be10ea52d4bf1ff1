"""The benchmark's three workloads.

Each workload is a closed loop with one caller.  ``setup`` does what a user
pays before the first op can start (imports and any solutions built ahead of
the loop; ``probe.py`` times it in fresh interpreters).  ``prepare`` makes
the seeded inputs, which no timing includes.  ``units`` yields the timed
work as ``Unit`` records, endlessly; the runner stops taking them when the
run's time is up.

A unit is an op (the workload's unit of work, whose latency is reported) or
an extra (timed work of the same workload that is not an op, such as the
per-scenario checks of ``verify_battery``).  Every unit has a correctness
gate; ``check`` runs after the unit's clock has stopped and returns None or
a failure class.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


@dataclass
class Unit:
    is_op: bool
    label: str
    work: Callable[[], object]
    check: Callable[[object], Optional[str]]


def failure_class(exc: BaseException) -> str:
    """Exception type plus the message up to its first number or colon."""
    msg = re.split(r"[-+]?\d|[:=(]", str(exc), maxsplit=1)[0].strip()
    return f"{type(exc).__name__}: {msg[:60]}"


def gate(ok=None, message: str = ""):
    """A check: an exception fails with its class; otherwise ``ok(value)``
    must hold, or the unit fails with ``message``."""
    def check(value):
        if isinstance(value, Exception):
            return failure_class(value)
        return None if ok is None or ok(value) else message
    return check


def _int_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Workload:
    name: str
    TRACE_UNITS: int        # the fixed prefix of units the traced run takes

    def summary(self) -> dict:
        """Workload-specific figures for the result's detail."""
        return {}

    def census_fail_frac(self) -> float:
        """Share of the untimed census's ops that failed (sweep_track only)."""
        return 0.0

    def finish(self) -> Optional[str]:
        """A failed check that is not a counted op failure, or None."""
        return None


# ---------------------------------------------------------------------------
# verify_battery
# ---------------------------------------------------------------------------

class VerifyBattery(Workload):
    """An op is one ``verify.weak_residual`` of one seeded test function on
    one of the ten BATTERY solutions, built during set-up.

    Each pass draws 200 test functions per scenario (a timed extra per
    scenario) and takes them round-robin, one per scenario per round, so
    any prefix of a pass has the pass's mix of scenarios.  After every 20
    rounds one scenario's checks run as extras: ``mass_balance``,
    ``overcompressibility_report``, one strip-regularized
    ``entropy_residual`` and, on the fan cases, ``fan_approx_oracle`` with
    ``compare_oracle`` at N = 25, 50, 100.
    """

    name = "verify_battery"
    TESTS = 200
    ORACLE_CASES = ("case4i", "case5_nobif", "case5_bif_left", "case5_bif_mid")
    ORACLE_N = (25, 50, 100)
    RESIDUAL_TOL = 1e-6
    MASS_TOL = 1e-8
    MARGIN_TOL = -1e-9
    ORACLE_RATIO = 0.6          # error shrink per doubling of N, as criterion 5
    ENTROPY_EPS = 1e-3
    TRACE_UNITS = 2044          # one pass: 10 draws, 2000 ops, 34 checks

    def setup(self):
        import deltashock
        from deltashock import verify
        self.ds, self.V = deltashock, verify
        self.sols = {n: deltashock.run(sc) for n, sc in deltashock.BATTERY.items()}

    def prepare(self, seed: int, workdir: Path):
        self.seed = seed
        self.pair = self.V.polynomial_pair([0, 0, 1], [0, 0, 1])

    def units(self):
        names = list(self.sols)
        p = 0
        while True:
            tests = {}
            for name in names:
                yield Unit(False, f"random_test_functions:{name}",
                           self._draw(tests, name, _int_seed(self.seed, p)),
                           gate())
            for r in range(self.TESTS):
                for name in names:
                    yield Unit(True, f"weak_residual:{name}",
                               self._residual(tests, name, r),
                               gate(lambda res: res <= self.RESIDUAL_TOL,
                                    "residual above 1e-6"))
                if r % 20 == 19:
                    yield from self._checks(names[r // 20], tests)
            p += 1

    def _draw(self, tests, name, seed):
        def work():
            tests[name] = self.V.random_test_functions(self.sols[name],
                                                       self.TESTS, seed=seed)
        return work

    def _residual(self, tests, name, r):
        sol = self.sols[name]

        def work():
            phi = tests[name][r]
            ru, rv = self.V.weak_residual(sol, phi)
            return max(abs(ru), abs(rv)) / phi.sup
        return work

    def _checks(self, name, tests):
        V, sol = self.V, self.sols[name]

        def mass():
            t_hi = min(sol.t_max_computed, 5.0)
            return V.mass_balance(sol, V.auto_window(sol, t_hi),
                                  np.linspace(1e-3, t_hi, 11))

        def margins():
            return min((min(lo, hi) for _, lo, hi
                        in V.overcompressibility_report(sol)), default=0.0)

        def entropy():
            return V.entropy_residual(sol, self.pair, tests[name][0],
                                      eps=self.ENTROPY_EPS)

        yield Unit(False, f"mass_balance:{name}", mass,
                   gate(lambda m: m <= self.MASS_TOL, "mass above 1e-8"))
        yield Unit(False, f"overcompressibility:{name}", margins,
                   gate(lambda m: m >= self.MARGIN_TOL,
                        "overcompressibility margin below -1e-9"))
        yield Unit(False, f"entropy_residual:{name}", entropy,
                   gate(math.isfinite, "entropy residual not finite"))
        if name in self.ORACLE_CASES:
            def oracle():
                sc = self.ds.BATTERY[name]
                return [V.compare_oracle(sol, V.fan_approx_oracle(sc, n))
                        for n in self.ORACLE_N]
            yield Unit(False, f"oracle:{name}", oracle,
                       gate(self._oracle_falls, "oracle error not falling with N"))

    def _oracle_falls(self, errs) -> bool:
        return all(b[k] <= self.ORACLE_RATIO * a[k]
                   for a, b in zip(errs, errs[1:]) for k in (0, 1))


# ---------------------------------------------------------------------------
# sweep_track
# ---------------------------------------------------------------------------

SUB_CASES = ("1", "2", "3", "4(i)", "4(ii)(a)", "4(ii)(b)", "4(ii)(c)",
             "5(no-bifurcation)", "5(bifurcation,u0<=u2)",
             "5(bifurcation,u2<u0<u2+2)")


class SweepTrack(Workload):
    """An op is one seeded scenario: ``validate_scenario``, ``run``,
    ``atoms_at`` at t = 10, and ``sample`` on 201 points at t = 1, 5 and 10
    (each sample also returns the atoms at its time).

    u is drawn from the quarter-integer grid on [-2, 6], where exact u-gaps
    of 2 occur at their natural rate; v from U(0.5, 2); the offset is
    +-U(0.2, 3).  Draws that ``validate_scenario`` rejects are redrawn.
    Preparation takes the seed's first CENSUS draws and runs each op once,
    untimed: the census.  An op passes when it ends in a Solution whose
    samples are well formed, or in a ScenarioError; any other exception is
    a failure, classified by type and message prefix.  The census reports
    its failures (``census_fail_frac`` and the classes in the result's
    detail) and keeps the draws that passed as the pool; the timed loop
    takes the pool in a fresh seeded order on every pass, so that the
    benchmark's runs count no op failures and two sets of runs agree.  An
    op of the pool that fails in the timed loop is still counted.  Every
    timed op is also put, with probability 1/20 from its own seeded stream,
    into an untimed ``mass_balance`` check on ``auto_window``.
    """

    name = "sweep_track"
    U_GRID = tuple(k / 4.0 for k in range(-8, 25))
    TIMES = (1.0, 5.0, 10.0)
    POINTS = 201
    MASS_SHARE = 0.05
    MASS_TOL = 1e-8
    CENSUS = 2000
    TRACE_UNITS = 2000

    def setup(self):
        import deltashock
        self.ds = deltashock

    def prepare(self, seed: int, workdir: Path):
        from deltashock import verify
        self.V = verify
        self.seed = seed
        self.histogram = Counter()
        self.mass_checked = 0
        self.mass_worst = 0.0
        rng = np.random.default_rng(seed)
        self.pool, self.census = [], Counter()
        for _ in range(self.CENSUS):
            sc, label = self._draw(rng)
            try:
                value = self._op(sc)()
            except Exception as exc:    # classified by the check
                value = exc
            problem = self._check(False)(value)
            if problem is None:
                self.pool.append((sc, label))
            else:
                self.census[problem] += 1

    def census_fail_frac(self) -> float:
        return sum(self.census.values()) / self.CENSUS

    def _draw(self, rng):
        ds = self.ds
        while True:
            u = rng.choice(self.U_GRID, 3)
            v = rng.uniform(0.5, 2.0, 3)
            off = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0))
            sc = ds.Scenario(*(ds.State(float(a), float(b)) for a, b in zip(u, v)),
                             offset=off)
            try:
                _, label = ds.validate_scenario(sc)
            except ds.ScenarioError:
                continue
            return sc, label

    def units(self):
        order = np.random.default_rng(_int_seed(self.seed, 2))
        pick = np.random.default_rng(_int_seed(self.seed, 1))
        while self.pool:
            for k in order.permutation(len(self.pool)):
                sc, label = self.pool[int(k)]
                self.histogram[label] += 1
                yield Unit(True, f"scenario:{label}", self._op(sc),
                           self._check(pick.random() < self.MASS_SHARE))

    def _op(self, sc):
        ds = self.ds
        u = (sc.left.u, sc.middle.u, sc.right.u)
        grids = [np.linspace(-3.0 + min(sc.offset, 0.0) + min(u) * t,
                             3.0 + max(sc.offset, 0.0) + max(u) * t, self.POINTS)
                 for t in self.TIMES]

        def work():
            ds.validate_scenario(sc)
            sol = ds.run(sc)
            atoms = ds.atoms_at(sol, self.TIMES[-1])
            return sol, atoms, [ds.sample(sol, t, xs)
                                for t, xs in zip(self.TIMES, grids)]
        return work

    def _check(self, with_mass: bool):
        ds, V = self.ds, self.V

        def check(value):
            if isinstance(value, ds.ScenarioError):
                return None
            if isinstance(value, Exception):
                return failure_class(value)
            sol, atoms, samples = value
            if atoms != samples[-1].atoms:
                return "atoms_at disagrees with sample"
            for s in samples:
                if s.u_vals.shape != (self.POINTS,) or not np.all(np.isfinite(s.u_vals)):
                    return "sample: malformed u"
                if [a.x for a in s.atoms] != sorted(a.x for a in s.atoms):
                    return "sample: unsorted atoms"
            if with_mass:
                t_hi = min(sol.t_max_computed, 5.0)
                try:
                    err = V.mass_balance(sol, V.auto_window(sol, t_hi),
                                         np.linspace(1e-3, t_hi, 11))
                except Exception as exc:
                    return "mass_balance " + failure_class(exc)
                self.mass_checked += 1
                self.mass_worst = max(self.mass_worst, err)
                if not err <= self.MASS_TOL:
                    return "mass above 1e-8"
            return None
        return check

    def summary(self) -> dict:
        return {"sub_cases": dict(sorted(self.histogram.items())),
                "mass_checked": self.mass_checked,
                "mass_worst": self.mass_worst,
                "census_drawn": self.CENSUS, "census_pool": len(self.pool),
                "census_fail_frac": self.census_fail_frac(),
                "census_failures": dict(self.census.most_common())}

    def finish(self) -> Optional[str]:
        missing = [c for c in SUB_CASES if c not in self.histogram]
        if missing:
            return f"sub-cases never drawn: {missing}"
        return None


# ---------------------------------------------------------------------------
# solve_emit
# ---------------------------------------------------------------------------

OUTPUT_FILES = ("events.json", "fronts.csv", "u.csv", "v.csv", "atoms.csv",
                "diagram.svg")


def closed_form_errors(name: str, doc: dict) -> list:
    """Acceptance criterion 2's closed forms that events.json must match to
    1e-12; returns the mismatches."""
    tol = 1e-12
    events = doc["events"]
    fronts = {f["id"]: f for f in doc["fronts"]}
    bad = []

    def at(rule, t, x):
        ev = [e for e in events if e["rule"] == rule]
        if not ev or abs(ev[0]["t"] - t) > tol or abs(ev[0]["x"] - x) > tol:
            bad.append(f"{rule} not at ({t}, {x})")
        return ev[0] if ev else None

    if name == "case1":
        at("MergeDeltas", 1.0 / 3.0, 0.5)
    if name.startswith("case4"):
        ev = at("DeltaEntersFan", 2.0 / 3.0, 2.0 / 3.0)
        if ev is not None:
            geom = fronts[ev["outgoing"][0]]["geometry"]
            if abs(geom["K"] + math.sqrt(6.0)) > tol:
                bad.append("fan-interior K != -sqrt(6)")
    if name in ("case4iia", "case4iib", "case4iic"):
        at("BreakdownBifurcation", 1.5, 3.0)
    if name.startswith("case5"):
        at("DeltaEntersFan", 0.5, 2.0)
    if name in ("case5_bif_left", "case5_bif_mid"):
        at("BreakdownBifurcation", 2.0, 4.0)
    return bad


class SolveEmit(Workload):
    """An op is one in-process ``deltashock.cli.main(["solve", <file>,
    "--out", <dir>, "--svg"])`` on one battery scenario file at the default
    201 x 101 grid.  The files are written and a reference emission made
    during preparation; each round takes the ten files in a seeded order.
    An op passes when it returns 0, its six files are byte-identical to the
    reference emission, and the reference events.json matches criterion 2's
    closed forms to 1e-12.
    """

    name = "solve_emit"
    TRACE_UNITS = 60            # six rounds of the ten files

    def setup(self):
        from deltashock import cli
        self.cli = cli

    def prepare(self, seed: int, workdir: Path):
        import deltashock
        self.seed = seed
        self.files = {}
        self.reference = {}
        self.closed_form = {}
        for name, sc in deltashock.BATTERY.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(self.cli.scenario_to_dict(sc)))
            self.files[name] = path
            out = workdir / name
            rc = self._solve(path, out)
            if rc != 0:
                raise RuntimeError(f"reference emission of {name} exited {rc}")
            self.reference[name] = [(out / f).read_bytes() for f in OUTPUT_FILES]
            self.closed_form[name] = closed_form_errors(
                name, json.loads(self.reference[name][0]))

    def _solve(self, path, out):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["solve", str(path), "--out", str(out), "--svg"])

    def units(self):
        rng = np.random.default_rng(self.seed)
        names = list(self.files)
        while True:
            for k in rng.permutation(len(names)):
                name = names[int(k)]
                path, out = self.files[name], self.files[name].with_suffix("")
                yield Unit(True, f"solve:{name}",
                           lambda path=path, out=out: self._solve(path, out),
                           self._check(name, out))

    def _check(self, name, out):
        def check(value):
            if isinstance(value, Exception):
                return failure_class(value)
            if value != 0:
                return f"exit code {value}"
            if [(out / f).read_bytes() for f in OUTPUT_FILES] != self.reference[name]:
                return "emission not byte-identical"
            if self.closed_form[name]:
                return "closed form: " + self.closed_form[name][0]
            return None
        return check

    def summary(self) -> dict:
        return {"closed_form_mismatches": {n: e for n, e in self.closed_form.items() if e}}


WORKLOADS = {w.name: w for w in (VerifyBattery, SweepTrack, SolveEmit)}
