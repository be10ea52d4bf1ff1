"""deltashock benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
NAME is ``verify_battery``, ``sweep_track``, ``solve_emit`` or ``all``
(each workload in turn, in its own process, with a summary table).

``--trace 0`` runs the workload's closed loop for S seconds and reports the
end-to-end metrics: ops_per_s, op_ms_p50, op_ms_tail (the highest
percentile with at least ten samples, and 2% of all, beyond it), ok_frac
(share of attempted units that completed and passed their correctness
gate), peak_rss_mb, and setup_s (median over fresh interpreters, see
probe.py).
The three op timings are scaled to a reference machine speed (see
calibrate.py); the wall-clock figures are printed beside them.
``--trace 1`` runs the workload's fixed prefix of units twice, untraced and
with every layer wrapped in spans, block by block, and reports the
per-layer metrics and the tracing overhead; spans are written to
``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 unless the run could not be made or a check that is not a counted
op failure failed.
"""

import os

# one BLAS thread for this process and its set-up probes; numpy links a
# threaded OpenBLAS, so this must precede the first numpy import
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibrate as C  # noqa: E402  (bench/ is sys.path[0])
import tracer as T  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
TRACE_BLOCK = 10
TAIL_BEYOND = 10
TAIL_SHARE = 0.02

END_TO_END_UNITS = {"ops_per_s": "1/ref_s", "op_ms_p50": "ref_ms",
                    "op_ms_tail": "ref_ms",
                    "ok_frac": "ratio", "peak_rss_mb": "MiB", "setup_s": "s"}


class BenchError(Exception):
    """The run could not be made; no result is printed."""


@dataclass
class Phase:
    durations: list = field(default_factory=list)   # per unit, seconds
    is_op: list = field(default_factory=list)
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    starts: list = field(default_factory=list)      # per unit, timed runs only
    kernel_s: list = field(default_factory=list)    # calibration kernel times
    kernel_at: list = field(default_factory=list)   # and when each was taken

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def ops(self) -> int:
        return sum(self.is_op)

    @property
    def ops_per_s(self) -> float:
        busy = sum(self.durations)
        return self.ops / busy if busy else 0.0


def run_unit(unit, ph: Phase, tracer=None, uid=None):
    """Time one unit (inside a root span when traced), then gate it untimed."""
    if tracer is not None:
        tracer.unit = uid
        root = tracer.open(T.UNIT_SPAN, unit.label)
    t0 = time.perf_counter()
    try:
        value = unit.work()
    except Exception as exc:    # counted below as the unit's failure class
        value = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.unit = None
    ph.durations.append(dt)
    ph.is_op.append(unit.is_op)
    problem = unit.check(value)
    if problem is not None:
        ph.failed += 1
        ph.failures[f"{unit.label.split(':')[0]}: {problem}"] += 1


def run_timed(units, seconds: float) -> Phase:
    """Take units until ``seconds`` of wall time have passed, timing the
    calibration kernel between units every C.EVERY seconds."""
    ph = Phase()
    deadline = time.perf_counter() + seconds
    next_cal = 0.0
    for unit in units:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_cal:
            ph.kernel_at.append(now)
            ph.kernel_s.append(C.time_kernel())
            next_cal = now + C.EVERY
        ph.starts.append(time.perf_counter())
        run_unit(unit, ph)
    ph.kernel_at.append(time.perf_counter())
    ph.kernel_s.append(C.time_kernel())
    return ph


def run_traced(units, seconds: float, tracer) -> tuple[Phase, Phase]:
    """Run each block of TRACE_BLOCK units twice, untraced and traced, the
    first of the two alternating, so that drift in machine speed falls on
    both alike; stop early after ``seconds`` of wall time."""
    base, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    for k in range(0, len(units), TRACE_BLOCK):
        if time.perf_counter() >= deadline:
            break
        block = units[k:k + TRACE_BLOCK]
        for with_trace in ((False, True) if k // TRACE_BLOCK % 2 == 0
                           else (True, False)):
            if not with_trace:
                for unit in block:
                    run_unit(unit, base)
                continue
            tracer.install()
            try:
                for uid, unit in enumerate(block, start=k):
                    run_unit(unit, traced, tracer, uid)
            finally:
                tracer.uninstall()
    return base, traced


def tail(latencies_ms: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least TAIL_BEYOND samples, and TAIL_SHARE of all, beyond it (the
    maximum if too few).  The share keeps the tail off the few slowest
    inputs: sweep_track repeats its pool of scenarios, so ten samples beyond
    would be the two or three slowest scenarios of the seed, which change
    by a third from seed to seed."""
    xs = sorted(latencies_ms)
    n = len(xs)
    beyond = max(TAIL_BEYOND, int(TAIL_SHARE * n))
    i = max(n - beyond - 1, 0) if n > beyond else n - 1
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def measure_setup(workload: str) -> list:
    """Set-up seconds of SETUP_PROBES fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        res = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise BenchError(f"set-up probe failed: {res.stderr.strip()[-400:]}")
        out.append(float(res.stdout.split()[-1]) - t0)
    return out


def environment() -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:   # older numpy has no dict form; the version stays unknown
        pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
        commit = res.stdout.strip() or None if res.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": commit}


def run_workload(args) -> tuple[dict, int]:
    if not (ROOT / "src" / "deltashock" / "__init__.py").is_file():
        raise BenchError(f"no deltashock package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    setup_times = [] if args.trace else measure_setup(args.workload)
    w = WORKLOADS[args.workload]()
    w.setup()
    import deltashock
    if Path(deltashock.__file__).resolve().parent != ROOT / "src" / "deltashock":
        raise BenchError(f"imported deltashock from {deltashock.__file__}")

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w.prepare(args.seed, workdir)
        if args.trace:
            tr = T.Tracer()
            base, ph = run_traced(list(islice(w.units(), w.TRACE_UNITS)),
                                  2 * args.seconds, tr)
            tr.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
            values = T.layer_metrics(tr.spans)
            values["trace.ops"] = ph.ops
            values["trace.ops_per_s"] = ph.ops_per_s
            values["trace.untraced_ops_per_s"] = base.ops_per_s
            values["trace.overhead"] = (base.ops_per_s / ph.ops_per_s
                                        if ph.ops_per_s else 0.0)
            values["sweep_track.census_fail_frac"] = w.census_fail_frac()
            units = dict(T.PER_LAYER)
            attempted = base.attempted + ph.attempted
            failed = base.failed + ph.failed
            failures = base.failures + ph.failures
        else:
            ph = run_timed(w.units(), args.seconds)
            units = END_TO_END_UNITS
            raw = np.array(ph.durations)
            ops = np.array(ph.is_op)
            scaled = raw * C.factors(ph.starts, ph.kernel_at, ph.kernel_s)
            lat_ms = list(1e3 * scaled[ops])
            tail_ms, tail_pct, beyond = tail(lat_ms)
            values = {
                "ops_per_s": ops.sum() / scaled.sum(),
                "op_ms_p50": statistics.median(lat_ms),
                "op_ms_tail": tail_ms,
                "ok_frac": 1.0 - ph.failed / ph.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setup_times),
            }
            attempted, failed, failures = ph.attempted, ph.failed, ph.failures
        problem = w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if attempted < 1 or ph.ops < 1:
        raise BenchError("no op completed in the time given")

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "ops": ph.ops, "attempted": attempted,
              "failed": failed, "fail_frac": failed / attempted,
              "failures": dict(failures.most_common()), **w.summary()}
    if not args.trace:
        raw_ms = 1e3 * raw[ops]
        detail.update({
            "wall_ops_per_s": ph.ops_per_s,
            "wall_op_ms_p50": float(np.median(raw_ms)),
            "wall_op_ms_tail": tail(list(raw_ms))[0],
            "busy_s": float(raw.sum()), "setup_runs_s": setup_times,
            "kernel_ms_median": 1e3 * statistics.median(ph.kernel_s),
            "kernel_runs": len(ph.kernel_s),
            "op_ms_tail_percentile": tail_pct, "op_ms_tail_beyond": beyond})
    if problem:
        detail["problem"] = problem

    for k, v in detail.items():
        print(f"{k}: {json.dumps(v)}")
    for name, v in values.items():
        print(f"{name:36s} {v:>16.6g} {units[name]}")
    if not args.trace:
        print(f"op_ms_tail is p{tail_pct:.3f} of {ph.ops} ops "
              f"({beyond} beyond it); fail_frac {failed / attempted:.6f}")
    result = {"correct": problem is None, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    return result, 0 if problem is None else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of their metrics."""
    from workloads import WORKLOADS

    rows, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(f"== {name}\n{res.stdout}")
        sys.stderr.write(res.stderr)
        code = max(code, res.returncode)
        if res.stdout.strip():
            rows[name] = json.loads(res.stdout.strip().splitlines()[-1])
    if rows:
        names = list(next(iter(rows.values()))["metrics"])
        print(f"{'metric':36s}" + "".join(f"{n:>16s}" for n in rows))
        for m in names:
            cells = "".join(f"{r['metrics'][m]['value']:>16.6g}" for r in rows.values())
            print(f"{m:36s}{cells} {next(iter(rows.values()))['metrics'][m]['unit']}")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    try:
        result, code = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
