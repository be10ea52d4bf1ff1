"""Quick self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload for one second untraced and traced, and checks that
each run prints exactly the metrics BENCHMARK.json names, with their units;
that in the traced run the self times of each unit's spans sum to the
unit's duration; and that without the package the benchmark fails without
printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class HarnessTest(unittest.TestCase):

    def result(self, workload, trace):
        res = bench("--workload", workload, "--seed", str(SEED),
                    "--seconds", "1", "--trace", str(trace))
        self.assertEqual(res.returncode, 0, res.stderr)
        out = json.loads(res.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        return out

    def metrics_match(self, metrics, group):
        want = {m["name"]: m["unit"] for m in spec()[group]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, want)
        for k, v in metrics.items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.metrics_match(self.result(w["name"], 0)["metrics"],
                                   "end_to_end")

    def test_traced_run_emits_every_layer_metric_and_consistent_spans(self):
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.metrics_match(self.result(w["name"], 1)["metrics"],
                                   "per_layer")
                self.check_spans(ROOT / ".bench_out"
                                 / f"spans-{w['name']}-seed{SEED}.tsv")

    def check_spans(self, path):
        spans = {}
        with open(path) as fh:
            next(fh)
            for line in fh:
                i, name, _, start, end, parent, unit, _, _ = line.rstrip("\n").split("\t")
                spans[int(i)] = (name, float(start), float(end), int(parent), unit)
        child, kids = defaultdict(float), defaultdict(list)
        for name, start, end, parent, unit in spans.values():
            self.assertGreaterEqual(end, start)
            if parent >= 0:
                p = spans[parent]
                self.assertEqual(p[4], unit)
                self.assertTrue(p[1] <= start and end <= p[2], name)
                child[parent] += end - start
                kids[parent].append((start, end))
        for parent, ivs in kids.items():
            ivs.sort()
            for (_, end), (start, _) in zip(ivs, ivs[1:]):
                self.assertLessEqual(end, start, f"children of span {parent} overlap")
        self_sum, unit_dur = defaultdict(float), {}
        for i, (name, start, end, parent, unit) in spans.items():
            if not unit:
                continue
            own = (end - start) - child[i]
            self.assertGreaterEqual(own, -1e-9, name)
            self_sum[unit] += own
            if name == "bench.unit":
                unit_dur[unit] = end - start
        self.assertTrue(unit_dur)
        self.assertEqual(set(self_sum), set(unit_dur))
        for unit, dur in unit_dur.items():
            self.assertAlmostEqual(self_sum[unit], dur, delta=1e-9 + 1e-9 * dur)

    def test_fails_without_the_package(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            res = bench("--workload", spec()["workloads"][0]["name"], "--seed",
                        "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
