"""Smoke tests for the end-to-end benchmark: every workload at toy scale,
untraced and traced, plus the manifest and the failure path.

    python3 -m unittest discover -s e2ebench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def result(self, workload, trace):
        r = bench("--smoke", "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace))
        self.assertEqual(r.returncode, 0, r.stderr[-2000:])
        res = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], r.stdout)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return res, r.stdout

    def test_untraced_runs_report_every_end_to_end_metric(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        for w in manifest["workloads"]:
            with self.subTest(workload=w["name"]):
                res, out = self.result(w["name"], 0)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                self.assertIn("failure_rate = 0.0000", out)

    def test_traced_runs_report_every_per_layer_metric(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        for w in manifest["workloads"]:
            with self.subTest(workload=w["name"]):
                res, _ = self.result(w["name"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                metrics = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertGreater(metrics["trace.coverage"], 0)
                if w["name"].startswith("web-clugp-"):
                    self.assertGreater(metrics["ampc.bytes.Configure"], 0)
                    self.assertGreater(metrics["ampc.engine_tax_x"], 0)
                else:
                    # At toy scale too, the re-enacted layers cover the run.
                    self.assertGreater(metrics["trace.coverage"], 0.5)
                    self.assertEqual(metrics["exchange_bytes_per_edge"], 0)

    def test_same_seed_gives_same_input(self):
        lines = []
        for _ in range(2):
            _, out = self.result("social-hdrf", 0)
            lines.append([l for l in out.splitlines() if l.startswith("input ")])
        self.assertEqual(lines[0], lines[1])

    def test_manifest_matches_run_py(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.manifest())
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in committed[k]]
        self.assertEqual(len(names), len(set(names)))

    def test_fails_without_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(BENCH_DIR, Path(d) / "e2ebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", d)
            r = bench("--workload", "web-clugp", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=d, script=Path(d) / "e2ebench" / "run.py")
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
