"""The benchmark's own tests, at tiny budgets (about a minute after the
first build).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py: build helpers and paths)

BUDGET = 3000
CASES = 40


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def perfbench(workload, trace=0, *extra):
    """Runs the built perfbench binary; returns (metric lines, result object)."""
    cmd = [run.BINARY, "--workload", workload, "--seconds", "1",
           "--trace", str(trace), "--budget", str(BUDGET),
           "--cases", str(CASES)] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=run.clean_env(),
                          check=True, timeout=120)
    lines = done.stdout.decode().strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build(("perfbench", "cvmt_cli"))

    def check_metrics(self, names_units, trace):
        for workload in ("fig10", "table1", "fuzz"):
            lines, result = perfbench(workload, trace)
            self.assertTrue(result["correct"], lines)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(sorted(result["metrics"]), sorted(names_units),
                             workload)
            for name, unit in names_units.items():
                self.assertEqual(result["metrics"][name]["unit"], unit)
                if unit in ("s", "ms", "ns"):  # every time is measured
                    self.assertNotEqual(result["metrics"][name]["value"], 0,
                                        "%s: %s" % (workload, name))
                printed = [l.split() for l in lines]
                self.assertIn(unit, [p[-1] for p in printed if p[0] == name],
                              "%s: %s not printed with its unit"
                              % (workload, name))

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        self.check_metrics({m["name"]: m["unit"]
                            for m in spec()["end_to_end"]}, 0)

    def test_every_per_layer_metric_prints_with_its_unit(self):
        self.check_metrics({m["name"]: m["unit"]
                            for m in spec()["per_layer"]}, 1)

    def test_committed_canary_passes(self):
        for workload in ("fig10", "table1", "fuzz"):
            lines, result = perfbench(workload, 0, "--digests", run.DIGESTS)
            self.assertTrue(result["correct"], lines)

    def test_corrupted_digest_raises_fail_ratio(self):
        with open(run.DIGESTS) as f:
            committed = json.load(f)
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            for workload in ("table1", "fuzz"):
                for key in ("output", "results"):
                    digests = json.loads(json.dumps(committed))
                    digests[workload]["canary"][key] = "0123456789abcdef"
                    path = os.path.join(tmp, "digests.json")
                    with open(path, "w") as f:
                        json.dump(digests, f)
                    lines, result = perfbench(workload, 0, "--digests", path)
                    self.assertFalse(result["correct"])
                    self.assertGreater(result["failed"], 0)
                    self.assertTrue(any("canary: %s digest" % key in l
                                        for l in lines), lines)

    def test_injected_oracle_failure_raises_fail_ratio(self):
        lines, result = perfbench("fuzz", 0, "--inject-oracle-failure")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("oracle failures" in l for l in lines))

    def test_output_bytes_equal_the_cli(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            for workload, cli_args in (
                    ("table1", ["run", "table1", "--format=json",
                                "--budget=%d" % BUDGET]),
                    ("fig10", ["run", "fig10", "--format=json",
                               "--budget=%d" % BUDGET]),
                    ("fuzz", ["fuzz", "--cases=%d" % CASES, "--seed=1"])):
                dump = os.path.join(tmp, workload)
                perfbench(workload, 0, "--dump-output", dump)
                cli = subprocess.run([run.CLI] + cli_args,
                                     stdout=subprocess.PIPE,
                                     env=run.clean_env(), check=True)
                with open(dump, "rb") as f:
                    self.assertEqual(f.read(), cli.stdout, workload)

    def test_merge_select_is_bypassed_on_table1_only(self):
        _, table1 = perfbench("table1", 1)
        _, fig10 = perfbench("fig10", 1)
        self.assertEqual(table1["metrics"]["core.select_calls"]["value"], 0)
        self.assertGreater(fig10["metrics"]["core.select_calls"]["value"], 0)
        # The table1 replay self-check compared every job, exactly.
        self.assertEqual(
            table1["metrics"]["mem.replay_checked_jobs"]["value"], 24)
        self.assertEqual(table1["metrics"]["mem.replay_mismatches"]["value"],
                         0)

    def test_traced_run_writes_spans(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            path = os.path.join(tmp, "trace.json")
            perfbench("fuzz", 1, "--trace-out", path)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for name in ("bench.pass", "exp.run", "sim.compile", "sim.run",
                     "testgen.oracles", "trace.advance", "mem.fetch",
                     "core.select"):
            self.assertIn(name, names)
        ids = {e["args"]["id"] for e in events}
        self.assertTrue(all(e["args"]["parent"] in ids
                            for e in events if e["args"]["parent"] >= 0))

    def test_run_py_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "table1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, b"")


if __name__ == "__main__":
    unittest.main()
