"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Each test runs ``run.py`` in a child process at tiny sizes, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    """(exit code, last-line JSON or None, stderr) of one tiny run."""
    proc = subprocess.run([sys.executable, str(script), "--tiny", "--seconds", "20", *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def copy_tree(name, with_sources):
    """A copy of BENCHMARK.json and perfbench/, and with_sources also of
    src/krylovexact/, in a fresh directory under perfbench/out/."""
    tree = HERE / "out" / name
    shutil.rmtree(tree, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tree / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src" / "krylovexact", tree / "src" / "krylovexact", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    return tree


class SelfTest(unittest.TestCase):
    def run_clean(self, workload, trace):
        code, result, err = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(code, 0, err)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_smoke_every_workload_prints_the_declared_metrics(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.run_clean(workload, 0)
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, declared)
                self.run_clean(workload, 1)

    def test_counts_repeat_exactly_between_traced_runs(self):
        counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (self.run_clean(workload, 1) for _ in range(2))
                for name in counted:
                    self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)

    def test_wrong_stored_digest_is_reported_as_a_failure(self):
        tree = copy_tree("wrong-digest", with_sources=True)
        digests = tree / "perfbench" / "digests.json"
        stored = json.loads(digests.read_text())
        op = sorted(stored["tiny"]["oracle"])[0]
        stored["tiny"]["oracle"][op] = "0" * 64
        digests.write_text(json.dumps(stored))
        try:
            code, result, err = bench("--workload", "oracle", cwd=tree, script=tree / "perfbench" / "run.py")
        finally:
            shutil.rmtree(tree)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(f"{op}: output digest differs from the stored one", err)

    def test_fails_without_the_package_sources(self):
        bare = copy_tree("bare", with_sources=False)
        try:
            code, result, _ = bench("--workload", WORKLOADS[0], cwd=bare, script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
