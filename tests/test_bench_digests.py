"""The benchmark's bit-identity gate, run once in Tier-1.

perfbench/run.py hashes each operation's outputs and compares the digest with
perfbench/digests.json; a moved bit there is reported only when the benchmark
runs.  This test builds every workload at the default seed and full size,
runs each operation once in order, and requires its verdict and its stored
digest, so the same moved bit fails here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from test_golden_bits import require_default_environment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
STORED = json.loads((PERFBENCH / "digests.json").read_text())["full"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_full_size_operation_gives_its_stored_digest(name, tmp_path):
    require_default_environment()
    ops = workloads.WORKLOADS[name].build(0, False, str(tmp_path))
    assert sorted(op.name for op in ops) == sorted(STORED[name])
    failed = []
    for op in ops:
        ok, outputs = op.run()
        if not ok or workloads.digest(outputs) != STORED[name][op.name]:
            failed.append((op.name, "wrong verdict" if not ok else "digest moved"))
    assert not failed
