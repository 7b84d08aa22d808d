"""The benchmark's workloads, run in process against their reference outputs.

``perfbench/workloads.py`` builds each workload and runs its operations, and
a benchmark pass refuses an operation whose observation differs from
``perfbench/reference.json``.  This test runs the same operations for one
seed and compares them the same way, so a change that alters an output
fails here, before any benchmark run.  The module is loaded read-only by
its path, as ``test_bench_names.py`` loads ``tracing.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import hypergroups
import hypergroups.cli  # noqa: F401  (the witness workload runs the CLI)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
REFERENCE = json.loads((BENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_matches_reference(workload, tmp_path):
    setup, ops_of, _ = workloads.SPECS[workload]
    state = setup(hypergroups, SEED, tmp_path)
    for op_name, ref_path, op in ops_of(state):
        expected = workloads.reference_entry(REFERENCE, workload, ref_path)
        assert workloads.compare(op(hypergroups, state), expected) == [], op_name
