"""The benchmark's workloads, run in process against their reference outputs.

``perfbench/workloads.py`` builds each workload and runs its operations, and
a benchmark pass refuses an operation whose observation differs from
``perfbench/reference.json``.  This test runs the same operations for one
seed and compares them the same way, so a change that alters an output
fails here, before any benchmark run.  The module is loaded read-only by
its path, as ``test_bench_names.py`` loads ``tracing.py``.

A traced pass wraps library functions for the whole process, so the traced
check runs in a subprocess.
"""

import importlib.util
import json
import os
import subprocess
import sys
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


# Installs the tracer over the imported library, runs one workload's
# operations at one seed, and prints each operation's reference mismatches
# and the traced layer metrics as one JSON object.
TRACED_PASS = """
import importlib.util, json, sys
from pathlib import Path

bench, seed, tmp, workload = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]


def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, bench / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")
import hypergroups

tracer = tracing.Tracer("traced-test")
tracing.install(tracer)
reference = json.loads((bench / "reference.json").read_text())
setup, ops_of, _ = workloads.SPECS[workload]
state = setup(hypergroups, seed, tmp)
problems = {name: workloads.compare(
    op(hypergroups, state), workloads.reference_entry(reference, workload, path))
    for name, path, op in ops_of(state)}
print(json.dumps({"problems": problems, "layers": tracer.layer_metrics()}))
"""


# per workload: its operation count and the traced layers that must read above zero
TRACED_LAYERS = {
    "witness-su2": (1, ("fourier.interval_a_norm_s", "segal.build_witness_s")),
    "generic-su2": (4, ("fourier.a_norm_su2_s", "core.check_axioms_s")),
    "finite-products": (5, ("core.check_axioms_s", "leptin.search_s",
                            "segal.build_witness_s")),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_matches_reference(workload, tmp_path):
    src = str(Path(hypergroups.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", TRACED_PASS, str(BENCH), str(SEED),
                           str(tmp_path), workload],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    n_ops, layers = TRACED_LAYERS[workload]
    assert result["problems"] == {name: [] for name in result["problems"]}
    assert len(result["problems"]) == n_ops
    for layer in layers:
        assert result["layers"][layer] > 0, layer
    if workload == "witness-su2":
        # one interval_product_l1 call per A-norm of the five stages, each accepted
        assert result["layers"]["su2num.quad_passes"] == 5
        assert result["layers"]["fourier.quad_accept_ratio"] == 1.0
