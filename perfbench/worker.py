"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only] [--cpu N]

Every pass starts cold, as a CLI user does: the fusion and Haar caches of
each ``Hypergroup``, ``su2num._GL_CACHE`` and ``WitnessSequence._a_cache``
are empty, and ``peak_rss_mb`` is this process's own peak.  The pass
imports ``hypergroups`` from the checkout's ``src/`` (never an installed
copy), builds the workload's state, runs and checks its operations, and
prints one JSON object on its last stdout line.

The worker pins itself to the core given by ``--cpu``, on which the runner
measures the host's speed while the pass runs (see ``run.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def import_library():
    sys.path.insert(0, str(SRC))
    import hypergroups
    import hypergroups.cli  # noqa: F401

    origin = Path(hypergroups.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"hypergroups imported from {origin}, not from {SRC}")
    return hypergroups


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def check_op(workload: str, reference: dict, ref_path: tuple, obs) -> list[str]:
    try:
        expected = workloads.reference_entry(reference, workload, ref_path)
    except KeyError:
        return [f"no reference value at {workload}/{'/'.join(ref_path)}"]
    return workloads.compare(obs, expected)


def run_ops(hg, workload: str, state: dict, reference: dict) -> tuple[list, dict]:
    """Run and check every operation; a raise or a reference mismatch fails it."""
    _, ops_of, _ = workloads.SPECS[workload]
    results, observations = [], {}
    for op_name, ref_path, fn in ops_of(state):
        try:
            obs = fn(hg, state)
        except Exception as exc:  # the operation failed; record and go on
            results.append({"op": op_name, "ok": False,
                            "problems": [f"raised {type(exc).__name__}: {exc}"],
                            "traceback": traceback.format_exc(limit=6)})
            continue
        observations[op_name] = obs
        problems = check_op(workload, reference, ref_path, obs)
        results.append({"op": op_name, "ok": not problems, "problems": problems})
    return results, observations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", default=str(BENCH_DIR / "reference.json"))
    parser.add_argument("--cpu", type=int, default=None, help="core to pin this pass to")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    reference = json.loads(Path(args.reference).read_text())
    setup_fn, _, fingerprint_fn = workloads.SPECS[args.workload]
    tracer = None
    t_import = time.perf_counter()
    hg = import_library()
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)
    tmp_dir = OUT_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    state = setup_fn(hg, args.seed, tmp_dir)
    t_setup = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed, "traced": args.trace,
              "setup_s": t_setup - t_import}
    if not args.setup_only:
        cpu0 = time.process_time()
        ops, observations = run_ops(hg, args.workload, state, reference)
        result["wall_s"] = time.perf_counter() - t_setup
        result["cpu_s"] = time.process_time() - cpu0
        result["ops"] = ops
        result["fingerprint"] = fingerprint_fn(state, observations)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        spans_path = OUT_DIR / "spans" / f"{tracer.run_id}.jsonl"
        tracer.write_spans(spans_path)
        result["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                           "count": len(tracer.spans)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
