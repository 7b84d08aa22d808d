"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

1. Every value in ``reference.json`` is perturbed in turn, and the check
   must report the perturbed copy as a mismatch.  A float that carries a
   quadrature tolerance must still pass when moved by half that tolerance,
   so that a legitimate quadrature change is not a failure.
2. One short ``generic-su2`` run against a reference with a wrong axiom
   count must come back with ``correct: false`` and a failed operation.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import FLOAT_TOLERANCES, WORKLOADS, compare  # noqa: E402


def leaves(node, path=()):
    """(path, key, value) for every scalar in a reference tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from leaves(v, path + (i,))
    else:
        key = next((p for p in reversed(path) if isinstance(p, str)), "")
        yield path, key, node


def set_at(tree, path, value):
    for part in path[:-1]:
        tree = tree[part]
    tree[path[-1]] = value


def perturbed(value, key):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        kind, amount = FLOAT_TOLERANCES.get(key, ("rel", 0.0))
        step = amount if kind == "abs" else amount * abs(value)
        return value + max(10 * step, abs(value) * 1e-9, 1e-300)
    if isinstance(value, str) and "/" in value:
        return str(Fraction(value) + Fraction(1, 10**9))
    return f"{value}-perturbed"


def check_reference_perturbations(reference: dict) -> list[str]:
    errors, count = [], 0
    for workload in WORKLOADS:
        tree = reference[workload]
        if compare(tree, tree):
            errors.append(f"{workload}: reference does not match itself")
        for path, key, value in leaves(tree):
            count += 1
            bad = copy.deepcopy(tree)
            set_at(bad, path, perturbed(value, key))
            if not compare(bad, tree):
                errors.append(f"{workload}/{path}: perturbation of {value!r} not detected")
            if isinstance(value, float) and key in FLOAT_TOLERANCES:
                kind, amount = FLOAT_TOLERANCES[key]
                near = copy.deepcopy(tree)
                step = amount if kind == "abs" else amount * abs(value)
                set_at(near, path, value + 0.5 * step)
                if compare(near, tree):
                    errors.append(f"{workload}/{path}: in-tolerance change rejected")
        for path, _, _ in leaves(tree):
            if len(path) > 1 and isinstance(path[-1], int):
                short = copy.deepcopy(tree)
                parent = short
                for part in path[:-1]:
                    parent = parent[part]
                parent.pop()
                if not compare(short, tree):
                    errors.append(f"{workload}/{path[:-1]}: shortened list not detected")
                break
    print(f"perturbed {count} reference values one at a time: "
          f"{'all detected' if not errors else f'{len(errors)} problems'}")
    return errors


def check_end_to_end(reference: dict) -> list[str]:
    bad = copy.deepcopy(reference)
    bad["generic-su2"]["axioms"]["checks"]["associativity"] += 1
    tmp = ROOT / ".perfbench" / "tmp" / "perturbed-reference.json"
    tmp.parent.mkdir(parents=True, exist_ok=True)
    tmp.write_text(json.dumps(bad))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "generic-su2",
             "--seed", "1", "--seconds", "1", "--trace", "0", "--record", "",
             "--reference", str(tmp)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
    finally:
        tmp.unlink(missing_ok=True)
    if proc.returncode != 0:
        return [f"perturbed run exited with {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"run against a perturbed reference: correct={result['correct']}, "
          f"failed {result['failed']} of {result['attempted']}, "
          f"ok_rate {result['metrics']['ok_rate']['value']}")
    errors = []
    if result["correct"] or result["failed"] < 1 or result["metrics"]["ok_rate"]["value"] >= 1:
        errors.append("a perturbed reference was not reported as a failure")
    if "FAILED generic-su2 core.check_axioms" not in proc.stdout:
        errors.append("the failed operation is not named in the run's report")
    return errors


def main() -> int:
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    errors = check_reference_perturbations(reference) + check_end_to_end(reference)
    for error in errors:
        print(f"SELFTEST FAILED: {error}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
