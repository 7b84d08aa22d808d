"""Regenerate ``reference.json`` from the library as it is now.

    python3 perfbench/make_reference.py

Run it only when an output is meant to change, and review the diff: the
benchmark counts every operation that disagrees with this file as failed.
Every ``K`` a seed can pick is covered, so any seed checks against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from worker import OUT_DIR, import_library  # noqa: E402


def build() -> dict:
    hg = import_library()
    tmp_dir = OUT_DIR / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        setup_fn, ops_of, _ = workloads.SPECS[workload]
        tree = reference.setdefault(workload, {})
        for key in workloads.all_keys(workload, hg):
            state = setup_fn(hg, 0, tmp_dir)
            if key is not None:
                state["K"] = [tuple(x) if isinstance(x, list) else x for x in key]
            for op_name, ref_path, fn in ops_of(state):
                node = tree
                for part in ref_path[:-1]:
                    node = node.setdefault(part, {})
                if ref_path[-1] in node:
                    continue  # an operation that does not depend on K
                node[ref_path[-1]] = fn(hg, state)
                print(f"{workload} {op_name} {'/'.join(ref_path)}", file=sys.stderr)
    return reference


def main() -> int:
    reference = build()
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
