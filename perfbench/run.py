"""Benchmark runner: run one workload for a while, or compare two result sets.

Run (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run is a closed loop of passes, one after another, each in a fresh
interpreter (``worker.py``) so that every pass starts with cold caches.  It
starts passes until ``--seconds`` have elapsed, never starting one that
would end past 1.5 x ``--seconds``.  Only one worker runs at a time.

Host speed.  On a shared host, other tenants' load makes each core run up
to ~1.8x slower for stretches of a fraction of a second to minutes, and
the two cores of a 2-core host do so independently.  The worker is pinned
to one core and runs BLAS single-threaded, and a probe thread of this
runner, pinned to the same core, times a fixed ~1 ms loop every 50 ms while
the worker runs.  Its median over PROBE_REF_S is the core's slowdown d.
A share f of a pass slows down with the core and the rest does not, so
``wall_s`` is the raw time scaled back to a reference core,
``raw / (f * d + 1 - f)``; ``setup_s`` uses f = 1.  The raw times are
recorded beside the scaled ones.  The probe never calls the library, so a
slower library still reads slower, and its own load (~2% of the core) is
the same on every commit.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each iteration runs an untraced
pass and then a traced one, and the last line reports the per-layer
metrics.  Every run is also appended, with its problem-size fingerprint,
to the ``--record`` file, which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

sys.path.insert(0, str(BENCH_DIR))
from tracing import COUNT_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0     # a run must exit within 180 s
MIN_SETUP_SAMPLES = 9    # setup_s is the median of at least this many set-ups
OVERSHOOT = 1.5          # never start a pass predicted to end past this x --seconds
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.001      # probe_loop's time on an uncontended core of the reference host

# The share f of each workload's pass time that slows down with its core.
# The exact workloads are interpreter work throughout.  witness-su2 spends
# about half its time streaming numpy arrays larger than the caches, which
# core contention does not slow; f = 0.5 minimised the run-to-run spread of
# its wall_s over ten runs on the reference host (f = 1 left it at 0.15).
CORE_BOUND_SHARE = {"witness-su2": 0.5, "generic-su2": 1.0, "finite-products": 1.0}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the worker has one core
    return env


def probe_loop() -> float:
    """A fixed ~1 ms of the interpreter work the passes do: Fractions and dicts."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i * i
    return time.perf_counter() - t0


class Probe:
    """Times ``probe_loop`` on one core, every PROBE_INTERVAL_S, until stopped."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # pins this thread only
        while not self._stop.is_set():
            self.samples.append(probe_loop())
            self._stop.wait(PROBE_INTERVAL_S)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Measured probe time over its reference time: 1 on a reference core."""
        return statistics.median(self.samples) / PROBE_REF_S


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float, reference: str):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.reference = reference
        self.env = worker_env()
        self.cpu = max(os.sched_getaffinity(0))

    def pass_(self, *, trace: bool = False, setup_only: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("run budget exhausted before a pass could start")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--reference", self.reference,
               "--cpu", str(self.cpu)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        try:
            with Probe(self.cpu) as probe:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                      text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the run budget: {' '.join(cmd)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}\n"
                             f"{proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        d = result["slowdown"] = probe.slowdown()
        f = CORE_BOUND_SHARE[self.workload]
        result["raw"] = {k: result[k] for k in ("setup_s", "wall_s") if k in result}
        result["setup_s"] /= d
        if "wall_s" in result:
            result["wall_s"] /= f * d + 1 - f
        return result


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, with its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    hi = high_percentile(values)
    hi_text = (f"p{hi[0]:.0f} {hi[1]:.6g}" if hi else
               "no percentile has 10 samples above it (needs n >= 11)")
    return (f"  {name:<13} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"n={len(values)}  {hi_text}")


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: str) -> dict:
    start = time.monotonic()
    runner = Runner(workload, seed, start + RUN_BUDGET_S, reference)
    runner.pass_(setup_only=True)  # byte-compiles and warms the file cache
    loop_start = time.monotonic()
    passes, traced, step = [], [], 0.0
    while True:
        t0 = time.monotonic()
        passes.append(runner.pass_())
        if trace:
            traced.append(runner.pass_(trace=True))
        now = time.monotonic()
        step = max(step, now - t0)
        elapsed = now - loop_start
        if (elapsed >= seconds or elapsed + step > OVERSHOOT * seconds
                or now + step > runner.deadline):
            break
    setups = list(passes)
    probe_s = 0.0
    while len(setups) < MIN_SETUP_SAMPLES:
        t0 = time.monotonic()
        if t0 + 2 * max(probe_s, 1.0) > runner.deadline:
            break
        setups.append(runner.pass_(setup_only=True))
        probe_s = max(probe_s, time.monotonic() - t0)
    return {"passes": passes, "traced": traced, "setups": setups,
            "elapsed_s": time.monotonic() - start}


def summarize(workload: str, seed: int, seconds: float, trace: bool,
              data: dict, spec: dict) -> tuple[dict, list[str]]:
    passes, traced = data["passes"], data["traced"]
    all_passes = passes + traced
    ops = [op for p in all_passes for op in p["ops"]]
    failed_ops = [op for op in ops if not op["ok"]]
    notes = [f"{p['workload']} {op['op']}: {problem}"
             for p in all_passes for op in p["ops"] if not op["ok"]
             for problem in op["problems"][:3]]

    fingerprints = {json.dumps(p["fingerprint"], sort_keys=True) for p in all_passes}
    if len(fingerprints) > 1:
        notes.append(f"problem-size fingerprint differs between passes: {sorted(fingerprints)}")

    walls = [p["wall_s"] for p in passes]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(p["setup_s"] for p in data["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_rate": (len(ops) - len(failed_ops)) / len(ops),
    }
    layers: dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            # counts repeat exactly, so median_low keeps them whole numbers
            median = statistics.median_low if name in COUNT_METRICS else statistics.median
            layers[name] = median(t["layers"][name] for t in traced)
        layers["bench.trace_overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced) - end_to_end["wall_s"])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else end_to_end
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    environment = passes[0]["environment"]
    record = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not failed_ops and len(fingerprints) == 1,
        "attempted": len(ops), "failed": len(failed_ops),
        "error_rate": len(failed_ops) / len(ops),
        "metrics": metrics,
        "end_to_end": end_to_end,
        "layers": layers,
        "samples": {"wall_s": walls, "setup_s": [p["setup_s"] for p in data["setups"]],
                    "raw_wall_s": [p["raw"]["wall_s"] for p in passes],
                    "raw_setup_s": [p["raw"]["setup_s"] for p in data["setups"]],
                    "slowdown": [p["slowdown"] for p in data["setups"]],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                    "cpu_s": [p["cpu_s"] for p in passes],
                    "traced_wall_s": [t["wall_s"] for t in traced]},
        "fingerprint": {"problem": passes[0]["fingerprint"],
                        "python": environment["python"], "numpy": environment["numpy"],
                        "nproc": len(os.sched_getaffinity(0)),
                        "blas_threads": environment["blas_threads"]},
        "threads": {"workers_at_once": 1, "worker_cpus": environment["cpus"],
                    "blas_threads": environment["blas_threads"],
                    "env": environment["thread_env"],
                    "runner": "main thread waits; one probe thread on the worker's core"},
        "spans": [t["spans"] for t in traced],
        "elapsed_s": data["elapsed_s"],
    }
    return record, notes


def report(record: dict, notes: list[str]) -> None:
    s = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  {len(s['wall_s'])} untraced + "
          f"{len(s['traced_wall_s'])} traced passes in {record['elapsed_s']:.1f} s")
    print(describe("wall_s", "s", s["wall_s"]))
    print(describe("raw_wall_s", "s", s["raw_wall_s"]))
    print(describe("setup_s", "s", s["setup_s"]))
    print(describe("raw_setup_s", "s", s["raw_setup_s"]))
    print(describe("slowdown", "x", s["slowdown"]))
    print(describe("peak_rss_mb", "MB", s["peak_rss_mb"]))
    print(f"  {'error_rate':<13} {record['error_rate']:.6g}  "
          f"({record['failed']} of {record['attempted']} operations failed; "
          f"ok_rate {record['end_to_end']['ok_rate']:.6g})")
    if record["layers"]:
        print("  per-layer (median over traced passes):")
        for name, value in record["layers"].items():
            print(f"    {name:<36} {value:.6g}")
    print(f"  fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"  threads {json.dumps(record['threads'], sort_keys=True)}")
    for note in notes:
        print(f"  FAILED {note}")


def run_mode(args: argparse.Namespace) -> int:
    spec = load_spec()
    data = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.reference)
    record, notes = summarize(args.workload, args.seed, args.seconds, bool(args.trace),
                              data, spec)
    report(record, notes)
    if args.record:
        path = Path(args.record)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------


def load_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pair_runs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs of the same seed, in the order they were recorded."""
    by_seed: dict[int, list[dict]] = {}
    for rec in new:
        by_seed.setdefault(rec["seed"], []).append(rec)
    pairs = []
    for rec in base:
        if by_seed.get(rec["seed"]):
            pairs.append((rec, by_seed[rec["seed"]].pop(0)))
    return pairs


def verdict(metric: dict, a: list[float], b: list[float],
            pairs: list[tuple[float, float]]) -> str:
    lower = metric["better"] == "lower"
    q1a, meda, q3a = quartiles(a)
    q1b, medb, q3b = quartiles(b)
    improves = (lambda x, y: y < x) if lower else (lambda x, y: y > x)
    wins = sum(improves(x, y) for x, y in pairs)
    spread = max((q3a - q1a) / meda if meda else 0.0, (q3b - q1b) / medb if medb else 0.0)
    all_better = all(improves(x, y) for x in a for y in b)
    worse_by = (medb - meda) / meda if meda else 0.0
    if not lower:
        worse_by = -worse_by
    if spread > metric["bound"] and not all_better:
        return "unresolved (spread exceeds bound)"
    if improves(meda, medb) and wins >= 0.9 * len(pairs) and abs(medb - meda) > q3a - q1a:
        return f"better (wins {wins}/{len(pairs)})"
    if worse_by > metric["bound"]:
        return f"WORSE by {worse_by:.1%} (bound {metric['bound']:.0%})"
    return f"no change beyond bound (wins {wins}/{len(pairs)})"


def compare_mode(base_path: str, new_path: str) -> int:
    spec = load_spec()
    base, new = load_records(base_path), load_records(new_path)
    status = 0
    for workload in WORKLOADS:
        pairs = pair_runs([r for r in base if r["workload"] == workload and not r["trace"]],
                          [r for r in new if r["workload"] == workload and not r["trace"]])
        if not pairs:
            continue
        mismatched = [(a["seed"], a["fingerprint"], b["fingerprint"]) for a, b in pairs
                      if a["fingerprint"] != b["fingerprint"]]
        if mismatched:
            seed, fa, fb = mismatched[0]
            print(f"{workload}: REFUSED, fingerprints differ at seed {seed}:\n"
                  f"  base {json.dumps(fa, sort_keys=True)}\n  new  {json.dumps(fb, sort_keys=True)}")
            status = 3
            continue
        print(f"{workload}: {len(pairs)} paired runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [p[0]["end_to_end"][name] for p in pairs]
            b = [p[1]["end_to_end"][name] for p in pairs]
            q1a, meda, q3a = quartiles(a)
            q1b, medb, q3b = quartiles(b)
            delta = (medb - meda) / meda if meda else 0.0
            print(f"  {name:<12} base {meda:.6g} [{q1a:.6g}, {q3a:.6g}]  "
                  f"new {medb:.6g} [{q1b:.6g}, {q3b:.6g}] {metric['unit']}  "
                  f"{delta:+.1%}  {verdict(metric, a, b, list(zip(a, b)))}")
        for side, runs in (("base", [p[0] for p in pairs]), ("new", [p[1] for p in pairs])):
            pooled = [w for r in runs for w in r["samples"]["wall_s"]]
            hi = high_percentile(pooled)
            hi_text = f"p{hi[0]:.0f} {hi[1]:.6g} s" if hi else "no percentile with 10 above"
            print(f"    {side} wall_s over {len(pooled)} passes: median "
                  f"{statistics.median(pooled):.6g} s, {hi_text}")
        traced_a = [r["layers"] for r in base if r["workload"] == workload and r["trace"]]
        traced_b = [r["layers"] for r in new if r["workload"] == workload and r["trace"]]
        if traced_a and traced_b:
            print("    per-layer medians (base -> new):")
            for m in spec["per_layer"]:
                va = statistics.median(t[m["name"]] for t in traced_a)
                vb = statistics.median(t[m["name"]] for t in traced_b)
                if va or vb:
                    print(f"      {m['name']:<36} {va:.6g} -> {vb:.6g} {m['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=str(ROOT / ".perfbench" / "results.jsonl"),
                        help="append each run's record here ('' to skip)")
    parser.add_argument("--reference", default=str(BENCH_DIR / "reference.json"),
                        help="reference values the outputs are checked against")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_mode(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        return run_mode(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
