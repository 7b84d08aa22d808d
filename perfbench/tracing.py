"""Per-layer spans and counters, recorded by wrapping the library from outside.

The library has no instrumentation of its own, so the traced run replaces
public functions and methods with thin wrappers.  A wrapper goes on every
module namespace that binds the function (``cli.build_witness`` and
``segal.build_witness`` are the same object under two names), otherwise
calls made through the other name would escape the trace.

A span is ``(id, parent, name, start, end)`` with ``perf_counter`` times;
spans are kept in memory and written out when the pass ends.  A layer's
self time is the duration of its spans minus the time their child spans
cover.  Counters that fire millions of times (fusion lookups, character
multiplicities, Leptin ratios) are counted without a span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer metric -> functions whose self time it sums, as (module, attribute);
# "Class.method" attributes are wrapped on the class
TIMED_LAYERS = {
    "cli.self": [("cli", "run")],
    "segal.build_witness": [("segal", "build_witness")],
    "segal.chain_failures": [("segal", "WitnessSequence.chain_failures")],
    "segal.blowup_report": [("segal", "blowup_report")],
    "segal.check_multiplier_bounded": [("segal", "check_multiplier_bounded")],
    "leptin.search": [("leptin", "leptin_search_interval"),
                      ("leptin", "leptin_search_greedy"),
                      ("leptin", "leptin_search_exhaustive")],
    "fourier.bump": [("fourier", "bump")],
    "fourier.interval_a_norm": [("fourier", "Su2IntervalBump.a_norm")],
    "fourier.a_norm_su2": [("fourier", "a_norm_su2")],
    "fourier.a_norm_exact_finite": [("fourier", "a_norm_exact_finite")],
    "fourier.segal_power_sum": [("fourier", "Su2IntervalBump.segal_power_sum"),
                                ("fourier", "BumpFunction.segal_power_sum")],
    "su2num.linearize": [("su2num", "linearized_interval_product")],
    "su2num.kernel_roots": [("su2num", "kernel_roots")],
    "su2num.piecewise_gauss": [("su2num", "piecewise_gauss")],
    "su2num.u_series_roots": [("su2num", "u_series_roots_theta")],
    "core.check_axioms": [("core", "check_axioms")],
    "core.convolve_h": [("core", "convolve_h")],
    "core.support_product": [("core", "support_product")],
    "duals.character_table": [("duals", "ProductDual.character_table")],
    "duals.table_build": [("duals", "builtin_table"),
                          ("duals", "parse_character_table"),
                          ("duals", "load_character_table"),
                          ("duals", "finite_group_dual"),
                          ("duals", "product_dual"),
                          ("duals", "su2_dual")],
}

# counter -> the function whose calls it counts
CALL_COUNTERS = {
    "su2num.kernel_roots_calls": ("su2num", "kernel_roots"),
    "su2num.quad_passes": ("su2num", "interval_product_l1"),
    "duals.character_table_calls": ("duals", "ProductDual.character_table"),
    "duals.multiplicity_calls": ("duals", "CharacterTable.multiplicity"),
    "leptin.ratio_calls": ("leptin", "leptin_ratio"),
}

COUNT_METRICS = (
    "su2num.kernel_roots_calls", "su2num.quad_nodes", "su2num.quad_passes",
    "core.fuse_calls", "core.fuse_misses", "duals.character_table_calls",
    "duals.multiplicity_calls", "leptin.ratio_calls",
)
RATIO_METRICS = ("fourier.quad_accept_ratio", "core.fuse_hit_ratio")


class Tracer:
    """Spans and counters of one traced pass, all held in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.counts["fourier.interval_a_norm_accepted"] = 0
        self._open: list[int] = []

    def span(self, name: str, fn, on_return=None):
        spans, open_ids = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [sid, open_ids[-1] if open_ids else None, name, time.perf_counter(), None]
            spans.append(record)
            open_ids.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                open_ids.pop()
            if on_return is not None:
                on_return(args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn, amount=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for sid, _, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child[sid]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        self_times = self.self_times()
        metrics: dict[str, float] = {f"{layer}_s": self_times.get(layer, 0.0)
                                     for layer in TIMED_LAYERS}
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        passes = self.counts["su2num.quad_passes"]
        metrics["fourier.quad_accept_ratio"] = (
            self.counts["fourier.interval_a_norm_accepted"] / passes if passes else 0.0)
        calls = self.counts["core.fuse_calls"]
        metrics["core.fuse_hit_ratio"] = (
            (calls - self.counts["core.fuse_misses"]) / calls if calls else 0.0)
        return metrics

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _resolve(module_name: str, attr: str):
    module = sys.modules[f"hypergroups.{module_name}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        return cls, method, cls.__dict__[method]
    return None, attr, getattr(module, attr)


def _rebind(original, replacement) -> int:
    """Point every hypergroups namespace binding ``original`` at ``replacement``."""
    rebound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "hypergroups" and not mod_name.startswith("hypergroups."):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                rebound += 1
    return rebound


def _install(target: tuple[str, str], make_wrapper) -> None:
    cls, name, original = _resolve(*target)
    wrapper = make_wrapper(original)
    if cls is not None:
        setattr(cls, name, wrapper)
    elif _rebind(original, wrapper) == 0:
        raise RuntimeError(f"no namespace binds hypergroups.{target[0]}.{target[1]}")


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported ``hypergroups`` package."""
    import hypergroups.cli  # noqa: F401  (cli binds many names; load it first)
    from hypergroups.core import Hypergroup

    counts = tracer.counts

    # counters first, so that a span wrapper installed later encloses them
    for counter, target in CALL_COUNTERS.items():
        _install(target, lambda fn, c=counter: tracer.counter(c, fn))

    original_fuse = Hypergroup.fuse

    def fuse(self, x, y):
        counts["core.fuse_calls"] += 1
        if (x, y) not in self._fusion_cache:
            counts["core.fuse_misses"] += 1
        return original_fuse(self, x, y)

    Hypergroup.fuse = fuse

    def accepted(args, kwargs):
        counts["fourier.interval_a_norm_accepted"] += 1

    def gauss_nodes(args, kwargs):
        breakpoints = args[1] if len(args) > 1 else kwargs["breakpoints"]
        order = args[2] if len(args) > 2 else kwargs["order"]
        counts["su2num.quad_nodes"] += (len(breakpoints) - 1) * order

    hooks = {("fourier", "Su2IntervalBump.a_norm"): accepted,
             ("su2num", "piecewise_gauss"): gauss_nodes}
    for layer, targets in TIMED_LAYERS.items():
        for target in targets:
            _install(target, lambda fn, l=layer, t=target: tracer.span(l, fn, hooks.get(t)))
