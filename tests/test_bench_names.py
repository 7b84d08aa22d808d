"""Every library name the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` resolves functions and methods by name when a
traced run starts; a renamed target would fail only there.  This test
resolves the same names without installing any wrapper.
"""

import importlib.util
from pathlib import Path

import pytest

import hypergroups.cli  # noqa: F401  (the tracer resolves names in every submodule)

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted({target for targets in tracing.TIMED_LAYERS.values() for target in targets}
                 | set(tracing.CALL_COUNTERS.values()))


@pytest.mark.parametrize("module_name,attr", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_target_resolves(module_name, attr):
    _, name, original = tracing._resolve(module_name, attr)
    assert callable(original)
    assert name == attr.rsplit(".", 1)[-1]
