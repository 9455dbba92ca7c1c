"""The benchmark's tracer wraps library functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _library_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LIBRARY_TARGETS


@pytest.mark.parametrize("module,attribute", _library_targets())
def test_target_resolves(module, attribute):
    obj = importlib.import_module(f"wittenzeta.{module}")
    for name in attribute.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
