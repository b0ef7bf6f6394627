"""The benchmark tracer's wrap list still names functions the package calls by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, attr, callers",
                         [entry[:3] for entry in traced_entries()])
def test_traced_function_is_bound_by_each_caller(module_name, attr, callers):
    """A deleted or renamed function, or a caller that stopped importing it,
    would leave the tracer a 'no binding' line and a counter reading 0."""
    fn = getattr(importlib.import_module("squintsim." + module_name), attr, None)
    assert callable(fn), f"squintsim.{module_name} has no function {attr}"
    for caller in callers:
        bound = getattr(importlib.import_module("squintsim." + caller), attr, None)
        assert bound is fn, f"squintsim.{caller} does not bind {module_name}.{attr}"
