"""The benchmark's tracer wraps epipool functions by name; keep those names alive."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in _layers().items() for n in names]
)
def test_every_traced_layer_is_a_function_of_its_module(module, name):
    fn = getattr(importlib.import_module(f"epipool.{module}"), name, None)
    assert inspect.isfunction(fn), f"perfbench traces epipool.{module}.{name}, which is gone"
