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


def test_table_report_makes_35_calls_through_the_traced_sweeps(monkeypatch):
    """table-report's operations are these calls, so their count is pinned."""
    import epipool.verifier as verifier

    calls = dict.fromkeys(_layers()["verifier"], 0)

    def counted(name, fn):
        def sweep(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return sweep

    for name in calls:
        monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
    verifier.table_report()
    assert calls == {
        "principle_sweep": 8,
        "falsify_counted": 13,
        "oracle_equivalence_sweep": 5,
        "clear_cut_grid_sweep": 3,
        "weighted_roundtrip_sweep": 2,
        "weighted_principle_sweep": 4,
    }
    assert sum(calls.values()) == 35
