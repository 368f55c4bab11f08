"""What the benchmark reads of epipool: the functions its tracer wraps by name,
and the golden report's sha256, which perfbench writes out."""

import hashlib
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden_report import GOLDEN_REPORT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_the_lazy_exports_are_no_traced_function():
    """The tracer swaps each LAYERS function at every binding that holds it and
    restores them all after; a lazy export cached while it was installed would
    keep the wrapper."""
    import epipool

    traced = {name for names in _layers().values() for name in names}
    assert not traced & set(epipool._LAZY)


def test_the_benchmarks_imports_load_every_traced_module(subprocess_env):
    """Tracer.install() looks up sys.modules["epipool.<layer>"] for each layer."""
    probe = (
        "import sys, epipool, epipool.cli, epipool.files, epipool.verifier; "
        f"print([m for m in {sorted(_layers())!r} if 'epipool.' + m not in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=subprocess_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("name", ["workloads.py", "README.md"])
def test_perfbenchs_golden_sha256_is_the_golden_files(name):
    """table-report checks the report at 0xEP00 against a sha256 that perfbench
    writes out in its workloads and its README; both must be the golden file's."""
    digest = hashlib.sha256(GOLDEN_REPORT.read_bytes()).hexdigest()
    text = (PERFBENCH / name).read_text()
    assert re.findall(r"\b[0-9a-f]{64}\b", text) == [digest]
