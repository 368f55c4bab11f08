"""Per-layer spans, recorded from outside the package.

The tracer replaces each public function named in LAYERS by a wrapper, at
every module binding that holds it: ``pooling`` and ``entailment`` import
``contains`` by name, so patching ``epipool.spaces.contains`` alone would
miss their calls. Spans stay in memory as flat arrays and are written as
gzip-compressed JSONL when the run ends, one object per line:

    name    "<module>.<function>", "cli.<subcommand>" or "bench.job"
    start   seconds since the tracer was created
    end     seconds since the tracer was created
    parent  0-based line number of the enclosing span, or null
    cell, phase, trials, witness_index    only where they apply

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS: dict[str, tuple[str, ...]] = {
    "verifier": (
        "principle_sweep",
        "falsify_counted",
        "oracle_equivalence_sweep",
        "clear_cut_grid_sweep",
        "weighted_roundtrip_sweep",
        "weighted_principle_sweep",
    ),
    "pooling": ("check_principle", "check_weighted_principle", "pool", "pool_many"),
    "spaces": ("encode", "decode", "contains", "make_space"),
    "entailment": ("psi", "gamma_q"),
    "logic": ("models", "parse_kb", "parse_formula", "oracle_entails"),
    "epistemic": ("kb_to_state", "state_entails"),
    "weighted": ("encode_weighted", "decode_weighted"),
    "files": ("dumps_vectors", "loads_vectors"),
    "numeric": ("parse_rational", "format_rational"),
    "svgplot": ("render_regions",),
}

# Sweeps return (trials, witness); their spans carry trials and witness_index.
SWEEPS = tuple(f"verifier.{name}" for name in LAYERS["verifier"])
# Calls whose arguments repeat; distinct_ratio = distinct argument tuples / calls.
DISTINCT = ("verifier.falsify_counted", "logic.models")
CLI_COMMANDS = ("encode", "pool", "decode", "query", "verify", "falsify", "report", "plot")
JOB = "bench.job"


def layer_functions() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for fn in layer_functions():
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.busy_ms"] = "ms"
        units[f"{fn}.self_ms"] = "ms"
    for fn in SWEEPS:
        units[f"{fn}.trials_per_s"] = "1/s"
    for fn in DISTINCT:
        units[f"{fn}.distinct_ratio"] = "ratio"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.calls"] = "count"
        units[f"cli.{cmd}.busy_ms"] = "ms"
    units["bench.layer_coverage"] = "ratio"
    units["bench.failed_share"] = "ratio"
    units["bench.machine_ref_ms"] = "ms"
    units["bench.trace_overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self.keys: dict[int, tuple] = {}
        self.stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        """A span recorded by the benchmark itself (a job, a CLI command)."""
        idx = self._open(self._name_id(name))
        if attrs:
            self.attrs[idx] = attrs
        t0 = time.perf_counter()
        try:
            yield idx
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        name_id = self._name_id(qualname)
        sweep = qualname in SWEEPS
        distinct = qualname in DISTINCT
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if sweep:
                trials, witness = result
                target = args[0]
                attrs = {"cell": getattr(target, "name", target), "trials": trials}
                if witness is not None:
                    attrs["witness_index"] = trials
                self.attrs[idx] = attrs
            if distinct:
                self.keys[idx] = (args, tuple(sorted(kwargs.items())))
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every LAYERS function at every epipool module binding."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "epipool" or name.startswith("epipool.")
        ]
        for module, names in LAYERS.items():
            home = sys.modules[f"epipool.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # --- output ---------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Write every span to ``path`` as gzip-compressed JSON lines."""
        origin = self.origin
        with gzip.open(path, "wt", compresslevel=1) as out:
            for idx in range(len(self.start)):
                parent = self.parent[idx]
                line = {
                    "name": self.names[self.name_of[idx]],
                    "start": round(self.start[idx] - origin, 7),
                    "end": round(self.end[idx] - origin, 7),
                    "parent": parent if parent >= 0 else None,
                }
                line.update(self.attrs.get(idx, {}))
                out.write(json.dumps(line) + "\n")

    def job_metrics(self, job: int) -> dict[str, float]:
        """Per-layer totals for the spans under one ``bench.job`` span."""
        stop = job + 1
        while stop < len(self.start) and self.parent[stop] != -1:
            stop += 1
        child_time: dict[int, float] = {}
        for idx in range(job + 1, stop):
            child_time[self.parent[idx]] = (
                child_time.get(self.parent[idx], 0.0) + self.end[idx] - self.start[idx]
            )
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        trials: dict[str, int] = {}
        keys: dict[str, set] = {}
        for idx in range(job + 1, stop):
            name = self.names[self.name_of[idx]]
            dur = self.end[idx] - self.start[idx]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time.get(idx, 0.0)
            if name in SWEEPS:
                trials[name] = trials.get(name, 0) + self.attrs[idx]["trials"]
            if idx in self.keys:
                keys.setdefault(name, set()).add(self.keys[idx])

        out: dict[str, float] = {}
        for fn in layer_functions():
            out[f"{fn}.calls"] = calls.get(fn, 0)
            out[f"{fn}.busy_ms"] = busy.get(fn, 0.0) * 1000
            out[f"{fn}.self_ms"] = own.get(fn, 0.0) * 1000
        for fn in SWEEPS:
            out[f"{fn}.trials_per_s"] = trials[fn] / busy[fn] if busy.get(fn) else 0.0
        for fn in DISTINCT:
            out[f"{fn}.distinct_ratio"] = len(keys[fn]) / calls[fn] if calls.get(fn) else 0.0
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.calls"] = calls.get(f"cli.{cmd}", 0)
            out[f"cli.{cmd}.busy_ms"] = busy.get(f"cli.{cmd}", 0.0) * 1000
        job_time = self.end[job] - self.start[job]
        out["bench.layer_coverage"] = child_time.get(job, 0.0) / job_time
        return out

    def jobs(self) -> list[int]:
        job_id = self._name_ids.get(JOB)
        return [
            idx
            for idx in range(len(self.start))
            if self.parent[idx] == -1 and self.name_of[idx] == job_id
        ]


def median_metrics(per_job: list[dict[str, float]], scale: list[float]) -> dict[str, float]:
    """Median over traced jobs; times are scaled by each job's speed factor."""
    out: dict[str, float] = {}
    for key in per_job[0]:
        values = []
        for metrics, factor in zip(per_job, scale):
            value = metrics[key]
            if key.endswith("_ms"):
                value *= factor
            elif key.endswith("trials_per_s"):
                value /= factor
            values.append(value)
        out[key] = statistics.median(values)
    return out
