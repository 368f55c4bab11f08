"""epipool benchmark: run one workload once and print one JSON result line.

Run from the repository root; the package is imported from ./src, nothing
needs installing:

    python3 perfbench/run.py --workload table-report --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of stdout is the result; diagnostics go to
stderr. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gauge import Gauge, Stopwatch, Unscaled, percentile
from spans import JOB, Tracer, median_metrics

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("table-report", "kb-queries", "cli-session")
SETUP_PROBES = 15
SETUP_TIMEOUT_S = 60


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str, env: dict, gauge) -> list[float]:
    """Scaled wall seconds of SETUP_PROBES fresh interpreters, one at a time."""
    times = []
    watch = Stopwatch(gauge)
    for _ in range(SETUP_PROBES):
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            env=env,
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(watch.lap())
    return times


def run_job(workload, inp, gauge, tracer, tally, inner_gauge=None):
    """One job, checked; returns (Timed, scaled wall seconds) or None if it raised.

    ``inner_gauge`` scales the job's own operations; by default ``gauge``.
    """
    watch = Stopwatch(gauge)
    try:
        timed = workload.run(inp, inner_gauge or gauge, tracer)
    except Exception:
        # A defect in the program: the run stops and reports it as failed.
        traceback.print_exc()
        tally.record(False, f"{workload.name} job raised")
        return None
    wall = watch.lap()
    workload.check(inp, timed.output, tally)
    timed.output = None  # checked; keep only the timings
    return timed, wall


def end_to_end(workload, seconds: int, env: dict, gauge, tally) -> dict[str, float]:
    setups = measure_setup(workload.name, env, gauge)
    jobs = []
    ops = 0
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline or ops < workload.min_ops:
        done = run_job(workload, workload.inputs(len(jobs)), gauge, None, tally)
        if done is None:
            break
        jobs.append(done[0])
        ops += len(done[0].ops_ms)
    if not jobs:
        raise RuntimeError("no job completed")
    latencies = workload.op_latencies(jobs)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    print(
        f"perfbench: {len(jobs)} jobs, {ops} operations, "
        f"machine_ref_ms median {gauge.machine_ref_ms():.3f}",
        file=sys.stderr,
    )
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "job_s": statistics.median(job.job_s for job in jobs),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
    }


def per_layer(workload, seconds: int, gauge, tally) -> dict[str, float]:
    """Pairs of one untraced and one traced in-process job, for --seconds."""
    from workloads import NullTracer

    tracer = Tracer()
    per_job, scales, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        inp = workload.inputs(index)
        index += 1
        plain = run_job(workload, inp, gauge, NullTracer(), tally, Unscaled())
        if plain is None:
            break
        watch = Stopwatch(gauge)
        tracer.install()
        try:
            with tracer.span(JOB, phase="traced") as job:
                timed = workload.run(inp, Unscaled(), tracer)
        finally:
            tracer.uninstall()
        traced = watch.lap()
        workload.check(inp, timed.output, tally)
        per_job.append(tracer.job_metrics(job))
        scales.append(watch.factor)
        overheads.append(traced - plain[1])
    if not per_job:
        raise RuntimeError("no job completed")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(str(out_dir / f"{workload.name}.trace.jsonl.gz"))
    metrics = median_metrics(per_job, scales)
    metrics["bench.trace_overhead_s"] = statistics.median(overheads)
    metrics["bench.machine_ref_ms"] = gauge.machine_ref_ms()
    metrics["bench.failed_share"] = tally.failed / tally.attempted
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "epipool" / "__init__.py").is_file():
        print("perfbench: ./src/epipool not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    # Cache epipool's bytecode before any child interpreter is timed.
    sys.dont_write_bytecode = False
    import epipool

    if not Path(epipool.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported epipool from {epipool.__file__}, not ./src", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Tally, child_env

    env = child_env()
    # One CPU for the run and its children, so the gauge times the CPU the
    # measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = Gauge()
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, HERE / "out" / f"cli-{os.getpid()}")
    try:
        if args.trace:
            metrics = per_layer(workload, args.seconds, gauge, tally)
        else:
            metrics = end_to_end(workload, args.seconds, env, gauge, tally)
    finally:
        workload.close()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(
            f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
            file=sys.stderr,
        )
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
