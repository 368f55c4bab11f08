"""The three workloads: what each job runs, how it is timed, how it is checked.

A workload's ``run(inputs, gauge, tracer)`` performs one job and returns its
timings, already scaled by the gauge. ``check`` runs outside the timed region
and records one verdict per operation in a Tally. epipool functions are always
looked up on the package at call time (``ep.psi``, never a local alias), so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from gauge import Stopwatch
from spans import LAYERS

import epipool as ep
import epipool.cli
import epipool.files
import epipool.verifier
from epipool.files import NamedVector

# Report JSON sha256 at the default plan and the default seed 0xEP00.
GOLDEN_SEED = int("EP00", 36)
GOLDEN_REPORT_SHA256 = "0e894a5d566529de0a446f4e5885d582febdbd4a5ec3c259dacc8555a645f49a"

CLI_TIMEOUT_S = 170
# table_report is timed in pieces cut at each call of the verifier's sweep
# functions, with three loop passes per cut.
SWEEP_GAUGE_PASSES = 3


def child_env() -> dict[str, str]:
    """Environment of the benchmark's child interpreters: epipool from ./src
    with its bytecode cached, as an installed package has it, and no
    EPIPOOL_SEED override."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("EPIPOOL_SEED", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(Path(ep.__file__).resolve().parent.parent)
    return env


class Tally:
    """Operations attempted and failed; the first failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: check failed: {what}", file=sys.stderr)


@dataclass
class Timed:
    """One job: its headline time, its operation latencies, its raw output."""

    job_s: float
    ops_ms: list[float]
    output: object


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    min_ops = 0  # a run keeps going past --seconds until it has this many operations

    def op_latencies(self, jobs: list[Timed]) -> list[float]:
        """The operation latencies the percentiles are taken over."""
        return [ms for job in jobs for ms in job.ops_ms]

    def close(self) -> None:
        pass


class NullTracer:
    """Stands in for a Tracer on in-process runs that are not traced."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


# --- table-report ---------------------------------------------------------------


class TableReport(Workload):
    """The paper's full verdict: table_report at the default plan, 55 cells.

    Job 0 runs at the default seed so the golden hash is checked every run;
    later jobs run at plan seeds drawn from the run seed. Operations are the
    report's verifier sweeps (35 calls), each timed around the call.
    """

    name = "table-report"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def inputs(self, index: int) -> int:
        return GOLDEN_SEED if index == 0 else inputs.report_seed(self.seed, index)

    def run(self, plan_seed: int, gauge, tracer=None) -> Timed:
        plan = ep.TrialPlan(seed=plan_seed)
        watch = Stopwatch(gauge, SWEEP_GAUGE_PASSES)
        ops: list[float] = []

        def lapped(fn):
            def sweep(*args, **kwargs):
                watch.lap()
                result = fn(*args, **kwargs)
                ops.append(watch.lap() * 1000)
                return result

            return sweep

        originals = {name: getattr(ep.verifier, name) for name in LAYERS["verifier"]}
        for name, fn in originals.items():
            setattr(ep.verifier, name, lapped(fn))
        try:
            report = ep.table_report(plan)
        finally:
            for name, fn in originals.items():
                setattr(ep.verifier, name, fn)
        watch.lap()
        return Timed(watch.total, ops, report.to_json() if report.all_as_expected else None)

    def op_latencies(self, jobs: list[Timed]) -> list[float]:
        """Each sweep at its median over the run's reports.

        The sweeps fall into a few tight groups (the four weighted-principle
        sweeps alone are the top tenth), so pooling raw samples from several
        reports would put a percentile on a group boundary, where it jumps
        with every slow report; per-sweep medians keep it put.
        """
        return [statistics.median(sweep) for sweep in zip(*(job.ops_ms for job in jobs))]

    def check(self, plan_seed: int, output, tally: Tally) -> None:
        if output is None:
            tally.record(False, f"report at seed {plan_seed} has unexpected cells")
        elif plan_seed == GOLDEN_SEED:
            digest = hashlib.sha256(output.encode()).hexdigest()
            tally.record(digest == GOLDEN_REPORT_SHA256, f"golden report sha256 is {digest}")
        else:
            tally.record(True, "")


# --- kb-queries -----------------------------------------------------------------


@dataclass
class RoundOutput:
    space: object
    vectors: tuple
    pooled: object
    state: object
    answers: list = field(default_factory=list)  # (formula, verdict)


class KbQueries(Workload):
    """Pool random CNF knowledge bases at n = 2^m, then query them with psi.

    job_s is the KB pipeline of one cycle (parse_kb, kb_to_state, encode, pool,
    decode over 12 rounds); operations are queries, one formula text parsed
    and answered by psi.
    """

    name = "kb-queries"
    min_ops = 200

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def inputs(self, index: int) -> list:
        return inputs.kb_cycle(self.seed, index)

    def run(self, rounds: list, gauge, tracer=None) -> Timed:
        pipeline_s = 0.0
        ops: list[float] = []
        outputs = []
        perf = time.perf_counter
        watch = Stopwatch(gauge)
        for rnd in rounds:
            kbs = [ep.parse_kb(text) for text in rnd.kbs]
            atoms = kbs[0].atoms
            space = ep.make_space(rnd.space, properties=ep.PropertySpace.logical(atoms))
            vectors = tuple(ep.encode(space, ep.kb_to_state(kb)) for kb in kbs)
            pooled = ep.pool(space.operator, *vectors)
            state = ep.decode(space, pooled)
            pipeline_s += watch.lap()
            out = RoundOutput(space, vectors, pooled, state)
            latencies = []
            for query in rnd.queries:
                q0 = perf()
                formula = ep.parse_formula(query.formula, atoms)
                verdict = ep.psi(space, query.scorer, formula, pooled)
                latencies.append(perf() - q0)
                out.answers.append((formula, verdict))
            watch.lap()
            ops.extend(x * 1000 * watch.factor for x in latencies)
            outputs.append(out)
        return Timed(pipeline_s, ops, outputs)

    def check(self, rounds: list, outputs: list, tally: Tally) -> None:
        for rnd, out in zip(rounds, outputs):
            union = set()
            for v in out.vectors:
                union |= ep.decode(out.space, v).members
            tally.record(
                union == set(out.state.members),
                f"decode(pool) != union of decoded inputs on {rnd.space} m={rnd.m}",
            )
            for query, (formula, verdict) in zip(rnd.queries, out.answers):
                expected = ep.state_entails(out.state, formula)
                tally.record(
                    verdict == expected,
                    f"psi {query.scorer} on {rnd.space} m={rnd.m} answered {verdict} "
                    f"for {query.formula}",
                )


# --- cli-session ----------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    exit_code: int = 0
    stdout: str | None = None            # exact expected stdout
    stdout_has: str | None = None        # expected substring of stdout
    file: str | None = None              # output file the command writes
    file_text: str | None = None         # exact expected content of that file
    file_has: str | None = None          # expected substring of that file


@dataclass
class CommandResult:
    exit_code: int
    stdout: str
    file_text: str | None


def _kb_state(space_name: str, kb_text: str):
    kb = ep.parse_kb(kb_text)
    space = ep.make_space(space_name, properties=ep.PropertySpace.logical(kb.atoms))
    return space, ep.encode(space, ep.kb_to_state(kb))


def build_script(seed: int, workdir: Path) -> list[Command]:
    """Write the session's KB files; return its commands with their expected
    outputs, computed in-process from the library."""
    script: list[Command] = []
    for g, group in enumerate(inputs.cli_groups(seed)):
        d = workdir / f"g{g}"
        d.mkdir(parents=True, exist_ok=True)
        space_args = ("--space", group.space)
        kb_paths, vecs = [], []
        for stem, text in zip(("a", "b"), group.kbs):
            kb_path, out = d / f"{stem}.kb", d / f"{stem}.json"
            kb_path.write_text(text)
            space, v = _kb_state(group.space, text)
            kb_paths.append(kb_path)
            vecs.append(v)
            script.append(Command(
                ("encode", *space_args, "--kb", str(kb_path), "-o", str(out)),
                file=str(out),
                file_text=ep.files.dumps_vectors(group.space, [NamedVector(stem, v)]),
            ))
        pooled_path = d / "pooled.json"
        pooled = ep.pool_many(space.operator, vecs)
        script.append(Command(
            ("pool", *space_args, str(d / "a.json"), str(d / "b.json"), "-o", str(pooled_path)),
            file=str(pooled_path),
            file_text=ep.files.dumps_vectors(group.space, [NamedVector("pooled", pooled)]),
        ))
        state = ep.decode(space, pooled)
        excluded = " ".join(
            "".join(str(w >> j & 1) for j in range(inputs.CLI_ATOMS))
            for w in sorted(state.members)
        )
        script.append(Command(
            ("decode", *space_args, str(pooled_path), "--logical", "--prime-implicates",
             "--kb", str(kb_paths[0])),
            stdout_has=f"pooled: excluded worlds: {excluded or '<none>'}\n",
        ))
        atoms = ep.parse_kb(group.kbs[0]).atoms
        for scorer, formula in [(group.scorer, f) for f in group.formulas] + [
            ("min", group.formulas[0])
        ]:
            entailed = ep.state_entails(state, ep.parse_formula(formula, atoms))
            script.append(Command(
                ("query", *space_args, "--scorer", scorer, "--formula", formula,
                 str(pooled_path), "--kb", str(kb_paths[0])),
                stdout=f"pooled: {'ENTAILED' if entailed else 'NOT-ENTAILED'}\n",
            ))
        levels = ",".join(map(str, group.levels))
        wspace = ep.make_space(group.weighted_space, len(group.levels), levels=2)
        wstate = ep.WeightedState.of(wspace.properties, group.levels, 2)
        w_path = d / "levels.json"
        script.append(Command(
            ("encode", "--space", group.weighted_space, "--levels", levels, "--K", "2",
             "-o", str(w_path)),
            file=str(w_path),
            file_text=ep.files.dumps_vectors(
                group.weighted_space,
                [NamedVector("levels", ep.encode_weighted(wspace, wstate))],
            ),
        ))
        script.append(Command(
            ("decode", "--space", group.weighted_space, "--K", "2", "--weighted", str(w_path)),
            stdout=f"levels: levels {levels}\n",
        ))

    plan_seed = str(inputs.report_seed(seed))
    for candidate in inputs.FALSIFY_CANDIDATES:
        script.append(Command(
            ("falsify", "--candidate", candidate, "--seed", plan_seed),
            exit_code=1,
            stdout_has=f"{candidate}: witness at ",
        ))
    for space_name, code in inputs.VERIFY_SPACES:
        script.append(Command(("verify", "--space", space_name, "--seed", plan_seed), exit_code=code))
    svg = workdir / "regions.svg"
    script.append(Command(
        ("plot", "--space", "example1", "--out", str(svg),
         "--resolution", str(inputs.PLOT_RESOLUTION)),
        file=str(svg),
        file_has="</svg>",
    ))
    report = ep.table_report(ep.TrialPlan(seed=int(plan_seed)))
    script.append(Command(("report", "--seed", plan_seed), stdout=report.to_json()))
    return script


def _read(path: str | None) -> str | None:
    if path is None or not Path(path).is_file():
        return None
    return Path(path).read_text()


def check_command(cmd: Command, result: CommandResult, tally: Tally) -> None:
    ok = result.exit_code == cmd.exit_code
    if cmd.stdout is not None:
        ok = ok and result.stdout == cmd.stdout
    if cmd.stdout_has is not None:
        ok = ok and cmd.stdout_has in result.stdout
    if cmd.file_text is not None:
        ok = ok and result.file_text == cmd.file_text
    if cmd.file_has is not None:
        ok = ok and result.file_text is not None and cmd.file_has in result.file_text
    tally.record(ok, f"epipool {' '.join(cmd.argv)} (exit {result.exit_code})")


class CliSession(Workload):
    """A scripted sequence of epipool commands, one subprocess at a time.

    job_s is the whole session, each command scaled by the loop times around
    it; operations are the short commands (all but ``report``), whose cost is
    mostly interpreter start-up plus import epipool. Traced runs call
    epipool.cli.main(argv) in-process with the same script.
    """

    name = "cli-session"
    min_ops = 200  # at least two passes of the 101 short commands

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.script = build_script(seed, workdir)
        self.env = child_env()

    def inputs(self, index: int) -> list[Command]:
        return self.script

    def _clear_outputs(self) -> None:
        for cmd in self.script:
            if cmd.file is not None:
                Path(cmd.file).unlink(missing_ok=True)

    def _subprocess(self, cmd: Command) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "epipool.cli", *cmd.argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def _in_process(self, cmd: Command, tracer) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{cmd.argv[0]}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = epipool.cli.main(list(cmd.argv))
        return code, out.getvalue()

    def run(self, script: list[Command], gauge, tracer=None) -> Timed:
        self._clear_outputs()
        ops: list[float] = []
        outcomes = []
        watch = Stopwatch(gauge)
        for cmd in script:
            if tracer is None:
                outcomes.append(self._subprocess(cmd))
            else:
                outcomes.append(self._in_process(cmd, tracer))
            elapsed = watch.lap()
            if cmd.argv[0] != "report":
                ops.append(elapsed * 1000)
        results = [
            CommandResult(code, stdout, _read(cmd.file))
            for cmd, (code, stdout) in zip(script, outcomes)
        ]
        return Timed(watch.total, ops, results)

    def check(self, script: list[Command], results: list, tally: Tally) -> None:
        for cmd, result in zip(script, results):
            check_command(cmd, result, tally)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TableReport, KbQueries, CliSession)}

