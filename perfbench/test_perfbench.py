"""Tests of the benchmark itself.

Run from the repository root:
    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import gzip
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import epipool  # noqa: E402
import epipool.pooling  # noqa: E402
import epipool.spaces  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gauge import Unscaled, percentile  # noqa: E402


def small_rounds(seed: int = 3) -> list:
    return [r for r in inputs.kb_cycle(seed, 0) if r.m == 4]


class CorruptedAnswersAreCounted(unittest.TestCase):
    def test_wrong_psi_answer_is_a_failure(self):
        original = epipool.psi
        flipped = []

        def wrong_once(*args, **kwargs):
            verdict = original(*args, **kwargs)
            if not flipped:
                flipped.append(True)
                return not verdict
            return verdict

        rounds = small_rounds()
        workload = workloads.KbQueries(3, HERE)
        epipool.psi = wrong_once
        try:
            timed = workload.run(rounds, Unscaled())
        finally:
            epipool.psi = original
        tally = workloads.Tally()
        workload.check(rounds, timed.output, tally)
        self.assertEqual(tally.failed, 1)
        self.assertEqual(tally.attempted, sum(1 + len(r.queries) for r in rounds))

    def test_correct_answers_pass(self):
        rounds = small_rounds()
        workload = workloads.KbQueries(3, HERE)
        tally = workloads.Tally()
        workload.check(rounds, workload.run(rounds, Unscaled()).output, tally)
        self.assertEqual(tally.failed, 0)

    def test_wrong_pool_is_a_failure(self):
        rounds = small_rounds()[:1]
        workload = workloads.KbQueries(3, HERE)
        timed = workload.run(rounds, Unscaled())
        out = timed.output[0]
        worlds = out.space.size
        out.state = epipool.EpistemicState.of(
            out.state.space, set(range(worlds)) - set(out.state.members)
        )
        tally = workloads.Tally()
        workload.check(rounds, timed.output, tally)
        self.assertGreaterEqual(tally.failed, 1)

    def test_report_off_the_golden_hash_is_a_failure(self):
        tally = workloads.Tally()
        workload = workloads.TableReport(1, HERE)
        workload.check(workloads.GOLDEN_SEED, '{"seed": 0}\n', tally)
        workload.check(12345, None, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))

    def test_cli_exit_code_and_output_are_checked(self):
        cmd = workloads.Command(("falsify",), exit_code=1, stdout_has="witness at ")
        tally = workloads.Tally()
        workloads.check_command(cmd, workloads.CommandResult(1, "x: witness at (1)", None), tally)
        workloads.check_command(cmd, workloads.CommandResult(0, "x: witness at (1)", None), tally)
        workloads.check_command(cmd, workloads.CommandResult(1, "no witness", None), tally)
        self.assertEqual((tally.attempted, tally.failed), (3, 2))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(inputs.kb_cycle(7, 2), inputs.kb_cycle(7, 2))
        self.assertNotEqual(inputs.kb_cycle(7, 2), inputs.kb_cycle(8, 2))
        self.assertEqual(inputs.cli_groups(7), inputs.cli_groups(7))

    def test_formulas_parse_and_do_not_repeat_within_a_round(self):
        for rnd in inputs.kb_cycle(5, 0):
            texts = [q.formula for q in rnd.queries]
            self.assertEqual(len(texts), len(set(texts)))
            atoms = epipool.parse_kb(rnd.kbs[0]).atoms
            self.assertEqual(len(atoms), rnd.m)
            for text in texts:
                epipool.parse_formula(text, atoms)

    def test_min_only_at_small_atom_counts(self):
        for rnd in inputs.kb_cycle(5, 0):
            has_min = any(q.scorer == "min" for q in rnd.queries)
            self.assertEqual(has_min, rnd.m <= 8)


class Tracing(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        original = epipool.spaces.contains
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(epipool.pooling.contains, original)
            space = epipool.make_space("max-weak-reals", 2)
            with tracer.span(spans.JOB) as job:
                epipool.check_principle(space, (1, -1), (-1, 1))
        finally:
            tracer.uninstall()
        self.assertIs(epipool.pooling.contains, original)
        self.assertIs(epipool.spaces.contains, original)
        metrics = tracer.job_metrics(job)
        self.assertEqual(metrics["pooling.check_principle.calls"], 1)
        self.assertGreaterEqual(metrics["spaces.contains.calls"], 3)
        self.assertGreaterEqual(metrics["spaces.decode.calls"], 3)
        self.assertLess(
            metrics["pooling.check_principle.self_ms"], metrics["pooling.check_principle.busy_ms"]
        )

    def test_jsonl_schema(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span(spans.JOB, phase="traced"):
                epipool.verifier.falsify_counted("avg-weak-reals-coordinate")
        finally:
            tracer.uninstall()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl.gz"
            tracer.write_jsonl(str(path))
            with gzip.open(path, "rt") as f:
                lines = [json.loads(line) for line in f]
        self.assertEqual(lines[0]["parent"], None)
        self.assertEqual(lines[0]["phase"], "traced")
        sweep = lines[1]
        self.assertEqual(sweep["name"], "verifier.falsify_counted")
        self.assertEqual(sweep["parent"], 0)
        self.assertEqual(sweep["cell"], "avg-weak-reals-coordinate")
        self.assertEqual(sweep["witness_index"], sweep["trials"])
        for line in lines:
            self.assertLessEqual(line["start"], line["end"])


class Spec(unittest.TestCase):
    def test_benchmark_json_lists_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(declared, spans.metric_units())
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOAD_NAMES)

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 50), 50.5)
        self.assertAlmostEqual(percentile(values, 90), 90.9)


if __name__ == "__main__":
    unittest.main()
