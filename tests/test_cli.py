import argparse
import contextlib
import gc
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epipool.cli as cli
from epipool.cli import main
from epipool.decider import validate_config
from epipool.entailment import SCORERS
from epipool.files import NamedVector, dumps_vectors, loads_vectors
from epipool.logic import MAX_ATOMS_DEFAULT, MAX_FORMULA_DEPTH
from epipool.pooling import pool_many
from epipool.spaces import REGISTRY, format_vector, make_space, vector
from epipool.verifier import DEFAULT_SEED, FALSIFY_REGISTRY

KB_A_OR_B = "atoms: a b\na b\n"
KB_NOT_A_OR_B = "atoms: a b\n-a b\n"


@pytest.fixture()
def kb_files(tmp_path):
    one = tmp_path / "one.kb"
    one.write_text(KB_A_OR_B)
    two = tmp_path / "two.kb"
    two.write_text(KB_NOT_A_OR_B)
    return one, two


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_encode_pool_decode_query_pipeline(tmp_path, capsys, kb_files):
    one, two = kb_files
    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    pooled = tmp_path / "pooled.json"

    code, _, _ = run(capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(one), "-o", str(v1))
    assert code == 0
    code, _, _ = run(capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(two), "-o", str(v2))
    assert code == 0

    code, _, _ = run(
        capsys, "pool", "--space", "max-weak-nonpos", str(v1), str(v2), "-o", str(pooled)
    )
    assert code == 0
    doc = loads_vectors(pooled.read_text())
    assert [c for c in doc.vectors[0].coords] == [0, 0, -1, -1]

    code, out, _ = run(
        capsys, "query", "--space", "max-weak-nonpos", "--scorer", "linear",
        "--formula", "b", str(pooled),
    )
    assert code == 0 and "pooled: ENTAILED" in out

    code, out, _ = run(
        capsys, "query", "--space", "max-weak-nonpos", "--scorer", "linear",
        "--formula", "a", str(pooled),
    )
    assert code == 0 and "pooled: NOT-ENTAILED" in out  # questions are not errors

    code, out, _ = run(
        capsys, "decode", "--space", "max-weak-nonpos", str(pooled), "--logical",
        "--prime-implicates",
    )
    assert code == 0
    assert "excluded worlds: 00 10" in out
    assert "worlds remaining: a=0 b=1; a=1 b=1" in out
    assert "prime implicates: b" in out


def test_pool_of_one_coordinate_files_is_pool_many_of_their_tuples(tmp_path, capsys):
    """Two one-coordinate files pool through the parts path's one-label
    selection; the file written is pool_many's pool of the plain tuples."""
    space = "weighted-max-reals"
    files = [tmp_path / f"level{k}.json" for k in (1, 2)]
    for k, path in enumerate(files, start=1):
        code, _, _ = run(capsys, "encode", "--space", space, "--K", "2", "--levels", str(k),
                         "-o", str(path))
        assert code == 0
    pooled = tmp_path / "pooled.json"
    code, _, err = run(capsys, "pool", "--space", space, "--K", "2", *map(str, files),
                       "-o", str(pooled))
    assert (code, err) == (0, "")
    plain = [tuple(loads_vectors(path.read_text()).vectors[0].coords) for path in files]
    expected = pool_many(REGISTRY[space].operator, plain)
    assert type(expected) is tuple and format_vector(expected) == "(3/2)"
    assert pooled.read_text() == dumps_vectors(space, [NamedVector("pooled", expected)])


def test_encode_reports_coordinates_of_the_excluded_world(tmp_path, capsys, kb_files):
    one, _ = kb_files
    out_file = tmp_path / "v.json"
    code, _, _ = run(
        capsys, "encode", "--space", "avg-strict-nonneg", "--kb", str(one), "-o", str(out_file)
    )
    assert code == 0
    doc = loads_vectors(out_file.read_text())
    assert [c for c in doc.vectors[0].coords] == [1, 0, 0, 0]


def test_encode_summarises_a_12_atom_kb_in_one_short_line(tmp_path, capsys, monkeypatch):
    """The summary counts the members (decode lists them); the file holds the
    library's encoding of the KB's state."""
    from epipool.epistemic import PropertySpace, kb_to_state
    from epipool.logic import parse_kb
    from epipool.spaces import encode

    text = "atoms: a b c d e f g h i j k l\na b\n-c d\n"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "twelve.kb").write_text(text)
    code, out, err = run(
        capsys, "encode", "--space", "max-weak-nonpos", "--kb", "twelve.kb", "-o", "v.json"
    )
    assert (code, err) == (0, "")
    assert out == "encoded 1792 of 4096 properties -> v.json\n"
    assert len(out.encode()) < 100
    kb = parse_kb(text)
    config = make_space("max-weak-nonpos", properties=PropertySpace.logical(kb.atoms))
    v = encode(config, kb_to_state(kb))
    expected = dumps_vectors("max-weak-nonpos", [NamedVector("twelve", v)])
    assert (tmp_path / "v.json").read_text() == expected


def test_decode_abstract_listing(tmp_path, capsys, kb_files):
    one, _ = kb_files
    v1 = tmp_path / "v1.json"
    run(capsys, "encode", "--space", "avg-strict-nonneg", "--kb", str(one), "-o", str(v1))
    code, out, _ = run(capsys, "decode", "--space", "avg-strict-nonneg", str(v1))
    assert code == 0 and "{p0}" in out


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "decode", "--space", "no-such-space", "nothing.json")
    assert code == 2 and out == "" and err.startswith("usage: epipool decode")
    # argparse's own prefix, not doubled into "error: epipool decode: error:"
    last = err.splitlines()[-1]
    assert last.startswith("epipool decode: error: argument --space: invalid choice")


@pytest.mark.parametrize(
    "argv, coords",
    [
        (["decode", "--space", "avg-strict-nonneg"], ["-1", "0"]),
        (["query", "--space", "avg-margin-nonneg", "--scorer", "margin-relu", "--formula", "a"],
         ["1/2", "0", "0", "0"]),
    ],
    ids=["outside-domain", "margin-ambiguous"],
)
def test_domain_violation_exit_3(tmp_path, capsys, argv, coords):
    """IndeterminateSign, which main also maps to 3, has its CLI cases below:
    sigmoid_steepness makes every clear-cut sigmoid sign certifiable where the
    margin is within binary64's range, and a vector that is not clear-cut is
    refused before any float is computed."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"space": argv[2], "n": len(coords), "vectors": [{"name": "v", "coords": coords}]}
    ))
    code, out, err = run(capsys, *argv, str(bad))
    assert (code, out) == (3, "") and err.startswith("domain violation: ")


BIG = 10**400
SIGMOID_A = ["--space", "avg-margin-nonneg", "--scorer", "sigmoid", "--formula", "a"]


@pytest.mark.parametrize(
    "args, coords, code, out",
    [
        (SIGMOID_A, [str(BIG), "0"], 0, "v: ENTAILED\n"),
        (["--space", "example1", "--scorer", "min", "--formula", "a"],
         [str(3 * 10**338), "1"], 0, "v: NOT-ENTAILED\n"),
        (SIGMOID_A + ["--margin", f"1/{BIG}"], ["0", "0"], 3, ""),
        (SIGMOID_A + ["--margin", str(BIG)], ["0", "0"], 3, ""),
    ],
    ids=["sigmoid-huge-coordinate", "disc-huge-distance", "sigmoid-tiny-margin",
         "sigmoid-huge-margin"],
)
def test_a_value_past_binary64_answers_or_exits_3_without_a_traceback(
    tmp_path, subprocess_env, args, coords, code, out
):
    """Floats made from exact values saturate: a clear-cut coordinate or a disc
    distance past binary64's range still gets its answer, and a margin whose
    sigmoid steepness binary64 cannot hold is an uncertifiable sign."""
    path = tmp_path / "v.json"
    path.write_text(json.dumps(
        {"space": args[1], "n": 2, "vectors": [{"name": "v", "coords": coords}]}
    ))
    result = subprocess.run(
        [sys.executable, "-m", "epipool.cli", "query", *args, str(path)],
        capture_output=True, text=True, timeout=60, env=subprocess_env,
    )
    assert (result.returncode, result.stdout) == (code, out)
    assert "Traceback" not in result.stderr
    if code == 3:
        assert result.stderr.startswith("domain violation: ")


@pytest.mark.parametrize("argv", [["--help"], ["query", "--help"]], ids=["top", "query"])
def test_help_returns_0_with_help_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    prog = " ".join(["epipool", *argv[:-1]])
    assert (code, err) == (0, "") and out.startswith(f"usage: {prog} [-h]")


def test_no_command_returns_2_with_the_usage_line(capsys):
    code, out, err = run(capsys)
    assert (code, out) == (2, "") and err.startswith("usage: epipool [-h]")
    assert err.endswith("epipool: error: the following arguments are required: command\n")


def test_unreadable_vector_file_is_an_io_error_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "decode", "--space", "max-weak-nonpos", "missing.json")
    assert (code, out) == (2, "")
    assert err == "i/o error: [Errno 2] No such file or directory: 'missing.json'\n"


def test_space_name_mismatch_is_usage_error(tmp_path, capsys):
    f = tmp_path / "v.json"
    f.write_text(
        json.dumps(
            {"space": "max-strict-reals", "n": 2,
             "vectors": [{"name": "v", "coords": ["1", "1"]}]}
        )
    )
    code, _, _ = run(capsys, "decode", "--space", "avg-strict-nonneg", str(f))
    assert code == 2


@pytest.mark.parametrize(
    "command, extra",
    [
        ("query", ("--scorer", "min", "--formula", "a")),
        ("decode", ()),
        ("pool", ("-o", "pooled.json")),
    ],
)
def test_every_vector_subcommand_rejects_a_file_for_another_space(
    tmp_path, capsys, kb_files, monkeypatch, command, extra
):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "encode", "--space", "had-weak-nonneg", "--kb", str(kb_files[0]),
                     "-o", "v.json")
    assert code == 0
    code, out, err = run(capsys, command, "--space", "max-weak-reals", "v.json", *extra)
    assert code == 2 and out == ""
    assert err == "error: v.json was written for space 'had-weak-nonneg', not 'max-weak-reals'\n"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("query", ("--scorer", "min", "--formula", "a")),
        ("decode", ()),
        ("pool", ("-o", "pooled.json")),
    ],
)
def test_every_vector_subcommand_parses_each_file_once(
    tmp_path, capsys, kb_files, monkeypatch, command, extra
):
    import epipool.cli
    import epipool.files

    monkeypatch.chdir(tmp_path)
    for kb, name in zip(kb_files, ("a.json", "b.json")):
        code, _, _ = run(capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(kb),
                         "-o", name)
        assert code == 0
    parsed = []

    def counting(text):
        parsed.append(text)
        return loads_vectors(text)

    # the CLI's own binding, and the one files.load_for_space reads
    monkeypatch.setattr(epipool.cli, "loads_vectors", counting)
    monkeypatch.setattr(epipool.files, "loads_vectors", counting)
    code, _, _ = run(capsys, command, "--space", "max-weak-nonpos", "a.json", "b.json", *extra)
    assert code == 0 and len(parsed) == 2


def test_verify_sound_space_exit_0(capsys):
    code, out, _ = run(
        capsys, "verify", "--space", "avg-strict-nonneg", "--trials", "200", "--seed", "7"
    )
    assert code == 0 and "verified-on-grid" in out


@pytest.mark.parametrize("flag, value", [("--trials", "-5"), ("--dimension", "0")])
def test_verify_rejects_nonsense_plan_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "verify", "--space", "avg-strict-nonneg", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_demo_space_exit_1(capsys):
    code, out, _ = run(
        capsys, "verify", "--space", "example1", "--trials", "100", "--seed", "7"
    )
    assert code == 1 and "falsified-with-witness" in out


@pytest.mark.parametrize("space", list(REGISTRY))
def test_verify_prints_the_validators_violations(capsys, space):
    """verify prints one config note per violation, before its cells; only
    the demo space has any."""
    _, out, _ = run(capsys, "verify", "--space", space, "--trials", "0")
    notes = [line for line in out.splitlines() if line.startswith("config note ")]
    config = make_space(space) if REGISTRY[space].labels else make_space(space, 3)
    violations = validate_config(config)
    assert notes == [f"config note [{v.rule}]: {v.message}" for v in violations]
    assert notes == out.splitlines()[: len(notes)]
    assert [v.rule for v in violations] == (["unrestricted-domain"] if space == "example1" else [])


@pytest.mark.parametrize(
    "flag, note",
    [
        ("--margin", "margin applies to coordinate scores on [0,+inf)^n and [0,1]^n only"),
        ("--eps", "eps applies to the [0,1]^n space only"),
    ],
)
def test_verify_notes_a_margin_or_eps_that_nothing_reads_exit_0(capsys, flag, note):
    code, out, err = run(
        capsys, "verify", "--space", "max-strict-reals", flag, "1/4", "--trials", "0"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"config note [margin]: {note}"


def test_falsify_exit_1_with_witness(capsys):
    code, out, _ = run(
        capsys, "falsify", "--candidate", "avg-weak-reals-coordinate", "--trials", "100"
    )
    assert code == 1 and "witness" in out


def test_report_json_byte_identical_across_runs(capsys):
    code1, out1, _ = run(capsys, "report", "--seed", "0xEP00", "--trials", "150")
    code2, out2, _ = run(capsys, "report", "--seed", "0xEP00", "--trials", "150")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # valid JSON document


def test_report_text_mode_and_file_output(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "report", "--trials", "100", "-o", str(target)
    )
    assert code == 0
    assert target.exists() and json.loads(target.read_text())
    assert "totals:" in out


def test_plot_writes_svg(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "plot", "--space", "example1", "--out", str(target),
                       "--resolution", "60")
    assert code == 0
    body = target.read_text()
    assert body.startswith("<?xml") and "<rect" in body and "</svg>" in body


def test_env_seed_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("EPIPOOL_SEED", "0x10")
    code, out, _ = run(capsys, "report", "--trials", "60")
    assert code == 0 and '"seed": 16' in out


def test_given_seed_is_always_parsed(capsys, monkeypatch):
    monkeypatch.setenv("EPIPOOL_SEED", "0x10")
    for argv in (
        ("verify", "--space", "avg-strict-nonneg", "--trials", "0"),
        ("falsify", "--candidate", "avg-weak-reals-coordinate", "--trials", "0"),
        ("report", "--trials", "0"),
    ):
        code, out, err = run(capsys, *argv, "--seed", "")
        assert (code, out) == (2, "") and "error: cannot parse seed: ''" in err, argv
    monkeypatch.setenv("EPIPOOL_SEED", "")
    code, out, _ = run(capsys, "report", "--trials", "60")
    assert code == 0 and f'"seed": {DEFAULT_SEED}' in out


def test_encode_weighted_levels_roundtrip(tmp_path, capsys):
    target = tmp_path / "w.json"
    code, out, _ = run(
        capsys, "encode", "--space", "weighted-max-reals", "--levels", "2,0,1",
        "--K", "2", "-o", str(target),
    )
    assert code == 0 and "levels 2,0,1" in out
    doc = loads_vectors(target.read_text())
    assert [str(c) for c in doc.vectors[0].coords] == ["3/2", "-1/2", "1/2"]

    code, out, _ = run(
        capsys, "decode", "--space", "weighted-max-reals", "--K", "2",
        "--weighted", str(target),
    )
    assert code == 0 and "levels 2,0,1" in out


def test_decode_weighted_reads_the_space_semantics(tmp_path, capsys):
    """On a weak space a zero score reaches level 1, as decode reads it a member."""
    target = tmp_path / "v.json"
    target.write_text(dumps_vectors("max-weak-reals", [NamedVector("v", vector(["0", "-1"]))]))
    code, out, _ = run(capsys, "decode", "--space", "max-weak-reals", str(target))
    assert (code, out) == (0, "v: {p0}\n")
    code, out, _ = run(
        capsys, "decode", "--space", "max-weak-reals", "--weighted", "--K", "1", str(target)
    )
    assert (code, out) == (0, "v: levels 1,0\n")


def test_encode_requires_exactly_one_source(tmp_path, capsys):
    code, _, err = run(
        capsys, "encode", "--space", "weighted-max-reals", "-o", str(tmp_path / "x.json")
    )
    assert code == 2


def test_pipeline_composes_identically_to_library_oracle(tmp_path, capsys):
    """encode -> pool -> query through the CLI, versus the in-library path,
    exhaustively over all pairs of two-atom states."""
    from epipool.epistemic import EpistemicState, PropertySpace, state_entails, union_states
    from epipool.logic import AtomTable, format_clause, parse_formula
    from epipool.epistemic import induced_clauses

    atoms = AtomTable.of(("a", "b"))
    space = PropertySpace.logical(atoms)
    queries = ["b", "a -> b", "a & b"]
    parsed = {q: parse_formula(q, atoms) for q in queries}

    vec_files = []
    for bits in range(16):
        members = frozenset(i for i in range(4) if bits >> i & 1)
        state = EpistemicState.of(space, members)
        kb_path = tmp_path / f"kb{bits}.kb"
        kb_path.write_text(
            "atoms: a b\n"
            + "".join(format_clause(c, atoms) + "\n" for c in induced_clauses(state))
        )
        v_path = tmp_path / f"v{bits}.json"
        code, _, _ = run(
            capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(kb_path),
            "-o", str(v_path),
        )
        assert code == 0
        vec_files.append((members, v_path))

    pooled_path = tmp_path / "pooled.json"
    for members_s, file_s in vec_files:
        for members_t, file_t in vec_files:
            code, _, _ = run(
                capsys, "pool", "--space", "max-weak-nonpos",
                str(file_s), str(file_t), "-o", str(pooled_path),
            )
            assert code == 0
            union = union_states(
                EpistemicState.of(space, members_s), EpistemicState.of(space, members_t)
            )
            for q in queries:
                code, out, _ = run(
                    capsys, "query", "--space", "max-weak-nonpos",
                    "--scorer", "linear", "--formula", q, str(pooled_path),
                )
                assert code == 0
                cli_answer = "NOT-ENTAILED" not in out
                assert cli_answer == state_entails(union, parsed[q]), (
                    members_s, members_t, q,
                )


def test_max_pooling_min_scorer_pipeline(tmp_path, capsys, kb_files):
    one, two = kb_files
    v1, v2, pooled = (tmp_path / n for n in ("v1.json", "v2.json", "pooled.json"))
    run(capsys, "encode", "--space", "max-strict-reals", "--kb", str(one), "-o", str(v1))
    run(capsys, "encode", "--space", "max-strict-reals", "--kb", str(two), "-o", str(v2))
    doc = loads_vectors(v1.read_text())
    assert [c for c in doc.vectors[0].coords] == [1, -1, -1, -1]
    run(capsys, "pool", "--space", "max-strict-reals", str(v1), str(v2), "-o", str(pooled))
    code, out, _ = run(
        capsys, "query", "--space", "max-strict-reals", "--scorer", "min",
        "--formula", "b", str(pooled),
    )
    assert code == 0 and "pooled: ENTAILED" in out


def test_query_answers_a_vector_encoded_past_the_default_atom_cap(tmp_path, capsys):
    """query answers every vector encode accepted, here one of 2^13 coordinates."""
    from epipool.epistemic import kb_to_state, state_entails
    from epipool.logic import parse_kb, parse_formula

    text = "atoms: a b c d e f g h i j k l m\na -b\nc d m\n-m\n"
    kb_path, v = tmp_path / "big.kb", tmp_path / "big.json"
    kb_path.write_text(text)
    code, _, _ = run(
        capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(kb_path),
        "--atom-cap", "13", "-o", str(v),
    )
    assert code == 0
    state = kb_to_state(parse_kb(text), cap=13)
    for formula in ("a | !b", "m", "c | d"):
        expected = state_entails(state, parse_formula(formula))
        for atoms_flag in (("--kb", str(kb_path)), ()):
            code, out, err = run(
                capsys, "query", "--space", "max-weak-nonpos", "--scorer", "linear",
                "--formula", formula, *atoms_flag, str(v),
            )
            assert (code, err) == (0, "")
            assert out == f"big: {'ENTAILED' if expected else 'NOT-ENTAILED'}\n"


@pytest.fixture()
def pooled_ab(tmp_path, capsys, kb_files):
    one, _ = kb_files
    v = tmp_path / "v.json"
    run(capsys, "encode", "--space", "max-weak-nonpos", "--kb", str(one), "-o", str(v))
    return v


DEPTH = MAX_FORMULA_DEPTH


@pytest.mark.parametrize(
    "formula, code",
    [
        ("(" * 3000 + "a" + ")" * 3000, 2),
        ("!" * 3000 + "a", 2),
        (" & ".join(["a"] * 2000), 2),
        ("(" * 100 + "a" + ")" * 100, 0),
        ("!" * 500 + "a", 0),
        (" & ".join(["a"] * 500), 0),
        ("!" * (DEPTH - 1) + "a", 0),  # exactly at the cap
        ("!" * DEPTH + "a", 2),
        (" -> ".join(["b"] * DEPTH), 0),
        (" -> ".join(["b"] * (DEPTH + 1)), 2),
    ],
    ids=["parens-3000", "nots-3000", "and-2000", "parens-100", "nots-500", "and-500",
         "nots-at-cap", "nots-past-cap", "imp-at-cap", "imp-past-cap"],
)
def test_query_deep_formula_answers_or_exits_2(capsys, pooled_ab, formula, code):
    got, out, err = run(
        capsys, "query", "--space", "max-weak-nonpos", str(pooled_ab),
        "--scorer", "linear", "--formula", formula,
    )
    assert got == code and "Traceback" not in err
    if code == 0:
        assert out.startswith("one: ")
    else:
        assert out == "" and err.startswith("error:") and "nests deeper" in err


@pytest.mark.parametrize(
    "argv, parameter",
    [
        (["verify", "--space", "example1", "--K", "2"], "levels"),
        (["verify", "--space", "avg-margin-unit", "--margin", "2"], "margin"),
        (["verify", "--space", "avg-margin-nonneg", "--eps", "1/4"], "eps"),
        (["verify", "--space", "weighted-max-reals", "--eps", "1/4"], "eps"),
        (["plot", "--space", "example1", "--K", "2", "--out", "x.svg"], "levels"),
    ],
    ids=["verify-example1-K", "verify-margin-unit-margin", "verify-margin-nonneg-eps",
         "verify-weighted-max-eps", "plot-example1-K"],
)
def test_space_parameter_the_space_does_not_take_exits_2(capsys, argv, parameter):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and repr(argv[2]) in err and repr(parameter) in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "--space", "avg-margin-unit"], "needs n >= 1"),
        (["decode", "--space", "avg-margin-unit", "--eps", "1/4"], "needs n >= 1"),
        (["pool", "--space", "avg-margin-unit", "-o", "out.json"], "needs n >= 1"),
        (["query", "--space", "avg-margin-unit", "--scorer", "min", "--formula", "a"],
         "n=0 vectors have no worlds"),
        (["query", "--space", "max-weak-nonpos", "--scorer", "min", "--formula", "a"],
         "n=0 vectors have no worlds"),
        (["decode", "--space", "max-weak-nonpos", "--logical"], "n=0 vectors have no worlds"),
    ],
    ids=["decode-margin-unit", "decode-margin-unit-eps", "pool-margin-unit", "query-margin-unit",
         "query-nonpos", "decode-logical"],
)
def test_zero_dimensional_vector_file_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    space = argv[2]
    (tmp_path / "z.json").write_text(json.dumps({"space": space, "n": 0, "vectors": []}))
    code, out, err = run(capsys, *argv, "z.json")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error:") and message in err


def test_margin_on_a_coordinate_space_still_sets_the_member_value(tmp_path, capsys, kb_files):
    one, _ = kb_files
    out_file = tmp_path / "v.json"
    code, _, _ = run(
        capsys, "encode", "--space", "avg-strict-nonneg", "--margin", "2", "--kb", str(one),
        "-o", str(out_file),
    )
    assert code == 0
    assert list(loads_vectors(out_file.read_text()).vectors[0].coords) == [2, 0, 0, 0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["encode", "--space", "max-strict-reals", "--levels", "2,0,1", "-o", "w.json"],
         "space max-strict-reals has no certainty levels; pass --K"),
        (["encode", "--space", "weighted-max-reals", "-o", "w.json"],
         "encode needs exactly one of --kb or --levels"),
        (["decode", "--space", "max-weak-reals", "--weighted", "n3.json"],
         "space max-weak-reals has no certainty levels; pass --K"),
        (["query", "--space", "max-weak-reals", "--scorer", "min", "--formula", "a", "n3.json"],
         "n=3 is not a power of two; pass --atoms or --kb"),
        (["query", "--space", "max-weak-reals", "--scorer", "min", "--formula", "a",
          "--atoms", "a,b", "n3.json"], "2 atoms imply n=4, got n=3"),
        (["query", "--space", "max-weak-reals", "--scorer", "min", "--formula", "a",
          "--kb", "ab.kb", "n3.json"], "KB has 2 atoms (2^m=4), vectors have n=3"),
        (["pool", "--space", "max-weak-nonpos", "v.json", "n2.json", "-o", "out.json"],
         "file dimension n=2 does not match space max-weak-nonpos (n=4)"),
        # a file for another space is named as such before its n is used
        (["decode", "--space", "example1", "v.json"],
         "v.json was written for space 'max-weak-nonpos', not 'example1'"),
        (["pool", "--space", "example1", "v.json", "-o", "out.json"],
         "v.json was written for space 'max-weak-nonpos', not 'example1'"),
        (["query", "--space", "max-weak-reals", "--scorer", "min", "--formula", "a",
          "n3-nonpos.json"],
         "n3-nonpos.json was written for space 'max-weak-nonpos', not 'max-weak-reals'"),
    ],
    ids=["encode-levels-no-K", "encode-no-source", "decode-weighted-no-K", "query-not-power",
         "query-atoms-mismatch", "query-kb-mismatch", "pool-dimension-mismatch",
         "decode-space-before-fixed-n", "pool-space-before-fixed-n", "query-space-before-n"],
)
def test_usage_errors_start_with_error(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ab.kb").write_text(KB_A_OR_B)
    for name, space, coords in [
        ("n3.json", "max-weak-reals", ["1", "0", "-1"]),
        ("n3-nonpos.json", "max-weak-nonpos", ["0", "0", "-1"]),
        ("n2.json", "max-weak-nonpos", ["0", "-1"]),
        ("v.json", "max-weak-nonpos", ["0", "0", "-1", "-1"]),
    ]:
        (tmp_path / name).write_text(json.dumps(
            {"space": space, "n": len(coords), "vectors": [{"name": "v", "coords": coords}]}
        ))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


N4 = {"space": "max-weak-nonpos", "n": 4, "vectors": [{"name": "v", "coords": ["0", "0", "-1", "-1"]}]}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["query", "--space", "max-weak-nonpos", "--scorer", "linear", "--formula", "F",
          "--kb", "f.kb", "v.json"], "'F'"),
        (["encode", "--space", "max-weak-nonpos", "--kb", "f.kb", "-o", "out.json"], "'F'"),
        (["decode", "--space", "max-weak-nonpos", "--logical", "--atoms", "1 2", "v.json"], "'1'"),
    ],
    ids=["query-kb-atom-F", "encode-kb-atom-F", "decode-atoms-digits"],
)
def test_atom_names_a_formula_cannot_write_exit_2(tmp_path, capsys, monkeypatch, argv, name):
    # --formula F is the constant false, never the KB's atom F
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.kb").write_text("atoms: F a\nF\n")
    (tmp_path / "v.json").write_text(json.dumps(N4))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith("error:") and "ASCII identifiers other than T and F" in err
    assert name in err


@pytest.mark.parametrize(
    "field, value",
    [("vectors", 5), ("vectors", None), ("n", True), ("name", ["v"])],
    ids=["vectors-int", "vectors-null", "n-true", "name-list"],
)
def test_vector_file_of_the_wrong_shape_exits_2(tmp_path, capsys, field, value):
    doc = json.loads(json.dumps(N4))
    (doc["vectors"][0] if field == "name" else doc)[field] = value
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decode", "--space", "max-weak-nonpos", str(path))
    assert (code, out) == (2, "") and "Traceback" not in err and err.startswith("error:")


def test_cli_import_compiles_no_generated_code(subprocess_env):
    """A CLI command's start-up imports neither ``dataclasses`` nor the
    ``inspect`` it pulls in; one @dataclass in the package brings both back."""
    # the verifier loads on first use, so it is imported by name to stay covered
    probe = (
        "import sys, epipool.cli, epipool.verifier; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env=subprocess_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"



def test_the_package_imports_the_standard_library_only(subprocess_env):
    """Importing the package, the CLI, the verifier, the decider and the
    plotter loads no module from outside the standard library. ``-S`` leaves
    out ``site``, whose ``.pth`` files can import installed packages into any
    interpreter."""
    probe = (
        "import sys, epipool, epipool.cli, epipool.verifier, epipool.decider, epipool.svgplot; "
        "top = {name.partition('.')[0] for name in sys.modules}; "
        "print(sorted(top - set(sys.stdlib_module_names) - {'epipool', '__main__'}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
        env=subprocess_env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def reference_parser() -> argparse.ArgumentParser:
    """The parser as it was before build_parser took a command: every
    subcommand with all of its arguments."""
    parser = argparse.ArgumentParser(
        prog="epipool",
        description="Pool exact-arithmetic epistemic vectors and check the result tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p: argparse.ArgumentParser) -> None:
        p.add_argument("--space", required=True, choices=sorted(REGISTRY), metavar="SPACE")
        p.add_argument("--margin", help="separation margin for margin spaces (rational)")
        p.add_argument("--eps", help="near-binary slack for the unit margin space (rational)")
        p.add_argument("--K", type=int, help="certainty level cap for weighted spaces")

    p = sub.add_parser("encode", help="encode a KB file or a weighted level list")
    add_space(p)
    p.add_argument("--kb", help="knowledge-base file to encode")
    p.add_argument("--levels", help="comma-separated certainty levels, e.g. 2,0,1")
    p.add_argument(
        "--atom-cap", type=int, default=MAX_ATOMS_DEFAULT, help="refuse KBs beyond this many atoms"
    )
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", help="vector name (default: KB file stem)")
    p.set_defaults(func=cli._cmd_encode)

    p = sub.add_parser("pool", help="pool all vectors from the given files")
    add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--name", default="pooled")
    p.set_defaults(func=cli._cmd_pool)

    p = sub.add_parser("decode", help="print the epistemic state of each vector")
    add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("--logical", action="store_true", help="print non-excluded worlds")
    p.add_argument("--weighted", action="store_true", help="print certainty levels")
    p.add_argument(
        "--prime-implicates",
        action="store_true",
        help="also print prime implicate clauses (small vocabularies only)",
    )
    p.add_argument("--kb", help="KB file supplying atom names")
    p.add_argument("--atoms", help="comma- or space-separated atom names")
    p.set_defaults(func=cli._cmd_decode)

    p = sub.add_parser("query", help="ask whether each vector entails a formula")
    add_space(p)
    p.add_argument("vectors", nargs="+")
    p.add_argument("--scorer", required=True, choices=SCORERS)
    p.add_argument("--formula", required=True)
    p.add_argument("--kb", help="KB file supplying atom names")
    p.add_argument("--atoms", help="comma- or space-separated atom names")
    p.set_defaults(func=cli._cmd_query)

    p = sub.add_parser("verify", help="sweep one space against its principles")
    add_space(p)
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--dimension", type=int)
    p.set_defaults(func=cli._cmd_verify)

    p = sub.add_parser("falsify", help="search a doomed candidate for a witness")
    p.add_argument("--candidate", required=True, choices=sorted(FALSIFY_REGISTRY))
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cli._cmd_falsify)

    p = sub.add_parser("report", help="machine-check every result-table cell")
    p.add_argument("--seed")
    p.add_argument("--trials", type=int)
    p.add_argument("--dimension", type=int)
    p.add_argument("-o", "--output", help="write the JSON report here")
    p.add_argument("--text", action="store_true", help="human-readable output")
    p.set_defaults(func=cli._cmd_report)

    p = sub.add_parser("plot", help="render satisfied regions of a 2-D space as SVG")
    add_space(p)
    p.add_argument("--out", required=True)
    p.add_argument("--range", default="2", help="plot [-R, R]^2 (rational, default 2)")
    p.add_argument("--resolution", type=int, default=400)
    p.set_defaults(func=cli._cmd_plot)
    return parser


S = ["--space", "max-weak-nonpos"]
VALID_ARGV = [
    ["encode", *S, "--kb", "a.kb", "-o", "v.json"],
    ["encode", "--space", "weighted-max-reals", "--levels", "2,0,1", "--K", "2", "-o", "w.json",
     "--name", "w", "--atom-cap", "3"],
    ["pool", *S, "v1.json", "v2.json", "-o", "p.json"],
    ["pool", "--space", "avg-margin-unit", "--margin", "1/2", "--eps", "1/10", "v.json",
     "--name", "both", "--output", "p.json"],
    ["decode", *S, "p.json"],
    ["decode", *S, "p.json", "q.json", "--logical", "--prime-implicates", "--atoms", "a,b"],
    ["decode", "--space", "weighted-max-reals", "--K", "2", "--weighted", "w.json"],
    ["query", *S, "--scorer", "linear", "--formula", "a -> b", "p.json", "--kb", "a.kb"],
    ["verify", "--space", "had-weak-reals", "--trials", "10", "--seed", "0xEP00"],
    ["verify", "--space", "weighted-max-reals", "--K", "3", "--dimension", "2"],
    ["falsify", "--candidate", "strict-linear-gammaQ-affine", "--seed", "7", "--trials", "5"],
    ["report"],
    ["report", "--text", "-o", "r.json", "--dimension", "3", "--trials", "1", "--seed", "1"],
    ["plot", "--space", "example1", "--out", "r.svg", "--range", "3/2", "--resolution", "20"],
]
ERROR_ARGV = [
    [],
    ["--help"],
    ["-h", "encode"],
    ["bogus"],
    ["bogus", "encode"],
    *([command, "--help"] for command in cli.SUBCOMMANDS),
    # a required argument missing
    ["encode", *S, "--kb", "a.kb"],
    ["encode", "-o", "v.json"],
    ["pool", *S, "-o", "p.json"],
    ["decode", *S],
    ["query", *S, "--formula", "a", "p.json"],
    ["query", *S, "--scorer", "linear", "p.json"],
    ["verify"],
    ["falsify"],
    ["plot", "--space", "example1"],
    # report has no required argument: a value of the wrong type
    ["report", "--trials", "many"],
    # an unknown option after a command; the top-level usage line reports it
    ["decode", *S, "p.json", "--bogus"],
    ["report", "--bogus", "1"],
    # an unknown option before a command
    ["--bogus", "decode", *S, "p.json"],
    ["--bogus", "decode", *S, "p.json", "--other"],
    ["--bogus", "encode"],
    # a value outside a list of choices
    ["decode", "--space", "nope", "p.json"],
    ["verify", "--space", "nope"],
    ["falsify", "--candidate", "nope"],
    ["query", *S, "--scorer", "nope", "--formula", "a", "p.json"],
    ["verify", "--space", "had-weak-reals", "--trials", "x"],
]


@pytest.mark.parametrize("argv", ERROR_ARGV, ids=" ".join)
def test_main_prints_and_exits_as_with_the_full_parser(capsys, monkeypatch, argv):
    expected = run(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: reference_parser())
    assert run(capsys, *argv) == expected
    assert expected[0] in (0, 2)


@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_every_valid_command_parses_as_with_the_full_parser(argv):
    expected = vars(reference_parser().parse_args(argv))
    command = next(arg for arg in argv if arg in cli.SUBCOMMANDS)
    assert vars(cli.build_parser(command).parse_args(argv)) == expected
    assert vars(cli.build_parser().parse_args(argv)) == expected


def test_the_full_parser_reads_every_help_as_the_reference():
    ours, reference = cli.build_parser(), reference_parser()
    assert ours.format_help() == reference.format_help()
    [ours_sub] = [a for a in ours._actions if isinstance(a, argparse._SubParsersAction)]
    [ref_sub] = [a for a in reference._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(ours_sub.choices) == list(ref_sub.choices)
    for name, parser in ref_sub.choices.items():
        assert ours_sub.choices[name].format_help() == parser.format_help()


@pytest.fixture(scope="module")
def startup_files(tmp_path_factory):
    """Files for the start-up probe: a KB, its vector and a weighted vector."""
    root = tmp_path_factory.mktemp("startup")
    (root / "ab.kb").write_text(KB_A_OR_B)
    for argv in (
        ["encode", *S, "--kb", str(root / "ab.kb"), "-o", str(root / "v.json")],
        ["encode", "--space", "weighted-max-reals", "--levels", "2,0,1", "--K", "2",
         "-o", str(root / "w.json")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return root


STARTUP_PROBE = """
import contextlib, io, json, sys
from epipool.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(code, sorted({'epipool.verifier', 'epipool.decider'} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv, code, verifies",
    [
        (["encode", *S, "--kb", "ab.kb", "-o", "again.json"], 0, False),
        (["pool", *S, "v.json", "v.json", "-o", "pooled.json"], 0, False),
        (["decode", *S, "v.json"], 0, False),
        (["decode", "--space", "weighted-max-reals", "--K", "2", "--weighted", "w.json"], 0, False),
        (["query", *S, "--scorer", "linear", "--formula", "b", "v.json"], 0, False),
        (["verify", "--space", "max-strict-reals", "--trials", "0"], 0, True),
        (["falsify", "--candidate", "avg-weak-reals-coordinate"], 1, True),
        (["report", "--trials", "1"], 0, True),
    ],
    ids=["encode", "pool", "decode", "decode-weighted", "query", "verify", "falsify", "report"],
)
def test_a_command_imports_the_verifier_and_decider_only_if_it_runs_them(
    startup_files, subprocess_env, argv, code, verifies
):
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(argv)], capture_output=True,
        text=True, timeout=120, env=subprocess_env, cwd=startup_files,
    )
    assert result.returncode == 0, result.stderr
    modules = ["epipool.decider", "epipool.verifier"] if verifies else []
    assert result.stdout == f"{code} {modules}\n"


def test_run_freezes_once_before_main_and_returns_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda argv: events.append(("main", argv)) or 3)
    monkeypatch.setattr(sys, "argv", ["epipool", "decode", "v.json"])
    assert cli.run() == 3
    assert events == ["freeze", ("main", ["decode", "v.json"])]


def test_the_module_entry_exits_with_the_code_of_main_after_one_freeze(monkeypatch, capsys):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(sys, "argv", ["epipool", "verify", "--space", "example1", "--trials", "0"])
    # a fresh `python -m epipool.cli` has not imported epipool.cli yet (runpy
    # warns when it has)
    monkeypatch.delitem(sys.modules, "epipool.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("epipool.cli", run_name="__main__")
    assert (exc.value.code, freezes) == (1, [1])
    assert capsys.readouterr().out.startswith("config note [unrestricted-domain]")


def test_main_in_process_never_freezes(tmp_path, capsys, monkeypatch, kb_files):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    before = gc.get_freeze_count()
    v = str(tmp_path / "v.json")
    for argv, code in (
        (["encode", *S, "--kb", str(kb_files[0]), "-o", v], 0),
        (["query", *S, "--scorer", "linear", "--formula", "a | b", v], 0),
        (["verify", "--space", "max-strict-reals", "--trials", "0"], 0),
        (["encode", *S, "--kb", str(kb_files[0])], 2),
    ):
        assert main(argv) == code
    assert (freezes, gc.get_freeze_count()) == ([], before)


def test_the_console_script_is_the_process_entry():
    # read as text: tomllib is 3.11+
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = text.partition("[project.scripts]\n")[2].partition("\n[")[0]
    assert scripts.strip() == 'epipool = "epipool.cli:run"'


# a vector file per scorer, with the space the scorer pairs with
SCORER_SPACES = {
    "min": "max-weak-nonpos",
    "linear": "max-weak-nonpos",
    "relu": "max-weak-reals",
    "squared": "had-weak-reals",
    "margin-relu": "avg-margin-nonneg",
    "sigmoid": "avg-margin-nonneg",
    "margin-linear": "avg-margin-unit",
}
assert set(SCORER_SPACES) == set(SCORERS)
ENTRY_ARGV = [
    ["encode", *S, "--kb", "one.kb", "-o", "again.json"],
    ["encode", "--space", "weighted-max-reals", "--K", "2", "--levels", "2,0,1", "-o", "w2.json"],
    ["pool", *S, "one.json", "two.json", "-o", "pooled.json"],
    ["decode", *S, "--logical", "--prime-implicates", "p.json"],
    ["decode", "--space", "weighted-max-reals", "--K", "2", "--weighted", "w.json"],
    *(
        ["query", "--space", space, "--scorer", scorer, "--formula", "a | b", f"{space}.json"]
        for scorer, space in SCORER_SPACES.items()
    ),
    ["verify", "--space", "example1", "--trials", "0"],
    ["falsify", "--candidate", "avg-weak-reals-coordinate"],
    ["plot", "--space", "example1", "--out", "r.svg", "--resolution", "20"],
    ["--help"],
    ["bogus"],
    ["decode", *S],
    ["decode", *S, "outside.json"],
]
# verify's per-cell wall time
TIMING = re.compile(r" +[0-9.]+ ms$", re.M)


@pytest.fixture(scope="module")
def entry_inputs(tmp_path_factory):
    """KB files, the vector files the commands read, and one vector outside
    its space's X."""
    root = tmp_path_factory.mktemp("entry")
    (root / "one.kb").write_text(KB_A_OR_B)
    (root / "two.kb").write_text(KB_NOT_A_OR_B)
    (root / "outside.json").write_text(
        dumps_vectors("max-weak-nonpos", [NamedVector("bad", vector(["0", "-1", "1/2", "0"]))])
    )
    setup = [
        ["encode", *S, "--kb", str(root / "one.kb"), "-o", str(root / "one.json")],
        ["encode", *S, "--kb", str(root / "two.kb"), "-o", str(root / "two.json")],
        ["pool", *S, str(root / "one.json"), str(root / "two.json"), "-o", str(root / "p.json")],
        ["encode", "--space", "weighted-max-reals", "--K", "2", "--levels", "1,2,0",
         "-o", str(root / "w.json")],
    ]
    setup += [
        ["encode", "--space", space, "--kb", str(root / "one.kb"), "-o", str(root / f"{space}.json")]
        for space in sorted(set(SCORER_SPACES.values()))
    ]
    for argv in setup:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return root


def files_of(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


@pytest.mark.parametrize("argv", ENTRY_ARGV, ids=" ".join)
def test_the_process_entry_prints_and_writes_what_main_does(
    entry_inputs, tmp_path, monkeypatch, subprocess_env, argv
):
    """``python -m epipool.cli`` (gc.freeze(), then main) against main in
    process: the same code, stdout up to verify's timings, stderr and files."""
    # argparse wraps help at the terminal's width, which in-process may differ
    monkeypatch.setenv("COLUMNS", "80")
    child, here = tmp_path / "child", tmp_path / "here"
    shutil.copytree(entry_inputs, child)
    shutil.copytree(entry_inputs, here)
    result = subprocess.run(
        [sys.executable, "-m", "epipool.cli", *argv], capture_output=True, text=True,
        timeout=60, cwd=child, env={**subprocess_env, "COLUMNS": "80"},
    )
    monkeypatch.chdir(here)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert result.returncode == code
    assert TIMING.sub("", result.stdout) == TIMING.sub("", out.getvalue())
    assert result.stderr == err.getvalue()
    assert files_of(child) == files_of(here)


def run_with_a_closed_pipe(stream, argv, cwd, env, unbuffered):
    """``python -m epipool.cli argv`` with ``stream`` (stdout or stderr) on a
    pipe whose reader closed its end before the child started; the other
    stream is captured as text."""
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: write_end}
    try:
        return subprocess.run(
            [sys.executable, "-m", "epipool.cli", *argv], **streams,
            text=True, timeout=60, cwd=cwd, env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["decode", *S, "p.json"], (2, "i/o error: [Errno 32] Broken pipe\n")),
        (["--help"], (0, "")),
    ],
    ids=["decode", "help"],
)
def test_a_closed_stdout_pipe_exits_as_documented(
    entry_inputs, subprocess_env, argv, expected, unbuffered
):
    """A reader that closed its end before the child wrote: a command's output
    fails as an i/o error (exit 2), --help exits 0, and neither prints a
    traceback, buffered or not."""
    result = run_with_a_closed_pipe("stdout", argv, entry_inputs, subprocess_env, unbuffered)
    assert (result.returncode, result.stderr) == expected


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["falsify", "--candidate", "avg-weak-reals-coordinate", "--trials", "-1"], 2),
        (["decode", *S, "nope.json"], 2),
        (["decode", *S, "outside.json"], 3),
        (["bogus"], 2),
        (["--help"], 0),
    ],
    ids=["usage", "io", "domain", "bogus", "help"],
)
def test_a_closed_stderr_pipe_keeps_the_documented_exit_code(
    entry_inputs, subprocess_env, argv, code, unbuffered
):
    """A stderr reader that closed its end before the child wrote: the error
    line is lost, but the code is the one it reports (not 1, which means
    violations found, nor the interpreter's 120), buffered or not."""
    result = run_with_a_closed_pipe("stderr", argv, entry_inputs, subprocess_env, unbuffered)
    assert result.returncode == code
    assert result.stdout.startswith("usage: epipool") == (argv == ["--help"])
