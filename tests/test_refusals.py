"""Refusals across the library, each with its exception type, and the few
success paths beside them that no other test takes."""

from fractions import Fraction

import pytest

from epipool.cli import main
from epipool.epistemic import (
    AbstractSpaceError,
    EpistemicState,
    PropertySpace,
    induced_clauses,
    state_to_kb,
)
from epipool.logic import (
    AtomTable,
    FormulaSyntaxError,
    KBFormatError,
    UnknownAtomError,
    format_clause,
    models,
    oracle_entails,
    parse_formula,
    parse_kb,
)
from epipool.pooling import check_weighted_principle, pool, pool_many, pool_scalar
from epipool.spaces import (
    COORDINATE,
    DomainError,
    DomainX,
    EncodingError,
    SpaceConfig,
    encode,
    encode_values,
    make_space,
)
from epipool.svgplot import render_regions
from epipool.verifier import verify_weighted
from epipool.weighted import (
    WeightedState,
    decode_weighted,
    encode_weighted,
    levels_max,
    sharp_reduction,
)

F = Fraction
P2 = PropertySpace.abstract(2)
AB = AtomTable(("a", "b"))
SHARP = sharp_reduction(P2, 2)
GRADED = make_space("weighted-had-unit", 2)
MAX_REALS = make_space("max-strict-reals", 2)


REFUSALS = [
    # epistemic
    ("negative-property-count", lambda: PropertySpace(-1), ValueError),
    ("logical-size-not-2^m", lambda: PropertySpace(3, atoms=AB), ValueError),
    ("names-per-property", lambda: PropertySpace(2, names=("a",)), ValueError),
    ("state-index-above", lambda: EpistemicState(P2, frozenset({2})), ValueError),
    ("state-index-below", lambda: EpistemicState(P2, frozenset({-1})), ValueError),
    ("state-mask-bit-size", lambda: EpistemicState.of_mask(P2, 0b101), ValueError),
    ("state-mask-negative", lambda: EpistemicState.of_mask(P2, -1), ValueError),
    ("induced-clauses-abstract", lambda: induced_clauses(EpistemicState.of(P2, [0])),
     AbstractSpaceError),
    ("state-to-kb-abstract", lambda: state_to_kb(EpistemicState.of(P2, [0])), AbstractSpaceError),
    # weighted
    ("weighted-cap-0", lambda: WeightedState(P2, (0, 0), 0), ValueError),
    ("weighted-level-above-cap", lambda: WeightedState(P2, (3, 0), 2), ValueError),
    ("weighted-level-negative", lambda: WeightedState(P2, (-1, 0), 2), ValueError),
    ("levels-max-caps", lambda: levels_max(WeightedState(P2, (0, 0), 1),
                                           WeightedState(P2, (0, 0), 2)), ValueError),
    ("levels-max-spaces", lambda: levels_max(
        WeightedState(P2, (0, 0), 1), WeightedState(PropertySpace.abstract("xy"), (0, 0), 1)),
     ValueError),
    ("decode-weighted-no-cap", lambda: decode_weighted(MAX_REALS, (F(0), F(0))), ValueError),
    ("encode-weighted-other-space", lambda: encode_weighted(
        GRADED, WeightedState(PropertySpace.abstract(3), (0, 0, 0), 2)), ValueError),
    ("encode-weighted-graded-cap-3", lambda: encode_weighted(
        GRADED, WeightedState(GRADED.properties, (0, 0), 3)), EncodingError),
    ("sharp-index-prop", lambda: SHARP.index(2, 0), IndexError),
    ("sharp-index-level", lambda: SHARP.index(0, 3), IndexError),
    ("sharp-query-level-0", lambda: SHARP.query_set(0, 0), IndexError),
    ("sharp-query-level-above", lambda: SHARP.query_set(0, 3), IndexError),
    ("sharp-levels-count", lambda: SHARP.state_from_levels((0,)), ValueError),
    ("sharp-levels-range", lambda: SHARP.state_from_levels((0, 3)), ValueError),
    ("sharp-state-other-space", lambda: SHARP.levels_from_state(EpistemicState.of(P2, [])),
     ValueError),
    ("sharp-reduction-cap-0", lambda: sharp_reduction(P2, 0), ValueError),
    # spaces
    ("domain-kind", lambda: DomainX("complex", 2), ValueError),
    ("bounded-above-without-z", lambda: DomainX("bounded-above", 2), ValueError),
    ("config-semantics", lambda: SpaceConfig(
        "probe", "max", "fuzzy", DomainX("reals", 2), COORDINATE, P2), ValueError),
    ("config-unhashable-operator", lambda: SpaceConfig(
        "probe", ["max"], "strict", DomainX("reals", 2), COORDINATE, P2), ValueError),
    ("config-family", lambda: SpaceConfig(
        "probe", "max", "strict", DomainX("reals", 2), "cubic", P2), ValueError),
    ("encode-other-space", lambda: encode(
        MAX_REALS, EpistemicState.of(PropertySpace.abstract(3), [0])), ValueError),
    ("encode-values-disc", lambda: encode_values(make_space("example1")), EncodingError),
    # pooling
    ("pool-scalar-operator", lambda: pool_scalar("median", F(1), F(2)), ValueError),
    ("pool-scalar-unhashable-operator", lambda: pool_scalar(["avg"], F(1), F(2)), ValueError),
    ("pool-unhashable-operator", lambda: pool(["avg"], (F(1),), (F(2),)), ValueError),
    ("pool-many-unhashable-operator", lambda: pool_many(["avg"], [(F(1),)]), ValueError),
    ("pool-many-dimensions", lambda: pool_many("sum", [(F(1),), (F(1), F(2))]), DomainError),
    ("weighted-principle-cap-0", lambda: check_weighted_principle(
        MAX_REALS, 0, (F(0), F(0)), (F(0), F(0))), ValueError),
    # logic
    ("atom-table-unsorted", lambda: AtomTable(("b", "a")), ValueError),
    ("formula-trailing-input", lambda: parse_formula("a b"), FormulaSyntaxError),
    ("formula-unclosed-group", lambda: parse_formula("(a"), FormulaSyntaxError),
    ("kb-atoms-not-first", lambda: parse_kb("a b\natoms: a b\n"), KBFormatError),
    ("kb-malformed-literal", lambda: parse_kb("a -\n"), KBFormatError),
    ("oracle-unknown-query-atom", lambda: oracle_entails(parse_kb("a b\n"), parse_formula("c")),
     UnknownAtomError),
    # svgplot
    ("plot-n-3", lambda: render_regions(make_space("max-strict-reals", 3), F(-1), F(1), 8),
     ValueError),
    ("plot-resolution-1", lambda: render_regions(MAX_REALS, F(-1), F(1), 1), ValueError),
    ("plot-empty-range", lambda: render_regions(MAX_REALS, F(1), F(1), 8), ValueError),
    ("plot-float-bound", lambda: render_regions(MAX_REALS, -1.5, F(1), 8), TypeError),
    ("plot-n-below-P", lambda: render_regions(make_space("max-strict-reals", 3, n=2), -1, 1, 8),
     DomainError),
    # verifier
    ("verify-weighted-no-levels", lambda: verify_weighted(MAX_REALS), ValueError),
]


@pytest.mark.parametrize(
    "refused, error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_refused_with_its_exception_type(refused, error):
    with pytest.raises(error) as caught:
        refused()
    assert type(caught.value) is error


STATE_RANGE = [r for r in REFUSALS if r[0].startswith(("state-index", "state-mask"))]


@pytest.mark.parametrize("refused", [r[1] for r in STATE_RANGE], ids=[r[0] for r in STATE_RANGE])
def test_a_state_out_of_range_names_the_property_index(refused):
    """The member check and the mask check refuse with one message."""
    with pytest.raises(ValueError, match=r"^property index out of range$"):
        refused()


UNKNOWN_OPERATOR = [r for r in REFUSALS if r[0].endswith("-operator")]


@pytest.mark.parametrize(
    "refused", [r[1] for r in UNKNOWN_OPERATOR], ids=[r[0] for r in UNKNOWN_OPERATOR]
)
def test_an_unknown_operator_is_named(refused):
    """Every operator check is one lookup in the table, with one message."""
    with pytest.raises(ValueError, match=r"^unknown operator: (\['avg'\]|\['max'\]|'median')$"):
        refused()


def test_a_state_answers_membership():
    state = EpistemicState.of(P2, [1])
    assert 1 in state and 0 not in state and 2 not in state


def test_models_infers_the_atoms_of_a_formula():
    # atoms (a, b): a world's bit j is atom j, so a & !b holds at world 1 only
    assert models(parse_formula("a & !b")) == frozenset({1})
    assert models(parse_formula("b | !b")) == frozenset({0, 1})


def test_the_empty_clause_is_formatted():
    assert format_clause(frozenset(), AB) == "<empty>"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def encoded(tmp_path, capsys):
    """``a | b`` encoded for max-weak-nonpos: the world a=0 b=0 is excluded."""
    kb, path = tmp_path / "one.kb", tmp_path / "v.json"
    kb.write_text("atoms: a b\na b\n")
    assert run(capsys, "encode", "--space", "max-weak-nonpos", "--kb", kb, "-o", path)[0] == 0
    return path


@pytest.mark.parametrize("atoms", ["a,b", "a b"])
def test_decode_logical_names_the_worlds_after_atoms(capsys, encoded, atoms):
    code, out, err = run(
        capsys, "decode", "--space", "max-weak-nonpos", encoded, "--logical", "--atoms", atoms
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "one: excluded worlds: 00",
        "one: worlds remaining: a=1 b=0; a=0 b=1; a=1 b=1",
    ]


def test_query_reads_the_atoms_given(capsys, encoded):
    argv = ["query", "--space", "max-weak-nonpos", "--scorer", "linear", "--atoms", "a,b"]
    assert run(capsys, *argv, "--formula", "a | b", encoded) == (0, "one: ENTAILED\n", "")
    assert run(capsys, *argv, "--formula", "a", encoded) == (0, "one: NOT-ENTAILED\n", "")


def test_report_text_exit_0(capsys):
    code, out, err = run(capsys, "report", "--text", "--trials", "100")
    assert code == 0 and err == ""
    assert not out.startswith("{") and "totals:" in out.splitlines()[-1]
