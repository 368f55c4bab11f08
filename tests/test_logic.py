import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epipool.logic import (
    And,
    Atom,
    AtomCapExceeded,
    AtomTable,
    Const,
    FormulaSyntaxError,
    Iff,
    Implies,
    KBFormatError,
    Literal,
    MAX_FORMULA_DEPTH,
    Not,
    Or,
    TautologyWarning,
    UnknownAtomError,
    _parse,
    _tokenize,
    all_clauses,
    clause_excluding,
    format_clause,
    formula_atoms,
    models,
    oracle_entails,
    parse_formula,
    parse_kb,
    pretty,
    prime_implicates,
)
from world_oracle import eval_world

AB = AtomTable.of(("a", "b"))


# --- parsing ---------------------------------------------------------------


def test_parse_implication_node():
    assert parse_formula("a -> b", AB) == Implies(Atom("a"), Atom("b"))


def test_parse_de_morgan_is_tautology():
    f = parse_formula("!(a & b) <-> (!a | !b)", AB)
    assert models(f, AB) == frozenset(range(4))


def test_parse_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("a ->", AB)
    assert exc.value.position == 5  # 1-based column just past the dangling arrow


@pytest.mark.parametrize("text, position", [("a & é", 5), ("é", 1), ("aé", 2), ("a | b²", 6)])
def test_a_non_ascii_identifier_character_is_a_syntax_error_with_its_position(text, position):
    """Atom names are ASCII identifiers, so the tokenizer stops at the first
    other character, before any atom table sees the name."""
    with pytest.raises(FormulaSyntaxError) as exc:
        models(parse_formula(text))
    assert exc.value.position == position


def test_parse_unknown_atom():
    with pytest.raises(UnknownAtomError):
        parse_formula("a | c", AB)
    with pytest.raises(UnknownAtomError, match="unknown atom: 'y'"):
        parse_formula("z & y", AB)  # the alphabetically first unknown atom
    with pytest.raises(FormulaSyntaxError):
        parse_formula("z &", AB)  # a syntax error wins over the unknown atom
    assert parse_formula("T | a", AB) == Or(Const(True), Atom("a"))


def test_precedence_and_associativity():
    f = parse_formula("!a & b | c -> d <-> e")
    # <-> binds loosest, -> next, then |, &, !
    assert isinstance(f, Iff)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, Or)
    assert isinstance(f.left.left.left, And)
    assert f.left.left.left.left == Not(Atom("a"))
    g = parse_formula("a -> b -> c")
    assert g == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))


def test_formula_at_the_depth_cap_parses_prints_and_evaluates():
    f = parse_formula("!" * (MAX_FORMULA_DEPTH - 1) + "a", AB)  # an odd count: !a
    assert models(f, AB) == models(Not(Atom("a")), AB)
    assert models(parse_formula(pretty(f), AB), AB) == models(f, AB)
    chain = parse_formula(" | ".join(["b"] * MAX_FORMULA_DEPTH), AB)
    assert models(chain, AB) == models(Atom("b"), AB)


@pytest.mark.parametrize(
    "text",
    ["(" * 600 + "a" + ")" * 600, "!" * 600 + "a", " & ".join(["a"] * 600)],
    ids=["parens", "nots", "chain"],
)
def test_formula_past_the_depth_cap_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse_formula(text, AB)


# --- the tokenizer against a character-by-character reference ----------------

_REFERENCE_SPECS = (
    ("<->", Iff), ("->", Implies), ("&", And), ("|", Or), ("!", "NOT"), ("(", "LP"), (")", "RP"),
)
_REFERENCE_IDENT_CHARS = frozenset(
    "_0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


def reference_tokenize(text):
    """One character at a time: blanks by ``str.isspace``, then the first
    symbol that the text continues with, then an ASCII identifier."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for lit, kind in _REFERENCE_SPECS:
            if text.startswith(lit, i):
                tokens.append((kind, lit, i))
                i += len(lit)
                break
        else:
            if c in _REFERENCE_IDENT_CHARS and not c.isdigit():
                j = i
                while j < len(text) and text[j] in _REFERENCE_IDENT_CHARS:
                    j += 1
                tokens.append(("IDENT", text[i:j], i))
                i = j
            else:
                raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


def reference_parse_formula(text, atoms=None):
    """Parse, then check the atoms of the finished tree in sorted order."""
    f = _parse(reference_tokenize(text))
    if atoms is not None:
        for name in sorted(formula_atoms(f)):
            if name not in atoms:
                raise UnknownAtomError(f"unknown atom: {name!r}")
    return f


def outcome(function, *args):
    """The value, or the exception's type, message and 1-based position."""
    try:
        return function(*args)
    except (FormulaSyntaxError, UnknownAtomError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# every connective and its partial prefixes, identifier characters and the
# constants, non-ASCII letters, and ASCII and Unicode whitespace
FORMULA_PIECES = (
    "<->", "->", "&", "|", "!", "(", ")", "<-", "-", "<", ">",
    "a", "b", "c", "z", "0", "9", "_", "T", "F", "é", "²",
    " ", "\t", "\n", "\v", "\x1c", "\x85", "\xa0", "\u3000",
)


@given(st.lists(st.sampled_from(FORMULA_PIECES), max_size=14).map("".join))
@example("")
@example(" ")
@example(" \t\n\v\x1c\x85\xa0\u3000")
@example("a\x85&\u3000b\xa0")
@example("a & é")
@example("z &")
def test_tokenizer_and_parse_match_the_character_loop_reference(text):
    assert outcome(_tokenize, text) == outcome(reference_tokenize, text)
    for atoms in (None, AB):
        assert outcome(parse_formula, text, atoms) == outcome(
            reference_parse_formula, text, atoms
        )


# --- KB format ---------------------------------------------------------------


def test_parse_kb_two_clauses():
    kb = parse_kb("atoms: a b c\na b\n-a c\n")
    assert kb.atoms.names == ("a", "b", "c")
    assert frozenset({Literal(0, True), Literal(1, True)}) in kb.clauses
    assert frozenset({Literal(0, False), Literal(2, True)}) in kb.clauses


def test_parse_kb_empty_file_is_tautologous():
    kb = parse_kb("# nothing here\n\n")
    assert kb.clauses == ()
    assert oracle_entails(kb, Const(True))


def test_parse_kb_drops_tautological_clause_with_warning():
    with pytest.warns(TautologyWarning):
        kb = parse_kb("a -a\nb\n")
    assert len(kb.clauses) == 1


def test_parse_kb_duplicate_declaration():
    with pytest.raises(KBFormatError):
        parse_kb("atoms: a a b\n")


def test_parse_kb_undeclared_atom():
    with pytest.raises(KBFormatError):
        parse_kb("atoms: a b\na c\n")


@pytest.mark.parametrize("names", [("F", "a"), ("T",), ("1", "2"), ("a-b",), ("\u00e9",), ("",)])
def test_atom_table_refuses_names_that_are_not_ascii_identifiers_or_are_constants(names):
    with pytest.raises(ValueError, match="ASCII identifiers other than T and F"):
        AtomTable.of(names)


@pytest.mark.parametrize(
    "text, line",
    [("atoms: F a\nF\n", 1), ("T a\n", 1), ("atoms: 1 2\n", 1), ("atoms: a \u00e9\na\n", 1),
     ("\u00e9\n", 1), ("a \u00e9\n", 1), ("a\n# T\n\n-T b\n", 4), ("atoms: a\n-\n", 2)],
    ids=["declared-F", "clause-T", "declared-digits", "declared-non-ascii", "clause-non-ascii",
         "second-literal-non-ascii", "negated-T", "bare-minus"],
)
def test_parse_kb_refuses_atoms_a_formula_cannot_name(text, line):
    # parse_formula reads T and F as the constants, so a KB atom F could
    # never be asked about; the refusal names the line, as a bad literal's does
    rule = "ASCII identifiers other than T and F"
    with pytest.raises(KBFormatError, match=f"^line {line}: .*{rule}"):
        parse_kb(text)


def test_parse_kb_empty_clause_is_inconsistent():
    kb = parse_kb("atoms: a\n\n")
    kb2 = parse_kb("a\n-a\n")
    assert models(kb2) == frozenset()
    assert models(kb) == frozenset({0, 1})


# --- evaluation ---------------------------------------------------------------


def test_eval_world_disjunction_false_world():
    f = parse_formula("a | b", AB)
    assert eval_world(f, 0, AB) is False


def test_eval_world_implication_counterexample():
    # world 1: a true (bit 0), b false (bit 1)
    f = parse_formula("a -> b", AB)
    assert eval_world(f, 1, AB) is False


def test_eval_world_top():
    for w in range(4):
        assert eval_world(Const(True), w, AB)


def test_models_disjunction():
    f = parse_formula("a | b", AB)
    assert models(f, AB) == frozenset({1, 2, 3})


def test_models_bottom():
    assert models(Const(False), AB) == frozenset()


def test_models_kb():
    kb = parse_kb("atoms: a b\na b\n-a b\n")
    assert models(kb) == frozenset({2, 3})


def test_oracle_entails_examples():
    kb = parse_kb("atoms: a b\na b\n-a b\n")
    assert oracle_entails(kb, parse_formula("b", AB))
    assert not oracle_entails(parse_kb("atoms: a b\na b\n"), parse_formula("a", AB))
    assert oracle_entails(parse_kb(""), Const(True))


def test_atom_cap():
    names = [f"x{i:02d}" for i in range(13)]
    kb = parse_kb("atoms: " + " ".join(names) + "\n")
    with pytest.raises(AtomCapExceeded):
        models(kb)


# --- invariants ---------------------------------------------------------------

atom_names = st.sampled_from(("a", "b", "c"))
formulas = st.recursive(
    st.one_of(
        atom_names.map(Atom),
        st.sampled_from((Const(True), Const(False))),
    ),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=12,
)

ABC = AtomTable.of(("a", "b", "c"))


@given(formulas)
def test_models_of_negation_is_complement(f):
    assert models(Not(f), ABC) == frozenset(range(8)) - models(f, ABC)


@given(formulas)
def test_pretty_parse_roundtrip(f):
    assert parse_formula(pretty(f)) == f


@given(formulas, st.integers(min_value=0, max_value=7))
def test_entailment_monotone_under_added_clauses(f, w):
    kb = parse_kb("atoms: a b c\na b\n")
    stronger = parse_kb("atoms: a b c\na b\n" + format_clause(clause_excluding(w, ABC), ABC) + "\n")
    if oracle_entails(kb, f):
        assert oracle_entails(stronger, f)


# --- clause helpers ---------------------------------------------------------------


def test_clause_excluding_is_false_exactly_there():
    for w in range(8):
        c = clause_excluding(w, ABC)
        sat = {u for u in range(8) if any(bool(u >> l.atom & 1) == l.positive for l in c)}
        assert sat == frozenset(range(8)) - {w}


def test_all_clauses_count():
    assert sum(1 for _ in all_clauses(AB)) == 9  # 3^2 including the empty clause


def test_prime_implicates_of_single_model():
    # only world a=1,b=1 remains: prime implicates are the unit clauses a, b
    primes = prime_implicates(frozenset({3}), AB)
    rendered = {format_clause(c, AB) for c in primes}
    assert rendered == {"a", "b"}


def test_prime_implicates_inconsistent_state():
    primes = prime_implicates(frozenset(), AB)
    assert primes == [frozenset()]
