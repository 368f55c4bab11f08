import itertools

import pytest

from epipool.epistemic import (
    AbstractSpaceError,
    EpistemicState,
    PropertySpace,
    SpaceMismatchError,
    induced_clauses,
    kb_to_state,
    state_entails,
    state_to_kb,
    union_states,
)
from epipool.logic import (
    AtomTable,
    Const,
    clause_excluding,
    format_clause,
    oracle_entails,
    parse_formula,
    parse_kb,
)
from epipool.verifier import TrialPlan, random_formula

AB = AtomTable.of(("a", "b"))
P4 = PropertySpace.logical(AB)


def state(members):
    return EpistemicState.of(P4, members)


def test_union_basic():
    assert union_states(state({0}), state({1})).members == frozenset({0, 1})


def test_union_identity_and_idempotence():
    s = state({0, 2})
    assert union_states(s, state(())).members == s.members
    assert union_states(s, state({2})).members == s.members


def test_union_rejects_mismatched_spaces():
    other = EpistemicState.of(PropertySpace.abstract(4), {1})
    with pytest.raises(SpaceMismatchError):
        union_states(state({0}), other)


def test_kb_to_state_excludes_only_the_all_false_world():
    kb = parse_kb("atoms: a b\na b\n")
    assert kb_to_state(kb).members == frozenset({0})


def test_kb_to_state_empty_kb_excludes_nothing():
    assert kb_to_state(parse_kb("atoms: a b\n")).members == frozenset()


def test_kb_to_state_inconsistent_kb_excludes_everything():
    kb = parse_kb("atoms: a b\na\n-a\n")
    assert kb_to_state(kb).members == frozenset(range(4))


def test_state_entails_examples():
    # worlds 2 and 3 remain; both satisfy b
    assert state_entails(state({0, 1}), parse_formula("b", AB))
    # world 2 (a false, b true) remains, so a is not entailed
    assert not state_entails(state({0}), parse_formula("a", AB))
    # everything excluded: vacuous entailment
    assert state_entails(state(range(4)), parse_formula("a & !a", AB))


def test_state_entails_requires_logical_space():
    abstract = EpistemicState.of(PropertySpace.abstract(4), {0})
    with pytest.raises(AbstractSpaceError):
        state_entails(abstract, Const(True))


def _state_kb(space, members):
    """KB whose models are exactly the non-excluded worlds."""
    return state_to_kb(EpistemicState.of(space, members))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_excluded_world_reading_matches_oracle(m):
    """Entailment through the excluded-world split equals brute-force
    entailment from the induced clause set, for every state."""
    atoms = AtomTable.of(tuple("abc"[:m]))
    space = PropertySpace.logical(atoms)
    plan = TrialPlan(seed=7)
    rng = plan.rng(f"excluded-worlds:{m}")
    formulas = [random_formula(rng, atoms.names, 3) for _ in range(30)]
    formulas += [Const(True), Const(False)]
    n_states = 1 << space.size
    state_iter = (
        range(n_states) if m <= 2 else plan.rng(f"states:{m}").sample(range(n_states), 64)
    )
    for bits in state_iter:
        members = frozenset(i for i in range(space.size) if bits >> i & 1)
        s = EpistemicState.of(space, members)
        kb = state_to_kb(s)
        assert kb_to_state(kb).members == members
        for f in formulas:
            assert state_entails(s, f) == oracle_entails(kb, f)


def test_union_matches_conjoined_clause_sets_exhaustively():
    """Union of two states entails exactly what the combined clause sets do."""
    plan = TrialPlan(seed=11)
    rng = plan.rng("pairs")
    formulas = [random_formula(rng, AB.names, 3) for _ in range(12)]
    for bits_s, bits_t in itertools.product(range(16), repeat=2):
        s = state(i for i in range(4) if bits_s >> i & 1)
        t = state(i for i in range(4) if bits_t >> i & 1)
        u = union_states(s, t)
        combined = parse_kb(
            "atoms: a b\n"
            + "".join(
                format_clause(c, AB) + "\n"
                for c in induced_clauses(s) + induced_clauses(t)
            )
        )
        for f in formulas:
            assert state_entails(u, f) == oracle_entails(combined, f)


def test_entailment_monotone_in_state_growth():
    f = parse_formula("a | b", AB)
    for bits in range(16):
        members = frozenset(i for i in range(4) if bits >> i & 1)
        if state_entails(state(members), f):
            assert state_entails(state(members | {2}), f)


def test_clause_induction_excludes_exactly_the_members():
    s = state({1, 2})
    kb = state_to_kb(s)
    assert kb_to_state(kb).members == s.members
    assert [format_clause(c, AB) for c in induced_clauses(s)] == [
        format_clause(clause_excluding(1, AB), AB),
        format_clause(clause_excluding(2, AB), AB),
    ]
