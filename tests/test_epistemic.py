import copy
import itertools
import pickle
import random

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
    kb_mask,
    mask_worlds,
    oracle_entails,
    parse_formula,
    parse_kb,
    world_mask,
)
from epipool.spaces import decode, encode, make_space
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


# --- states built from a mask ---------------------------------------------------


def mask_cases():
    """(space, mask): empty, single, full and random masks, on abstract
    spaces and on logical ones up to 12 atoms."""
    rng = random.Random(30)
    spaces = [PropertySpace.abstract(size) for size in (0, 1, 5, 64)]
    for m in (1, 3, 12):
        spaces.append(PropertySpace.logical(AtomTable.of(f"a{j:02d}" for j in range(m))))
    for space in spaces:
        full = (1 << space.size) - 1
        for mask in {0, full, full & 1, (full + 1) >> 1, rng.getrandbits(space.size)}:
            yield space, mask


@pytest.mark.parametrize(
    "clone",
    [lambda s: s, copy.copy, copy.deepcopy]
    + [lambda s, p=p: pickle.loads(pickle.dumps(s, protocol=p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["same", "copy", "deepcopy"] + [f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_a_state_built_from_a_mask_is_the_state_of_its_worlds(clone):
    """Equal, with equal hash and repr, to the state the member-checking
    constructor builds, through copy and pickle too."""
    for space, mask in mask_cases():
        reference = EpistemicState(space, frozenset(mask_worlds(mask)))
        state = clone(EpistemicState.of_mask(space, mask))
        assert type(state) is EpistemicState
        assert state == reference and reference == state and not state != reference
        assert hash(state) == hash(reference) and repr(state) == repr(reference)
        assert state.members == reference.members and state.space == reference.space


def test_kb_to_state_and_decode_build_the_state_of_their_mask():
    rng = random.Random(12)
    atoms = AtomTable.of(f"a{j:02d}" for j in range(12))
    clauses = ("a00 -a03 a07", "-a01 a05", "a02 a11 -a09", "a04 -a06")
    for count in range(len(clauses) + 1):
        kb = parse_kb("atoms: " + " ".join(atoms.names) + "\n" + "\n".join(clauses[:count]))
        excluded = world_mask(atoms) ^ kb_mask(kb)
        state = kb_to_state(kb)
        assert state == EpistemicState(state.space, frozenset(mask_worlds(excluded)))
        for name in ("max-weak-nonpos", "had-weak-nonneg"):
            config = make_space(name, properties=state.space)
            assert decode(config, encode(config, state)) == state
    padded = make_space("max-weak-reals", 5, n=9)
    members = [i for i in range(5) if rng.random() < 0.5]
    state = EpistemicState.of(padded.properties, members)
    assert decode(padded, encode(padded, state)) == state
