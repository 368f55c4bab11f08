"""The truth-table mask core against the per-world oracle in world_oracle.py."""

import random

import pytest

import world_oracle as oracle
from epipool.epistemic import kb_to_state, state_entails
from epipool.logic import (
    MAX_FORMULA_DEPTH,
    And,
    Atom,
    AtomTable,
    Const,
    Iff,
    Implies,
    KnowledgeBase,
    Literal,
    Not,
    Or,
    models,
    oracle_entails,
    parse_formula,
    prime_implicates,
)

NAMES = "abcdefghijkl"


def random_formula(rng, names, depth):
    """Depth at most ``depth``, with the constants T and F among the leaves."""
    if depth == 0 or rng.random() < 0.2:
        if not names or rng.random() < 0.15:
            return Const(rng.random() < 0.5)
        return Atom(rng.choice(names))
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return (And, Or, Implies, Iff)[kind - 1](left, right)


def tautology_free_kb(rng, atoms, clauses):
    """Each clause names distinct atoms, so none is a tautology."""
    m = len(atoms)
    return KnowledgeBase(
        tuple(
            frozenset(
                Literal(j, rng.random() < 0.5)
                for j in rng.sample(range(m), rng.randint(1, min(m, 3)))
            )
            for _ in range(clauses if m else 0)
        ),
        atoms,
    )


def clause_formula(clause):
    """A KB clause as a formula, so that the KB entails it."""
    f = Const(False)
    for lit in sorted(clause, key=lambda l: l.atom):
        a = Atom(NAMES[lit.atom])
        f = Or(f, a if lit.positive else Not(a))
    return f


def check_against_oracle(kb, formulas):
    atoms = kb.atoms
    assert models(kb) == oracle.kb_models(kb)
    state = kb_to_state(kb)
    assert state.members == oracle.excluded_worlds(kb)
    for f in formulas:
        assert models(f, atoms) == oracle.formula_models(f, atoms), f
        assert state_entails(state, f) == oracle.state_entails(state.members, f, atoms), f
        assert oracle_entails(kb, f) == oracle.oracle_entails(kb, f), f


@pytest.mark.parametrize("m", range(13))
def test_masks_agree_with_per_world_oracle(m):
    rng = random.Random(m)
    atoms = AtomTable.of(NAMES[:m])
    formulas = [random_formula(rng, atoms.names, 6) for _ in range(8 if m <= 8 else 3)]
    kb = tautology_free_kb(rng, atoms, max(1, m // 2))
    inconsistent = KnowledgeBase(kb.clauses + (frozenset(),), atoms)
    entailed = [clause_formula(c) for c in kb.clauses[:1]]
    check_against_oracle(kb, formulas + entailed)
    check_against_oracle(inconsistent, formulas)
    assert models(inconsistent) == frozenset()
    assert kb_to_state(inconsistent).members == frozenset(range(atoms.world_count()))


@pytest.mark.parametrize("m", range(5))
def test_prime_implicates_agree_with_per_world_oracle(m):
    rng = random.Random(100 + m)
    atoms = AtomTable.of(NAMES[:m])
    kb = tautology_free_kb(rng, atoms, m)
    remaining_sets = [frozenset(), frozenset(range(atoms.world_count())), models(kb)]
    remaining_sets += [models(random_formula(rng, atoms.names, 6), atoms) for _ in range(6)]
    for remaining in remaining_sets:
        got = prime_implicates(remaining, atoms, cap=4)
        assert len(got) == len(set(got))
        assert set(got) == oracle.prime_implicates(remaining, atoms), sorted(remaining)


def test_masks_agree_at_the_deepest_formula():
    rng = random.Random(512)
    atoms = AtomTable.of(NAMES[:6])
    chain = parse_formula(" <-> ".join(rng.choice(atoms.names) for _ in range(MAX_FORMULA_DEPTH)))
    mixed = Atom("a")
    for _ in range(MAX_FORMULA_DEPTH - 1):  # one operator per level, either side
        if rng.random() < 0.2:
            mixed = Not(mixed)
            continue
        leaf = random_formula(rng, atoms.names, 0)
        op = rng.choice((And, Or, Implies, Iff))
        mixed = op(mixed, leaf) if rng.random() < 0.5 else op(leaf, mixed)
    kb = tautology_free_kb(rng, atoms, 3)
    check_against_oracle(kb, [chain, mixed, Not(chain)])
