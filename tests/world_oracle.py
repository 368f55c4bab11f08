"""Per-world evaluation: the independent oracle for epipool's truth-table masks.

Every function here visits the 2^m worlds one at a time and walks the
formula or clause once per world, the way the library did before it moved
to bit-parallel masks.  Tests compare the two.
"""

from __future__ import annotations

from epipool.logic import (
    And,
    Atom,
    AtomTable,
    Clause,
    Const,
    Formula,
    Iff,
    Implies,
    KnowledgeBase,
    Not,
    Or,
    all_clauses,
)


def eval_world(f: Formula, world: int, atoms: AtomTable) -> bool:
    """Truth of ``f`` under the interpretation encoded by ``world``."""
    if isinstance(f, Atom):
        return bool(world >> atoms.index(f.name) & 1)
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_world(f.arg, world, atoms)
    if isinstance(f, And):
        return eval_world(f.left, world, atoms) and eval_world(f.right, world, atoms)
    if isinstance(f, Or):
        return eval_world(f.left, world, atoms) or eval_world(f.right, world, atoms)
    if isinstance(f, Implies):
        return (not eval_world(f.left, world, atoms)) or eval_world(f.right, world, atoms)
    if isinstance(f, Iff):
        return eval_world(f.left, world, atoms) == eval_world(f.right, world, atoms)
    raise TypeError(f"not a formula: {f!r}")


def eval_clause(clause: Clause, world: int) -> bool:
    return any(bool(world >> lit.atom & 1) == lit.positive for lit in clause)


def formula_models(f: Formula, atoms: AtomTable) -> frozenset[int]:
    return frozenset(w for w in range(atoms.world_count()) if eval_world(f, w, atoms))


def kb_models(kb: KnowledgeBase) -> frozenset[int]:
    return frozenset(
        w
        for w in range(kb.atoms.world_count())
        if all(eval_clause(c, w) for c in kb.clauses)
    )


def excluded_worlds(kb: KnowledgeBase) -> frozenset[int]:
    """The members of the state a KB encodes: the worlds it rules out."""
    return frozenset(range(kb.atoms.world_count())) - kb_models(kb)


def state_entails(excluded: frozenset[int], f: Formula, atoms: AtomTable) -> bool:
    return all(
        eval_world(f, w, atoms)
        for w in range(atoms.world_count())
        if w not in excluded
    )


def oracle_entails(kb: KnowledgeBase, f: Formula) -> bool:
    return all(eval_world(f, w, kb.atoms) for w in kb_models(kb))


def prime_implicates(remaining: frozenset[int], atoms: AtomTable) -> set[Clause]:
    implicates = [
        c for c in all_clauses(atoms) if all(eval_clause(c, w) for w in remaining)
    ]
    return {c for c in implicates if not any(other < c for other in implicates)}
