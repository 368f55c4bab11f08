"""Epistemic states over a property space, and the bridge to logic.

An epistemic state is just the set of elementary properties for which
evidence has been accumulated.  In *logical* mode the property space has one
property per possible world, read as "this world is excluded", which lets a
state stand for an arbitrary propositional knowledge base: what is entailed
is whatever holds in every world that has not been excluded.  The deductively
closed clause set itself is never materialised; entailment questions go
through the excluded-world reading, with the worlds a KB or formula rules
out read off the complement of its truth-table mask, and the CLI can
reconstruct prime implicates for small vocabularies on request.
"""

from __future__ import annotations

from typing import Iterable

from .logic import (
    MAX_ATOMS_DEFAULT,
    AtomTable,
    Clause,
    Formula,
    KnowledgeBase,
    check_cap,
    clause_excluding,
    countermodels,
    kb_mask,
    mask_worlds,
    world_mask,
)
from .record import Record


class SpaceMismatchError(ValueError):
    """Two states from different property spaces were combined."""


class AbstractSpaceError(TypeError):
    """A logical-mode operation was applied to an abstract property space."""


class PropertySpace(Record):
    """Either an abstract list of named properties or one property per world."""

    __slots__ = ("size", "atoms", "names")

    def __init__(
        self,
        size: int,
        atoms: AtomTable | None = None,
        names: tuple[str, ...] | None = None,
    ) -> None:
        if size < 0:
            raise ValueError("property count cannot be negative")
        if atoms is not None and size != atoms.world_count():
            raise ValueError("logical property space must have size 2^m")
        if names is not None and len(names) != size:
            raise ValueError("one name per property required")
        super().__init__(size, atoms, names)

    @staticmethod
    def abstract(size_or_names: int | Iterable[str]) -> "PropertySpace":
        if isinstance(size_or_names, int):
            return PropertySpace(size_or_names)
        names = tuple(size_or_names)
        return PropertySpace(len(names), names=names)

    @staticmethod
    def logical(atoms: AtomTable) -> "PropertySpace":
        return PropertySpace(atoms.world_count(), atoms=atoms)

    def label(self, i: int) -> str:
        if self.names is not None:
            return self.names[i]
        return f"p{i}"


class EpistemicState(Record):
    __slots__ = ("space", "members")

    def __init__(self, space: PropertySpace, members: frozenset[int]) -> None:
        if members and (min(members) < 0 or max(members) >= space.size):
            raise ValueError("property index out of range")
        super().__init__(space, members)

    @staticmethod
    def of(space: PropertySpace, members: Iterable[int]) -> "EpistemicState":
        return EpistemicState(space, frozenset(members))

    @staticmethod
    def of_mask(space: PropertySpace, mask: int) -> "EpistemicState":
        """The state whose members are the set bits of ``mask``.  The range
        is checked on the mask, ``mask >> size == 0``, which also refuses a
        negative one, so the members are not scanned."""
        if mask >> space.size:
            raise ValueError("property index out of range")
        state = object.__new__(EpistemicState)
        Record.__init__(state, space, frozenset(mask_worlds(mask)))
        return state

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def format(self) -> str:
        if not self.members:
            return "{}"
        return "{" + " ".join(self.space.label(i) for i in sorted(self.members)) + "}"


def union_states(s: EpistemicState, t: EpistemicState) -> EpistemicState:
    if s.space != t.space:
        raise SpaceMismatchError("cannot union states over different property spaces")
    return EpistemicState(s.space, s.members | t.members)


def kb_to_state(kb: KnowledgeBase, cap: int = MAX_ATOMS_DEFAULT) -> EpistemicState:
    """State holding one exclusion property per world the KB rules out."""
    check_cap(kb.atoms, cap)
    return EpistemicState.of_mask(
        PropertySpace.logical(kb.atoms), world_mask(kb.atoms) ^ kb_mask(kb)
    )


def state_entails(s: EpistemicState, f: Formula) -> bool:
    """True when every world not excluded by ``s`` satisfies ``f``.

    Member/non-member is the excluded/non-excluded split under strict and
    weak semantics alike, so the answer needs no semantics.
    """
    if s.space.atoms is None:
        raise AbstractSpaceError("entailment needs a logical property space")
    return s.members.issuperset(countermodels(f, s.space.atoms))


def induced_clauses(s: EpistemicState) -> list[Clause]:
    """One clause per excluded world; their conjunction has exactly the
    non-excluded worlds as models."""
    if s.space.atoms is None:
        raise AbstractSpaceError("clauses need a logical property space")
    return [clause_excluding(w, s.space.atoms) for w in sorted(s.members)]


def state_to_kb(s: EpistemicState) -> KnowledgeBase:
    if s.space.atoms is None:
        raise AbstractSpaceError("clauses need a logical property space")
    return KnowledgeBase(tuple(induced_clauses(s)), s.space.atoms)
