"""Weighted epistemic states: certainty levels 0..K per property.

Level 0 means nothing is known about a property; level K means full
certainty.  ``decode_weighted`` reads the levels with
``spaces.coordinate_levels``, the reader ``decode`` uses at cap 1, where
certainty level 1 is plain membership.  Pooling combines levels by pointwise maximum (the most
confident source wins), which is what the per-level threshold form of the
pooling principle expresses.  ``sharp_reduction`` maps the weighted setting
back to plain epistemic states over an extended property set, at the cost
of a (K+1)-fold dimension blowup; it exists to demonstrate exactly that
cost, with queries routed through the ordinary subset scorers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .epistemic import EpistemicState, PropertySpace
from .record import Record
from .spaces import (
    COORDINATE,
    GRADED_UNIT,
    EncodingError,
    SpaceConfig,
    Vector,
    coordinate_levels,
    require_covers,
    require_in_domain,
)


class WeightedState(Record):
    __slots__ = ("space", "levels", "cap")

    def __init__(self, space: PropertySpace, levels: tuple[int, ...], cap: int) -> None:
        if cap < 1:
            raise ValueError("level cap must be >= 1")
        if len(levels) != space.size:
            raise ValueError("one level per property required")
        if any(l < 0 or l > cap for l in levels):
            raise ValueError(f"levels must lie in 0..{cap}")
        super().__init__(space, levels, cap)

    @staticmethod
    def of(space: PropertySpace, levels: Iterable[int], cap: int) -> "WeightedState":
        return WeightedState(space, tuple(levels), cap)

    def format(self) -> str:
        return ",".join(str(l) for l in self.levels)


def levels_max(s: WeightedState, t: WeightedState) -> WeightedState:
    if s.space != t.space or s.cap != t.cap:
        raise ValueError("mismatched weighted states")
    return WeightedState(s.space, tuple(map(max, s.levels, t.levels)), s.cap)


def decode_weighted(
    config: SpaceConfig,
    v: Vector,
    semantics: str | None = None,
    cap: int | None = None,
) -> WeightedState:
    """Certainty levels 0..cap read by ``coordinate_levels``; the semantics
    and the cap default to the space's own."""
    k = cap if cap is not None else config.levels
    if k is None:
        raise ValueError("no level cap configured")
    if semantics is None:
        semantics = config.semantics
    require_in_domain(config, v)
    return WeightedState(config.properties, tuple(coordinate_levels(config, v, semantics, k)), k)


_GRADED_UNIT_COORDS = {2: Fraction(0), 1: Fraction(1, 2), 0: Fraction(1)}


def encode_weighted(config: SpaceConfig, state: WeightedState) -> Vector:
    """Canonical witness vector for a weighted state.

    Max pooling over R^n places each coordinate half a unit below its
    level, for any cap; the graded unit-interval space has a fixed
    three-valued table and supports cap 2 only.
    """
    if state.space != config.properties:
        raise ValueError("state belongs to a different property space")
    require_covers(config)
    if config.family == COORDINATE and config.operator == "max" and config.domain.kind == "reals":
        coords = [Fraction(l) - Fraction(1, 2) for l in state.levels]
        coords.extend([Fraction(-1, 2)] * (config.n - config.size))
        return tuple(coords)
    if config.family == GRADED_UNIT:
        if state.cap != 2:
            raise EncodingError("the graded unit-interval space encodes cap 2 only")
        coords = [_GRADED_UNIT_COORDS[l] for l in state.levels]
        coords.extend([Fraction(1)] * (config.n - config.size))
        return tuple(coords)
    raise EncodingError(
        f"no weighted encoder for ({config.name}, cap={state.cap})"
    )


class SharpReduction(Record):
    """Plain property space with one property per (property, level) pair.

    Extended property (p, i) reads "the certainty level of p is not i".
    Knowing a lower bound of L on p means excluding levels 0..L-1, so the
    lower-bound query "is p certain at least to degree i" becomes a subset
    conjunction over the extended properties below i.
    """

    __slots__ = ("base", "cap", "extended")
    base: PropertySpace
    cap: int
    extended: PropertySpace

    def index(self, prop: int, level: int) -> int:
        if not (0 <= prop < self.base.size and 0 <= level <= self.cap):
            raise IndexError("property or level out of range")
        return prop * (self.cap + 1) + level

    def query_set(self, prop: int, level: int) -> frozenset[int]:
        """Extended properties whose joint satisfaction means level >= ``level``."""
        if not (1 <= level <= self.cap):
            raise IndexError(f"lower-bound level must lie in 1..{self.cap}")
        return frozenset(self.index(prop, j) for j in range(level))

    def state_from_levels(self, levels: Sequence[int]) -> EpistemicState:
        """Extended state holding every excluded below-the-bound level."""
        if len(levels) != self.base.size:
            raise ValueError("one level per base property required")
        members = set()
        for p, l in enumerate(levels):
            if not (0 <= l <= self.cap):
                raise ValueError(f"levels must lie in 0..{self.cap}")
            members.update(self.index(p, j) for j in range(l))
        return EpistemicState(self.extended, frozenset(members))

    def levels_from_state(self, state: EpistemicState) -> tuple[int, ...]:
        """Highest certified lower bound per base property."""
        if state.space != self.extended:
            raise ValueError("state is not over this extended property space")
        levels = []
        for p in range(self.base.size):
            l = 0
            while l < self.cap and self.index(p, l) in state.members:
                l += 1
            levels.append(l)
        return tuple(levels)


def sharp_reduction(base: PropertySpace, cap: int) -> SharpReduction:
    if cap < 1:
        raise ValueError("level cap must be >= 1")
    names = tuple(
        f"{base.label(p)}#{i}" for p in range(base.size) for i in range(cap + 1)
    )
    return SharpReduction(base, cap, PropertySpace.abstract(names))
