"""The four pooling operators, executable pooling-principle checks, and the
counterexample record they return.

``pool`` builds each distinct pair of coordinate objects once.  On two
``spaces.Encoded`` inputs it finds those pairs from their parts, and lays
out the n coordinates in C, with no Python pass over them.  Two
``Encoded`` inputs give an ``Encoded`` result, whose parts come from the
pairs that occur, so ``pooled_vector``'s closure check and the readers
downstream read its distinct objects, not its n coordinates; the closure
check refuses a result that leaves the domain.

There is one principle loop: at every property the pooled vector's
certainty level must be the higher of the two inputs' levels.
``check_weighted_principle`` reads the levels at cap K with
``spaces.coordinate_levels``.  ``check_principle`` is the loop at cap 1,
where a level is plain membership and ``decode`` (``coordinate_levels`` at
cap 1) reads it: decoding the pooled vector must give exactly the union of
the separately decoded states.  Both return ``None`` on success or a
``Witness`` naming the first violation (lowest property index, then lowest
level), with the inputs echoed so it replays.  ``Witness`` is the one
counterexample record of the package: the verifier's sweeps and reports and
the CLI use it too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .numeric import exact_sum, format_rational
from .record import Record
from .spaces import (
    OPERATORS,
    Encoded,
    SpaceConfig,
    Vector,
    contains,
    coordinate_levels,
    decode,
    format_vector,
    DomainError,
    index_planes,
    merged_parts,
    position_labels,
    outside_at,
    require_in_domain,
    tagged,
)

_TWO = Fraction(2)


class PoolClosureError(DomainError):
    """Pooling left the domain: X is not closed under the operator."""


def pool_scalar(operator: str, a: Fraction, b: Fraction) -> Fraction:
    """Each operator's rule on one pair of coordinates; ``pool`` applies it."""
    if operator == "avg":
        return (a + b) / _TWO
    if operator == "sum":
        return a + b
    if operator == "max":
        return a if a >= b else b
    if operator == "had":
        return a * b
    raise ValueError(f"unknown operator: {operator!r}")


def pool(operator: str, v: Vector, w: Vector) -> Vector:
    """``pool_scalar`` coordinatewise, once per distinct pair of coordinates.

    Two ``Encoded`` inputs are pooled on their parts: ``pool_scalar`` runs
    once per pair of parts whose positions meet, so two encoded vectors
    pool with at most four calls however many coordinates they have, and
    the n coordinates are selected from the results in C.  Inputs with more
    pairs of parts than coordinates take the coordinate loop instead, so
    the parts never do more work than the loop.

    The loop keys pairs by the identity of their two objects and reuses a
    result wherever its pair recurs.  Identity keys are sound because ``v``
    and ``w`` hold every coordinate for the whole call, so no id is reused
    during it.  Both ways give the same coordinates and the same parts, in
    first-occurrence order.

    Two ``Encoded`` inputs give an ``Encoded`` result, and any other pair a
    plain tuple; ``pooled_vector`` checks either against the domain.
    """
    if len(v) != len(w):
        raise DomainError(f"dimension mismatch: {len(v)} vs {len(w)}")
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator: {operator!r}")
    encoded = isinstance(v, Encoded) and isinstance(w, Encoded)
    if encoded and len(v.parts) * len(w.parts) <= len(v):
        return _pooled_by_parts(operator, v, w)
    built: dict[tuple[int, int], Fraction] = {}
    out = []
    for a, b in zip(v, w):
        key = (id(a), id(b))
        c = built.get(key)
        if c is None:
            c = built[key] = pool_scalar(operator, a, b)
        out.append(c)
    return tagged(out) if encoded else tuple(out)


def _pooled_by_parts(operator: str, v: Encoded, w: Encoded) -> Encoded:
    """``pool``'s result, its coordinates and parts read off the inputs' parts.

    Each coordinate's label is ``i << shift | j`` for the parts i of ``v``
    and j of ``w`` that hold it: its low bits are the index planes of
    ``w``'s parts and its high bits those of ``v``'s.  The labels that
    occur, in first-occurrence order, are the pairs the coordinate loop
    would build, in its order, so the parts come out in that order too.
    """
    shift = (len(w.parts) - 1).bit_length()
    planes = index_planes([p for _, p in w.parts]) + index_planes([p for _, p in v.parts])
    labels = position_labels(planes, len(v))
    table: list[Fraction | None] = [None] * (len(v.parts) << shift)
    pieces, low = [], (1 << shift) - 1
    for label in dict.fromkeys(labels):
        (a, positions), (b, others) = v.parts[label >> shift], w.parts[label & low]
        c = table[label] = pool_scalar(operator, a, b)
        pieces.append((c, positions & others))
    # itemgetter selects the coordinates in C, but of one label gives the object
    out = itemgetter(*labels)(table) if len(labels) > 1 else tuple(map(table.__getitem__, labels))
    return Encoded(out, merged_parts(pieces))


def pool_many(operator: str, vectors: Sequence[Vector]) -> Vector:
    """n-ary pooling: fold for sum/max/had, arithmetic mean for avg.

    The mean is used rather than iterated binary averaging because the
    encoded-state effect of averaging is order-independent anyway, and the
    mean is the aggregation actually used when k sources are pooled at once.
    """
    if not vectors:
        raise ValueError("pool_many needs at least one vector")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise DomainError(f"dimension mismatch among inputs: {sorted(dims)}")
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator: {operator!r}")
    if operator == "avg":
        k = len(vectors)
        return tuple(exact_sum(col) / k for col in zip(*vectors))
    acc = vectors[0]
    for v in vectors[1:]:
        acc = pool(operator, acc, v)
    return acc


class Witness(Record):
    """A replayable counterexample; re-evaluation reproduces the mismatch."""

    __slots__ = (
        "candidate", "kind", "semantics", "vectors", "prop", "expected", "observed",
        "level", "q",
    )

    def __init__(
        self,
        candidate: str,
        kind: str,  # pooling | subset-score | weighted | roundtrip
        semantics: str,
        vectors: tuple[Vector, ...],
        prop: int,
        expected: bool,  # pooling: membership according to the union of the inputs
        observed: bool,  # pooling: membership according to decoding the pooled vector
        level: int | None = None,  # set for weighted witnesses
        q: tuple[int, ...] | None = None,  # set for subset-score witnesses
    ) -> None:
        super().__init__(candidate, kind, semantics, vectors, prop, expected, observed, level, q)

    def to_json(self) -> dict:
        out = {
            "candidate": self.candidate,
            "kind": self.kind,
            "semantics": self.semantics,
            "vectors": [[format_rational(x) for x in v] for v in self.vectors],
            "prop": self.prop,
            "expected": self.expected,
            "observed": self.observed,
        }
        if self.level is not None:
            out["level"] = self.level
        if self.q is not None:
            out["q"] = list(self.q)
        return out

    def describe(self) -> str:
        where = f"property {self.prop}"
        if self.level is not None:
            where += f", level {self.level}"
        return (
            f"{self.candidate} [{self.semantics}]: {where} at "
            f"{' vs '.join(map(format_vector, self.vectors))}: "
            f"union says {self.expected}, pooled decode says {self.observed}"
        )


def pooled_vector(config: SpaceConfig, v: Vector, w: Vector) -> Vector:
    require_in_domain(config, v)
    require_in_domain(config, w)
    out = pool(config.operator, v, w)
    if not contains(config.domain, out):
        raise PoolClosureError(
            f"{config.operator} pooling left {config.domain.describe()}: "
            f"{outside_at(config.domain, out)}"
        )
    return out


def check_principle(config: SpaceConfig, v: Vector, w: Vector) -> Witness | None:
    """None iff decode(v ⟡ w) equals decode(v) ∪ decode(w): the principle at
    cap 1, where a certainty level is plain membership and ``decode`` reads it."""
    out = pooled_vector(config, v, w)
    a, b, pooled = (decode(config, x).members for x in (v, w, out))
    if a | b == pooled:
        return None
    members = ((p in a, p in b, p in pooled) for p in range(config.size))
    return _first_violation(config, "pooling", config.semantics, (v, w), members)


def check_weighted_principle(
    config: SpaceConfig, cap: int, v: Vector, w: Vector, semantics: str | None = None
) -> Witness | None:
    """The pooling principle at certainty levels 1..cap, under the space's
    semantics unless ``semantics`` is given."""
    if cap < 1:
        raise ValueError("level cap must be >= 1")
    out = pooled_vector(config, v, w)
    if semantics is None:
        semantics = config.semantics
    # pooled_vector checked v, w and out, so the levels are read unchecked
    levels = zip(
        coordinate_levels(config, v, semantics, cap),
        coordinate_levels(config, w, semantics, cap),
        coordinate_levels(config, out, semantics, cap),
    )
    return _first_violation(config, "weighted", semantics, (v, w), levels)


def _first_violation(
    config: SpaceConfig, kind: str, semantics: str, vectors: tuple[Vector, Vector],
    levels: Iterable[tuple[int, int, int]],
) -> Witness | None:
    """The one principle loop, over each property's (v, w, pooled) levels:
    reaching level i on the pooled vector must coincide with reaching it on
    at least one input.  The first level where they differ is one past the
    lower of the pooled level and the higher input level; a pooling witness
    names no level, as at cap 1 it is always 1."""
    for prop, (a, b, pooled) in enumerate(levels):
        union = a if a >= b else b
        if union != pooled:
            level = None if kind == "pooling" else min(union, pooled) + 1
            return Witness(
                config.name, kind, semantics, vectors, prop, union > pooled, pooled > union, level
            )
    return None
