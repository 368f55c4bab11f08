"""The four pooling operators, executable pooling-principle checks, and the
counterexample record they return.

``check_principle`` is the normative binary test: pooling two vectors and
decoding must give exactly the union of the separately decoded states.  Its
weighted counterpart compares the certainty levels ``decoded_level`` reads
off each score.  Both return ``None`` on success or a ``Witness`` naming the
first violation (lowest property index, then lowest level), with the inputs
echoed so it replays.  ``Witness`` is the one counterexample record of the
package: the verifier's sweeps and reports and the CLI use it too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .epistemic import union_states
from .numeric import exact_sum, format_rational
from .record import Record
from .spaces import (
    OPERATORS,
    SpaceConfig,
    Vector,
    contains,
    decode,
    format_vector,
    DomainError,
    decoded_level,
    require_in_domain,
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

    Pairs are keyed by the identity of their two objects, and a result is
    reused wherever its pair recurs: ``encode`` writes the same two objects
    into every coordinate, so two encoded vectors pool with at most four
    ``pool_scalar`` calls.  Identity keys are sound because ``v`` and ``w``
    hold every coordinate for the whole call, so no id is reused during it.
    """
    if len(v) != len(w):
        raise DomainError(f"dimension mismatch: {len(v)} vs {len(w)}")
    if operator not in OPERATORS:
        raise ValueError(f"unknown operator: {operator!r}")
    built: dict[tuple[int, int], Fraction] = {}
    out = []
    for a, b in zip(v, w):
        key = (id(a), id(b))
        c = built.get(key)
        if c is None:
            c = built[key] = pool_scalar(operator, a, b)
        out.append(c)
    return tuple(out)


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
            f"{format_vector(out)}"
        )
    return out


def check_principle(config: SpaceConfig, v: Vector, w: Vector) -> Witness | None:
    """None iff decode(v ⟡ w) equals decode(v) ∪ decode(w)."""
    out = pooled_vector(config, v, w)
    expected = union_states(decode(config, v), decode(config, w))
    observed = decode(config, out)
    if expected.members == observed.members:
        return None
    prop = min(expected.members ^ observed.members)
    return Witness(
        config.name,
        "pooling",
        config.semantics,
        (v, w),
        prop,
        expected=prop in expected.members,
        observed=prop in observed.members,
    )


def check_weighted_principle(
    config: SpaceConfig,
    cap: int,
    v: Vector,
    w: Vector,
    semantics: str | None = None,
) -> Witness | None:
    """Per-level analogue of check_principle for certainty levels 1..cap,
    under the space's semantics unless ``semantics`` is given.

    For every property and every level i, reaching level i on the pooled
    vector must coincide with reaching level i on at least one input. The
    first level where they differ is one past the lower of the pooled level
    and the higher input level.
    """
    if cap < 1:
        raise ValueError("level cap must be >= 1")
    out = pooled_vector(config, v, w)
    score = config.scoring.score
    if semantics is None:
        semantics = config.semantics

    def level(x: Fraction) -> int:
        return decoded_level(score(x), semantics, cap)

    for prop in range(config.size):
        union, pooled = max(level(v[prop]), level(w[prop])), level(out[prop])
        if union != pooled:
            return Witness(
                config.name,
                "weighted",
                semantics,
                (v, w),
                prop,
                expected=union > pooled,
                observed=pooled > union,
                level=min(union, pooled) + 1,
            )
    return None
