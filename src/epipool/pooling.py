"""The four pooling operators and executable pooling-principle checks.

``check_principle`` is the normative binary test: pooling two vectors and
decoding must give exactly the union of the separately decoded states.  Its
weighted counterpart replaces the membership test with per-level threshold
tests.  Both return ``None`` on success or a deterministic first violation
(lowest property index, then lowest level), with the inputs echoed so any
reported violation can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .epistemic import union_states
from .spaces import (
    DISC,
    SpaceConfig,
    Vector,
    contains,
    decode,
    format_vector,
    DomainError,
    require_in_domain,
)

_TWO = Fraction(2)


class PoolClosureError(DomainError):
    """Pooling left the domain: the (operator, domain) pairing is misconfigured."""


def pool_scalar(operator: str, a: Fraction, b: Fraction) -> Fraction:
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
    if len(v) != len(w):
        raise DomainError(f"dimension mismatch: {len(v)} vs {len(w)}")
    return tuple(pool_scalar(operator, a, b) for a, b in zip(v, w))


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
    if operator == "avg":
        k = len(vectors)
        return tuple(sum(col, Fraction(0)) / k for col in zip(*vectors))
    acc = vectors[0]
    for v in vectors[1:]:
        acc = pool(operator, acc, v)
    return acc


@dataclass(frozen=True)
class Violation:
    """First property where pooled decoding disagrees with the union."""

    space: str
    semantics: str
    prop: int
    left: Vector
    right: Vector
    expected: bool  # membership according to the union of the inputs
    observed: bool  # membership according to decoding the pooled vector
    level: int | None = None  # set for weighted-principle violations

    def describe(self) -> str:
        where = f"property {self.prop}"
        if self.level is not None:
            where += f", level {self.level}"
        return (
            f"{self.space} [{self.semantics}]: {where} at "
            f"{format_vector(self.left)} vs {format_vector(self.right)}: "
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


def check_principle(config: SpaceConfig, v: Vector, w: Vector) -> Violation | None:
    """None iff decode(v ⟡ w) equals decode(v) ∪ decode(w)."""
    out = pooled_vector(config, v, w)
    expected = union_states(decode(config, v), decode(config, w))
    observed = decode(config, out)
    if expected.members == observed.members:
        return None
    prop = min(expected.members ^ observed.members)
    return Violation(
        config.name,
        config.semantics,
        prop,
        v,
        w,
        expected=prop in expected.members,
        observed=prop in observed.members,
    )


def _above_threshold(score: Fraction, level: int, semantics: str) -> bool:
    threshold = level - 1
    return score > threshold if semantics == "strict" else score >= threshold


def check_weighted_principle(
    config: SpaceConfig,
    cap: int,
    v: Vector,
    w: Vector,
    semantics: str = "strict",
) -> Violation | None:
    """Per-level analogue of check_principle for certainty levels 1..cap.

    For every property and every level i, reaching level i on the pooled
    vector must coincide with reaching level i on at least one input.
    """
    if cap < 1:
        raise ValueError("level cap must be >= 1")
    if config.family == DISC:
        raise ValueError("weighted checks need exact per-coordinate scoring families")
    out = pooled_vector(config, v, w)
    score = config.scoring.score
    for prop in range(config.size):
        sv, sw, so = score(v[prop]), score(w[prop]), score(out[prop])
        for level in range(1, cap + 1):
            expected = _above_threshold(sv, level, semantics) or _above_threshold(
                sw, level, semantics
            )
            observed = _above_threshold(so, level, semantics)
            if expected != observed:
                return Violation(
                    config.name,
                    semantics,
                    prop,
                    v,
                    w,
                    expected=expected,
                    observed=observed,
                    level=level,
                )
    return None
