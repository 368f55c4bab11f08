"""Scoring functions over property subsets, and formula-level checks.

``gamma_q`` scores a subset Q of properties so that a single sign test
answers "are all properties in Q satisfied?".  ``psi`` lifts that to
propositional formulas over a logical property space: a formula is entailed
by the state a vector encodes exactly when every countermodel world is
excluded, i.e. when gamma_q over the countermodel properties passes its
sign test.

Every check that depends only on the vector (its domain, and for the margin
scorers its clear-cut test) runs once per vector: ``subset_scorer`` makes the
clear-cut test and returns a kernel that scores any number of subsets of
that vector. ``gamma_q`` is the checks on one subset plus one kernel call;
``psi`` hands the kernel the countermodels as they are, already ascending
and in range; the verifier's formula sweeps build one kernel per vector.

Families:

* ``min``         minimum of the per-property scores; works on any space.
* ``linear``      plain sum of per-property scores; only sound where the
                  geometry allows it (max pooling on the nonpositive
                  orthant, Hadamard pooling on the nonnegative orthant),
                  both under weak semantics.
* ``relu``        sum of clipped coordinates for max pooling on all of R^n.
* ``squared``     negated sum of squares for Hadamard pooling on R^n.
* ``margin-relu`` / ``sigmoid`` / ``margin-linear``
                  margin-space scorers, valid only on clear-cut vectors
                  (every per-property score <= 0 or >= the margin).

The sigmoid family is the one place binary64 arithmetic is used; its
scores carry a conservative error bound and sign queries raise
IndeterminateSign rather than guess.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .epistemic import AbstractSpaceError
from .logic import Formula, countermodels
from .numeric import ScoreValue, exact_extreme, exact_sum
from .spaces import (
    COORDINATE,
    DISC,
    NEG_COORDINATE,
    NEG_RELU,
    NEG_SQUARE,
    SpaceConfig,
    Vector,
    format_vector,
    member_sign,
    require_in_domain,
    score_value,
)

_SIGMOID_TERM_BOUND = Fraction(1, 2**40)
_ZERO = Fraction(0)
# the acceptance threshold the sigmoid score starts from
SIGMOID_OFFSET = Fraction(1, 2)


class IncompatibleScorerError(ValueError):
    """Scorer family not valid for this space configuration."""


class ClearCutError(ValueError):
    """Margin-family scorer applied to a vector that is not clear-cut."""


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def sigmoid_steepness(config: SpaceConfig) -> Fraction:
    """The slope multiplier lam inside the sigmoid, rounded up to sixteenths
    from 2(ln 2n + 1)/delta for the margin delta.

    The sigmoid score decides a conjunction of clear-cut properties when
    sigmoid(lam*delta/2) >= SIGMOID_OFFSET and sigmoid(-lam*delta/2) <
    SIGMOID_OFFSET/n. Both hold with slack for every query size up to n, which
    keeps the float signs certifiable: lam*delta/2 >= ln 2n + 1 > 0 gives the
    first, and sigmoid(-x) < e^-x <= 1/(2en) < (1/2)/n the second.
    """
    raw = (math.log(2 * config.n) + 1.0) * 2.0 / float(config.margin)
    return Fraction(math.ceil(raw * 16), 16)


def _linear_sound(c: SpaceConfig) -> bool:
    nonpos = c.domain.kind == "nonpos" or (c.domain.kind == "bounded-above" and c.domain.z == 0)
    return c.semantics == "weak" and (
        (c.operator == "max" and c.family == COORDINATE and nonpos)
        or (c.operator == "had" and c.family == NEG_COORDINATE and c.domain.kind == "nonneg")
    )


def _strict_coordinate(c: SpaceConfig) -> bool:
    return c.semantics == "strict" and c.family == COORDINATE


def _margin_nonneg(c: SpaceConfig) -> bool:
    return (
        _strict_coordinate(c)
        and c.margin is not None
        and c.eps is None
        and c.domain.kind == "nonneg"
    )


# scorer -> (sound(config), reason when it is not); SCORERS, and so the
# CLI's --scorer choices, follow this order
_SCORER_RULES: dict[str, tuple[Callable[[SpaceConfig], bool], str]] = {
    "min": (lambda c: True, ""),
    "linear": (
        _linear_sound,
        "linear subset scoring needs weak semantics with max pooling on "
        "(-inf,0]^n or Hadamard pooling on [0,+inf)^n",
    ),
    "relu": (
        lambda c: c.semantics == "weak"
        and c.operator == "max"
        and c.domain.kind == "reals"
        and c.family in (COORDINATE, NEG_RELU),
        "relu subset scoring pairs with weak max pooling on R^n",
    ),
    "squared": (
        lambda c: c.semantics == "weak" and c.operator == "had" and c.family == NEG_SQUARE,
        "squared subset scoring pairs with weak Hadamard pooling on R^n",
    ),
    "margin-relu": (_margin_nonneg, "margin-relu scoring needs the nonnegative margin space"),
    "sigmoid": (_margin_nonneg, "sigmoid scoring needs the nonnegative margin space"),
    "margin-linear": (
        lambda c: _strict_coordinate(c) and c.eps is not None and c.domain.kind == "unit",
        "margin-linear scoring needs the near-binary unit space",
    ),
}

SCORERS = tuple(_SCORER_RULES)
# the scorers that make claims about clear-cut vectors only
CLEAR_CUT_SCORERS = ("margin-relu", "sigmoid", "margin-linear")


def scorer_compatible(config: SpaceConfig, scorer: str) -> str | None:
    """None when the pair is valid, else a human-readable reason."""
    if scorer not in _SCORER_RULES:
        return f"unknown scorer {scorer!r}"
    sound, reason = _SCORER_RULES[scorer]
    return None if sound(config) else reason


def x_star_membership(config: SpaceConfig, delta: Fraction, v: Vector) -> bool:
    """True when every per-property score is <= 0 or >= delta (clear-cut)."""
    require_in_domain(config, v)
    return _clear_cut(config, delta, v)


def _clear_cut(config: SpaceConfig, delta: Fraction, v: Vector) -> bool:
    """x_star_membership on a vector whose domain the caller has checked."""
    score = config.scoring.score
    return not any(0 < score(v[i]) < delta for i in range(config.size))


def require_compatible(config: SpaceConfig, scorer: str) -> None:
    """Raise IncompatibleScorerError unless the scorer is valid for the space."""
    reason = scorer_compatible(config, scorer)
    if reason is not None:
        raise IncompatibleScorerError(f"{scorer} on {config.name}: {reason}")


def subset_scorer(
    config: SpaceConfig, scorer: str, v: Vector
) -> Callable[[Sequence[int]], ScoreValue]:
    """The subset score of ``v`` as a function of the subset: gamma_q once
    its checks on the scorer, the vector and the subset are made.

    The caller has checked the scorer's compatibility and v's domain. The
    margin scorers' clear-cut test runs here, once per vector. The returned
    kernel takes an ascending, non-empty sequence of in-range indices and
    checks nothing.
    """
    delta = config.margin
    if scorer in CLEAR_CUT_SCORERS and not _clear_cut(config, delta, v):
        raise ClearCutError(
            f"vector {format_vector(v)} is ambiguous: some score lies strictly "
            f"between 0 and the margin; margin scorers make no claim there"
        )
    at = v.__getitem__

    if scorer == "min":
        if config.family == COORDINATE:
            return lambda q: ScoreValue.of(exact_extreme(map(at, q)))
        if config.family == NEG_COORDINATE:
            return lambda q: ScoreValue.of(-exact_extreme(map(at, q), largest=True))
        if config.family != DISC:
            score = config.scoring.score
            return lambda q: ScoreValue.of(min(score(v[i]) for i in q))

        def disc_min(q: Sequence[int]) -> ScoreValue:
            parts = [score_value(config, i, v) for i in q]
            if all(p.is_exact for p in parts):
                return ScoreValue.of(min(p.exact for p in parts))  # type: ignore[arg-type]
            # the minimum's sign equals the minimum of the signs
            return ScoreValue.certified(
                min(p.as_float() for p in parts), min(p.signum() for p in parts)
            )

        return disc_min
    if scorer == "linear":
        # linear is sound on the coordinate and neg-coordinate families only
        if config.family == COORDINATE:
            return lambda q: ScoreValue.of(exact_sum(map(at, q)))
        return lambda q: ScoreValue.of(-exact_sum(map(at, q)))
    if scorer == "squared":
        score = config.scoring.score
        return lambda q: ScoreValue.of(exact_sum(score(v[i]) for i in q))
    if scorer == "relu":
        # the sum of min(x, 0) is the sum of the negative coordinates
        return lambda q: ScoreValue.of(exact_sum(x for x in map(at, q) if x.numerator < 0))
    if scorer == "margin-relu":
        return lambda q: ScoreValue.of(delta - exact_sum(max(_ZERO, delta - v[i]) for i in q))
    if scorer == "sigmoid":
        lam = float(sigmoid_steepness(config))
        half = float(delta) / 2.0

        def sigmoid_score(q: Sequence[int]) -> ScoreValue:
            total = float(SIGMOID_OFFSET)
            for i in q:
                total -= sigmoid(lam * (half - float(v[i])))
            return ScoreValue.approximate(total, _SIGMOID_TERM_BOUND * (len(q) + 1))

        return sigmoid_score
    # margin-linear
    return lambda q: ScoreValue.of(exact_sum(map(at, q)) - len(q) + 1)


def gamma_q(
    config: SpaceConfig,
    scorer: str,
    q: Iterable[int],
    v: Vector,
) -> ScoreValue:
    """Subset score whose sign test equals the conjunction over ``q``.

    The sign test is ``> 0`` on strict spaces and ``>= 0`` on weak spaces.
    An empty subset scores +1: the conjunction is vacuous. The checks come
    in this order: the scorer, the vector's domain, the empty subset, the
    indices, and last the margin scorers' clear-cut test.
    """
    require_compatible(config, scorer)
    require_in_domain(config, v)
    indices = sorted(set(q))
    if not indices:
        return ScoreValue.of(1)
    if indices[0] < 0 or indices[-1] >= config.size:
        raise IndexError("property index out of range")
    return subset_scorer(config, scorer, v)(indices)


def psi(
    config: SpaceConfig,
    scorer: str,
    formula: Formula,
    v: Vector,
) -> bool:
    """Does the state encoded by ``v`` entail ``formula``?

    Implemented as the subset sign test over the properties of the formula's
    countermodels: entailment holds exactly when every countermodel world is
    excluded. The checks are gamma_q's, in its order.
    """
    atoms = config.properties.atoms
    if atoms is None:
        raise AbstractSpaceError("formula queries need a logical property space")
    worlds = countermodels(formula, atoms)
    require_compatible(config, scorer)
    require_in_domain(config, v)
    if not worlds:
        return True  # the empty subset scores +1
    # countermodels are ascending, distinct and below 2^m, the property count
    score = subset_scorer(config, scorer, v)(worlds)
    return member_sign(config.semantics, score.signum())
