"""Scoring functions over property subsets, and formula-level checks.

``gamma_q`` scores a subset Q of properties so that a single sign test
answers "are all properties in Q satisfied?".  ``psi`` lifts that to
propositional formulas over a logical property space: a formula is entailed
by the state a vector encodes exactly when every countermodel world is
excluded, i.e. when gamma_q over the countermodel properties passes its
sign test.

Each scorer is one rule, ``_scorer_rule``: a subset's score from its
coordinates, how often each is taken, and the subset size k. The exact
rules are a constant plus a weighted sum (``numeric.exact_sum``) or the
builtin ``min`` of one per-coordinate term; the sigmoid is an ordered
binary64 sum.
``subset_scorer`` makes the margin scorers' clear-cut test once per vector
and returns a kernel that feeds the rule one coordinate per index: the
verifier's formula sweeps score thousands of subsets of 2-4 coordinates,
and ``gamma_q`` is the checks on one subset plus one kernel call. On a
``spaces.Encoded`` vector (``encode``, ``pool`` and vector files make them)
``psi`` feeds an exact rule each distinct coordinate object once, with its
count among the countermodels read off the object's positions and the
formula's countermodel mask, and its domain check reads those objects only:
a pooled pair of encoded vectors holds at most four. A plain tuple,
the sigmoid, whose float sum depends on its order, and the disc demo's
``min``, which reads the whole vector, take ``subset_scorer``'s per-index
kernel.

Families:

* ``min``         the least per-property score (builtin ``min``); works on
                  any space.
* ``linear``      plain sum of per-property scores; only sound where the
                  geometry allows it (max pooling on the nonpositive
                  orthant, Hadamard pooling on the nonnegative orthant),
                  both under weak semantics.
* ``relu``        sum of clipped coordinates for max pooling on all of R^n.
* ``squared``     negated sum of squares for Hadamard pooling on R^n.
* ``margin-relu`` / ``sigmoid`` / ``margin-linear``
                  margin-space scorers, valid only on clear-cut vectors
                  (every per-property score <= 0 or >= the margin).

A score is a ``Fraction`` (an int where the coordinates are ints), except the
sigmoid's binary64 score and ``min`` on the disc demo: a ``ScoreValue`` with an
error bound or an exact sign. ``numeric.signum`` reads both and never guesses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .epistemic import AbstractSpaceError
from .logic import Formula, formula_mask, mask_worlds, world_mask
from .numeric import (
    IndeterminateSign, ScoreValue, exact_sum, format_rational, saturating_float, signum
)
from .spaces import (
    COORDINATE,
    FAMILIES,
    NEG_COORDINATE,
    NEG_RELU,
    NEG_SQUARE,
    Encoded,
    SpaceConfig,
    Vector,
    member_sign,
    require_in_domain,
    score_value,
)

_SIGMOID_TERM_BOUND = Fraction(1, 2**40)
_ONE = Fraction(1)
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
    first, and sigmoid(-x) < e^-x <= 1/(2en) < (1/2)/n the second. Margins
    where binary64 cannot hold 16*lam raise IndeterminateSign.
    """
    margin = saturating_float(config.margin)
    raw = (math.log(2 * config.n) + 1.0) * 2.0 / margin if margin else math.inf
    if not 0 < raw * 16 < math.inf:
        raise IndeterminateSign("binary64 cannot certify sigmoid signs at this margin")
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
    return _first_ambiguous(config, delta, v) is None


def _first_ambiguous(config: SpaceConfig, delta: Fraction, v: Vector) -> int | None:
    """The first property whose score at ``v`` lies strictly between 0 and
    delta, or None when ``v`` is clear-cut; the caller checked the domain."""
    score = config.scoring.score
    return next((i for i in range(config.size) if 0 < score(v[i]) < delta), None)


def require_compatible(config: SpaceConfig, scorer: str) -> None:
    """Raise IncompatibleScorerError unless the scorer is valid for the space."""
    reason = scorer_compatible(config, scorer)
    if reason is not None:
        raise IncompatibleScorerError(f"{scorer} on {config.name}: {reason}")


# a rule: a subset's score from its coordinates xs, their multiplicities
# (None: each coordinate once) and the subset size k
_Rule = Callable[[Iterable[Fraction], Iterable[int] | None, int], Fraction | ScoreValue]


def _scorer_rule(config: SpaceConfig, scorer: str, v: Vector) -> _Rule:
    """The scorer's one rule, ``rule(xs, counts, k)``, after the margin
    scorers' clear-cut test on ``v``: the score of a subset of size k whose
    coordinates are xs, each taken as often as ``counts`` says.

    The exact rules are a constant plus a weighted sum, or a minimum, of a
    per-coordinate term, so they score any tally of the subset alike. The
    sigmoid's binary64 sum depends on its order: it is fed each coordinate
    once, in index order, and reads no count.
    """
    delta = config.margin
    if scorer in CLEAR_CUT_SCORERS and (i := _first_ambiguous(config, delta, v)) is not None:
        raise ClearCutError(
            f"vector is ambiguous: n={len(v)}, coordinate {i} is {format_rational(v[i])}, "
            f"whose score lies strictly between 0 and the margin; margin scorers make "
            f"no claim there"
        )
    if scorer == "min":
        score = config.scoring.score
        return lambda xs, counts, k: min(map(score, xs))
    if scorer in ("linear", "squared"):
        score = config.scoring.score
        return lambda xs, counts, k: exact_sum(map(score, xs), counts)
    if scorer == "relu":
        # the sum of min(x, 0): the negative coordinates, and 0 for the rest
        return lambda xs, counts, k: exact_sum((x if x.numerator < 0 else 0 for x in xs), counts)
    if scorer == "margin-relu":
        # delta - sum of max(0, delta - x) is the sum of min(x, delta),
        # minus (k - 1) delta
        return lambda xs, counts, k: (
            exact_sum((x if x < delta else delta for x in xs), counts) - (k - 1) * delta
        )
    if scorer == "sigmoid":
        lam = float(sigmoid_steepness(config))
        half = float(delta) / 2.0

        def sigmoid_score(xs: Iterable[Fraction], counts: object, k: int) -> ScoreValue:
            total = float(SIGMOID_OFFSET)
            for x in xs:
                total -= sigmoid(lam * (half - saturating_float(x)))
            return ScoreValue(total, bound=_SIGMOID_TERM_BOUND * (k + 1))

        return sigmoid_score
    # margin-linear: the sum of the coordinates, minus k - 1
    return lambda xs, counts, k: exact_sum(xs, counts) - (k - 1)


def subset_scorer(
    config: SpaceConfig, scorer: str, v: Vector
) -> Callable[[Sequence[int]], Fraction | ScoreValue]:
    """The subset score of ``v`` as a function of the subset: gamma_q once
    its checks on the scorer, the vector and the subset are made.

    The caller has checked the scorer's compatibility and v's domain. The
    margin scorers' clear-cut test runs here, once per vector. The returned
    kernel takes an ascending, non-empty sequence of in-range indices, checks
    nothing, and feeds the scorer's rule each coordinate once, in index order.
    """
    if scorer == "min" and config.family not in FAMILIES:
        # the disc scores each property off the whole vector
        def disc_min(q: Sequence[int]) -> Fraction | ScoreValue:
            parts = [score_value(config, i, v) for i in q]
            if not any(isinstance(p, ScoreValue) for p in parts):
                return min(parts)  # type: ignore[type-var]
            # the minimum's sign equals the minimum of the signs
            return ScoreValue(min(map(saturating_float, parts)), sign=min(map(signum, parts)))

        return disc_min
    rule, at = _scorer_rule(config, scorer, v), v.__getitem__
    return lambda q: rule(map(at, q), None, len(q))


def gamma_q(
    config: SpaceConfig,
    scorer: str,
    q: Iterable[int],
    v: Vector,
) -> Fraction | ScoreValue:
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
        return _ONE
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
    excluded. The checks are gamma_q's, in its order. An ``Encoded``
    vector's parts give each distinct object's count among the
    countermodels; a plain tuple is read one countermodel at a time.
    """
    atoms = config.properties.atoms
    if atoms is None:
        raise AbstractSpaceError("formula queries need a logical property space")
    mask = world_mask(atoms) ^ formula_mask(formula, atoms)  # the countermodels
    require_compatible(config, scorer)
    require_in_domain(config, v)
    if not mask:
        return True  # the empty subset scores +1
    if not isinstance(v, Encoded) or scorer == "sigmoid" or config.family not in FAMILIES:
        # a plain tuple, the sigmoid's float sum and the disc's whole-vector
        # scores go by index
        score = subset_scorer(config, scorer, v)(mask_worlds(mask))
        return member_sign(config.semantics, signum(score))
    rule = _scorer_rule(config, scorer, v)
    # the mask's worlds are below 2^m, the property count, so no count
    # includes a coordinate past the properties
    xs, counts = zip(*[
        (x, count) for x, positions in v.parts if (count := (positions & mask).bit_count())
    ])
    score = rule(xs, counts, mask.bit_count())
    return member_sign(config.semantics, signum(score))
