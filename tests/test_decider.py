"""The cell decider, and the configuration validator built on it, against
dense value tables, in both directions."""

import functools
import itertools
from fractions import Fraction as F

import pytest

from epipool.decider import _image, _inside, _meets, cells, validate_config, violation
from epipool.epistemic import PropertySpace
from epipool.pooling import pool_scalar
from epipool.spaces import (
    FAMILIES,
    OPERATORS,
    SEMANTICS,
    DomainX,
    SpaceConfig,
    decoded_level,
)

DOMAINS = [
    *(DomainX(kind, 1) for kind in ("reals", "nonneg", "nonpos", "unit")),
    *(DomainX("bounded-above", 1, z) for z in (F(1), F(1, 2), F(-1))),
    # the one domain here whose verdict turns above level 3: neg-coordinate
    # first fails at level 4 or 5
    DomainX("bounded-above", 1, F(-3)),
]
FAMILY_NAMES = list(FAMILIES)
CAPS = range(7)

# n/d with d <= 4 and |n| <= 20, plus -50 and 50
DENSE = tuple(sorted({F(n, d) for d in range(1, 5) for n in range(-20, 21)} | {F(-50), F(50)}))


def config(operator, semantics, domain, family):
    return SpaceConfig(
        f"{operator}-{semantics}-{domain.describe()}-{family}",
        operator, semantics, domain, family, PropertySpace.abstract(1),
    )


@functools.cache
def dense_pairs():
    """Every unordered pair of dense values, as indices into one list of the
    values read; each operator's pooled values, as indices into that list;
    and the list."""
    number = {x: k for k, x in enumerate(DENSE)}
    pairs = list(itertools.combinations_with_replacement(range(len(DENSE)), 2))
    pooled = {
        op: [number.setdefault(pool_scalar(op, DENSE[i], DENSE[j]), len(number)) for i, j in pairs]
        for op in OPERATORS
    }
    return pairs, pooled, list(number)


@functools.cache
def domain_pairs(operator, domain):
    """The (first, second, pooled) index lists of the pairs of in-domain dense
    values, or None when one of them pools out of the domain."""
    pairs, pooled, read = dense_pairs()
    inside = list(map(domain.contains_scalar, read))
    kept = [inside[i] and inside[j] for i, j in pairs]
    firsts, seconds = zip(*itertools.compress(pairs, kept))
    pooled = list(itertools.compress(pooled[operator], kept))
    return (firsts, seconds, pooled) if all(map(inside.__getitem__, pooled)) else None


@functools.cache
def top_levels(family, semantics):
    """decoded_level at cap 6 of every value read; DENSE reaches past +-6,
    so every level up to 6 is resolved."""
    score = FAMILIES[family].score
    return [decoded_level(score(x), semantics, 6) for x in dense_pairs()[2]]


@functools.cache
def level_triples(operator, domain, family, semantics):
    """The distinct (first, second, pooled) levels at cap 6 over the pairs."""
    level = top_levels(family, semantics).__getitem__
    return set(zip(*(map(level, xs) for xs in domain_pairs(operator, domain))))


def dense_agrees(operator, semantics, domain, family, cap):
    """Every pair of in-domain dense values pools into the domain at the
    higher of the two levels. A level at cap <= 6 is the cap-6 level clamped
    to the cap, so each pair's levels are read at cap 6 once."""
    if domain_pairs(operator, domain) is None:
        return False
    triples = level_triples(operator, domain, family, semantics)
    return all(min(p, cap) == max(min(a, cap), min(b, cap)) for a, b, p in triples)


def test_decider_agrees_with_dense_tables_in_both_directions():
    """violation is None exactly when every pair of a dense value set agrees,
    over operators x semantics x 8 domains x 8 families x caps 0..6: the
    level cuts against pooled values directly. None at a cap of 1 or more
    implies None at cap 0, where only closure is left."""
    product = list(itertools.product(OPERATORS, SEMANTICS, DOMAINS, FAMILY_NAMES, CAPS))
    assert len(product) == 3584
    decided, closed = set(), {}
    for operator, semantics, domain, family, cap in product:
        sound = violation(config(operator, semantics, domain, family), cap, semantics) is None
        expected = dense_agrees(operator, semantics, domain, family, cap)
        at = (operator, semantics, domain.describe(), family)
        assert sound == expected, (*at, cap)
        if cap == 0:
            closed[at] = sound
        assert closed[at] or not sound, (*at, cap)
        decided.add(sound)
    assert decided == {True, False}


def test_validator_agrees_with_dense_tables_in_both_directions():
    """validate_config accepts exactly when every pair of dense values agrees
    at cap 1 and the dense values in X reach both levels, and names closure
    exactly when a pair pools out of X; over operators x semantics x 9
    domains x 8 families x n = |P| in 1..3."""
    domains = [*DOMAINS, DomainX("bounded-above", 1, F(0))]
    product = list(itertools.product(OPERATORS, SEMANTICS, domains, FAMILY_NAMES, (1, 2, 3)))
    assert len(product) == 1728
    verdicts = set()
    for operator, semantics, domain, family, n in product:
        config = SpaceConfig(
            "probe", operator, semantics, DomainX(domain.kind, n, domain.z), family,
            PropertySpace.abstract(n),
        )
        rules = {v.rule for v in validate_config(config)}
        score = FAMILIES[family].score
        reached = {decoded_level(score(x), semantics, 1) for x in DENSE if domain.contains_scalar(x)}
        sound = dense_agrees(operator, semantics, domain, family, 1) and reached == {0, 1}
        at = (operator, semantics, domain.describe(), family, n)
        assert (not rules) == sound, (at, rules)
        assert ("closure" in rules) == (domain_pairs(operator, domain) is None), (at, rules)
        verdicts.add(sound)
    assert verdicts == {True, False}


def inner_points(cell):
    lo, hi = cell
    if lo == -float("inf"):
        return [hi - F(1, 3), hi - 1, hi - 100]
    if hi == float("inf"):
        return [lo + F(1, 3), lo + 1, lo + 100]
    return [lo + (hi - lo) * F(k, 4) for k in (1, 2, 3)]


@pytest.mark.parametrize("domain", DOMAINS, ids=lambda d: d.describe())
def test_cells_cut_the_domain_where_levels_change(domain):
    """Cells partition X in order, every cut point is in X, and membership
    of the level-i cut (the score shifted down by i - 1) is constant at
    three points inside every open cell of cells(domain, i), for every
    family, semantics and level i in 1..6."""
    for level in range(1, 7):
        table = cells(domain, level)
        points = [c for c in table if c[0] == c[1]]
        assert all(domain.contains_scalar(c[0]) for c in points)
        for left, right in zip(table, table[1:]):
            assert left[1] == right[0] and (left[0] == left[1]) != (right[0] == right[1])
        opens = [c for c in table if c[0] != c[1]]
        for cell in opens:
            assert all(map(domain.contains_scalar, inner_points(cell))), cell
        for family, semantics in itertools.product(FAMILY_NAMES, SEMANTICS):
            score = FAMILIES[family].score
            for cell in opens:
                shifted = (score(x) - (level - 1) for x in inner_points(cell))
                seen = {decoded_level(y, semantics, 1) for y in shifted}
                assert len(seen) == 1, (family, semantics, level, cell, seen)


@pytest.mark.parametrize(
    "operator, semantics, domain, family, cap, offending",
    [
        # max((0, 1), {1}) = {1}: weak coordinate levels 1 and 2 pool to 2
        ("max", "weak", DomainX("reals", 1), "coordinate", 2, None),
        # avg on [0, inf): the strict member 1 and non-member 0 pool to 1/2, a member
        ("avg", "strict", DomainX("nonneg", 1), "coordinate", 1, None),
        # sum leaves [0, 1]
        ("sum", "strict", DomainX("unit", 1), "coordinate", 0, ((F(0), F(1)), (F(0), F(1)))),
        # had: a {0} factor gives {0}; with zero-indicator scores that is a member
        ("had", "strict", DomainX("reals", 1), "zero-indicator", 1, None),
        # and with strict coordinate scores a non-member, though (0, 1) are members
        ("had", "strict", DomainX("nonneg", 1), "coordinate", 1, ((F(0), F(0)), (F(0), F(1)))),
        ("had", "weak", DomainX("reals", 1), "coordinate", 1,
         ((-float("inf"), F(-1)), (-float("inf"), F(-1)))),
    ],
)
def test_violation_names_the_first_offending_pair_of_cells(
    operator, semantics, domain, family, cap, offending
):
    assert violation(config(operator, semantics, domain, family), cap, semantics) == offending


def integer_cells(domain, cap):
    """X cut at the integers -max(cap, 1)..max(cap, 1) and its own bounds,
    where every family's level at cap changes: point cells at the cuts,
    open cells between them."""
    k = max(cap, 1)
    bounds = {domain.z} if domain.z is not None else set()
    cuts = sorted(x for x in {*range(-k, k + 1), *bounds} if domain.contains_scalar(x))
    out = []
    if domain.contains_scalar(cuts[0] - 1):
        out.append((-float("inf"), cuts[0]))
    for x, y in zip(cuts, cuts[1:]):
        out += [(x, x), (x, y)]
    out.append((cuts[-1], cuts[-1]))
    if domain.contains_scalar(cuts[-1] + 1):
        out.append((cuts[-1], float("inf")))
    return out


def violation_by_full_scan(config, cap, semantics):
    """violation before the level cuts: X cut at the integers -K..K into
    4K + 3 cells at most, and every pair of cells tests its image against
    every cell at cap K."""
    table = integer_cells(config.domain, cap)
    score, operator = FAMILIES[config.family].score, config.operator
    levels = [decoded_level(score(_inside(c)), semantics, cap) for c in table]
    low, high = table[0][0], table[-1][1]
    for i, (a, la) in enumerate(zip(table, levels)):
        for b, lb in zip(table[i:], levels[i:]):
            image = _image(operator, a, b)
            level = max(la, lb)
            if image[0] < low or image[1] > high or any(
                l != level and _meets(image, c) for c, l in zip(table, levels)
            ):
                return a, b
    return None


def test_violation_returns_the_full_scan_verdict_and_first_pair():
    """Deciding level by level changes no verdict: over operators x
    semantics x 8 domains x 8 families x caps 0..6, violation finds a pair
    exactly when the full scan at cap K does, and at caps 0 and 1, where
    the one cut is the integer cut, it names the same pair."""
    product = list(itertools.product(OPERATORS, SEMANTICS, DOMAINS, FAMILY_NAMES, CAPS))
    assert len(product) == 3584
    verdicts = set()
    for operator, semantics, domain, family, cap in product:
        probe = config(operator, semantics, domain, family)
        expected = violation_by_full_scan(probe, cap, semantics)
        found = violation(probe, cap, semantics)
        at = (operator, semantics, domain.describe(), family, cap)
        assert (found is None) == (expected is None), (at, found, expected)
        if cap <= 1:
            assert found == expected, (at, found, expected)
        verdicts.add(expected is None)
    assert verdicts == {True, False}
