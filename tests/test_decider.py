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
]
FAMILY_NAMES = list(FAMILIES)
CAPS = range(4)

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
    """decoded_level at cap 3 of every value read."""
    score = FAMILIES[family].score
    return [decoded_level(score(x), semantics, 3) for x in dense_pairs()[2]]


@functools.cache
def level_triples(operator, domain, family, semantics):
    """The distinct (first, second, pooled) levels at cap 3 over the pairs."""
    level = top_levels(family, semantics).__getitem__
    return set(zip(*(map(level, xs) for xs in domain_pairs(operator, domain))))


def dense_agrees(operator, semantics, domain, family, cap):
    """Every pair of in-domain dense values pools into the domain at the
    higher of the two levels. A level at cap <= 3 is the cap-3 level clamped
    to the cap, so each pair's levels are read at cap 3 once."""
    if domain_pairs(operator, domain) is None:
        return False
    triples = level_triples(operator, domain, family, semantics)
    return all(min(p, cap) == max(min(a, cap), min(b, cap)) for a, b, p in triples)


def test_decider_agrees_with_dense_tables_in_both_directions():
    """violation is None exactly when every pair of a dense value set agrees,
    over operators x semantics x 7 domains x 8 families x caps 0..3."""
    product = list(itertools.product(OPERATORS, SEMANTICS, DOMAINS, FAMILY_NAMES, CAPS))
    assert len(product) == 1792
    decided = set()
    for operator, semantics, domain, family, cap in product:
        sound = violation(config(operator, semantics, domain, family), cap, semantics) is None
        expected = dense_agrees(operator, semantics, domain, family, cap)
        assert sound == expected, (operator, semantics, domain.describe(), family, cap)
        decided.add(sound)
    assert decided == {True, False}


def test_validator_agrees_with_dense_tables_in_both_directions():
    """validate_config accepts exactly when every pair of dense values agrees
    at cap 1 and the dense values in X reach both levels, and names closure
    exactly when a pair pools out of X; over operators x semantics x 8
    domains x 8 families x n = |P| in 1..3."""
    domains = [*DOMAINS, DomainX("bounded-above", 1, F(0))]
    product = list(itertools.product(OPERATORS, SEMANTICS, domains, FAMILY_NAMES, (1, 2, 3)))
    assert len(product) == 1536
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
    """Cells partition X in order, every cut point is in X, and decoded_level
    is constant at three points inside every open cell, for every family,
    semantics and cap."""
    for cap in CAPS:
        table = cells(domain, cap)
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
                seen = {decoded_level(score(x), semantics, cap) for x in inner_points(cell)}
                assert len(seen) == 1, (family, semantics, cap, cell, seen)


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


def violation_by_full_scan(config, cap, semantics):
    """violation before it bisected the cell ends: every pair of cells tests
    its image against every cell."""
    table = cells(config.domain, cap)
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
    """Testing only the run of cells between the image's ends changes
    nothing: over operators x semantics x 7 domains x 8 families x caps
    0..6, violation names the pair the full scan names, or none."""
    product = list(itertools.product(OPERATORS, SEMANTICS, DOMAINS, FAMILY_NAMES, range(7)))
    assert len(product) == 3136
    verdicts = set()
    for operator, semantics, domain, family, cap in product:
        probe = config(operator, semantics, domain, family)
        expected = violation_by_full_scan(probe, cap, semantics)
        assert violation(probe, cap, semantics) == expected, (
            operator, semantics, domain.describe(), family, cap
        )
        verdicts.add(expected is None)
    assert verdicts == {True, False}
