"""An exact decider for the pooling principle of a per-coordinate family.

A coordinate reaches certainty level i exactly when its shifted score,
score - (i - 1), is a member (``decoded_level``), so the principle at cap K
is the plain principle of each level cut i in 1..K.  For every family in
``spaces.FAMILIES`` a cut's membership changes only at -1, 0, 1, i - 1 and
1 - i (coordinate at i - 1, neg-coordinate at 1 - i, one-minus-square at
-1 and 1 for level 1 and at 0 for level 2, the others at 0 or 1), and
``cells`` cuts X there and at X's own closed bounds into point cells and
open-interval cells; a cell's membership is that at any point inside it.

Pooling two cells fills one interval whose ends are limits at the cells'
corners, so a cut keeps the principle exactly when, for every pair of
cells, that interval stays in X and meets only cells of the higher of the
two memberships.  ``violation`` checks every unordered pair of cells (the
four operators are commutative), X's bounds in the first cut only, and
names the first pair that fails.

A cell is a pair (lo, hi) of ends; lo == hi is a point cell, anything else
the open interval between them. A finite end is an int or a Fraction, and
an infinite end the float -inf or +inf; all of them compare exactly.

``validate_config`` is the configuration validator built on the decider.
For a per-coordinate family it asks ``violation`` at cap 1 whether the
principle holds; a violation that is still there at cap 0, where only
closure is left, is a closure violation and any other a principle one.  The
family is realisable when its levels over the cells are both 0 and 1.  The
remaining rules (dimension, levels, weighted dimension, margin and the
unrestricted domain, which also covers the disc, outside ``FAMILIES``) are
written out.  Only cap 1 is checked: the weighted sweeps certify cap K.
"""

from __future__ import annotations

from fractions import Fraction

from .numeric import format_rational
from .pooling import pool_scalar
from .record import Record
from .spaces import COORDINATE, FAMILIES, DomainX, SpaceConfig, decoded_level

End = int | Fraction | float
Cell = tuple[End, End]
# (lo, hi, lo reached, hi reached): an interval with its ends' membership
Image = tuple[End, End, bool, bool]

_INF = float("inf")


def cells(domain: DomainX, level: int) -> list[Cell]:
    """X cut at -1, 0, 1, level - 1, 1 - level and its own bounds, in
    increasing order: point cells at the cuts, open cells between them."""
    bounds = {domain.z} if domain.z is not None else set()
    cuts = sorted(x for x in {-1, 0, 1, level - 1, 1 - level, *bounds} if domain.contains_scalar(x))
    out: list[Cell] = []
    if domain.contains_scalar(cuts[0] - 1):
        out.append((-_INF, cuts[0]))
    for x, y in zip(cuts, cuts[1:]):
        out += [(x, x), (x, y)]
    out.append((cuts[-1], cuts[-1]))
    if domain.contains_scalar(cuts[-1] + 1):
        out.append((cuts[-1], _INF))
    return out


def _inside(cell: Cell) -> End:
    """One point of the cell."""
    lo, hi = cell
    if lo == -_INF:
        return hi - 1
    if hi == _INF:
        return lo + 1
    return Fraction(lo + hi, 2)


def _reaches(cell: Cell, x: End) -> bool:
    """The cell has a point at or below x."""
    return cell[0] < x or cell == (x, x)


def _image(operator: str, a: Cell, b: Cell) -> Image:
    """The interval pool_scalar(operator, x, y) fills for x in a, y in b."""
    a_point, b_point = a[0] == a[1], b[0] == b[1]
    if operator != "had":
        # monotone in each input: the ends come from the low and the high corner
        lo, hi = pool_scalar(operator, a[0], b[0]), pool_scalar(operator, a[1], b[1])
    elif (a_point and a[0] == 0) or (b_point and b[0] == 0):
        return 0, 0, True, True
    else:
        # the extreme corners; a 0*inf corner (not a number) adds nothing
        corners = [c for c in (pool_scalar(operator, x, y) for x in a for y in b) if c == c]
        lo, hi = min(corners), max(corners)
    if operator == "max":
        # an end is reached where one cell is a point there and the other
        # reaches at or below it
        def reached(x: End) -> bool:
            return (a_point and a[0] == x and _reaches(b, x)) or (
                b_point and b[0] == x and _reaches(a, x))

        return lo, hi, reached(lo), reached(hi)
    # avg, sum and had with no zero factor reach a corner only from two points
    return lo, hi, a_point and b_point, a_point and b_point


def _meets(image: Image, cell: Cell) -> bool:
    """The image and the cell share a point."""
    lo, hi, lo_in, hi_in = image
    a, b = cell
    if a == b:
        return lo < a < hi or (a == lo and lo_in) or (a == hi and hi_in)
    return a < hi and lo < b if lo < hi else a < lo < b


def violation(config: SpaceConfig, cap: int, semantics: str) -> tuple[Cell, Cell] | None:
    """The first pair of cells whose pooled image leaves X or meets a cell
    not at the higher of their memberships of a level cut; None when there
    is none.  At cap 1 the one cut is plain membership; at cap 0 only
    closure is left.
    """
    score, operator = config.scoring.score, config.operator
    for level in range(1, max(cap, 1) + 1):
        table = cells(config.domain, level)
        cut = [decoded_level(score(_inside(c)) - level + 1, semantics, min(cap, 1)) for c in table]
        low, high = table[0][0], table[-1][1]
        for i, (a, la) in enumerate(zip(table, cut)):
            for b, lb in zip(table[i:], cut[i:]):
                image = _image(operator, a, b)
                member = max(la, lb)
                if (level == 1 and (image[0] < low or image[1] > high)) or any(
                    l != member and _meets(image, c) for c, l in zip(table, cut)
                ):
                    return a, b
    return None


# --- configuration validation ------------------------------------------------


class ConfigViolation(Record):
    __slots__ = ("rule", "message")
    rule: str
    message: str


def _describe(cell: Cell) -> str:
    lo, hi = cell
    if lo == hi:
        return f"{{{format_rational(lo)}}}"
    left = "-inf" if lo == -_INF else format_rational(lo)
    right = "+inf" if hi == _INF else format_rational(hi)
    return f"({left},{right})"


def _cell_violations(config: SpaceConfig) -> list[ConfigViolation]:
    """Closure, the principle and realisability of a per-coordinate family at cap 1."""
    op, sem, dom, fam = config.operator, config.semantics, config.domain, config.family
    out: list[ConfigViolation] = []
    pair = violation(config, 1, sem)
    if pair is not None and violation(config, 0, sem) is not None:
        out.append(ConfigViolation("closure", f"{dom.describe()} is not closed under {op} pooling"))
    elif pair is not None:
        a, b = map(_describe, pair)
        out.append(
            ConfigViolation(
                "principle",
                f"{op} pooling of coordinates in {a} and {b} can leave the higher of "
                f"their {sem} levels under {fam} scoring",
            )
        )
    score = config.scoring.score
    levels = {decoded_level(score(_inside(c)), sem, 1) for c in cells(dom, 1)}
    if levels != {0, 1}:
        member = "a member" if levels == {1} else "a non-member"
        out.append(
            ConfigViolation(
                "realizability",
                f"{fam} scoring reads every coordinate in {dom.describe()} as {member} "
                f"under {sem} semantics; no vector realises every state",
            )
        )
    return out


def validate_config(config: SpaceConfig) -> list[ConfigViolation]:
    """Structured soundness check; returns violations, never raises.

    A configuration with violations can still be constructed and exercised
    (the falsifier does exactly that); the registry's claimed-sound spaces
    come back clean.
    """
    out: list[ConfigViolation] = []
    op, dom = config.operator, config.domain
    size = config.size

    if dom.n < size:
        out.append(
            ConfigViolation(
                "dimension",
                f"n={dom.n} is below the property count {size}; every pooling "
                f"operator needs n >= |P| to realise all states",
            )
        )
    if config.levels is not None:
        k = config.levels
        if k < 1:
            out.append(ConfigViolation("levels", "certainty cap K must be >= 1"))
        blowup_needed = op in ("avg", "sum") or (
            op == "had" and dom.kind in ("reals", "nonneg")
        )
        if blowup_needed and dom.n < size * k:
            out.append(
                ConfigViolation(
                    "weighted-dimension",
                    f"weighted {op} pooling needs n >= |P|*K = {size * k}, got n={dom.n}",
                )
            )
    if op in ("avg", "sum") and dom.kind == "reals":
        out.append(
            ConfigViolation(
                "unrestricted-domain",
                f"{op} pooling over all of R^n forces every vector to encode the "
                f"same state; restrict the domain",
            )
        )
    if config.family in FAMILIES:
        out += _cell_violations(config)

    if config.margin is not None:
        if config.margin <= 0:
            out.append(ConfigViolation("margin", "margin must be positive"))
        if config.family != COORDINATE or dom.kind not in ("nonneg", "unit"):
            out.append(
                ConfigViolation(
                    "margin",
                    "margin applies to coordinate scores on [0,+inf)^n and [0,1]^n only",
                )
            )
    if config.eps is not None:
        if dom.n == 0:
            out.append(ConfigViolation("margin", "near-binary slack needs n >= 1"))
        elif not (0 < config.eps < Fraction(1, dom.n)):
            out.append(
                ConfigViolation(
                    "margin",
                    f"near-binary slack must satisfy 0 < eps < 1/n = 1/{dom.n}",
                )
            )
        if dom.kind != "unit":
            out.append(ConfigViolation("margin", "eps applies to the [0,1]^n space only"))
    return out
