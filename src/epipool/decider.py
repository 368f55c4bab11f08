"""An exact decider for the pooling principle of a per-coordinate family.

A per-coordinate family's certainty level (``decoded_level`` of a
coordinate's score) is constant between rational breakpoints: the integers
-K..K cover every family in ``spaces.FAMILIES`` at cap K (K at least 1),
and X's own bounds, which are closed, cut it there. ``cells`` cuts X at
those points into point cells and open-interval cells, and a cell's level
is the level at any one point inside it.

Pooling two cells fills one interval whose ends are limits at the cells'
corners, so the principle holds for every pair of coordinates exactly when,
for every pair of cells, that interval stays in X and meets only cells of
the higher of the two levels. ``violation`` checks every unordered pair of
cells (the four operators are commutative) and names the first that fails.

A cell is a pair (lo, hi) of ends; lo == hi is a point cell, anything else
the open interval between them. A finite end is an int or a Fraction, and
an infinite end the float -inf or +inf; all of them compare exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .pooling import pool_scalar
from .spaces import DomainX, SpaceConfig
from .weighted import decoded_level

End = int | Fraction | float
Cell = tuple[End, End]
# (lo, hi, lo reached, hi reached): an interval with its ends' membership
Image = tuple[End, End, bool, bool]

_INF = float("inf")


def cells(domain: DomainX, cap: int) -> list[Cell]:
    """X cut at the integers -max(cap, 1)..max(cap, 1) and its own bounds,
    in increasing order: point cells at the cuts, open cells between them."""
    k = max(cap, 1)
    bounds = {domain.z} if domain.z is not None else set()
    cuts = sorted(x for x in {*range(-k, k + 1), *bounds} if domain.contains_scalar(x))
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
    whose level is not the higher of theirs; None when there is none.

    At cap 1 a level is plain membership; at cap 0 only closure is left.
    """
    table = cells(config.domain, cap)
    score, operator = config.scoring.score, config.operator
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
