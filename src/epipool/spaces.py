"""Embedding-space configurations: domain, scoring family, encoder, decoder.

A :class:`SpaceConfig` bundles everything needed to treat vectors as
epistemic states: the admissible region ``X``, a per-property scoring
family, the pooling operator the space is meant for, and whether property
satisfaction reads scores with ``> 0`` (strict) or ``>= 0`` (weak).

A per-coordinate scoring family is one :class:`Family` record in
``FAMILIES``, keyed by its name: score, and canonical member and non-member
values.  Every membership and certainty level is ``decoded_level`` of a
score; membership is level 1 of cap 1.  ``coordinate_levels`` is the one
reader of a vector's levels, for ``decode``, ``weighted.decode_weighted``
and the principle checks in ``pooling``.  Which operators and domains a
family works with is not written here: ``decider.validate_config`` reads it
off the family's scores.  Adding a family means adding its name constant
and that one record.  The disc (``DISC``, named in this module only) reads
the whole vector and has no record; its level at cap 1 is its score's sign.

The registry ships one named configuration per construction the package
can realise, plus ``example1``, a deliberately unsound two-disc demo space
whose pooling principle fails for some pairs (that failure is part of what
the verifier demonstrates).  Each space is one :class:`RegistryEntry` row
in ``REGISTRY``: operator, semantics, domain kind, family, summary, and the
parameters it takes with their defaults; ``make_space`` builds every space
from its row.  Adding a space means adding that one row.  Encoders are fixed
canonical witnesses so that outputs are reproducible byte for byte; many
encodings would work, the particular values below are this package's choice.

``encode`` returns an :class:`Encoded` vector: the tuple of its coordinates,
which also carries, for each of its (at most two) coordinate objects, the
bitmask of the positions that hold it (``pooling.pool`` keeps them).
``contains`` checks such a vector's distinct objects only, and ``decode``
reads it once per object.  ``pool`` pools two of them part by part, and
``position_labels`` labels each of its n coordinates in C.  ``tagged``
makes one of any vector, as loading a vector file does, and
``merged_parts`` is the one identity merge behind every parts tuple.  A
plain tuple (a slice, a sweep point, the disc's witnesses) is checked and
read coordinate by coordinate, the reference the parts are tested against.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from itertools import compress, cycle
from typing import Callable, Iterable, Mapping, Sequence

from .epistemic import EpistemicState, PropertySpace
from .logic import bits_mask, mask_bits
from .numeric import (
    ScoreValue, format_rational, is_square, parse_rational, saturating_float, signum, sqrt_exact
)
from .record import Record

Vector = tuple[Fraction, ...]

OPERATORS = ("avg", "sum", "max", "had")
SEMANTICS = ("strict", "weak")

# scoring families; names describe the per-coordinate score
COORDINATE = "coordinate"            # e_i
STEP_SIGN = "step-sign"              # 1 if e_i > 0 else -1
ZERO_INDICATOR = "zero-indicator"    # 1 if e_i = 0 else 0
NEG_COORDINATE = "neg-coordinate"    # -e_i
NEG_SQUARE = "neg-square"            # -e_i^2
NEG_RELU = "neg-relu"                # -max(0, -e_i)
GRADED_UNIT = "graded-unit"          # 3/2 at 0, -1/2 at 1, 1/2 in between
DISC = "disc"                        # unit discs at (0,0) and (1,1), n = 2
ONE_MINUS_SQUARE = "one-minus-square"  # 1 - e_i^2 (doomed candidate)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_EXACT_TYPES = frozenset((int, Fraction))


class DomainError(ValueError):
    """Vector outside the admissible region X, or dimension mismatch."""


class EncodingError(ValueError):
    """No canonical encoder for this configuration."""


class DomainX(Record):
    """Coordinatewise-decidable region X of R^n, of kind reals, nonneg, nonpos,
    unit or bounded-above; only the last takes z, kept as a Fraction.  Each
    kind's bounds are written once, in ``contains_scalar``: ``contains``,
    the cell decider and the sweeps all check coordinates through it."""

    __slots__ = ("kind", "n", "z")

    def __init__(self, kind: str, n: int, z: Fraction | int | None = None) -> None:
        if kind not in ("reals", "nonneg", "nonpos", "bounded-above", "unit"):
            raise ValueError(f"unknown domain kind: {kind!r}")
        if (kind == "bounded-above") != (z is not None):
            raise ValueError("z is required exactly for bounded-above domains")
        if n < 0:
            raise ValueError("dimension cannot be negative")
        super().__init__(kind, n, None if z is None else Fraction(z))

    def contains_scalar(self, x: Fraction) -> bool:
        """Whether X holds the coordinate x, an int or a Fraction, read off
        integers: a Fraction's denominator is positive, so its sign is its
        numerator's sign, and ``x <= p/q`` is ``x.numerator * q <= p *
        x.denominator``."""
        kind = self.kind
        if kind == "reals":
            return True
        if kind == "nonneg":
            return x.numerator >= 0
        if kind == "nonpos":
            return x.numerator <= 0
        if kind == "unit":
            return 0 <= x.numerator <= x.denominator
        z = self.z
        return x.numerator * z.denominator <= z.numerator * x.denominator

    def describe(self) -> str:
        return {
            "reals": "R^n",
            "nonneg": "[0,+inf)^n",
            "nonpos": "(-inf,0]^n",
            "unit": "[0,1]^n",
            "bounded-above": f"(-inf,{format_rational(self.z)}]^n" if self.z is not None else "",
        }[self.kind]


class Encoded(tuple):
    """A vector that carries where each of its coordinate objects sits.

    ``parts`` has one ``(x, positions)`` pair per distinct coordinate object
    x: x is the object the coordinates hold, and bit i of the int
    ``positions`` is set where coordinate i is x.  ``encode``, ``pool`` and
    ``tagged`` make these (the last two in first-occurrence order), and
    ``contains``, ``decode``, ``entailment.psi`` and ``pool`` itself read
    them instead of the n coordinates; whoever builds one by hand vouches
    for ``parts``.

    It is the tuple of its coordinates for every other purpose: equality,
    hashing and repr are the tuple's, and slicing or concatenating gives a
    plain tuple, which the readers check coordinate by coordinate.  The
    field is set once, and pickling and copying keep it.
    """

    parts: tuple[tuple[Fraction, int], ...]

    def __new__(cls, coords: Iterable[Fraction], parts: Iterable[tuple[Fraction, int]]) -> Encoded:
        self = super().__new__(cls, coords)
        self.__dict__["parts"] = tuple(parts)
        return self

    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__

    def __reduce__(self) -> tuple:
        # tuple's own reduce would call __new__ with the coordinates alone
        return self.__class__, (tuple(self), self.parts)


def merged_parts(pieces: Iterable[tuple[Fraction, int]]) -> list[tuple[Fraction, int]]:
    """One ``(x, positions)`` part per distinct object x among the pieces,
    found by identity, in first-seen order: an object that several pieces
    hold (``max`` returns one of its inputs) holds the union of their
    positions.  The caller holds every object, so no id is reused."""
    held: dict[int, list] = {}
    for x, positions in pieces:
        part = held.get(id(x))
        if part is None:
            held[id(x)] = [x, positions]
        else:
            part[1] |= positions
    return list(map(tuple, held.values()))


def tagged(v: Vector) -> Encoded:
    """``v`` as an ``Encoded`` vector: one part per distinct coordinate
    object, found by identity, in first-occurrence order."""
    return Encoded(v, merged_parts((x, 1 << i) for i, x in enumerate(v)))


def index_planes(masks: Sequence[int]) -> list[int]:
    """Each bit of a part's index in ``masks`` as a mask of positions: plane
    t is the union of the masks whose index has bit t set.  The masks are
    disjoint, so the union is their sum, taken in C."""
    return [
        sum(compress(masks, cycle((0,) * (1 << t) + (1,) * (1 << t))))
        for t in range((len(masks) - 1).bit_length())
    ]


# struct's standard code for an unsigned field of each width in bytes
_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def position_labels(planes: Sequence[int], n: int) -> tuple[int, ...]:
    """The label of each of n positions: bit t of position i's label is bit
    i of ``planes[t]``.

    Each plane's ``mask_bits`` is spread to one field per position of an
    int, shifted to its bit and summed, and ``struct`` reads the fields
    back, all in C.  A field is as wide as the labels need, so there is no
    cap on their number (one byte per label would stop at 256).
    """
    width = 1
    while 8 * width < len(planes):
        width *= 2
    labels = 0
    for t, plane in enumerate(planes):
        bits = mask_bits(plane)
        fields = bytearray(width * len(bits))
        fields[::width] = bits
        labels += int.from_bytes(fields, "little") << t
    return struct.unpack(f"<{n}{_FIELD_CODES[width]}", labels.to_bytes(width * n, "little"))


def contains(domain: DomainX, v: Vector) -> bool:
    """Whether the domain holds ``v``, whose dimension must be the domain's:
    ``contains_each`` over an ``Encoded`` vector's distinct objects, or over
    a plain tuple's coordinates."""
    if len(v) != domain.n:
        raise DomainError(f"vector has dimension {len(v)}, domain expects {domain.n}")
    if isinstance(v, Encoded):
        return contains_each(domain, [x for x, _ in v.parts])
    return contains_each(domain, v)


def contains_each(domain: DomainX, v: Sequence[Fraction]) -> bool:
    """``all(map(domain.contains_scalar, v))`` once every coordinate is known
    to be an int or a Fraction: anything else is a TypeError, whatever the
    domain.  On R^n the coordinates' types alone decide."""
    if domain.kind == "reals" and _EXACT_TYPES.issuperset(set(map(type, v))):
        return True  # R^n holds every vector of ints and Fractions
    bad = [x for x in v if not hasattr(x, "numerator")]
    if bad:
        raise TypeError(f"coordinate {bad[0]!r} is not an int or a Fraction")
    return all(map(domain.contains_scalar, v))


def vector(coords: Iterable[Fraction | int | str]) -> Vector:
    out: list[Fraction] = []
    for c in coords:
        if isinstance(c, str):
            out.append(parse_rational(c))
        else:
            out.append(Fraction(c))
    return tuple(out)


def format_vector(v: Vector) -> str:
    return "(" + ", ".join(format_rational(x) for x in v) + ")"


class SpaceConfig(Record):
    __slots__ = (
        "name", "operator", "semantics", "domain", "family", "properties",
        "margin", "eps", "levels", "principle_expected",
    )

    def __init__(
        self,
        name: str,
        operator: str,
        semantics: str,
        domain: DomainX,
        family: str,
        properties: PropertySpace,
        margin: Fraction | None = None,  # separation width for margin spaces
        eps: Fraction | None = None,     # near-binary slack for the unit margin space
        levels: int | None = None,       # certainty cap K for weighted spaces
        principle_expected: bool = True,  # False for demo/doomed configurations
    ) -> None:
        if operator not in OPERATORS:
            raise ValueError(f"unknown operator: {operator!r}")
        if semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics: {semantics!r}")
        if family not in FAMILIES and family != DISC:
            raise ValueError(f"unknown scoring family: {family!r}")
        super().__init__(
            name, operator, semantics, domain, family, properties, margin, eps, levels,
            principle_expected,
        )

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def size(self) -> int:
        return self.properties.size

    @property
    def scoring(self) -> Family:
        try:
            return FAMILIES[self.family]
        except KeyError:
            raise ValueError(f"family {self.family!r} is not per-coordinate") from None


# --- per-coordinate scoring --------------------------------------------------


class Family(Record):
    """What a per-coordinate scoring family is, in one place.

    ``score`` maps a coordinate to its exact score; every membership and
    certainty level is ``decoded_level`` of that score.  ``values`` is the
    canonical (member, non-member) coordinate pair; it is None where the
    pair depends on the domain (coordinate).
    """

    __slots__ = ("score", "values")
    score: Callable[[Fraction], Fraction]
    values: tuple[Fraction, Fraction] | None


FAMILIES: dict[str, Family] = {
    COORDINATE: Family(lambda x: x, None),
    STEP_SIGN: Family(lambda x: _ONE if x > 0 else -_ONE, (_ONE, _ZERO)),
    ZERO_INDICATOR: Family(lambda x: _ONE if x == 0 else _ZERO, (_ZERO, _ONE)),
    NEG_COORDINATE: Family(lambda x: -x, (_ZERO, _ONE)),
    NEG_SQUARE: Family(lambda x: -(x * x), (_ZERO, _ONE)),
    NEG_RELU: Family(lambda x: x if x < 0 else _ZERO, (_ONE, -_ONE)),
    GRADED_UNIT: Family(
        lambda x: Fraction(3, 2) if x == 0 else Fraction(-1, 2) if x == 1 else Fraction(1, 2),
        (_ZERO, _ONE),
    ),
    ONE_MINUS_SQUARE: Family(lambda x: _ONE - x * x, (_ZERO, Fraction(2))),
}


_DISC_CENTERS: tuple[Vector, ...] = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
)


def _disc_margin(i: int, v: Vector) -> Fraction:
    """1 - squared distance from v to the i-th centre: rational, with the sign
    of the disc's score 1 - distance, so membership is decided on it."""
    cx, cy = _DISC_CENTERS[i]
    return _ONE - (v[0] - cx) ** 2 - (v[1] - cy) ** 2


def _disc_score(i: int, v: Vector) -> Fraction | ScoreValue:
    margin = _disc_margin(i, v)
    d2 = _ONE - margin
    if is_square(d2):
        return _ONE - sqrt_exact(d2)
    return ScoreValue(1.0 - math.sqrt(saturating_float(d2)), sign=signum(margin))


def outside_at(domain: DomainX, v: Vector) -> str:
    """Where a vector that ``contains`` refused leaves the domain, for an
    error message: its dimension and its first coordinate outside, which
    stays short however long the vector is."""
    i, x = next((i, x) for i, x in enumerate(v) if not domain.contains_scalar(x))
    return f"n={len(v)}, coordinate {i} is {format_rational(x)}"


def require_in_domain(config: SpaceConfig, v: Vector) -> None:
    """Raise DomainError unless ``v`` lies in the domain and n covers every property."""
    domain = config.domain
    if not contains(domain, v):
        raise DomainError(f"vector outside {domain.describe()}: {outside_at(domain, v)}")
    require_covers(config)


def require_covers(config: SpaceConfig) -> None:
    """Raise DomainError unless n covers every property, one coordinate each."""
    if config.n < config.size:
        raise DomainError(f"n={config.n} is below the property count {config.size}")


def gamma(config: SpaceConfig, i: int, v: Vector) -> Fraction | ScoreValue:
    """Score of property ``i`` at ``v``; exact except for the disc demo."""
    require_in_domain(config, v)
    if i < 0 or i >= config.size:
        raise IndexError(f"property index {i} out of range")
    return score_value(config, i, v)


def score_value(config: SpaceConfig, i: int, v: Vector) -> Fraction | ScoreValue:
    """gamma without its domain, dimension and index checks, for callers that made them."""
    if config.family == DISC:
        return _disc_score(i, v)
    return config.scoring.score(v[i])


def score_sign(config: SpaceConfig, i: int, v: Vector) -> int:
    """Exact sign of property ``i``'s score, unchecked like score_value."""
    if config.family == DISC:
        return signum(_disc_margin(i, v))
    return signum(config.scoring.score(v[i]))


def member_sign(semantics: str, sign: int) -> bool:
    return sign > 0 if semantics == "strict" else sign >= 0


def decoded_level(score: Fraction, semantics: str, cap: int) -> int:
    """Certainty level 0..cap that a score reaches.

    Strict reading: the level is the clamped ceiling of the score (level i
    is reached when the score exceeds i-1).  Weak reading: clamped floor
    plus one (level i is reached when the score is at least i-1).  At cap 1
    this is plain membership: score > 0, or score >= 0.  The score is an
    int or a Fraction, so ceiling, floor and clamp are written out on its
    numerator and denominator: a third of the cost of ``math.ceil`` and
    builtin ``max``/``min``.
    """
    if semantics == "strict":
        level = -(-score.numerator // score.denominator)
    elif semantics == "weak":
        level = 1 + score.numerator // score.denominator
    else:
        raise ValueError(f"unknown semantics: {semantics!r}")
    return 0 if level < 0 else cap if level > cap else level


def coordinate_levels(config: SpaceConfig, v: Vector, semantics: str, cap: int) -> list[int]:
    """``decoded_level`` of each property's score at ``v``, unchecked: the caller
    made ``require_in_domain``.

    A level is read once per distinct coordinate object among the first
    |P|, keyed by identity as ``pool`` keys its pairs, and reused wherever
    the object recurs: an encoded vector holds two objects.  Identity keys
    are sound because ``v`` holds every coordinate for the whole call.  The
    disc is read at cap 1 only, off ``_disc_margin``.
    """
    if config.family == DISC and cap == 1:
        return [decoded_level(_disc_margin(i, v), semantics, 1) for i in range(config.size)]
    score, held, levels = config.scoring.score, {}, []
    for x in v[: config.size]:
        key = id(x)
        level = held.get(key)
        if level is None:
            level = held[key] = decoded_level(score(x), semantics, cap)
        levels.append(level)
    return levels


def decode(config: SpaceConfig, v: Vector) -> EpistemicState:
    """Epistemic state encoded by ``v``: the properties at level 1 of cap 1
    under the configured semantics.

    An ``Encoded`` vector of a per-coordinate family is read part by part:
    the level of each distinct object among the first |P| coordinates, and
    the positions of the objects at level 1, cut to the first |P|.
    """
    require_in_domain(config, v)
    if isinstance(v, Encoded) and config.family != DISC:
        score, semantics = config.scoring.score, config.semantics
        properties, members = (1 << config.size) - 1, 0
        for x, positions in v.parts:
            if positions & properties and decoded_level(score(x), semantics, 1):
                members |= positions
        return EpistemicState.of_mask(config.properties, members & properties)
    levels = coordinate_levels(config, v, config.semantics, 1)
    return EpistemicState(config.properties, frozenset(compress(range(config.size), levels)))


_DISC_WITNESSES: dict[frozenset[int], Vector] = {
    frozenset(): (Fraction(10), Fraction(10)),
    frozenset({0}): (Fraction(0), Fraction(0)),
    frozenset({1}): (Fraction(1), Fraction(1)),
    frozenset({0, 1}): (Fraction(1, 2), Fraction(1, 2)),
}


def encode_values(config: SpaceConfig) -> tuple[Fraction, Fraction]:
    """Canonical (member, non-member) coordinate values for this space.

    Refuses configurations whose semantics cannot distinguish the two
    values (e.g. strict reading where no positive score exists in the
    domain); silent non-roundtripping encodings would be worse.
    """
    fam, dom = FAMILIES.get(config.family), config.domain
    values = fam.values if fam else None
    if config.family == COORDINATE:
        if dom.kind in ("nonneg", "unit"):
            values = (config.margin if config.margin is not None else _ONE, _ZERO)
        elif dom.kind == "reals":
            values = (_ONE, -_ONE)
        elif dom.kind == "nonpos":
            values = (_ZERO, -_ONE)
        else:
            assert dom.z is not None
            top = min(_ONE, dom.z)
            values = (top, top - 2)
    elif values is None:
        raise EncodingError(f"no coordinatewise encoder for family {config.family!r}")
    if [decoded_level(fam.score(x), config.semantics, 1) for x in values] != [1, 0]:
        raise EncodingError(
            f"{config.semantics} semantics cannot separate the canonical "
            f"values for {config.family} on {dom.describe()}"
        )
    return values


def encode(config: SpaceConfig, state: EpistemicState) -> Vector:
    """Canonical witness vector with ``decode(encode(state)) == state``.

    A per-coordinate family's vector holds two objects, the member and the
    non-member value, and comes back ``Encoded`` with the positions of each;
    ``decode`` refuses it if the domain does not hold both values.
    """
    if state.space != config.properties:
        raise ValueError("state belongs to a different property space")
    require_covers(config)
    if config.family == DISC:
        return _DISC_WITNESSES[state.members]
    member, non_member = encode_values(config)
    coords, bits = [non_member] * config.n, bytearray(config.n)
    for i in state.members:
        coords[i] = member
        bits[i] = 1
    members = bits_mask(bits)
    others = ((1 << config.n) - 1) ^ members
    parts = ((member, members), (non_member, others))
    return Encoded(coords, [(x, positions) for x, positions in parts if positions])


# --- registry ----------------------------------------------------------------


class RegistryEntry(Record):
    """One registry space: its construction, and the parameters it takes.

    ``params`` pairs each parameter the space takes, besides ``properties``
    and ``n``, with its default; it is given as a mapping or as pairs and
    kept as a tuple of pairs, so a row cannot be changed in place.
    ``labels`` names the properties of a space fixed at n = |P| = len(labels).
    """

    __slots__ = (
        "operator", "semantics", "domain", "family", "params", "summary",
        "principle_expected", "labels",
    )

    def __init__(
        self,
        operator: str,
        semantics: str,
        domain: str,
        family: str,
        params: Mapping[str, Fraction | int | None] | Iterable[tuple[str, Fraction | int | None]],
        summary: str,
        principle_expected: bool = True,
        labels: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__(
            operator, semantics, domain, family, tuple(dict(params).items()), summary,
            principle_expected, labels,
        )


_ANY = {"margin": None, "eps": None, "levels": None}
_LEVELS = {"levels": 2}

REGISTRY: dict[str, RegistryEntry] = {
    "avg-strict-nonneg": RegistryEntry(
        "avg", "strict", "nonneg", COORDINATE, _ANY,
        "average pooling, strict, X=[0,+inf)^n, coordinate scores"),
    "sum-strict-nonneg": RegistryEntry(
        "sum", "strict", "nonneg", COORDINATE, _ANY,
        "summation pooling, strict, X=[0,+inf)^n, coordinate scores"),
    "avg-weak-nonneg-step": RegistryEntry(
        "avg", "weak", "nonneg", STEP_SIGN, _ANY,
        "average pooling, weak, X=[0,+inf)^n, two-valued step scores"),
    "max-strict-reals": RegistryEntry(
        "max", "strict", "reals", COORDINATE, _ANY,
        "max pooling, strict, X=R^n, coordinate scores"),
    "max-weak-reals": RegistryEntry(
        "max", "weak", "reals", COORDINATE, _ANY,
        "max pooling, weak, X=R^n, coordinate scores"),
    "max-weak-nonpos": RegistryEntry(
        "max", "weak", "nonpos", COORDINATE, _ANY,
        "max pooling, weak, X=(-inf,0]^n, coordinate scores (linear-scorer friendly)"),
    "had-strict-reals": RegistryEntry(
        "had", "strict", "reals", ZERO_INDICATOR, _ANY,
        "Hadamard pooling, strict, X=R^n, zero-indicator scores (discontinuous by design)"),
    "had-weak-reals": RegistryEntry(
        "had", "weak", "reals", NEG_SQUARE, _ANY,
        "Hadamard pooling, weak, X=R^n, negated-square scores"),
    "had-weak-nonneg": RegistryEntry(
        "had", "weak", "nonneg", NEG_COORDINATE, _ANY,
        "Hadamard pooling, weak, X=[0,+inf)^n, negated-coordinate scores (linear-scorer friendly)"),
    "avg-margin-nonneg": RegistryEntry(
        "avg", "strict", "nonneg", COORDINATE, {"margin": 1},
        "average pooling, strict, X=[0,+inf)^n with a separation margin for clear-cut scorers"),
    "avg-margin-unit": RegistryEntry(
        "avg", "strict", "unit", COORDINATE, {"eps": None},
        "average pooling, strict, X=[0,1]^n with near-binary clear-cut states"),
    "weighted-max-reals": RegistryEntry(
        "max", "strict", "reals", COORDINATE, _LEVELS,
        "max pooling over R^n with certainty levels 0..K"),
    "weighted-had-unit": RegistryEntry(
        "had", "strict", "unit", GRADED_UNIT, _LEVELS,
        "Hadamard pooling over [0,1]^n with three certainty levels (K=2)"),
    "example1": RegistryEntry(
        "avg", "strict", "reals", DISC, {},
        "two-disc average-pooling demo on R^2; the pooling principle fails here",
        principle_expected=False, labels=("a", "b")),
}


def make_space(name: str, size: int | None = None, **params) -> SpaceConfig:
    """Instantiate a registry configuration at a given property count.

    A ``size`` given with ``properties`` must be their count.  Three rules
    are not data in the rows.  A space with ``labels`` refuses any other
    size or dimension.  The graded unit-interval family supports K = 2
    only.  On [0,1]^n with coordinate scores, eps defaults to 1/(2n) and
    the margin is 1 - eps.
    """
    try:
        entry = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown space {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None
    defaults = dict(entry.params)
    for key in params:
        if key not in ("properties", "n") and key not in defaults:
            raise ValueError(f"space {name!r} takes no parameter {key!r}")
    props, n = params.pop("properties", None), params.pop("n", None)
    fixed = len(entry.labels) if entry.labels else None
    if size is None:
        size = props.size if props is not None else fixed or 3
    sizes = {size} if props is None else {size, props.size}
    if fixed is not None and (sizes != {fixed} or n not in (None, fixed)):
        raise EncodingError(f"the {entry.family} demo space is fixed at n = |P| = {fixed}")
    if len(sizes) > 1:
        raise ValueError(f"size {size} disagrees with the {props.size} properties given")
    values = {**defaults, **params}
    margin, eps, levels = values.get("margin"), values.get("eps"), values.get("levels")
    if entry.family == GRADED_UNIT and levels != 2:
        raise EncodingError("the graded unit-interval space supports K = 2 only")
    if props is None:
        props = PropertySpace.abstract(entry.labels or size)
    dim = n if n is not None else fixed or props.size
    if margin is not None:
        margin = Fraction(margin)
    if entry.domain == "unit" and entry.family == COORDINATE:
        if dim == 0:
            raise ValueError(f"space {name!r} needs n >= 1: its slack eps must be below 1/n")
        eps = Fraction(eps) if eps is not None else Fraction(1, 2 * dim)
        margin = _ONE - eps
    dom = DomainX(entry.domain, dim)
    return SpaceConfig(
        name, entry.operator, entry.semantics, dom, entry.family, props,
        margin, eps, levels, entry.principle_expected,
    )


def sound_space_names() -> list[str]:
    """The nine core constructions the pooling-principle suite sweeps.

    Margin spaces and weighted ones (a ``levels`` default) also honour the
    principle, reusing these constructions, but have their own suites.
    """
    return [
        name
        for name, entry in REGISTRY.items()
        if dict(entry.params).get("levels") is None
        and name not in ("avg-margin-nonneg", "avg-margin-unit")
        and entry.principle_expected
    ]
