"""Vector file format: JSON with rational-string coordinates.

Document shape::

    {"space": "<registry name>", "n": 4,
     "vectors": [{"name": "kb", "coords": ["1", "0", "1/2", "-2"]}]}

Coordinates use the rational text format everywhere, so files round-trip
losslessly.  Loading against a space configuration makes each vector
``spaces.Encoded``, one part per distinct literal, and rejects any vector
that falls outside the configured domain.
"""

from __future__ import annotations

import json

from .numeric import RationalParseError, format_rational, parse_rational
from .record import Record
from .spaces import DomainError, SpaceConfig, Vector, contains, outside_at, tagged


class VectorFileError(ValueError):
    """Structurally invalid vector file."""


class NamedVector(Record):
    __slots__ = ("name", "coords")
    name: str
    coords: Vector


class VectorFile(Record):
    __slots__ = ("space", "n", "vectors")
    space: str
    n: int
    vectors: tuple[NamedVector, ...]


def dumps_vectors(space: str, vectors: list[NamedVector]) -> str:
    if not vectors:
        raise VectorFileError("refusing to write an empty vector file")
    n = len(vectors[0].coords)
    for v in vectors:  # loads_vectors refuses a file whose vectors disagree with its n
        if len(v.coords) != n:
            raise VectorFileError(
                f"vector {v.name!r} has {len(v.coords)} coordinates, the first has {n}"
            )
    doc = {
        "space": space,
        "n": n,
        "vectors": [
            {"name": v.name, "coords": [format_rational(x) for x in v.coords]}
            for v in vectors
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads_vectors(text: str) -> VectorFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VectorFileError(f"not valid JSON: {exc}") from None
    try:
        space, n, raw = doc["space"], doc["n"], doc["vectors"]
    except (KeyError, TypeError) as exc:
        raise VectorFileError(f"missing or malformed field: {exc}") from None
    # bool is an int subclass, and JSON true must not read as n = 1
    if not isinstance(space, str) or type(n) is not int or not isinstance(raw, list):
        raise VectorFileError("space must be a string, n an integer and vectors a list")
    vectors = []
    # each distinct coordinate text parsed once, so a literal that recurs in
    # the file is one object, as in encode's output, and pool builds each
    # distinct pair of such objects once
    literals = {}
    for item in raw:
        try:
            name, texts = item["name"], item["coords"]
        except (KeyError, TypeError) as exc:
            raise VectorFileError(f"bad vector entry: {exc}") from None
        if not (isinstance(name, str) and isinstance(texts, list)) or not all(
            isinstance(c, str) for c in texts
        ):
            raise VectorFileError(
                f"bad vector entry {name!r}: name must be a string and coords a list of strings"
            )
        try:
            for t in texts:
                if t not in literals:
                    literals[t] = parse_rational(t)
        except RationalParseError as exc:
            raise VectorFileError(f"bad vector entry: {exc}") from None
        coords = tuple(map(literals.__getitem__, texts))
        if len(coords) != n:
            raise VectorFileError(
                f"vector {name!r} has {len(coords)} coordinates, file says n={n}"
            )
        vectors.append(NamedVector(name, coords))
    return VectorFile(space, n, tuple(vectors))


def load_for_space(vf: VectorFile, config: SpaceConfig) -> list[NamedVector]:
    """Admit a parsed file's vectors into the given space, enforcing the
    domain: each comes back ``Encoded``, with one part per distinct literal,
    so this and every later domain check reads its parts, not its n
    coordinates."""
    if vf.n != config.n:
        raise VectorFileError(
            f"file dimension n={vf.n} does not match space {config.name} (n={config.n})"
        )
    domain, admitted = config.domain, []
    for v in vf.vectors:
        coords = tagged(v.coords)
        if not contains(domain, coords):
            raise DomainError(
                f"vector {v.name!r} lies outside {domain.describe()}: "
                f"{outside_at(domain, coords)}"
            )
        admitted.append(NamedVector(v.name, coords))
    return admitted
