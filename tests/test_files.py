import json

import pytest

from epipool.files import (
    NamedVector,
    VectorFileError,
    dumps_vectors,
    load_for_space,
    loads_vectors,
)
from epipool.spaces import DomainError, make_space, vector


def test_roundtrip_preserves_rationals():
    nv = NamedVector("x", vector(["1/3", "-2", "0"]))
    text = dumps_vectors("max-strict-reals", [nv])
    parsed = loads_vectors(text)
    assert parsed.space == "max-strict-reals"
    assert parsed.n == 3
    assert parsed.vectors == (nv,)


def test_load_for_space_accepts_in_domain():
    cfg = make_space("avg-strict-nonneg", 2)
    text = dumps_vectors("avg-strict-nonneg", [NamedVector("v", vector(["0", "1/2"]))])
    assert load_for_space(loads_vectors(text), cfg)[0].coords == vector(["0", "1/2"])


def test_load_for_space_rejects_out_of_domain():
    cfg = make_space("avg-strict-nonneg", 2)
    text = dumps_vectors("avg-strict-nonneg", [NamedVector("v", vector(["-1", "0"]))])
    with pytest.raises(DomainError):
        load_for_space(loads_vectors(text), cfg)


def test_load_rejects_dimension_lies():
    # JSON true and 1.7 are not the dimension 1, though int() reads both as 1
    for n, coords in ((3, ["1", "2"]), (True, ["1"]), (1.7, ["1"]), ("1", ["1"])):
        text = json.dumps({"space": "s", "n": n, "vectors": [{"name": "v", "coords": coords}]})
        with pytest.raises(VectorFileError):
            loads_vectors(text)


def test_load_rejects_bad_json_and_bad_rationals():
    with pytest.raises(VectorFileError):
        loads_vectors("{not json")
    with pytest.raises(VectorFileError):
        loads_vectors('{"space": "s", "n": 1, "vectors": [{"name": "v", "coords": ["1.5"]}]}')


def test_a_literal_is_parsed_once_per_file():
    """Every "1" of the file is one object, as in encode's output; the
    bytes dump back unchanged, and a bad literal beside good ones is refused."""
    text = dumps_vectors(
        "s", [NamedVector("a", vector(["1", "0", "1"])), NamedVector("b", vector(["0", "1", "1/2"]))]
    )
    a, b = (v.coords for v in loads_vectors(text).vectors)
    assert a[0] is a[2] is b[1] and a[1] is b[0]
    assert dumps_vectors("s", list(loads_vectors(text).vectors)) == text
    bad = text.replace('"1/2"', '"1/0"')
    with pytest.raises(VectorFileError, match="bad vector entry: zero denominator: '1/0'"):
        loads_vectors(bad)


def test_empty_file_refused():
    with pytest.raises(VectorFileError):
        dumps_vectors("s", [])


def test_mixed_dimensions_refused():
    """A file of two dimensions would not load: its n is the first vector's."""
    vectors = [NamedVector("a", vector(["1", "0"])), NamedVector("b", vector(["1"]))]
    with pytest.raises(VectorFileError, match="vector 'b' has 1 coordinates, the first has 2"):
        dumps_vectors("s", vectors)
    assert loads_vectors(dumps_vectors("s", vectors[:1])).n == 2


def test_load_rejects_non_string_coordinates():
    # a string of digits is not a list of coordinates, though it iterates as one
    for coords in ([1, 2], "12", None):
        text = json.dumps({"space": "s", "n": 2, "vectors": [{"name": "v", "coords": coords}]})
        with pytest.raises(VectorFileError):
            loads_vectors(text)


@pytest.mark.parametrize(
    "doc",
    [
        {"space": "s", "n": 1, "vectors": 5},
        {"space": "s", "n": 1, "vectors": None},
        {"space": "s", "n": 1, "vectors": [{"name": ["x"], "coords": ["1"]}]},
        {"space": ["s"], "n": 1, "vectors": [{"name": "v", "coords": ["1"]}]},
        {"space": "s", "n": 1, "vectors": [5]},
        [1],
    ],
    ids=["vectors-int", "vectors-null", "name-list", "space-list", "entry-int", "doc-list"],
)
def test_load_rejects_a_document_of_the_wrong_shape(doc):
    with pytest.raises(VectorFileError):
        loads_vectors(json.dumps(doc))
