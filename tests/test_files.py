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
    text = '{"space": "s", "n": 3, "vectors": [{"name": "v", "coords": ["1", "2"]}]}'
    with pytest.raises(VectorFileError):
        loads_vectors(text)


def test_load_rejects_bad_json_and_bad_rationals():
    with pytest.raises(VectorFileError):
        loads_vectors("{not json")
    with pytest.raises(VectorFileError):
        loads_vectors('{"space": "s", "n": 1, "vectors": [{"name": "v", "coords": ["1.5"]}]}')


def test_empty_file_refused():
    with pytest.raises(VectorFileError):
        dumps_vectors("s", [])


def test_load_rejects_non_string_coordinates():
    text = '{"space": "s", "n": 2, "vectors": [{"name": "v", "coords": [1, 2]}]}'
    with pytest.raises(VectorFileError):
        loads_vectors(text)
