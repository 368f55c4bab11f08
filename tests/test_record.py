"""The behaviour every value record of the package keeps: class-sensitive
equality, hashing, the ``Name(field=value, ...)`` repr, immutability,
pickling and copying, keyword construction, and ``replace``."""

import copy
import pickle
from fractions import Fraction

import pytest

from epipool.decider import ConfigViolation
from epipool.epistemic import EpistemicState, PropertySpace
from epipool.files import NamedVector, VectorFile
from epipool.logic import (
    And,
    Atom,
    AtomTable,
    Const,
    Iff,
    Implies,
    KnowledgeBase,
    Literal,
    Not,
    Or,
)
from epipool.numeric import ScoreValue
from epipool.pooling import Witness
from epipool.spaces import (
    COORDINATE,
    FAMILIES,
    REGISTRY,
    DomainX,
    SpaceConfig,
    make_space,
)
from epipool.verifier import FALSIFY_REGISTRY, Report, ReportCell, TrialPlan
from epipool.weighted import WeightedState, sharp_reduction

A, B = Atom("a"), Atom("b")
TWO = PropertySpace.abstract(2)
CELL = ReportCell("cell", "skipped", 0, "skipped", None, "a note", 0.0)
WITNESS = Witness("cand", "pooling", "strict", ((Fraction(1), Fraction(-1)),), 0, True, False)

# (record, its fields in declaration order); each class appears once
RECORDS = [
    (AtomTable(("a", "b")), ("names",)),
    (A, ("name",)),
    (Const(True), ("value",)),
    (Not(A), ("arg",)),
    (And(A, B), ("left", "right")),
    (Or(A, B), ("left", "right")),
    (Implies(A, B), ("left", "right")),
    (Iff(A, B), ("left", "right")),
    (Literal(0, False), ("atom", "positive")),
    (
        KnowledgeBase((frozenset({Literal(0, True)}),), AtomTable(("a",))),
        ("clauses", "atoms"),
    ),
    (DomainX("bounded-above", 2, Fraction(1, 2)), ("kind", "n", "z")),
    (
        make_space("weighted-max-reals", 2),
        ("name", "operator", "semantics", "domain", "family", "properties",
         "margin", "eps", "levels", "principle_expected"),
    ),
    (ConfigViolation("dimension", "too small"), ("rule", "message")),
    (FAMILIES[COORDINATE], ("score", "sign", "values")),
    (
        REGISTRY["example1"],
        ("operator", "semantics", "domain", "family", "params", "summary",
         "principle_expected", "labels"),
    ),
    (TrialPlan((Fraction(0), Fraction(1)), 2, 10, 7), ("grid", "dimension", "trials", "seed")),
    (
        CELL,
        ("cell", "status", "trials", "expected_status", "witness", "note", "elapsed"),
    ),
    (Report(TrialPlan(), [CELL]), ("plan", "cells")),
    (FALSIFY_REGISTRY["avg-weak-reals-coordinate"], ("summary", "config", "score")),
    (PropertySpace(2, None, ("x", "y")), ("size", "atoms", "names")),
    (EpistemicState.of(TWO, {1}), ("space", "members")),
    (NamedVector("v", (Fraction(1, 3),)), ("name", "coords")),
    (VectorFile("max-weak-reals", 1, (NamedVector("v", (Fraction(1),)),)), ("space", "n", "vectors")),
    (WeightedState.of(TWO, (0, 2), 2), ("space", "levels", "cap")),
    (sharp_reduction(PropertySpace.abstract(1), 2), ("base", "cap", "extended")),
    (ScoreValue(0.75, Fraction(1, 8)), ("approx", "bound", "sign")),
    (WITNESS, ("candidate", "kind", "semantics", "vectors", "prop", "expected", "observed",
               "level", "q")),
]
IDS = [type(record).__name__ for record, _ in RECORDS]
# a lambda field cannot be pickled (deepcopy keeps functions as they are)
UNPICKLABLE = {"Family"}


def rebuilt(record, fields):
    """A second record of the same class, built positionally from the fields."""
    return type(record)(*(getattr(record, name) for name in fields))


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, fields):
    twin = rebuilt(record, fields)
    assert twin == record and not (twin != record) and twin is not record
    assert record != object() and record != tuple(getattr(record, f) for f in fields)
    assert hash(twin) == hash(record)


def test_container_fields_are_tuples():
    report = Report(TrialPlan(), [CELL])
    assert report.cells == (CELL,) and Report(TrialPlan()).cells == ()
    assert report.replace(cells=[CELL, CELL]).cells == (CELL, CELL)
    entry = REGISTRY["avg-strict-nonneg"]
    assert entry.params == (("margin", None), ("eps", None), ("levels", None))


def test_equality_is_class_sensitive():
    assert And(A, B) != Or(A, B) and not And(A, B) == Or(A, B)
    assert Implies(A, B) != Iff(A, B)
    assert len({And(A, B), Or(A, B), Implies(A, B), Iff(A, B), And(A, B)}) == 4
    assert And(A, B) != And(B, A)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(record, fields):
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{type(record).__qualname__}({body})"


def test_repr_of_a_formula():
    assert repr(And(A, Not(B))) == "And(left=Atom(name='a'), right=Not(arg=Atom(name='b')))"


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, fields):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(record, fields):
    copies = [copy.copy(record), copy.deepcopy(record)]
    if type(record).__name__ not in UNPICKLABLE:
        copies.append(pickle.loads(pickle.dumps(record)))
    for other in copies:
        assert type(other) is type(record) and other == record


# every field of these classes has a default, so none can be missing
ALL_DEFAULTED = {"TrialPlan"}


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_keyword_construction(record, fields):
    cls, values = type(record), [getattr(record, name) for name in fields]
    named = dict(zip(fields, values))
    all_but_first = dict(zip(fields[1:], values[1:]))
    assert cls(**named) == record
    assert cls(*values[:1], **all_but_first) == record
    names_the_class = rf"^{cls.__qualname__}[.(]"
    with pytest.raises(TypeError, match=names_the_class):
        cls(*values, **{fields[0]: values[0]})  # repeated
    with pytest.raises(TypeError, match=names_the_class):
        cls(**named, colour="red")  # unknown
    with pytest.raises(TypeError, match=names_the_class):
        cls(*values, values[0])  # extra
    if cls.__qualname__ not in ALL_DEFAULTED:
        with pytest.raises(TypeError, match=names_the_class):
            cls(**all_but_first)  # missing, by keyword
        with pytest.raises(TypeError, match=names_the_class):
            cls()  # missing, positionally


def test_keyword_construction_fills_defaults():
    assert ScoreValue(approx=0.5, bound=Fraction(1, 8)).bound == Fraction(1, 8)
    assert ScoreValue(approx=0.5, sign=1).sign == 1
    assert DomainX("bounded-above", 3, z=Fraction(2)).z == 2
    config = SpaceConfig(
        "probe", "avg", "strict", DomainX("nonneg", 2), COORDINATE, TWO, principle_expected=False
    )
    assert config.principle_expected is False and config.levels is None
    cell = ReportCell("c", "skipped", expected_status="skipped", note="why")
    assert (cell.trials, cell.note, cell.elapsed, cell.witness) == (0, "why", 0.0, None)


def test_replace_returns_a_changed_copy():
    config = make_space("weighted-max-reals", 3)
    wider = config.replace(levels=4)
    assert wider.levels == 4 and config.levels == 2
    assert wider == make_space("weighted-max-reals", 3, levels=4)
    renamed = CELL.replace(cell="other", note="")
    assert (renamed.cell, renamed.note, renamed.status) == ("other", "", CELL.status)
    assert CELL.cell == "cell"


def test_replace_validates_again():
    with pytest.raises(ValueError, match="unknown operator"):
        make_space("avg-strict-nonneg", 2).replace(operator="median")
    with pytest.raises(ValueError, match="negative"):
        DomainX("nonneg", 2).replace(n=-1)
    with pytest.raises(ValueError, match="one level per property"):
        WeightedState.of(TWO, (0, 1), 2).replace(levels=(1,))


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="colour"):
        A.replace(colour="red")
    with pytest.raises(TypeError):
        make_space("avg-strict-nonneg", 2).replace(size=4)


def test_every_record_derives_from_the_one_immutable_base():
    from epipool.record import FrozenInstanceError, Record

    def descendants(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from descendants(sub)

    with_fields = {cls for cls in descendants(Record) if cls.__slots__}
    assert with_fields == {type(record) for record, _ in RECORDS} and len(RECORDS) == 27
    assert issubclass(FrozenInstanceError, AttributeError)
    for record, _ in RECORDS:
        assert isinstance(record, Record), type(record).__name__
        assert not hasattr(record, "__dict__"), type(record).__name__
    with pytest.raises(FrozenInstanceError):
        A.name = "b"
