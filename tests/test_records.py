"""The record classes: construction, equality, hashing, repr, immutability,
copying, pickling and ``_replace``, checked against the frozen dataclass
each of them stands for."""

import copy
import dataclasses
import pickle

import pytest

from lframes.errors import InvalidDrawing
from lframes.exchange import Arc, ArcPiece, ExchangeGraph
from lframes.geometry import DominatingSet, GeomInstance, LFrame, Point, Rect
from lframes.local_search import LocalSearchConfig
from lframes.permutation import Permutation
from lframes.reductions import (
    ChordDiagram,
    ClauseSpec,
    EquivalenceReport,
    Monotone3SATDrawing,
    ReductionCertificate,
)

_frame = LFrame("a", Point(0, 0), 3, -2)
_inst = GeomInstance(frames=(_frame,), diagonal=0)
_chords = ChordDiagram(2, (1, 2, 1, 2))
_arc = Arc(0, 1, 2, "mixed", (2, 3), "b_left")
_piece = ArcPiece(Point(0, 1), Point(2, -1), "above")

# (record, its fields in constructor order, a change that _replace must
# refuse with (exception, message) or None for a class that validates nothing)
RECORDS = [
    (_frame, ("id", "corner", "hspan", "vspan"),
     ({"hspan": 0}, ValueError, r"^frame 'a': spans must be nonzero$")),
    (Rect("r", Point(0, 0), Point(2, 3)), ("id", "lo", "hi"),
     ({"hi": Point(0, 5)}, ValueError, r"^rect 'r': degenerate$")),
    (DominatingSet((3, 1)), ("members",), ({"members": None}, TypeError, None)),
    (_inst, ("frames", "rects", "model", "diagonal", "vline", "hline"),
     ({"model": "loose"}, ValueError, r"^unknown model 'loose'$")),
    (Permutation((2, 1, 3)), ("pi",),
     ({"pi": (1, 1)}, ValueError, r"^pi is not a bijection on 1..n$")),
    (LocalSearchConfig(3), ("k",), ({"k": 0}, ValueError, r"^k must be >= 1$")),
    (_arc, ("b", "r", "witness", "cls", "witnesses", "mixed_orientation"), None),
    (ExchangeGraph(frozenset({0}), frozenset({1}), (_arc,)), ("B", "R", "arcs"), None),
    (_piece, ("p0", "p1", "side"), None),
    (ReductionCertificate("circle-diagonal", _chords, _inst, 0),
     ("kind", "source", "instance", "offset"), None),
    (EquivalenceReport("sat", 2, 3, 1, True),
     ("kind", "source_value", "reduced_value", "offset", "ok"), None),
    (_chords, ("n", "order"), ({"n": 3}, ValueError, r"^expected 6 endpoints, got 4$")),
    (ClauseSpec((2, 1), True, (5, 3)), ("literals", "positive", "legs"),
     ({"legs": (1,)}, InvalidDrawing, r"^one leg position per literal$")),
    (Monotone3SATDrawing(1, (ClauseSpec((1,), True, (1,)),)), ("n_vars", "clauses"),
     ({"n_vars": 0}, InvalidDrawing, r"^need at least one variable$")),
]


@pytest.fixture(params=RECORDS, ids=lambda r: type(r[0]).__name__)
def record(request):
    return request.param


def test_every_record_class_is_listed():
    assert len({type(r) for r, _, _ in RECORDS}) == 14


def test_fields_construct_positionally_and_by_keyword(record):
    obj, fields, _ = record
    values = {f: getattr(obj, f) for f in fields}
    cls = type(obj)
    assert cls(*values.values()) == obj == cls(**values)
    assert obj._replace() == obj and obj._replace() is not obj


def test_equality_hash_and_repr_are_those_of_the_dataclass(record):
    obj, fields, _ = record
    values = {f: getattr(obj, f) for f in fields}
    ref = dataclasses.make_dataclass(type(obj).__name__, fields, frozen=True)(**values)
    assert repr(obj) == repr(ref)
    assert hash(obj) == hash(ref)
    # equal only to a record of the same class with equal fields
    assert obj != ref and obj != tuple(values.values())
    with pytest.raises(TypeError):
        obj < obj  # noqa: B015
    with pytest.raises(TypeError):
        iter(obj)


def test_records_cannot_be_changed(record):
    obj, fields, _ = record
    before = getattr(obj, fields[0])
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert getattr(obj, fields[0]) is before


def test_copies_and_pickles_are_equal(record):
    obj, _, _ = record
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)


def test_replace_validates_again(record):
    obj, fields, refused = record
    if refused is None:
        changed = obj._replace(**{fields[-1]: "changed"})
        assert getattr(changed, fields[-1]) == "changed" and changed != obj
        return
    changes, error, message = refused
    with pytest.raises(error, match=message):
        obj._replace(**changes)
    with pytest.raises(TypeError):
        obj._replace(unknown=1)


def test_replace_keeps_normalising():
    assert DominatingSet((3, 1))._replace(members=[5, 2]).members == (2, 5)
    clause = ClauseSpec((2, 1), True, (5, 3))._replace(literals=(3, 1))
    assert clause.literals == (1, 3) and clause.legs == (5, 3)
    assert LFrame("a", (0, 0), 1, 1)._replace(corner=[2, 3]).corner == Point(2, 3)


def test_chord_ends_stay_out_of_the_record():
    # _ends is derived: no constructor argument, no part of repr or equality
    assert _chords.positions(1) == (1, 3)
    assert "_ends" not in repr(_chords)
    with pytest.raises(TypeError):
        ChordDiagram(2, (1, 2, 1, 2), {})
    with pytest.raises(TypeError):
        _chords._replace(_ends={})
    assert copy.deepcopy(_chords).positions(2) == (2, 4)
