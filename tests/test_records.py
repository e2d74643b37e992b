"""The package's frozen value records: equality, hashing, repr, immutability."""

import pickle

import pytest

from resmat.cyclotomic import EisensteinInt, GaussianInt
from resmat.frequencies import ConfigClass, FrequencyReport
from resmat.matrices import SignMatrix
from resmat.qr import ConfigGraph, Decision

M2 = SignMatrix(2, ((None, 0), (1, None)))
M2_REPR = "SignMatrix(m=2, entries=((None, 0), (1, None)))"

# (class, keyword fields, a different instance, the repr a frozen dataclass
# with these fields prints)
CASES = [
    (GaussianInt, {"a": 1, "b": 2}, GaussianInt(2, 1), "GaussianInt(a=1, b=2)"),
    (EisensteinInt, {"a": 1, "b": 2}, EisensteinInt(1, 3), "EisensteinInt(a=1, b=2)"),
    (
        SignMatrix,
        {"m": 2, "entries": ((None, 0), (1, None))},
        SignMatrix(2, ((None, 0), (0, None))),
        M2_REPR,
    ),
    # Decision as each of its views returns it; the ids name the records it
    # replaced: a block_form member, an m=2 member, an m=4 non-member
    (
        Decision,
        {"verdict": True, "s": 2, "pairwise_ok": True, "diag": (2, 0, 0), "perm": (1, 2, 0)},
        Decision(True, 1, True, (0, 2, 2), (0, 1, 2)),
        "Decision(verdict=True, s=2, pairwise_ok=True, diag=(2, 0, 0), perm=(1, 2, 0))",
    ),
    (
        Decision,
        {"verdict": True, "s": 2, "pairwise_ok": True, "diag": (0, 0, 2), "perm": (0, 1, 2)},
        Decision(False, None, True, (0, 0, -2), None),
        "Decision(verdict=True, s=2, pairwise_ok=True, diag=(0, 0, 2), perm=(0, 1, 2))",
    ),
    (
        Decision,
        {"verdict": False, "s": None, "pairwise_ok": False, "diag": (0, 0), "perm": None},
        Decision(False, None, True, (0, 0), None),
        "Decision(verdict=False, s=None, pairwise_ok=False, diag=(0, 0), perm=None)",
    ),
    (
        ConfigGraph,
        {"n": 2, "red": frozenset({0, 1}), "directed": frozenset({(0, 1)}), "labels": ()},
        ConfigGraph(2, frozenset({0, 1}), frozenset({(1, 0)}), ()),
        "ConfigGraph(n=2, red=frozenset({0, 1}), directed=frozenset({(0, 1)}), labels=())",
    ),
    (
        ConfigClass,
        {"class_id": 1, "representative": M2},
        ConfigClass(2, M2),
        f"ConfigClass(class_id=1, representative={M2_REPR})",
    ),
    (
        FrequencyReport,
        {"counts": (1, 2), "total": 3},
        FrequencyReport((2, 1), 3),
        "FrequencyReport(counts=(1, 2), total=3)",
    ),
]

DECISION_IDS = iter(["BlockDecomposition", "QrDecision", "QuarticDecision"])
each_record = pytest.mark.parametrize(
    "cls, fields, other, text",
    CASES,
    ids=[next(DECISION_IDS) if cls is Decision else cls.__name__ for cls, *_ in CASES],
)


@each_record
def test_keyword_and_positional_construction_agree(cls, fields, other, text):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())


@each_record
def test_equality_and_hash(cls, fields, other, text):
    x, y = cls(**fields), cls(**fields)
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y, other}) == 2
    assert x != other and not x == other
    assert x != object() and x != tuple(fields.values())


@each_record
def test_repr_matches_dataclass(cls, fields, other, text):
    assert repr(cls(**fields)) == text


@each_record
def test_assignment_and_deletion_raise(cls, fields, other, text):
    x = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == cls(**fields)


@each_record
def test_instances_have_no_dict(cls, fields, other, text):
    # a subclass that forgets __slots__ = () gets a __dict__ per instance
    assert not hasattr(cls(**fields), "__dict__")


@each_record
def test_pickle_round_trip(cls, fields, other, text):
    x = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        y = pickle.loads(pickle.dumps(x, protocol))
        assert type(y) is cls and y == x and hash(y) == hash(x)


def test_equal_fields_in_another_class_differ():
    assert GaussianInt(1, 2) != EisensteinInt(1, 2)
    assert not GaussianInt(1, 2) == EisensteinInt(1, 2)
    assert FrequencyReport((0, 1), 1) != ConfigClass((0, 1), 1)
