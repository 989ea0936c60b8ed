"""Record semantics of every result and input type: field-wise equality and
hashing, immutability, pickling through the constructor, and the
constructor's positional, keyword and default forms."""

import pickle
from fractions import Fraction

import pytest

from coalstab import auction, games, reserve, srsg, tables
from coalstab.errors import InputError
from coalstab.records import Record


def zero_utility(i, profile):
    return 0


def never_deviates(members, profile, kind):
    return False


# (class, every field in constructor order with a non-default value, the
# defaults); values are given in normal form so that repr shows them as is
RECORDS = [
    (auction.AuctionInstance,
     {"slot_count": 2, "values": (Fraction(3), Fraction(2), Fraction(1)),
      "ctrs": (Fraction(2), Fraction(1))}, {}),
    (auction.GspOutcome,
     {"ranking": (0, 1, 2), "payments": (Fraction(2), Fraction(1)),
      "utilities": (Fraction(2), Fraction(1), Fraction(0)), "revenue": Fraction(5)}, {}),
    (auction.ShapeSpec,
     {"kind": "linear", "length": 3, "beta": Fraction(2), "high": Fraction(9),
      "low": Fraction(1)}, {"beta": None, "high": None, "low": None}),
    (auction.ReserveWitness,
     {"bidder_rank": 1, "case": "raise", "value": Fraction(5), "bid": Fraction(2)}, {}),
    (games.FiniteGame,
     {"player_count": 2, "action_counts": (2, 3), "utility": zero_utility,
      "deviation_test": never_deviates}, {"deviation_test": None}),
    (games.ScoreVector, {"kind": games.STRICT, "counts": (0, 1), "player_count": 3}, {}),
    (games.Classification,
     {"is_nash": True, "se_level": 1, "sse_level": 0, "is_pareto_efficient": False}, {}),
    (reserve.VcgStarConfig, {"q_reserve": Fraction(1, 2), "v_max": Fraction(16)},
     {"v_max": None}),
    (reserve.ReserveOutcome,
     {"allocation": (0, 1), "payments": (Fraction(3), Fraction(1)),
      "utilities": (Fraction(7), Fraction(2), 0)}, {}),
    (reserve.SseVerdict,
     {"certified": False, "members": (0, 1), "reports": (Fraction(1), Fraction(2)),
      "combos_checked": 7}, {"members": None, "reports": None, "combos_checked": 0}),
    (reserve.LambdaExtension,
     {"extended_ctrs": (Fraction(8), Fraction(3), Fraction(1, 2)),
      "payments": (Fraction(5), Fraction(1))}, {}),
    (srsg.CostFn, {"values": (1, 2, 3)}, {}),
    (srsg.SrsgInstance, {"m": 2, "n": 3, "k": 2, "cost": srsg.CostFn((1, 2, 3))}, {}),
    (tables.ResultTable,
     {"columns": ("a", "b"), "rows": [(1, Fraction(1, 2))], "provenance": {"seed": "1"}},
     {"rows": [], "provenance": {}}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FROZEN = [spec for spec in RECORDS if spec[0] is not tables.ResultTable]
WITH_DEFAULTS = [spec for spec in RECORDS if spec[2]]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
class TestEveryRecord:
    def test_positional_and_keyword_forms_agree(self, cls, fields, defaults):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        assert by_position == by_keyword
        for name, value in fields.items():
            assert getattr(by_position, name) == value

    def test_equal_copies_are_equal_and_other_classes_are_not(self, cls, fields, defaults):
        record = cls(**fields)
        assert record == cls(**fields) and not record != cls(**fields)
        assert record != tuple(fields.values())
        # same fields and values, another class
        twin = type("Twin", (Record,), {"__annotations__": dict(cls.__annotations__)})
        assert record != twin(**fields)
        other, other_fields, _ = RECORDS[(IDS.index(cls.__name__) + 1) % len(RECORDS)]
        assert record != other(**other_fields)

    def test_repr_names_every_field(self, cls, fields, defaults):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__qualname__}({shown})"

    def test_pickle_round_trip(self, cls, fields, defaults):
        record = cls(**fields)
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record

    def test_missing_or_unknown_argument(self, cls, fields, defaults):
        required = [name for name in fields if name not in defaults]
        with pytest.raises(TypeError):
            cls(*[fields[name] for name in required[:-1]])
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)
        with pytest.raises(TypeError):
            cls(fields[required[0]], **{required[0]: fields[required[0]]},
                **{name: fields[name] for name in required[1:]})


@pytest.mark.parametrize("cls, fields, defaults", WITH_DEFAULTS,
                         ids=[spec[0].__name__ for spec in WITH_DEFAULTS])
def test_defaults_fill_the_trailing_fields(cls, fields, defaults):
    record = cls(**{name: value for name, value in fields.items() if name not in defaults})
    for name, default in defaults.items():
        assert getattr(record, name) == default


@pytest.mark.parametrize("cls, fields, defaults", FROZEN,
                         ids=[spec[0].__name__ for spec in FROZEN])
def test_frozen_records_hash_alike_and_refuse_assignment(cls, fields, defaults):
    record = cls(**fields)
    assert hash(record) == hash(cls(**fields))
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, first, fields[first])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, first)
    assert getattr(record, first) == fields[first]


def test_result_table_is_mutable_and_unhashable():
    table = tables.ResultTable(("a",))
    table.append(1)
    table.provenance["seed"] = "2"
    table.columns = ("b",)
    assert table == tables.ResultTable(("b",), [(1,)], {"seed": "2"})
    with pytest.raises(TypeError):
        hash(table)
    # the default rows and provenance are fresh per table, never shared
    first = tables.ResultTable(("a",))
    first.append(1)
    first.provenance["seed"] = "3"
    second = tables.ResultTable(("a",))
    assert (second.rows, second.provenance) == ([], {})


def test_post_init_normalises_and_validates():
    assert reserve.VcgStarConfig("1/2").q_reserve == Fraction(1, 2)
    assert auction.ShapeSpec("beta_convex", 3, beta="3/2").beta == Fraction(3, 2)
    assert games.FiniteGame(2, [2, 3], zero_utility).action_counts == (2, 3)
    with pytest.raises(InputError):
        auction.ShapeSpec("linear", length=1)
    with pytest.raises(InputError):
        reserve.VcgStarConfig(q_reserve=2)
    with pytest.raises(InputError):
        srsg.SrsgInstance(1, 3, 2, srsg.CostFn((1, 2, 3)))


class AnnotationsOffNamespace(type):
    """Keeps a class body's annotations out of the class namespace and
    serves them from `type.__annotations__`, as Python 3.14 does (PEP 649:
    the body compiles an `__annotate__` function instead)."""

    def __new__(mcls, name, bases, namespace):
        namespace["_annotations_elsewhere"] = namespace.pop("__annotations__", {})
        return super().__new__(mcls, name, bases, namespace)

    @property
    def __annotations__(cls):
        return dict(cls.__dict__["_annotations_elsewhere"])


class Point(Record, metaclass=AnnotationsOffNamespace):
    x: int
    y: int = 0


def test_fields_come_from_the_annotations_not_the_namespace():
    assert "__annotations__" not in Point.__dict__
    assert Point._fields == ("x", "y")
    assert Point(1) == Point(x=1, y=0) and repr(Point(1, 2)) == "Point(x=1, y=2)"
    assert pickle.loads(pickle.dumps(Point(3))) == Point(3)
    with pytest.raises(TypeError):
        Point()


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_fields_are_the_annotated_names(cls, fields, defaults):
    assert cls._fields == tuple(cls.__annotations__) == tuple(fields)
