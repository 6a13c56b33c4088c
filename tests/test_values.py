"""The six value classes: equality, hashing, repr, immutability, validation
and keyword construction, pinned so that a change of how they are declared
keeps how they behave."""

from __future__ import annotations

import copy
import pickle
from types import MappingProxyType

import pytest

from mexcrank import (
    FrobeniusSymbol,
    GfKind,
    IdentityCheck,
    InvalidParamsError,
    Leg,
    MalformedSymbolError,
    Partition,
    PartitionStatistics,
    VerificationReport,
    checks_by_id,
    partition_statistics,
    run_check,
)
from mexcrank.verify import CheckRecord


def assert_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


class TestPartition:
    def test_equality_and_hash(self):
        lam = Partition((3, 1))
        assert lam == Partition.of(1, 3) == Partition(parts=[3, 1])
        assert lam != Partition((3,))
        assert hash(lam) == hash(Partition.of(1, 3)) == hash(((3, 1), 4))
        assert len({lam, Partition.of(1, 3), Partition((2, 2))}) == 2

    def test_not_equal_to_other_types(self):
        lam = Partition((3, 1))
        assert lam != (3, 1)
        assert (3, 1) != lam
        assert lam != FrobeniusSymbol((2,), (1,))
        assert Partition() != ()

    def test_repr_round_trips(self):
        for lam in (Partition(), Partition((1,)), Partition((3, 1)), Partition.of(2, 5, 2)):
            assert eval(repr(lam), {"Partition": Partition}) == lam
        assert repr(Partition((3, 1))) == "Partition((3, 1))"
        assert repr(Partition()) == "Partition(())"

    def test_parts_and_weight(self):
        lam = Partition([4, 2, 2])
        assert lam.parts == (4, 2, 2) and type(lam.parts) is tuple
        assert lam.weight == 8
        assert Partition().parts == () and Partition().weight == 0

    def test_weight_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Partition((1,), 1)
        with pytest.raises(TypeError):
            Partition(parts=(1,), weight=1)

    @pytest.mark.parametrize("field", ["parts", "weight"])
    def test_immutable(self, field):
        assert_frozen(Partition((2, 1)), field)

    def test_validation(self):
        with pytest.raises(ValueError, match="parts must be positive, got 0"):
            Partition((2, 0))
        with pytest.raises(ValueError, match=r"parts must be nonincreasing, got \(1, 2\)"):
            Partition((1, 2))


class TestFrobeniusSymbol:
    def test_equality_and_hash(self):
        symbol = FrobeniusSymbol((2, 0), (1, 0))
        assert symbol == FrobeniusSymbol(top=[2, 0], bottom=[1, 0])
        assert symbol != FrobeniusSymbol((2, 0), (2, 0))
        assert symbol != ((2, 0), (1, 0))
        assert hash(symbol) == hash(((2, 0), (1, 0)))
        assert FrobeniusSymbol() == FrobeniusSymbol((), ())

    def test_repr(self):
        assert repr(FrobeniusSymbol((1,), (0,))) == "FrobeniusSymbol(top=(1,), bottom=(0,))"
        assert repr(FrobeniusSymbol()) == "FrobeniusSymbol(top=(), bottom=())"

    def test_rows_size_weight(self):
        symbol = FrobeniusSymbol([3, 1], [2, 0])
        assert (symbol.top, symbol.bottom) == ((3, 1), (2, 0))
        assert type(symbol.top) is type(symbol.bottom) is tuple
        assert (symbol.size, symbol.weight) == (2, 8)

    @pytest.mark.parametrize("field", ["top", "bottom"])
    def test_immutable(self, field):
        assert_frozen(FrobeniusSymbol((1,), (0,)), field)

    @pytest.mark.parametrize("top, bottom, message", [
        ((1,), (), "rows must have equal length, got 1 and 0"),
        ((1, 1), (1, 0), r"rows must strictly decrease, got \(1, 1\)"),
        ((0, 1), (1, 0), r"rows must strictly decrease, got \(0, 1\)"),
        ((1,), (-1,), r"entries must be nonnegative, got \(-1,\)"),
    ])
    def test_validation(self, top, bottom, message):
        with pytest.raises(MalformedSymbolError, match=message):
            FrobeniusSymbol(top, bottom)


class TestPartitionStatistics:
    def test_fields(self):
        stats = partition_statistics(3)
        assert (stats.count, stats.zero_free) == (3, 1)
        assert dict(stats.crank) == {-3: 1, 0: 1, 3: 1}
        assert isinstance(stats.mex, MappingProxyType)

    def test_keyword_construction_and_equality(self):
        stats = partition_statistics(3)
        fields = ("count", "crank", "mex", "odd_gap_above", "top_entry", "zero_free")
        copy = PartitionStatistics(**{name: getattr(stats, name) for name in fields})
        assert copy == stats and copy is not stats
        assert PartitionStatistics(*(getattr(stats, name) for name in fields)) == stats
        assert stats != partition_statistics(4)
        assert stats != tuple(getattr(stats, name) for name in fields)

    def test_repr(self):
        assert repr(partition_statistics(2)) == (
            "PartitionStatistics(count=2, crank=mappingproxy({-2: 1, 2: 1}), "
            "mex=mappingproxy({1: 1, 2: 1}), odd_gap_above=mappingproxy({0: 1, 1: 1, 2: 1}), "
            "top_entry=mappingproxy({0: 1, 1: 1}), zero_free=0)")

    def test_hash_follows_the_unhashable_mappings(self):
        with pytest.raises(TypeError):
            hash(partition_statistics(2))

    @pytest.mark.parametrize("field", ["count", "crank", "zero_free"])
    def test_immutable(self, field):
        assert_frozen(partition_statistics(3), field)


class TestGfKind:
    def test_equality_and_hash(self):
        kind = GfKind("crank_m", 3)
        assert kind == GfKind(tag="crank_m", param=3)
        assert kind != GfKind("crank_m", -3)
        assert kind != ("crank_m", 3)
        assert hash(kind) == hash(("crank_m", 3))
        assert GfKind("euler_inv") == GfKind("euler_inv", None)
        assert {kind: 1}[GfKind("crank_m", 3)] == 1

    def test_memo_key(self):
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def tag_of(kind):
            return kind.tag

        tag_of(GfKind("crank_m", 3))
        tag_of(GfKind("crank_m", 3))
        assert tag_of.cache_info().hits == 1

    def test_repr(self):
        assert repr(GfKind("crank_m", 3)) == "GfKind(tag='crank_m', param=3)"
        assert repr(GfKind("distinct")) == "GfKind(tag='distinct', param=None)"

    @pytest.mark.parametrize("field", ["tag", "param"])
    def test_immutable(self, field):
        assert_frozen(GfKind("euler_inv"), field)

    @pytest.mark.parametrize("args, message", [
        (("nope",), "unknown generating-function tag 'nope'"),
        (("euler_inv", 1), "euler_inv takes no parameter"),
        (("crank_m",), "crank_m requires parameter m"),
        (("durfee_rect_b", -1), "durfee_rect_b requires b >= 0, got -1"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(InvalidParamsError, match=message):
            GfKind(*args)


def _leg():
    return Leg(None, lambda: [{"n": 1}], lambda point: 1, lambda point: 1)


class TestIdentityCheck:
    def test_identity_equality(self):
        legs = (_leg(),)
        check = IdentityCheck("ID", "a claim", legs)
        twin = IdentityCheck(check_id="ID", statement="a claim", legs=legs)
        assert check == check and check != twin
        assert hash(check) == object.__hash__(check)
        assert len({check, twin}) == 2
        assert (check.check_id, check.statement, check.legs) == ("ID", "a claim", legs)

    def test_repr(self):
        legs = (_leg(),)
        assert repr(IdentityCheck("ID", "a claim", legs)) == (
            f"IdentityCheck(check_id='ID', statement='a claim', legs={legs!r})")

    @pytest.mark.parametrize("field", ["check_id", "statement", "legs"])
    def test_immutable(self, field):
        assert_frozen(IdentityCheck("ID", "a claim", (_leg(),)), field)

    def test_grid(self):
        check = IdentityCheck("ID", "a claim", (_leg(), _leg()._replace(side="b")))
        assert check.grid == ({"n": 1}, {"side": "b", "n": 1})


class TestVerificationReport:
    def test_identity_equality(self):
        records = (CheckRecord({"n": 1}, 1, 2),)
        report = VerificationReport("ID", "a claim", records)
        twin = VerificationReport(check_id="ID", statement="a claim", records=records)
        assert report == report and report != twin
        assert hash(report) == object.__hash__(report)
        assert len({report, twin}) == 2
        assert not report.passed and report.first_counterexample == records[0]

    def test_repr(self):
        records = (CheckRecord({"n": 1}, 1, 1),)
        assert repr(VerificationReport("ID", "s", records)) == (
            "VerificationReport(check_id='ID', statement='s', "
            "records=(CheckRecord(params={'n': 1}, lhs=1, rhs=1),))")

    @pytest.mark.parametrize("field", ["check_id", "statement", "records"])
    def test_immutable(self, field):
        assert_frozen(VerificationReport("ID", "s", ()), field)

    def test_run_check_builds_one(self):
        report = run_check(checks_by_id(2)["EWELL_ODD"])
        assert type(report) is VerificationReport
        assert report.passed and len(report.records) == 3


@pytest.mark.parametrize("value", [
    Partition((3, 1)), Partition(), FrobeniusSymbol((1,), (0,)), GfKind("crank_m", 3),
    GfKind("distinct"),
])
def test_copies_and_pickles_are_equal(value):
    assert copy.copy(value) == value == copy.deepcopy(value)
    assert pickle.loads(pickle.dumps(value)) == value


def test_report_pickles_with_its_fields():
    report = VerificationReport("ID", "s", (CheckRecord({"n": 1}, 1, 2),))
    clone = pickle.loads(pickle.dumps(report))
    assert (clone.check_id, clone.statement, clone.records) == (
        report.check_id, report.statement, report.records)
    assert clone.first_counterexample == report.records[0]
