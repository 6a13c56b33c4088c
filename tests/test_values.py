"""The seven value classes: equality, hashing, repr, immutability, validation
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
    TruncatedSeries,
    VerificationReport,
    checks_by_id,
    partition_statistics,
    perturbed,
    qseries,
    run_check,
)
from mexcrank.verify import CheckRecord, Row


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


class TestTruncatedSeries:
    def test_equality_and_hash(self):
        series = TruncatedSeries((1, -1), 3)
        assert series == TruncatedSeries(coeffs=[1, -1, 0, 0])
        assert series != TruncatedSeries((1, -1), 4)
        assert series != (1, -1, 0, 0)
        assert hash(series) == hash(((1, -1, 0, 0),))
        assert {series: 1}[TruncatedSeries((1, -1, 0, 0))] == 1

    def test_immutable(self):
        series = TruncatedSeries((5, 6, 7))
        assert_frozen(series, "coeffs")
        with pytest.raises(AttributeError):
            series._coeffs = (9,)
        assert series.coeffs == (5, 6, 7)

    def test_registry_series_are_immutable(self, monkeypatch):
        # The registry shares each series between checks through its memo;
        # qseries.gf is read at call time, so this wrapper sees every build.
        built = []
        gf = qseries.gf

        def recording_gf(kind, order):
            built.append(gf(kind, order))
            return built[-1]

        monkeypatch.setattr(qseries, "gf", recording_gf)
        check = checks_by_id(12, budget=6)["THM_FROB_J"]
        report = run_check(check)
        assert len(built) == 9
        for series in built:
            assert_frozen(series, "coeffs")
        assert run_check(check) == report and len(built) == 9


def _leg():
    return Leg(None, None, (None,), "n", (range(1, 2),), lambda value, ns: [1], lambda value, ns: [1])


class TestIdentityCheck:
    def test_value_equality(self):
        legs = (_leg(),)
        check = IdentityCheck("ID", "a claim", legs)
        twin = IdentityCheck(check_id="ID", statement="a claim", legs=legs)
        assert check == twin and hash(check) == hash(twin)
        assert len({check, twin}) == 1
        assert check != IdentityCheck("ID", "another claim", legs)
        assert check != IdentityCheck("ID", "a claim", (_leg(),))  # other callables
        assert check != ("ID", "a claim", legs)
        assert copy.copy(check) == check and copy.copy(check) is not check
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


def _rows(lhs=1, rhs=2):
    # One row of one point, n = 1, with no side and no parameter.
    return (Row({}, "n", range(1, 2), (lhs,), (rhs,)),)


class TestVerificationReport:
    def test_value_equality(self):
        rows = _rows()
        report = VerificationReport("ID", "a claim", rows)
        twin = VerificationReport(check_id="ID", statement="a claim", rows=_rows())
        assert report == twin
        assert report != VerificationReport("ID", "a claim", _rows(lhs=2))
        assert report != VerificationReport("ID", "a claim", rows[:0])
        with pytest.raises(TypeError):
            hash(report)  # its rows hold dicts, as PartitionStatistics does
        assert (report.total, report.failed, report.passed) == (1, 1, False)
        assert report.first_counterexample == CheckRecord({"n": 1}, 1, 2)

    def test_two_runs_of_one_check_are_equal(self):
        check = checks_by_id(12, budget=6)["THM_JCRANK"]
        first, second = run_check(check), run_check(check)
        assert first == second and first is not second

    def test_repr(self):
        assert repr(VerificationReport("ID", "s", _rows(1, 1))) == (
            "VerificationReport(check_id='ID', statement='s', "
            "rows=(Row(head={}, key='n', ns=range(1, 2), lhs=(1,), rhs=(1,)),))")

    @pytest.mark.parametrize("field", ["check_id", "statement", "rows", "records"])
    def test_immutable(self, field):
        assert_frozen(VerificationReport("ID", "s", ()), field)

    def test_records_are_made_from_the_rows(self):
        rows = (Row({"side": "a", "m": 3}, "k", range(2, 4), [5, 6], (5, 7)),
                Row({}, "n", range(0), (), ()))
        report = VerificationReport("ID", "s", iter(rows))
        assert report.rows == rows
        assert report.records == (CheckRecord({"side": "a", "m": 3, "k": 2}, 5, 5),
                                  CheckRecord({"side": "a", "m": 3, "k": 3}, 6, 7))
        assert (report.total, report.failed) == (2, 1)
        assert report.first_counterexample == report.records[1]

    def test_counts_agree_with_the_records(self):
        check = checks_by_id(12, budget=6)["THM_FROB_J"]
        for report in (run_check(check), run_check(perturbed(check, {"j": 2}))):
            records = report.records
            assert report.total == len(records)
            assert report.failed == sum(not r.passed for r in records)
            assert report.first_counterexample == next(
                (r for r in records if not r.passed), None)
            with pytest.raises(TypeError):
                hash(report)

    def test_run_check_builds_one(self):
        report = run_check(checks_by_id(2)["EWELL_ODD"])
        assert type(report) is VerificationReport
        assert report.passed and report.total == len(report.records) == 3


@pytest.mark.parametrize("value", [
    Partition((3, 1)), Partition(), FrobeniusSymbol((1,), (0,)), GfKind("crank_m", 3),
    GfKind("distinct"), TruncatedSeries((1, -1, 0, 7)),
])
def test_copies_and_pickles_are_equal(value):
    assert copy.copy(value) == value == copy.deepcopy(value)
    assert pickle.loads(pickle.dumps(value)) == value


def test_report_pickles_with_its_fields():
    check = checks_by_id(12, budget=6)["THM_FROB_J"]
    for report in (VerificationReport("ID", "s", _rows()), run_check(check),
                   run_check(perturbed(check, {"j": 2}))):
        for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                      copy.deepcopy(report)):
            assert clone == report and type(clone.rows) is tuple
            assert (clone.check_id, clone.statement, clone.rows) == (
                report.check_id, report.statement, report.rows)
            assert clone.records == report.records
            assert clone.first_counterexample == report.first_counterexample
            assert clone.to_jsonable() == report.to_jsonable()
