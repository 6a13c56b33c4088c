"""Tests for partition objects, their statistics, and the Frobenius bijection."""

from __future__ import annotations

from collections import Counter

import pytest

from mexcrank import partitions
from mexcrank.partitions import (
    FrobeniusSymbol,
    MalformedSymbolError,
    Partition,
    UndefinedMexError,
    conjugate,
    crank,
    distinct_parts_count,
    durfee_size,
    enumerate_partitions,
    from_frobenius,
    mex,
    mex_above,
    partition_count,
    partition_count_table,
    partition_statistics,
    to_frobenius,
)

def recursive_partitions(remaining, max_part=None):
    """Reference generator: parts tuples in reverse lexicographic order."""
    if max_part is None:
        max_part = remaining
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, max_part), 0, -1):
        for rest in recursive_partitions(remaining - first, first):
            yield (first,) + rest


P_HEAD = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
Q_HEAD = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]


class TestPartition:
    def test_basic_construction(self):
        lam = Partition((3, 1))
        assert lam.parts == (3, 1)
        assert lam.weight == 4
        assert len(lam) == 2

    def test_empty_partition(self):
        lam = Partition()
        assert lam.parts == ()
        assert lam.weight == 0
        assert len(lam) == 0

    def test_of_sorts_parts(self):
        assert Partition.of(1, 3, 2).parts == (3, 2, 1)
        assert Partition.of() == Partition()

    def test_increasing_parts_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_nonpositive_parts_rejected(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_value_semantics(self):
        assert Partition((2, 1)) == Partition((2, 1))
        assert Partition((2, 1)) != Partition((3,))
        assert len({Partition((2, 1)), Partition((2, 1))}) == 1

    def test_repr_round_trips(self):
        lam = Partition((4, 2, 1))
        assert eval(repr(lam)) == lam


class TestEnumeration:
    def test_zero_yields_only_empty(self):
        assert list(enumerate_partitions(0)) == [Partition()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_partitions(-1))

    def test_order_for_four(self):
        assert [lam.parts for lam in enumerate_partitions(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_reverse_lexicographic_and_unique(self):
        for n in range(9):
            seen = [lam.parts for lam in enumerate_partitions(n)]
            assert seen == sorted(seen, reverse=True)
            assert len(seen) == len(set(seen))

    def test_order_matches_recursive_reference(self):
        for n in range(26):
            assert [lam.parts for lam in enumerate_partitions(n)] == list(recursive_partitions(n))

    def test_counts_match_recurrence(self):
        for n in range(21):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_weights_are_n(self):
        assert all(lam.weight == 7 for lam in enumerate_partitions(7))

    def test_repeat_runs_identical(self):
        first = [lam.parts for lam in enumerate_partitions(8)]
        second = [lam.parts for lam in enumerate_partitions(8)]
        assert first == second


class TestCountingTables:
    def test_partition_count_head(self):
        assert [partition_count(n) for n in range(len(P_HEAD))] == P_HEAD

    def test_partition_count_negative(self):
        assert partition_count(-3) == 0

    def test_partition_count_known_point(self):
        assert partition_count(100) == 190569292

    def test_fresh_table_matches_shared_cache(self):
        table = partition_count_table(80)
        assert len(table) == 81
        assert table == [partition_count(n) for n in range(81)]

    def test_distinct_head(self):
        assert [distinct_parts_count(n) for n in range(len(Q_HEAD))] == Q_HEAD

    def test_distinct_negative(self):
        assert distinct_parts_count(-1) == 0

    @pytest.mark.parametrize("table, count", [("_PARTITION_TABLE", partition_count),
                                              ("_DISTINCT_TABLE", distinct_parts_count)])
    def test_grown_one_at_a_time_matches_one_call(self, table, count, monkeypatch):
        monkeypatch.setattr(partitions, table, [1])
        stepwise = [count(n) for n in range(601)]
        monkeypatch.setattr(partitions, table, [1])
        assert count(600) == stepwise[600]
        assert getattr(partitions, table) == stepwise

    def test_distinct_matches_enumeration(self):
        for n in range(26):
            by_hand = sum(
                1 for lam in enumerate_partitions(n)
                if len(set(lam.parts)) == len(lam.parts)
            )
            assert distinct_parts_count(n) == by_hand


class TestMex:
    def test_examples(self):
        assert mex(Partition((3, 2))) == 1
        assert mex(Partition((3, 1, 1))) == 2
        assert mex(Partition((2, 2, 1))) == 3
        assert mex(Partition()) == 1

    def test_mex_definition_holds_everywhere(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                m = mex(lam)
                present = set(lam.parts)
                assert m not in present
                assert all(i in present for i in range(1, m))

    def test_mex_above_examples(self):
        assert mex_above(Partition((2, 1, 1)), 1) == 3
        assert mex_above(Partition((3, 1)), 1) == 2

    def test_mex_above_zero_is_mex(self):
        for n in range(11):
            for lam in enumerate_partitions(n):
                assert mex_above(lam, 0) == mex(lam)

    def test_mex_above_undefined_when_j_missing(self):
        with pytest.raises(UndefinedMexError):
            mex_above(Partition((3, 2)), 1)

    def test_mex_above_negative_j_rejected(self):
        with pytest.raises(ValueError):
            mex_above(Partition((1,)), -1)


class TestCrank:
    def test_examples(self):
        assert crank(Partition((4,))) == 4
        assert crank(Partition((3, 1))) == 0
        assert crank(Partition((2, 1, 1))) == -2
        assert crank(Partition()) == 0
        assert crank(Partition((1,))) == -1

    def test_histogram_symmetric_from_two(self):
        for n in range(2, 21):
            hist = Counter(crank(lam) for lam in enumerate_partitions(n))
            for m, count in hist.items():
                assert hist[-m] == count

    def test_crank_of_four(self):
        hist = Counter(crank(lam) for lam in enumerate_partitions(4))
        assert hist == {4: 1, 2: 1, 0: 1, -2: 1, -4: 1}


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
        assert conjugate(Partition()) == Partition()

    def test_involution(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert conjugate(conjugate(lam)) == lam

    def test_preserves_weight(self):
        for lam in enumerate_partitions(9):
            assert conjugate(lam).weight == 9


class TestFrobenius:
    def test_examples(self):
        assert to_frobenius(Partition((3, 1))) == FrobeniusSymbol((2,), (1,))
        assert to_frobenius(Partition((2, 2))) == FrobeniusSymbol((1, 0), (1, 0))
        assert to_frobenius(Partition()) == FrobeniusSymbol()
        assert from_frobenius(FrobeniusSymbol((2,), (1,))) == Partition((3, 1))
        assert from_frobenius(FrobeniusSymbol()) == Partition()

    def test_durfee_size(self):
        assert durfee_size(Partition()) == 0
        assert durfee_size(Partition((1,))) == 1
        assert durfee_size(Partition((3, 1))) == 1
        assert durfee_size(Partition((2, 2))) == 2
        assert durfee_size(Partition((4, 4, 4, 4))) == 4

    def test_round_trip_and_weight(self):
        for n in range(16):
            for lam in enumerate_partitions(n):
                symbol = to_frobenius(lam)
                assert symbol.weight == n
                assert symbol.size == durfee_size(lam)
                assert from_frobenius(symbol) == lam

    def test_symbols_distinct_per_weight(self):
        # The map is a bijection, so symbols of one weight never collide.
        for n in range(13):
            symbols = [to_frobenius(lam) for lam in enumerate_partitions(n)]
            assert len(set(symbols)) == len(symbols)

    def test_cost_follows_length_not_largest_part(self):
        # A full conjugate of (10**9,) would hold 10**9 parts.
        assert to_frobenius(Partition((10**9,))) == FrobeniusSymbol((10**9 - 1,), (0,))
        assert to_frobenius(Partition((10**9, 10**9 - 7))) == FrobeniusSymbol(
            (10**9 - 1, 10**9 - 9), (1, 0))

    def test_conjugate_swaps_rows(self):
        for lam in enumerate_partitions(10):
            symbol = to_frobenius(lam)
            flipped = to_frobenius(conjugate(lam))
            assert flipped.top == symbol.bottom
            assert flipped.bottom == symbol.top

    def test_malformed_rows_rejected(self):
        with pytest.raises(MalformedSymbolError):
            FrobeniusSymbol((1,), ())
        with pytest.raises(MalformedSymbolError):
            FrobeniusSymbol((1, 1), (2, 0))
        with pytest.raises(MalformedSymbolError):
            FrobeniusSymbol((2, 0), (0, -1))


class TestPartitionStatistics:
    def test_fields_match_the_definitions(self):
        for n in range(26):
            stats = partition_statistics(n)
            lams = list(enumerate_partitions(n))
            symbols = [to_frobenius(lam) for lam in lams]
            assert stats.count == len(lams)
            assert stats.crank == Counter(crank(lam) for lam in lams)
            assert stats.mex == Counter(mex(lam) for lam in lams)
            odd_gap = Counter(
                j
                for lam in lams
                for j in {0, *lam.parts}
                if (mex_above(lam, j) - j) % 2
            )
            assert stats.odd_gap_above == odd_gap
            assert stats.top_entry == Counter(t for symbol in symbols for t in symbol.top)
            assert stats.zero_free == sum(
                1 for symbol in symbols if 0 not in symbol.top and 0 not in symbol.bottom)

    def test_small_examples(self):
        stats = partition_statistics(4)
        assert stats.crank == {4: 1, 2: 1, 0: 1, -2: 1, -4: 1}
        assert stats.mex == {1: 2, 2: 2, 3: 1}
        assert partition_statistics(0).crank == {0: 1}
        assert partition_statistics(1).crank == {-1: 1}

    def test_mappings_are_read_only(self):
        with pytest.raises(TypeError):
            partition_statistics(5).crank[0] = 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_statistics(-1)
