"""Tests for partition objects, their statistics, and the Frobenius bijection."""

from __future__ import annotations

import math
from collections import Counter
from functools import cache

import pytest

from mexcrank import counting, partitions
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
    partition_statistics_table,
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
REFERENCE_LIMIT = 5000


def pentagonal_signs(n):
    """(g, (-1)^(k+1)) for the generalized pentagonal numbers
    g = k(3k -+ 1)/2 <= n, k >= 1."""
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        sign = 1 if k % 2 else -1
        yield k * (3 * k - 1) // 2, sign
        if k * (3 * k + 1) // 2 <= n:
            yield k * (3 * k + 1) // 2, sign
        k += 1


@cache
def reference_quotient(forcing=((0, 1),)):
    """Coefficients 0..REFERENCE_LIMIT of S(q)/(q;q)_inf, S the sum of
    c q^g over the (g, c) pairs, one n at a time by Euler's pentagonal
    theorem: a(n) = [q^n]S + sum_(k>=1) (-1)^(k+1) [a(n - k(3k-1)/2) +
    a(n - k(3k+1)/2)].  The default S = 1 gives p(n)."""
    a = []
    for n in range(REFERENCE_LIMIT + 1):
        acc = sum(c for g, c in forcing if g == n)
        for g, sign in pentagonal_signs(n):
            acc += sign * a[n - g]
        a.append(acc)
    return a


@cache
def reference_distinct():
    """q(0..REFERENCE_LIMIT), one n at a time by Gauss's
    q(n) = e(n) + 2 sum_(k>=1) (-1)^(k+1) q(n - k^2), e(n) the coefficient
    of q^n in (q;q)_inf."""
    q = []
    for n in range(REFERENCE_LIMIT + 1):
        acc = -sum(sign for g, sign in pentagonal_signs(n) if g == n) + (n == 0)
        k = 1
        while k * k <= n:
            acc += 2 * (1 if k % 2 else -1) * q[n - k * k]
            k += 1
        q.append(acc)
    return q


def crank_forcing(m):
    """The numerator of the M(m, n) generating function over (q;q)_inf:
    sum_(k>=1) (-1)^(k+1) [q^(k(k+2|m|-1)/2) - q^(k(k+2|m|+1)/2)], as
    (offset, coefficient) pairs with offsets that never decrease."""
    terms = []
    k = 1
    while k * (k + 2 * abs(m) - 1) // 2 <= REFERENCE_LIMIT:
        sign = 1 if k % 2 else -1
        terms += [(k * (k + 2 * abs(m) - 1) // 2, sign), (k * (k + 2 * abs(m) + 1) // 2, -sign)]
        k += 1
    return tuple(terms)


def _partition_recurrence(limit):
    """The recurrence arguments of partitions._grow for p(n) up to limit:
    the pentagonal offsets added and subtracted, scale 1 and no forcing."""
    signs = list(pentagonal_signs(limit))
    return ([g for g, sign in signs if sign > 0], [g for g, sign in signs if sign < 0], 1, {})


def _distinct_recurrence(limit):
    """The same for q(n): the odd squares added and the even squares
    subtracted, scale 2, and e(n) as the forcing."""
    squares = [k * k for k in range(1, math.isqrt(limit) + 1)]
    return (squares[::2], squares[1::2], 2, {g: -sign for g, sign in pentagonal_signs(limit)})


BLOCK_LIMITS = [*range(2 * partitions._BLOCK + 2), REFERENCE_LIMIT]


class TestPartition:
    def test_basic_construction(self):
        lam = Partition((3, 1))
        assert lam.parts == (3, 1)
        assert lam.weight == 4

    def test_empty_partition(self):
        lam = Partition()
        assert lam.parts == ()
        assert lam.weight == 0

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
        for n in range(31):
            assert [lam.parts for lam in enumerate_partitions(n)] == list(recursive_partitions(n))

    def test_counts_match_recurrence(self):
        for n in range(31):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)

    def test_weights_are_n(self):
        assert all(lam.weight == 7 for lam in enumerate_partitions(7))

    def test_repeat_runs_identical(self):
        first = [lam.parts for lam in enumerate_partitions(8)]
        second = [lam.parts for lam in enumerate_partitions(8)]
        assert first == second


class TestWalker:
    # partitions._without_ones(limit, least), the one walk under both the
    # enumeration (least 2) and the statistics sweep (least 3).

    @staticmethod
    def plain_count(limit, least):
        # The partitions into parts >= least of weight <= limit, by the
        # textbook recurrence over the allowed parts, one part size at a time.
        ways = [1] + [0] * limit
        for part in range(least, limit + 1):
            for n in range(part, limit + 1):
                ways[n] += ways[n - part]
        return sum(ways)

    @pytest.mark.parametrize("least", (2, 3))
    def test_each_partition_once_and_parents_after_extensions(self, least):
        for limit in range(31):
            walked = [(tuple(parts), w) for parts, w in partitions._without_ones(limit, least)]
            seen = [parts for parts, _ in walked]
            assert len(set(seen)) == len(seen) == self.plain_count(limit, least)
            position = {parts: i for i, parts in enumerate(seen)}
            for parts, w in walked:
                assert w == sum(parts) <= limit
                assert all(part >= least for part in parts)
                assert list(parts) == sorted(parts, reverse=True)
                if parts:
                    assert position[parts[:-1]] > position[parts]
            assert seen[-1] == ()


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
        # Both shared tables grow to the end of the block that holds the
        # entry asked for, whether grown one n at a time or in one call.
        reference = {"_PARTITION_TABLE": reference_quotient,
                     "_DISTINCT_TABLE": reference_distinct}[table]
        monkeypatch.setattr(counting, "_ROWS", {})  # rows read the p table
        monkeypatch.setattr(partitions, table, [1])
        stepwise = [count(n) for n in range(601)]
        grown = getattr(partitions, table)
        monkeypatch.setattr(partitions, table, [1])
        assert count(600) == stepwise[600]
        length = (600 | (partitions._BLOCK - 1)) + 1
        assert len(grown) == length
        assert getattr(partitions, table) == grown == reference()[:length]

    def test_shared_table_prefix_matches_partition_count(self, monkeypatch):
        monkeypatch.setattr(counting, "_ROWS", {})
        monkeypatch.setattr(partitions, "_PARTITION_TABLE", [1])
        table = partitions.shared_partition_table(300)
        length = (300 | (partitions._BLOCK - 1)) + 1
        assert len(table) == length
        assert list(table) == [partition_count(n) for n in range(length)]
        assert list(table) == partition_count_table(length - 1)
        assert partitions.shared_partition_table(7) is table
        assert partitions.shared_partition_table(-1) is table

    @pytest.mark.parametrize("table, count", [("_PARTITION_TABLE", partition_count),
                                              ("_DISTINCT_TABLE", distinct_parts_count)])
    def test_grown_one_at_a_time_grows_whole_blocks(self, table, count, monkeypatch):
        grow, calls = partitions._grow, []

        def counted(*args):
            calls.append(args[1])
            grow(*args)

        monkeypatch.setattr(counting, "_ROWS", {})
        monkeypatch.setattr(partitions, table, [1])
        monkeypatch.setattr(partitions, "_grow", counted)
        for n in range(2001):
            count(n)
        assert len(calls) <= -(-2001 // partitions._BLOCK)
        assert len(getattr(partitions, table)) == (2000 | (partitions._BLOCK - 1)) + 1

    def test_hits_do_not_grow(self, monkeypatch):
        monkeypatch.setattr(counting, "_ROWS", {})
        monkeypatch.setattr(partitions, "_PARTITION_TABLE", [1])
        monkeypatch.setattr(partitions, "_DISTINCT_TABLE", [1])
        partitions.shared_partition_table(50)
        distinct_parts_count(50)

        def grow(*args):
            raise AssertionError(f"a hit at {args[1]} reached the growth helper")

        monkeypatch.setattr(partitions, "_grow", grow)
        assert partition_count(50) == partitions.shared_partition_table(50)[50] == 204226
        assert distinct_parts_count(50) == 3658
        assert partitions.shared_partition_table(-1)[0] == partition_count(0) == 1

    @pytest.mark.parametrize("recurrence, reference", [
        (_partition_recurrence, reference_quotient),
        (_distinct_recurrence, reference_distinct),
    ])
    def test_blocked_growth_matches_per_n_reference(self, recurrence, reference):
        expected = reference()
        for limit in BLOCK_LIMITS:
            table = [1]
            partitions._grow(table, limit, *recurrence(limit))
            assert table == expected[:limit + 1], limit

    @pytest.mark.parametrize("recurrence, reference", [
        (_partition_recurrence, reference_quotient),
        (_distinct_recurrence, reference_distinct),
    ])
    def test_blocked_growth_from_unaligned_starts(self, recurrence, reference):
        # A table grown to `first`, mostly inside a block, then grown again.
        expected = reference()
        block = partitions._BLOCK
        for first in (0, 1, 5, block - 2, block - 1, block, block + 1, 2 * block + 3, 700):
            for second in (first, first + 1, first + block - 1, first + block,
                           first + 3 * block + 7, 2100):
                table = [1]
                partitions._grow(table, first, *recurrence(first))
                partitions._grow(table, second, *recurrence(second))
                assert table == expected[:second + 1], (first, second)

    @pytest.mark.parametrize("forcing", [((0, 1),), crank_forcing(0), crank_forcing(12)],
                             ids=["p", "M0", "M12"])
    def test_euler_quotient_matches_per_n_reference(self, forcing):
        if len(forcing) > 1:
            # The M forcing offsets at m = 0 and m = 12 fall on both sides
            # of the block width.
            assert {g < partitions._BLOCK for g, _ in forcing} == {True, False}
        expected = reference_quotient(forcing)
        for limit in BLOCK_LIMITS:
            assert partitions.euler_quotient(forcing, limit) == expected[:limit + 1], limit

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
        for n in range(31):
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

    def test_counts_match_recurrence(self):
        # The p(n) recurrence never walks a partition, so it checks the
        # walker that the sweep and the enumeration share.
        table = partition_statistics_table(40)
        assert [stats.count for stats in table] == [partition_count(n) for n in range(41)]

    def test_record_does_not_depend_on_the_limit(self):
        # Up to limit 40, so that every row past a limit that a fold over
        # the twos reaches is read.
        tables = [partition_statistics_table(limit) for limit in range(41)]
        for n in range(35):
            for limit in range(n, n + 7):
                assert tables[limit][n] == tables[n][n]

    # Every partition of n <= 4, each written as x + 1^k with x free of ones.
    #   n = 0: ()            x = (), k = 0: crank 0, mex 1, odd gap at 0,
    #                        zero-free.
    #   n = 1: (1)           x = (), k = 1: crank -1, mex 2, odd gap at 1,
    #                        symbol (0 | 0).
    #   n = 2: (2)           crank 2, mex 1, gaps at 0 and 2, symbol (1 | 0);
    #          (1,1)         x = (): crank -2, mex 2, gap at 1, (0 | 1).
    #   n = 3: (3)           crank 3, mex 1, gaps at 0 and 3, (2 | 0);
    #          (2,1)         x = (2), k = 1: crank 1 - 1 = 0, mex 3, gaps at
    #                        0 and 2, (1 | 1), zero-free as a single part
    #                        followed by ones;
    #          (1,1,1)       x = (): crank -3, mex 2, gap at 1, (0 | 2).
    #   n = 4: (4)           crank 4, mex 1, gaps at 0 and 4, (3 | 0);
    #          (3,1)         x = (3), k = 1: crank 0, mex 2, gaps at 1 and 3,
    #                        (2 | 1), zero-free;
    #          (2,2)         crank 2, mex 1, gaps at 0 and 2, (1 0 | 1 0);
    #          (2,1,1)       x = (2), k = 2 >= its largest part: crank -2,
    #                        mex 3, gaps at 0 and 2, (1 | 2), zero-free;
    #          (1,1,1,1)     x = (): crank -4, mex 2, gap at 1, (0 | 3).
    SMALL_RECORDS = (
        (1, {0: 1}, {1: 1}, {0: 1}, {}, 1),
        (1, {-1: 1}, {2: 1}, {1: 1}, {0: 1}, 0),
        (2, {2: 1, -2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1}, 0),
        (3, {3: 1, 0: 1, -3: 1}, {1: 1, 2: 1, 3: 1}, {0: 2, 1: 1, 2: 1, 3: 1},
         {0: 1, 1: 1, 2: 1}, 1),
        (5, {4: 1, 2: 1, 0: 1, -2: 1, -4: 1}, {1: 2, 2: 2, 3: 1},
         {0: 3, 1: 2, 2: 2, 3: 1, 4: 1}, {0: 2, 1: 2, 2: 1, 3: 1}, 2),
    )

    @pytest.mark.parametrize("limit", range(7))
    def test_small_records_by_hand(self, limit):
        table = partition_statistics_table(limit)
        assert len(table) == limit + 1
        for stats, expected in zip(table, self.SMALL_RECORDS):
            assert (stats.count, stats.crank, stats.mex, stats.odd_gap_above,
                    stats.top_entry, stats.zero_free) == expected

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
        with pytest.raises(ValueError):
            partition_statistics_table(-1)
