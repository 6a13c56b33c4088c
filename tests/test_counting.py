"""Tests for the closed-form counting functions."""

from __future__ import annotations

from functools import partial
from itertools import takewhile

import pytest

from mexcrank import counting, partitions
from mexcrank.counting import (
    STREAMS,
    crank_count,
    crank_geq_count,
    crank_zero_expansion,
    even_mex_count,
    ewell_even_sum,
    ewell_odd_sum,
    is_double_pentagonal,
    mex_1mod4_count,
    mex_3mod4_count,
    mex_count,
    odd_mex_count,
    table_row,
    triangular,
)
from mexcrank.partitions import distinct_parts_count, partition_count


class TestTriangulars:
    def test_values(self):
        assert [triangular(k) for k in range(7)] == [0, 1, 3, 6, 10, 15, 21]
        with pytest.raises(ValueError):
            triangular(-1)


class TestCrankCount:
    def test_known_values_at_four(self):
        assert crank_count(0, 4) == 1
        assert crank_count(1, 4) == 0
        assert crank_count(2, 4) == 1
        assert crank_count(4, 4) == 1
        assert crank_count(3, 4) == 0

    def test_sign_symmetry(self):
        for n in range(41):
            for m in range(9):
                assert crank_count(-m, n) == crank_count(m, n)

    def test_n_one_values(self):
        # The crank series assigns n = 1 the counts -1, 1, 1 at m = 0, 1, -1.
        assert crank_count(0, 1) == -1
        assert crank_count(1, 1) == 1
        assert crank_count(-1, 1) == 1

    def test_negative_n_is_zero(self):
        assert crank_count(0, -5) == 0

    def test_sums_to_partition_count(self):
        for n in range(61):
            total = sum(crank_count(m, n) for m in range(-n - 1, n + 2))
            assert total == partition_count(n)


class TestCrankGeqCount:
    def test_known_values(self):
        assert crank_geq_count(0, 4) == 3
        assert crank_geq_count(1, 4) == 2
        assert crank_geq_count(1, 1) == 1

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            crank_geq_count(-1, 4)

    def test_negative_n_is_zero(self):
        assert crank_geq_count(0, -2) == 0

    def test_telescopes_to_crank_count(self):
        for n in range(101):
            for j in range(13):
                assert crank_geq_count(j, n) - crank_geq_count(j + 1, n) == crank_count(j, n)

    def test_matches_odd_even_mex_split(self):
        # To n = 400: verify reads o(n) and e(n) only in part (parity, the
        # sign of o - e), so these are the full checks of both streams.
        for n in range(401):
            assert crank_geq_count(0, n) == odd_mex_count(n)
            assert crank_geq_count(1, n) == even_mex_count(n)


class TestMexCount:
    def test_examples(self):
        assert mex_count(1, 4) == 2
        assert mex_count(3, 3) == 1
        assert mex_count(5, 4) == 0

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            mex_count(0, 4)

    def test_sums_to_partition_count(self):
        for n in range(101):
            total = 0
            m = 1
            while triangular(m - 1) <= n:
                total += mex_count(m, n)
                m += 1
            assert total == partition_count(n)

    def test_residue_splits(self):
        for n in range(401):
            assert odd_mex_count(n) + even_mex_count(n) == partition_count(n)
            assert mex_1mod4_count(n) + mex_3mod4_count(n) == odd_mex_count(n)

    def test_head_values(self):
        assert [odd_mex_count(n) for n in range(5)] == [1, 0, 1, 2, 3]
        assert [even_mex_count(n) for n in range(5)] == [0, 1, 1, 1, 2]
        assert [mex_1mod4_count(n) for n in range(5)] == [1, 0, 1, 1, 2]
        assert [mex_3mod4_count(n) for n in range(5)] == [0, 0, 0, 1, 1]


class TestCrankZeroExpansion:
    def test_head_values(self):
        assert [crank_zero_expansion(n) for n in range(6)] == [1, -1, 0, 1, 1, 1]

    def test_matches_crank_count(self):
        for n in range(201):
            assert crank_zero_expansion(n) == crank_count(0, n)

    def test_negative_n_is_zero(self):
        assert crank_zero_expansion(-1) == 0


class TestEwellSums:
    def test_even_examples(self):
        assert ewell_even_sum(0) == 1
        assert ewell_even_sum(2) == 1
        assert ewell_even_sum(5) == 3

    def test_even_equals_distinct_counts(self):
        for k in range(101):
            assert ewell_even_sum(k) == distinct_parts_count(k)

    def test_odd_vanishes(self):
        assert ewell_odd_sum(0) == 0
        assert ewell_odd_sum(1) == 0
        assert ewell_odd_sum(10) == 0
        for k in range(101):
            assert ewell_odd_sum(k) == 0


class TestDoublePentagonal:
    def test_head_values(self):
        hits = [n for n in range(1, 60) if is_double_pentagonal(n)]
        assert hits == [2, 4, 10, 14, 24, 30, 44, 52]

    def test_closed_form_agreement(self):
        expected = set()
        for j in range(1, 40):
            expected.add(j * (3 * j - 1))
            expected.add(j * (3 * j + 1))
        for n in range(1, 2001):
            assert is_double_pentagonal(n) == (n in expected)

    def test_large_point(self):
        assert is_double_pentagonal(100 * 301)
        assert not is_double_pentagonal(100 * 301 + 1)

    def test_negative_is_false(self):
        assert not is_double_pentagonal(-2)


@pytest.mark.parametrize("count", [
    lambda n: mex_count(1, n), lambda n: mex_count(5, n), odd_mex_count, even_mex_count,
    mex_1mod4_count, mex_3mod4_count, ewell_even_sum, ewell_odd_sum,
], ids=["mex_1", "mex_5", "odd_mex", "even_mex", "mex_1mod4", "mex_3mod4",
        "ewell_even", "ewell_odd"])
def test_negative_n_is_zero(count):
    for n in (-1, -2, -3, -6, -50):
        assert count(n) == 0


# The per-n function of each table row, called as (param, n).
PER_N = {
    "p": lambda _, n: partition_count(n),
    "M": crank_count,
    "crank_geq": crank_geq_count,
    "x_mex": mex_count,
    "o": lambda _, n: odd_mex_count(n),
    "e": lambda _, n: even_mex_count(n),
    "o1": lambda _, n: mex_1mod4_count(n),
    "o3": lambda _, n: mex_3mod4_count(n),
}


def test_streams_cover_every_table_fn_but_q():
    assert set(STREAMS) == set(PER_N)


@pytest.mark.parametrize("fn, param, bound", [("crank_geq", -1, "j >= 0"), ("x_mex", 0, "m >= 1")],
                         ids=["crank_geq", "x_mex"])
def test_table_row_checks_param_like_per_n(fn, param, bound):
    # Below its least value a parameter fails the row and the per-n function
    # alike, with an error that names the parameter and that value.
    with pytest.raises(ValueError, match=bound):
        table_row(fn, param, 8)
    with pytest.raises(ValueError, match=bound):
        PER_N[fn](param, 8)


ROWS = [
    *((fn, 0) for fn in ("p", "o", "e", "o1", "o3")),
    *(("M", m) for m in range(-3, 13)),
    *(("crank_geq", j) for j in range(6)),
    *(("x_mex", m) for m in range(1, 7)),
]


@pytest.mark.parametrize("fn, param", ROWS)
def test_table_row_matches_per_n(fn, param):
    assert list(table_row(fn, param, 300)) == [PER_N[fn](param, n) for n in range(301)]


@pytest.mark.parametrize("fn, param", ROWS)
def test_table_row_across_block_boundaries(fn, param):
    # The recurrence grows a row a block of 128 at a time.  Rows end inside
    # the first block, where every offset read is below the block width, and
    # one entry into the ninth block.
    for n_max in (0, 1, 2, 3, 4, 63, 64, 65, 1025):
        expected = [PER_N[fn](param, n) for n in range(n_max + 1)]
        assert table_row(fn, param, n_max) == expected, n_max


def test_table_row_past_two_default_blocks():
    # 1025 = 8 * 128 + 1: one entry into the ninth block of the recurrence.
    n_max = 1025
    assert table_row("M", 3, n_max) == [crank_count(3, n) for n in range(n_max + 1)]


def test_table_row_leaves_the_shared_p_table_alone(monkeypatch):
    expected = {(fn, param): [PER_N[fn](param, n) for n in range(501)]
                for fn, param in (("p", 0), ("M", 0), ("M", 3), ("crank_geq", 2), ("o", 0))}

    def forbidden(limit):
        raise AssertionError(f"table_row read the shared p table to {limit}")

    monkeypatch.setattr(counting, "_ROWS", {})
    monkeypatch.setattr(counting, "shared_partition_table", forbidden)
    monkeypatch.setattr(partitions, "shared_partition_table", forbidden)
    for (fn, param), row in expected.items():
        assert table_row(fn, param, 500) == row


@pytest.fixture
def fresh_rows(monkeypatch):
    rows = {}
    monkeypatch.setattr(counting, "_ROWS", rows)
    return rows


# Each row key with the per-n function that reads its entry n.  No public
# function reads the p row, so _count stands in for one.
ROW_READERS = {
    ("p", None): partial(counting._count, "p", None),
    **{("M", m): partial(crank_count, m) for m in range(13)},
    **{("crank_geq", j): partial(crank_geq_count, j) for j in range(6)},
    **{("x_mex", m): partial(mex_count, m) for m in range(1, 7)},
    ("o", None): odd_mex_count,
    ("e", None): even_mex_count,
    ("o1", None): mex_1mod4_count,
    ("o3", None): mex_3mod4_count,
    counting._CRANK_ZERO[0]: crank_zero_expansion,
    counting._EWELL[0]: lambda n: (ewell_odd_sum if n % 2 else ewell_even_sum)(n // 2),
}


def plain_sum(key, n):
    # sum c p(n - g) over the key's terms with g <= n, one term at a time.
    fn, param = key
    private = dict((counting._CRANK_ZERO, counting._EWELL))
    stream = STREAMS[fn][2] if fn in STREAMS else private[key]
    terms = takewhile(lambda term: term[0] <= n, stream(param))
    return sum(c * partition_count(n - g) for g, c in terms)


def test_row_readers_cover_every_stream():
    assert {fn for fn, _ in ROW_READERS} == {*STREAMS, "crank_zero", "ewell"}


@pytest.mark.parametrize("key", ROW_READERS, ids=str)
def test_row_matches_plain_sum(key, fresh_rows):
    # n = 0..700 crosses the block edges 127/128, 255/256, 383/384 and on.
    expected = [plain_sum(key, n) for n in range(701)]
    assert [ROW_READERS[key](n) for n in range(701)] == expected
    assert list(fresh_rows) == [key]
    assert len(fresh_rows[key]) == (700 | (partitions._BLOCK - 1)) + 1


@pytest.mark.parametrize("key", ROW_READERS, ids=str)
def test_row_grown_one_n_at_a_time_matches_one_call(key, monkeypatch):
    read = ROW_READERS[key]
    monkeypatch.setattr(counting, "_ROWS", {})
    stepwise = [read(n) for n in range(701)]
    grown = counting._ROWS[key]
    monkeypatch.setattr(counting, "_ROWS", {})
    assert read(700) == stepwise[700]
    assert counting._ROWS[key] == grown


def test_cold_jump_sums_one_block_per_kernel_call(fresh_rows, monkeypatch):
    # A row grown from empty to n = 3000 in one call reads the shared p table
    # one block at a time, so no kernel call holds slices wider than a block.
    # The crank-zero stream has coefficients +-2, each a term entered twice.
    slice_sums, widths = counting._slice_sums, []

    def recorded(table, offsets, start, stop):
        assert 0 < stop - start <= partitions._BLOCK
        widths.append(stop - start)
        return slice_sums(table, offsets, start, stop)

    monkeypatch.setattr(counting, "_slice_sums", recorded)
    jumped = {"M3": crank_count(3, 3000), "crank_zero": crank_zero_expansion(3000)}
    assert sum(widths) == 2 * 2 * 3072  # two rows, plus and minus sums
    rows = {"M3": fresh_rows[("M", 3)], "crank_zero": fresh_rows[counting._CRANK_ZERO[0]]}
    monkeypatch.setattr(counting, "_ROWS", {})
    stepwise = {"M3": [crank_count(3, n) for n in range(3001)],
                "crank_zero": [crank_zero_expansion(n) for n in range(3001)]}
    assert {name: row[3000] for name, row in stepwise.items()} == jumped
    assert rows["M3"][:3001] == stepwise["M3"] == table_row("M", 3, 3000)
    assert rows["crank_zero"][:3001] == stepwise["crank_zero"] == table_row("M", 0, 3000)


def test_m_and_minus_m_read_one_row(fresh_rows):
    assert [crank_count(-3, n) for n in range(300)] == [crank_count(3, n) for n in range(300)]
    assert list(fresh_rows) == [("M", 3)]


@pytest.mark.parametrize("fn, count, bad, good", [("crank_geq", crank_geq_count, -1, 0),
                                                   ("x_mex", mex_count, 0, 1)],
                         ids=["crank_geq", "x_mex"])
def test_invalid_param_raises_at_every_n(fn, count, bad, good, fresh_rows):
    # The parameter is checked on every call, hit or miss, and before the
    # n < 0 shortcut, so a row grown for a valid parameter changes nothing.
    for _ in range(2):
        for n in (-5, 0, 8):
            with pytest.raises(ValueError):
                count(bad, n)
        count(good, 8)
    assert list(fresh_rows) == [(fn, good)]


@pytest.mark.parametrize("fn, count, bad", [("crank_geq", crank_geq_count, -1),
                                            ("x_mex", mex_count, 0)],
                         ids=["crank_geq", "x_mex"])
def test_invalid_param_raises_over_a_cached_row(fn, count, bad, fresh_rows):
    # No call makes a row under a bad key, so one is planted: a hit that read
    # it before the parameter check would return its 0 and not raise.
    planted = [0] * partitions._BLOCK
    fresh_rows[(fn, bad)] = planted
    for n in (-5, 0, 8):
        with pytest.raises(ValueError):
            count(bad, n)
    assert fresh_rows == {(fn, bad): [0] * partitions._BLOCK}
    assert fresh_rows[(fn, bad)] is planted


@pytest.mark.parametrize("key", ROW_READERS, ids=str)
@pytest.mark.parametrize("ns", [range(0), range(5, 300), range(127, 130), range(0, 701, 2),
                                range(1, 702, 2), range(300, 701, 7)], ids=str)
def test_count_row_is_the_per_n_values(key, ns, fresh_rows):
    # count_row slices the row that the per-n function reads, cold, across
    # block edges and with a step, growing it to its last n and no further,
    # where a per-n call grows it to the end of that n's block.
    fn, param = key
    row = counting.count_row(fn, param, ns)
    if ns:
        assert list(fresh_rows) == [key]
        assert len(fresh_rows[key]) == ns[-1] + 1
    else:
        assert fresh_rows == {}
    assert row == [ROW_READERS[key](n) for n in ns]


@pytest.mark.parametrize("key", ROW_READERS, ids=str)
@pytest.mark.parametrize("last, n", [(200, 150), (200, 300), (255, 100), (256, 256)])
def test_per_n_read_after_count_row_grows_to_the_block_end(key, last, n, fresh_rows):
    # A row that count_row left at its last n, inside a block or at either
    # edge, grows on a per-n read to the end of the block that holds
    # max(n, last), and keeps every entry it had.
    fn, param = key
    head = counting.count_row(fn, param, range(last + 1))
    assert len(fresh_rows[key]) == last + 1
    value = ROW_READERS[key](n)
    assert len(fresh_rows[key]) == (max(n, last) | (partitions._BLOCK - 1)) + 1
    assert fresh_rows[key][:last + 1] == head
    assert value == plain_sum(key, n)


def test_count_row_checks_its_arguments(fresh_rows):
    for ns in (range(-1, 3), range(9, 2, -1)):
        with pytest.raises(ValueError, match="increasing n >= 0"):
            counting.count_row("p", None, ns)
    with pytest.raises(ValueError):
        counting.count_row("x_mex", 0, range(3))  # below its least parameter
    assert fresh_rows == {}
    assert counting.count_row("M", -3, range(9)) == [crank_count(3, n) for n in range(9)]
