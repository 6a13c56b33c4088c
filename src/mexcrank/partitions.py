"""Integer partitions and their statistics.

Partitions are immutable value objects.  Everything here is exact: the
partition counting functions run on Python's arbitrary-precision integers,
and the statistics (mex, crank, Durfee square, Frobenius symbol) are computed
combinatorially, with no generating-function shortcuts.  The series and
closed-form counterparts live in :mod:`mexcrank.qseries` and
:mod:`mexcrank.counting`; keeping them out of this module is what makes the
cross-checks in :mod:`mexcrank.verify` meaningful.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import takewhile
from math import isqrt
from operator import add, sub
from types import MappingProxyType

from . import _Value


class UndefinedMexError(ValueError):
    """Raised by :func:`mex_above` when j > 0 is not a part of the partition."""


class MalformedSymbolError(ValueError):
    """Raised when two rows do not form a valid Frobenius symbol."""


class Partition(_Value):
    """A partition: positive parts in nonincreasing order.

    ``Partition((3, 1))`` is the partition 3+1 of weight 4; ``Partition()``
    is the empty partition of 0.  The constructor validates ordering and
    positivity; use :meth:`of` to build from parts in any order.
    """

    __slots__ = ("parts", "weight")
    parts: tuple[int, ...]
    weight: int

    def __init__(self, parts: Iterable[int] = ()) -> None:
        parts = tuple(parts)
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be nonincreasing, got {parts}")
            prev = p
        self._init(parts, sum(parts))

    @classmethod
    def of(cls, *parts: int) -> Partition:
        """Build a partition from parts given in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


class FrobeniusSymbol(_Value):
    """Two-row partition notation: equal-length, strictly decreasing rows.

    Entries are nonnegative; a symbol with rows of length d represents a
    partition of ``d + sum(top) + sum(bottom)``.  The empty symbol represents
    the empty partition.
    """

    __slots__ = ("top", "bottom")
    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __init__(self, top: Iterable[int] = (), bottom: Iterable[int] = ()) -> None:
        top = tuple(top)
        bottom = tuple(bottom)
        if len(top) != len(bottom):
            raise MalformedSymbolError(
                f"rows must have equal length, got {len(top)} and {len(bottom)}"
            )
        for row in (top, bottom):
            for a, b in zip(row, row[1:]):
                if a <= b:
                    raise MalformedSymbolError(f"rows must strictly decrease, got {row}")
            if row and row[-1] < 0:
                raise MalformedSymbolError(f"entries must be nonnegative, got {row}")
        self._init(top, bottom)

    @property
    def size(self) -> int:
        """Row length; equals the Durfee square side of the partition."""
        return len(self.top)

    @property
    def weight(self) -> int:
        """Weight of the represented partition."""
        return self.size + sum(self.top) + sum(self.bottom)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse lexicographic order.

    The order is by parts sequence, largest first part first; for n=4 this is
    (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  n=0 yields only the empty
    partition.  The order is part of the public behaviour and pinned by the
    tests.  Each partition is a partition x with no part 1, as
    :func:`_without_ones` walks them, followed by n - w ones.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ones = (1,) * n
    for parts, w in _without_ones(n):
        yield Partition(tuple(parts) + ones[w:])


def _without_ones(limit: int, least: int = 2) -> Iterator[tuple[list[int], int]]:
    """The partitions with every part at least ``least`` (2 by default, so no
    part 1) and weight at most limit, in post-order: each comes after every
    partition that extends it, and the extensions by a larger next part come
    first.

    Yields ``(parts, weight)``, the empty partition last; ``parts`` is one
    list rewritten in place between yields, nonincreasing, every part >=
    least.  With least 2 and ``limit - weight`` ones appended, the
    partitions of limit come out in reverse lexicographic order.
    """
    parts: list[int] = []
    weight = 0
    while True:
        # Descend to the first partition of this subtree: the largest part
        # that fits, again and again.
        while (p := min(parts[-1] if parts else limit, limit - weight)) >= least:
            parts.append(p)
            weight += p
        yield parts, weight
        # Its subtree is done: go on to the next smaller last part, or, when
        # the last part was the least, up to the partition it extended.
        while parts:
            p = parts.pop()
            weight -= p
            if p > least:
                parts.append(p - 1)
                weight += p - 1
                break
            yield parts, weight
        else:
            return


class PartitionStatistics(_Value):
    """Counts over all partitions of one n, as
    :func:`partition_statistics_table` gathers them.  Each mapping holds
    only its nonzero entries and is read-only.

    ``crank`` and ``mex`` map a statistic value to the number of partitions
    having it.  ``odd_gap_above`` maps j to the number of partitions in which
    j is 0 or a part and ``mex_above(lam, j) - j`` is odd.  ``top_entry``
    maps t to the number of Frobenius symbols with t in the top row, and
    ``zero_free`` counts the symbols with no 0 in either row.  A record is a
    few histograms of at most 2n + 1 small integers.
    """

    __slots__ = ("count", "crank", "mex", "odd_gap_above", "top_entry", "zero_free")
    count: int
    crank: Mapping[int, int]
    mex: Mapping[int, int]
    odd_gap_above: Mapping[int, int]
    top_entry: Mapping[int, int]
    zero_free: int

    def __init__(self, count: int, crank: Mapping[int, int], mex: Mapping[int, int],
                 odd_gap_above: Mapping[int, int], top_entry: Mapping[int, int],
                 zero_free: int) -> None:
        self._init(count, crank, mex, odd_gap_above, top_entry, zero_free)


def partition_statistics(n: int) -> PartitionStatistics:
    """Crank, mex, mex-gap and Frobenius counts over the partitions of n:
    entry n of :func:`partition_statistics_table`."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return partition_statistics_table(n)[n]


def partition_statistics_table(limit: int) -> tuple[PartitionStatistics, ...]:
    """The :class:`PartitionStatistics` records of n = 0..limit, from one sweep.

    Every partition of n is, exactly once, y + 2^j + 1^k: a partition y
    with no part below 3 and weight w, j twos and k = n - w - 2j ones.  So
    one post-order walk over the y of weight <= limit, as
    :func:`_without_ones` gives them, reaches every partition of every
    n <= limit, and each y adds its whole family over (j, k) into
    difference tables, in which the order of the walk does not matter.
    Each statistic is read from the parts of y, as the definitions give it,
    with no :class:`Partition` or :class:`FrobeniusSymbol` built.  With L
    parts in y:

    * the crank is the largest part when k = 0, L + j - 1 when k = 1, since
      every 2 is above 1, and the number of parts of y above k, minus k,
      when k >= 2, whatever j is;
    * the mex is 1 when k = 0 and 2 when k >= 1 and j = 0; when k, j >= 1
      it is e + 1, with 2..e the run of consecutive values in {2} and y.
      An odd gap above a part of y depends on y alone, one above 2 on e,
      and one above 0 or 1 on whether j and k are 0;
    * adding twos and ones leaves the Durfee square and the top row of y
      as they are, but for a one-part y (a), which becomes (a-1, 0 | ...)
      once j >= 1.  Whether either row holds a 0 is the same for every j,
      but that j = 0 and j >= 1 differ when y has one part, or two parts
      and Durfee side 2.

    The counts agree with :func:`crank`, :func:`mex`, :func:`mex_above` and
    :func:`to_frobenius` applied to each partition of
    :func:`enumerate_partitions`.  At limit 35 the sweep walks 4,740
    partitions, where the partitions of all n <= 35 number 81,156, and
    takes about 12 ms; at 45 it takes about 73 ms and at 50 0.16 s (in
    process, 2 CPUs, Python 3.11.7, on a day when ``python -c pass`` took
    44 ms).
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    # Difference tables over n, each entry standing for a family: an entry
    # in row r counts its partition at j = 0 and at every n >= r, and again
    # two rows lower for each further two, so an entry for j = 0 alone is
    # one in row r less one in row r + 2.  After the walk each table is
    # summed over j, in steps of two rows, and then over k.  The crank table
    # is indexed by n + crank, which a further two moves by 2 and a further
    # one leaves fixed while the number of parts of y above k does not
    # change; its rows run past 2 limit, so that an interval ending past
    # limit ends in a row never read, with no bound taken per value.  The
    # points k = 1, whose n + crank moves by 3 with each two, have a table
    # of their own, added in after the sums.  No row past limit is read, but
    # entries reach row limit + 3, and those of y = () row 5 and crank
    # column 4 whatever the limit.
    rows = limit + 6
    count = [0] * rows
    zero_free = [0] * rows
    cranks = [[0] * (2 * limit + 5) for _ in range(2 * limit + 4)]
    k1_cranks = [[0] * (2 * limit + 5) for _ in range(limit + 2)]
    mexes = [[0] * (limit + 4) for _ in range(rows)]
    odd_gap = [[0] * (limit + 3) for _ in range(rows)]
    top = [[0] * (limit + 2) for _ in range(rows)]
    # y = (), whose family is 2^j 1^k: what the rules of the walk leave out.
    # At k = 0 the crank is 2 once j >= 1, not the 0 of the empty
    # partition.  1^k (k >= 1) has the top row (0), 2^j 1^k the top row (1)
    # when j = 1 and (1, 0) once j >= 2.  The zero-free ones are (), at
    # j = k = 0, and 2 1^k for k >= 1.
    cranks[2][2] -= 1
    cranks[3][2] += 1
    cranks[2][4] += 1
    cranks[3][4] -= 1
    top[1][0] += 1
    top[3][0] -= 1
    top[2][1] += 1
    top[4][0] += 1
    zero_free[0] += 1
    zero_free[1] -= 1
    zero_free[2] -= 1
    zero_free[3] += 2
    zero_free[5] -= 1
    for parts, w in _without_ones(limit, 3):
        length = len(parts)
        count[w] += 1

        # Crank at k = 0, the largest part, and at k = 1, L + j - 1.
        first = parts[0] if parts else 0
        cranks[w][w + first] += 1
        cranks[w + 1][w + first] -= 1
        k1_cranks[w + 1][w + length] += 1

        # The parts from the least up, with 2 before them and no value after.
        # Between consecutive values b < v, exactly i parts are above k for
        # k = b..v-1, so the crank is i - k there when k >= 2.  The values
        # fall into maximal runs of consecutive integers a..b; above each v
        # of a run the least non-part is b + 1, an odd gap exactly when v
        # has the parity of b: at b, b - 2, ... down to a.  Each gap row is
        # also a difference table over j, summed in steps of 2 from the top,
        # so a run adds at b and subtracts at the first index below a of
        # b's parity.  The run from 3, 3..e (empty when e = 2), is one of
        # them.
        gaps = odd_gap[w]
        a, b, e = 3, 2, 2
        i = length  # the parts above k for k = b..v-1
        for v in reversed(parts):
            if v > b:
                cranks[w + b][w + i] += 1
                cranks[w + v][w + i] -= 1
                if v > b + 1:
                    gaps[b] += 1
                    gaps[a - 2 + (b - a) % 2] -= 1
                    if a == 3:
                        e = b
                    a = v
                b = v
            i -= 1
        # No part is above k >= b, and a..b is the last run.  The crank's end
        # past limit is never read.
        cranks[w + b][w] += 1
        gaps[b] += 1
        gaps[a - 2 + (b - a) % 2] -= 1
        if a == 3:
            e = b
        # With j >= 1 the run from 3 becomes 2..e, and 2 is an odd gap when
        # e is even; with k >= 1 too it is 0..e, with mex e + 1 and an odd
        # gap at e % 2.  Mex and odd gaps at k = 0, or at j = 0, are the same
        # for every y of weight w, and are added per weight after the walk.
        mexes[w + 3][e + 1] += 1
        odd_gap[w + 3][e % 2] += 1
        if e % 2 == 0:
            odd_gap[w + 2][2] += 1
            odd_gap[w + 2][0] -= 1

        # Durfee side d; top row entries are y[i] - i - 1 for i < d.  A 0
        # ends the top row when y[d-1] == d and the bottom row unless
        # exactly y[d] == d follows (y[d] <= d always): with twos y[d] is 2
        # when d == L, and with ones alone 1.  A single part (a) with ones
        # alone gives the symbol (a-1 | k), and with twos (a-1, 0 | ...).
        d = 0
        while d < length and parts[d] > d:
            top[w][parts[d] - d - 1] += 1
            d += 1
        if length == 1:
            top[w + 2][0] += 1
            zero_free[w + 1] += 1
            zero_free[w + 3] -= 1
        elif d == length == 2:
            zero_free[w + 2] += 1
        elif d < length and parts[d] == d and parts[d - 1] > d:
            zero_free[w] += 1

    for w in range(limit + 1):
        # k = 0: mex 1 and an odd gap at 0; j = 0 and k >= 1: mex 2 and an
        # odd gap at 1.
        for table, m in ((mexes, 1), (odd_gap, 0)):
            table[w][m] += count[w]
            table[w + 1][m] -= count[w]
            table[w + 1][m + 1] += count[w]
            table[w + 3][m + 1] -= count[w]
    for n in range(2, limit + 1):  # over j; a two moves n + crank by 2, or 3 at k = 1
        count[n] += count[n - 2]
        zero_free[n] += zero_free[n - 2]
        for table, shift in ((cranks, 2), (k1_cranks, 3), (mexes, 0), (odd_gap, 0), (top, 0)):
            table[n][shift:] = map(add, table[n][shift:], table[n - 2])
    for row in odd_gap:
        for j in range(limit - 1, -1, -1):
            row[j] += row[j + 2]
    for table in (cranks, mexes, odd_gap, top):  # over k
        for n in range(1, limit + 1):
            table[n] = [c + below for c, below in zip(table[n], table[n - 1])]
    for n in range(1, limit + 1):
        count[n] += count[n - 1]
        zero_free[n] += zero_free[n - 1]

    def nonzero(counts: Iterable[int], offset: int = 0) -> Mapping[int, int]:
        return MappingProxyType({i - offset: c for i, c in enumerate(counts) if c})

    return tuple(
        PartitionStatistics(
            count=count[n],
            crank=nonzero(map(add, cranks[n], k1_cranks[n]), n),
            mex=nonzero(mexes[n]),
            odd_gap_above=nonzero(odd_gap[n]),
            top_entry=nonzero(top[n]),
            zero_free=zero_free[n],
        )
        for n in range(limit + 1)
    )


# The p(n) and q(n) tables only grow, and each new entry is computed from
# the entries below it:
#   p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ]
# by Euler's pentagonal theorem, and
#   q(n) = e(n) + 2 sum_{k>=1} (-1)^(k+1) q(n - k^2),
# with e(n) = (-1)^j when n = j(3j+-1)/2 and 0 otherwise, by Gauss's
# sum_k (-1)^k q^(k^2) = (q;q)_inf / (-q;q)_inf.  Neither route is the
# product (q^2;q^2)_inf / (q;q)_inf that mexcrank.qseries builds q(n) from,
# so the q(n) cross-checks compare two independent computations.  Both
# tables grow through one helper, _grow, which takes its recurrence as
# plain arguments and appends entries a block of _BLOCK at a time; the
# shared tables grow to the end of the block that holds the entry asked
# for, so a table read one n at a time, as `table --fn q` and the per-n
# functions read it, still grows a whole block per call.  Growing the p
# table to 20000 takes about 0.2 s on 2 CPUs.  A value already in a table
# costs a length check and one index, and never reaches _grow.  The shared tables are only appended to under
# the GIL, so concurrent reads are safe once a build call has returned;
# writers must not race with each other (the CLI and harness build
# single-threaded).
_PARTITION_TABLE: list[int] = [1]
_DISTINCT_TABLE: list[int] = [1]


def _pentagonal(bound: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The generalized pentagonal numbers k(3k -+ 1)/2 for k >= 1, split by
    # the sign (-1)^(k+1) into two ascending tuples that hold every one up to
    # bound (the last may pass it).
    plus: list[int] = []
    minus: list[int] = []
    k, g = 1, 1  # g = k(3k - 1)/2
    while g <= bound:
        (plus if k % 2 else minus).extend((g, g + k))
        k += 1
        g += 3 * k - 2
    return tuple(plus), tuple(minus)


# The blocks are [start, stop) with stop a multiple of _BLOCK, a power of
# two, or limit + 1.  An offset g >= _BLOCK reads only entries below start,
# so the block's far terms are signed column sums of slices, done in C by
# _slice_sums.  The near offsets, below _BLOCK (18 pentagonal numbers and
# 11 squares), run per n on a window: the _BLOCK entries below start, with
# zeros for n < 0, then the new block, which extends the table.
_BLOCK = 128


def _grow(table: list[int], limit: int, plus: Sequence[int], minus: Sequence[int],
          scale: int, forcing: Mapping[int, int]) -> None:
    # Append, for n = len(table)..limit,
    #   scale * (sum_(g in plus) table[n - g] - sum_(g in minus) table[n - g])
    #   + forcing.get(n, 0),
    # leaving out the offsets past n; plus and minus are ascending and hold
    # every offset up to limit.
    i, j = bisect_left(plus, _BLOCK), bisect_left(minus, _BLOCK)
    near_plus, far_plus, near_minus, far_minus = plus[:i], plus[i:], minus[:j], minus[j:]
    start = len(table)
    while start <= limit:
        stop = min((start | (_BLOCK - 1)) + 1, limit + 1)
        far = _slice_sums(table, far_plus, far_minus, start, stop)
        window = [0] * (_BLOCK - start) + table[max(start - _BLOCK, 0):start]
        for n, acc in zip(range(start, stop), far):
            i = len(window)
            for g in near_plus:
                acc += window[i - g]
            for g in near_minus:
                acc -= window[i - g]
            window.append(scale * acc + forcing.get(n, 0))
        table.extend(window[_BLOCK:])
        start = stop


def _slice_sums(table: Sequence[int], plus: Sequence[int], minus: Sequence[int],
                start: int, stop: int) -> Iterator[int]:
    # sum_(g in plus) table[n - g] - sum_(g in minus) table[n - g] for
    # n = start..stop-1 over the ascending offsets g < stop, leaving out
    # g > n: signed column sums of one slice of table per offset, in C.  The
    # plus sums are a list, so that their slices are freed before the minus
    # slices are taken; all are taken now, so a caller may append to table
    # while it reads the sums.
    zeros = [0] * (stop - start)

    def column_sums(offsets: Sequence[int]) -> Iterator[int]:
        slices = [table[start - g:stop - g] if g <= start else zeros[:g - start] + table[:stop - g]
                  for g in offsets[:bisect_left(offsets, stop)]]
        return map(sum, zip(zeros, *slices))

    return map(sub, list(column_sums(plus)), column_sums(minus))


def partition_count_table(limit: int) -> list[int]:
    """Fresh list of p(0..limit) computed by the pentagonal recurrence.

    Does not touch the shared cache; used where a cold, self-contained
    computation is wanted (timing, cross-checks).
    """
    return euler_quotient(((0, 1),), limit)


def euler_quotient(terms: Iterable[tuple[int, int]], limit: int) -> list[int]:
    """Fresh list of the coefficients 0..limit of S(q)/(q;q)_inf, where S is
    the sum of c q^g over the (g, c) terms, whose offsets never decrease.

    Dividing by (q;q)_inf is the p(n) recurrence with S as its forcing term
    (terms at one offset add up), so this costs what the p table to limit
    costs, whatever S is; S = 1 gives p itself.
    """
    forcing: dict[int, int] = {}
    for g, c in takewhile(lambda term: term[0] <= limit, terms):
        forcing[g] = forcing.get(g, 0) + c
    table: list[int] = []
    _grow(table, limit, *_pentagonal(limit), 1, forcing)
    return table


def shared_partition_table(limit: int) -> Sequence[int]:
    """The shared table p(0), p(1), ..., grown to hold p(limit) at least.

    Read only: callers index it and never change it.
    """
    if limit >= len(_PARTITION_TABLE):
        limit |= _BLOCK - 1
        _grow(_PARTITION_TABLE, limit, *_pentagonal(limit), 1, {})
    return _PARTITION_TABLE


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n.  Zero for negative n."""
    if n < 0:
        return 0
    return shared_partition_table(n)[n]


def distinct_parts_count(n: int) -> int:
    """q(n), the number of partitions of n into distinct parts.  Zero for n<0."""
    if n < 0:
        return 0
    if n >= len(_DISTINCT_TABLE):
        limit = n | (_BLOCK - 1)
        squares = [k * k for k in range(1, isqrt(limit) + 1)]
        plus, minus = _pentagonal(limit)
        _grow(_DISTINCT_TABLE, limit, squares[::2], squares[1::2], 2,
              dict.fromkeys(minus, 1) | dict.fromkeys(plus, -1))
    return _DISTINCT_TABLE[n]


def mex(partition: Partition) -> int:
    """Smallest positive integer that is not a part.

    >>> mex(Partition((3, 2)))
    1
    >>> mex(Partition((2, 2, 1)))
    3
    """
    return mex_above(partition, 0)


def mex_above(partition: Partition, j: int) -> int:
    """Least integer greater than j that is not a part.

    Defined when j = 0 (where it reduces to :func:`mex`, treating 0 as a
    part of every partition) or when j is itself a part; otherwise raises
    :class:`UndefinedMexError`.
    """
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    present = set(partition.parts)
    if j != 0 and j not in present:
        raise UndefinedMexError(f"{j} is not a part of {partition.parts}")
    m = j + 1
    while m in present:
        m += 1
    return m


def crank(partition: Partition) -> int:
    """The Andrews-Garvan crank.

    Largest part if there are no 1s; otherwise (number of parts larger than
    the number of 1s) minus (number of 1s).  The empty partition has crank 0,
    which matches the generating-function count at n=0.
    """
    parts = partition.parts
    if not parts:
        return 0
    ones = 0
    for p in reversed(parts):
        if p != 1:
            break
        ones += 1
    if ones == 0:
        return parts[0]
    larger = sum(1 for p in parts if p > ones)
    return larger - ones


def _heights(rows: Sequence[int], lo: int, hi: int) -> list[int]:
    # Column h of a diagram counts its rows of length at least h: the counts
    # for h = lo..hi, hi <= rows[0], from one walk up the nonincreasing rows.
    count = len(rows)
    heights = []
    for h in range(lo, hi + 1):
        while rows[count - 1] < h:
            count -= 1
        heights.append(count)
    return heights


def conjugate(partition: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    parts = partition.parts
    return Partition(_heights(parts, 1, parts[0]) if parts else ())


def durfee_size(partition: Partition) -> int:
    """Side of the Durfee square: the largest d with d-th part >= d."""
    d = 0
    for i, p in enumerate(partition.parts, start=1):
        if p < i:
            break
        d = i
    return d


def to_frobenius(partition: Partition) -> FrobeniusSymbol:
    """Frobenius symbol of a partition.

    With Durfee square side d, row i of the top is (part i) - i and of the
    bottom is (conjugate part i) - i, for i = 1..d.  Conjugate part i is the
    number of parts >= i; only the first d are counted, so the cost follows
    the number of parts, not the largest part.
    """
    parts = partition.parts
    d = durfee_size(partition)
    diagonal = range(1, d + 1)
    return FrobeniusSymbol(map(sub, parts, diagonal), map(sub, _heights(parts, 1, d), diagonal))


def from_frobenius(symbol: FrobeniusSymbol) -> Partition:
    """The unique partition with the given Frobenius symbol.

    Inverse of :func:`to_frobenius`; raises :class:`MalformedSymbolError`
    for rows that are not equal-length and strictly decreasing (enforced by
    the symbol type itself).
    """
    d = symbol.size
    if d == 0:
        return Partition()
    diagonal = range(1, d + 1)
    # The first d columns; the rows below the Durfee square are their heights.
    columns = list(map(add, symbol.bottom, diagonal))
    return Partition((*map(add, symbol.top, diagonal), *_heights(columns, d + 1, columns[0])))
