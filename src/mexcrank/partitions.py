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
from operator import sub
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


def _without_ones(limit: int) -> Iterator[tuple[list[int], int]]:
    """The partitions with no part 1 and weight at most limit, in post-order:
    each comes after every partition that extends it, and the extensions by
    a larger next part come first.

    Yields ``(parts, weight)``, the empty partition last; ``parts`` is one
    list rewritten in place between yields, nonincreasing, every part >= 2.
    With ``limit - weight`` ones appended, the partitions of limit come out
    in reverse lexicographic order.
    """
    parts: list[int] = []
    weight = 0
    while True:
        # Descend to the first partition of this subtree: the largest part
        # that fits, again and again.
        while (p := min(parts[-1] if parts else limit, limit - weight)) >= 2:
            parts.append(p)
            weight += p
        yield parts, weight
        # Its subtree is done: go on to the next smaller last part, or, when
        # the last part was a 2, up to the partition it extended.
        while parts:
            p = parts.pop()
            weight -= p
            if p > 2:
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

    Every partition of n is, exactly once, a partition x with no part 1 and
    weight w <= n together with k = n - w ones, so one post-order walk over
    the x of weight <= limit (p(limit) of them, as :func:`_without_ones`
    gives them) reaches every partition of every n <= limit.  Each x adds
    into difference tables over n, so the order of the walk does not
    matter.  Each statistic is read from the parts of x, as the
    definitions give it, with no :class:`Partition` or
    :class:`FrobeniusSymbol` built:

    * the crank of x + 1^k is the largest part of x when k = 0, and the
      number of parts of x above k, minus k, when k >= 1;
    * the mex is 1 when k = 0; for every k >= 1 it is the mex of x with 1
      added, and the odd gaps are likewise one set for k = 0 and one for
      every k >= 1;
    * adding ones leaves the Durfee square and the top row of a nonempty x
      as they are, and 1^k has the top row (0).

    The counts agree with :func:`crank`, :func:`mex`, :func:`mex_above` and
    :func:`to_frobenius` applied to each partition of
    :func:`enumerate_partitions`.  At limit 35 the sweep walks 14,883
    partitions, where the partitions of all n <= 35 number 81,156, and takes
    about 0.1 s; at 45 it takes about 0.65 s and at 50 about 1.6 s (2 CPUs,
    Python 3.11.7).
    """
    if limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    # Difference tables over n: what x + 1^k adds for every n >= lo is one
    # add to row lo, and what it adds at n = w alone is an add to row w and
    # a subtract from row w + 1.  Row limit + 1 takes the ends past limit.
    # The crank table is indexed by n + crank, which stays fixed while k,
    # and so n, runs over an interval on which the number of parts above k
    # does not change.  Row limit + 1 may also hold mex 2 and an odd gap
    # at 1, past the widths that n <= limit needs when limit is 0.
    count = [0] * (limit + 2)
    zero_free = [0] * (limit + 2)
    cranks = [[0] * (2 * limit + 1) for _ in range(limit + 2)]
    mexes = [[0] * (limit + 3) for _ in range(limit + 2)]
    odd_gap = [[0] * (limit + 2) for _ in range(limit + 2)]
    top = [[0] * (limit + 1) for _ in range(limit + 2)]
    # The empty x: the empty partition is zero-free, and 1^k has the top
    # row (0) for k >= 1.
    zero_free[0] += 1
    zero_free[1] -= 1
    top[1][0] += 1
    for parts, w in _without_ones(limit):
        length = len(parts)
        count[w] += 1

        # Crank at k = 0: the largest part.
        first = parts[0] if parts else 0
        cranks[w][w + first] += 1
        cranks[w + 1][w + first] -= 1

        # The parts from the least up, with 1 before them and a value past
        # limit after.  Between consecutive values b < v, exactly i parts
        # are above k for k = b..v-1, so x + 1^k has crank i - k there.
        # The values fall into maximal runs of consecutive integers a..b;
        # above each v of a run the least non-part is b + 1, an odd gap
        # exactly when v has the parity of b.  The run from 1, with 0
        # added, is the run 0..e of x + 1^k for k >= 1, which has mex e + 1
        # and one odd gap at 0 or 1.  When k = 0 the run is 0 alone, with
        # mex 1 and an odd gap at 0.  The other gaps are those of x for
        # every k.
        gaps = odd_gap[w]
        a = b = e = 1
        for i in range(length, -1, -1):
            v = parts[i - 1] if i else limit + 2
            if v > b:
                if w + b <= limit:
                    cranks[w + b][w + i] += 1
                    cranks[min(w + v, limit + 1)][w + i] -= 1
                if v > b + 1:
                    for j in range(b, max(a, 2) - 1, -2):
                        gaps[j] += 1
                    if a == 1:
                        e = b
                    a = v
                b = v
        mexes[w][1] += 1
        mexes[w + 1][1] -= 1
        mexes[w + 1][e + 1] += 1
        gaps[0] += 1
        odd_gap[w + 1][0] -= 1
        odd_gap[w + 1][e % 2] += 1

        # Durfee side d; top row entries are x[i] - i - 1 for i < d.  A 0
        # ends the top row when x[d-1] == d and the bottom row unless
        # exactly x[d] == d follows (x[d] <= d always); for k >= 1 a single
        # part a >= 2 is followed by a 1, giving the symbol (a-1 | k).
        d = 0
        while d < length and parts[d] > d:
            top[w][parts[d] - d - 1] += 1
            d += 1
        if d == length == 1:
            zero_free[w + 1] += 1
        elif d and parts[d - 1] > d and d < length and parts[d] == d:
            zero_free[w] += 1

    for table in (cranks, mexes, odd_gap, top):
        for n in range(1, limit + 1):
            table[n] = [c + below for c, below in zip(table[n], table[n - 1])]
    for n in range(1, limit + 1):
        count[n] += count[n - 1]
        zero_free[n] += zero_free[n - 1]

    def nonzero(counts: list[int], offset: int = 0) -> Mapping[int, int]:
        return MappingProxyType({i - offset: c for i, c in enumerate(counts) if c})

    return tuple(
        PartitionStatistics(
            count=count[n],
            crank=nonzero(cranks[n], n),
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
# for, so a table grown one n at a time, as verify grows it, still grows a
# whole block per call.  Growing the p table to 20000 takes about 0.2 s on
# 2 CPUs.  A value already in a table costs a length check and one index,
# and never reaches _grow.  The shared tables are only appended to under
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
# so the terms of these "far" offsets for the whole block are column sums of
# slices, done in C by _slice_sums; the "near" offsets, below _BLOCK (18
# pentagonal numbers and 11 squares), run per n, since they read entries of
# the block itself.
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
        # The plus sums are a list, so that their slices are freed before
        # the minus slices are taken.
        far = map(sub, list(_slice_sums(table, far_plus, start, stop)),
                  _slice_sums(table, far_minus, start, stop))
        for n, acc in zip(range(start, stop), far):
            for g in near_plus:
                if g > n:
                    break
                acc += table[n - g]
            for g in near_minus:
                if g > n:
                    break
                acc -= table[n - g]
            table.append(scale * acc + forcing.get(n, 0))
        start = stop


def _slice_sums(table: Sequence[int], offsets: Sequence[int], start: int,
                stop: int) -> Iterator[int]:
    # sum_g table[n - g] for n = start..stop-1 over the ascending offsets
    # g < stop, leaving out g > n: the column sums of one slice of table per
    # offset, all in C.  The slices are taken now, so a caller may append to
    # table while it reads the sums.
    zeros = [0] * (stop - start)
    slices = [table[start - g:stop - g] if g <= start else zeros[:g - start] + table[:stop - g]
              for g in offsets[:bisect_left(offsets, stop)]]
    return map(sum, zip(zeros, *slices))


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


def conjugate(partition: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    parts = partition.parts
    if not parts:
        return Partition()
    conj = []
    count = len(parts)
    for height in range(1, parts[0] + 1):
        while parts[count - 1] < height:
            count -= 1
        conj.append(count)
    return Partition(tuple(conj))


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
    top = tuple(parts[i] - i - 1 for i in range(d))
    bottom = []
    count = len(parts)
    for i in range(d):
        while parts[count - 1] <= i:
            count -= 1
        bottom.append(count - i - 1)
    return FrobeniusSymbol(top, tuple(bottom))


def from_frobenius(symbol: FrobeniusSymbol) -> Partition:
    """The unique partition with the given Frobenius symbol.

    Inverse of :func:`to_frobenius`; raises :class:`MalformedSymbolError`
    for rows that are not equal-length and strictly decreasing (enforced by
    the symbol type itself).
    """
    d = symbol.size
    if d == 0:
        return Partition()
    rows = [symbol.top[i] + i + 1 for i in range(d)]
    # Column heights of the first d columns; rows below the Durfee square
    # are read off as the number of columns still reaching that depth.
    heights = [symbol.bottom[i] + i + 1 for i in range(d)]
    tail = []
    reach = d
    for depth in range(d + 1, heights[0] + 1):
        while heights[reach - 1] < depth:
            reach -= 1
        tail.append(reach)
    return Partition(tuple(rows + tail))
