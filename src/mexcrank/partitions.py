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

from dataclasses import dataclass, field
from math import isqrt
from types import MappingProxyType
from typing import Callable, Iterator, Mapping


class UndefinedMexError(ValueError):
    """Raised by :func:`mex_above` when j > 0 is not a part of the partition."""


class MalformedSymbolError(ValueError):
    """Raised when two rows do not form a valid Frobenius symbol."""


@dataclass(frozen=True, slots=True)
class Partition:
    """A partition: positive parts in nonincreasing order.

    ``Partition((3, 1))`` is the partition 3+1 of weight 4; ``Partition()``
    is the empty partition of 0.  The constructor validates ordering and
    positivity; use :meth:`of` to build from parts in any order.
    """

    parts: tuple[int, ...] = ()
    weight: int = field(init=False)

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        prev = None
        for p in parts:
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be nonincreasing, got {parts}")
            prev = p
        object.__setattr__(self, "weight", sum(parts))

    @classmethod
    def of(cls, *parts: int) -> Partition:
        """Build a partition from parts given in any order."""
        return cls(tuple(sorted(parts, reverse=True)))

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


@dataclass(frozen=True, slots=True)
class FrobeniusSymbol:
    """Two-row partition notation: equal-length, strictly decreasing rows.

    Entries are nonnegative; a symbol with rows of length d represents a
    partition of ``d + sum(top) + sum(bottom)``.  The empty symbol represents
    the empty partition.
    """

    top: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        top = tuple(self.top)
        bottom = tuple(self.bottom)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
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
    partition.  The order is deterministic and relied on by the report
    writers, so it must not change.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    for x, m, _ in _zs1(n):
        yield Partition(tuple(x[:m]))


def _zs1(n: int) -> Iterator[tuple[list[int], int, int]]:
    """Algorithm ZS1 (Zoghbi and Stojmenovic, 1998): the partitions of n >= 0
    in reverse lexicographic order, each in O(1) amortized steps.

    Yields ``(x, m, h)``: the parts are ``x[:m]``, nonincreasing, and
    ``x[h]`` is the last part above 1, so there are ``m - 1 - h`` ones
    (h = -1 when every part is 1).  ``x`` is one buffer rewritten in place
    between yields; a caller that keeps parts must copy them.
    """
    if n == 0:
        yield [], 0, -1
        return
    x = [1] * n
    x[0] = n
    m = 1
    h = 0 if n > 1 else -1
    yield x, m, h
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            # Lower x[h] by one and spread the freed unit plus the trailing
            # ones over copies of the new value, with any remainder last.
            r = x[h] - 1
            t = m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h + 1
            else:
                m = h + 2
                if t > 1:
                    h += 1
                    x[h] = t
        yield x, m, h


@dataclass(frozen=True, slots=True)
class PartitionStatistics:
    """Counts over all partitions of one n, as :func:`partition_statistics`
    gathers them.  Each mapping holds only its nonzero entries and is
    read-only.

    ``crank`` and ``mex`` map a statistic value to the number of partitions
    having it.  ``odd_gap_above`` maps j to the number of partitions in which
    j is 0 or a part and ``mex_above(lam, j) - j`` is odd.  ``top_entry``
    maps t to the number of Frobenius symbols with t in the top row, and
    ``zero_free`` counts the symbols with no 0 in either row.
    """

    count: int
    crank: Mapping[int, int]
    mex: Mapping[int, int]
    odd_gap_above: Mapping[int, int]
    top_entry: Mapping[int, int]
    zero_free: int


def partition_statistics(n: int) -> PartitionStatistics:
    """Crank, mex, mex-gap and Frobenius counts over the partitions of n.

    One ZS1 pass reads every statistic straight from the parts, with no
    :class:`Partition` or :class:`FrobeniusSymbol` built, so the time is
    O(p(n) * sqrt(n)) and the memory O(n).  The counts agree with
    :func:`crank`, :func:`mex`, :func:`mex_above` and :func:`to_frobenius`
    applied to each partition of :func:`enumerate_partitions`.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    cranks = [0] * (2 * n + 1)  # index crank + n
    mexes = [0] * (n + 2)
    odd_gap = [0] * (n + 1)
    top = [0] * (n + 1)
    count = zero_free = 0
    for x, m, h in _zs1(n):
        count += 1
        # Crank: the largest part when there are no ones, else the number
        # of parts above the number of ones, minus the ones.
        ones = m - 1 - h
        if ones == 0:
            cranks[(x[0] if m else 0) + n] += 1
        else:
            larger = 0
            while larger <= h and x[larger] > ones:
                larger += 1
            cranks[larger - ones + n] += 1

        # Part values, with 0 counted as a part, fall into maximal runs of
        # consecutive integers a..b.  Above each v of a run the least
        # non-part is b + 1, an odd gap exactly when v has the parity of b.
        # The run from 0 ends at mex - 1.
        a = 0
        b = 1 if ones else 0
        mex_value = 0
        for i in range(h, -1, -1):
            v = x[i]
            if v == b + 1:
                b = v
            elif v > b:
                for w in range(b, a - 1, -2):
                    odd_gap[w] += 1
                if not a:
                    mex_value = b + 1
                a = b = v
        for w in range(b, a - 1, -2):
            odd_gap[w] += 1
        mexes[mex_value or b + 1] += 1

        # Durfee side d; top row entries are x[i] - i - 1 for i < d.  A 0
        # ends the top row when x[d-1] == d and the bottom row unless
        # exactly x[d] == d follows (x[d] <= d always).
        d = 0
        while d < m and x[d] > d:
            top[x[d] - d - 1] += 1
            d += 1
        if not d or (x[d - 1] > d and d < m and x[d] == d):
            zero_free += 1

    def nonzero(counts: list[int], offset: int = 0) -> Mapping[int, int]:
        return MappingProxyType({i - offset: c for i, c in enumerate(counts) if c})

    return PartitionStatistics(
        count=count,
        crank=nonzero(cranks, n),
        mex=nonzero(mexes),
        odd_gap_above=nonzero(odd_gap),
        top_entry=nonzero(top),
        zero_free=zero_free,
    )


# The p(n) and q(n) tables only grow, one entry at a time, and each new
# entry is computed from the entries below it:
#   p(n) = sum_{k>=1} (-1)^(k+1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ]
# by Euler's pentagonal theorem, and
#   q(n) = e(n) + 2 sum_{k>=1} (-1)^(k+1) q(n - k^2),
# with e(n) = (-1)^j when n = j(3j+-1)/2 and 0 otherwise, by Gauss's
# sum_k (-1)^k q^(k^2) = (q;q)_inf / (-q;q)_inf.  Neither route is the
# product (q^2;q^2)_inf / (q;q)_inf that mexcrank.qseries builds q(n) from,
# so the q(n) cross-checks compare two independent computations.  Growing
# either table to n costs O(n*sqrt(n)) additions.  The shared tables are
# only appended to under the GIL, so concurrent reads are safe once a build
# call has returned; writers must not race with each other (the CLI and
# harness build single-threaded).
_PARTITION_TABLE: list[int] = [1]
_DISTINCT_TABLE: list[int] = [1]


def _grow(table: list[int], limit: int, entry: Callable[[list[int]], int]) -> None:
    # Append entry(table), the value at index len(table), up to index limit.
    while len(table) <= limit:
        table.append(entry(table))


def _next_partition_count(p: list[int]) -> int:
    n = len(p)
    acc = 0
    k, g = 1, 1  # g = k(3k-1)/2
    while g <= n:
        term = p[n - g] + (p[n - g - k] if g + k <= n else 0)
        acc += term if k % 2 else -term
        k += 1
        g += 3 * k - 2
    return acc


def _next_distinct_count(q: list[int]) -> int:
    n = len(q)
    root = isqrt(24 * n + 1)  # n = j(3j+-1)/2 exactly when 24n+1 = (6j-+1)^2
    acc = (-1) ** ((root + 1) // 6) if root * root == 24 * n + 1 else 0
    k = 1
    while k * k <= n:
        acc += 2 * q[n - k * k] if k % 2 else -2 * q[n - k * k]
        k += 1
    return acc


def partition_count_table(limit: int) -> list[int]:
    """Fresh list of p(0..limit) computed by the pentagonal recurrence.

    Does not touch the shared cache; used where a cold, self-contained
    computation is wanted (timing, cross-checks).
    """
    table = [1]
    _grow(table, limit, _next_partition_count)
    return table


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n.  Zero for negative n."""
    if n < 0:
        return 0
    if n >= len(_PARTITION_TABLE):
        _grow(_PARTITION_TABLE, n, _next_partition_count)
    return _PARTITION_TABLE[n]


def distinct_parts_count(n: int) -> int:
    """q(n), the number of partitions of n into distinct parts.  Zero for n<0."""
    if n < 0:
        return 0
    if n >= len(_DISTINCT_TABLE):
        _grow(_DISTINCT_TABLE, n, _next_distinct_count)
    return _DISTINCT_TABLE[n]


def mex(partition: Partition) -> int:
    """Smallest positive integer that is not a part.

    >>> mex(Partition((3, 2)))
    1
    >>> mex(Partition((2, 2, 1)))
    3
    """
    present = set(partition.parts)
    m = 1
    while m in present:
        m += 1
    return m


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
