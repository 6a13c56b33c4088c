"""Closed-form partition-statistic counts as finite p(n) combinations.

Each count is a classical formula sum_i c_i p(n - g_i), the "fast side" that
:mod:`mexcrank.verify` plays against a brute-force count.  Its terms come as
a stream of (offset g, coefficient c) pairs whose offsets never decrease.
:data:`STREAMS` holds each stream with its parameter's name and least value,
which :func:`_stream` checks for every caller.  :func:`count_row` gives
the entries of one range of n as one slice of a cached row of its stream;
the ``verify`` legs read their counts so, and each public per-n function is
one n of it.  The row holds sum_i c_i p(n - g_i) for n = 0, 1, ...;
:func:`count_row` grows it to the last n it returns and no further, while a
per-n function, like the shared p table, grows it to the end of the block
of 128 that holds its n.  Growing it sums, one block at a time, the slices
of the shared p table that line up with the new entries, in C, with the
kernel that the p and q recurrences use, ``partitions._slice_sums``.  There
is one row per stream and parameter (M is keyed by |m|, and Ewell's two
sums share one row), held for the life of the process like the p table: at
most (rows used) x (largest n asked, rounded up to 128) entries.  The
default ``verify`` grows 40 rows, 16,761 entries in all, which take
0.70 MiB (``sys.getsizeof`` of each row and its entries, 64-bit CPython
3.11.7); ``verify --order 20000`` grows them to 36.2 MiB and
``--n-max 20000`` to 42.4 MiB.  A ``table`` row, :func:`table_row`, takes
the other route: the row's generating function is S(q)/(q;q)_inf, with S
the sum of c q^g, so :func:`mexcrank.partitions.euler_quotient` divides S by
the pentagonal recurrence.  A row then costs about what the p table to
n_max costs, and never reads or grows the shared table; the row tests
compare it with the cached rows.  The streams, with t_i = i(i + 1)/2:

* M(m, n): k(k + 2|m| - 1)/2 with (-1)^(k+1), then k(k + 2|m| + 1)/2 with
  (-1)^k, for k >= 1; crank >= j: k(k - 1)/2 + kj with (-1)^(k+1);
* mex exactly m: +1 at t_(m-1) and -1 at t_m;
* a mex residue class: at each t_i, +1 if mex i + 1 is in the class and -1
  if mex i >= 1 is, so that o(n) = sum_i (-1)^i p(n - t_i);
* the crank-zero expansion: 1 at t_0, then 2(-1)^i at t_i; Ewell's sums:
  (-1)^(t_i) at t_i.

The crank-zero expansion equals M(0, n) and 2 o(n) - p(n), yet keeps its own
stream: COR_0CRANK checks it against M(0, n), and two sides built from one
stream would check nothing.  Likewise Ewell's sums never read the q(n) table
that EWELL_EVEN checks them against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, chain, count, cycle, islice
from operator import itemgetter, sub

from .partitions import _BLOCK, _slice_sums, euler_quotient, shared_partition_table

Terms = Iterable[tuple[int, int]]


def triangular(k: int) -> int:
    """The k-th triangular number k(k+1)/2."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return k * (k + 1) // 2


# (stream name, parameter) -> entries 0..len - 1 of sum_g c p(n - g); the
# names are the STREAMS keys and the two private streams below.
_ROWS: dict[tuple[str, int | None], list[int]] = {}


def _row(key: tuple[str, int | None], stream: Callable[[int | None], Terms],
         n: int) -> list[int]:
    # The row of key, whose terms are stream(key[1]), holding entry n: a
    # miss grows it to n and no further, in blocks of _BLOCK from its end.
    row = _ROWS.get(key)
    if row is None:
        row = _ROWS[key] = []
    if n >= len(row):
        _extend(row, stream(key[1]), n)
    return row


def _extend(row: list[int], terms: Terms, limit: int) -> None:
    # Append sum_g c p(n - g) for n = len(row)..limit: a term with g <= limit
    # enters the offsets added, or subtracted, |c| times, and each block of
    # _BLOCK new entries is the difference of their slice sums over the
    # shared p table.  The plus sums are a list, so that their slices are
    # freed before the minus slices are taken.
    plus: list[int] = []
    minus: list[int] = []
    for g, c in terms:
        if g > limit:
            break
        (plus if c > 0 else minus).extend([g] * abs(c))
    p = shared_partition_table(limit)
    for start in range(len(row), limit + 1, _BLOCK):
        stop = min(start + _BLOCK, limit + 1)
        row.extend(map(sub, list(_slice_sums(p, plus, start, stop)),
                       _slice_sums(p, minus, start, stop)))


def _triangular_terms(first: int, period: Sequence[int]) -> Terms:
    # first at t_0 = 0, then period[i % len(period)] at t_i, i >= 1; no zeros.
    rest = zip(accumulate(count(1)), islice(cycle(period), 1, None))
    return filter(itemgetter(1), chain(((0, first),), rest))


def _mex_residue_terms(residue: int, modulus: int) -> Terms:
    # Mex m counts p(n - t_(m-1)) - p(n - t_m), hence the +1 and -1 at t_i.
    period = [((i + 1) % modulus == residue) - (i == residue) for i in range(modulus)]
    return _triangular_terms(int(1 % modulus == residue), period)


def _crank_terms(m: int) -> Iterator[tuple[int, int]]:
    lo, sign = abs(m), 1  # k(k + 2|m| - 1)/2 and (-1)^(k+1) at k = 1
    for k in count(1):
        yield lo, sign
        yield lo + k, -sign
        lo, sign = lo + k + abs(m), -sign


# fn -> (parameter name, least value, stream), as in qseries.GF_KINDS.
STREAMS: dict[str, tuple[str | None, int | None, Callable[[int | None], Terms]]] = {
    "p": (None, None, lambda _: ((0, 1),)),
    "M": ("m", None, _crank_terms),
    # Offsets k(k - 1)/2 + kj for k >= 1, which step by j + k - 1.
    "crank_geq": ("j", 0, lambda j: zip(accumulate(count(j + 1), initial=j), cycle((1, -1)))),
    "x_mex": ("m", 1, lambda m: ((triangular(m - 1), 1), (triangular(m), -1))),
    "o": (None, None, lambda _: _mex_residue_terms(1, 2)),
    "e": (None, None, lambda _: _mex_residue_terms(0, 2)),
    "o1": (None, None, lambda _: _mex_residue_terms(1, 4)),
    "o3": (None, None, lambda _: _mex_residue_terms(3, 4)),
}


# The two streams that are not table rows; their keys in _ROWS are private.
_CRANK_ZERO = ("crank_zero", None), lambda _: _triangular_terms(1, (2, -2))
_EWELL = ("ewell", None), lambda _: _triangular_terms(1, (1, -1, -1, 1))
_PRIVATE_STREAMS = dict((_CRANK_ZERO, _EWELL))


def _stream(fn: str, param: int | None) -> Callable[[int | None], Terms]:
    # The stream of fn, once param is checked against its least value.
    name, least, stream = STREAMS[fn]
    if least is not None and param < least:
        raise ValueError(f"{fn} requires {name} >= {least}, got {param}")
    return stream


def count_row(fn: str, param: int | None, ns: range) -> list[int]:
    """The entries at every n of ns of the cached row that the count
    functions read, as one list: fn is a ``STREAMS`` key, whose parameter is
    checked as :func:`table_row` checks it, or ``"crank_zero"`` for
    :func:`crank_zero_expansion` or ``"ewell"`` for Ewell's sums, whose
    entry 2k is the even sum at k and 2k + 1 the odd one.  The row is keyed
    by (fn, param), so M at m and at -m, equal, are two rows here, where
    :func:`crank_count` reads one.  ns is an increasing range of n >= 0; a
    row that does not yet hold its last n grows to that n and no further.
    """
    if ns.step < 0 or (ns and ns[0] < 0):
        raise ValueError(f"count_row takes increasing n >= 0, got {ns}")
    key = (fn, param)
    stream = _PRIVATE_STREAMS[key] if key in _PRIVATE_STREAMS else _stream(fn, param)
    if not ns:
        return []
    return _row(key, stream, ns[-1])[ns.start:ns.stop:ns.step]


def _count(fn: str, param: int | None, n: int) -> int:
    # Entry n of the fn row at param, or 0 below n = 0, as the first entry
    # of count_row over the rest of n's block, so that a per-n read grows the
    # row to the block's end; count_row checks param on every call.
    ns = range(n, (n | (_BLOCK - 1)) + 1) if n >= 0 else range(0)
    return sum(count_row(fn, param, ns)[:1])


def table_row(fn: str, param: int | None, n_max: int) -> list[int]:
    """Row n = 0..n_max of the ``table --fn fn`` stream, as the coefficients
    of the stream's S(q) over (q;q)_inf.  ``STREAMS[fn]`` names the
    parameter, if any, and its least value; a smaller param raises
    ValueError.
    """
    return euler_quotient(_stream(fn, param)(param), n_max)


def crank_count(m: int, n: int) -> int:
    """M(m,n), the generating-function count of partitions of n with crank m.

    Alternating sum of p-differences:
    sum_{k>=1} (-1)^(k+1) [p(n - k(k+2|m|-1)/2) - p(n - k(k+2|m|+1)/2)].
    Agrees with the combinatorial crank for all n except n = 1, where the
    series assigns M(0,1) = -1 and M(1,1) = M(-1,1) = 1.
    """
    # _crank_terms reads only |m|, so M(m, n) and M(-m, n) share a row.
    return _count("M", abs(m), n)


def crank_geq_count(j: int, n: int) -> int:
    """Generating-function count of partitions of n with crank >= j, j >= 0.

    sum_{k>=1} (-1)^(k+1) p(n - k(k-1)/2 - kj).  Matches the combinatorial
    count except at n = 1 with j in {0, 1}, inheriting the crank anomaly.
    """
    return _count("crank_geq", j, n)


def mex_count(m: int, n: int) -> int:
    """Number of partitions of n with mex exactly m, for m >= 1.

    p(n - t_(m-1)) - p(n - t_m) with t the triangular numbers: a partition
    has mex >= m exactly when it contains 1..m-1, and removing one copy of
    each is a weight-preserving bijection onto partitions of n - t_(m-1).
    """
    return _count("x_mex", m, n)


def odd_mex_count(n: int) -> int:
    """Partitions of n whose mex is odd."""
    return _count("o", None, n)


def even_mex_count(n: int) -> int:
    """Partitions of n whose mex is even."""
    return _count("e", None, n)


def mex_1mod4_count(n: int) -> int:
    """Partitions of n whose mex is congruent to 1 mod 4."""
    return _count("o1", None, n)


def mex_3mod4_count(n: int) -> int:
    """Partitions of n whose mex is congruent to 3 mod 4."""
    return _count("o3", None, n)


def crank_zero_expansion(n: int) -> int:
    """M(0,n) as p(n) + 2 sum_{k>=1} (-1)^k p(n - k(k+1)/2)."""
    return _count("crank_zero", None, n)


def ewell_even_sum(k: int) -> int:
    """Ewell's even-index sum: sum_j (-1)^(t_j) p(2k - t_j), equal to q(k).

    The sign is -1 exactly when the triangular number t_j is odd, i.e. when
    j is congruent to 1 or 2 mod 4.
    """
    return _count("ewell", None, 2 * k)


def ewell_odd_sum(k: int) -> int:
    """Ewell's odd-index sum: sum_j (-1)^(t_j) p(2k + 1 - t_j), equal to 0."""
    return _count("ewell", None, 2 * k + 1)


def is_double_pentagonal(n: int) -> bool:
    """Whether n = j(3j +- 1) for some j >= 0 (twice a pentagonal number).

    These are exactly the n at which the count of odd-mex partitions of n
    has the opposite parity from p(n).  Solves the quadratic exactly with
    integer square roots; no floating point.
    """
    if n < 0:
        return False
    d = 12 * n + 1
    s = math.isqrt(d)
    if s * s != d:
        return False
    # n = j(3j+1) gives s = 6j+1; n = j(3j-1) gives s = 6j-1.
    return s % 6 in (1, 5)
