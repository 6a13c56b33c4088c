"""Exact arithmetic on truncated power series in q, and the named series.

A :class:`TruncatedSeries` holds the integer coefficients of q^0 .. q^N for
some order N.  All arithmetic is exact; mixed-order operands truncate to the
smaller order.  The named generating functions (:func:`gf`) come from two
private kernels, one per shape of series:

* ``_sparse`` turns a stream of (exponent, coefficient) terms into
  coefficients.  It serves the pentagonal product (q;q)_inf and the sparse
  numerators over it: the crank, crank-at-least-j and top-row-avoiding
  Frobenius series, and the distinct-parts series as (q^2;q^2)_inf /
  (q;q)_inf.  Those quotients are solved by pentagonal division with
  O(sqrt(N)) terms per coefficient, so they cost O(N*sqrt(N)) rather than
  a dense O(N^2) product.  The division runs a block of 128 coefficients
  at a time, behind 128 zeros that stand for the coefficients below 0:
  every offset from 128 up to the block's end is a C-level column sum of
  plain slices, and only the 18 offsets below 128 run per coefficient.
* ``_running_sum`` evaluates sum_s q^e(s) / ((q)_s (q^(b+1);q)_s) by
  Horner's rule, from the last term with e(s) <= N outwards, in place in
  one list of N + 1 coefficients: each step divides the suffix from e(s)
  by the (1 - q^k) of term s and sets the coefficient at e(s-1) to 1, so
  no pass adds terms into a total.  It serves the zero-free Frobenius
  series, the Durfee-rectangle decompositions, whose start factors
  1/(q)_b come after it, and the Heine sum behind ``crank0_alt``.

The partition series alone is the *inverted* pentagonal product, so its
coefficients arrive by a different route than the recurrence in
:mod:`mexcrank.partitions`.  Every infinite sum stops at the first term
whose exponent exceeds N; the exponents increase with the summation index,
so the truncation is finite and exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, count, repeat, takewhile
from operator import add, mul, sub

from . import _Value


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


class InvalidParamsError(ValueError):
    """Raised for a generating-function kind with a missing or bad parameter."""


class TruncatedSeries(_Value):
    """Coefficients c0..cN of a formal power series in q, exactly.

    Immutable, with its one field ``coeffs``, so share it freely: equal to
    a series with the same coefficients, and hashed by them.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = (1,), order: int | None = None):
        coeffs = tuple(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError(f"order must be nonnegative, got {order}")
            if len(coeffs) > order + 1:
                coeffs = coeffs[: order + 1]
            elif len(coeffs) < order + 1:
                coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        elif not coeffs:
            raise ValueError("empty coefficient sequence and no order given")
        self._init(coeffs)

    @property
    def order(self) -> int:
        """Highest retained exponent N."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        """Coefficient of q^k; k must lie within 0..order."""
        coeffs = self.coeffs
        if not 0 <= k < len(coeffs):
            raise IndexError(f"exponent {k} outside truncation order {self.order}")
        return coeffs[k]

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return TruncatedSeries(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return TruncatedSeries(map(sub, self.coeffs, other.coeffs))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        # Loop over the operand with fewer nonzero terms: a sparse series
        # times a dense one then costs O(terms * N) in either order.
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 1:
                out[i:] = map(add, out[i:], b)
            elif ai == -1:
                out[i:] = map(sub, out[i:], b)
            elif ai:
                out[i:] = map(add, out[i:], map(mul, repeat(ai), b))
        return TruncatedSeries(out)

    def invert(self) -> TruncatedSeries:
        """Reciprocal series to the same order.

        Requires constant term +1 or -1 so that the reciprocal has integer
        coefficients; raises :class:`NonUnitError` otherwise.
        """
        a = self.coeffs
        if a[0] not in (1, -1):
            raise NonUnitError(f"constant term must be +1 or -1, got {a[0]}")
        n = self.order
        nonzero = [(i, a[i]) for i in range(1, n + 1) if a[i]]
        out = [0] * (n + 1)
        out[0] = a[0]
        for k in range(1, n + 1):
            acc = 0
            for i, ai in nonzero:
                if i > k:
                    break
                acc += ai * out[k - i]
            out[k] = -a[0] * acc
        return TruncatedSeries(out)

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by q^k: coefficients move up, the order stays put."""
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        n = self.order
        return TruncatedSeries((0,) * min(k, n + 1) + self.coeffs[: max(n + 1 - k, 0)])

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def one(order: int) -> TruncatedSeries:
    """The constant series 1 at the given order."""
    return TruncatedSeries((1,), order)


def zero(order: int) -> TruncatedSeries:
    """The zero series at the given order."""
    return TruncatedSeries((0,), order)


def q_power(k: int, order: int) -> TruncatedSeries:
    """The monomial q^k at the given order (zero if k exceeds it)."""
    return one(order).shift(k)


def pochhammer_finite(k: int, order: int) -> TruncatedSeries:
    """The finite product (1-q)(1-q^2)...(1-q^k), truncated.  k=0 gives 1."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for i in range(1, min(k, order) + 1):
        _mul_one_minus_qk(coeffs, i)
    return TruncatedSeries(coeffs)


# In-place primitives on coefficient lists.  Multiplying by (1 - q^k) is one
# C-level subtraction of two slices, both taken before the write.  Dividing
# (the geometric expansion of 1/(1 - q^k)) the suffix from lo makes each
# residue class mod k a running sum.  For small k (k * k below the suffix
# length) that is k C-level accumulates over the strided classes; otherwise
# it walks up one block of k entries at a time, a block reading only the
# block below it.  Either way there are at most sqrt(len) slice operations
# per division.

def _mul_one_minus_qk(coeffs: list[int], k: int) -> None:
    coeffs[k:] = map(sub, coeffs[k:], coeffs[:len(coeffs) - k])


def _div_one_minus_qk(coeffs: list[int], k: int, lo: int = 0) -> None:
    if k * k < len(coeffs) - lo:
        for r in range(lo, lo + k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:
        for i in range(lo + k, len(coeffs), k):
            coeffs[i:i + k] = map(add, coeffs[i:i + k], coeffs[i - k:i])


# --- named generating functions -------------------------------------------

class GfKind(_Value):
    """A named generating function plus its integer parameter, if any, as
    ``GfKind(tag, param)``; :data:`GF_KINDS` lists the tags and what each
    parameter must be.

    Immutable: equal to a ``GfKind`` with the same tag and parameter, and
    hashed by them, so that it can key a memo.
    """

    __slots__ = ("tag", "param")
    tag: str
    param: int | None

    def __init__(self, tag: str, param: int | None = None) -> None:
        if tag not in GF_KINDS:
            raise InvalidParamsError(f"unknown generating-function tag {tag!r}")
        name, least, _ = GF_KINDS[tag]
        if name is None:
            if param is not None:
                raise InvalidParamsError(f"{tag} takes no parameter")
        elif param is None:
            raise InvalidParamsError(f"{tag} requires parameter {name}")
        elif least is not None and param < least:
            raise InvalidParamsError(f"{tag} requires {name} >= {least}, got {param}")
        self._init(tag, param)


def gf(kind: GfKind, order: int) -> TruncatedSeries:
    """Build the named generating function, exactly, to the given order."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    name, _, builder = GF_KINDS[kind.tag]
    if name is None:
        return builder(order)
    return builder(kind.param, order)


# --- the two series kernels -------------------------------------------------

def _sparse(order: int, terms: Iterable[tuple[int, int]]) -> list[int]:
    """Coefficients 0..order of the sum of c * q^e over (e, c) in terms.

    The exponents must not decrease; the first one past ``order`` ends the
    stream, so an endless stream of terms is fine.
    """
    coeffs = [0] * (order + 1)
    for e, c in terms:
        if e > order:
            break
        coeffs[e] += c
    return coeffs


def _pentagonal() -> Iterator[tuple[int, int]]:
    # (q;q)_inf = 1 + sum_{k>=1} (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)).
    yield 0, 1
    for k in count(1):
        g, sign = k * (3 * k - 1) // 2, (-1) ** k
        yield g, sign
        yield g + k, sign


# _divide_by_poch works a block of _BLOCK coefficients at a time, each block
# starting at a multiple of _BLOCK.  Coefficient n sits at out[_BLOCK + n],
# behind zeros for n < 0: n - g > start - stop >= -_BLOCK for every offset
# g < stop.  An offset g >= _BLOCK reads only below the block's start, so
# the terms of these "far" offsets for the whole block are column sums of
# plain slices of out, done in C.  Only the 18 "near" offsets, below _BLOCK,
# run per n, since they read the block itself.  The same block rule grows
# the p table in mexcrank.partitions, coded apart.
_BLOCK = 128


def _divide_by_poch(num: Sequence[int]) -> list[int]:
    """num / (q;q)_inf to the order of num, by the pentagonal recurrence.

    Solves (q;q)_inf * out = num one coefficient at a time:
    out[n] = num[n] - sum_g c_g out[n - g] over the generalized pentagonal
    numbers 0 < g <= n, where c_g = +-1.  That is O(sqrt(n)) terms per
    coefficient instead of a dense product with 1/(q;q)_inf.
    """
    size = len(num)
    terms = list(takewhile(lambda term: term[0] < size, _pentagonal()))[1:]
    minus = [g for g, c in terms if c < 0]
    plus = [g for g, c in terms if c > 0]
    i, j = bisect_left(minus, _BLOCK), bisect_left(plus, _BLOCK)
    near_minus, far_minus, near_plus, far_plus = minus[:i], minus[i:], plus[:j], plus[j:]
    out = [0] * _BLOCK
    for start in range(0, size, _BLOCK):
        stop = min(start + _BLOCK, size)
        far = [[out[start + _BLOCK - g:stop + _BLOCK - g] for g in offsets[:bisect_left(offsets, stop)]]
               for offsets in (far_minus, far_plus)]
        block = map(sub, map(sum, zip(num[start:stop], *far[0])),
                    map(sum, zip(repeat(0, stop - start), *far[1])))
        for i, acc in zip(range(start + _BLOCK, stop + _BLOCK), block):
            for g in near_minus:
                acc += out[i - g]
            for g in near_plus:
                acc -= out[i - g]
            out.append(acc)
    del out[:_BLOCK]
    return out


def _running_sum(order: int, exponent: Callable[[int], int],
                 factors: Callable[[int], Iterable[int]]) -> list[int]:
    """Coefficients 0..order of sum_{s>=0} q^exponent(s) * R_s, where R_0 is 1
    and R_s is R_(s-1) over the (1 - q^k) for k in factors(s).

    The exponents must increase.  The sum is evaluated from its last term
    with exponent <= order outwards (Horner), in one list: it holds
    q^exponent(s) * T_s, with T_last = 1 and
    T_(s-1) = 1 + q^(exponent(s) - exponent(s-1)) * T_s over the factors(s).
    A step divides the suffix from exponent(s) and sets the coefficient at
    exponent(s-1) to 1; everything below exponent(s) is still 0.
    """
    exponents = list(takewhile(lambda e: e <= order, map(exponent, count())))
    coeffs = [0] * (order + 1)
    if not exponents:
        return coeffs
    coeffs[exponents[-1]] = 1
    for s in range(len(exponents) - 1, 0, -1):
        for k in factors(s):
            _div_one_minus_qk(coeffs, k, exponents[s])
        coeffs[exponents[s - 1]] = 1
    return coeffs


def _gf_poch_q_inf(order: int) -> TruncatedSeries:
    return TruncatedSeries(_sparse(order, _pentagonal()))


def _gf_euler_inv(order: int) -> TruncatedSeries:
    return _gf_poch_q_inf(order).invert()


def _gf_distinct(order: int) -> TruncatedSeries:
    # prod (1 + q^k) = (q^2;q^2)_inf / (q;q)_inf.
    return TruncatedSeries(_divide_by_poch(_sparse(order, ((2 * g, c) for g, c in _pentagonal()))))


def _gf_crank_m(m: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{n>=1} (-1)^(n-1) q^(n(n-1)/2 + n|m|) (1 - q^n).
    terms = (term for n in count(1) for e in [n * (n - 1) // 2 + n * abs(m)]
             for term in ((e, (-1) ** (n - 1)), (e + n, (-1) ** n)))
    return TruncatedSeries(_divide_by_poch(_sparse(order, terms)))


def _gf_crank_geq_j(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{k>=0} q^((2k+1)(k+j)) (1 - q^(2k+j+1)).
    terms = (term for k in count() for e in [(2 * k + 1) * (k + j)]
             for term in ((e, 1), (e + 2 * k + j + 1, -1)))
    return TruncatedSeries(_divide_by_poch(_sparse(order, terms)))


def _gf_frob_noj_top(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{b>=0} (-1)^b q^(b(b+1)/2 + jb).
    terms = ((b * (b + 1) // 2 + j * b, (-1) ** b) for b in count())
    return TruncatedSeries(_divide_by_poch(_sparse(order, terms)))


def _gf_frob_no0(order: int) -> TruncatedSeries:
    # sum_{s>=0} q^(s^2 + 2s) / (q)_s^2.
    return TruncatedSeries(_running_sum(order, lambda s: s * s + 2 * s, lambda s: (s, s)))


def _gf_crank0_alt(order: int) -> TruncatedSeries:
    # (q)_inf * sum_{k>=0} q^(2k) / (q)_k^2.
    heine = TruncatedSeries(_running_sum(order, lambda k: 2 * k, lambda k: (k, k)))
    return _gf_poch_q_inf(order) * heine


def _gf_durfee_rect_b(b: int, order: int) -> TruncatedSeries:
    # (1/(q)_b) * sum_{s>=0} q^(s^2 + bs) / ((q)_s (q^(b+1);q)_s).  Dividing by
    # (1 - q^k) with k > order changes nothing to the order, so to the order
    # 1/(q)_b is 1/(q;q)_inf times the (1 - q^k) for k = b+1..order.  The b
    # divisions touch about b * order entries, the multiplications about
    # (order - b)^2 / 2: the two routes take the same time at b = 0.3 * order
    # (measured at orders 5000, 10000 and 20000), so the cut is there.
    coeffs = _running_sum(order, lambda s: s * s + b * s, lambda s: (s, s + b))
    if 10 * b > 3 * order:
        coeffs = _divide_by_poch(coeffs)
        for k in range(b + 1, order + 1):
            _mul_one_minus_qk(coeffs, k)
    else:
        for k in range(1, b + 1):
            _div_one_minus_qk(coeffs, k)
    return TruncatedSeries(coeffs)


# Every named generating function, by tag: the name of its integer
# parameter (None for none), the least value that parameter may take (None
# for no bound), and its builder, called as builder(order) or
# builder(param, order).  What each series counts:
#
#   euler_inv       1/(q;q)_inf, the partition numbers p(n)
#   poch_q_inf      (q;q)_inf by the pentagonal number theorem
#   distinct        partitions into distinct parts q(n), the product of (1+q^k)
#   crank_m         partitions with crank m, M(m,n)
#   crank_geq_j     partitions with crank >= j
#   frob_no0        partitions with no 0 in either row of the Frobenius symbol
#   crank0_alt      crank-zero counts, (q;q)_inf * sum_k q^(2k)/(q;q)_k^2
#   frob_noj_top    partitions with no j in the top row of the Frobenius symbol
#   durfee_rect_b   all partitions, by Durfee rectangles of shape s x (s+b)
GF_KINDS: dict[str, tuple[str | None, int | None, Callable[..., TruncatedSeries]]] = {
    "euler_inv": (None, None, _gf_euler_inv),
    "poch_q_inf": (None, None, _gf_poch_q_inf),
    "distinct": (None, None, _gf_distinct),
    "crank_m": ("m", None, _gf_crank_m),
    "crank_geq_j": ("j", 0, _gf_crank_geq_j),
    "frob_no0": (None, None, _gf_frob_no0),
    "crank0_alt": (None, None, _gf_crank0_alt),
    "frob_noj_top": ("j", 0, _gf_frob_noj_top),
    "durfee_rect_b": ("b", 0, _gf_durfee_rect_b),
}
