"""Exact arithmetic on truncated power series in q, and the named series.

A :class:`TruncatedSeries` holds the integer coefficients of q^0 .. q^N for
some order N.  All arithmetic is exact; mixed-order operands truncate to the
smaller order.  The named generating functions (:func:`gf`) come from two
private kernels, one per shape of series:

* ``_sparse`` turns a stream of (exponent, coefficient) terms into
  coefficients.  It serves the pentagonal product (q;q)_inf and the sparse
  numerators over it: the crank, crank-at-least-j and top-row-avoiding
  Frobenius series, and the distinct-parts series as (q^2;q^2)_inf /
  (q;q)_inf.  Those quotients are solved by pentagonal division, one
  coefficient at a time with O(sqrt(N)) terms each, so they cost
  O(N*sqrt(N)) rather than a dense O(N^2) product.
* ``_running_sum`` evaluates sum_s q^e(s) / ((q)_s (q)_(s+b)) by Horner's
  rule, from the last term with e(s) <= N outwards, on one tail cut to
  N - e(s): each step divides it by the (1 - q^k) of term s and prepends
  1 and the gap down to e(s-1), so no pass adds terms into a total.  It
  serves the zero-free Frobenius series, the Durfee-rectangle decompositions
  and the Heine sum behind ``crank0_alt``.

The partition series alone is the *inverted* pentagonal product, so its
coefficients arrive by a different route than the recurrence in
:mod:`mexcrank.partitions`.  Every infinite sum stops at the first term
whose exponent exceeds N; the exponents increase with the summation index,
so the truncation is finite and exact.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import accumulate, count, takewhile
from operator import add

from . import _Value


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


class InvalidParamsError(ValueError):
    """Raised for a generating-function kind with a missing or bad parameter."""


class TruncatedSeries:
    """Coefficients c0..cN of a formal power series in q, exactly.

    Instances are immutable; share them freely.
    """

    __slots__ = ("_coeffs",)

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
        self._coeffs = coeffs

    @property
    def order(self) -> int:
        """Highest retained exponent N."""
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> int:
        """Coefficient of q^k; k must lie within 0..order."""
        coeffs = self._coeffs
        if not 0 <= k < len(coeffs):
            raise IndexError(f"exponent {k} outside truncation order {self.order}")
        return coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[k] + b[k] for k in range(n + 1)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[k] - b[k] for k in range(n + 1)])

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self._coeffs[: n + 1], other._coeffs[: n + 1]
        # Loop over the operand with fewer nonzero terms: a sparse series
        # times a dense one then costs O(terms * N) in either order.
        if sum(1 for c in a if c) > sum(1 for c in b if c):
            a, b = b, a
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai:
                out[i:] = [o + ai * bj for o, bj in zip(out[i:], b)]
        return TruncatedSeries(out)

    def invert(self) -> TruncatedSeries:
        """Reciprocal series to the same order.

        Requires constant term +1 or -1 so that the reciprocal has integer
        coefficients; raises :class:`NonUnitError` otherwise.
        """
        a = self._coeffs
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
        return TruncatedSeries((0,) * min(k, n + 1) + self._coeffs[: max(n + 1 - k, 0)])

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
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


# In-place primitives on coefficient lists.  Multiplying by (1 - q^k) reads
# below the write index, so it walks downward.  Dividing (the geometric
# expansion of 1/(1 - q^k)) makes each residue class mod k a running sum.
# For small k (k * k < len) that is k C-level accumulates over the strided
# classes; otherwise it walks up one block of k entries at a time, a block
# reading only the block below it.  Either way there are at most sqrt(len)
# slice operations per division.

def _mul_one_minus_qk(coeffs: list[int], k: int) -> None:
    for i in range(len(coeffs) - 1, k - 1, -1):
        coeffs[i] -= coeffs[i - k]


def _div_one_minus_qk(coeffs: list[int], k: int) -> None:
    if k * k < len(coeffs):
        for r in range(k):
            coeffs[r::k] = accumulate(coeffs[r::k])
    else:
        for i in range(k, len(coeffs), k):
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


def _divide_by_poch(num: Sequence[int]) -> TruncatedSeries:
    """num / (q;q)_inf to the order of num, by the pentagonal recurrence.

    Solves (q;q)_inf * out = num one coefficient at a time:
    out[n] = num[n] - sum_g c_g out[n - g] over the generalized pentagonal
    numbers 0 < g <= n, where c_g = +-1.  That is O(sqrt(n)) terms per
    coefficient instead of a dense product with 1/(q;q)_inf.
    """
    poch = _sparse(len(num) - 1, _pentagonal())
    minus = [g for g, c in enumerate(poch) if c < 0]
    plus = [g for g, c in enumerate(poch) if c > 0 and g]
    out: list[int] = []
    for n, acc in enumerate(num):
        for g in minus:
            if g > n:
                break
            acc += out[n - g]
        for g in plus:
            if g > n:
                break
            acc -= out[n - g]
        out.append(acc)
    return TruncatedSeries(out)


def _running_sum(order: int, start: Iterable[int], exponent: Callable[[int], int],
                 factors: Callable[[int], Iterable[int]]) -> TruncatedSeries:
    """sum_{s>=0} q^exponent(s) * R_s to the order, where R_0 is 1 over the
    (1 - q^k) for k in start, and R_s is R_(s-1) over those for k in factors(s).

    The exponents must increase.  The sum is evaluated from its last term
    with exponent <= order outwards (Horner): T_last = 1, and
    T_(s-1) = 1 + q^(exponent(s) - exponent(s-1)) * T_s over the factors(s),
    each T_s held only to order - exponent(s).  The result is q^exponent(0)
    times T_0 over the start factors.
    """
    exponents = list(takewhile(lambda e: e <= order, map(exponent, count())))
    if not exponents:
        return zero(order)
    tail = [1] + [0] * (order - exponents[-1])
    for s in range(len(exponents) - 1, 0, -1):
        for k in factors(s):
            _div_one_minus_qk(tail, k)
        tail[:0] = [1] + [0] * (exponents[s] - exponents[s - 1] - 1)
    for k in start:
        _div_one_minus_qk(tail, k)
    return TruncatedSeries([0] * exponents[0] + tail)


def _gf_poch_q_inf(order: int) -> TruncatedSeries:
    return TruncatedSeries(_sparse(order, _pentagonal()))


def _gf_euler_inv(order: int) -> TruncatedSeries:
    return _gf_poch_q_inf(order).invert()


def _gf_distinct(order: int) -> TruncatedSeries:
    # prod (1 + q^k) = (q^2;q^2)_inf / (q;q)_inf.
    return _divide_by_poch(_sparse(order, ((2 * g, c) for g, c in _pentagonal())))


def _gf_crank_m(m: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{n>=1} (-1)^(n-1) q^(n(n-1)/2 + n|m|) (1 - q^n).
    terms = (term for n in count(1) for e in [n * (n - 1) // 2 + n * abs(m)]
             for term in ((e, (-1) ** (n - 1)), (e + n, (-1) ** n)))
    return _divide_by_poch(_sparse(order, terms))


def _gf_crank_geq_j(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{k>=0} q^((2k+1)(k+j)) (1 - q^(2k+j+1)).
    terms = (term for k in count() for e in [(2 * k + 1) * (k + j)]
             for term in ((e, 1), (e + 2 * k + j + 1, -1)))
    return _divide_by_poch(_sparse(order, terms))


def _gf_frob_noj_top(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{b>=0} (-1)^b q^(b(b+1)/2 + jb).
    terms = ((b * (b + 1) // 2 + j * b, (-1) ** b) for b in count())
    return _divide_by_poch(_sparse(order, terms))


def _gf_frob_no0(order: int) -> TruncatedSeries:
    # sum_{s>=0} q^(s^2 + 2s) / (q)_s^2.
    return _running_sum(order, (), lambda s: s * s + 2 * s, lambda s: (s, s))


def _gf_crank0_alt(order: int) -> TruncatedSeries:
    # (q)_inf * sum_{k>=0} q^(2k) / (q)_k^2.
    return _gf_poch_q_inf(order) * _running_sum(order, (), lambda k: 2 * k, lambda k: (k, k))


def _gf_durfee_rect_b(b: int, order: int) -> TruncatedSeries:
    # sum_{s>=0} q^(s^2 + bs) / ((q)_s (q)_(s+b)).  Dividing by (1 - q^k) with
    # k > order changes nothing to the order, so the start factors stop there.
    start = range(1, min(b, order) + 1)
    return _running_sum(order, start, lambda s: s * s + b * s, lambda s: (s, s + b))


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
