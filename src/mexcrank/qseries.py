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
* ``_running_sum`` adds up sum_s q^e(s) / ((q)_s (q)_(s+b)) with one running
  factor, cut to N - e(s) before each division by (1 - q^k).  It serves the
  zero-free Frobenius series, the Durfee-rectangle decompositions and the
  Heine sum behind ``crank0_alt``.

The partition series alone is the *inverted* pentagonal product, so its
coefficients arrive by a different route than the recurrence in
:mod:`mexcrank.partitions`.  Every infinite sum stops at the first term
whose exponent exceeds N; the exponents increase with the summation index,
so the truncation is finite and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence


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
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} outside truncation order {self.order}")
        return self._coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[k] + b[k] for k in range(n + 1)])

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        n = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        return TruncatedSeries([a[k] - b[k] for k in range(n + 1)])

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries([-c for c in self._coeffs])

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
        return TruncatedSeries((0,) * min(k, n + 1) + self._coeffs[: n + 1 - k])

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = "" if (abs(c) == 1 and k > 0) else str(abs(c))
            power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            sep = "*" if mag and power else ""
            terms.append(("-" if c < 0 else "+", f"{mag}{sep}{power}" or "1"))
            if len(terms) == 8:
                terms.append(("+", "..."))
                break
        if not terms:
            body = "0"
        else:
            sign, first = terms[0]
            body = ("-" if sign == "-" else "") + first
            body += "".join(f" {s} {t}" for s, t in terms[1:])
        return f"{body} + O(q^{self.order + 1})"

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
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    for i in range(1, min(k, order) + 1):
        _mul_one_minus_qk(coeffs, i)
    return TruncatedSeries(coeffs)


# In-place primitives on coefficient lists.  Multiplying by (1 - q^k) reads
# below the write index, so it walks downward; dividing (the geometric
# expansion of 1/(1 - q^k)) reads already-updated entries, so it walks up,
# one block of k entries at a time: a block reads only the block below it.

def _mul_one_minus_qk(coeffs: list[int], k: int) -> None:
    for i in range(len(coeffs) - 1, k - 1, -1):
        coeffs[i] -= coeffs[i - k]


def _div_one_minus_qk(coeffs: list[int], k: int) -> None:
    for i in range(k, len(coeffs), k):
        coeffs[i:i + k] = [c + d for c, d in zip(coeffs[i:i + k], coeffs[i - k:i])]


# --- named generating functions -------------------------------------------

@dataclass(frozen=True, slots=True)
class GfKind:
    """A named generating function plus its integer parameter, if any.

    Prefer the classmethod constructors; they name the parameter.  Parameter
    rules: ``crank_m`` takes any integer m, ``crank_geq_j`` and
    ``frob_noj_top`` need j >= 0, ``durfee_rect_b`` needs b >= 0, the rest
    take no parameter.
    """

    tag: str
    param: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in GF_KINDS:
            raise InvalidParamsError(f"unknown generating-function tag {self.tag!r}")
        name, least, _ = GF_KINDS[self.tag]
        if name is None:
            if self.param is not None:
                raise InvalidParamsError(f"{self.tag} takes no parameter")
        elif self.param is None:
            raise InvalidParamsError(f"{self.tag} requires parameter {name}")
        elif least is not None and self.param < least:
            raise InvalidParamsError(f"{self.tag} requires {name} >= {least}, got {self.param}")

    @classmethod
    def euler_inv(cls) -> GfKind:
        """1/(q;q)_inf: coefficients are the partition numbers p(n)."""
        return cls("euler_inv")

    @classmethod
    def poch_q_inf(cls) -> GfKind:
        """(q;q)_inf via the pentagonal number theorem (sparse +-1 coefficients)."""
        return cls("poch_q_inf")

    @classmethod
    def distinct(cls) -> GfKind:
        """Distinct-part partition numbers q(n): the product of (1+q^k),
        built as (q^2;q^2)_inf / (q;q)_inf by pentagonal division."""
        return cls("distinct")

    @classmethod
    def crank_m(cls, m: int) -> GfKind:
        """Partitions of n with crank m (generating-function counts M(m,n))."""
        return cls("crank_m", m)

    @classmethod
    def crank_geq_j(cls, j: int) -> GfKind:
        """Partitions of n with crank >= j, for j >= 0."""
        return cls("crank_geq_j", j)

    @classmethod
    def frob_no0(cls) -> GfKind:
        """Partitions whose Frobenius symbol contains no 0 in either row."""
        return cls("frob_no0")

    @classmethod
    def crank0_alt(cls) -> GfKind:
        """Crank-zero counts via (q;q)_inf * sum_k q^(2k)/(q;q)_k^2."""
        return cls("crank0_alt")

    @classmethod
    def frob_noj_top(cls, j: int) -> GfKind:
        """Partitions whose Frobenius symbol has no j in its top row."""
        return cls("frob_noj_top", j)

    @classmethod
    def durfee_rect_b(cls, b: int) -> GfKind:
        """All partitions, decomposed by Durfee rectangles of shape s x (s+b)."""
        return cls("durfee_rect_b", b)


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

    The exponents must increase.  Term s reads R_s only up to index
    order - exponent(s), so the running factor is cut there before dividing.
    """
    out = [0] * (order + 1)
    running = [1] + [0] * order
    for s in count():
        e = exponent(s)
        if e > order:
            return TruncatedSeries(out)
        del running[order - e + 1:]
        for k in factors(s) if s else start:
            _div_one_minus_qk(running, k)
        out[e:] = [o + r for o, r in zip(out[e:], running)]


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
    # sum_{s>=0} q^(s^2 + bs) / ((q)_s (q)_(s+b)).
    return _running_sum(order, range(1, b + 1), lambda s: s * s + b * s, lambda s: (s, s + b))


# Every named generating function, by tag: the name of its integer
# parameter (None for none), the least value that parameter may take (None
# for no bound), and its builder, called as builder(order) or
# builder(param, order).
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
