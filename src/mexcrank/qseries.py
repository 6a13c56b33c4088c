"""Exact arithmetic on truncated power series in q, and the named series.

A :class:`TruncatedSeries` holds the integer coefficients of q^0 .. q^N for
some order N.  All arithmetic is exact; mixed-order operands truncate to the
smaller order.  The named generating functions (:func:`gf`) are built from
series primitives only; in particular the partition series is obtained by
*inverting* the pentagonal-number expansion of the q-Pochhammer product, so
its coefficients arrive by a different route than the recurrence in
:mod:`mexcrank.partitions`.  The other quotients by (q;q)_inf (the crank,
crank-at-least-j and top-row-avoiding Frobenius series, and the
distinct-parts series as (q^2;q^2)_inf / (q;q)_inf) are solved by
pentagonal division, one coefficient at a time with O(sqrt(N)) terms each,
so they cost O(N*sqrt(N)) rather than a dense O(N^2) product.  Every
infinite sum is truncated at the first term whose minimal exponent exceeds
N; the exponents grow quadratically in the summation index, so the
truncation is finite and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


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
# expansion of 1/(1 - q^k)) reads already-updated entries, so it walks up.

def _mul_one_minus_qk(coeffs: list[int], k: int) -> None:
    for i in range(len(coeffs) - 1, k - 1, -1):
        coeffs[i] -= coeffs[i - k]


def _div_one_minus_qk(coeffs: list[int], k: int) -> None:
    for i in range(k, len(coeffs)):
        coeffs[i] += coeffs[i - k]


def _div_one_minus_qk_squared(coeffs: list[int], k: int) -> None:
    # Both divisions by (1 - q^k) in one upward pass.
    for i in range(k, min(2 * k, len(coeffs))):
        coeffs[i] += 2 * coeffs[i - k]
    for i in range(2 * k, len(coeffs)):
        coeffs[i] += 2 * coeffs[i - k] - coeffs[i - 2 * k]


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


def _gf_poch_q_inf(order: int) -> TruncatedSeries:
    # Pentagonal number theorem: 1 + sum_{k>=1} (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)).
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g = k * (3 * k - 1) // 2
        if g > order:
            break
        sign = -1 if k % 2 else 1
        coeffs[g] = sign
        if g + k <= order:
            coeffs[g + k] = sign
        k += 1
    return TruncatedSeries(coeffs)


def _gf_euler_inv(order: int) -> TruncatedSeries:
    return _gf_poch_q_inf(order).invert()


def _divide_by_poch(num: Sequence[int]) -> TruncatedSeries:
    """num / (q;q)_inf to the order of num, by the pentagonal recurrence.

    Solves (q;q)_inf * out = num one coefficient at a time:
    out[n] = num[n] - sum_g c_g out[n - g] over the generalized pentagonal
    numbers 0 < g <= n, where c_g = +-1.  That is O(sqrt(n)) terms per
    coefficient instead of a dense product with 1/(q;q)_inf.
    """
    poch = _gf_poch_q_inf(len(num) - 1).coeffs
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


def _gf_distinct(order: int) -> TruncatedSeries:
    # prod (1 + q^k) = (q^2;q^2)_inf / (q;q)_inf: the pentagonal expansion
    # moved to even exponents, then divided.
    num = [0] * (order + 1)
    for g, c in enumerate(_gf_poch_q_inf(order // 2).coeffs):
        num[2 * g] = c
    return _divide_by_poch(num)


def _gf_crank_m(m: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{n>=1} (-1)^(n-1) q^(n(n-1)/2 + n|m|) (1 - q^n).
    m = abs(m)
    num = [0] * (order + 1)
    n = 1
    while True:
        e = n * (n - 1) // 2 + n * m
        if e > order:
            break
        sign = 1 if n % 2 else -1
        num[e] += sign
        if e + n <= order:
            num[e + n] -= sign
        n += 1
    return _divide_by_poch(num)


def _gf_crank_geq_j(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{k>=0} q^((2k+1)(k+j)) (1 - q^(2k+j+1)).
    num = [0] * (order + 1)
    k = 0
    while True:
        e = (2 * k + 1) * (k + j)
        if e > order:
            break
        num[e] += 1
        if e + 2 * k + j + 1 <= order:
            num[e + 2 * k + j + 1] -= 1
        k += 1
    return _divide_by_poch(num)


def _gf_frob_no0(order: int) -> TruncatedSeries:
    # sum_{s>=0} q^(s^2 + 2s) / (q)_s^2, with 1/(q)_s^2 grown in place.
    running = [0] * (order + 1)
    running[0] = 1
    out = list(running)
    s = 1
    while s * s + 2 * s <= order:
        _div_one_minus_qk(running, s)
        _div_one_minus_qk(running, s)
        base = s * s + 2 * s
        for i in range(order - base + 1):
            out[base + i] += running[i]
        s += 1
    return TruncatedSeries(out)


def _gf_crank0_alt(order: int) -> TruncatedSeries:
    # (q)_inf * sum_{k>=0} q^(2k) / (q)_k^2.  Term k reads the running
    # factor 1/(q)_k^2 only up to index order - 2k, so it is divided only
    # that far.  Once k > order - 2k, dividing by (1-q^k) leaves those
    # indices alone, so every later term adds the same running factor: the
    # remaining sum is one pass of running sums over every other index.
    running = [0] * (order + 1)
    running[0] = 1
    total = list(running)
    k = 1
    while 3 * k <= order:
        del running[order - 2 * k + 1:]
        _div_one_minus_qk_squared(running, k)
        total[2 * k:] = [t + r for t, r in zip(total[2 * k:], running)]
        k += 1
    if 2 * k <= order:
        # total[n] += sum over k' >= k with 2k' <= n of running[n - 2k'].
        del running[order - 2 * k + 1:]
        for i in range(2, len(running)):
            running[i] += running[i - 2]
        total[2 * k:] = [t + r for t, r in zip(total[2 * k:], running)]
    return _gf_poch_q_inf(order) * TruncatedSeries(total)


def _gf_frob_noj_top(j: int, order: int) -> TruncatedSeries:
    # (1/(q)_inf) * sum_{b>=0} (-1)^b q^(b(b+1)/2 + jb).
    num = [0] * (order + 1)
    b = 0
    while True:
        e = b * (b + 1) // 2 + j * b
        if e > order:
            break
        num[e] += -1 if b % 2 else 1
        b += 1
    return _divide_by_poch(num)


def _gf_durfee_rect_b(b: int, order: int) -> TruncatedSeries:
    # sum_{s>=0} q^(s^2 + bs) / ((q)_s (q)_(s+b)); the s-th factor pair is
    # grown from the previous one by dividing by (1-q^s) and (1-q^(s+b)).
    running = [0] * (order + 1)
    running[0] = 1
    for i in range(1, min(b, order) + 1):
        _div_one_minus_qk(running, i)
    out = list(running)
    s = 1
    while s * s + b * s <= order:
        _div_one_minus_qk(running, s)
        if s + b <= order:
            _div_one_minus_qk(running, s + b)
        base = s * s + b * s
        for i in range(order - base + 1):
            out[base + i] += running[i]
        s += 1
    return TruncatedSeries(out)


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
