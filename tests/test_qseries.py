"""Tests for exact truncated power series and the named generating functions."""

from __future__ import annotations

import random

import pytest

from mexcrank.partitions import distinct_parts_count, partition_count
from mexcrank.qseries import (
    GfKind,
    InvalidParamsError,
    NonUnitError,
    TruncatedSeries,
    _div_one_minus_qk,
    _divide_by_poch,
    _running_sum,
    gf,
    one,
    pochhammer_finite,
    q_power,
    zero,
)


def random_series(rng: random.Random, order: int, unit: bool = False) -> TruncatedSeries:
    coeffs = [rng.randint(-5, 5) for _ in range(order + 1)]
    if unit:
        coeffs[0] = rng.choice((1, -1))
    return TruncatedSeries(coeffs)


class TestConstruction:
    def test_pads_and_truncates_to_order(self):
        assert TruncatedSeries((1, 2), order=4).coeffs == (1, 2, 0, 0, 0)
        assert TruncatedSeries((1, 2, 3, 4), order=1).coeffs == (1, 2)

    def test_order_property(self):
        assert TruncatedSeries((1, 0, 0)).order == 2
        assert one(7).order == 7

    def test_empty_without_order_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1,), order=-1)

    def test_getitem_bounds(self):
        s = TruncatedSeries((5, 6, 7))
        assert s[0] == 5 and s[2] == 7
        with pytest.raises(IndexError):
            s[3]
        with pytest.raises(IndexError):
            s[-1]

    def test_equality_and_hash(self):
        assert TruncatedSeries((1, 2)) == TruncatedSeries((1, 2))
        assert TruncatedSeries((1, 2)) != TruncatedSeries((1, 2, 0))

    def test_str_and_repr_smoke(self):
        s = TruncatedSeries((1, -1, 0, 2), order=10)
        assert "TruncatedSeries" in repr(s)


class TestArithmetic:
    def test_add_sub_neg(self):
        a = TruncatedSeries((1, 1))
        b = TruncatedSeries((1, -1))
        assert (a + b).coeffs == (2, 0)
        assert (a - b).coeffs == (0, 2)

    def test_mul_examples(self):
        a = TruncatedSeries((1, 1, 0))
        assert (a * a).coeffs == (1, 2, 1)
        s = TruncatedSeries((3, 1, 4, 1, 5))
        assert (s * one(4)) == s

    def test_sparse_times_dense_either_way_round(self):
        order = 300
        poch = gf(GfKind("poch_q_inf"), order)
        rng = random.Random(300)
        dense = random_series(rng, order)
        # Terms of +-1 in the sparser operand take one path, every other
        # coefficient another: the pentagonal product has only the first
        # kind, the second operand both, from its constant term on.
        mixed = TruncatedSeries([-3] + [rng.choice((1, -1, 2, -7, 10**30)) if rng.random() < 0.1
                                        else 0 for _ in range(order)])
        for sparse in (poch, mixed):
            naive = [0] * (order + 1)
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    naive[i + j] += sparse[i] * dense[j]
            assert (sparse * dense).coeffs == tuple(naive)
            assert (dense * sparse).coeffs == tuple(naive)
        assert poch * gf(GfKind("euler_inv"), order) == one(order)
        assert gf(GfKind("euler_inv"), order) * poch == one(order)

    def test_mixed_orders_truncate_to_smaller(self):
        a = TruncatedSeries((1, 2, 3, 4))
        b = TruncatedSeries((1, 1))
        assert (a + b).order == 1
        assert (a * b).coeffs == (1, 3)

    def test_ring_laws_on_sampled_triples(self):
        rng = random.Random(20260825)
        for _ in range(25):
            a = random_series(rng, 30)
            b = random_series(rng, 30)
            c = random_series(rng, 30)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_shift(self):
        assert one(4).shift(2) == q_power(2, 4)
        assert TruncatedSeries((1, 1), order=3).shift(1).coeffs == (0, 1, 1, 0)
        assert one(3).shift(9).coeffs == (0, 0, 0, 0)
        with pytest.raises(ValueError):
            one(3).shift(-1)

    @pytest.mark.parametrize("order", range(9))
    def test_shift_keeps_the_order(self, order):
        # Dense definition: coefficient n of q^k a is a[n - k], 0 for n < k.
        rng = random.Random(order)
        a = random_series(rng, order)
        for k in range(3 * (order + 1) + 1):
            shifted = a.shift(k)
            assert shifted.order == order, k
            assert shifted.coeffs == tuple(a[n - k] if n >= k else 0
                                           for n in range(order + 1)), k
        assert q_power(5, 3) == zero(3)


class TestInvert:
    def test_identity(self):
        assert one(6).invert() == one(6)

    def test_geometric_series(self):
        assert TruncatedSeries((1, -1), order=5).invert().coeffs == (1,) * 6

    def test_two_sided_inverse_for_sampled_units(self):
        rng = random.Random(977)
        for _ in range(20):
            a = random_series(rng, 25, unit=True)
            inv = a.invert()
            assert (a * inv) == one(25)
            assert (inv * a) == one(25)

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            TruncatedSeries((2, 1)).invert()
        with pytest.raises(NonUnitError):
            TruncatedSeries((0, 1)).invert()


class TestPochhammer:
    def test_small_products(self):
        assert pochhammer_finite(0, 4) == one(4)
        assert pochhammer_finite(1, 4).coeffs == (1, -1, 0, 0, 0)
        assert pochhammer_finite(2, 5).coeffs == (1, -1, -1, 1, 0, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            pochhammer_finite(-1, 4)

    @pytest.mark.parametrize("k", [0, 3])
    def test_negative_order_rejected_like_one(self, k):
        # The same message as one(), TruncatedSeries(..., order) and gf().
        message = "order must be nonnegative, got -1"
        for build in (lambda: pochhammer_finite(k, -1), lambda: one(-1),
                      lambda: TruncatedSeries((1, 2), -1),
                      lambda: gf(GfKind("euler_inv"), -1)):
            with pytest.raises(ValueError, match=message):
                build()

    def test_matches_explicit_product(self):
        expected = one(20)
        for k in range(1, 7):
            expected = expected * (one(20) - q_power(k, 20))
        assert pochhammer_finite(6, 20) == expected


class TestGfKind:
    def test_paramless_kinds_reject_params(self):
        with pytest.raises(InvalidParamsError):
            GfKind("euler_inv", 3)

    def test_param_kinds_require_params(self):
        with pytest.raises(InvalidParamsError):
            GfKind("crank_m")
        with pytest.raises(InvalidParamsError):
            GfKind("crank_geq_j", -1)
        with pytest.raises(InvalidParamsError):
            GfKind("frob_noj_top", -2)
        with pytest.raises(InvalidParamsError):
            GfKind("durfee_rect_b", -1)

    def test_crank_m_accepts_any_integer(self):
        assert GfKind("crank_m", -7).param == -7

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidParamsError):
            GfKind("nonsense")

    def test_kinds_are_values(self):
        assert GfKind("crank_m", 2) == GfKind("crank_m", 2)
        assert len({GfKind("euler_inv"), GfKind("euler_inv")}) == 1


# Orders on both sides of the block edges of the pentagonal division.
EDGE_ORDERS = (127, 128, 129, 255, 256, 257, 400, 600)
RUNNING_SUM_ORDERS = (*range(61), *EDGE_ORDERS)


class TestNamedSeries:
    def test_euler_inv_is_partition_numbers(self):
        series = gf(GfKind("euler_inv"), 10)
        assert series.coeffs == tuple(partition_count(n) for n in range(11))

    def test_poch_q_inf_head(self):
        assert gf(GfKind("poch_q_inf"), 12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_poch_times_euler_inv_is_one(self):
        for order in (0, 1, 7, 60):
            product = gf(GfKind("poch_q_inf"), order) * gf(GfKind("euler_inv"), order)
            assert product == one(order)

    def test_distinct_head(self):
        assert gf(GfKind("distinct"), 6).coeffs == (1, 1, 1, 2, 2, 3, 4)
        series = gf(GfKind("distinct"), 30)
        assert series.coeffs == tuple(distinct_parts_count(n) for n in range(31))

    def test_crank_m_zero_head(self):
        assert gf(GfKind("crank_m", 0), 5).coeffs == (1, -1, 0, 1, 1, 1)

    def test_crank_m_sign_symmetric(self):
        assert gf(GfKind("crank_m", -3), 40) == gf(GfKind("crank_m", 3), 40)

    def test_crank_geq_j_example(self):
        assert gf(GfKind("crank_geq_j", 1), 4)[4] == 2

    def test_frob_no0_head(self):
        assert gf(GfKind("frob_no0"), 4).coeffs == (1, 0, 0, 1, 2)

    def test_frob_noj_top_head(self):
        assert gf(GfKind("frob_noj_top", 0), 4).coeffs == (1, 0, 1, 2, 3)

    # Every order 0..60 crosses each truncation boundary of the running sum;
    # each case compares against a series from the other kernel.  Past
    # b = 3 * order / 10 the start factors 1/(q)_b come from the pentagonal
    # division instead of b divisions by (1 - q^k).
    def test_durfee_rect_equals_euler_inv(self):
        for order in RUNNING_SUM_ORDERS:
            reference = gf(GfKind("euler_inv"), order)
            for b in range(11):
                assert gf(GfKind("durfee_rect_b", b), order) == reference, (b, order)
        for order in (60, 400):
            # The start factors change route past b = 3 * order / 10.
            reference = gf(GfKind("euler_inv"), order)
            cut, half = 3 * order // 10, order // 2
            for b in (cut - 1, cut, cut + 1, half - 1, half, half + 1,
                      order - 1, order, order + 1, 2 * order):
                assert gf(GfKind("durfee_rect_b", b), order) == reference, (b, order)

    def test_crank0_alt_equals_crank_m_zero(self):
        for order in RUNNING_SUM_ORDERS:
            assert gf(GfKind("crank0_alt"), order) == gf(GfKind("crank_m", 0), order), order

    def test_one_minus_q_times_frob_no0_equals_crank_m_zero(self):
        for order in RUNNING_SUM_ORDERS:
            step = TruncatedSeries((1, -1), order) * gf(GfKind("frob_no0"), order)
            assert step == gf(GfKind("crank_m", 0), order), order

    def test_euler_inv_coefficients_nondecreasing(self):
        series = gf(GfKind("euler_inv"), 200)
        assert all(series[n] > 0 for n in range(201))
        assert all(series[n + 1] >= series[n] for n in range(1, 200))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gf(GfKind("euler_inv"), -1)


def heine_sides(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of the Heine instance, built from pochhammer_finite and
    invert only, independently of the gf() builders."""
    lhs_sum = zero(order)
    s = 0
    while s * s + 2 * s <= order:
        inv = pochhammer_finite(s, order).invert()
        lhs_sum = lhs_sum + (inv * inv).shift(s * s + 2 * s)
        s += 1
    lhs = TruncatedSeries((1, -1), order) * lhs_sum

    rhs_sum = zero(order)
    k = 0
    while 2 * k <= order:
        inv = pochhammer_finite(k, order).invert()
        rhs_sum = rhs_sum + (inv * inv).shift(2 * k)
        k += 1
    rhs = gf(GfKind("poch_q_inf"), order) * rhs_sum
    return lhs, rhs


class TestHeineInstance:
    def test_sides_agree(self):
        lhs, rhs = heine_sides(60)
        assert lhs == rhs

    def test_sides_match_named_series(self):
        lhs, rhs = heine_sides(60)
        assert rhs == gf(GfKind("crank0_alt"), 60)
        assert lhs == gf(GfKind("crank_m", 0), 60)


# The crank, crank-at-least-j and top-row-avoiding series divide a sparse
# numerator by (q;q)_inf.  Their reference route below is the one spelled in
# the public API: the inverted pentagonal product times the numerator.

def quotient_by_poch(terms: list[tuple[int, int]], order: int) -> TruncatedSeries:
    """gf(euler_inv) times the numerator sum of sign * q^exponent."""
    num = zero(order)
    for exponent, sign in terms:
        monomial = q_power(exponent, order)
        num = num + monomial if sign > 0 else num - monomial
    return gf(GfKind("euler_inv"), order) * num


def crank_m_terms(m: int, order: int) -> list[tuple[int, int]]:
    # sum_{n>=1} (-1)^(n-1) q^(n(n-1)/2 + n|m|) (1 - q^n)
    terms, n = [], 1
    while n * (n - 1) // 2 + n * abs(m) <= order:
        e, sign = n * (n - 1) // 2 + n * abs(m), (-1) ** (n - 1)
        terms += [(e, sign), (e + n, -sign)]
        n += 1
    return terms


def crank_geq_terms(j: int, order: int) -> list[tuple[int, int]]:
    # sum_{k>=0} q^((2k+1)(k+j)) (1 - q^(2k+j+1))
    terms, k = [], 0
    while (2 * k + 1) * (k + j) <= order:
        e = (2 * k + 1) * (k + j)
        terms += [(e, 1), (e + 2 * k + j + 1, -1)]
        k += 1
    return terms


def frob_noj_top_terms(j: int, order: int) -> list[tuple[int, int]]:
    # sum_{b>=0} (-1)^b q^(b(b+1)/2 + jb)
    terms, b = [], 0
    while b * (b + 1) // 2 + j * b <= order:
        terms.append((b * (b + 1) // 2 + j * b, (-1) ** b))
        b += 1
    return terms


ROUTE_ORDERS = (*range(41), *EDGE_ORDERS)


class TestPentagonalDivisionRoutes:
    @pytest.mark.parametrize("m", range(-3, 13))
    def test_crank_m(self, m):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(crank_m_terms(m, order), order)
            assert gf(GfKind("crank_m", m), order) == expected, order

    @pytest.mark.parametrize("j", range(6))
    def test_crank_geq_j(self, j):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(crank_geq_terms(j, order), order)
            assert gf(GfKind("crank_geq_j", j), order) == expected, order

    @pytest.mark.parametrize("j", range(6))
    def test_frob_noj_top(self, j):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(frob_noj_top_terms(j, order), order)
            assert gf(GfKind("frob_noj_top", j), order) == expected, order

    def test_distinct_matches_partitions_counts(self):
        counts = tuple(distinct_parts_count(n) for n in range(601))
        for order in (*range(41), 400, 600):
            assert gf(GfKind("distinct"), order).coeffs == counts[: order + 1], order

    def test_crank0_alt_matches_one_minus_q_times_frob_no0(self):
        for order in RUNNING_SUM_ORDERS:
            expected = TruncatedSeries((1, -1), order) * gf(GfKind("frob_no0"), order)
            assert gf(GfKind("crank0_alt"), order) == expected, order


class TestDivideByPoch:
    # Dense numerators, which the named series never give.  Every size to 300
    # crosses the block ends at 128 and 256, 1023..1025 straddle one, and 5001
    # reads far offsets up to 5000.  Every numerator whose size is a multiple
    # of 3 starts with more than 128 zeros where it has room, so whole far
    # slices fall below coefficient 0.  Multiplying by (q;q)_inf undoes the
    # division by another route, __mul__; the two share only the pentagonal
    # numbers from _pentagonal.
    def test_times_poch_q_inf_gives_the_numerator(self):
        rng = random.Random(29)
        for size in (*range(1, 301), 1023, 1024, 1025, 5001):
            num = [rng.randint(-10**6, 10**6) for _ in range(size)]
            if size % 3 == 0:
                zeros = min(size - 1, rng.randint(129, 300))
                num[:zeros] = [0] * zeros
            product = TruncatedSeries(_divide_by_poch(num)) * gf(GfKind("poch_q_inf"), size - 1)
            assert product == TruncatedSeries(num), size


# The running sum and its division primitive against term-by-term references
# that share no code with them.

def geometric_division(coeffs: list[int], k: int) -> list[int]:
    """coeffs times 1 + q^k + q^2k + ..., to the same length."""
    return [sum(coeffs[i::-k]) for i in range(len(coeffs))]


def accumulating_running_sum(order, exponent, factors) -> list[int]:
    """sum_s q^exponent(s) * R_s, adding each term to the total in turn, with
    the running factor R_s kept at full length."""
    out = [0] * (order + 1)
    running = [1] + [0] * order
    s = 0
    while exponent(s) <= order:
        for k in factors(s) if s else ():
            running = geometric_division(running, k)
        e = exponent(s)
        for i in range(e, order + 1):
            out[i] += running[i - e]
        s += 1
    return out


# The exponent and factors of frob_no0, of the sum inside crank0_alt and of
# the sum inside durfee_rect_b for b in 0, 1, 3, 7.
RUNNING_SUM_CASES = {
    "frob_no0": (lambda s: s * s + 2 * s, lambda s: (s, s)),
    "crank0_alt_sum": (lambda k: 2 * k, lambda k: (k, k)),
    **{f"durfee_rect_b{b}": (lambda s, b=b: s * s + b * s, lambda s, b=b: (s, s + b))
       for b in (0, 1, 3, 7)},
}


class TestRunningSum:
    @pytest.mark.parametrize("case", sorted(RUNNING_SUM_CASES))
    def test_matches_accumulating_reference(self, case):
        for order in RUNNING_SUM_ORDERS:
            args = (order, *RUNNING_SUM_CASES[case])
            assert _running_sum(*args) == accumulating_running_sum(*args), order

    def test_order_below_first_exponent_is_zero(self):
        for order in range(5):
            assert _running_sum(order, lambda s: s + 5, lambda s: (s,)) == [0] * (order + 1)

    def test_order_zero_is_first_term_constant(self):
        assert _running_sum(0, lambda s: s, lambda s: (s,)) == [1]


class TestDivOneMinusQk:
    # k * k below the suffix length takes the residue-class branch, the
    # rest the block walk; k up to that length + 2 covers k * k equal to
    # it and k past it.  A division from lo leaves the entries below lo
    # alone and divides the suffix as a series of its own.
    def test_matches_geometric_expansion(self):
        rng = random.Random(8)
        for length in range(41):
            for lo in range(length + 1):
                for k in range(1, length - lo + 3):
                    coeffs = [rng.randint(-9, 9) for _ in range(length)]
                    expected = coeffs[:lo] + geometric_division(coeffs[lo:], k)
                    _div_one_minus_qk(coeffs, k, lo)
                    assert coeffs == expected, (length, lo, k)

