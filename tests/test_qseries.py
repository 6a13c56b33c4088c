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
        assert hash(TruncatedSeries((1, 2))) == hash(TruncatedSeries((1, 2)))

    def test_str_and_repr_smoke(self):
        s = TruncatedSeries((1, -1, 0, 2), order=10)
        assert "q" in str(s) and "O(q^11)" in str(s)
        assert "TruncatedSeries" in repr(s)
        assert str(zero(3)) == "0 + O(q^4)"


class TestArithmetic:
    def test_add_sub_neg(self):
        a = TruncatedSeries((1, 1))
        b = TruncatedSeries((1, -1))
        assert (a + b).coeffs == (2, 0)
        assert (a - b).coeffs == (0, 2)
        assert (-a).coeffs == (-1, -1)

    def test_mul_examples(self):
        a = TruncatedSeries((1, 1, 0))
        assert (a * a).coeffs == (1, 2, 1)
        s = TruncatedSeries((3, 1, 4, 1, 5))
        assert (s * one(4)) == s

    def test_sparse_times_dense_either_way_round(self):
        order = 300
        sparse = gf(GfKind.poch_q_inf(), order)
        dense = random_series(random.Random(300), order)
        naive = [0] * (order + 1)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                naive[i + j] += sparse[i] * dense[j]
        assert (sparse * dense).coeffs == tuple(naive)
        assert (dense * sparse).coeffs == tuple(naive)
        assert sparse * gf(GfKind.euler_inv(), order) == one(order)
        assert gf(GfKind.euler_inv(), order) * sparse == one(order)

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
            GfKind.crank_geq_j(-1)
        with pytest.raises(InvalidParamsError):
            GfKind.frob_noj_top(-2)
        with pytest.raises(InvalidParamsError):
            GfKind.durfee_rect_b(-1)

    def test_crank_m_accepts_any_integer(self):
        assert GfKind.crank_m(-7).param == -7

    def test_unknown_tag_rejected(self):
        with pytest.raises(InvalidParamsError):
            GfKind("nonsense")

    def test_kinds_are_values(self):
        assert GfKind.crank_m(2) == GfKind.crank_m(2)
        assert len({GfKind.euler_inv(), GfKind.euler_inv()}) == 1


RUNNING_SUM_ORDERS = (*range(61), 400)


class TestNamedSeries:
    def test_euler_inv_is_partition_numbers(self):
        series = gf(GfKind.euler_inv(), 10)
        assert series.coeffs == tuple(partition_count(n) for n in range(11))

    def test_poch_q_inf_head(self):
        assert gf(GfKind.poch_q_inf(), 12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_poch_times_euler_inv_is_one(self):
        for order in (0, 1, 7, 60):
            product = gf(GfKind.poch_q_inf(), order) * gf(GfKind.euler_inv(), order)
            assert product == one(order)

    def test_distinct_head(self):
        assert gf(GfKind.distinct(), 6).coeffs == (1, 1, 1, 2, 2, 3, 4)
        series = gf(GfKind.distinct(), 30)
        assert series.coeffs == tuple(distinct_parts_count(n) for n in range(31))

    def test_crank_m_zero_head(self):
        assert gf(GfKind.crank_m(0), 5).coeffs == (1, -1, 0, 1, 1, 1)

    def test_crank_m_sign_symmetric(self):
        assert gf(GfKind.crank_m(-3), 40) == gf(GfKind.crank_m(3), 40)

    def test_crank_geq_j_example(self):
        assert gf(GfKind.crank_geq_j(1), 4)[4] == 2

    def test_frob_no0_head(self):
        assert gf(GfKind.frob_no0(), 4).coeffs == (1, 0, 0, 1, 2)

    def test_frob_noj_top_head(self):
        assert gf(GfKind.frob_noj_top(0), 4).coeffs == (1, 0, 1, 2, 3)

    # Every order 0..60 crosses each truncation boundary of the running sum;
    # each case compares against a series from the other kernel.
    def test_durfee_rect_equals_euler_inv(self):
        for order in RUNNING_SUM_ORDERS:
            reference = gf(GfKind.euler_inv(), order)
            for b in range(11):
                assert gf(GfKind.durfee_rect_b(b), order) == reference, (b, order)

    def test_crank0_alt_equals_crank_m_zero(self):
        for order in RUNNING_SUM_ORDERS:
            assert gf(GfKind.crank0_alt(), order) == gf(GfKind.crank_m(0), order), order

    def test_one_minus_q_times_frob_no0_equals_crank_m_zero(self):
        for order in RUNNING_SUM_ORDERS:
            step = TruncatedSeries((1, -1), order) * gf(GfKind.frob_no0(), order)
            assert step == gf(GfKind.crank_m(0), order), order

    def test_euler_inv_coefficients_nondecreasing(self):
        series = gf(GfKind.euler_inv(), 200)
        assert all(series[n] > 0 for n in range(201))
        assert all(series[n + 1] >= series[n] for n in range(1, 200))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gf(GfKind.euler_inv(), -1)


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
    rhs = gf(GfKind.poch_q_inf(), order) * rhs_sum
    return lhs, rhs


class TestHeineInstance:
    def test_sides_agree(self):
        lhs, rhs = heine_sides(60)
        assert lhs == rhs

    def test_sides_match_named_series(self):
        lhs, rhs = heine_sides(60)
        assert rhs == gf(GfKind.crank0_alt(), 60)
        assert lhs == gf(GfKind.crank_m(0), 60)


# The crank, crank-at-least-j and top-row-avoiding series divide a sparse
# numerator by (q;q)_inf.  Their reference route below is the one spelled in
# the public API: the inverted pentagonal product times the numerator.

def quotient_by_poch(terms: list[tuple[int, int]], order: int) -> TruncatedSeries:
    """gf(euler_inv) times the numerator sum of sign * q^exponent."""
    num = zero(order)
    for exponent, sign in terms:
        monomial = q_power(exponent, order)
        num = num + monomial if sign > 0 else num - monomial
    return gf(GfKind.euler_inv(), order) * num


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


ROUTE_ORDERS = (*range(41), 400)


class TestPentagonalDivisionRoutes:
    @pytest.mark.parametrize("m", range(-3, 13))
    def test_crank_m(self, m):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(crank_m_terms(m, order), order)
            assert gf(GfKind.crank_m(m), order) == expected, order

    @pytest.mark.parametrize("j", range(6))
    def test_crank_geq_j(self, j):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(crank_geq_terms(j, order), order)
            assert gf(GfKind.crank_geq_j(j), order) == expected, order

    @pytest.mark.parametrize("j", range(6))
    def test_frob_noj_top(self, j):
        for order in ROUTE_ORDERS:
            expected = quotient_by_poch(frob_noj_top_terms(j, order), order)
            assert gf(GfKind.frob_noj_top(j), order) == expected, order

    def test_distinct_matches_partitions_counts(self):
        counts = tuple(distinct_parts_count(n) for n in range(601))
        for order in (*range(41), 400, 600):
            assert gf(GfKind.distinct(), order).coeffs == counts[: order + 1], order

    def test_crank0_alt_matches_one_minus_q_times_frob_no0(self):
        for order in RUNNING_SUM_ORDERS:
            expected = TruncatedSeries((1, -1), order) * gf(GfKind.frob_no0(), order)
            assert gf(GfKind.crank0_alt(), order) == expected, order
