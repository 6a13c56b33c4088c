"""Property tests for partitions and series arithmetic; skipped when hypothesis
is absent."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from mexcrank.partitions import (  # noqa: E402
    Partition,
    conjugate,
    durfee_size,
    from_frobenius,
    to_frobenius,
)
from mexcrank.qseries import TruncatedSeries  # noqa: E402

given, settings = hypothesis.given, hypothesis.settings

COEFF = st.integers(-50, 50)
PARTITIONS = st.lists(st.integers(1, 40), max_size=40).map(lambda parts: Partition.of(*parts))


def series_tuples(count: int, *, unit: bool = False):
    """``count`` series of one shared random order (0..25)."""

    def of_order(order: int):
        head = st.sampled_from((1, -1)) if unit else COEFF
        one_series = st.builds(
            lambda c0, rest: TruncatedSeries((c0, *rest)),
            head, st.lists(COEFF, min_size=order, max_size=order))
        return st.tuples(*[one_series] * count)

    return st.integers(0, 25).flatmap(of_order)


@settings(deadline=None)
@given(series_tuples(3))
def test_ring_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == a * TruncatedSeries((0,), a.order)


@settings(deadline=None)
@given(series_tuples(2, unit=True))
def test_inverse_of_product(pair):
    a, b = pair
    assert (a * b).invert() == a.invert() * b.invert()
    assert a * a.invert() == TruncatedSeries((1,), a.order)


@settings(deadline=None)
@given(PARTITIONS)
def test_frobenius_round_trip(lam):
    assert from_frobenius(to_frobenius(lam)) == lam


@settings(deadline=None)
@given(PARTITIONS)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@settings(deadline=None)
@given(PARTITIONS)
def test_durfee_size_is_frobenius_length(lam):
    assert durfee_size(lam) == to_frobenius(lam).size


# The column rule, spelled out here apart from partitions._heights, which
# conjugate, to_frobenius and from_frobenius all call: the round trip and
# the involution would still hold if the three shared one fault.

@settings(deadline=None)
@given(PARTITIONS)
def test_conjugate_counts_the_parts_reaching_each_height(lam):
    parts = lam.parts
    expected = [sum(p >= h for p in parts) for h in range(1, parts[0] + 1)] if parts else []
    assert list(conjugate(lam).parts) == expected


@settings(deadline=None)
@given(PARTITIONS)
def test_frobenius_bottom_is_column_height_less_depth(lam):
    d = durfee_size(lam)
    expected = [sum(p >= h for p in lam.parts) - h for h in range(1, d + 1)]
    assert list(to_frobenius(lam).bottom) == expected


@settings(deadline=None)
@given(series_tuples(1), series_tuples(1))
def test_sum_and_difference_truncate_to_the_smaller_order(single_a, single_b):
    (a,), (b,) = single_a, single_b
    hypothesis.assume(a.order != b.order)
    order = min(a.order, b.order)
    assert (a + b).order == (a - b).order == (b - a).order == order
    assert (a + b).coeffs == tuple(a[k] + b[k] for k in range(order + 1))
    assert (a - b).coeffs == tuple(a[k] - b[k] for k in range(order + 1))
    assert (b - a).coeffs == tuple(b[k] - a[k] for k in range(order + 1))
