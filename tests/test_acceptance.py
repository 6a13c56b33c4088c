"""Acceptance suite: thirteen exact-reproduction criteria.

Each test prints one `acceptance NN PASS/FAIL` line (visible with -s, and
mirrored by the per-test PASSED/FAILED lines of `pytest -v`).  Every
comparison is exact integer equality; the only tolerances anywhere are the
wall-clock ceilings on the three timed criteria.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time

from mexcrank import cli, verify
from mexcrank.counting import (
    crank_count,
    crank_geq_count,
    crank_zero_expansion,
    even_mex_count,
    ewell_even_sum,
    ewell_odd_sum,
    is_double_pentagonal,
    mex_1mod4_count,
    mex_3mod4_count,
    mex_count,
    odd_mex_count,
    triangular,
)
from mexcrank.partitions import (
    distinct_parts_count,
    partition_count,
    partition_count_table,
)
from mexcrank.qseries import GfKind, TruncatedSeries, gf

BUDGET = 35


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:02d} FAIL {title}")
                raise
            print(f"acceptance {number:02d} PASS {title}")
        return run
    return wrap


@criterion(1, "oracle sweep n<=35 matches all formula values in under 60s")
def test_criterion_01_oracle_sweep():
    start = time.monotonic()
    frob_series = gf(GfKind("frob_no0"), BUDGET)
    for n in range(BUDGET + 1):
        assert verify.oracle_count(n, lambda lam: True) == partition_count(n)
        m = 1
        while triangular(m - 1) <= n:
            assert verify.mex_value_oracle(n, m) == mex_count(m, n)
            m += 1
        assert verify.mex_value_oracle(n, m) == 0 == mex_count(m, n)
        assert verify.mex_residue_oracle(n, 1, 2) == odd_mex_count(n)
        assert verify.mex_residue_oracle(n, 0, 2) == even_mex_count(n)
        assert verify.mex_residue_oracle(n, 1, 4) == mex_1mod4_count(n)
        assert verify.mex_residue_oracle(n, 3, 4) == mex_3mod4_count(n)
        assert verify.frobenius_no0_oracle(n) == frob_series[n]
    for n in range(2, BUDGET + 1):
        for m in range(-12, 13):
            assert verify.crank_value_oracle(n, m) == crank_count(m, n)
        for j in range(11):
            assert verify.crank_geq_oracle(n, j) == crank_geq_count(j, n)
    assert time.monotonic() - start < 60


@criterion(2, "odd mex-gap counts equal crank_geq for j=0..10, n=0..35")
def test_criterion_02_jcrank():
    for j in range(11):
        for n in range(BUDGET + 1):
            assert verify.mex_above_odd_oracle(n, j) == crank_geq_count(j, n), (j, n)


@criterion(3, "crank series coefficients equal M(m,n) for m=0..12, n=0..300 in under 30s")
def test_criterion_03_crank_series():
    start = time.monotonic()
    for m in range(13):
        series = gf(GfKind("crank_m", m), 300)
        for n in range(301):
            assert series[n] == crank_count(m, n), (m, n)
    assert time.monotonic() - start < 30


@criterion(4, "triangular expansion of the crank-zero count matches for n=0..300")
def test_criterion_04_crank_zero_expansion():
    for n in range(301):
        assert crank_zero_expansion(n) == crank_count(0, n), n
    assert [crank_zero_expansion(n) for n in range(6)] == [1, -1, 0, 1, 1, 1]


@criterion(5, "M(0,n) equals F(n) - F(n-1) via the zero-free Frobenius series, n=0..200")
def test_criterion_05_frobenius_difference():
    series = gf(GfKind("frob_no0"), 200)
    for n in range(201):
        previous = series[n - 1] if n else 0
        assert crank_count(0, n) == series[n] - previous, n
    assert crank_count(0, 1) == -1 == series[1] - series[0]


@criterion(6, "crank_geq(j,n) equals the top-row-avoiding coefficient at n-j, j=0..8")
def test_criterion_06_top_row_avoidance():
    for j in range(9):
        series = gf(GfKind("frob_noj_top", j), 200)
        for n in range(j, 201):
            assert crank_geq_count(j, n) == series[n - j], (j, n)


@criterion(7, "mex residue difference o1-o3 equals q(n/2) or 0, n=1..400")
def test_criterion_07_mex_residue_difference():
    for n in range(1, 401):
        expected = distinct_parts_count(n // 2) if n % 2 == 0 else 0
        assert mex_1mod4_count(n) - mex_3mod4_count(n) == expected, n


@criterion(8, "Ewell sums: even gives q(k), odd gives 0, k=0..300")
def test_criterion_08_ewell():
    for k in range(301):
        assert ewell_even_sum(k) == distinct_parts_count(k), k
        assert ewell_odd_sum(k) == 0, k


@criterion(9, "o(n) is odd exactly at n = j(3j+-1), n=1..2000")
def test_criterion_09_parity():
    for n in range(1, 2001):
        assert (odd_mex_count(n) % 2 == 1) == is_double_pentagonal(n), n


@criterion(10, "o(n) > e(n) strictly for 2 < n <= 1000")
def test_criterion_10_inequality():
    for n in range(3, 1001):
        assert odd_mex_count(n) > even_mex_count(n), n


@criterion(11, "series suite: Heine instance, Durfee rectangles, crank-zero forms, order 200")
def test_criterion_11_series_identities():
    heine_lhs = TruncatedSeries((1, -1), 200) * gf(GfKind("frob_no0"), 200)
    assert heine_lhs == gf(GfKind("crank0_alt"), 200)
    reference = gf(GfKind("euler_inv"), 200)
    for b in range(11):
        assert gf(GfKind("durfee_rect_b", b), 200) == reference, b
    assert gf(GfKind("crank0_alt"), 200) == gf(GfKind("crank_m", 0), 200)


@criterion(12, "p(5000) by recurrence in under 5s; p(100) agrees across two routes")
def test_criterion_12_performance_floor():
    start = time.monotonic()
    table = partition_count_table(5000)
    elapsed = time.monotonic() - start
    assert elapsed < 5, f"p(5000) took {elapsed:.2f}s"
    assert table[5000] == partition_count(5000)
    assert table[100] == 190569292
    assert gf(GfKind("euler_inv"), 100)[100] == 190569292


@criterion(13, "perturbed identity fails with a counterexample; verify --all exits 0")
def test_criterion_13_harness_integrity():
    base = verify.checks_by_id(30, budget=20)["COR_0CRANK"]
    report = verify.run_check(verify.perturbed(base, {"n": 10}, 1))
    assert not report.passed
    assert report.first_counterexample is not None
    assert report.first_counterexample.params["n"] == 10

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "--all", "--format", "json"])
    assert code == 0
    payload = json.loads(stdout.getvalue())
    assert payload["pass"] is True
    assert len(payload["reports"]) == 15
    assert all(report["pass"] for report in payload["reports"])
