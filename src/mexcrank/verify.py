"""Brute-force oracles and the registry of identity checks.

The harness plays two independent computations against each other at every
point of a parameter grid and demands exact integer equality.  One side is
usually an exhaustive enumeration over partitions (the oracle), the other a
closed form or a series coefficient.  Module discipline keeps the sides
honest: oracle code in this file touches only :mod:`mexcrank.partitions`;
the formula modules (:mod:`mexcrank.counting`, :mod:`mexcrank.qseries`) are
imported inside :func:`registry` so that neither side can lean on the other.

Every oracle except :func:`oracle_count` reads one
:class:`~mexcrank.partitions.PartitionStatistics` record per n, built by a
single streamed pass over the partitions of n and cached.  A record is a few
histograms of at most 2n + 1 small integers, never a list of partitions, and
the cache holds one record per n <= budget.  Cold ``mexcrank verify --all``
takes 0.6-0.9 s and 28 MB max-RSS at the default budget 35, and 1.7-2.2 s and
21 MB at ``--n-max 45 --budget 45`` (2 CPUs, Python 3.11.7).

The combinatorial crank of the single partition of 1 is -1, while the crank
generating function assigns n = 1 the counts M(0,1) = -1 and M(1,1) = 1.
Checks that compare enumeration against crank formulas therefore start their
enumeration grids at n = 2 and carry explicit records freezing the documented
n = 1 values on both sides, so the discrepancy is asserted, never skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from .partitions import (
    Partition,
    PartitionStatistics,
    distinct_parts_count,
    enumerate_partitions,
    partition_statistics,
)

DEFAULT_BUDGET = 35

Params = Mapping[str, int | str]


class BudgetExceededError(RuntimeError):
    """Raised when an oracle is asked to enumerate beyond its budget."""


def _require_budget(n: int, budget: int) -> None:
    if n > budget:
        raise BudgetExceededError(
            f"enumeration at n={n} exceeds budget {budget}; "
            "raise the budget or use a series/formula check"
        )


@lru_cache(maxsize=None)
def _statistics(n: int) -> PartitionStatistics:
    # One small histogram record per n; callers check the budget first, so
    # the cache never holds more than budget + 1 of them.
    return partition_statistics(n)


def oracle_count(n: int, predicate: Callable[[Partition], bool], *, budget: int = DEFAULT_BUDGET) -> int:
    """Count partitions of n satisfying the predicate, by full enumeration.

    Raises :class:`BudgetExceededError` when n exceeds the budget, signalling
    that the caller should switch to a formula-vs-series comparison instead.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    _require_budget(n, budget)
    return sum(1 for lam in enumerate_partitions(n) if predicate(lam))


def mex_above_odd_oracle(n: int, j: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n where the least non-part above j exceeds j by an odd
    amount; partitions not containing j (for j >= 1) are excluded since the
    statistic is undefined for them."""
    _require_budget(n, budget)
    return _statistics(n).odd_gap_above.get(j, 0)


def crank_value_oracle(n: int, m: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with combinatorial crank exactly m, by enumeration."""
    _require_budget(n, budget)
    return _statistics(n).crank.get(m, 0)


def crank_geq_oracle(n: int, j: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with combinatorial crank at least j, by enumeration."""
    _require_budget(n, budget)
    return sum(count for value, count in _statistics(n).crank.items() if value >= j)


def mex_value_oracle(n: int, m: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with mex exactly m, by enumeration."""
    _require_budget(n, budget)
    return _statistics(n).mex.get(m, 0)


def mex_residue_oracle(n: int, residue: int, modulus: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose mex is congruent to residue mod modulus."""
    _require_budget(n, budget)
    return sum(count for value, count in _statistics(n).mex.items() if value % modulus == residue)


def frobenius_no0_oracle(n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose Frobenius symbol has no 0 in either row."""
    _require_budget(n, budget)
    return _statistics(n).zero_free


def frobenius_top_avoids_oracle(n: int, j: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose Frobenius symbol has no j in its top row."""
    _require_budget(n, budget)
    stats = _statistics(n)
    return stats.count - stats.top_entry.get(j, 0)


@dataclass(frozen=True, eq=False)
class IdentityCheck:
    """A named claim: two independent computations that must agree exactly.

    ``grid`` fixes the evaluation points and their order; ``lhs_fn`` and
    ``rhs_fn`` map one grid point to an integer each.  The two callables must
    come from disjoint code paths (enumeration vs formula, or two different
    series constructions); the registry below upholds that split.
    """

    check_id: str
    statement: str
    lhs_desc: str
    rhs_desc: str
    grid: tuple[Params, ...]
    lhs_fn: Callable[[Params], int]
    rhs_fn: Callable[[Params], int]


@dataclass(frozen=True, eq=False)
class CheckRecord:
    """One grid point's outcome: parameters, both values, equality flag."""

    params: Params
    lhs: int
    rhs: int
    passed: bool

    def to_jsonable(self, check_id: str) -> dict:
        return {
            "check_id": check_id,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Deterministic per-point results for one check, in grid order."""

    check_id: str
    statement: str
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.records)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(record for record in self.records if not record.passed)

    @property
    def first_counterexample(self) -> CheckRecord | None:
        for record in self.records:
            if not record.passed:
                return record
        return None

    def to_jsonable(self) -> dict:
        counterexample = self.first_counterexample
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "pass": self.passed,
            "total": len(self.records),
            "failed": len(self.failures),
            "first_counterexample": (
                None if counterexample is None else counterexample.to_jsonable(self.check_id)
            ),
            "records": [record.to_jsonable(self.check_id) for record in self.records],
        }


def run_check(check: IdentityCheck, *, workers: int = 1) -> VerificationReport:
    """Evaluate both sides at every grid point; exact equality everywhere.

    Records come back in grid order.  ``workers`` is still accepted and
    must be positive, but it is a no-op kept for one release: grid points
    are always evaluated one after another in this thread, because the
    shared p(n) cache in :mod:`mexcrank.partitions` is not thread-safe.
    """
    if not check.grid:
        raise ValueError(f"check {check.check_id} has an empty parameter grid")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    records = []
    for point in check.grid:
        lhs = check.lhs_fn(point)
        rhs = check.rhs_fn(point)
        records.append(CheckRecord(params=point, lhs=lhs, rhs=rhs, passed=lhs == rhs))
    return VerificationReport(check.check_id, check.statement, tuple(records))


def perturbed(check: IdentityCheck, where: Params, delta: int = 1) -> IdentityCheck:
    """Copy of a check whose rhs is shifted by delta wherever the grid point
    matches every key in ``where``.  Harness self-test: the perturbed check
    must fail with a counterexample at exactly those points."""

    def rhs_fn(point: Params) -> int:
        value = check.rhs_fn(point)
        if all(point.get(key) == expected for key, expected in where.items()):
            return value + delta
        return value

    return IdentityCheck(
        check_id=f"{check.check_id}:perturbed",
        statement=check.statement,
        lhs_desc=check.lhs_desc,
        rhs_desc=f"{check.rhs_desc} (shifted by {delta} at {dict(where)})",
        grid=check.grid,
        lhs_fn=check.lhs_fn,
        rhs_fn=rhs_fn,
    )


# Documented n = 1 constants: (series value, enumeration value).
_N1_CRANK_GEQ = {0: (0, 0), 1: (1, 0)}
_N1_CRANK_M = {-1: (1, 1), 0: (-1, 0), 1: (1, 0)}

# First six crank-zero counts as the generating function assigns them.
_CRANK0_HEAD = (1, -1, 0, 1, 1, 1)


def registry(
    n_max: int | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    order: int | None = None,
) -> tuple[IdentityCheck, ...]:
    """Build the full suite of identity checks with their default grids.

    ``n_max`` overrides each check's main scan range (n or k); ``order``
    overrides the truncation order of series-vs-series checks; ``budget``
    caps every enumeration grid.  Defaults are sized so the whole suite runs
    in well under a minute.
    """
    # Formula modules enter here and nowhere else in this file, keeping the
    # oracle side import-independent of the closed forms it is checking.
    from . import counting, qseries

    series_cache: dict[tuple[qseries.GfKind, int], qseries.TruncatedSeries] = {}

    def gf(kind: qseries.GfKind, n: int) -> qseries.TruncatedSeries:
        key = (kind, n)
        if key not in series_cache:
            series_cache[key] = qseries.gf(kind, n)
        return series_cache[key]

    def span(default: int) -> int:
        return default if n_max is None else n_max

    def series_span(default: int) -> int:
        if order is not None:
            return order
        return default if n_max is None else n_max

    checks: list[IdentityCheck] = []

    # THM_JCRANK: odd mex-gap above j vs crank >= j.
    top = min(span(35), budget)
    grid: list[Params] = [
        {"side": "mex_oracle", "j": j, "n": n}
        for j in range(11)
        for n in range(top + 1)
    ]
    grid += [
        {"side": "crank_oracle", "j": j, "n": n}
        for j in range(11)
        for n in range(2, top + 1)
    ]
    grid += [
        {"side": side, "j": j, "n": 1}
        for j in (0, 1)
        for side in ("n1_series", "n1_oracle")
    ]

    def jcrank_lhs(p: Params) -> int:
        if p["side"] == "mex_oracle":
            return mex_above_odd_oracle(p["n"], p["j"], budget=budget)
        if p["side"] == "crank_oracle" or p["side"] == "n1_oracle":
            return crank_geq_oracle(p["n"], p["j"], budget=budget)
        return counting.crank_geq_count(p["j"], 1)

    def jcrank_rhs(p: Params) -> int:
        if p["side"] == "n1_series":
            return _N1_CRANK_GEQ[p["j"]][0]
        if p["side"] == "n1_oracle":
            return _N1_CRANK_GEQ[p["j"]][1]
        return counting.crank_geq_count(p["j"], p["n"])

    checks.append(IdentityCheck(
        check_id="THM_JCRANK",
        statement=(
            "For j = 0 or j a part, partitions of n whose least non-part above j "
            "exceeds j by an odd amount are equinumerous with partitions of n "
            "having crank at least j; the enumeration crank agrees from n = 2 on, "
            "with the n = 1 values pinned explicitly."
        ),
        lhs_desc="enumeration: odd mex-gap count / crank histogram",
        rhs_desc="alternating sum of p(n - k(k-1)/2 - kj)",
        grid=tuple(grid),
        lhs_fn=jcrank_lhs,
        rhs_fn=jcrank_rhs,
    ))

    # COR_CRANKRECUR: crank counts M(m,n) vs enumeration and vs series.
    grid = [
        {"side": "oracle", "m": m, "n": n}
        for m in range(-12, 13)
        for n in range(2, top + 1)
    ]
    series_top = series_span(200)
    grid += [
        {"side": "series", "m": m, "n": n}
        for m in range(13)
        for n in range(series_top + 1)
    ]
    grid += [
        {"side": side, "m": m, "n": 1}
        for m in (-1, 0, 1)
        for side in ("n1_formula", "n1_oracle")
    ]

    def crankrecur_lhs(p: Params) -> int:
        if p["side"] == "oracle" or p["side"] == "n1_oracle":
            return crank_value_oracle(p["n"], p["m"], budget=budget)
        if p["side"] == "series":
            return gf(qseries.GfKind.crank_m(p["m"]), series_top)[p["n"]]
        return counting.crank_count(p["m"], 1)

    def crankrecur_rhs(p: Params) -> int:
        if p["side"] == "n1_formula":
            return _N1_CRANK_M[p["m"]][0]
        if p["side"] == "n1_oracle":
            return _N1_CRANK_M[p["m"]][1]
        return counting.crank_count(p["m"], p["n"])

    checks.append(IdentityCheck(
        check_id="COR_CRANKRECUR",
        statement=(
            "The alternating sum over k of p(n - k(k+2|m|-1)/2) - p(n - k(k+2|m|+1)/2) "
            "counts partitions of n with crank m, matching enumeration for n >= 2 and "
            "the crank series coefficients everywhere, with the n = 1 values pinned."
        ),
        lhs_desc="enumeration crank histogram / crank series coefficient",
        rhs_desc="alternating p-difference sum M(m,n)",
        grid=tuple(grid),
        lhs_fn=crankrecur_lhs,
        rhs_fn=crankrecur_rhs,
    ))

    # PROP_MEXFORM: mex counts vs the triangular-number difference.
    grid = [
        {"m": m, "n": n}
        for m in range(1, 11)
        for n in range(top + 1)
    ]
    checks.append(IdentityCheck(
        check_id="PROP_MEXFORM",
        statement="Partitions of n with mex exactly m number p(n - t(m-1)) - p(n - t(m)).",
        lhs_desc="enumeration mex histogram",
        rhs_desc="p-difference at consecutive triangular offsets",
        grid=tuple(grid),
        lhs_fn=lambda p: mex_value_oracle(p["n"], p["m"], budget=budget),
        rhs_fn=lambda p: counting.mex_count(p["m"], p["n"]),
    ))

    # COR_0CRANK: the +-2 triangular expansion of the crank-zero count.
    zero_top = span(300)
    grid = [{"side": "expansion", "n": n} for n in range(zero_top + 1)]
    grid += [{"side": "documented", "n": n} for n in range(len(_CRANK0_HEAD))]
    grid += [{"side": "oracle", "n": n} for n in range(2, top + 1)]

    def zerocrank_lhs(p: Params) -> int:
        if p["side"] == "oracle":
            return crank_value_oracle(p["n"], 0, budget=budget)
        return counting.crank_zero_expansion(p["n"])

    def zerocrank_rhs(p: Params) -> int:
        if p["side"] == "documented":
            return _CRANK0_HEAD[p["n"]]
        return counting.crank_count(0, p["n"])

    checks.append(IdentityCheck(
        check_id="COR_0CRANK",
        statement=(
            "The crank-zero count equals p(n) + 2 sum_k (-1)^k p(n - t(k)), with "
            "head values 1, -1, 0, 1, 1, 1 and enumeration agreement from n = 2."
        ),
        lhs_desc="triangular expansion / enumeration crank histogram",
        rhs_desc="M(0,n) via the alternating p-difference sum",
        grid=tuple(grid),
        lhs_fn=zerocrank_lhs,
        rhs_fn=zerocrank_rhs,
    ))

    # PROP_NOF0: crank-zero counts as differences of zero-free Frobenius counts.
    nof0_top = series_span(200)
    frob_kind = qseries.GfKind.frob_no0()
    grid = [{"side": "series", "n": n} for n in range(nof0_top + 1)]
    grid += [{"side": "oracle", "n": n} for n in range(min(top, nof0_top) + 1)]

    def nof0_lhs(p: Params) -> int:
        if p["side"] == "oracle":
            return frobenius_no0_oracle(p["n"], budget=budget)
        series = gf(frob_kind, nof0_top)
        n = p["n"]
        return series[n] - (series[n - 1] if n else 0)

    def nof0_rhs(p: Params) -> int:
        if p["side"] == "oracle":
            return gf(frob_kind, nof0_top)[p["n"]]
        return counting.crank_count(0, p["n"])

    checks.append(IdentityCheck(
        check_id="PROP_NOF0",
        statement=(
            "The crank-zero count M(0,n) equals F(n) - F(n-1), where F counts "
            "partitions whose Frobenius symbol avoids 0 in both rows; in "
            "particular M(0,1) = -1 = F(1) - F(0)."
        ),
        lhs_desc="zero-free Frobenius series difference / enumeration",
        rhs_desc="M(0,n) formula / zero-free Frobenius series coefficient",
        grid=tuple(grid),
        lhs_fn=nof0_lhs,
        rhs_fn=nof0_rhs,
    ))

    # THM_FROB_J: crank >= j vs top-row-avoiding Frobenius symbols of n - j.
    frobj_top = series_span(200)
    grid = [
        {"side": "series", "j": j, "n": n}
        for j in range(9)
        for n in range(j, frobj_top + 1)
    ]
    grid += [
        {"side": "oracle", "j": j, "w": w}
        for j in range(9)
        for w in range(min(top, frobj_top) + 1)
    ]

    def frobj_lhs(p: Params) -> int:
        if p["side"] == "oracle":
            return frobenius_top_avoids_oracle(p["w"], p["j"], budget=budget)
        return gf(qseries.GfKind.frob_noj_top(p["j"]), frobj_top)[p["n"] - p["j"]]

    def frobj_rhs(p: Params) -> int:
        if p["side"] == "oracle":
            return gf(qseries.GfKind.frob_noj_top(p["j"]), frobj_top)[p["w"]]
        return counting.crank_geq_count(p["j"], p["n"])

    checks.append(IdentityCheck(
        check_id="THM_FROB_J",
        statement=(
            "Partitions of n with crank at least j are equinumerous with "
            "partitions of n - j whose Frobenius symbol has no j in its top row."
        ),
        lhs_desc="top-row-avoiding Frobenius series / enumeration",
        rhs_desc="crank >= j count / top-row-avoiding series coefficient",
        grid=tuple(grid),
        lhs_fn=frobj_lhs,
        rhs_fn=frobj_rhs,
    ))

    # PROP_O13: mex residues 1 and 3 mod 4 differ by a distinct-parts count.
    o13_top = span(400)
    grid = [{"side": "formula", "n": n} for n in range(1, o13_top + 1)]
    grid += [{"side": "oracle", "n": n} for n in range(1, min(top, o13_top) + 1)]

    def o13_lhs(p: Params) -> int:
        if p["side"] == "oracle":
            n = p["n"]
            return (
                mex_residue_oracle(n, 1, 4, budget=budget)
                - mex_residue_oracle(n, 3, 4, budget=budget)
            )
        return counting.mex_1mod4_count(p["n"]) - counting.mex_3mod4_count(p["n"])

    checks.append(IdentityCheck(
        check_id="PROP_O13",
        statement=(
            "Among partitions of n, those with mex = 1 mod 4 outnumber those "
            "with mex = 3 mod 4 by q(n/2) for even n and 0 for odd n."
        ),
        lhs_desc="mex residue-class difference (formula / enumeration)",
        rhs_desc="distinct-parts count of n/2, or 0 for odd n",
        grid=tuple(grid),
        lhs_fn=o13_lhs,
        rhs_fn=lambda p: distinct_parts_count(p["n"] // 2) if p["n"] % 2 == 0 else 0,
    ))

    # EWELL_EVEN / EWELL_ODD: alternating triangular sums of p.
    ewell_top = span(300)
    checks.append(IdentityCheck(
        check_id="EWELL_EVEN",
        statement=(
            "Ewell's identity at even arguments: sum_j (-1)^(t(j)) p(2k - t(j)) "
            "equals the distinct-parts count q(k)."
        ),
        lhs_desc="alternating triangular sum of p at 2k",
        rhs_desc="distinct-parts count q(k)",
        grid=tuple({"k": k} for k in range(ewell_top + 1)),
        lhs_fn=lambda p: counting.ewell_even_sum(p["k"]),
        rhs_fn=lambda p: distinct_parts_count(p["k"]),
    ))
    checks.append(IdentityCheck(
        check_id="EWELL_ODD",
        statement=(
            "Ewell's identity at odd arguments: sum_j (-1)^(t(j)) p(2k + 1 - t(j)) "
            "vanishes for every k."
        ),
        lhs_desc="alternating triangular sum of p at 2k + 1",
        rhs_desc="the constant 0",
        grid=tuple({"k": k} for k in range(ewell_top + 1)),
        lhs_fn=lambda p: counting.ewell_odd_sum(p["k"]),
        rhs_fn=lambda p: 0,
    ))

    # THM_AN_PARITY: parity of the odd-mex count.
    parity_top = span(2000)
    checks.append(IdentityCheck(
        check_id="THM_AN_PARITY",
        statement=(
            "The odd-mex partition count o(n) is odd exactly when "
            "n = j(3j+1) or n = j(3j-1) (Andrews-Newman parity)."
        ),
        lhs_desc="o(n) mod 2 via the mex-count formula",
        rhs_desc="integer root test for n = j(3j+-1)",
        grid=tuple({"n": n} for n in range(1, parity_top + 1)),
        lhs_fn=lambda p: counting.odd_mex_count(p["n"]) % 2,
        rhs_fn=lambda p: 1 if counting.is_double_pentagonal(p["n"]) else 0,
    ))

    # INEQ_OE: odd mex strictly beats even mex past n = 2.
    ineq_top = span(1000)
    checks.append(IdentityCheck(
        check_id="INEQ_OE",
        statement=(
            "Odd-mex partitions strictly outnumber even-mex partitions of n "
            "for every n > 2 (Hopkins-Sellers inequality)."
        ),
        lhs_desc="1 if o(n) > e(n) else 0",
        rhs_desc="the constant 1",
        grid=tuple({"n": n} for n in range(3, ineq_top + 1)),
        lhs_fn=lambda p: 1 if counting.odd_mex_count(p["n"]) > counting.even_mex_count(p["n"]) else 0,
        rhs_fn=lambda p: 1,
    ))

    # SERIES_HEINE: the transformed zero-free Frobenius series.
    heine_top = series_span(200)
    heine_memo: list[qseries.TruncatedSeries] = []

    def heine_lhs(p: Params) -> int:
        if not heine_memo:
            one_minus_q = qseries.TruncatedSeries((1, -1), heine_top)
            heine_memo.append(one_minus_q * gf(qseries.GfKind.frob_no0(), heine_top))
        return heine_memo[0][p["n"]]

    checks.append(IdentityCheck(
        check_id="SERIES_HEINE",
        statement=(
            "Heine transformation instance: (1 - q) times the zero-free "
            "Frobenius series equals the q-Pochhammer product times "
            "sum_k q^(2k) / (q;q)_k^2, coefficient by coefficient."
        ),
        lhs_desc="(1 - q) * zero-free Frobenius series",
        rhs_desc="Pochhammer product form of the crank-zero series",
        grid=tuple({"n": n} for n in range(heine_top + 1)),
        lhs_fn=heine_lhs,
        rhs_fn=lambda p: gf(qseries.GfKind.crank0_alt(), heine_top)[p["n"]],
    ))

    # DURFEE_RECT: every rectangle offset reproduces the partition series.
    durfee_top = series_span(200)
    checks.append(IdentityCheck(
        check_id="DURFEE_RECT",
        statement=(
            "Classifying partitions by their largest s x (s+b) Durfee "
            "rectangle reproduces the partition generating function for "
            "every offset b."
        ),
        lhs_desc="Durfee-rectangle decomposition series",
        rhs_desc="inverted q-Pochhammer product (partition series)",
        grid=tuple(
            {"b": b, "n": n}
            for b in range(11)
            for n in range(durfee_top + 1)
        ),
        lhs_fn=lambda p: gf(qseries.GfKind.durfee_rect_b(p["b"]), durfee_top)[p["n"]],
        rhs_fn=lambda p: gf(qseries.GfKind.euler_inv(), durfee_top)[p["n"]],
    ))

    # CRANK_GF_CONSISTENCY: series coefficients vs the closed-form counts.
    cons_top = span(300)
    checks.append(IdentityCheck(
        check_id="CRANK_GF_CONSISTENCY",
        statement=(
            "Coefficients of the crank generating function at parameter m "
            "equal the closed-form crank counts M(m,n)."
        ),
        lhs_desc="crank series coefficient",
        rhs_desc="alternating p-difference sum M(m,n)",
        grid=tuple(
            {"m": m, "n": n}
            for m in range(13)
            for n in range(cons_top + 1)
        ),
        lhs_fn=lambda p: gf(qseries.GfKind.crank_m(p["m"]), cons_top)[p["n"]],
        rhs_fn=lambda p: counting.crank_count(p["m"], p["n"]),
    ))

    return tuple(checks)


def checks_by_id(
    n_max: int | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    order: int | None = None,
) -> dict[str, IdentityCheck]:
    """The registry keyed by check id, for lookup-style callers."""
    return {check.check_id: check for check in registry(n_max, budget=budget, order=order)}
