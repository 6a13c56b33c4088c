"""Brute-force oracles and the registry of identity checks.

The harness plays two independent computations against each other at every
point of a parameter grid and demands exact integer equality.  One side is
usually an exhaustive enumeration over partitions (the oracle), the other a
closed form or a series coefficient.  A check is a tuple of legs, each a grid
with its own pair of computations; a check with several legs (say,
enumeration against the formula for small n, then series against the formula
for large n) stamps each leg's name into its points as ``"side"``, and its
records follow the legs in order.  A check's points exist only while it runs,
so unselected checks cost nothing.  Module discipline keeps the sides honest:
oracle code in this file touches only :mod:`mexcrank.partitions`; the
formula modules (:mod:`mexcrank.counting`, :mod:`mexcrank.qseries`) are
imported inside :func:`registry` so that neither side can lean on the other.

Every oracle except :func:`oracle_count` reads one
:class:`~mexcrank.partitions.PartitionStatistics` record per n.  A miss
sweeps the records of every n up to the oracle's budget at once, with
:func:`~mexcrank.partitions.partition_statistics_table`, and keeps them in
one tuple; the registry passes its oracles the reach of its enumeration
grids as their budget, so one sweep serves every check.  A record is a few
histograms of at most 2n + 1 small integers, never a list of partitions.
Cold ``mexcrank verify --all --format json`` takes 0.145-0.147 s
(quartiles of 11 runs) and 17.5 MB max-RSS at the default budget 35, as CSV
does, and 0.31 s and 16 MB at ``--n-max 45 --budget 45`` (2 CPUs,
Python 3.11.7, no bytecode cache; ``python -c pass`` takes 26 ms).

The combinatorial crank of the single partition of 1 is -1, while the crank
generating function assigns n = 1 the counts M(0,1) = -1 and M(1,1) = 1.
Checks that compare enumeration against crank formulas therefore start their
enumeration grids at n = 2 and carry explicit records freezing the documented
n = 1 values on both sides, so the discrepancy is asserted, never skipped.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache

from . import _Frozen
from .partitions import (
    Partition,
    PartitionStatistics,
    distinct_parts_count,
    enumerate_partitions,
    partition_statistics_table,
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


# The statistics records of n = 0, 1, ..., as far as the widest sweep so far.
_STATISTICS: tuple[PartitionStatistics, ...] = ()


def _statistics(n: int, budget: int) -> PartitionStatistics:
    # The budget is checked first, so the records never reach past the
    # largest budget asked for.  A miss sweeps every n up to the budget at
    # once; partition_statistics_table is looked up at call time, so a
    # wrapper bound to that name in this module sees every sweep.
    global _STATISTICS
    _require_budget(n, budget)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= len(_STATISTICS):
        _STATISTICS = partition_statistics_table(budget)
    return _STATISTICS[n]


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
    return _statistics(n, budget).odd_gap_above.get(j, 0)


def crank_value_oracle(n: int, m: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with combinatorial crank exactly m, by enumeration."""
    return _statistics(n, budget).crank.get(m, 0)


def crank_geq_oracle(n: int, j: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with combinatorial crank at least j, by enumeration."""
    return sum(count for value, count in _statistics(n, budget).crank.items() if value >= j)


def mex_value_oracle(n: int, m: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n with mex exactly m, by enumeration."""
    return _statistics(n, budget).mex.get(m, 0)


def mex_residue_oracle(n: int, residue: int, modulus: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose mex is congruent to residue mod modulus."""
    return sum(count for value, count in _statistics(n, budget).mex.items()
               if value % modulus == residue)


def frobenius_no0_oracle(n: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose Frobenius symbol has no 0 in either row."""
    return _statistics(n, budget).zero_free


def frobenius_top_avoids_oracle(n: int, j: int, *, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of n whose Frobenius symbol has no j in its top row."""
    stats = _statistics(n, budget)
    return stats.count - stats.top_entry.get(j, 0)


class Leg(namedtuple("Leg", "side points lhs rhs")):
    """Two computations compared at each of their own grid points, in order.

    ``points()`` makes the leg's points afresh; ``lhs`` and ``rhs`` map one
    point to an integer each.  ``side`` names the leg within its check, or is
    None for a check of one leg; :attr:`grid` stamps it into every point as
    ``"side"``, so each record says which leg produced it.
    """

    __slots__ = ()

    @property
    def grid(self) -> Iterable[Params]:
        if self.side is None:
            return self.points()
        return ({"side": self.side, **point} for point in self.points())


class IdentityCheck(_Frozen):
    """A named claim: two computations that must agree exactly.

    ``legs`` are evaluated in order; each fixes its grid points and the two
    callables compared on them.  The oracle side never imports a formula
    module, but five legs of the registry below share code between their
    two callables: COR_0CRANK ``expansion`` sums the same combination of
    p values on both sides; EWELL_EVEN and PROP_O13 ``formula`` play a
    p row against the q(n) table, which share the pentagonal slice sums of
    :mod:`mexcrank.partitions`; both sides of SERIES_HEINE run
    ``qseries._running_sum``; and DURFEE_RECT shares only the series
    plumbing.  ROADMAP.md item 8 has the measurement.  ``grid`` is the
    points of every leg, in evaluation order.  Immutable; equal only to
    itself.
    """

    __slots__ = ("check_id", "statement", "legs")
    check_id: str
    statement: str
    legs: tuple[Leg, ...]

    def __init__(self, check_id: str, statement: str, legs: tuple[Leg, ...]) -> None:
        self._init(check_id, statement, legs)

    @property
    def grid(self) -> tuple[Params, ...]:
        return tuple(point for leg in self.legs for point in leg.grid)


class CheckRecord(namedtuple("CheckRecord", "params lhs rhs")):
    """One grid point's outcome: its ``params`` and the integers ``lhs`` and
    ``rhs``."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_jsonable(self, check_id: str) -> dict:
        return {
            "check_id": check_id,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }


class VerificationReport(_Frozen):
    """Deterministic per-point results for one check, in grid order.
    Immutable; equal only to itself."""

    __slots__ = ("check_id", "statement", "records")
    check_id: str
    statement: str
    records: tuple[CheckRecord, ...]

    def __init__(self, check_id: str, statement: str,
                 records: tuple[CheckRecord, ...]) -> None:
        self._init(check_id, statement, records)

    @property
    def passed(self) -> bool:
        return self.first_counterexample is None

    @property
    def first_counterexample(self) -> CheckRecord | None:
        return next((record for record in self.records if not record.passed), None)

    def to_jsonable(self) -> dict:
        counterexample = self.first_counterexample
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "pass": counterexample is None,
            "total": len(self.records),
            "failed": sum(not record.passed for record in self.records),
            "first_counterexample": (
                None if counterexample is None else counterexample.to_jsonable(self.check_id)
            ),
            "records": [record.to_jsonable(self.check_id) for record in self.records],
        }


def _require_points(check: IdentityCheck) -> None:
    # One point per leg is enough to tell an empty grid, and costs no lhs/rhs.
    if all(next(iter(leg.grid), None) is None for leg in check.legs):
        raise ValueError(f"check {check.check_id} has an empty parameter grid")


def run_check(check: IdentityCheck) -> VerificationReport:
    """Evaluate both sides at every grid point, leg by leg; exact equality
    everywhere.  Records come back in grid order; a check with no point in
    any leg raises ValueError before anything is evaluated."""
    _require_points(check)
    return VerificationReport(check.check_id, check.statement, tuple(
        CheckRecord(point, leg.lhs(point), leg.rhs(point))
        for leg in check.legs for point in leg.grid))


def perturbed(check: IdentityCheck, where: Params, delta: int = 1) -> IdentityCheck:
    """Copy of a check whose rhs is shifted by delta wherever the grid point
    matches every key in ``where``.  Harness self-test: the perturbed check
    must fail with a counterexample at exactly those points."""

    def shifted(rhs: Callable[[Params], int]) -> Callable[[Params], int]:
        return lambda point: rhs(point) + delta * all(
            point.get(key) == expected for key, expected in where.items())

    return IdentityCheck(
        check_id=f"{check.check_id}:perturbed",
        statement=check.statement,
        legs=tuple(leg._replace(rhs=shifted(leg.rhs)) for leg in check.legs),
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

    # One GfKind and one build per distinct series; qseries.gf and GfKind
    # are read at call time, so a wrapper bound to either sees every build.
    @lru_cache(maxsize=None)
    def series(order: int, tag: str, param: int | None = None) -> qseries.TruncatedSeries:
        return qseries.gf(qseries.GfKind(tag, param), order)

    def span(default: int) -> int:
        return default if n_max is None else n_max

    top = min(span(35), budget)
    # The oracles sweep as far as the enumeration grids reach, and no
    # further: top, or n = 1 for the pinned legs.
    reach = min(budget, max(top, 1))
    series_top = order if order is not None else span(200)
    o13_top, crank_top = span(400), span(300)

    def crank_geq_formula(p: Params) -> int:
        return counting.crank_geq_count(p["j"], p["n"])

    def crank_geq_enumerated(p: Params) -> int:
        return crank_geq_oracle(p["n"], p["j"], budget=reach)

    def crank_formula(p: Params) -> int:
        return counting.crank_count(p["m"], p["n"])

    def crank_enumerated(p: Params) -> int:
        return crank_value_oracle(p["n"], p["m"], budget=reach)

    def crank_zero_formula(p: Params) -> int:
        return counting.crank_count(0, p["n"])

    def frob_no0_series(p: Params) -> int:
        return series(series_top, "frob_no0")[p["n"]]

    def frob_no0_step(p: Params) -> int:
        # Coefficient n of (1 - q) times the zero-free Frobenius series.
        frob, n = series(series_top, "frob_no0"), p["n"]
        return frob[n] - (frob[n - 1] if n else 0)

    def pinned_n1(side: str, param: str, values: Mapping[int, tuple[int, int]],
                  formula: Callable[[Params], int],
                  oracle: Callable[[Params], int]) -> tuple[Leg, ...]:
        # Per parameter value, the formula then the enumeration at n = 1,
        # each against its documented constant; like every enumeration
        # grid, the enumeration is capped by the budget.
        sides = (side, "n1_oracle") if budget >= 1 else (side,)
        return tuple(
            Leg(leg_side, lambda value=value: ({param: value, "n": 1},),
                lhs, lambda p, pinned=pinned: pinned)
            for value, pair in values.items()
            for leg_side, lhs, pinned in zip(sides, (formula, oracle), pair)
        )

    def o13_rhs(p: Params) -> int:
        return distinct_parts_count(p["n"] // 2) if p["n"] % 2 == 0 else 0

    return (
        IdentityCheck("THM_JCRANK", (
            "For j = 0 or j a part, partitions of n whose least non-part above j "
            "exceeds j by an odd amount are equinumerous with partitions of n "
            "having crank at least j; the enumeration crank agrees from n = 2 on, "
            "with the n = 1 values pinned explicitly."
        ), (
            Leg("mex_oracle", lambda: ({"j": j, "n": n} for j in range(11) for n in range(top + 1)),
                lambda p: mex_above_odd_oracle(p["n"], p["j"], budget=reach),
                crank_geq_formula),
            Leg("crank_oracle", lambda: ({"j": j, "n": n} for j in range(11) for n in range(2, top + 1)),
                crank_geq_enumerated, crank_geq_formula),
            *pinned_n1("n1_series", "j", _N1_CRANK_GEQ, crank_geq_formula, crank_geq_enumerated),
        )),
        IdentityCheck("COR_CRANKRECUR", (
            "The alternating sum over k of p(n - k(k+2|m|-1)/2) - p(n - k(k+2|m|+1)/2) "
            "counts partitions of n with crank m, matching enumeration for n >= 2 and "
            "the crank series coefficients everywhere, with the n = 1 values pinned."
        ), (
            Leg("oracle", lambda: ({"m": m, "n": n} for m in range(-12, 13) for n in range(2, top + 1)),
                crank_enumerated, crank_formula),
            Leg("series", lambda: ({"m": m, "n": n} for m in range(13) for n in range(series_top + 1)),
                lambda p: series(series_top, "crank_m", p["m"])[p["n"]],
                crank_formula),
            *pinned_n1("n1_formula", "m", _N1_CRANK_M, crank_formula, crank_enumerated),
        )),
        IdentityCheck("PROP_MEXFORM", (
            "Partitions of n with mex exactly m number p(n - t(m-1)) - p(n - t(m))."
        ), (
            Leg(None, lambda: ({"m": m, "n": n} for m in range(1, 11) for n in range(top + 1)),
                lambda p: mex_value_oracle(p["n"], p["m"], budget=reach),
                lambda p: counting.mex_count(p["m"], p["n"])),
        )),
        IdentityCheck("COR_0CRANK", (
            "The crank-zero count equals p(n) + 2 sum_k (-1)^k p(n - t(k)), with "
            "head values 1, -1, 0, 1, 1, 1 and enumeration agreement from n = 2."
        ), (
            Leg("expansion", lambda: ({"n": n} for n in range(span(300) + 1)),
                lambda p: counting.crank_zero_expansion(p["n"]), crank_zero_formula),
            Leg("documented", lambda: ({"n": n} for n in range(len(_CRANK0_HEAD))),
                lambda p: counting.crank_zero_expansion(p["n"]),
                lambda p: _CRANK0_HEAD[p["n"]]),
            Leg("oracle", lambda: ({"n": n} for n in range(2, top + 1)),
                lambda p: crank_value_oracle(p["n"], 0, budget=reach), crank_zero_formula),
        )),
        IdentityCheck("PROP_NOF0", (
            "The crank-zero count M(0,n) equals F(n) - F(n-1), where F counts "
            "partitions whose Frobenius symbol avoids 0 in both rows; in "
            "particular M(0,1) = -1 = F(1) - F(0)."
        ), (
            Leg("series", lambda: ({"n": n} for n in range(series_top + 1)),
                frob_no0_step, crank_zero_formula),
            Leg("oracle", lambda: ({"n": n} for n in range(min(top, series_top) + 1)),
                lambda p: frobenius_no0_oracle(p["n"], budget=reach), frob_no0_series),
        )),
        IdentityCheck("THM_FROB_J", (
            "Partitions of n with crank at least j are equinumerous with "
            "partitions of n - j whose Frobenius symbol has no j in its top row."
        ), (
            Leg("series",
                lambda: ({"j": j, "n": n} for j in range(9) for n in range(j, series_top + 1)),
                lambda p: series(series_top, "frob_noj_top", p["j"])[p["n"] - p["j"]],
                crank_geq_formula),
            Leg("oracle",
                lambda: ({"j": j, "w": w} for j in range(9) for w in range(min(top, series_top) + 1)),
                lambda p: frobenius_top_avoids_oracle(p["w"], p["j"], budget=reach),
                lambda p: series(series_top, "frob_noj_top", p["j"])[p["w"]]),
        )),
        IdentityCheck("PROP_O13", (
            "Among partitions of n, those with mex = 1 mod 4 outnumber those "
            "with mex = 3 mod 4 by q(n/2) for even n and 0 for odd n."
        ), (
            Leg("formula", lambda: ({"n": n} for n in range(1, o13_top + 1)),
                lambda p: counting.mex_1mod4_count(p["n"]) - counting.mex_3mod4_count(p["n"]),
                o13_rhs),
            Leg("oracle", lambda: ({"n": n} for n in range(1, min(top, o13_top) + 1)),
                lambda p: (mex_residue_oracle(p["n"], 1, 4, budget=reach)
                           - mex_residue_oracle(p["n"], 3, 4, budget=reach)),
                o13_rhs),
        )),
        IdentityCheck("EWELL_EVEN", (
            "Ewell's identity at even arguments: sum_j (-1)^(t(j)) p(2k - t(j)) "
            "equals the distinct-parts count q(k)."
        ), (
            Leg(None, lambda: ({"k": k} for k in range(span(300) + 1)),
                lambda p: counting.ewell_even_sum(p["k"]),
                lambda p: distinct_parts_count(p["k"])),
        )),
        IdentityCheck("EWELL_ODD", (
            "Ewell's identity at odd arguments: sum_j (-1)^(t(j)) p(2k + 1 - t(j)) "
            "vanishes for every k."
        ), (
            Leg(None, lambda: ({"k": k} for k in range(span(300) + 1)),
                lambda p: counting.ewell_odd_sum(p["k"]), lambda p: 0),
        )),
        IdentityCheck("THM_AN_PARITY", (
            "The odd-mex partition count o(n) is odd exactly when "
            "n = j(3j+1) or n = j(3j-1) (Andrews-Newman parity)."
        ), (
            Leg(None, lambda: ({"n": n} for n in range(1, span(2000) + 1)),
                lambda p: counting.odd_mex_count(p["n"]) % 2,
                lambda p: 1 if counting.is_double_pentagonal(p["n"]) else 0),
        )),
        IdentityCheck("INEQ_OE", (
            "Odd-mex partitions strictly outnumber even-mex partitions of n "
            "for every n > 2 (Hopkins-Sellers inequality)."
        ), (
            Leg(None, lambda: ({"n": n} for n in range(3, span(1000) + 1)),
                lambda p: 1 if counting.odd_mex_count(p["n"]) > counting.even_mex_count(p["n"]) else 0,
                lambda p: 1),
        )),
        IdentityCheck("SERIES_HEINE", (
            "Heine transformation instance: (1 - q) times the zero-free "
            "Frobenius series equals the q-Pochhammer product times "
            "sum_k q^(2k) / (q;q)_k^2, coefficient by coefficient."
        ), (
            Leg(None, lambda: ({"n": n} for n in range(series_top + 1)),
                frob_no0_step,
                lambda p: series(series_top, "crank0_alt")[p["n"]]),
        )),
        IdentityCheck("DURFEE_RECT", (
            "Classifying partitions by their largest s x (s+b) Durfee "
            "rectangle reproduces the partition generating function for "
            "every offset b."
        ), (
            Leg(None, lambda: ({"b": b, "n": n} for b in range(11) for n in range(series_top + 1)),
                lambda p: series(series_top, "durfee_rect_b", p["b"])[p["n"]],
                lambda p: series(series_top, "euler_inv")[p["n"]]),
        )),
        IdentityCheck("CRANK_GF_CONSISTENCY", (
            "Coefficients of the crank generating function at parameter m "
            "equal the closed-form crank counts M(m,n)."
        ), (
            Leg(None, lambda: ({"m": m, "n": n} for m in range(13) for n in range(crank_top + 1)),
                lambda p: series(crank_top, "crank_m", p["m"])[p["n"]],
                crank_formula),
        )),
    )


def checks_by_id(
    n_max: int | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
    order: int | None = None,
) -> dict[str, IdentityCheck]:
    """The registry keyed by check id, for lookup-style callers."""
    return {check.check_id: check for check in registry(n_max, budget=budget, order=order)}
