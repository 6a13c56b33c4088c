"""Brute-force oracles and the registry of identity checks.

The harness plays two independent computations against each other at every
point of a parameter grid and demands exact integer equality.  One side is
usually an exhaustive enumeration over partitions (the oracle), the other a
closed form or a series coefficient.  A check is a tuple of legs, each a grid
with its own pair of computations; a check with several legs (say,
enumeration against the formula for small n, then series against the formula
for large n) stamps each leg's name into its points as ``"side"``, and its
records follow the legs in order.  A leg's grid is a few rows, one per
parameter value, each a range of n, and each side gives its values over a
whole row at once: a formula or series side as a slice of a cached row (a
``counting`` row or a series' coefficients), an enumeration side by reading
a per-n oracle at each n of the row.  A report is those rows, each with
its params but n and the name of n; it counts its points and failures from
them, makes the records, each with its point's params dict, only when asked
for, and the command line renders the rows without them.  A check's rows
exist only while it runs, so unselected checks cost nothing.  Module
discipline keeps the sides honest: oracle code in this file touches only
:mod:`mexcrank.partitions`; the formula modules (:mod:`mexcrank.counting`,
:mod:`mexcrank.qseries`) are imported inside :func:`registry` so that
neither side can lean on the other.

The registry's enumeration sides read the per-n oracles below, one n at a
time, and only the oracles read a statistic: each but :func:`oracle_count`
reads one :class:`~mexcrank.partitions.PartitionStatistics` record.  A miss
sweeps the records of every n up to the oracle's budget at once, with
:func:`~mexcrank.partitions.partition_statistics_table`, and keeps them in
one tuple; the registry passes its oracles the reach of its enumeration
grids as their budget, so one sweep serves every check.  A record is a few
histograms of at most 2n + 1 small integers, never a list of partitions.

The combinatorial crank of the single partition of 1 is -1, while the crank
generating function assigns n = 1 the counts M(0,1) = -1 and M(1,1) = 1.
Checks that compare enumeration against crank formulas therefore start their
enumeration grids at n = 2 and carry explicit records freezing the documented
n = 1 values on both sides, so the discrepancy is asserted, never skipped.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import chain, repeat
from operator import add, gt, ne, sub

from . import _Value
from .partitions import (
    Partition,
    PartitionStatistics,
    distinct_parts_count,
    enumerate_partitions,
    partition_statistics_table,
)

DEFAULT_BUDGET = 35

Params = Mapping[str, int | str]

# A side of a leg: its values over a range of n at one parameter value.
Side = Callable[[object, range], Sequence[int]]


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


def _cut(values: Sequence, ns: range, shift: int = 0) -> Sequence:
    # values[n - shift] for every n of ns, as one slice.
    return values[ns.start - shift:ns.stop - shift:ns.step]


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


class Leg(namedtuple("Leg", "side param values key ranges lhs rhs")):
    """Two computations compared over the rows of a grid, row by row.

    Row i sets the parameter named ``param`` to ``values[i]`` and runs n,
    named ``key`` (``"n"``, ``"k"`` or ``"w"``), over ``ranges[i]``; a leg
    with no parameter has ``param`` None and the one value None.
    ``lhs(value, ns)`` and ``rhs(value, ns)`` give their side's values over
    a range ns of n, one per n, in order.  ``side`` names the leg within its
    check, or is None for a check of one leg; every point of the leg holds it
    as ``"side"``, so each record says which leg produced it.
    """

    __slots__ = ()

    def head(self, value: object) -> dict[str, object]:
        """The params of the row at value but n: side and parameter."""
        head: dict[str, object] = {} if self.side is None else {"side": self.side}
        if self.param is not None:
            head[self.param] = value
        return head

    def points(self, value: object, ns: range) -> Iterator[Params]:
        """The points of the row at value over ns: side, parameter and n."""
        return _points(self.head(value), self.key, ns)

    @property
    def grid(self) -> Iterable[Params]:
        return chain.from_iterable(map(self.points, self.values, self.ranges))


def _points(head: Params, key: str, ns: range) -> Iterator[Params]:
    return ({**head, key: n} for n in ns)


class IdentityCheck(_Value):
    """A named claim: two computations that must agree exactly.

    ``legs`` are evaluated in order; each fixes its grid rows and the two
    callables compared on them.  The oracle side never imports a formula
    module.  Beyond the series plumbing, the legs whose two callables share
    code are the allowlist of ``tests/test_independence.py``, which audits
    every leg: COR_0CRANK ``expansion`` and PROP_MEXRES ``oe_crank0`` each
    sum one combination of p values on both sides, by the counting row
    kernel over the shared p table, so they catch a misspelled stream but
    not a fault of the p table; EWELL_EVEN and PROP_O13 ``formula`` play a
    p row against the q(n) table, and both tables grow by ``_grow``,
    ``_pentagonal`` and ``_slice_sums`` of partitions; and SERIES_HEINE
    runs ``_running_sum`` and ``_div_one_minus_qk`` of qseries on both
    sides.  ``grid`` is the points of every leg, in evaluation order.
    Immutable; equal to a check with equal fields, so a copy equals its
    original.
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


# One row of a leg as run: its params but n (``head``), the name of n
# (``key``), the range of n and the two sides' values over it.
Row = namedtuple("Row", "head key ns lhs rhs")


class VerificationReport(_Value):
    """Deterministic results for one check, as the :class:`Row`s that
    :func:`run_check` evaluated, in grid order; a row whose sides do not give
    one value per n raises ValueError.  ``total`` counts the points,
    ``failed`` those whose two sides differ, and ``records`` makes the
    :class:`CheckRecord` of every point, with its params dict, on each access.
    Immutable; equal to a report with equal fields, so two runs of one check
    give equal reports, and unhashable, as its rows hold dicts."""

    __slots__ = ("check_id", "statement", "rows")
    check_id: str
    statement: str
    rows: tuple[Row, ...]

    def __init__(self, check_id: str, statement: str, rows: Iterable[Row]) -> None:
        rows = tuple(rows)
        for row in rows:
            if not len(row.lhs) == len(row.rhs) == len(row.ns):
                raise ValueError(f"a row at {row.head!r} gives {len(row.lhs)} and "
                                 f"{len(row.rhs)} values for {len(row.ns)} n")
        self._init(check_id, statement, rows)

    @property
    def total(self) -> int:
        return sum(len(row.ns) for row in self.rows)

    @property
    def failed(self) -> int:
        """The number of points whose two sides differ."""
        return sum(sum(map(ne, row.lhs, row.rhs)) for row in self.rows)

    @property
    def passed(self) -> bool:
        return not self.failed

    @property
    def records(self) -> tuple[CheckRecord, ...]:
        # tuple.__new__ runs no Python frame where CheckRecord(...) runs
        # namedtuple's __new__.
        return tuple(chain.from_iterable(
            map(tuple.__new__, repeat(CheckRecord),
                zip(_points(row.head, row.key, row.ns), row.lhs, row.rhs))
            for row in self.rows))

    @property
    def first_counterexample(self) -> CheckRecord | None:
        return next((record for record in self.records if not record.passed), None)

    def to_jsonable(self) -> dict:
        records = self.records  # made once, not once per use
        counterexample = next((record for record in records if not record.passed), None)
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "pass": counterexample is None,
            "total": len(records),
            "failed": self.failed,
            "first_counterexample": (
                None if counterexample is None else counterexample.to_jsonable(self.check_id)
            ),
            "records": [record.to_jsonable(self.check_id) for record in records],
        }


def _require_points(check: IdentityCheck) -> None:
    # A range's length is known without making a point or calling a side.
    if not any(ns for leg in check.legs for ns in leg.ranges):
        raise ValueError(f"check {check.check_id} has an empty parameter grid")


def run_check(check: IdentityCheck) -> VerificationReport:
    """Evaluate both sides over every row of every leg, in order; exact
    equality everywhere.  Records come back in grid order; a check with no
    point in any leg raises ValueError before anything is evaluated."""
    _require_points(check)
    return VerificationReport(check.check_id, check.statement, (
        Row(leg.head(value), leg.key, ns, leg.lhs(value, ns), leg.rhs(value, ns))
        for leg in check.legs for value, ns in zip(leg.values, leg.ranges) if ns))


def perturbed(check: IdentityCheck, where: Params, delta: int = 1) -> IdentityCheck:
    """Copy of a check whose rhs is shifted by delta wherever the grid point
    matches every key in ``where``.  Harness self-test: the perturbed check
    must fail with a counterexample at exactly those points."""

    def shifted(leg: Leg) -> Leg:
        def rhs(value: object, ns: range) -> list[int]:
            return [entry + delta * all(point.get(key) == expected
                                        for key, expected in where.items())
                    for entry, point in zip(leg.rhs(value, ns), leg.points(value, ns))]
        return leg._replace(rhs=rhs)

    return IdentityCheck(
        check_id=f"{check.check_id}:perturbed",
        statement=check.statement,
        legs=tuple(map(shifted, check.legs)),
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
    def series(order: int, tag: str, param: int | None) -> qseries.TruncatedSeries:
        return qseries.gf(qseries.GfKind(tag, param), order)

    def span(default: int) -> int:
        return default if n_max is None else n_max

    top = min(span(35), budget)
    # The oracles sweep as far as the enumeration grids reach, and no
    # further: top, or n = 1 for the pinned legs.
    reach = min(budget, max(top, 1))
    series_top = order if order is not None else span(200)
    o13_top, crank_top, mexres_top = span(400), span(300), span(2000)

    # A formula or series side gives its values over ns as one slice of a
    # cached row: a counting row (row) or a series' coefficients (coeffs).
    # An enumeration side reads a per-n oracle at each n of ns (enumerated).
    row = counting.count_row

    def coeffs(ns: range, order: int, tag: str, param: int | None = None,
               shift: int = 0) -> Sequence[int]:
        return _cut(series(order, tag, param).coeffs, ns, shift)

    def enumerated(oracle: Callable[..., int], *args: int) -> Side:
        # The oracle at each n of ns, at the row's parameter value and then
        # args; a leg with no parameter passes args alone.
        def side(value: object, ns: range) -> list[int]:
            params = args if value is None else (value, *args)
            return [oracle(n, *params, budget=reach) for n in ns]
        return side

    def plain_leg(side: str | None, ns: range, lhs: Side, rhs: Side, key: str = "n") -> Leg:
        return Leg(side, None, (None,), key, (ns,), lhs, rhs)

    def param_leg(side: str | None, param: str, values: range, ns: range, lhs: Side,
                  rhs: Side, key: str = "n") -> Leg:
        # A leg whose parameter takes each of values over one range of n.
        return Leg(side, param, tuple(values), key, (ns,) * len(values), lhs, rhs)

    def crank_geq_formula(j: int, ns: range) -> list[int]:
        return row("crank_geq", j, ns)

    def crank_formula(m: int, ns: range) -> list[int]:
        return row("M", abs(m), ns)  # M(m, n) is M(-m, n): one row for both

    def crank_zero_formula(_: None, ns: range) -> list[int]:
        return row("M", 0, ns)

    def frob_no0_series(_: None, ns: range) -> Sequence[int]:
        return coeffs(ns, series_top, "frob_no0")

    def frob_no0_step(_: None, ns: range) -> list[int]:
        # Coefficient n of (1 - q) times the zero-free Frobenius series.
        frob = series(series_top, "frob_no0", None).coeffs
        return list(map(sub, _cut(frob, ns), _cut((0, *frob), ns)))

    def pinned_n1(side: str, param: str, values: Mapping[int, tuple[int, int]],
                  formula: Side, oracle: Side) -> tuple[Leg, ...]:
        # Per parameter value, the formula then the enumeration at n = 1,
        # each against its documented constant; like every enumeration
        # grid, the enumeration is capped by the budget.
        sides = (side, "n1_oracle") if budget >= 1 else (side,)
        return tuple(
            Leg(leg_side, param, (value,), "n", (range(1, 2),), lhs,
                lambda _, ns, pinned=pinned: [pinned] * len(ns))
            for value, pair in values.items()
            for leg_side, lhs, pinned in zip(sides, (formula, oracle), pair)
        )

    def o13_rhs(_: None, ns: range) -> list[int]:
        return [distinct_parts_count(n // 2) if n % 2 == 0 else 0 for n in ns]

    def mex_class_leg(stream: str, residue: int, modulus: int) -> Leg:
        # The count of partitions whose mex is residue mod modulus, by its
        # counting stream against the enumeration.
        return plain_leg(f"{stream}_oracle", range(top + 1),
                         enumerated(mex_residue_oracle, residue, modulus),
                         lambda _, ns: row(stream, None, ns))

    def no0_top_series(_: None, ns: range) -> Sequence[int]:
        return coeffs(ns, mexres_top, "frob_noj_top", 0)

    return (
        IdentityCheck("THM_JCRANK", (
            "For j = 0 or j a part, partitions of n whose least non-part above j "
            "exceeds j by an odd amount are equinumerous with partitions of n "
            "having crank at least j; the enumeration crank agrees from n = 2 on, "
            "with the n = 1 values pinned explicitly."
        ), (
            param_leg("mex_oracle", "j", range(11), range(top + 1),
                      enumerated(mex_above_odd_oracle), crank_geq_formula),
            param_leg("crank_oracle", "j", range(11), range(2, top + 1),
                      enumerated(crank_geq_oracle), crank_geq_formula),
            *pinned_n1("n1_series", "j", _N1_CRANK_GEQ, crank_geq_formula,
                       enumerated(crank_geq_oracle)),
        )),
        IdentityCheck("COR_CRANKRECUR", (
            "The alternating sum over k of p(n - k(k+2|m|-1)/2) - p(n - k(k+2|m|+1)/2) "
            "counts partitions of n with crank m, matching enumeration for n >= 2 and "
            "the crank series coefficients everywhere, with the n = 1 values pinned."
        ), (
            param_leg("oracle", "m", range(-12, 13), range(2, top + 1),
                      enumerated(crank_value_oracle), crank_formula),
            # A truncated series' coefficients do not depend on its order, so
            # this leg reads each crank series at the wider of its order and
            # CRANK_GF_CONSISTENCY's, and the two checks share one build per
            # m.  So this check alone, at the defaults, builds them to 300.
            param_leg("series", "m", range(13), range(series_top + 1),
                      lambda m, ns: coeffs(ns, max(series_top, crank_top), "crank_m", m),
                      crank_formula),
            *pinned_n1("n1_formula", "m", _N1_CRANK_M, crank_formula,
                       enumerated(crank_value_oracle)),
        )),
        IdentityCheck("PROP_MEXFORM", (
            "Partitions of n with mex exactly m number p(n - t(m-1)) - p(n - t(m))."
        ), (
            param_leg(None, "m", range(1, 11), range(top + 1),
                      enumerated(mex_value_oracle), lambda m, ns: row("x_mex", m, ns)),
        )),
        IdentityCheck("COR_0CRANK", (
            "The crank-zero count equals p(n) + 2 sum_k (-1)^k p(n - t(k)), with "
            "head values 1, -1, 0, 1, 1, 1 and enumeration agreement from n = 2."
        ), (
            plain_leg("expansion", range(span(300) + 1),
                      lambda _, ns: row("crank_zero", None, ns), crank_zero_formula),
            plain_leg("documented", range(len(_CRANK0_HEAD)),
                      lambda _, ns: row("crank_zero", None, ns),
                      lambda _, ns: _cut(_CRANK0_HEAD, ns)),
            plain_leg("oracle", range(2, top + 1),
                      enumerated(crank_value_oracle, 0), crank_zero_formula),
        )),
        IdentityCheck("PROP_NOF0", (
            "The crank-zero count M(0,n) equals F(n) - F(n-1), where F counts "
            "partitions whose Frobenius symbol avoids 0 in both rows; in "
            "particular M(0,1) = -1 = F(1) - F(0)."
        ), (
            plain_leg("series", range(series_top + 1), frob_no0_step, crank_zero_formula),
            plain_leg("oracle", range(min(top, series_top) + 1),
                      enumerated(frobenius_no0_oracle), frob_no0_series),
        )),
        IdentityCheck("THM_FROB_J", (
            "Partitions of n with crank at least j are equinumerous with "
            "partitions of n - j whose Frobenius symbol has no j in its top row."
        ), (
            Leg("series", "j", tuple(range(9)), "n",
                tuple(range(j, series_top + 1) for j in range(9)),
                lambda j, ns: coeffs(ns, series_top, "frob_noj_top", j, shift=j),
                crank_geq_formula),
            param_leg("oracle", "j", range(9), range(min(top, series_top) + 1),
                      enumerated(frobenius_top_avoids_oracle),
                      lambda j, ns: coeffs(ns, series_top, "frob_noj_top", j), key="w"),
        )),
        IdentityCheck("PROP_O13", (
            "Among partitions of n, those with mex = 1 mod 4 outnumber those "
            "with mex = 3 mod 4 by q(n/2) for even n and 0 for odd n."
        ), (
            plain_leg("formula", range(1, o13_top + 1),
                      lambda _, ns: list(map(sub, row("o1", None, ns), row("o3", None, ns))),
                      o13_rhs),
            plain_leg("oracle", range(1, min(top, o13_top) + 1),
                      lambda _, ns: [mex_residue_oracle(n, 1, 4, budget=reach)
                                     - mex_residue_oracle(n, 3, 4, budget=reach) for n in ns],
                      o13_rhs),
        )),
        IdentityCheck("EWELL_EVEN", (
            "Ewell's identity at even arguments: sum_j (-1)^(t(j)) p(2k - t(j)) "
            "equals the distinct-parts count q(k)."
        ), (
            plain_leg(None, range(span(300) + 1),
                      lambda _, ks: row("ewell", None, range(2 * ks.start, 2 * ks.stop, 2 * ks.step)),
                      lambda _, ks: list(map(distinct_parts_count, ks)), key="k"),
        )),
        IdentityCheck("EWELL_ODD", (
            "Ewell's identity at odd arguments: sum_j (-1)^(t(j)) p(2k + 1 - t(j)) "
            "vanishes for every k."
        ), (
            plain_leg(None, range(span(300) + 1),
                      lambda _, ks: row("ewell", None,
                                        range(2 * ks.start + 1, 2 * ks.stop + 1, 2 * ks.step)),
                      lambda _, ks: [0] * len(ks), key="k"),
        )),
        IdentityCheck("THM_AN_PARITY", (
            "The odd-mex partition count o(n) is odd exactly when "
            "n = j(3j+1) or n = j(3j-1) (Andrews-Newman parity)."
        ), (
            plain_leg(None, range(1, span(2000) + 1),
                      lambda _, ns: [o % 2 for o in row("o", None, ns)],
                      lambda _, ns: list(map(int, map(counting.is_double_pentagonal, ns)))),
        )),
        IdentityCheck("INEQ_OE", (
            "Odd-mex partitions strictly outnumber even-mex partitions of n "
            "for every n > 2 (Hopkins-Sellers inequality)."
        ), (
            plain_leg(None, range(3, span(1000) + 1),
                      lambda _, ns: list(map(int, map(gt, row("o", None, ns), row("e", None, ns)))),
                      lambda _, ns: [1] * len(ns)),
        )),
        IdentityCheck("SERIES_HEINE", (
            "Heine transformation instance: (1 - q) times the zero-free "
            "Frobenius series equals the q-Pochhammer product times "
            "sum_k q^(2k) / (q;q)_k^2, coefficient by coefficient."
        ), (
            plain_leg(None, range(series_top + 1), frob_no0_step,
                      lambda _, ns: coeffs(ns, series_top, "crank0_alt")),
        )),
        IdentityCheck("DURFEE_RECT", (
            "Classifying partitions by their largest s x (s+b) Durfee "
            "rectangle reproduces the partition generating function for "
            "every offset b."
        ), (
            param_leg(None, "b", range(11), range(series_top + 1),
                      lambda b, ns: coeffs(ns, series_top, "durfee_rect_b", b),
                      lambda _, ns: coeffs(ns, series_top, "euler_inv")),
        )),
        IdentityCheck("CRANK_GF_CONSISTENCY", (
            "Coefficients of the crank generating function at parameter m "
            "equal the closed-form crank counts M(m,n)."
        ), (
            param_leg(None, "m", range(13), range(crank_top + 1),
                      lambda m, ns: coeffs(ns, crank_top, "crank_m", m), crank_formula),
        )),
        IdentityCheck("PROP_MEXRES", (
            "The counts o(n), e(n), o1(n) and o3(n) of partitions of n with mex odd, "
            "even, 1 mod 4 and 3 mod 4 match enumeration; o(n) and o1(n) + o3(n) "
            "count the partitions of n with no 0 in the Frobenius top row, as odd "
            "mex, crank at least 0 and no 0 there are equinumerous; e(n) + o(n) "
            "is p(n); and o(n) - e(n) is the crank-zero count M(0,n)."
        ), (
            mex_class_leg("o", 1, 2),
            mex_class_leg("e", 0, 2),
            mex_class_leg("o1", 1, 4),
            mex_class_leg("o3", 3, 4),
            plain_leg("o_series", range(mexres_top + 1), no0_top_series,
                      lambda _, ns: row("o", None, ns)),
            # o1 + o3 is the combination of p values that o is, so this leg
            # adds to o_series only the spelling of the o1 and o3 streams.
            # o - e and M(0, n) are one combination too: oe_crank0 catches a
            # misspelled stream, not a fault of the p table.
            plain_leg("o13_series", range(mexres_top + 1), no0_top_series,
                      lambda _, ns: list(map(add, row("o1", None, ns), row("o3", None, ns)))),
            plain_leg("oe_partitions", range(series_top + 1),
                      lambda _, ns: coeffs(ns, series_top, "euler_inv"),
                      lambda _, ns: list(map(add, row("e", None, ns), row("o", None, ns)))),
            plain_leg("oe_crank0", range(mexres_top + 1),
                      lambda _, ns: list(map(sub, row("o", None, ns), row("e", None, ns))),
                      crank_zero_formula),
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
