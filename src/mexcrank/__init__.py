"""Exact integer-partition statistics, truncated q-series, and identity checks.

The package computes partition statistics (mex, generalized mex, crank,
Frobenius symbols), expands the related generating functions as exact
truncated power series, evaluates the classical closed-form counting
formulas, and cross-checks all of them against brute-force enumeration
through a registry of identity checks.  Everything is arbitrary-precision
integer arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

from .counting import (
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
from .partitions import (
    FrobeniusSymbol,
    MalformedSymbolError,
    Partition,
    PartitionStatistics,
    UndefinedMexError,
    conjugate,
    crank,
    distinct_parts_count,
    durfee_size,
    enumerate_partitions,
    from_frobenius,
    mex,
    mex_above,
    partition_count,
    partition_count_table,
    partition_statistics,
    partition_statistics_table,
    to_frobenius,
)
from .qseries import (
    GfKind,
    InvalidParamsError,
    NonUnitError,
    TruncatedSeries,
    gf,
    pochhammer_finite,
)
from .verify import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CheckRecord,
    IdentityCheck,
    Leg,
    VerificationReport,
    checks_by_id,
    oracle_count,
    perturbed,
    registry,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CheckRecord",
    "DEFAULT_BUDGET",
    "FrobeniusSymbol",
    "GfKind",
    "IdentityCheck",
    "InvalidParamsError",
    "Leg",
    "MalformedSymbolError",
    "NonUnitError",
    "Partition",
    "PartitionStatistics",
    "TruncatedSeries",
    "UndefinedMexError",
    "VerificationReport",
    "checks_by_id",
    "conjugate",
    "crank",
    "crank_count",
    "crank_geq_count",
    "crank_zero_expansion",
    "distinct_parts_count",
    "durfee_size",
    "enumerate_partitions",
    "even_mex_count",
    "ewell_even_sum",
    "ewell_odd_sum",
    "from_frobenius",
    "gf",
    "is_double_pentagonal",
    "mex",
    "mex_1mod4_count",
    "mex_3mod4_count",
    "mex_above",
    "mex_count",
    "odd_mex_count",
    "oracle_count",
    "partition_count",
    "partition_count_table",
    "partition_statistics",
    "partition_statistics_table",
    "perturbed",
    "pochhammer_finite",
    "registry",
    "run_check",
    "to_frobenius",
    "triangular",
]
