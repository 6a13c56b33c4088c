"""Exact integer-partition statistics, truncated q-series, and identity checks.

The package computes partition statistics (mex, generalized mex, crank,
Frobenius symbols), expands the related generating functions as exact
truncated power series, evaluates the classical closed-form counting
formulas, and cross-checks all of them against brute-force enumeration
through a registry of identity checks.  Everything is arbitrary-precision
integer arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported from
# its module on first use (PEP 562), so that a run loads only the modules it
# uses: `mexcrank stat` never loads the series, the closed forms or the
# harness.
_EXPORTS = {name: module for module, names in (
    ("counting", (
        "crank_count", "crank_geq_count", "crank_zero_expansion", "even_mex_count",
        "ewell_even_sum", "ewell_odd_sum", "is_double_pentagonal", "mex_1mod4_count",
        "mex_3mod4_count", "mex_count", "odd_mex_count", "triangular",
    )),
    ("partitions", (
        "FrobeniusSymbol", "MalformedSymbolError", "Partition", "PartitionStatistics",
        "UndefinedMexError", "conjugate", "crank", "distinct_parts_count", "durfee_size",
        "enumerate_partitions", "from_frobenius", "mex", "mex_above", "partition_count",
        "partition_count_table", "partition_statistics", "partition_statistics_table",
        "to_frobenius",
    )),
    ("qseries", (
        "GfKind", "InvalidParamsError", "NonUnitError", "TruncatedSeries", "gf",
        "pochhammer_finite",
    )),
    ("verify", (
        "DEFAULT_BUDGET", "BudgetExceededError", "CheckRecord", "IdentityCheck", "Leg",
        "VerificationReport", "checks_by_id", "oracle_count", "perturbed", "registry",
        "run_check",
    )),
) for name in names}
_MODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    # Only names not yet in the package namespace reach here.  A submodule,
    # once imported, is an attribute of the package; a public name is looked
    # up in its module on every use, so it is whatever that module holds.
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
