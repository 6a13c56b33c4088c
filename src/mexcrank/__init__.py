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


class _Frozen:
    """Base of the immutable classes of :mod:`mexcrank.partitions`,
    :mod:`mexcrank.qseries` and :mod:`mexcrank.verify`; it lives here, which
    every submodule loads, so that ``qseries`` need not load ``partitions``.

    The fields are the ``__slots__``, filled once by :meth:`_init`;
    assigning or deleting one raises AttributeError.  The repr names every
    field, copies and pickles carry the fields over, and equality is
    identity unless the class is a :class:`_Value`.
    """

    __slots__ = ()

    def _init(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        self._init(*state)


class _Value(_Frozen):
    """A :class:`_Frozen` equal to an instance of its own class with equal
    fields, and hashed by its fields."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())
