"""The independence audit: the two sides of every leg of the registry reach
disjoint code in ``src/mexcrank``, apart from the series plumbing and the
legs written down in :data:`ALLOWED`, each with its reason.

Each side's row callable runs at its leg's first, middle and last row under
``sys.setprofile``, from cold caches and a fresh registry, so that a warm p
table, row or series memo cannot carry data from one side to the other.
The grids of ``registry(260, budget=8, order=260)`` reach past n = 128,
where the blocked kernels start reading far offsets.  Code objects, not
names, are compared: two lambdas on one line share a name and a first line.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import CodeType

import pytest

import mexcrank
from mexcrank import _Value, counting, partitions, qseries, verify

PACKAGE = os.path.dirname(mexcrank.__file__)
REGISTRY = {"n_max": 260, "budget": 8, "order": 260}


def _codes(*functions) -> frozenset[CodeType]:
    # Each function's code object and those nested in it: its lambdas and
    # comprehensions are frames of their own.
    found, todo = set(), [function.__code__ for function in functions]
    while todo:
        code = todo.pop()
        found.add(code)
        todo.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return frozenset(found)


def _name(code: CodeType) -> str:
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)} (line {code.co_firstlineno})"


# Shared by every series leg and by every record type; it moves no numbers.
# The registry's series memo and coeffs, and _cut, slice a row for a side.
_REGISTRY_LOCALS = {const.co_name: const for const in verify.registry.__code__.co_consts
                    if isinstance(const, CodeType)}
PLUMBING = _codes(_Value._init, qseries.TruncatedSeries.__init__, qseries.GfKind.__init__,
                  qseries.gf, verify._cut) | {_REGISTRY_LOCALS["series"],
                                              _REGISTRY_LOCALS["coeffs"]}

# The legs whose two sides share code beyond the plumbing: (legs, the
# functions they may share, why).  The IdentityCheck docstring and the
# README's registry paragraph give this list in these words.
ALLOWED = (
    ((("SERIES_HEINE", None),), (qseries._running_sum, qseries._div_one_minus_qk),
     "runs _running_sum and _div_one_minus_qk of qseries on both sides"),
)
_ALLOWED_BY_LEG = {leg: _codes(*functions) for legs, functions, _ in ALLOWED for leg in legs}

LEGS = [pytest.param(check_index, leg_index, id=check.check_id if leg.side is None
                     else f"{check.check_id}/{leg.side}")
        for check_index, check in enumerate(verify.registry(**REGISTRY))
        for leg_index, leg in enumerate(check.legs)]


def _reached(monkeypatch, check_index: int, leg_index: int, side: str) -> set[CodeType]:
    # The package code that one side of a leg runs at the leg's first,
    # middle and last row, from cold caches and a fresh registry.
    monkeypatch.setattr(counting, "_ROWS", {})
    monkeypatch.setattr(verify, "_STATISTICS", ())
    monkeypatch.setattr(partitions, "_PARTITION_TABLE", [1])
    leg = verify.registry(**REGISTRY)[check_index].legs[leg_index]
    rows = list(zip(leg.values, leg.ranges))
    compute = getattr(leg, side)
    reached: set[CodeType] = set()

    def profile(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == PACKAGE:
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for index in sorted({0, len(rows) // 2, len(rows) - 1}):
            compute(*rows[index])
    finally:
        sys.setprofile(previous)
    return reached


@pytest.mark.parametrize("check_index, leg_index", LEGS)
def test_sides_share_only_plumbing_and_allowed_code(monkeypatch, check_index, leg_index):
    check = verify.registry(**REGISTRY)[check_index]
    leg = (check.check_id, check.legs[leg_index].side)
    shared = (_reached(monkeypatch, check_index, leg_index, "lhs")
              & _reached(monkeypatch, check_index, leg_index, "rhs")) - PLUMBING
    allowed = _ALLOWED_BY_LEG.get(leg, frozenset())
    unexplained = sorted(map(_name, shared - allowed))
    assert not unexplained, f"both sides of {leg} reach {unexplained}"
    if allowed:
        assert shared, (f"the sides of {leg} no longer share code: drop the leg from "
                        "ALLOWED, the IdentityCheck docstring and the README")


def test_documented_shared_legs_are_the_allowlist():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for text in (verify.IdentityCheck.__doc__, readme):
        flat = " ".join(text.replace("`", "").split())
        for legs, _, reason in ALLOWED:
            named = " and ".join(check if side is None else f"{check} {side}"
                                 for check, side in legs)
            assert f"{named} {reason}" in flat
