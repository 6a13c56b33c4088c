"""Tests for the oracle layer and the identity-check harness."""

from __future__ import annotations

import json
import sys
import types

import pytest

from mexcrank import verify
from mexcrank.partitions import crank, mex, to_frobenius
from mexcrank.verify import (
    BudgetExceededError,
    IdentityCheck,
    Leg,
    checks_by_id,
    crank_geq_oracle,
    crank_value_oracle,
    frobenius_no0_oracle,
    frobenius_top_avoids_oracle,
    mex_above_odd_oracle,
    mex_residue_oracle,
    mex_value_oracle,
    oracle_count,
    perturbed,
    registry,
    run_check,
)

ALL_CHECK_IDS = (
    "THM_JCRANK",
    "COR_CRANKRECUR",
    "PROP_MEXFORM",
    "COR_0CRANK",
    "PROP_NOF0",
    "THM_FROB_J",
    "PROP_O13",
    "EWELL_EVEN",
    "EWELL_ODD",
    "THM_AN_PARITY",
    "INEQ_OE",
    "SERIES_HEINE",
    "DURFEE_RECT",
    "CRANK_GF_CONSISTENCY",
)


class TestOracles:
    def test_oracle_count_examples(self):
        assert oracle_count(4, lambda lam: mex(lam) % 2 == 1) == 3
        assert oracle_count(4, lambda lam: crank(lam) == 0) == 1

        def no_zero_anywhere(lam):
            symbol = to_frobenius(lam)
            return 0 not in symbol.top and 0 not in symbol.bottom

        assert oracle_count(3, no_zero_anywhere) == 1

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            oracle_count(36, lambda lam: True, budget=35)
        with pytest.raises(BudgetExceededError):
            mex_above_odd_oracle(10, 0, budget=9)
        assert oracle_count(10, lambda lam: True, budget=10) == 42

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            oracle_count(-1, lambda lam: True)
        crank_value_oracle(5, 0)  # records held, so -1 would index the last
        with pytest.raises(ValueError):
            crank_value_oracle(-1, 0)

    def test_crank_oracles(self):
        assert crank_value_oracle(4, 0) == 1
        assert crank_value_oracle(4, 3) == 0
        assert crank_geq_oracle(4, 1) == 2
        assert crank_geq_oracle(1, 1) == 0  # the lone partition of 1 has crank -1

    def test_mex_oracles(self):
        assert mex_value_oracle(4, 2) == 2
        assert mex_above_odd_oracle(4, 1) == 2
        assert mex_above_odd_oracle(4, 0) == 3
        assert mex_residue_oracle(4, 1, 2) == 3
        assert mex_residue_oracle(4, 3, 4) == 1

    def test_frobenius_oracles(self):
        assert [frobenius_no0_oracle(n) for n in range(9)] == [1, 0, 0, 1, 2, 3, 4, 5, 7]
        assert [frobenius_top_avoids_oracle(n, 0) for n in range(9)] == [1, 0, 1, 2, 3, 4, 6, 8, 12]
        assert [frobenius_top_avoids_oracle(n, 1) for n in range(9)] == [1, 1, 1, 2, 3, 5, 7, 10, 14]
        assert [frobenius_top_avoids_oracle(n, 2) for n in range(9)] == [1, 1, 2, 2, 4, 5, 8, 11, 16]


class TestRegistry:
    def test_check_ids(self):
        checks = registry(12, budget=12)
        assert tuple(check.check_id for check in checks) == ALL_CHECK_IDS

    def test_checks_fully_described(self):
        for check in registry(12, budget=12):
            assert check.statement
            assert check.grid
            # A lone leg needs no name; several are told apart by their side.
            sides = [leg.side for leg in check.legs]
            if len(sides) == 1:
                assert sides == [None]
            else:
                assert None not in sides and len(set(sides)) > 1
            for leg in check.legs:
                assert all(point.get("side") == leg.side for point in leg.grid)

    def test_checks_by_id_mapping(self):
        mapping = checks_by_id(12, budget=12)
        assert set(mapping) == set(ALL_CHECK_IDS)
        assert mapping["EWELL_ODD"].check_id == "EWELL_ODD"

    def test_small_ranges_all_pass(self):
        for check in registry(18, budget=18):
            report = run_check(check)
            assert report.passed, (check.check_id, report.first_counterexample)
            assert report.first_counterexample is None
            assert report.to_jsonable()["failed"] == 0

    def test_ewell_odd_values_all_zero(self):
        report = run_check(checks_by_id(100, budget=20)["EWELL_ODD"])
        assert report.passed
        assert len(report.records) == 101
        assert all(record.rhs == 0 and record.lhs == 0 for record in report.records)

    def test_budget_caps_enumeration_grids(self):
        check = checks_by_id(30, budget=9)["PROP_MEXFORM"]
        assert max(point["n"] for point in check.grid) == 9

    def test_points_are_made_only_when_run(self):
        # An eager registry would build about 10^13 series points here.
        huge = run_check(checks_by_id(3, budget=3, order=10**12)["EWELL_ODD"])
        default = run_check(checks_by_id(3, budget=3)["EWELL_ODD"])
        assert len(huge.records) == 4
        assert [(r.params, r.lhs, r.rhs) for r in huge.records] == [
            (r.params, r.lhs, r.rhs) for r in default.records]


    def test_each_series_is_built_once(self, monkeypatch):
        # One GfKind and one build per (tag, param, order), however many
        # points read the series; the crank_m series at order 40 serve
        # both COR_CRANKRECUR and CRANK_GF_CONSISTENCY.
        from mexcrank import qseries
        kinds, builds = [], []
        real_kind, real_gf = qseries.GfKind, qseries.gf

        def counted_kind(*args):
            kinds.append(args)
            return real_kind(*args)

        def counted_gf(kind, order):
            builds.append((kind.tag, kind.param, order))
            return real_gf(kind, order)

        monkeypatch.setattr(qseries, "GfKind", counted_kind)
        monkeypatch.setattr(qseries, "gf", counted_gf)
        for check in registry(40, budget=12):
            report = run_check(check)
            assert report.passed, (check.check_id, report.first_counterexample)
        assert len(builds) == len(set(builds)) == 36
        assert len(kinds) == len(builds)


class TestRunCheck:
    def test_empty_grid_rejected(self):
        empty = Leg("a", tuple, lambda p: 0, lambda p: 0)
        with pytest.raises(ValueError):
            run_check(IdentityCheck(check_id="EMPTY", statement="no points", legs=(empty, empty)))
        # One leg with points is enough.
        one = Leg("b", lambda: ({"n": 0},), lambda p: 0, lambda p: 0)
        report = run_check(IdentityCheck(check_id="PART", statement="one point", legs=(empty, one)))
        assert [record.params for record in report.records] == [{"side": "b", "n": 0}]

    def test_budget_error_propagates(self):
        check = IdentityCheck(
            check_id="OVER_BUDGET",
            statement="asks the oracle past its cap",
            legs=(Leg(None, lambda: ({"n": 40},),
                      lambda p: oracle_count(p["n"], lambda lam: True, budget=35),
                      lambda p: 0),),
        )
        with pytest.raises(BudgetExceededError):
            run_check(check)

    def test_record_order_is_grid_order(self):
        check = checks_by_id(10, budget=10)["EWELL_EVEN"]
        report = run_check(check)
        assert [record.params for record in report.records] == list(check.grid)


class TestPerturbation:
    def test_perturbed_check_fails_with_counterexample(self):
        base = checks_by_id(30, budget=20)["COR_0CRANK"]
        bad = perturbed(base, {"n": 10}, 1)
        report = run_check(bad)
        assert not report.passed
        counterexample = report.first_counterexample
        assert counterexample is not None
        assert counterexample.params["n"] == 10
        assert counterexample.lhs != counterexample.rhs

    def test_unperturbed_points_still_pass(self):
        base = checks_by_id(30, budget=20)["COR_0CRANK"]
        bad = perturbed(base, {"n": 10}, 1)
        report = run_check(bad)
        for record in report.records:
            assert record.passed == (record.params.get("n") != 10)

    def test_perturbed_id_is_marked(self):
        base = checks_by_id(10, budget=10)["EWELL_ODD"]
        assert perturbed(base, {"k": 3}).check_id == "EWELL_ODD:perturbed"


class TestReports:
    def test_record_json_schema(self):
        report = run_check(checks_by_id(10, budget=10)["EWELL_EVEN"])
        payload = report.to_jsonable()
        assert payload["check_id"] == "EWELL_EVEN"
        assert payload["pass"] is True
        assert payload["total"] == len(payload["records"])
        assert payload["failed"] == 0
        assert payload["first_counterexample"] is None
        for record in payload["records"]:
            assert set(record) == {"check_id", "params", "lhs", "rhs", "pass"}
            assert isinstance(record["lhs"], str)
            assert isinstance(record["rhs"], str)
        json.dumps(payload)  # must be serializable as-is

    def test_reports_deterministic_across_runs(self):
        check = checks_by_id(15, budget=15)["THM_JCRANK"]
        baseline = json.dumps(run_check(check).to_jsonable(), sort_keys=True)
        again = json.dumps(run_check(check).to_jsonable(), sort_keys=True)
        assert baseline == again

    def test_failure_counts(self):
        base = checks_by_id(20, budget=15)["EWELL_ODD"]
        bad = perturbed(base, {"k": 5}, 2)
        payload = run_check(bad).to_jsonable()
        assert payload["pass"] is False
        assert payload["failed"] == 1
        assert payload["first_counterexample"]["params"] == {"k": 5}
        assert payload["first_counterexample"]["rhs"] == "2"


class TestModuleBoundaries:
    def test_oracles_never_touch_formula_modules(self, monkeypatch):
        # The enumeration side must stay usable when the formula modules are
        # unavailable; only registry-built formula sides may reach them.
        import mexcrank

        def poison_module(name):
            module = types.ModuleType(name)

            def refuse(attr, _name=name):
                raise RuntimeError(f"formula module touched: {_name}.{attr}")

            module.__getattr__ = refuse
            return module

        # The package attribute is patched first: reading it imports the real
        # module, which the undo then puts back in both places.
        for name in ("counting", "qseries"):
            module = poison_module(f"mexcrank.{name}")
            monkeypatch.setattr(mexcrank, name, module)
            monkeypatch.setitem(sys.modules, f"mexcrank.{name}", module)

        assert oracle_count(4, lambda lam: mex(lam) % 2 == 1) == 3
        assert crank_geq_oracle(4, 1) == 2
        assert frobenius_no0_oracle(3) == 1
        assert mex_above_odd_oracle(6, 2) == 4

        # ... and the formula side genuinely routes through those modules.
        with pytest.raises(RuntimeError, match="formula module touched"):
            run_check(checks_by_id(6, budget=6)["EWELL_ODD"])
