"""Tests for the oracle layer and the identity-check harness."""

from __future__ import annotations

import importlib.util
import json
import pickle
import sys
import types
from pathlib import Path

import pytest

from mexcrank import verify
from mexcrank.partitions import crank, mex, to_frobenius
from mexcrank.verify import (
    BudgetExceededError,
    CheckRecord,
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
    "PROP_MEXRES",
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

    @staticmethod
    def counted_builds(monkeypatch) -> list[tuple[str, int | None, int]]:
        # Every qseries.gf build from now on, as (tag, param, order).
        from mexcrank import qseries
        builds, real_gf = [], qseries.gf

        def counted_gf(kind, order):
            builds.append((kind.tag, kind.param, order))
            return real_gf(kind, order)

        monkeypatch.setattr(qseries, "gf", counted_gf)
        return builds

    def test_crank_series_are_shared_at_the_defaults(self, monkeypatch):
        # The benchmark's 14 checks, every check but PROP_MEXRES: COR_CRANKRECUR
        # reads each crank series at CRANK_GF_CONSISTENCY's order, 300, so the
        # two build it once per m between them.
        builds = self.counted_builds(monkeypatch)
        checks = checks_by_id()
        for check_id in ALL_CHECK_IDS[:-1]:
            run_check(checks[check_id])
        assert len(builds) == len(set(builds)) == 36
        assert sorted(build for build in builds if build[0] == "crank_m") == [
            ("crank_m", m, 300) for m in range(13)]

    def test_crank_recurrence_report_is_the_same_alone_and_shared(self, monkeypatch, capsys):
        # COR_CRANKRECUR's JSON report, byte for byte, alone, before
        # CRANK_GF_CONSISTENCY and after it; alone, it builds its crank series
        # to 300, the order the two checks share.
        from mexcrank import cli
        builds = self.counted_builds(monkeypatch)

        def report(*check_ids: str) -> str:
            args = [arg for check_id in check_ids for arg in ("--check", check_id)]
            assert cli.main(["verify", *args, "--format", "json"]) == 0
            reports = json.loads(capsys.readouterr().out)["reports"]
            [found] = [r for r in reports if r["check_id"] == "COR_CRANKRECUR"]
            return json.dumps(found, sort_keys=True, separators=(",", ":"))

        alone = report("COR_CRANKRECUR")
        assert sorted(builds) == [("crank_m", m, 300) for m in range(13)]
        assert report("COR_CRANKRECUR", "CRANK_GF_CONSISTENCY") == alone
        assert report("CRANK_GF_CONSISTENCY", "COR_CRANKRECUR") == alone
        assert len(builds) == 3 * 13

    def test_crank_gf_keeps_its_own_order(self, monkeypatch):
        # A wide --order widens COR_CRANKRECUR's read, not
        # CRANK_GF_CONSISTENCY's: alone, it builds to its own n_max.
        builds = self.counted_builds(monkeypatch)
        run_check(checks_by_id(10, order=20000)["CRANK_GF_CONSISTENCY"])
        assert sorted(builds) == [("crank_m", m, 10) for m in range(13)]

    @pytest.mark.parametrize("name, where, legs", [
        ("mex_above_odd_oracle", 5, {"THM_JCRANK/mex_oracle"}),
        ("crank_geq_oracle", 5, {"THM_JCRANK/crank_oracle"}),
        ("crank_geq_oracle", 1, {"THM_JCRANK/n1_oracle"}),
        ("crank_value_oracle", 5, {"COR_CRANKRECUR/oracle", "COR_0CRANK/oracle"}),
        ("crank_value_oracle", 1, {"COR_CRANKRECUR/n1_oracle"}),
        ("mex_value_oracle", 5, {"PROP_MEXFORM/None"}),
        ("mex_residue_oracle", 5, {"PROP_O13/oracle", "PROP_MEXRES/o_oracle",
                                   "PROP_MEXRES/e_oracle", "PROP_MEXRES/o1_oracle",
                                   "PROP_MEXRES/o3_oracle"}),
        ("frobenius_no0_oracle", 5, {"PROP_NOF0/oracle"}),
        ("frobenius_top_avoids_oracle", 5, {"THM_FROB_J/oracle"}),
    ])
    def test_enumeration_sides_read_the_oracles(self, name, where, legs, monkeypatch):
        # One spelling per statistic: a fault planted in a per-n oracle
        # fails exactly the legs, as CHECK/side, that read it.  The fault
        # adds 1 at n = where, and 2 where the argument after n is 3, so that
        # the PROP_O13 difference of the classes 1 and 3 mod 4 moves too.
        original = getattr(verify, name)

        def faulty(n, *args, **kwargs):
            return original(n, *args, **kwargs) + (n == where) * (1 + (args[:1] == (3,)))

        monkeypatch.setattr(verify, name, faulty)
        failing = {f"{report.check_id}/{record.params.get('side')}"
                   for report in map(run_check, checks_by_id(12, budget=12).values())
                   for record in report.records if not record.passed}
        assert failing == legs


class TestMexResidues:
    def test_e_stream_mutant_fails_at_105(self, monkeypatch):
        # 2 taken from the e stream's term at offset 105 = t_14 moves e(n)
        # from n = 105 on, past the enumeration and past what the other
        # checks read of e; PROP_MEXRES reads e + o against p(n).
        from mexcrank import counting
        name, least, stream = counting.STREAMS["e"]

        def mutant(param):
            return ((g, c - 2 * (g == 105)) for g, c in stream(param))

        monkeypatch.setitem(counting.STREAMS, "e", (name, least, mutant))
        monkeypatch.setattr(counting, "_ROWS", {})
        report = run_check(checks_by_id()["PROP_MEXRES"])
        assert not report.passed
        assert report.first_counterexample.params == {"side": "oe_partitions", "n": 105}
        assert report.first_counterexample.rhs - report.first_counterexample.lhs == -2


class TestMutationProbe:
    # The probe's table, loaded by path and not run: each mutant's old text
    # is still in its module exactly once, and each check id it expects to
    # fail exists, so the table cannot drift from the code unnoticed.
    @pytest.fixture(scope="class")
    def probe(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "mutation_probe.py"
        spec = importlib.util.spec_from_file_location("mutation_probe", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_old_text_occurs_once_at_head(self, probe):
        package = Path(verify.__file__).parent
        for mutant in probe.MUTANTS:
            text = (package / f"{mutant.module}.py").read_text(encoding="utf-8")
            assert text.count(mutant.old) == 1, mutant.name

    def test_a_crashed_run_is_one_broken_line(self, probe, monkeypatch, capsys):
        # A mutant that makes verify raise exits 1, as a failing check does,
        # with no report on stdout: the probe reports it in one line, counts
        # it as broken and goes on.  No verify is spawned here.
        crash = (1, "", "Traceback (most recent call last):\n  File ...\n"
                        "IndexError: list index out of range\n")
        assert probe._parse_run(*crash) == (
            "verify crashed: IndexError: list index out of range", {})
        assert probe._parse_run(3, "", "") == ("verify exited 3", {})
        report = {"check_id": "C", "records": [
            {"pass": True, "params": {"n": 0}}, {"pass": False, "params": {"side": "s", "n": 3}},
            {"pass": False, "params": {"side": "s", "n": 4}}]}
        assert probe._parse_run(1, json.dumps({"pass": False, "reports": [report]}), "") == (
            None, {"C/s": {"n": 3}})
        crashing = probe.MUTANTS[1]

        def fake_run(mutant):
            if mutant is crashing:
                return probe._parse_run(*crash)
            return None, {} if mutant is None or mutant.survives else {
                check_id: {"n": 0} for check_id in mutant.kills}

        monkeypatch.setattr(probe, "_run", fake_run)
        assert probe.main() == 1
        out = capsys.readouterr().out
        assert (f"{crashing.name}: verify crashed: IndexError: list index out of range"
                f"  EXPECTED kills {', '.join(crashing.kills)}\n") in out
        assert f"killed {len(probe.MUTANTS) - 6} of {len(probe.MUTANTS)}; 1 expectations broken" in out
        matrix = json.loads(out[out.index("\n{") + 1:])
        assert list(matrix) == sorted(mutant.name for mutant in probe.MUTANTS)

    def test_expectations_name_known_checks(self, probe):
        assert len({mutant.name for mutant in probe.MUTANTS}) == len(probe.MUTANTS)
        for mutant in probe.MUTANTS:
            assert set(mutant.kills) <= set(ALL_CHECK_IDS), mutant.name
            assert bool(mutant.kills) != bool(mutant.survives), mutant.name


class TestRunCheck:
    def test_empty_grid_rejected(self):
        def zeros(value, ns):
            return [0] * len(ns)

        empty = Leg("a", "m", (1, 2), "n", (range(0), range(3, 3)), zeros, zeros)
        with pytest.raises(ValueError):
            run_check(IdentityCheck(check_id="EMPTY", statement="no points", legs=(empty, empty)))
        # One leg with points is enough.
        one = Leg("b", None, (None,), "n", (range(1),), zeros, zeros)
        report = run_check(IdentityCheck(check_id="PART", statement="one point", legs=(empty, one)))
        assert [record.params for record in report.records] == [{"side": "b", "n": 0}]

    def test_budget_error_propagates(self):
        check = IdentityCheck(
            check_id="OVER_BUDGET",
            statement="asks the oracle past its cap",
            legs=(Leg(None, None, (None,), "n", (range(40, 41),),
                      lambda _, ns: [oracle_count(n, lambda lam: True, budget=35) for n in ns],
                      lambda _, ns: [0] * len(ns)),),
        )
        with pytest.raises(BudgetExceededError):
            run_check(check)

    @pytest.mark.parametrize("lhs_size, rhs_size", [(2, 3), (3, 2), (2, 2)])
    def test_a_row_of_the_wrong_length_is_an_error(self, lhs_size, rhs_size):
        # A side that comes back short, say a series sliced past its order,
        # must not drop records.
        leg = Leg(None, None, (None,), "n", (range(3),),
                  lambda _, ns: [0] * lhs_size, lambda _, ns: [0] * rhs_size)
        with pytest.raises(ValueError, match="values for 3 n"):
            run_check(IdentityCheck(check_id="SHORT", statement="a short row", legs=(leg,)))

    def test_record_order_is_grid_order(self):
        check = checks_by_id(10, budget=10)["EWELL_EVEN"]
        report = run_check(check)
        assert [record.params for record in report.records] == list(check.grid)

    @pytest.mark.parametrize("check", (
        *registry(),
        perturbed(checks_by_id(40, budget=12)["THM_FROB_J"], {"j": 3}),
        *(pytest.param(check, id=f"{check.check_id}@260")
          for check in registry(260, budget=8, order=260)),
    ), ids=lambda check: check.check_id)
    def test_records_match_the_plain_construction(self, check):
        # run_check evaluates each side a row at a time, and the report
        # makes its records from the rows; they must be the CheckRecords
        # made point by point, each side's row callable asked for a row of
        # one n, in grid order.
        def point(leg, value, n):
            head = {} if leg.side is None else {"side": leg.side}
            return {**head, **({} if leg.param is None else {leg.param: value}), leg.key: n}

        expected = tuple(CheckRecord(point(leg, value, n), leg.lhs(value, range(n, n + 1))[0],
                                     leg.rhs(value, range(n, n + 1))[0])
                         for leg in check.legs for value, ns in zip(leg.values, leg.ranges)
                         for n in ns)
        records = run_check(check).records
        assert len(records) == len(expected)
        assert records == expected
        for record in records:
            assert type(record) is CheckRecord
            assert record._replace(rhs=None) == CheckRecord(record.params, record.lhs, None)
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is CheckRecord and copy == record


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
