"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mexcrank import cli
from mexcrank.qseries import GfKind, gf

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_values(out: str, *, header: bool = True) -> list[str]:
    lines = out.strip().splitlines()
    if header:
        lines = lines[1:]
    return [line.split(",", 1)[1] for line in lines]


class TestTable:
    def test_crank_zero_head(self, capsys):
        code, out, _ = run_cli(["table", "--fn", "M", "--m", "0", "--n-max", "5"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert csv_values(out) == ["1", "-1", "0", "1", "1", "1"]

    def test_partition_numbers(self, capsys):
        code, out, _ = run_cli(["table", "--fn", "p", "--n-max", "6"], capsys)
        assert code == 0
        assert csv_values(out) == ["1", "1", "2", "3", "5", "7", "11"]

    def test_mex_one_mod_four(self, capsys):
        code, out, _ = run_cli(["table", "--fn", "o1", "--n-max", "4"], capsys)
        assert code == 0
        assert csv_values(out) == ["1", "0", "1", "1", "2"]

    def test_no_header(self, capsys):
        code, out, _ = run_cli(
            ["table", "--fn", "p", "--n-max", "3", "--no-header"], capsys)
        assert code == 0
        assert out.splitlines() == ["0,1", "1,1", "2,2", "3,3"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["table", "--fn", "q", "--n-max", "4", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {"n": 0, "value": "1"},
            {"n": 1, "value": "1"},
            {"n": 2, "value": "1"},
            {"n": 3, "value": "2"},
            {"n": 4, "value": "2"},
        ]

    def test_crank_geq(self, capsys):
        code, out, _ = run_cli(
            ["table", "--fn", "crank_geq", "--j", "1", "--n-max", "4"], capsys)
        assert code == 0
        assert csv_values(out)[-1] == "2"

    def test_x_mex_requires_positive_m(self, capsys):
        code, _, err = run_cli(["table", "--fn", "x_mex", "--n-max", "4"], capsys)
        assert code == 2
        assert "x_mex" in err

    def test_negative_bounds_rejected(self, capsys):
        assert run_cli(["table", "--fn", "p", "--n-max", "-1"], capsys)[0] == 2
        assert run_cli(["table", "--fn", "crank_geq", "--j", "-1", "--n-max", "4"], capsys)[0] == 2

    def test_unknown_fn_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table", "--fn", "bogus", "--n-max", "4"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestSeries:
    # Every --kind spelling, the flags it is given here, and the generating
    # function it must expand.
    KINDS = {
        "crank0_alt": ((), GfKind.crank0_alt()),
        "crank_geq": (("--j", "1"), GfKind.crank_geq_j(1)),
        "crank_m": (("--m", "2"), GfKind.crank_m(2)),
        "distinct": ((), GfKind.distinct()),
        "durfee_rect": (("--b", "1"), GfKind.durfee_rect_b(1)),
        "euler_inv": ((), GfKind.euler_inv()),
        "frob_no0": ((), GfKind.frob_no0()),
        "frob_noj_top": (("--j", "1"), GfKind.frob_noj_top(1)),
        "poch_q_inf": ((), GfKind.poch_q_inf()),
    }

    def test_kind_choices(self):
        parser = cli.build_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction))
        kind = next(action for action in commands.choices["series"]._actions
                    if action.dest == "kind")
        assert list(kind.choices) == sorted(self.KINDS)

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_kind_route(self, name, capsys):
        flags, kind = self.KINDS[name]
        code, out, _ = run_cli(["series", "--kind", name, *flags, "--order", "12"], capsys)
        assert code == 0
        assert csv_values(out) == [str(c) for c in gf(kind, 12).coeffs]

    def test_frob_no0(self, capsys):
        code, out, _ = run_cli(["series", "--kind", "frob_no0", "--order", "4"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,coefficient"
        assert csv_values(out) == ["1", "0", "0", "1", "2"]

    def test_crank_geq_last_coefficient(self, capsys):
        code, out, _ = run_cli(
            ["series", "--kind", "crank_geq", "--j", "1", "--order", "4"], capsys)
        assert code == 0
        assert csv_values(out)[-1] == "2"

    def test_durfee_rect_matches_partition_numbers(self, capsys):
        code, out, _ = run_cli(
            ["series", "--kind", "durfee_rect", "--b", "2", "--order", "6"], capsys)
        assert code == 0
        assert csv_values(out) == ["1", "1", "2", "3", "5", "7", "11"]

    def test_crank_m_sign_insensitive(self, capsys):
        _, negative, _ = run_cli(
            ["series", "--kind", "crank_m", "--m", "-2", "--order", "10"], capsys)
        _, positive, _ = run_cli(
            ["series", "--kind", "crank_m", "--m", "2", "--order", "10"], capsys)
        assert negative == positive

    def test_bad_param_rejected(self, capsys):
        code, _, err = run_cli(
            ["series", "--kind", "frob_noj_top", "--j", "-1", "--order", "4"], capsys)
        assert code == 2
        assert "frob_noj_top" in err

    def test_negative_order_rejected(self, capsys):
        assert run_cli(["series", "--kind", "distinct", "--order", "-3"], capsys)[0] == 2

    def test_unknown_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["series", "--kind", "nope", "--order", "4"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestStat:
    def test_three_one(self, capsys):
        code, out, _ = run_cli(["stat", "3", "1"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "weight": 4,
            "mex": 2,
            "crank": 0,
            "durfee": 1,
            "frobenius": {"top": [2], "bottom": [1]},
            "mex_j": {"1": 2, "3": 4},
        }

    def test_mex_example(self, capsys):
        code, out, _ = run_cli(["stat", "2", "2", "1"], capsys)
        assert code == 0
        assert json.loads(out)["mex"] == 3

    def test_empty_partition(self, capsys):
        code, out, _ = run_cli(["stat"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["weight"] == 0
        assert record["mex"] == 1
        assert record["crank"] == 0
        assert record["durfee"] == 0
        assert record["frobenius"] == {"top": [], "bottom": []}
        assert record["mex_j"] == {}

    def test_parts_sorted_first(self, capsys):
        _, unsorted_out, _ = run_cli(["stat", "1", "3"], capsys)
        _, sorted_out, _ = run_cli(["stat", "3", "1"], capsys)
        assert unsorted_out == sorted_out

    def test_nonpositive_parts_rejected(self, capsys):
        assert run_cli(["stat", "0"], capsys)[0] == 2
        assert run_cli(["stat", "3", "-1"], capsys)[0] == 2


class TestVerify:
    def test_unknown_check_id(self, capsys):
        code, _, err = run_cli(["verify", "--check", "NO_SUCH"], capsys)
        assert code == 2
        assert "NO_SUCH" in err

    def test_single_check_json(self, capsys):
        code, out, err = run_cli(
            ["verify", "--check", "EWELL_ODD", "--n-max", "40", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["reports"]) == 1
        report = payload["reports"][0]
        assert report["check_id"] == "EWELL_ODD"
        assert report["total"] == 41
        assert all(record["pass"] for record in report["records"])
        assert "EWELL_ODD: pass" in err

    def test_check_order_preserved(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "EWELL_ODD", "--check", "EWELL_EVEN",
             "--n-max", "10", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [report["check_id"] for report in payload["reports"]] == [
            "EWELL_ODD", "EWELL_EVEN"]

    def test_all_checks_small_ranges(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--all", "--n-max", "12", "--budget", "12", "--format", "json"],
            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["reports"]) == 14

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "EWELL_ODD", "--n-max", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check_id,params,lhs,rhs,pass"
        assert lines[1] == 'EWELL_ODD,"{""k"":0}",0,0,true'
        assert len(lines) == 5

    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", "--check", "THM_JCRANK", "--n-max", "15", "--budget", "15",
                "--format", "json"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_json_is_canonical_encoding(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--all", "--n-max", "12", "--budget", "12", "--format", "json"],
            capsys)
        assert code == 0
        canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
        assert out == canonical + "\n"

    def test_workers_flag_cold_processes_agree(self):
        # A thread pool once raced on the shared p(n) table and reported
        # false counterexamples from cold caches.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop(cli.ENV_BUDGET, None)
        argv = [sys.executable, "-m", "mexcrank", "verify", "--check", "INEQ_OE",
                "--check", "THM_AN_PARITY"]
        outputs = set()
        for _ in range(5):
            result = subprocess.run(argv, capture_output=True, text=True, env=env,
                                    timeout=60)
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_env_budget_caps_grids(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_BUDGET, "8")
        code, out, _ = run_cli(
            ["verify", "--check", "PROP_MEXFORM", "--n-max", "20", "--format", "json"],
            capsys)
        assert code == 0
        records = json.loads(out)["reports"][0]["records"]
        assert max(record["params"]["n"] for record in records) == 8

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_BUDGET, "8")
        code, out, _ = run_cli(
            ["verify", "--check", "PROP_MEXFORM", "--n-max", "20", "--budget", "12",
             "--format", "json"], capsys)
        assert code == 0
        records = json.loads(out)["reports"][0]["records"]
        assert max(record["params"]["n"] for record in records) == 12

    def test_zero_budget_drops_pinned_enumeration(self, capsys, monkeypatch):
        # The n = 1 records of THM_JCRANK and COR_CRANKRECUR enumerate, so
        # a zero budget caps them away like every other enumeration grid.
        monkeypatch.delenv(cli.ENV_BUDGET, raising=False)
        code, out, err = run_cli(["verify", "--budget", "0", "--format", "json"], capsys)
        assert code == 0
        assert "Traceback" not in err
        sides = {record["params"].get("side")
                 for report in json.loads(out)["reports"] for record in report["records"]}
        assert "n1_oracle" not in sides
        assert {"n1_series", "n1_formula"} <= sides

    def test_series_span_follows_n_max_past_default(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.ENV_BUDGET, raising=False)
        code, out, _ = run_cli(
            ["verify", "--check", "SERIES_HEINE", "--check", "PROP_NOF0", "--n-max", "250",
             "--format", "json"], capsys)
        assert code == 0
        heine, nof0 = json.loads(out)["reports"]
        assert heine["total"] == 251
        assert max(record["params"]["n"] for record in nof0["records"]
                   if record["params"]["side"] == "series") == 250

    def test_bad_env_budget_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_BUDGET, "many")
        code, _, err = run_cli(["verify", "--check", "EWELL_ODD", "--n-max", "3"], capsys)
        assert code == 2
        assert cli.ENV_BUDGET in err

    def test_bad_flag_values_rejected(self, capsys):
        assert run_cli(["verify", "--check", "EWELL_ODD", "--budget", "-1"], capsys)[0] == 2
        with pytest.raises(SystemExit) as excinfo:  # --workers is gone
            cli.main(["verify", "--check", "EWELL_ODD", "--workers", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(["verify", "--check", "EWELL_ODD", "--n-max", "-4"], capsys)[0] == 2

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--check", "INEQ_OE", "--n-max", "2"], capsys)
        assert code == 2
        assert "empty" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from mexcrank import verify

        base = verify.checks_by_id(20, budget=15)["EWELL_ODD"]
        broken = verify.perturbed(base, {"k": 5}, 1)

        def fake_checks_by_id(n_max=None, *, budget=verify.DEFAULT_BUDGET, order=None):
            return {broken.check_id: broken}

        monkeypatch.setattr(verify, "checks_by_id", fake_checks_by_id)
        code, out, err = run_cli(
            ["verify", "--check", "EWELL_ODD:perturbed", "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["reports"][0]["first_counterexample"]["params"] == {"k": 5}
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert "FAIL" in err


class TestGoldenOutput:
    # sha256 of cold `verify --format json|csv` stdout at the default ranges,
    # recorded from the list-based enumeration oracle.  Any change to a
    # report byte must show up here.
    DIGESTS = {
        "json": "7b205d482a4bc740d3cbcae9a8a11f4a711a6edf8f89405e64026dc02e25771d",
        "csv": "3c7297ed027e00306663b07b4d37165a7a902716db80082bf1bd05271bcfe3c2",
    }

    # The same with every range override at once, so that the n_max, order
    # and budget routing of each check's grid is pinned too.
    OVERRIDES = ("--n-max", "14", "--budget", "10", "--order", "60")
    OVERRIDE_DIGEST = "10bc827fa990f299cb69ea9f8f9ed53558189191c19ac3b80e3d3e4680aa86da"

    @staticmethod
    def verify_stdout_digest(*args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop(cli.ENV_BUDGET, None)
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", "verify", *args],
            capture_output=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        return hashlib.sha256(result.stdout).hexdigest()

    @pytest.mark.parametrize("fmt", sorted(DIGESTS))
    def test_default_verify_stdout_digest(self, fmt):
        assert self.verify_stdout_digest("--format", fmt) == self.DIGESTS[fmt]

    def test_override_verify_stdout_digest(self):
        digest = self.verify_stdout_digest("--format", "json", *self.OVERRIDES)
        assert digest == self.OVERRIDE_DIGEST


class TestEntryPoints:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", "table", "--fn", "p", "--n-max", "6",
             "--no-header"],
            capture_output=True, text=True, check=True)
        values = [line.split(",")[1] for line in result.stdout.strip().splitlines()]
        assert values == ["1", "1", "2", "3", "5", "7", "11"]

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", "verify", "--check", "NO_SUCH"],
            capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stdout == ""
