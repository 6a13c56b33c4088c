"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from mexcrank import cli, counting, partitions, verify
from mexcrank.qseries import GF_KINDS, GfKind, gf

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
        "crank0_alt": ((), GfKind("crank0_alt")),
        "crank_geq": (("--j", "1"), GfKind("crank_geq_j", 1)),
        "crank_m": (("--m", "2"), GfKind("crank_m", 2)),
        "distinct": ((), GfKind("distinct")),
        "durfee_rect": (("--b", "1"), GfKind("durfee_rect_b", 1)),
        "euler_inv": ((), GfKind("euler_inv")),
        "frob_no0": ((), GfKind("frob_no0")),
        "frob_noj_top": (("--j", "1"), GfKind("frob_noj_top", 1)),
        "poch_q_inf": ((), GfKind("poch_q_inf")),
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

    def test_durfee_rect_huge_b_is_euler_inv(self):
        # Only the factors (1 - q^k) with k <= order matter; a loop over all
        # k <= b never finished for b = 10**9.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        outputs = [subprocess.run(
            [sys.executable, "-m", "mexcrank", "series", *kind, "--order", "10"],
            capture_output=True, env=env, timeout=5, check=True).stdout
            for kind in (("--kind", "durfee_rect", "--b", str(10**9)), ("--kind", "euler_inv"))]
        assert outputs[0] == outputs[1]

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


# Every parameter with a least value: subcommand, selecting flag, choice,
# parameter name and least value, from qseries.GF_KINDS and counting.STREAMS.
BOUNDED_PARAMS = [
    *(("series", "--kind", spelling, name, least)
      for spelling, tag in cli._series_tags().items()
      for name, least, _ in [GF_KINDS[tag]] if least is not None),
    *(("table", "--fn", fn, name, least)
      for fn, (name, least, _) in counting.STREAMS.items() if least is not None),
]


@pytest.mark.parametrize("command, flag, choice, name, least", BOUNDED_PARAMS)
def test_param_below_least_value_names_the_flags(command, flag, choice, name, least, capsys):
    code, out, err = run_cli([command, flag, choice, f"--{name}", str(least - 1)], capsys)
    assert (code, out) == (2, "")
    assert err == f"mexcrank: error: {flag} {choice} requires --{name} >= {least}\n"


class _CountingStdout:
    # A stdout stand-in that keeps only the number of writes and the bytes.
    def __init__(self):
        self.writes = 0
        self.chars = 0

    def write(self, text):
        self.writes += 1
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


class TestRowChunks:
    # table and series write their rows cli._ROWS_PER_WRITE at a time; the
    # bytes must be those of one csv.writer row per line and of _canonical
    # of the whole dict list, on both sides of every chunk boundary.
    COMMANDS = {
        "p": (("table", "--fn", "p", "--n-max"), ("n", "value"),
              lambda n: counting.table_row("p", None, n)),
        "M0": (("table", "--fn", "M", "--m", "0", "--n-max"), ("n", "value"),
               lambda n: counting.table_row("M", 0, n)),  # M(0, 1) = -1
        "poch": (("series", "--kind", "poch_q_inf", "--order"), ("n", "coefficient"),
                 lambda n: gf(GfKind("poch_q_inf"), n).coeffs),
    }

    @staticmethod
    def expected(columns, values, output):
        rows = list(enumerate(values))
        if output == "json":
            return cli._canonical([{columns[0]: n, columns[1]: str(value)}
                                   for n, value in rows]) + "\n"
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        if output == "csv":
            writer.writerow(columns)
        writer.writerows(rows)
        return text.getvalue()

    def test_chunk_size(self):
        # The sizes below straddle the first, fourth and eighth chunk boundaries.
        assert cli._ROWS_PER_WRITE == 64

    @pytest.mark.parametrize("output", ["csv", "no-header", "json"])
    @pytest.mark.parametrize("size", [0, 62, 63, 64, 254, 255, 256, 512])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bytes_match_whole_output(self, command, size, output, capsys):
        prefix, columns, values = self.COMMANDS[command]
        flags = {"csv": (), "no-header": ("--no-header",), "json": ("--format", "json")}
        code, out, _ = run_cli([*prefix, str(size), *flags[output]], capsys)
        assert code == 0
        assert out == self.expected(columns, values(size), output)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_write_per_chunk(self, fmt, monkeypatch):
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["table", "--fn", "p", "--n-max", "2000", "--format", fmt]) == 0
        assert stdout.chars > 2001 * 4
        assert stdout.writes <= math.ceil(2001 / 64) + 2

    def test_json_peak_memory_near_csv(self, monkeypatch):
        # A dict for every row plus the whole document at once would take
        # about a hundred times the CSV peak at n_max = 20000.  The row is built
        # once, before tracing, so that only the emitter is traced.
        monkeypatch.setattr(sys, "stdout", _CountingStdout())
        row = counting.table_row("p", None, 20000)
        monkeypatch.setattr(counting, "table_row", lambda fn, param, n_max: row)
        argv = ["table", "--fn", "p", "--n-max", "20000", "--format"]
        cli.main([*argv, "csv"])  # one-off allocations fall outside the measured runs
        peaks = {}
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                assert cli.main([*argv, fmt]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["json"] <= 1.5 * peaks["csv"]


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

    @pytest.mark.parametrize("parts", [
        (1,), (3, 1), (2, 2, 1), (5, 4, 3, 1), (7, 6, 6, 4, 2, 1, 1)])
    def test_mex_j_matches_mex_above(self, parts, capsys):
        code, out, _ = run_cli(["stat", *map(str, parts)], capsys)
        assert code == 0
        lam = partitions.Partition.of(*parts)
        assert json.loads(out)["mex_j"] == {
            str(j): partitions.mex_above(lam, j) for j in set(parts)}

    def test_mex_j_of_a_long_run(self, capsys):
        # Every part of 1..20000 has the mex 20001 above it; one mex_above
        # per part would make this quadratic.
        code, out, _ = run_cli(["stat", *map(str, range(1, 20001))], capsys)
        assert code == 0
        mex_j = json.loads(out)["mex_j"]
        assert len(mex_j) == 20000
        assert set(mex_j.values()) == {20001}

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
        assert len(payload["reports"]) == 15

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "EWELL_ODD", "--n-max", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check_id,params,lhs,rhs,pass"
        assert lines[1] == 'EWELL_ODD,"{""k"":0}",0,0,true'
        assert len(lines) == 5

    @pytest.mark.parametrize("header", [(), ("--no-header",)], ids=["header", "no-header"])
    def test_csv_one_write_per_chunk(self, header, capsys, monkeypatch):
        # Each check's records leave in chunks of _ROWS_PER_WRITE, one write
        # each, and the header in one more, whether or not stdout is buffered.
        argv = ["verify", "--check", "EWELL_ODD", "--check", "INEQ_OE", "--n-max", "300",
                *header]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = out.splitlines()[0 if header else 1:]
        records = Counter(row.split(",", 1)[0] for row in rows)
        assert records == {"EWELL_ODD": 301, "INEQ_OE": 298}
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(argv) == 0
        assert stdout.chars == len(out)
        assert stdout.writes == (not header) + sum(
            math.ceil(count / cli._ROWS_PER_WRITE) for count in records.values())

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

    def test_csv_is_csv_writer_quoting(self, capsys):
        # Every params shape, side strings included, as csv.writer quotes it.
        code, out, _ = run_cli(["verify", "--all", "--n-max", "12", "--budget", "12"], capsys)
        assert code == 0
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
        assert out == buffer.getvalue()
        assert '""side"":' in out

    def test_cold_processes_agree(self):
        # Five cold processes, each growing the p(n) and q(n) tables from
        # scratch, print the same bytes.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "mexcrank", "verify", "--check", "INEQ_OE",
                "--check", "THM_AN_PARITY"]
        outputs = set()
        for _ in range(5):
            result = subprocess.run(argv, capture_output=True, text=True, env=env,
                                    timeout=60)
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert len(outputs) == 1

    def test_zero_budget_drops_pinned_enumeration(self, capsys):
        # The n = 1 records of THM_JCRANK and COR_CRANKRECUR enumerate, so
        # a zero budget caps them away like every other enumeration grid.
        code, out, err = run_cli(["verify", "--budget", "0", "--format", "json"], capsys)
        assert code == 0
        assert "Traceback" not in err
        sides = {record["params"].get("side")
                 for report in json.loads(out)["reports"] for record in report["records"]}
        assert "n1_oracle" not in sides
        assert {"n1_series", "n1_formula"} <= sides

    @pytest.mark.parametrize("args, reach", [
        (("--n-max", "3"), 3),
        (("--budget", "0"), 0),
        (("--n-max", "0"), 1),
    ])
    def test_oracles_sweep_to_the_grid_reach(self, args, reach, capsys, monkeypatch):
        # The statistics sweep stops where the enumeration grids stop, not
        # at the budget; the pinned n = 1 legs reach 1 even at --n-max 0.
        limits = []

        def recording(limit):
            limits.append(limit)
            return partitions.partition_statistics_table(limit)

        monkeypatch.setattr(verify, "partition_statistics_table", recording)
        monkeypatch.setattr(verify, "_STATISTICS", ())
        for check_id in ("PROP_MEXFORM", "THM_JCRANK"):
            limits.clear()
            code, _, _ = run_cli(["verify", "--check", check_id, *args], capsys)
            assert code == 0
            assert limits == [reach]
            monkeypatch.setattr(verify, "_STATISTICS", ())

    def test_series_span_follows_n_max_past_default(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--check", "SERIES_HEINE", "--check", "PROP_NOF0", "--n-max", "250",
             "--format", "json"], capsys)
        assert code == 0
        heine, nof0 = json.loads(out)["reports"]
        assert heine["total"] == 251
        assert max(record["params"]["n"] for record in nof0["records"]
                   if record["params"]["side"] == "series") == 250

    def test_bad_flag_values_rejected(self, capsys):
        assert run_cli(["verify", "--check", "EWELL_ODD", "--budget", "-1"], capsys)[0] == 2
        with pytest.raises(SystemExit) as excinfo:  # --workers is gone
            cli.main(["verify", "--check", "EWELL_ODD", "--workers", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(["verify", "--check", "EWELL_ODD", "--n-max", "-4"], capsys)[0] == 2

    def test_all_and_check_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--all", "--check", "EWELL_ODD"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--check", "INEQ_OE", "--n-max", "2"], capsys)
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_empty_grid_found_before_any_check_runs(self, fmt, capsys, monkeypatch):
        # INEQ_OE has no point at --n-max 2; THM_JCRANK, first in the
        # registry, must not run before that is found.
        def no_run(check):
            raise AssertionError(f"{check.check_id} ran")

        monkeypatch.setattr(verify, "run_check", no_run)
        code, out, err = run_cli(["verify", "--n-max", "2", "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert "INEQ_OE" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failing_check_exits_one(self, fmt, capsys, monkeypatch):
        base = verify.checks_by_id(20, budget=15)["EWELL_ODD"]
        broken = verify.perturbed(base, {"k": 5}, 1)

        def fake_checks_by_id(n_max=None, *, budget=verify.DEFAULT_BUDGET, order=None):
            return {broken.check_id: broken}

        monkeypatch.setattr(verify, "checks_by_id", fake_checks_by_id)
        code, out, err = run_cli(
            ["verify", "--check", "EWELL_ODD:perturbed", "--format", fmt], capsys)
        assert code == 1
        assert "FAIL" in err
        if fmt == "csv":
            rows = out.splitlines()[1:]
            assert len(rows) == 21
            assert [row for row in rows if not row.endswith(",true")] == [
                'EWELL_ODD:perturbed,"{""k"":5}",0,1,false']
            return
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["reports"][0]["first_counterexample"]["params"] == {"k": 5}
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_makes_no_temporary_file(self, fmt, capsys, monkeypatch):
        # Reports are held until the last check ends and then written
        # straight to stdout: no file is made, under TMPDIR or elsewhere.
        argv = ["verify", "--n-max", "12", "--budget", "12", "--format", fmt]
        expected = run_cli(argv, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("temporary file made")

        for name in ("TemporaryFile", "mkstemp", "NamedTemporaryFile"):
            monkeypatch.setattr(tempfile, name, refuse)
        assert run_cli(argv, capsys)[:2] == expected[:2]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_raising_check_leaves_stdout_empty(self, fmt, capsys, monkeypatch):
        # A passing check, then one whose side raises: every check runs
        # before the first write, so nothing of the first report is printed.
        checks = verify.checks_by_id(12, budget=12)

        def raising(value, ns):
            raise RuntimeError("side failed")

        broken = verify.IdentityCheck("RAISES", "a side that raises", tuple(
            leg._replace(rhs=raising) for leg in checks["INEQ_OE"].legs))
        selected = {"EWELL_ODD": checks["EWELL_ODD"], "RAISES": broken}
        monkeypatch.setattr(verify, "checks_by_id", lambda *args, **kwargs: selected)
        with pytest.raises(RuntimeError, match="side failed"):
            cli.main(["verify", "--check", "EWELL_ODD", "--check", "RAISES", "--format", fmt])
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("EWELL_ODD: pass (")


class TestRenderer:
    # verify writes each report a row at a time, through one template per
    # row, not through a dict, _ROWS_PER_WRITE records a write; the
    # library's dict form is the oracle of every byte: _canonical of it for
    # JSON, and for CSV each record's check id, then csv.writer's row of its
    # params text, lhs, rhs and pass.
    @staticmethod
    def assert_renders(report):
        chunks = math.ceil(report.total / cli._ROWS_PER_WRITE)
        writes = []
        cli._write_report(writes.append, report, report.failed)
        payload = report.to_jsonable()
        assert "".join(writes) == cli._canonical(payload)
        assert len(writes) == 2 + chunks  # the head, each chunk of records and the tail
        writes = []
        texts = cli._record_texts(report.check_id, report.rows, csv=True)
        cli._write_chunks(writes.append, chain.from_iterable(texts), "")
        lines = io.StringIO()
        for record in payload["records"]:
            lines.write(record["check_id"] + ",")
            csv.writer(lines, lineterminator="\n").writerow(
                [cli._canonical(record["params"]), record["lhs"], record["rhs"],
                 cli._canonical(record["pass"])])
        assert "".join(writes) == lines.getvalue()
        assert len(writes) == chunks

    @pytest.mark.parametrize("check_id", sorted(verify.checks_by_id(12, budget=12)))
    def test_every_check(self, check_id):
        self.assert_renders(verify.run_check(verify.checks_by_id(12, budget=12)[check_id]))

    def test_failing_check(self):
        base = verify.checks_by_id(12, budget=12)["COR_CRANKRECUR"]
        report = verify.run_check(verify.perturbed(base, {"n": 5}, 1))
        payload = report.to_jsonable()
        assert payload["failed"] > 1
        assert payload["first_counterexample"]["params"]["n"] == 5
        self.assert_renders(report)

    def test_escapes_and_other_value_types(self):
        # Quotes, backslashes, newlines and non-ASCII text escape as json does,
        # and a brace or a % stays itself wherever the template bakes text in:
        # the check id, the side, the parameter's name and value and the n
        # key.  A bool is "true", not str(True), and n may be negative.
        odd = 'say "hi" %s {0} %% }\\\né'
        leg = verify.Leg(odd, f"{{k}}%{odd}", (True, False, None, 10**30, -7, 1.5, [1, "a"], odd),
                         f"n%{{", (range(-3, 2),) * 8, lambda value, ns: list(ns),
                         lambda value, ns: [abs(n) for n in ns])
        check = verify.IdentityCheck(f"ID{odd}", odd, (
            leg, leg._replace(side=None),
            leg._replace(param=None, values=(None,), ranges=(range(-2, 300),))))
        report = verify.run_check(check)
        assert 0 < report.failed < len(report.records)
        assert len(report.records) > 2 * cli._ROWS_PER_WRITE
        self.assert_renders(report)

    def test_empty_report(self):
        self.assert_renders(verify.VerificationReport("EMPTY", "no records", ()))

    @staticmethod
    def late_failure():
        # EWELL_ODD over 301 records, failing first at k = 100, past the
        # first chunk of records, and again at k = 250.
        base = verify.checks_by_id(300, budget=12)["EWELL_ODD"]
        return verify.perturbed(verify.perturbed(base, {"k": 100}, 1), {"k": 250}, 1)

    def test_first_failure_after_the_first_chunk(self):
        report = verify.run_check(self.late_failure())
        payload = report.to_jsonable()
        assert payload["total"] > 2 * cli._ROWS_PER_WRITE
        assert payload["failed"] == 2
        assert payload["first_counterexample"]["params"] == {"k": 100}
        self.assert_renders(report)

    def test_failing_main_json_is_canonical(self, capsys, monkeypatch):
        # Several reports in one document, one of them failing: the document
        # is its own canonical re-dump, with "pass" false.
        checks = verify.checks_by_id(300, budget=12)
        selected = {"INEQ_OE": checks["INEQ_OE"], "LATE": self.late_failure(),
                    "EWELL_EVEN": checks["EWELL_EVEN"]}
        monkeypatch.setattr(verify, "checks_by_id", lambda *args, **kwargs: selected)
        code, out, _ = run_cli(["verify", "--check", "INEQ_OE", "--check", "LATE",
                                "--check", "EWELL_EVEN", "--format", "json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert [report["pass"] for report in payload["reports"]] == [True, False, True]
        assert out == cli._canonical(payload) + "\n"

    def test_verify_json_peak_memory_near_csv(self, monkeypatch):
        # JSON holds one chunk of record texts at a time, as CSV does; holding
        # every report's text until the last check takes twice CSV's peak.
        monkeypatch.setattr(sys, "stdout", _CountingStdout())
        monkeypatch.setattr(sys, "stderr", _CountingStdout())
        argv = ["verify", "--all", "--n-max", "100", "--budget", "12", "--format"]
        for fmt in ("csv", "json"):  # caches fill outside the measured runs
            cli.main([*argv, fmt])
        peaks = {}
        for fmt in ("csv", "json"):
            gc.collect()
            tracemalloc.start()
            try:
                assert cli.main([*argv, fmt]) == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["json"] <= 1.1 * peaks["csv"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_dict_on_the_cli_path(self, fmt, capsys, monkeypatch):
        # Every check, and one perturbed to fail, so that the first
        # counterexample is rendered too: no dict and no record is made.
        checks = verify.checks_by_id(12, budget=12)
        broken = verify.perturbed(checks["THM_FROB_J"], {"j": 2, "n": 7})
        checks[broken.check_id] = broken
        reference = verify.run_check(broken).to_jsonable()
        monkeypatch.setattr(verify, "checks_by_id", lambda *args, **kwargs: checks)
        argv = ["verify", "--n-max", "12", "--budget", "12", "--format", fmt]
        expected = run_cli(argv, capsys)

        def refuse(*args):
            raise AssertionError("to_jsonable or records called")

        monkeypatch.setattr(verify.CheckRecord, "to_jsonable", refuse)
        monkeypatch.setattr(verify.VerificationReport, "to_jsonable", refuse)
        monkeypatch.setattr(verify.VerificationReport, "records", property(refuse))
        code, out, _ = run_cli(argv, capsys)
        assert (code, out) == (1, expected[1])
        assert expected[0] == 1
        if fmt == "json":
            assert json.loads(out)["reports"][-1] == reference
            assert reference["first_counterexample"]["params"] == {"side": "series", "j": 2, "n": 7}


class TestClosedPipe:
    # A reader that stops early, as head does, ends the run quietly with exit
    # code 141.  Each output is larger than a pipe's buffer.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("args", ["table --fn p --n-max 5000",
                                      "series --kind euler_inv --order 5000", "verify"])
    def test_no_traceback(self, args, fmt):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with subprocess.Popen([sys.executable, "-m", "mexcrank", *args.split(), "--format", fmt],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.readline(100)  # JSON is one line: at most 100 bytes of it
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err and b"Exception ignored" not in err, err
        assert proc.returncode == 141

    @pytest.mark.parametrize("args", ["table --fn p --n-max 20", "series --kind distinct",
                                      "stat 3 1", "verify --check EWELL_ODD --n-max 3"])
    def test_reader_gone_before_the_first_write(self, args):
        # With stdout buffered, a small output meets the closed pipe only when
        # it is flushed: main flushes it, and the interpreter's own last flush
        # must find nothing left to write.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen([sys.executable, "-m", "mexcrank", *args.split()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err and b"Exception ignored" not in err, err
        assert proc.returncode == 141


class TestHelpAndUsageErrors:
    # main builds the arguments of the named subcommand alone; what a user
    # reads on --help or a usage error must not show it.
    ARGVS = (
        ("--help",), ("table", "--help"), ("series", "--help"), ("stat", "--help"),
        ("verify", "--help"), ("tabel",), ("table", "--fn", "nope"), ("stat", "--foo"),
        (), ("series", "--kind", "nope"), ("verify", "--all", "--check", "X"),
    )

    # sha256 over code, stdout and stderr of the first seven ARGVS, in order,
    # at 80 columns, as the parser that built every subcommand printed them
    # before main built one; per interpreter, since argparse's wording moves
    # between releases (3.13 wraps the series help differently).
    PINNED = {
        "3.10.13": "f7e96255d8cdd45e0724955715982bd3a12161ebe7553754ada79c4d5ae839f0",
        "3.11.7": "f7e96255d8cdd45e0724955715982bd3a12161ebe7553754ada79c4d5ae839f0",
        "3.12.1": "f7e96255d8cdd45e0724955715982bd3a12161ebe7553754ada79c4d5ae839f0",
        "3.13.0": "83ee498b0ad9529628f7a03e691cafc3cf8a78730cc49af529f454b509afd712",
    }

    @staticmethod
    def outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse(list(argv))
        out, err = capsys.readouterr()
        return exit_info.value.code, out, err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_main_prints_what_the_full_parser_prints(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = self.outcome(cli.build_parser().parse_args, argv, capsys)
        assert self.outcome(cli.main, argv, capsys) == full
        assert full[0] == (0 if "--help" in argv else 2)

    def test_pinned_bytes(self, capsys, monkeypatch):
        expected = self.PINNED.get(platform.python_version())
        if expected is None:
            pytest.skip(f"no digest recorded for Python {platform.python_version()}")
        monkeypatch.setenv("COLUMNS", "80")
        digest = hashlib.sha256()
        for argv in self.ARGVS[:7]:
            code, out, err = self.outcome(cli.main, argv, capsys)
            digest.update(f"{code}\0{out}\0{err}\0".encode())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("command", ["table", "series", "stat", "verify"])
    def test_one_subcommand_parser_helps_alike(self, command):
        def helps(parser):
            commands = next(action for action in parser._actions
                            if isinstance(action, argparse._SubParsersAction))
            return parser.format_help(), commands.choices[command].format_help()

        assert helps(cli.build_parser(command)) == helps(cli.build_parser())


class TestCeilings:
    # Sizes past the ceilings are usage errors, raised before any table
    # grows or any grid is built: without them the table and series runs
    # hang or die with a MemoryError.  The verify runs select EWELL_ODD,
    # which reads neither the order nor the budget.
    @pytest.mark.parametrize("args", [
        ("table", "--fn", "p", "--n-max", str(10**11)),
        ("table", "--fn", "q", "--n-max", str(cli.TABLE_N_MAX + 1)),
        ("series", "--kind", "euler_inv", "--order", str(10**11)),
        ("series", "--kind", "crank0_alt", "--order", str(cli.SERIES_ORDER_MAX + 1)),
        ("verify", "--check", "EWELL_ODD", "--n-max", str(cli.VERIFY_N_MAX + 1)),
        ("verify", "--check", "EWELL_ODD", "--n-max", "3", "--order", str(10**11)),
        ("verify", "--check", "EWELL_ODD", "--n-max", "3",
         "--budget", str(cli.VERIFY_BUDGET_MAX + 1)),
    ])
    def test_past_ceiling_exits_two_at_once(self, args):
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", *args], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=5)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "must be in 0.." in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, flag, ceiling", [
        (("table", "--fn", "p"), "--n-max", "TABLE_N_MAX"),
        (("series", "--kind", "euler_inv"), "--order", "SERIES_ORDER_MAX"),
        (("verify", "--check", "EWELL_ODD"), "--n-max", "VERIFY_N_MAX"),
        (("verify", "--check", "EWELL_ODD", "--n-max", "3"), "--order", "VERIFY_ORDER_MAX"),
        (("verify", "--check", "EWELL_ODD", "--n-max", "3"), "--budget", "VERIFY_BUDGET_MAX"),
    ])
    def test_ceiling_is_inclusive(self, command, flag, ceiling, capsys, monkeypatch):
        monkeypatch.setattr(cli, ceiling, 5)
        assert run_cli([*command, flag, "5"], capsys)[0] == 0
        monkeypatch.setattr(partitions, "_PARTITION_TABLE", [1])
        monkeypatch.setattr(partitions, "_DISTINCT_TABLE", [1])
        monkeypatch.setattr(counting, "_ROWS", {})
        code, out, err = run_cli([*command, flag, "6"], capsys)
        assert (code, out) == (2, "")
        assert f"{flag} must be in 0..5, got 6" in err
        assert partitions._PARTITION_TABLE == partitions._DISTINCT_TABLE == [1]
        assert counting._ROWS == {}

    def test_help_states_ceilings(self):
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert str(cli.TABLE_N_MAX) in commands.choices["table"].format_help()
        assert str(cli.SERIES_ORDER_MAX) in commands.choices["series"].format_help()
        verify_help = commands.choices["verify"].format_help()
        for ceiling in (cli.VERIFY_N_MAX, cli.VERIFY_ORDER_MAX, cli.VERIFY_BUDGET_MAX):
            assert f"at most {ceiling}" in verify_help


class TestGoldenOutput:
    # sha256 of cold `verify --format json|csv` stdout at the default ranges
    # for the first 14 checks, selected in registry order, recorded from the
    # list-based enumeration oracle.  Any change to a report byte of theirs
    # must show up here.
    FIRST_14 = tuple(arg for check_id in (
        "THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "COR_0CRANK", "PROP_NOF0",
        "THM_FROB_J", "PROP_O13", "EWELL_EVEN", "EWELL_ODD", "THM_AN_PARITY", "INEQ_OE",
        "SERIES_HEINE", "DURFEE_RECT", "CRANK_GF_CONSISTENCY") for arg in ("--check", check_id))
    DIGESTS = {
        "json": "7b205d482a4bc740d3cbcae9a8a11f4a711a6edf8f89405e64026dc02e25771d",
        "csv": "3c7297ed027e00306663b07b4d37165a7a902716db80082bf1bd05271bcfe3c2",
    }

    # The same with every range override at once, so that the n_max, order
    # and budget routing of each check's grid is pinned too.
    OVERRIDES = ("--n-max", "14", "--budget", "10", "--order", "60")
    OVERRIDE_DIGEST = "10bc827fa990f299cb69ea9f8f9ed53558189191c19ac3b80e3d3e4680aa86da"

    # The same three for `verify --all`, PROP_MEXRES included.
    ALL_DIGESTS = {
        "json": "4facdb7dcbf8c8af4f24e9024e439e9b9d1420c1e554e34050d666deb406673e",
        "csv": "5cc072ffe3d5796864551bed2aec0f7f9a4b9a498d9f57a1e8b979789382de8a",
    }
    ALL_OVERRIDE_DIGEST = "ee01b77a0680a6507055596e34be2e73f0626ecc70f448a0877781daf6bf307a"

    # sha256 of cold `table` stdout, recorded before the row kernel evaluated
    # blocks of n, so that every byte of a row is pinned, not only its values.
    TABLE_DIGESTS = {
        "--fn M --m 3 --n-max 2000":
            "737c7966839f0e127a71939e34a0fdb16652ca4f37c697e73d21031fbb60f09a",
        "--fn p --n-max 2000":
            "2c46a64083aa381e0ede76adf3a3e178a868868a5a799465b9fbef21277caa09",
        "--fn o --n-max 2000":
            "a612ce6c1b02583c24d8d2db1de079fd054c24c9cc8a2a12e38ec41e447ed771",
        "--fn M --m 3 --n-max 2000 --format json":
            "edc1616c8ae5f987a39fd786756d3bac4bd219bb0952b826951a446c73ffc105",
    }

    # sha256 of cold `series` stdout for the kinds built by the running sum,
    # recorded before it was evaluated from the innermost term outwards.
    SERIES_DIGESTS = {
        "--kind crank0_alt --order 600":
            "bc1171b6ec772fa3d412d7ee28cf7e279134c680d7f47538ca98a317f8f76c47",
        "--kind frob_no0 --order 600":
            "06aa273c5583d38b2fa2878ba3049948a04ad8fabef75bb0e5361bedfb994a26",
        "--kind durfee_rect --b 3 --order 600":
            "ea8e5130d2e4c3323b353ac55f81142b6764898773ca0de15871d709e8577496",
        "--kind durfee_rect --b 0 --order 500":
            "2b17c3275369c714fb1ec9e23ff4adbc0a37bb3eb7d8e53ef8defb21a7679f15",
    }

    @staticmethod
    def stdout_digest(*args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", *args],
            capture_output=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        return hashlib.sha256(result.stdout).hexdigest()

    @pytest.mark.parametrize("fmt", sorted(DIGESTS))
    def test_default_verify_stdout_digest(self, fmt):
        digest = self.stdout_digest("verify", *self.FIRST_14, "--format", fmt)
        assert digest == self.DIGESTS[fmt]

    def test_override_verify_stdout_digest(self):
        digest = self.stdout_digest("verify", *self.FIRST_14, "--format", "json",
                                    *self.OVERRIDES)
        assert digest == self.OVERRIDE_DIGEST

    @pytest.mark.parametrize("fmt", sorted(ALL_DIGESTS))
    def test_all_verify_stdout_digest(self, fmt):
        assert self.stdout_digest("verify", "--all", "--format", fmt) == self.ALL_DIGESTS[fmt]

    def test_all_override_verify_stdout_digest(self):
        digest = self.stdout_digest("verify", "--all", "--format", "json", *self.OVERRIDES)
        assert digest == self.ALL_OVERRIDE_DIGEST

    def test_default_verify_summary_lines(self):
        # Each check's stderr line carries its record count and wall time;
        # stdout is the pinned report all the same.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-m", "mexcrank", "verify", "--format", "json"],
            capture_output=True, env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        assert hashlib.sha256(result.stdout).hexdigest() == self.ALL_DIGESTS["json"]
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 15
        for line in lines:
            assert re.fullmatch(r"\w+: (pass|FAIL) \(\d+ records, \d+ ms\)", line), line

    def test_warm_caches_print_the_cold_digest(self, capsys):
        # The shared p and q tables and the statistics cache, grown in this
        # process past the default ranges, leave the default report's bytes
        # as a cold process prints them.
        for argv in (("--check", "EWELL_EVEN", "--n-max", "2000"),
                     ("--check", "PROP_MEXFORM", "--n-max", "38", "--budget", "38")):
            assert run_cli(["verify", *argv], capsys)[0] == 0
        assert len(partitions.shared_partition_table(0)) > 4000
        code, out, _ = run_cli(["verify", "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.ALL_DIGESTS["json"]

    @pytest.mark.parametrize("args", sorted(TABLE_DIGESTS))
    def test_table_stdout_digest(self, args):
        assert self.stdout_digest("table", *args.split()) == self.TABLE_DIGESTS[args]

    @pytest.mark.parametrize("args", sorted(SERIES_DIGESTS))
    def test_series_stdout_digest(self, args):
        assert self.stdout_digest("series", *args.split()) == self.SERIES_DIGESTS[args]


class TestTracedStandIn:
    # perfbench/tracing.py wraps mexcrank names from the outside; a rename
    # under src/ would break the traced benchmark runs without this.
    # Each invocation, with the span names that its traced run must record.
    INVOCATIONS = {
        ("verify", "--check", "EWELL_ODD", "--n-max", "3", "--format", "json"):
            {"verify.registry", "verify.run_check:EWELL_ODD"},
        ("series", "--kind", "crank_m", "--order", "5"): {"qseries.gf:crank_m"},
        # The enumeration sides of these checks read the per-n oracles.
        ("verify", "--check", "THM_JCRANK", "--check", "PROP_NOF0", "--n-max", "12",
         "--budget", "12", "--format", "json"): {"verify.oracle"},
    }

    @pytest.mark.parametrize("args", list(INVOCATIONS))
    def test_stdout_matches_plain_run(self, args, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        plain = subprocess.run([sys.executable, "-m", "mexcrank", *args],
                               capture_output=True, env=env, timeout=60)
        traced = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "tracing.py"),
             str(tmp_path / "spans.json"), *args],
            capture_output=True, env=env, timeout=60)
        assert plain.returncode == 0, plain.stderr
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        # A span is [name index, parent, start, end].
        spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
        assert self.INVOCATIONS[args] <= {spans["names"][span[0]] for span in spans["spans"]}

    def test_gf_tags_match(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import tracing
        assert set(GF_KINDS) == set(tracing.GF_TAGS)


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
