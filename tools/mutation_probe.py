"""Mutation probe: which planted faults does a cold default ``verify`` catch?

Usage, from anywhere, with no options::

    python tools/mutation_probe.py

Each entry of :data:`MUTANTS` names one fault: a module of ``src/mexcrank``,
an exact text in it, which must occur exactly once, the text that replaces
it, and what cold ``verify --all`` must then report.  That expectation is
either the check ids that fail, exactly those, or that the mutant survives,
with the ROADMAP item that will mend it.

For each mutant the probe copies ``src/`` to a temporary directory, applies
the mutant there and runs ``python -m mexcrank verify --all --format json``
with ``PYTHONPATH`` set to the copy and ``PYTHONDONTWRITEBYTECODE=1``, one
child at a time, after one run of the unmutated copy that must pass.  Every
failing leg, a check id and its ``side`` (written ``CHECK/side``), is
recorded with the first point at which it fails: that is the kill matrix.

It prints one line per mutant, then the kill matrix as one JSON object, and
exits 1 when any expectation breaks, a listed survivor that is killed
included.  A mutant under which verify crashes, or exits with a code other
than 0 or 1, breaks its expectation; its line says so, with the last line
of verify's stderr, and the probe goes on to the next mutant.  It writes
nothing in the repository; the copies are removed.  Mutation testing
follows DeMillo, Lipton and Sayward, "Hints on test data selection" (1978).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# kills: the check ids that must fail; survives: the ROADMAP item that will
# mend a mutant that no check kills.  Exactly one of the two is given.
Mutant = namedtuple("Mutant", "name module old new kills survives", defaults=((), None))

MUTANTS = (
    # --- seeds ---------------------------------------------------------------
    Mutant("e_stream_105", "counting",
           '"e": (None, None, lambda _: _mex_residue_terms(0, 2)),',
           '"e": (None, None, lambda _: ((g, c - 2 * (g == 105))'
           ' for g, c in _mex_residue_terms(0, 2))),',
           kills=("PROP_MEXRES",)),
    Mutant("rows_plus_2_from_384", "counting",
           "    return _row(key, stream, ns[-1])[ns.start:ns.stop:ns.step]\n",
           "    return [value + 2 * (n >= 384)\n"
           "            for n, value in zip(ns, _row(key, stream, ns[-1])[ns.start:ns.stop:ns.step])]\n",
           kills=("EWELL_EVEN", "EWELL_ODD", "PROP_MEXRES")),
    Mutant("m5_row_plus_1_from_320", "counting",
           "    return _row(key, stream, ns[-1])[ns.start:ns.stop:ns.step]\n",
           "    return [value + (key == ('M', 5) and n >= 320)\n"
           "            for n, value in zip(ns, _row(key, stream, ns[-1])[ns.start:ns.stop:ns.step])]\n",
           survives="item 9"),
    Mutant("div_one_minus_qk_plus_1_at_256", "qseries",
           "            coeffs[i:i + k] = map(add, coeffs[i:i + k], coeffs[i - k:i])\n",
           "            coeffs[i:i + k] = map(add, coeffs[i:i + k], coeffs[i - k:i])\n"
           "    if len(coeffs) > 256:\n"
           "        coeffs[256] += 1\n",
           survives="item 9"),
    # --- the blocked pentagonal division, qseries._divide_by_poch -----------
    Mutant("poch_zero_pad_one_short", "qseries",
           "out[start + _BLOCK - g:stop + _BLOCK - g]",
           "out[start + _BLOCK - g + (g > start):stop + _BLOCK - g + (g > start)]",
           kills=("COR_CRANKRECUR", "THM_FROB_J", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    Mutant("poch_far_slice_shifted", "qseries",
           "out[start + _BLOCK - g:stop + _BLOCK - g]",
           "out[start + _BLOCK - g - (g < start):stop + _BLOCK - g - (g < start)]",
           kills=("CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    Mutant("poch_prefix_strip_one_short", "qseries",
           "    del out[:_BLOCK]\n",
           "    del out[:_BLOCK - 1]\n",
           kills=("COR_CRANKRECUR", "THM_FROB_J", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    Mutant("poch_last_far_offset_skipped", "qseries",
           "for g in offsets[:bisect_left(offsets, stop)]]",
           "for g in offsets[:max(bisect_left(offsets, stop) - 1, 0)]]",
           kills=("THM_FROB_J", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    Mutant("poch_near_offset_126_dropped", "qseries",
           "near_minus, far_minus, near_plus, far_plus = minus[:i], minus[i:]",
           "near_minus, far_minus, near_plus, far_plus = minus[:i - 1], minus[i:]",
           kills=("COR_CRANKRECUR", "THM_FROB_J", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    # --- a21bd56: formula and series mutants ---------------------------------
    Mutant("o_and_e_streams_105", "counting",
           "    return _triangular_terms(int(1 % modulus == residue), period)\n",
           "    return ((g, c - 2 * (g == 105 and modulus == 2))\n"
           "            for g, c in _triangular_terms(int(1 % modulus == residue), period))\n",
           kills=("PROP_MEXRES",)),
    Mutant("o1_and_o3_plus_1_at_i_2_mod_4", "counting",
           "    period = [((i + 1) % modulus == residue) - (i == residue) for i in range(modulus)]\n",
           "    period = [((i + 1) % modulus == residue) - (i == residue) + (modulus == 4 and i == 2)\n"
           "              for i in range(modulus)]\n",
           kills=("PROP_MEXRES",)),
    Mutant("crank_series_term_from_435", "qseries",
           "for term in ((e, (-1) ** (n - 1)), (e + n, (-1) ** n)))",
           "for term in ((e, (-1) ** (n - 1) + (e >= 435)), (e + n, (-1) ** n)))",
           survives="item 9"),
    Mutant("div_block_walk_stops_at_190", "qseries",
           "for i in range(lo + k, len(coeffs), k):",
           "for i in range(lo + k, min(len(coeffs), 190), k):",
           kills=("PROP_NOF0", "SERIES_HEINE", "DURFEE_RECT")),
    # --- c752f3f: the p-combination streams of counting ----------------------
    Mutant("extend_cut_at_g_ge_limit", "counting",
           "        if g > limit:\n            break\n        (plus if c > 0",
           "        if g >= limit:\n            break\n        (plus if c > 0",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "THM_FROB_J", "CRANK_GF_CONSISTENCY",
                  "PROP_MEXRES")),
    Mutant("crank_step_off_by_one", "counting",
           "lo, sign = lo + k + abs(m), -sign",
           "lo, sign = lo + k + abs(m) + 1, -sign",
           kills=("COR_CRANKRECUR", "COR_0CRANK", "PROP_NOF0", "CRANK_GF_CONSISTENCY",
                  "PROP_MEXRES")),
    Mutant("residue_first_term_rule", "counting",
           "_triangular_terms(int(1 % modulus == residue), period)",
           "_triangular_terms(int(0 % modulus == residue), period)",
           kills=("PROP_O13", "THM_AN_PARITY", "INEQ_OE", "PROP_MEXRES")),
    Mutant("crank_geq_signs", "counting",
           "initial=j), cycle((1, -1)))",
           "initial=j), cycle((-1, 1)))",
           kills=("THM_JCRANK", "THM_FROB_J")),
    Mutant("crank_zero_signs", "counting",
           "_triangular_terms(1, (2, -2))",
           "_triangular_terms(1, (-2, 2))",
           kills=("COR_0CRANK",)),
    Mutant("triangular_period_phase", "counting",
           "islice(cycle(period), 1, None)",
           "islice(cycle(period), 0, None)",
           kills=("COR_0CRANK", "PROP_O13", "EWELL_EVEN", "EWELL_ODD", "PROP_MEXRES")),
    # --- 631d36f and d5af69d: the statistics sweep ---------------------------
    Mutant("sweep_no_top_row_of_ones", "partitions",
           "            top[w][parts[d] - d - 1] += 1\n",
           "            top[w][parts[d] - d - 1] += 1\n"
           "            top[w + 1][parts[d] - d - 1] -= 1\n",
           kills=("THM_FROB_J",)),
    Mutant("sweep_no_zero_free_part_and_ones", "partitions",
           "            zero_free[w + 1] += 1\n",
           "            zero_free[w + 1] += 0\n",
           kills=("PROP_NOF0",)),
    Mutant("sweep_no_crank_run_past_largest_part", "partitions",
           "        cranks[w + b][w] += 1\n",
           "",
           kills=("COR_CRANKRECUR",)),
    Mutant("sweep_mex_e_not_e_plus_1", "partitions",
           "mexes[w + 3][e + 1]",
           "mexes[w + 3][e]",
           kills=("PROP_MEXFORM", "PROP_O13", "PROP_MEXRES")),
    Mutant("sweep_odd_gap_phase", "partitions",
           "odd_gap[w + 3][e % 2] += 1",
           "odd_gap[w + 3][1 - e % 2] += 1",
           kills=("THM_JCRANK",)),
    Mutant("sweep_crank_run_clipped_at_limit", "partitions",
           "cranks[w + v][w + i] -= 1",
           "cranks[min(w + v, limit)][w + i] -= 1",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "COR_0CRANK")),
    Mutant("sweep_no_gap_step_after_loop", "partitions",
           "        cranks[w + b][w] += 1\n        gaps[b] += 1\n",
           "        cranks[w + b][w] += 1\n",
           kills=("THM_JCRANK",)),
    Mutant("sweep_part_count_on_new_value_only", "partitions",
           "                b = v\n            i -= 1\n",
           "                b = v\n                i -= 1\n",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "COR_0CRANK")),
    Mutant("sweep_crank_interval_ends_early", "partitions",
           "cranks[w + v][w + i] -= 1",
           "cranks[w + v - 1][w + i] -= 1",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "COR_0CRANK")),
    # --- the families y + 2^j + 1^k of the statistics sweep ----------------
    Mutant("sweep_k1_crank_fold_steps_2_2", "partitions",
           "(k1_cranks, 3)",
           "(k1_cranks, 2)",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "COR_0CRANK")),
    Mutant("sweep_j1_mex_at_j0_row", "partitions",
           "mexes[w + 3]",
           "mexes[w + 1]",
           kills=("PROP_MEXFORM", "PROP_O13", "PROP_MEXRES")),
    Mutant("sweep_one_part_top_row_0_dropped", "partitions",
           "            top[w + 2][0] += 1\n",
           "",
           kills=("THM_FROB_J",)),
    Mutant("sweep_two_part_zero_free_from_j_0", "partitions",
           "            zero_free[w + 2] += 1\n",
           "            zero_free[w] += 1\n",
           kills=("PROP_NOF0",)),
    Mutant("sweep_gap_at_2_on_odd_e", "partitions",
           "        if e % 2 == 0:\n",
           "        if e % 2:\n",
           kills=("THM_JCRANK",)),
    # --- the per-n oracles of verify, which every enumeration side reads ----
    Mutant("crank_geq_oracle_strict", "verify",
           "if value >= j)",
           "if value > j)",
           kills=("THM_JCRANK",)),
    Mutant("frobenius_top_avoids_reads_j_plus_1", "verify",
           "stats.top_entry.get(j, 0)",
           "stats.top_entry.get(j + 1, 0)",
           kills=("THM_FROB_J",)),
    Mutant("frobenius_no0_plus_1_at_20", "verify",
           "    return _statistics(n, budget).zero_free\n",
           "    return _statistics(n, budget).zero_free + (n == 20)\n",
           kills=("PROP_NOF0",)),
    Mutant("mex_residue_mex_5_as_6", "verify",
           "if value % modulus == residue)",
           "if (value + (value == 5)) % modulus == residue)",
           kills=("PROP_O13", "PROP_MEXRES")),
    # --- 8b29c4e: the partition walker ---------------------------------------
    Mutant("walker_sibling_step", "partitions",
           "                parts.append(p - 1)\n                weight += p - 1\n",
           "                parts.append(max(p - 2, least))\n                weight += max(p - 2, least)\n",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "COR_0CRANK", "PROP_NOF0",
                  "THM_FROB_J", "PROP_O13", "PROP_MEXRES")),
    Mutant("walker_descent_one_short", "partitions",
           "min(parts[-1] if parts else limit, limit - weight)) >= least",
           "min(parts[-1] if parts else limit, limit - weight - 1)) >= least",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "PROP_NOF0", "THM_FROB_J",
                  "PROP_O13", "PROP_MEXRES")),
    # --- 8cf9a8b: the p table and its slice sums -----------------------------
    Mutant("slice_sums_stop_one_short", "partitions",
           "for g in offsets[:bisect_left(offsets, stop)]]",
           "for g in offsets[:bisect_left(offsets, stop - 1)]]",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "THM_FROB_J", "CRANK_GF_CONSISTENCY",
                  "PROP_MEXRES")),
    Mutant("slice_sums_zero_pad_one_short", "partitions",
           "zeros[:g - start] + table[:stop - g]",
           "zeros[:g - start - 1] + table[:stop - g + 1]",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "COR_0CRANK", "PROP_NOF0",
                  "THM_FROB_J", "PROP_O13", "EWELL_EVEN", "EWELL_ODD", "THM_AN_PARITY",
                  "INEQ_OE", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    Mutant("grow_far_offsets_from_148", "partitions",
           "i, j = bisect_left(plus, _BLOCK), bisect_left(minus, _BLOCK)",
           "i, j = bisect_left(plus, 148), bisect_left(minus, 148)",
           kills=("COR_CRANKRECUR", "PROP_NOF0", "THM_FROB_J", "PROP_O13", "EWELL_EVEN",
                  "EWELL_ODD", "THM_AN_PARITY", "INEQ_OE", "CRANK_GF_CONSISTENCY",
                  "PROP_MEXRES")),
    Mutant("p_table_plus_1_at_300", "partitions",
           "            window.append(scale * acc + forcing.get(n, 0))\n",
           "            window.append(scale * acc + forcing.get(n, 0) + (n == 300))\n",
           kills=("PROP_O13", "EWELL_EVEN", "THM_AN_PARITY", "CRANK_GF_CONSISTENCY",
                  "PROP_MEXRES")),
    Mutant("grow_window_cut_one_short", "partitions",
           "table.extend(window[_BLOCK:])",
           "table.extend(window[_BLOCK - 1:])",
           kills=("THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "COR_0CRANK", "PROP_NOF0",
                  "THM_FROB_J", "PROP_O13", "EWELL_EVEN", "EWELL_ODD", "THM_AN_PARITY",
                  "INEQ_OE", "CRANK_GF_CONSISTENCY", "PROP_MEXRES")),
    # --- 2fe5135: the other series kernels -----------------------------------
    Mutant("mul_one_minus_qk_reads_one_off", "qseries",
           "coeffs[k:] = map(sub, coeffs[k:], coeffs[:len(coeffs) - k])",
           "coeffs[k:] = map(sub, coeffs[k:], coeffs[1:len(coeffs) - k + 1])",
           survives="item 9"),
    Mutant("durfee_factor_b_plus_1_skipped", "qseries",
           "for k in range(b + 1, order + 1):",
           "for k in range(b + 2, order + 1):",
           survives="item 9"),
)
# Left out of the table, each for its reason:
# - 2fe5135's mutant that dropped the per-n offsets past a block's start:
#   _divide_by_poch has no such path, nor a padded slice; every far offset
#   is one slice of out behind its zeros, and poch_zero_pad_one_short
#   shifts that slice where it passes the block's start.
# - A zero prefix of _divide_by_poch, or a window of _grow, one entry
#   shorter than its reads assume: the read at g = 1 then lands past the
#   end of the list, so verify stops with an IndexError on the first
#   coefficient: a loud failure, not a wrong value.  The two prefix mutants
#   in the table cut one entry short where the prefix comes off instead.
# - The mutants that CHANGES.md names as equivalent: a far offset at g = hi
#   summed as an empty slice, the offset g = start run per n, the division's
#   branch test ignoring lo, the durfee threshold at 2b >= order - 1, and
#   "+= 1" for "= 1" on a zero coefficient.
# - Equivalent on every input that verify gives, and killed by tier-1:
#   _div_one_minus_qk ignoring lo on either branch (in _running_sum every
#   entry below lo is 0); __mul__ taking a non-unit term as 1 (the one
#   product verify builds, crank0_alt, loops over the +-1 terms of
#   (q;q)_inf); the walker yielding a parent in another order (the sweep adds
#   into difference tables, so the walk's order does not matter); and the
#   parameter check of counting.count_row, which every per-n function
#   reads, run after the row lookup (verify passes no bad parameter).
# - c752f3f's row cut at n_max - 1 and start-factor clamp of durfee_rect:
#   verify never calls table_row, and the clamp is gone.
# - 8cf9a8b's q table not grown to its block's end: it leaves every table
#   entry as it was, since growth by a partial block only costs time.
# - The renderer mutants: verify exits 0 on them, as they change only the
#   bytes of a report, and TestGoldenOutput guards them.


def _apply(root: Path, mutant: Mutant) -> None:
    path = root / "mexcrank" / f"{mutant.module}.py"
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.module}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _failing_legs(root: Path) -> tuple[str | None, dict[str, dict]]:
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "mexcrank", "verify", "--all", "--format", "json"],
                         env=env, capture_output=True, text=True, timeout=120)
    return _parse_run(run.returncode, run.stdout, run.stderr)


def _parse_run(code: int, stdout: str, stderr: str) -> tuple[str | None, dict[str, dict]]:
    # What one verify run reports: the line that says why it gave no
    # report, or None, and each failing leg with the point where it first
    # fails.  A run that raised exits 1, as a failing check does, but
    # leaves no report on stdout.
    if code not in (0, 1):
        return f"verify exited {code}", {}
    try:
        reports = json.loads(stdout)["reports"]
    except (json.JSONDecodeError, KeyError, TypeError):
        lines = stderr.strip().splitlines() or ["no stderr"]
        return f"verify crashed: {lines[-1]}", {}
    legs: dict[str, dict] = {}
    for report in reports:
        for record in report["records"]:
            if not record["pass"]:
                point = dict(record["params"])
                side = point.pop("side", None)
                leg = report["check_id"] + (f"/{side}" if side else "")
                legs.setdefault(leg, point)
    return None, legs


def _run(mutant: Mutant | None) -> tuple[str | None, dict[str, dict]]:
    with tempfile.TemporaryDirectory(prefix="mutation_probe_") as tmp:
        root = Path(tmp) / "src"
        shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            _apply(root, mutant)
        return _failing_legs(root)


def _verdict(mutant: Mutant, error: str | None, legs: dict[str, dict]) -> tuple[bool, str]:
    # Whether the expectation holds, and the line that reports the mutant.
    if error is not None:
        return False, error
    failed = sorted({leg.split("/")[0] for leg in legs})
    if not failed:
        return mutant.survives is not None, f"survives ({mutant.survives or 'expected killed'})"
    where = ", ".join(f"{leg} at {json.dumps(point, sort_keys=True)}"
                      for leg, point in legs.items())
    holds = mutant.survives is None and failed == sorted(mutant.kills)
    return holds, f"killed by {where}"


def main() -> int:
    error, legs = _run(None)
    if error is not None or legs:
        print(f"unmutated: {error or 'checks failed'}; failing legs {sorted(legs)}")
        return 1
    matrix: dict[str, dict[str, dict]] = {}
    broken = 0
    for mutant in MUTANTS:
        error, legs = _run(mutant)
        matrix[mutant.name] = legs
        holds, line = _verdict(mutant, error, legs)
        if not holds:
            broken += 1
            expected = f"kills {', '.join(mutant.kills)}" if mutant.kills else "survives"
            line += f"  EXPECTED {expected}"
        print(f"{mutant.name}: {line}", flush=True)
    killed = sum(1 for legs in matrix.values() if legs)
    print(f"killed {killed} of {len(MUTANTS)}; {broken} expectations broken")
    print(json.dumps(matrix, indent=1, sort_keys=True))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
