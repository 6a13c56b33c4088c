"""Command-line front end: tables, series expansions, statistics, verification.

Machine-readable output (CSV or JSON) goes to stdout only; progress notes and
error messages go to stderr.  Exit codes: 0 for success, 1 when a
verification check fails, 2 for usage errors.  Identical invocations produce
byte-identical stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import counting, partitions, qseries, verify

# The largest table --n-max and series --order accepted, so that a huge value
# is a usage error and not a hang or a MemoryError.  Both costs grow faster
# than n^1.5; cold, on 2 CPUs with Python 3.11.7, every row costs about one
# p table, 3-4 s and 30 MB at n_max = 100000 as CSV or JSON, and the
# costliest series (crank0_alt) about 0.9 s at order 5000, 3 s at 10000 and
# 11.5 s and 23 MB at 20000.
# The library itself takes any size.
TABLE_N_MAX = 100_000
SERIES_ORDER_MAX = 20_000

# The same for verify.  --n-max and --order size the same series and closed
# forms as table and series do.  Cold, at 20000, the costliest check alone
# takes about 13 s and 305 MB as JSON (CRANK_GF_CONSISTENCY under --n-max,
# COR_CRANKRECUR under --order; 13 s and 139 MB as CSV), and all 14 checks
# as JSON 40 s and 581 MB at --n-max 20000 and 38 s and 452 MB at --order
# 20000, of which the closed-form rows hold 43 and 33 MiB.  --budget is how
# far the enumeration reaches, and its cost grows with p(n): --check
# PROP_MEXFORM --n-max 50 --budget 50 takes about 1.8 s and 18 MB, and the
# statistics sweep alone takes 3-4 s at 55; p(80) alone is 15.8M partitions.
VERIFY_N_MAX = 20_000
VERIFY_ORDER_MAX = 20_000
VERIFY_BUDGET_MAX = 50

# table, series and verify CSV rows per stdout write.  Larger chunks save no
# time and raise peak memory: at n_max = 20000, 256-row chunks add about
# 0.2 MB of max-RSS to the 17.6 MB the table run takes, and one write of all
# 20001 rows 7 MB; 64-row chunks add under 0.1 MB.
_ROWS_PER_WRITE = 64

# --kind spellings that differ from their generating-function tag; every
# other tag in qseries.GF_KINDS is its own spelling.
_KIND_SPELLINGS = {"crank_geq_j": "crank_geq", "durfee_rect_b": "durfee_rect"}
_SERIES_TAGS = {_KIND_SPELLINGS.get(tag, tag): tag for tag in qseries.GF_KINDS}


def _kinds_taking(param: str) -> str:
    return " / ".join(kind for kind, tag in _SERIES_TAGS.items()
                      if qseries.GF_KINDS[tag][0] == param)


def _fail(message: str) -> int:
    print(f"mexcrank: error: {message}", file=sys.stderr)
    return 2


def _canonical(payload: object) -> str:
    # The JSON encoding of every stdout byte: compact, with sorted keys.  stat
    # writes through it; rows and verify records are written by the renderer
    # below, which gives the same bytes without building a dict per row.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The renderer: a str is encoded once, an int is str(), and every other value
# falls back to _canonical (format(True) is "True", not "true").  Its caches
# hold the registry's few dozen check ids, statements, sides and key tuples.
_string_text = lru_cache(maxsize=None)(_canonical)


def _value_text(value: object) -> str:
    if type(value) is int:
        return str(value)
    return _string_text(value) if type(value) is str else _canonical(value)


@lru_cache(maxsize=None)
def _template(keys: tuple[str, ...]) -> str:
    # str.format template of an object with these keys, sorted; it takes the
    # value texts in the order of keys.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return "{{" + ",".join(_string_text(keys[i]).replace("{", "{{").replace("}", "}}")
                           + f":{{{i}}}" for i in order) + "}}"


def _params_text(params: verify.Params) -> str:
    return _template(tuple(params)).format(*map(_value_text, params.values()))


def _report_text(report: verify.VerificationReport) -> str:
    # _canonical(report.to_jsonable()), written from the records themselves.
    # The report's head and tail ride on its first and last record texts, so
    # that the one join is the one copy of the whole text.
    check_id = _string_text(report.check_id)
    head = f'{{"check_id":{check_id},"lhs":"'
    texts = [f'{head}{lhs!s}","params":{_params_text(params)},"pass":'
             f'{"true" if lhs == rhs else "false"},"rhs":"{rhs!s}"}}'
             for params, lhs, rhs in report.records] or [""]
    failed = [text for text, (_, lhs, rhs) in zip(texts, report.records) if lhs != rhs]
    texts[0] = (f'{{"check_id":{check_id},"failed":{len(failed)},"first_counterexample":'
                f'{failed[0] if failed else "null"},"pass":{"false" if failed else "true"},'
                f'"records":[{texts[0]}')
    texts[-1] += f'],"statement":{_string_text(report.statement)},"total":{len(report.records)}}}'
    return ",".join(texts)


def _json_dump(payload: object) -> None:
    sys.stdout.write(_canonical(payload) + "\n")


def _chunks(rows: Iterable) -> Iterator[list]:
    # rows in lists of _ROWS_PER_WRITE, the last one shorter.
    rows = iter(rows)
    return iter(lambda: list(islice(rows, _ROWS_PER_WRITE)), [])


def _emit_rows(rows: Iterable[tuple[int, int]], columns: tuple[str, str],
               args: argparse.Namespace) -> None:
    # rows are (n, value) pairs of integers, so no CSV field needs quoting.
    # They leave _ROWS_PER_WRITE at a time, one write per chunk, whether or
    # not stdout is buffered.  A JSON row is the object {n, "value"} through
    # the template of its keys, so the whole text is _canonical of every row.
    chunks = _chunks(rows)
    write = sys.stdout.write
    if args.format == "json":
        template = _template(columns)
        write("[")
        for index, chunk in enumerate(chunks):
            text = ",".join([template.format(n, f'"{value}"') for n, value in chunk])
            write(("," if index else "") + text)
        write("]\n")
        return
    if not args.no_header:
        write(",".join(columns) + "\n")
    for chunk in chunks:
        write("".join([f"{n},{value}\n" for n, value in chunk]))


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--no-header", action="store_true",
                        help="omit the CSV header row")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexcrank",
        description="Exact partition statistics, q-series expansions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="tabulate a counting function over n = 0..n_max")
    # q keeps the Gauss recurrence, faster than a stream row; it follows p.
    table.add_argument("--fn", required=True,
                       choices=list(dict.fromkeys(("p", "q", *counting.STREAMS))),
                       help="which function to tabulate")
    table.add_argument("--m", type=int, default=0, help="crank value for M, mex value for x_mex")
    table.add_argument("--j", type=int, default=0, help="lower crank bound for crank_geq")
    table.add_argument("--n-max", dest="n_max", type=int, default=100,
                       help=f"largest n, at most {TABLE_N_MAX} (default: 100)")
    _add_output_flags(table)

    series = sub.add_parser("series", help="expand a named generating function")
    series.add_argument("--kind", required=True, choices=sorted(_SERIES_TAGS),
                        help="which generating function")
    series.add_argument("--m", type=int, default=0,
                        help=f"crank parameter for {_kinds_taking('m')}")
    series.add_argument("--j", type=int, default=0,
                        help=f"parameter for {_kinds_taking('j')}")
    series.add_argument("--b", type=int, default=0,
                        help=f"rectangle offset for {_kinds_taking('b')}")
    series.add_argument("--order", type=int, default=200,
                        help=f"truncation order, at most {SERIES_ORDER_MAX} (default: 200)")
    _add_output_flags(series)

    stat = sub.add_parser("stat", help="statistics of one partition given by its parts")
    stat.add_argument("parts", nargs="*", type=int,
                      help="parts of the partition, any order; empty for the empty partition")

    vrf = sub.add_parser("verify", help="run identity checks from the registry")
    selection = vrf.add_mutually_exclusive_group()
    selection.add_argument("--all", dest="run_all", action="store_true",
                           help="run every registered check (default when no --check is given)")
    selection.add_argument("--check", dest="checks", action="append", metavar="ID",
                           help="check id to run; may be repeated")
    vrf.add_argument("--n-max", dest="n_max", type=int, default=None,
                     help=f"override each check's main scan range, at most {VERIFY_N_MAX}")
    vrf.add_argument("--order", type=int, default=None,
                     help=f"override the series truncation order, at most {VERIFY_ORDER_MAX}")
    vrf.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET,
                     help=f"enumeration cap, at most {VERIFY_BUDGET_MAX} "
                          f"(default: {verify.DEFAULT_BUDGET})")
    _add_output_flags(vrf)

    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    if not 0 <= args.n_max <= TABLE_N_MAX:
        return _fail(f"--n-max must be in 0..{TABLE_N_MAX}, got {args.n_max}")
    if args.fn == "q":
        values = map(partitions.distinct_parts_count, range(args.n_max + 1))
    else:
        name, least, _ = counting.STREAMS[args.fn]
        param = None if name is None else getattr(args, name)
        if least is not None and param < least:
            return _fail(f"--fn {args.fn} requires --{name} >= {least}")
        values = counting.table_row(args.fn, param, args.n_max)
    _emit_rows(enumerate(values), ("n", "value"), args)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if not 0 <= args.order <= SERIES_ORDER_MAX:
        return _fail(f"--order must be in 0..{SERIES_ORDER_MAX}, got {args.order}")
    tag = _SERIES_TAGS[args.kind]
    param = qseries.GF_KINDS[tag][0]
    try:
        kind = qseries.GfKind(tag, None if param is None else getattr(args, param))
    except qseries.InvalidParamsError as exc:
        return _fail(str(exc))
    _emit_rows(enumerate(qseries.gf(kind, args.order).coeffs), ("n", "coefficient"), args)
    return 0


def _cmd_stat(args: argparse.Namespace) -> int:
    if any(part < 1 for part in args.parts):
        return _fail("parts must be positive integers")
    lam = partitions.Partition.of(*args.parts)
    symbol = partitions.to_frobenius(lam)
    # mex above a part j is j + 1, unless j + 1 is a part too, when it is
    # the mex above j + 1: one pass down the distinct parts fills them all.
    mex_j: dict[int, int] = {}
    for j in sorted(set(lam.parts), reverse=True):
        mex_j[j] = mex_j.get(j + 1, j + 1)
    record = {
        "weight": lam.weight,
        "mex": partitions.mex(lam),
        "crank": partitions.crank(lam),
        "durfee": partitions.durfee_size(lam),
        "frobenius": {"top": list(symbol.top), "bottom": list(symbol.bottom)},
        "mex_j": {str(j): m for j, m in mex_j.items()},
    }
    _json_dump(record)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, value, ceiling in (("--n-max", args.n_max, VERIFY_N_MAX),
                                 ("--order", args.order, VERIFY_ORDER_MAX),
                                 ("--budget", args.budget, VERIFY_BUDGET_MAX)):
        if value is not None and not 0 <= value <= ceiling:
            return _fail(f"{flag} must be in 0..{ceiling}, got {value}")

    available = verify.checks_by_id(args.n_max, budget=args.budget, order=args.order)
    if args.checks:
        unknown = [check_id for check_id in args.checks if check_id not in available]
        if unknown:
            known = ", ".join(sorted(available))
            return _fail(f"unknown check id(s) {', '.join(unknown)}; known ids: {known}")
        selected = [available[check_id] for check_id in args.checks]
    else:
        selected = list(available.values())

    try:  # an empty grid is a usage error, found before any check runs
        for check in selected:
            verify._require_points(check)
    except ValueError as exc:
        return _fail(str(exc))

    # Each report leaves as soon as it is made: CSV writes its rows, JSON
    # keeps only its text, because the top-level "pass" sorts before "reports".
    # The CSV rows pass through one csv.writer on a buffer, which leaves in
    # one write per _ROWS_PER_WRITE rows, whether or not stdout is buffered.
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if args.format == "csv" and not args.no_header:
        sys.stdout.write("check_id,params,lhs,rhs,pass\n")
    all_passed, texts = True, []
    for check in selected:
        start = time.perf_counter()
        report = verify.run_check(check)
        elapsed_ms = round((time.perf_counter() - start) * 1000)
        all_passed &= report.passed
        status = "pass" if report.passed else "FAIL"
        print(f"{check.check_id}: {status} ({len(report.records)} records, {elapsed_ms} ms)",
              file=sys.stderr)
        if args.format == "json":
            texts.append(_report_text(report))
        else:
            rows = ((report.check_id, _params_text(record.params), str(record.lhs),
                     str(record.rhs), "true" if record.passed else "false")
                    for record in report.records)
            for chunk in _chunks(rows):
                writer.writerows(chunk)
                sys.stdout.write(buffer.getvalue())
                buffer.seek(0)
                buffer.truncate()
        del report  # before the next check builds its own
    if args.format == "json":
        sys.stdout.write(f'{{"pass":{_canonical(all_passed)},"reports":[')
        for index, text in enumerate(texts):
            sys.stdout.writelines(("," if index else "", text))
        sys.stdout.write("]}\n")
    return 0 if all_passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "table": _cmd_table,
        "series": _cmd_series,
        "stat": _cmd_stat,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
