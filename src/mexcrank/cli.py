"""Command-line front end: tables, series expansions, statistics, verification.

Machine-readable output (CSV or JSON) goes to stdout only; progress notes and
error messages go to stderr.  Exit codes: 0 for success, 1 when a
verification check fails, 2 for usage errors, 141 when the reader of stdout
closes it early.  Identical invocations produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import islice

# Each subcommand imports the mexcrank modules it runs, when it runs, and
# main builds the arguments of that subcommand alone: stat loads only
# partitions, series only qseries, table counting (and through it
# partitions), and verify all four.  Functions are read as module
# attributes at call time, never bound here.

# The largest table --n-max and series --order accepted, so that a huge value
# is a usage error and not a hang or a MemoryError; the library takes any
# size.  Cold, on 2 CPUs with Python 3.11.7, where `python -c pass` takes
# 31 ms, a row costs about one p table, 0.17 s at n_max = 20000 and 2 s and
# 30 MB at 100000, and crank0_alt, the costliest series, 0.37 s at order
# 5000, 1.4 s at 10000 and 5 s and 21 MB at 20000.
TABLE_N_MAX = 100_000
SERIES_ORDER_MAX = 20_000

# The same for verify, whose --n-max and --order size the same rows and
# series.  Cold, at 20000, the costliest check alone (CRANK_GF_CONSISTENCY,
# COR_CRANKRECUR) takes about 8 s and 138 MB, and all 14 checks 20 s and
# 207 MB under --n-max and 24 s and 180 MB under --order, in either format,
# the closed-form rows holding 43 and 33 MiB.  --budget's cost grows with
# p(n): PROP_MEXFORM at 50 takes 1.1 s and 17 MB; p(80) is 15.8M partitions.
VERIFY_N_MAX = 20_000
VERIFY_ORDER_MAX = 20_000
VERIFY_BUDGET_MAX = 50

# Rows and records per write.  Larger chunks save no time and raise peak
# memory: at n_max = 20000, 256-row chunks add about 0.2 MB of max-RSS to a
# table run, one write of all 20001 rows 7 MB, and 64-row chunks under 0.1 MB.
_ROWS_PER_WRITE = 64

# --kind spellings that differ from their generating-function tag; every
# other tag in qseries.GF_KINDS is its own spelling.
_KIND_SPELLINGS = {"crank_geq_j": "crank_geq", "durfee_rect_b": "durfee_rect"}


def _series_tags() -> dict[str, str]:
    # Each --kind spelling and its tag, in the order of qseries.GF_KINDS.
    from . import qseries
    return {_KIND_SPELLINGS.get(tag, tag): tag for tag in qseries.GF_KINDS}


def _kinds_taking(param: str) -> str:
    from . import qseries
    return " / ".join(_KIND_SPELLINGS.get(tag, tag)
                      for tag, (name, _, _) in qseries.GF_KINDS.items() if name == param)


def _fail(message: str) -> int:
    print(f"mexcrank: error: {message}", file=sys.stderr)
    return 2


def _param(args: argparse.Namespace, spec: tuple, chosen: str) -> tuple[int | None, str | None]:
    # The parameter that a (name, least, maker) entry of counting.STREAMS or
    # qseries.GF_KINDS reads from args, and the usage error if it is too small.
    name, least, _ = spec
    param = None if name is None else getattr(args, name)
    if least is not None and param < least:
        return param, f"{chosen} requires --{name} >= {least}"
    return param, None


def _canonical(payload: object) -> str:
    # The JSON encoding of every stdout byte, compact with sorted keys; the
    # renderer below gives its bytes with no dict per row.  CSV never loads json.
    import json
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The renderer: a str is encoded once, an int is str(), any other value goes
# through _canonical (format(True) is "True").  Its caches hold the registry's
# few dozen check ids, statements, sides and key tuples.
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


def _record_texts(check_id: str, records: Iterable[verify.CheckRecord]) -> Iterator[str]:
    # Each record's _canonical(to_jsonable(...)); check_id comes as JSON text.
    for params, lhs, rhs in records:
        yield (f'{{"check_id":{check_id},"lhs":"{lhs!s}","params":{_params_text(params)},'
               f'"pass":{"true" if lhs == rhs else "false"},"rhs":"{rhs!s}"}}')


def _write_report(write: Callable[[str], object], report: verify.VerificationReport,
                  lead: str = "") -> None:
    # lead, then _canonical(report.to_jsonable()), _ROWS_PER_WRITE records a write.
    check_id = _string_text(report.check_id)
    failed = [record for record in report.records if record.lhs != record.rhs]
    write(f'{lead}{{"check_id":{check_id},"failed":{len(failed)},"first_counterexample":'
          f'{next(_record_texts(check_id, failed), "null")},'
          f'"pass":{"false" if failed else "true"},"records":[')
    _write_chunks(write, _record_texts(check_id, report.records), ",")
    write(f'],"statement":{_string_text(report.statement)},"total":{len(report.records)}}}')


def _csv_lines(report: verify.VerificationReport) -> Iterator[str]:
    # The bytes csv.writer gives: the params text always holds a '"', so it is
    # quoted with each '"' doubled; no check id, integer or bool needs quoting.
    for params, lhs, rhs in report.records:
        params = _params_text(params).replace('"', '""')
        yield f'{report.check_id},"{params}",{lhs},{rhs},{"true" if lhs == rhs else "false"}\n'


def _write_chunks(write: Callable[[str], object], texts: Iterator[str], sep: str) -> None:
    # texts joined by sep, in one write per _ROWS_PER_WRITE of them.
    for index, chunk in enumerate(iter(lambda: list(islice(texts, _ROWS_PER_WRITE)), [])):
        write((sep if index else "") + sep.join(chunk))


def _emit_rows(rows: Iterable[tuple[int, int]], columns: tuple[str, str],
               args: argparse.Namespace) -> None:
    # rows are (n, value) integer pairs, so no CSV field needs quoting, and
    # leave in chunks whether or not stdout is buffered.  A JSON row is the
    # object {n, "value"} through its keys' template: _canonical of every row.
    write = sys.stdout.write
    if args.format == "json":
        template = _template(columns)
        write("[")
        _write_chunks(write, (template.format(n, f'"{value}"') for n, value in rows), ",")
        write("]\n")
        return
    if not args.no_header:
        write(",".join(columns) + "\n")
    _write_chunks(write, (f"{n},{value}\n" for n, value in rows), "")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--no-header", action="store_true",
                        help="omit the CSV header row")


def _table_arguments(table: argparse.ArgumentParser) -> None:
    from . import counting
    # q keeps the Gauss recurrence, faster than a stream row; it follows p.
    table.add_argument("--fn", required=True,
                       choices=list(dict.fromkeys(("p", "q", *counting.STREAMS))),
                       help="which function to tabulate")
    table.add_argument("--m", type=int, default=0, help="crank value for M, mex value for x_mex")
    table.add_argument("--j", type=int, default=0, help="lower crank bound for crank_geq")
    table.add_argument("--n-max", dest="n_max", type=int, default=100,
                       help=f"largest n, at most {TABLE_N_MAX} (default: 100)")
    _add_output_flags(table)


def _cmd_table(args: argparse.Namespace) -> int:
    from . import counting, partitions
    if not 0 <= args.n_max <= TABLE_N_MAX:
        return _fail(f"--n-max must be in 0..{TABLE_N_MAX}, got {args.n_max}")
    if args.fn == "q":
        values = map(partitions.distinct_parts_count, range(args.n_max + 1))
    else:
        param, error = _param(args, counting.STREAMS[args.fn], f"--fn {args.fn}")
        if error:
            return _fail(error)
        values = counting.table_row(args.fn, param, args.n_max)
    _emit_rows(enumerate(values), ("n", "value"), args)
    return 0


def _series_arguments(series: argparse.ArgumentParser) -> None:
    series.add_argument("--kind", required=True, choices=sorted(_series_tags()),
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


def _cmd_series(args: argparse.Namespace) -> int:
    from . import qseries
    if not 0 <= args.order <= SERIES_ORDER_MAX:
        return _fail(f"--order must be in 0..{SERIES_ORDER_MAX}, got {args.order}")
    tag = _series_tags()[args.kind]
    param, error = _param(args, qseries.GF_KINDS[tag], f"--kind {args.kind}")
    if error:
        return _fail(error)
    kind = qseries.GfKind(tag, param)
    _emit_rows(enumerate(qseries.gf(kind, args.order).coeffs), ("n", "coefficient"), args)
    return 0


def _stat_arguments(stat: argparse.ArgumentParser) -> None:
    stat.add_argument("parts", nargs="*", type=int,
                      help="parts of the partition, any order; empty for the empty partition")


def _cmd_stat(args: argparse.Namespace) -> int:
    from . import partitions
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
    sys.stdout.write(_canonical(record) + "\n")
    return 0


def _verify_arguments(vrf: argparse.ArgumentParser) -> None:
    from . import verify
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


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
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

    # Each report leaves as soon as it is made, CSV to stdout and JSON to a
    # spool that is copied out after the last check, as the top-level "pass"
    # sorts before "reports": no more than one chunk of record texts is held.
    if args.format == "json":
        import shutil, tempfile
        spool = tempfile.TemporaryFile("w+", encoding="utf-8")
    else:
        from contextlib import nullcontext
        spool = nullcontext(sys.stdout)
        if not args.no_header:
            sys.stdout.write("check_id,params,lhs,rhs,pass\n")
    all_passed = True
    with spool as out:
        for index, check in enumerate(selected):
            start = time.perf_counter()
            report = verify.run_check(check)
            elapsed_ms = round((time.perf_counter() - start) * 1000)
            all_passed &= report.passed
            print(f"{check.check_id}: {'pass' if report.passed else 'FAIL'} "
                  f"({len(report.records)} records, {elapsed_ms} ms)", file=sys.stderr)
            if args.format == "json":
                _write_report(out.write, report, "," if index else "")
            else:
                _write_chunks(out.write, _csv_lines(report), "")
            del report  # before the next check builds its own
        if args.format == "json":
            sys.stdout.write(f'{{"pass":{_canonical(all_passed)},"reports":[')
            out.seek(0)
            shutil.copyfileobj(out, sys.stdout)
            sys.stdout.write("]}\n")
    return 0 if all_passed else 1


# Each subcommand: its help line, what adds its arguments and what runs it.
_COMMANDS = {
    "table": ("tabulate a counting function over n = 0..n_max", _table_arguments, _cmd_table),
    "series": ("expand a named generating function", _series_arguments, _cmd_series),
    "stat": ("statistics of one partition given by its parts", _stat_arguments, _cmd_stat),
    "verify": ("run identity checks from the registry", _verify_arguments, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the arguments of `command` alone,
    with every name and help line kept, so that usage and errors read alike."""
    parser = argparse.ArgumentParser(
        prog="mexcrank",
        description="Exact partition statistics, q-series expansions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # There are no global options, so a subcommand, if any, is the first
    # argument; anything else gets the full parser and its usage error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    _, _, run = _COMMANDS[args.command]
    try:
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (say, head): exit as SIGPIPE would, flushing to devnull.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
