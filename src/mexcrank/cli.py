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
from itertools import chain, compress, islice
from operator import eq, ne

# Each subcommand imports the mexcrank modules it runs, when it runs, and
# main builds the arguments of that subcommand alone: stat loads only
# partitions, series only qseries, table counting (and through it
# partitions), and verify all four.  Functions are read as module
# attributes at call time, never bound here.

# The largest table --n-max and series --order accepted, so that a huge value
# is a usage error and not a hang or a MemoryError; the library takes any
# size.  Cold, on 2 CPUs with Python 3.11.7, where `python -c pass` takes
# 25 ms, a row costs about one p table, 0.14 s at n_max = 20000 and 1.7 s
# and 29 MB at 100000.  The costliest series is crank0_alt: 0.31 s at order
# 5000, 1.1 s at 10000 and 4.4 s and 21 MB at 20000.  The next is
# durfee_rect with b near 0.3 * order, where its start factors 1/(q)_b, as
# b divisions by (1 - q^k) or as the pentagonal division, cost the same:
# 0.27 s, 0.99 s and 4.1-4.2 s and 18 MB; b >= order takes 0.14 s at 20000.
TABLE_N_MAX = 100_000
SERIES_ORDER_MAX = 20_000

# The same for verify, whose --n-max and --order size the same rows and
# series.  Cold, at 20000, all 15 checks take about 22 s and 145 MB under
# --n-max, the closed-form rows holding 43 MiB and every report's rows held
# until the last check ends, on a busy host where they took 28 s and 207 MB
# while every report held its records.  Measured before that, the costliest
# check alone (CRANK_GF_CONSISTENCY, COR_CRANKRECUR) took about 4.4 s and
# 137 MB, all 15 checks under --order 14 s and 180 MB.  PROP_MEXFORM at
# --budget 50 takes 0.24 s and 16 MB, mostly the sweep over the 56,953
# partitions of <= 50 into parts >= 3.
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
    # renderer below gives its bytes with no dict per record.  CSV never loads json.
    import json
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# The renderer: a str is encoded once and any other value goes through
# _canonical.  Its cache holds the registry's few dozen check ids,
# statements, sides, keys and parameter names.
_string_text = lru_cache(maxsize=None)(_canonical)


def _value_text(value: object) -> str:
    return _string_text(value) if type(value) is str else _canonical(value)


@lru_cache(maxsize=None)
def _template(keys: tuple[str, ...]) -> str:
    # str.format template of an object with these keys, sorted; it takes the
    # value texts in the order of keys.
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return "{{" + ",".join(_string_text(keys[i]).replace("{", "{{").replace("}", "}}")
                           + f":{{{i}}}" for i in order) + "}}"


def _record_texts(check_id: str, rows: Iterable[verify.Row], csv: bool = False) -> Iterator[str]:
    # Per row, the texts of its records, _canonical(to_jsonable(...)) or the
    # CSV line, through one %-template of the check id (JSON text for JSON)
    # and the row's params: its head and key; a record formats n, lhs, pass
    # and rhs, as str() writes an int.  CSV quotes the params text, which
    # always holds a '"', with each '"' doubled; no check id, integer or bool
    # needs it.
    check_id = check_id.replace("%", "%%")
    for head, key, ns, lhs, rhs in rows:
        texts = {name: _value_text(value) for name, value in head.items()}
        texts[key] = None
        params = "{" + ",".join(_string_text(name).replace("%", "%%") + ":" + (
            "%s" if texts[name] is None else texts[name].replace("%", "%%")) for name in sorted(texts)) + "}"
        passes = map(("false", "true").__getitem__, map(eq, lhs, rhs))
        if csv:
            template = f'{check_id},"{params.replace(chr(34), chr(34) * 2)}",%s,%s,%s\n'
            yield map(template.__mod__, zip(ns, lhs, rhs, passes))
        else:
            template = f'{{"check_id":{check_id},"lhs":"%s","params":{params},"pass":%s,"rhs":"%s"}}'
            yield map(template.__mod__, zip(lhs, ns, passes, rhs))


def _write_report(write: Callable[[str], object], report: verify.VerificationReport,
                  failed: int, lead: str = "") -> None:
    # lead, then _canonical(report.to_jsonable()), _ROWS_PER_WRITE records a
    # write; failed is report.failed.
    check_id, rows = _string_text(report.check_id), report.rows
    first = "null" if not failed else next(compress(
        chain.from_iterable(_record_texts(check_id, rows)),
        chain.from_iterable(map(ne, row.lhs, row.rhs) for row in rows)))
    write(f'{lead}{{"check_id":{check_id},"failed":{failed},"first_counterexample":'
          f'{first},"pass":{"false" if failed else "true"},"records":[')
    _write_chunks(write, chain.from_iterable(_record_texts(check_id, rows)), ",")
    write(f'],"statement":{_string_text(report.statement)},"total":{report.total}}}')


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
        "durfee": symbol.size,
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

    # Every check runs before the first write, as JSON's "pass" sorts before
    # "reports", so a check that raises leaves stdout empty.  A report holds
    # its rows, which point at the cached rows' and series' own integers.
    reports = []
    for check in selected:
        start = time.perf_counter()
        report = verify.run_check(check)
        elapsed_ms = round((time.perf_counter() - start) * 1000)
        failed = report.failed
        print(f"{check.check_id}: {'FAIL' if failed else 'pass'} "
              f"({report.total} records, {elapsed_ms} ms)", file=sys.stderr)
        reports.append((report, failed))
    all_passed = not any(failed for _, failed in reports)
    write = sys.stdout.write
    if args.format == "json":
        write(f'{{"pass":{_canonical(all_passed)},"reports":[')
        for index, (report, failed) in enumerate(reports):
            _write_report(write, report, failed, "," if index else "")
        write("]}\n")
    else:
        if not args.no_header:
            write("check_id,params,lhs,rhs,pass\n")
        for report, _ in reports:
            texts = _record_texts(report.check_id, report.rows, csv=True)
            _write_chunks(write, chain.from_iterable(texts), "")
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
