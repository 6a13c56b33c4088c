"""Layer spans for one ``mexcrank`` invocation, and their reduction to metrics.

Run as a script, this file is a traced stand-in for ``python -m mexcrank``::

    python perfbench/tracing.py SPANS_PATH MEXCRANK_ARGS...

It prints the same stdout and exits with the same code as the plain
command.  It wraps the public functions of each mexcrank module from the
outside (nothing under ``src/`` changes), keeps the spans in memory and
writes them to SPANS_PATH as JSON when the command ends.

A span is recorded when a call enters a span group from a different group,
so a group calling itself (``checks_by_id`` -> ``registry``,
``odd_mex_count`` -> ``mex_count``) is one span.  Each span carries its
name, start, end and parent; the invocation id is the spans file itself.
Three groups are hot leaves, called up to millions of times per
invocation: p(n), q(n) and the per-partition statistics.  Their calls are
kept as one (calls, seconds) aggregate per parent span, since a record per
call would cost more memory than the work it measures.  A span's self time
is its duration minus that of its child spans and leaf aggregates.

Imported, the module only provides :func:`layer_metrics` and
:data:`PER_LAYER`; it imports nothing from mexcrank.
"""

from __future__ import annotations

import bisect
import json
import sys
import time

GF_TAGS = (
    "euler_inv", "poch_q_inf", "distinct", "crank_m", "crank_geq_j",
    "frob_no0", "crank0_alt", "frob_noj_top", "durfee_rect_b",
)

CHECK_IDS = (
    "THM_JCRANK", "COR_CRANKRECUR", "PROP_MEXFORM", "COR_0CRANK", "PROP_NOF0",
    "THM_FROB_J", "PROP_O13", "EWELL_EVEN", "EWELL_ODD", "THM_AN_PARITY",
    "INEQ_OE", "SERIES_HEINE", "DURFEE_RECT", "CRANK_GF_CONSISTENCY",
)

# Metrics that are sums of counts; they must repeat exactly between two
# traced runs of one seed.
EXACT_COUNTS = (
    "partitions.enumerated",
    "verify.records",
    "qseries.mul_pairs_dense",
    "qseries.mul_pairs_nonzero",
    "counting.p_lookups",
    "cli.stdout_bytes",
)

PER_LAYER = (
    "partitions.enumerate_s", "partitions.enumerated",
    "partitions.stats_s", "partitions.stats_calls",
    "partitions.p_s", "partitions.p_calls", "partitions.p_max_n",
    "partitions.q_s", "partitions.q_calls",
    "qseries.gf_s", "qseries.gf_calls",
    *(f"qseries.gf_s.{tag}" for tag in GF_TAGS),
    "qseries.mul_s", "qseries.invert_s",
    "qseries.mul_pairs_dense", "qseries.mul_pairs_nonzero", "qseries.coeff_bytes",
    "counting.self_s", "counting.calls", "counting.p_lookups",
    "verify.registry_s", "verify.run_check_s", "verify.self_s", "verify.oracle_s",
    "verify.records",
    *(f"verify.check_s.{check_id}" for check_id in CHECK_IDS),
    "cli.main_s", "cli.self_s", "cli.stdout_bytes", "cli.import_s",
    "trace.overhead_s", "trace.unattributed_s",
)


def unit_of(metric: str) -> str:
    if metric == "cli.stdout_bytes" or metric == "qseries.coeff_bytes":
        return "bytes"
    if metric == "partitions.p_max_n":
        return "n"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "count"


def layer_metrics(doc: dict, wall_s: float, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``doc`` is the content of a spans file, ``wall_s`` the invocation's wall
    time as its parent process saw it.  Times are inclusive unless named
    ``self_s``.
    """
    names = doc["names"]
    spans = doc["spans"]  # [name index, parent span index or -1, start, end]
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    leaf: dict[str, list[float]] = {}
    p_lookups = 0
    for parent, name_index, calls, seconds in doc["leaves"]:
        if parent >= 0:
            covered[parent] += seconds
        name = names[name_index]
        totals = leaf.setdefault(name, [0, 0.0])
        totals[0] += calls
        totals[1] += seconds
        if name == "partitions.p" and parent >= 0 and names[spans[parent][0]] == "counting":
            p_lookups += calls

    out = dict.fromkeys(PER_LAYER, 0)
    for index, (name_index, _, start, end) in enumerate(spans):
        name = names[name_index]
        group, _, label = name.partition(":")
        duration = end - start
        self_time = duration - covered[index]
        if group == "partitions.enumerate":
            out["partitions.enumerate_s"] += duration
        elif group == "qseries.gf":
            out["qseries.gf_s"] += duration
            out["qseries.gf_calls"] += 1
            out[f"qseries.gf_s.{label}"] += duration
        elif group == "qseries.mul":
            out["qseries.mul_s"] += duration
        elif group == "qseries.invert":
            out["qseries.invert_s"] += duration
        elif group == "counting":
            out["counting.self_s"] += self_time
            out["counting.calls"] += 1
        elif group.startswith("verify."):
            out["verify.self_s"] += self_time
            if group == "verify.registry":
                out["verify.registry_s"] += duration
            elif group == "verify.oracle":
                out["verify.oracle_s"] += duration
            else:
                out["verify.run_check_s"] += duration
                out[f"verify.check_s.{label}"] += duration
        elif group == "cli.main":
            out["cli.main_s"] += duration
            out["cli.self_s"] += self_time
        elif group == "cli.import":
            out["cli.import_s"] += duration
        else:
            raise ValueError(f"unknown span name {name!r}")
    for prefix, name in (("stats", "partitions.stats"), ("p", "partitions.p"),
                         ("q", "partitions.q")):
        calls, seconds = leaf.get(name, (0, 0.0))
        out[f"partitions.{prefix}_calls"] = calls
        out[f"partitions.{prefix}_s"] = seconds
    counters = doc["counters"]
    for key in ("partitions.enumerated", "partitions.p_max_n", "verify.records",
                "qseries.mul_pairs_dense", "qseries.mul_pairs_nonzero", "qseries.coeff_bytes"):
        out[key] = counters.get(key, 0)
    out["counting.p_lookups"] = p_lookups
    out["cli.stdout_bytes"] = stdout_bytes
    out["trace.unattributed_s"] = wall_s - out["cli.import_s"] - out["cli.main_s"]
    return out


def add_metrics(total: dict[str, float], one: dict[str, float]) -> None:
    """Accumulate one invocation's metrics into a pass total."""
    for key, value in one.items():
        if key == "partitions.p_max_n":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class Tracer:
    """In-memory span store with a call stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.groups: list[str | None] = [None]
        # Per leaf name, a [calls, seconds] cell for each open span, so that
        # a leaf call only updates the cell on top.
        self._leaf_cells: dict[int, list[list]] = {}
        self.leaves: list[list] = []  # [parent span, name index, calls, seconds]
        self.counters: dict[str, int] = {}
        self._peaks: dict[str, list[int]] = {}

    def name_index(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, group: str, label: str | None = None) -> int:
        name = group if label is None else f"{group}:{label}"
        index = len(self.spans)
        self.spans.append([self.name_index(name), self.stack[-1], time.perf_counter(), 0.0])
        self.stack.append(index)
        self.groups.append(group)
        for cells in self._leaf_cells.values():
            cells.append([0, 0.0])
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()
        self.groups.pop()
        self._close_cells(index)

    def _close_cells(self, parent: int) -> None:
        for name_index, cells in self._leaf_cells.items():
            calls, seconds = cells.pop()
            if calls:
                self.leaves.append([parent, name_index, calls, seconds])

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, fn, group, label=None, after=None):
        """Wrap fn so that a call from another group records a span.

        ``label(args)`` names the span within its group; ``after(args,
        result)`` updates counters once the span has ended.
        """
        groups = self.groups

        def wrapper(*args, **kwargs):
            if groups[-1] == group:
                return fn(*args, **kwargs)
            index = self.begin(group, None if label is None else label(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def leaf(self, fn, name, peak_key=None):
        """Wrap a hot leaf of one positional argument: per-parent call count
        and total seconds.  With ``peak_key``, also the largest argument."""
        name_index = self.name_index(name)
        cells = self._leaf_cells.setdefault(name_index, [[0, 0.0] for _ in self.stack])
        clock = time.perf_counter
        peak = None if peak_key is None else self._peaks.setdefault(peak_key, [0])

        def wrapper(arg):
            start = clock()
            result = fn(arg)
            elapsed = clock() - start
            cell = cells[-1]
            cell[0] += 1
            cell[1] += elapsed
            if peak is not None and arg > peak[0]:
                peak[0] = arg
            return result

        return wrapper

    def to_json(self) -> dict:
        """The spans document; closes the leaf cells of calls outside any span."""
        self._close_cells(-1)
        for key, (peak,) in self._peaks.items():
            self.counters[key] = peak
        return {
            "names": self.names,
            "spans": self.spans,
            "leaves": self.leaves,
            "counters": self.counters,
        }


def _mul_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int]:
    """Coefficient pairs (i, j) with i + j <= n: all of them, and those with
    both coefficients nonzero.  A property of the operands, not the kernel."""
    n = min(len(a), len(b)) - 1
    dense = (n + 1) * (n + 2) // 2
    b_nonzero = [j for j, c in enumerate(b[: n + 1]) if c]
    nonzero = sum(bisect.bisect_right(b_nonzero, n - i)
                  for i, c in enumerate(a[: n + 1]) if c)
    return dense, nonzero


def install(tracer: Tracer, modules: list) -> None:
    """Rebind the public functions of the mexcrank modules to wrappers.

    Every module namespace holding the same function object is rebound, so
    ``from .partitions import crank`` in another module sees the wrapper.
    """
    from mexcrank import counting, partitions, qseries, verify

    def rebind(module, name, wrap):
        original = getattr(module, name)
        wrapped = wrap(original)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    def enumerate_wrap(fn):
        # Drained inside the span so that the span covers generation; the
        # callers in mexcrank drain the generator at once anyway.
        def eager(n):
            index = tracer.begin("partitions.enumerate")
            try:
                items = list(fn(n))
            finally:
                tracer.end(index)
            tracer.count("partitions.enumerated", len(items))
            return iter(items)
        return eager

    rebind(partitions, "enumerate_partitions", enumerate_wrap)
    for name in ("crank", "mex", "to_frobenius"):
        rebind(partitions, name, lambda fn: tracer.leaf(fn, "partitions.stats"))

    for name in ("partition_count", "partition_count_table"):
        rebind(partitions, name, lambda fn: tracer.leaf(fn, "partitions.p", "partitions.p_max_n"))
    rebind(partitions, "distinct_parts_count", lambda fn: tracer.leaf(fn, "partitions.q"))

    def after_gf(args, result):
        tracer.count("qseries.coeff_bytes",
                     sum((abs(c).bit_length() + 7) // 8 for c in result.coeffs))

    rebind(qseries, "gf", lambda fn: tracer.span(fn, "qseries.gf", lambda args: args[0].tag,
                                                   after_gf))

    def after_mul(args, result):
        dense, nonzero = _mul_pairs(args[0].coeffs, args[1].coeffs)
        tracer.count("qseries.mul_pairs_dense", dense)
        tracer.count("qseries.mul_pairs_nonzero", nonzero)

    series = qseries.TruncatedSeries
    series.__mul__ = tracer.span(series.__mul__, "qseries.mul", after=after_mul)
    series.invert = tracer.span(series.invert, "qseries.invert")

    for name in ("crank_count", "crank_geq_count", "mex_count", "odd_mex_count",
                 "even_mex_count", "mex_1mod4_count", "mex_3mod4_count",
                 "crank_zero_expansion", "ewell_even_sum", "ewell_odd_sum",
                 "is_double_pentagonal"):
        rebind(counting, name, lambda fn: tracer.span(fn, "counting"))

    for name in ("registry", "checks_by_id"):
        rebind(verify, name, lambda fn: tracer.span(fn, "verify.registry"))
    rebind(verify, "run_check", lambda fn: tracer.span(
        fn, "verify.run_check", lambda args: args[0].check_id,
        lambda args, report: tracer.count("verify.records", len(report.records))))
    for name in ("oracle_count", "mex_above_odd_oracle", "crank_value_oracle",
                 "crank_geq_oracle", "mex_value_oracle", "mex_residue_oracle",
                 "frobenius_no0_oracle", "frobenius_top_avoids_oracle"):
        rebind(verify, name, lambda fn: tracer.span(fn, "verify.oracle"))


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.begin("cli.import")
    import mexcrank
    from mexcrank import cli, counting, partitions, qseries, verify
    tracer.end(index)
    install(tracer, [mexcrank, cli, counting, partitions, qseries, verify])

    index = tracer.begin("cli.main")
    code = 1
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors exit this way
        code = exc.code
    finally:
        tracer.end(index)
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_json(), handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
