"""Self-test of the benchmark at toy sizes; takes a few seconds.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that one seed gives the same invocations twice, that a
corrupted stdout counts as a failed invocation, that stdout is
byte-identical with tracing on and off, that the traced counts repeat
exactly between two traced runs, and that ``calibrate.py`` prints the
digest ``run.py`` expects.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import tracing
from run import Bench
from workloads import WORKLOADS, Invocation, canonical_json, invocations, judge, sha256, verify_args

TOY = [
    Invocation(verify_args(["EWELL_ODD", "PROP_NOF0", "SERIES_HEINE"]) + ("--n-max", "14")),
    Invocation(("series", "--kind", "crank_m", "--m", "3", "--order", "60")),
    Invocation(("series", "--kind", "crank0_alt", "--order", "60")),
    Invocation(("series", "--kind", "distinct", "--order", "60")),
    Invocation(("table", "--fn", "p", "--n-max", "60")),
    Invocation(("table", "--fn", "M", "--m", "2", "--n-max", "60")),
    Invocation(("stat", "3", "1")),
]


def corrupt(data: bytes) -> bytes:
    """Change one digit in the middle of the output."""
    middle = len(data) // 2
    for index in range(middle, len(data)):
        if data[index:index + 1].isdigit():
            digit = b"1" if data[index:index + 1] != b"1" else b"2"
            return data[:index] + digit + data[index + 1:]
    raise AssertionError("no digit to corrupt")


def check_seeds() -> None:
    for workload in WORKLOADS:
        for seed in range(5):
            assert invocations(workload, seed) == invocations(workload, seed), (workload, seed)


def reference_for(outputs: dict[Invocation, bytes]) -> dict:
    reference = {"stdout": {}, "verify_reports": {}}
    for invocation, stdout in outputs.items():
        if invocation.is_verify:
            for report in json.loads(stdout)["reports"]:
                reference["verify_reports"][report["check_id"]] = sha256(canonical_json(report))
        else:
            reference["stdout"][invocation.key] = sha256(stdout)
    return reference


def main() -> int:
    check_seeds()
    print("selftest: one deliberate failure line follows")
    root = Path.cwd()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        with Bench(root, {}, workdir) as bench:
            assert bench.calibrate() is not None, "calibrate.py printed the wrong digest"
            plain = {}
            for invocation in TOY:
                child = bench.capture(bench.argv(invocation))
                assert child.code == 0, invocation.key
                plain[invocation] = child.stdout
            bench.reference = reference_for(plain)

            for invocation in TOY:
                child = bench.capture(bench.argv(invocation, traced=True))
                assert child.code == 0 and child.stdout == plain[invocation], \
                    f"traced stdout differs: {invocation.key}"

            counts = []
            for _ in range(2):
                totals: dict = {}
                for invocation in TOY:
                    outcome = bench.run(invocation, traced=True)
                    assert outcome.error is None, (invocation.key, outcome.error)
                    tracing.add_metrics(totals, outcome.layers)
                counts.append({key: totals[key] for key in tracing.EXACT_COUNTS})
            assert counts[0] == counts[1], counts
            assert counts[0]["partitions.enumerated"] > 0 and counts[0]["verify.records"] > 0

            for invocation, stdout in plain.items():
                assert judge(invocation, stdout, bench.reference) is None, invocation.key
                assert judge(invocation, corrupt(stdout), bench.reference) is not None, invocation.key
            verify = TOY[0]
            reordered = Invocation(verify_args(["PROP_NOF0", "EWELL_ODD", "SERIES_HEINE"])
                                   + ("--n-max", "14"))
            assert judge(reordered, plain[verify], bench.reference) is not None
            flipped = plain[verify].replace(b'"pass":true', b'"pass":false', 1)
            assert judge(verify, flipped, bench.reference) is not None

            # A corrupted stdout counts as a failed invocation.
            stat = TOY[-1]
            bench.reference["stdout"][stat.key] = sha256(corrupt(plain[stat]))
            attempted, failed = bench.attempted, bench.failed
            assert bench.run(stat).error is not None
            assert (bench.attempted, bench.failed) == (attempted + 1, failed + 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
