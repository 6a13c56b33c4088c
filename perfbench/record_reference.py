"""Record the reference stdout digests the benchmark checks against.

Run from the root of a checkout whose output is known to be right::

    python3 perfbench/record_reference.py

It runs every invocation any seed can produce (13 crank values for each
seeded command) plus one verify run over all check ids, and writes
``perfbench/reference.json``: the sha256 of each whole stdout, and of each
verify report in the compact sorted-key JSON the CLI writes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import Bench
from tracing import CHECK_IDS
from workloads import (
    REFERENCE_PATH, Invocation, canonical_json, every_digested_invocation, sha256, verify_args,
)


def main() -> int:
    root = Path.cwd()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        with Bench(root, {}, workdir, time_limit=float("inf")) as bench:
            return record(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(bench: Bench) -> int:
    stdout_digests = {}
    for invocation in every_digested_invocation():
        child = bench.capture(bench.argv(invocation))
        if child.code != 0:
            sys.stderr.write(child.stderr.decode(errors="replace"))
            return 1
        stdout_digests[invocation.key] = sha256(child.stdout)
        print(f"{stdout_digests[invocation.key]}  {invocation.key}", flush=True)
    child = bench.capture(bench.argv(Invocation(verify_args(CHECK_IDS))))
    if child.code != 0:
        sys.stderr.write(child.stderr.decode(errors="replace"))
        return 1
    document = json.loads(child.stdout)
    if document["pass"] is not True:
        return 1
    report_digests = {report["check_id"]: sha256(canonical_json(report))
                      for report in document["reports"]}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"stdout": stdout_digests, "verify_reports": report_digests},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
