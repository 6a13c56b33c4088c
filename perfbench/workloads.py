"""The benchmark's workloads and the check of each invocation's stdout.

A workload is a fixed list of cold ``mexcrank`` invocations.  The seed picks
the free parameters (the order of the verify checks, the crank value m)
and never a problem size, so every seed does the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from tracing import CHECK_IDS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Crank values a seed may pick for the seeded series and table commands.
M_VALUES = range(13)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments after ``mexcrank``."""

    args: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.args)

    @property
    def is_verify(self) -> bool:
        return self.args[0] == "verify"


def verify_args(check_ids) -> tuple[str, ...]:
    args = ["verify", "--format", "json"]
    for check_id in check_ids:
        args += ["--check", check_id]
    return tuple(args)


def _series_crank_m(m: int) -> Invocation:
    return Invocation(("series", "--kind", "crank_m", "--m", str(m), "--order", "5000"))


def _table_crank(m: int) -> Invocation:
    return Invocation(("table", "--fn", "M", "--m", str(m), "--n-max", "20000"))


SERIES_FIXED = (
    Invocation(("series", "--kind", "crank0_alt", "--order", "3000")),
    Invocation(("series", "--kind", "distinct", "--order", "4000")),
)
TABLE_P = Invocation(("table", "--fn", "p", "--n-max", "20000"))

# A cold invocation that does no work: interpreter start plus imports.
SETUP = Invocation(("stat", "3", "1"))


def _verify_oracle(rng: random.Random) -> list[Invocation]:
    order = list(CHECK_IDS)
    rng.shuffle(order)
    return [Invocation(verify_args(order))]


def _series_expand(rng: random.Random) -> list[Invocation]:
    return [_series_crank_m(rng.choice(M_VALUES)), *SERIES_FIXED]


def _table_counts(rng: random.Random) -> list[Invocation]:
    return [TABLE_P, _table_crank(rng.choice(M_VALUES))]


WORKLOADS = {
    "verify_oracle": _verify_oracle,
    "series_expand": _series_expand,
    "table_counts": _table_counts,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of the workload for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def every_digested_invocation() -> list[Invocation]:
    """Every non-verify invocation any seed can produce, plus the set-up one."""
    out = [SETUP, *SERIES_FIXED, TABLE_P]
    for m in M_VALUES:
        out += [_series_crank_m(m), _table_crank(m)]
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def judge(invocation: Invocation, stdout: bytes, reference: dict) -> str | None:
    """Why the stdout of a finished invocation is wrong, or None if right.

    A verify report is checked per report, since the seed permutes their
    order: each must match its reference digest, they must come in the
    order asked for, the top-level ``pass`` must be true and the bytes must
    be the compact sorted-key JSON the CLI writes.  Any other command is
    checked against the digest of its whole stdout.
    """
    if not invocation.is_verify:
        expected = reference["stdout"].get(invocation.key)
        if expected is None:
            return "no reference digest for this invocation"
        actual = sha256(stdout)
        return None if actual == expected else f"stdout sha256 {actual} != reference {expected}"
    try:
        document = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if document.get("pass") is not True:
        return "top-level pass is not true"
    reports = document.get("reports", [])
    wanted = [arg for prev, arg in zip(invocation.args, invocation.args[1:]) if prev == "--check"]
    got = [report.get("check_id") for report in reports]
    if got != wanted:
        return f"reports {got} do not follow the requested order {wanted}"
    for report in reports:
        actual = sha256(canonical_json(report))
        expected = reference["verify_reports"][report["check_id"]]
        if actual != expected:
            return f"report {report['check_id']} sha256 {actual} != reference {expected}"
    if stdout != canonical_json(document) + b"\n":
        return "stdout is not compact sorted-key JSON with one trailing newline"
    return None
