"""Cold-CLI benchmark of mexcrank.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_oracle --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of ``python -m mexcrank ...`` invocations (see
``workloads.py``).  One pass runs them in sequence, each in a fresh
interpreter with ``PYTHONPATH=src`` prepended, never more than one child at
a time (a closed loop with one client).  Passes repeat until the next one
would end after ``--seconds``.  Every stdout is checked against reference
digests; an invocation fails on a nonzero exit, a timeout or a mismatch.

``--trace 0`` reports the end-to-end metrics: the trimmed mean pass wall
time (the mean without the highest and the lowest pass), the median over
passes of the largest child max-RSS, the median wall time of a cold
no-work invocation (set-up) and the share of invocations that succeeded.
The two times are scaled to a host of reference speed: before the set-up
runs of each pass, before the pass and once more after the last pass,
``calibrate.py`` runs a fixed piece of Python work in a fresh interpreter,
and both times are multiplied by ``CALIBRATION_REF_S`` divided by the
trimmed mean calibration time of the run.
The host's speed drifts by a quarter or more over minutes; the scaling
cancels that drift, while a change in mexcrank's own speed moves the times
as before.  The raw figures are printed in the summary lines.

``--trace 1`` alternates plain passes with passes run through
``tracing.py`` and reports per-layer metrics, medians over traced passes.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from workloads import SETUP, WORKLOADS, Invocation, invocations, judge, load_reference

SETUP_PER_PASS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60.0
# No child is started later than this after the benchmark starts, so that
# it exits within 180 s even when children hang.
HARD_LIMIT_S = 165.0

HERE = Path(__file__).resolve().parent

CALIBRATION_ARGV = [sys.executable, "-I", str(HERE / "calibrate.py")]
CALIBRATION_DIGEST = "8894868fe00e2e495add37a0e7a01e84762aae631d3365934266ef0de20909e9"
# The reference speed: calibrate.py's trimmed mean time was 0.37 to 0.42 s
# per run on 2 vCPUs of a shared "Intel(R) Xeon(R) Processor" host with
# CPython 3.11.7.  A constant, so that every commit is scaled alike.
CALIBRATION_REF_S = 0.40


@dataclass
class Capture:
    """A finished child: exit code (None on timeout), output and resource use."""

    code: int | None
    stdout: bytes
    stderr: bytes
    wall_s: float
    max_rss_mb: float
    cpu_s: float


@dataclass
class Outcome:
    wall_s: float
    max_rss_mb: float
    cpu_s: float
    error: str | None
    layers: dict | None


class Bench:
    """Runs invocations through ``spawner.py``, checks them and keeps what
    provenance needs.  Use as a context manager: it owns the spawner."""

    def __init__(self, root: Path, reference: dict, workdir: Path,
                 time_limit: float = HARD_LIMIT_S) -> None:
        self.root = root
        self.reference = reference
        self.workdir = workdir
        self.time_limit = time_limit
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.argv_runs: dict[tuple[str, ...], int] = {}
        self.env = {k: v for k, v in os.environ.items() if k != "MEXCRANK_BUDGET"}
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self.spans_path = workdir / "spans.json"
        self._spawner: subprocess.Popen | None = None

    def __enter__(self) -> Bench:
        self._spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")], cwd=self.root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=CHILD_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def argv(self, invocation: Invocation, traced: bool = False) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "tracing.py"), str(self.spans_path),
                    *invocation.args]
        return [sys.executable, "-m", "mexcrank", *invocation.args]

    def capture(self, argv: list[str]) -> Capture:
        """Run one child to its end; max RSS and CPU time from ``wait4``."""
        self.argv_runs[tuple(argv)] = self.argv_runs.get(tuple(argv), 0) + 1
        timeout = min(CHILD_TIMEOUT_S, self.time_limit - self.elapsed())
        if timeout <= 0:
            return Capture(None, b"", b"", 0.0, 0.0, 0.0)
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": timeout}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        code = None if reply["timed_out"] else reply["code"]
        return Capture(code, stdout, stderr, reply["wall_s"], reply["max_rss_kb"] / 1024,
                       reply["cpu_s"])

    def run(self, invocation: Invocation, traced: bool = False) -> Outcome:
        """Run and check one invocation, counting it as attempted and maybe failed."""
        self.attempted += 1
        child = self.capture(self.argv(invocation, traced))
        if child.code is None:
            error = f"no exit within {CHILD_TIMEOUT_S:.0f} s or the run's time limit"
        elif child.code != 0:
            tail = child.stderr.decode(errors="replace").strip().splitlines()[-3:]
            error = f"exit code {child.code}: {' | '.join(tail)}"
        else:
            error = judge(invocation, child.stdout, self.reference)
        layers = None
        if traced and error is None:
            with open(self.spans_path, encoding="utf-8") as handle:
                layers = tracing.layer_metrics(json.load(handle), child.wall_s,
                                               len(child.stdout))
        if traced and self.spans_path.exists():
            self.spans_path.unlink()
        if error is not None:
            self.failed += 1
            print(f"failure: mexcrank {invocation.key[:160]}: {error}", flush=True)
        return Outcome(child.wall_s, child.max_rss_mb, child.cpu_s, error, layers)

    def calibrate(self) -> float | None:
        """Wall time of one run of ``calibrate.py``, or None if it went wrong."""
        child = self.capture(CALIBRATION_ARGV)
        if child.code == 0 and child.stdout.decode().strip() == CALIBRATION_DIGEST:
            return child.wall_s
        print(f"failure: calibrate.py exit code {child.code}, stdout {child.stdout[:80]!r}",
              flush=True)
        return None

    def run_pass(self, workload: list[Invocation], traced: bool = False) -> list[Outcome]:
        return [self.run(invocation, traced) for invocation in workload]

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    k = n - 10
    return f"p{100 * k // n}={ordered[k - 1]:.4f} (n={n})"


def trimmed_mean(values: list[float]) -> float:
    """The mean without the highest and the lowest value."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) > 2 else ordered)


def measure_untraced(bench: Bench, workload: list[Invocation], seconds: int) -> dict:
    start = time.perf_counter()
    calibration_walls: list[float | None] = []
    setup_walls: list[float] = []
    pass_walls: list[float] = []
    pass_cpu: list[float] = []
    pass_rss: list[float] = []
    per_invocation: list[list[float]] = [[] for _ in workload]
    while True:
        calibration_walls.append(bench.calibrate())
        # Set-up samples are spread over the run, like the passes.
        setup_walls += [bench.run(SETUP).wall_s for _ in range(SETUP_PER_PASS)]
        calibration_walls.append(bench.calibrate())
        outcomes = bench.run_pass(workload)
        pass_walls.append(sum(o.wall_s for o in outcomes))
        pass_cpu.append(sum(o.cpu_s for o in outcomes))
        pass_rss.append(max(o.max_rss_mb for o in outcomes))
        for walls, outcome in zip(per_invocation, outcomes):
            walls.append(outcome.wall_s)
        if None in calibration_walls or bench.elapsed() > HARD_LIMIT_S:
            break
        spent = time.perf_counter() - start
        next_pass = (statistics.median(pass_walls) + SETUP_PER_PASS * statistics.median(setup_walls)
                     + 3 * statistics.median(calibration_walls))
        if len(pass_walls) >= MIN_PASSES and spent + next_pass > seconds:
            break
    calibration_walls.append(bench.calibrate())
    if None in calibration_walls:
        return {}
    # The host's speed swings by up to half within seconds, so every second
    # measured counts: trimmed means, not medians, of the passes and of
    # calibrate.py.
    calibration = trimmed_mean(calibration_walls)
    scale = CALIBRATION_REF_S / calibration
    wall = trimmed_mean(pass_walls)
    error_rate = bench.failed / bench.attempted
    print(f"calibration trimmed mean {calibration:.4f} s, so times are scaled by {scale:.4f}; "
          f"runs {[round(w, 3) for w in calibration_walls]}")
    print(f"wall_s      trimmed mean {wall * scale:.4f} s scaled, {wall:.4f} s raw; raw median "
          f"{statistics.median(pass_walls):.4f} s, {tail_percentile(pass_walls)}; "
          f"raw passes {[round(w, 3) for w in pass_walls]}")
    for invocation, walls in zip(workload, per_invocation):
        print(f"  invocation median {statistics.median(walls):.4f} s raw: "
              f"mexcrank {invocation.key[:100]}")
    print(f"  child CPU (user+sys) per pass: median {statistics.median(pass_cpu):.4f} s raw")
    print(f"peak_rss_mb median {statistics.median(pass_rss):.1f} MB (max {max(pass_rss):.1f})")
    print(f"setup_s     median {statistics.median(setup_walls) * scale:.4f} s scaled, "
          f"{statistics.median(setup_walls):.4f} s raw, {tail_percentile(setup_walls)} raw")
    print(f"error_rate  {error_rate:.4f} ratio ({bench.failed} of {bench.attempted})")
    return {
        "wall_s": (wall * scale, "s"),
        "peak_rss_mb": (statistics.median(pass_rss), "MB"),
        "setup_s": (statistics.median(setup_walls) * scale, "s"),
        "success_rate": (1 - error_rate, "ratio"),
    }


def measure_traced(bench: Bench, workload: list[Invocation], seconds: int) -> tuple[dict, bool]:
    start = time.perf_counter()
    plain: list[float] = []
    traced: list[dict] = []
    traced_walls: list[float] = []
    while True:
        plain.append(sum(o.wall_s for o in bench.run_pass(workload)))
        outcomes = bench.run_pass(workload, traced=True)
        if all(o.layers is not None for o in outcomes):
            total: dict = {}
            for outcome in outcomes:
                tracing.add_metrics(total, outcome.layers)
            traced.append(total)
            traced_walls.append(sum(o.wall_s for o in outcomes))
        spent = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(traced_walls or [0.0])
        enough = len(traced) >= MIN_TRACED_PASSES or bench.failed
        if bench.elapsed() > HARD_LIMIT_S or (enough and spent + pair > seconds):
            break
    if not traced:
        return {}, False
    repeat = True
    for key in tracing.EXACT_COUNTS:
        values = {total[key] for total in traced}
        if len(values) != 1:
            print(f"failure: {key} differs between traced passes: {sorted(values)}")
            repeat = False
    metrics = {}
    for key in tracing.PER_LAYER:
        if key == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(plain)
        elif tracing.unit_of(key) == "s":
            value = statistics.median(total[key] for total in traced)
        else:
            value = statistics.median_low(total[key] for total in traced)
        metrics[key] = (value, tracing.unit_of(key))
    for key, (value, unit) in metrics.items():
        print(f"{key:34s} {value:.6g} {unit}")
    return metrics, repeat


def provenance(root: Path, args, bench: Bench, load_start) -> dict:
    git_sha = None  # the benchmark checkout need not be a git repository
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                     text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu_model,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "pythonpath": bench.env["PYTHONPATH"],
        "invocations": [{"argv": list(argv), "runs": runs}
                        for argv, runs in bench.argv_runs.items()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Cold-CLI benchmark of mexcrank.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mexcrank" / "__main__.py").is_file():
        print("perfbench: no src/mexcrank in the current directory; "
              "run from the root of a mexcrank checkout", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    workload = invocations(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        with Bench(root, load_reference(), workdir) as bench:
            bench.run(SETUP)  # warm-up: writes bytecode caches, as an installed package has them
            if args.trace:
                metrics, correct = measure_traced(bench, workload, args.seconds)
            else:
                metrics, correct = measure_untraced(bench, workload, args.seconds), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and bench.failed == 0 and bool(metrics)
    print(json.dumps({"provenance": provenance(root, args, bench, load_start)}))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
