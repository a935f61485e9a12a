#!/usr/bin/env python3
"""Benchmark of the fcheaps command line and of its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``fcheaps`` from its
``src/``; it refuses to run against any other copy.  One pass runs every
operation of the workload once (see workloads.py); passes repeat while
another fits in ``--seconds``, and every output is checked after each pass.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones:

  setup_s       median over fresh processes of the wall time from process
                start until a first pass could begin (imports, seeded inputs,
                expected outputs)
  run_s         median wall time of one pass
  peak_rss_mib  peak resident memory of this process, which runs only this
                workload, at the end of its first pass

With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones; the metrics are the per-layer ones of tracer.py,
per traced pass, plus the tracing overhead.  The line before the result
holds the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SETUP_DONE = "setup done"


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_fcheaps() -> str:
    """Import fcheaps from this checkout's src/ and return its file."""
    sys.path.insert(0, str(SRC))
    try:
        import fcheaps
    except ImportError as e:
        raise SetupError(f"cannot import fcheaps from {SRC}: {e}") from None
    where = Path(fcheaps.__file__).resolve()
    if not where.is_relative_to(SRC.resolve() / "fcheaps"):
        raise SetupError(f"fcheaps resolved to {where}, outside {SRC}")
    return str(where)


def run_pass(wl) -> tuple[float, dict[str, str]]:
    """Wall time of one pass over the operations, and the problem of each failed one."""
    outputs: dict[str, object] = {}
    problems: dict[str, str] = {}
    start = time.perf_counter()
    for op in wl.ops:
        try:
            outputs[op.name] = op.run()
        except Exception as e:  # a failed operation is counted, not fatal
            problems[op.name] = f"raised {e!r}"
    elapsed = time.perf_counter() - start
    for op in wl.ops:
        if op.name in outputs:
            problem = op.check(outputs[op.name])
            if problem:
                problems[op.name] = problem
    good = {name: out for name, out in outputs.items() if name not in problems}
    problems.update(wl.cross_check(good))
    return elapsed, problems


class Tally:
    """Pass times and operation counts of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}
        self.first_pass_rss_mib: float | None = None

    def passes(self, wl, seconds: float) -> list[float]:
        """Run passes while another one fits in the time, at least one."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() + max(times) <= deadline:
            elapsed, problems = run_pass(wl)
            times.append(elapsed)
            self.attempted += len(wl.ops)
            self.failed += len(problems)
            self.problems.update(problems)
            if self.first_pass_rss_mib is None:
                # later passes repeat the same operations; only garbage and
                # fragmentation could raise the mark, by an amount that
                # depends on how many passes fit
                self.first_pass_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return times


def setup_seconds(args) -> float:
    """Median over fresh processes of the time from spawn until set-up is done.

    The child says so on stdout; a blocking read times that exactly, where
    waiting for exit with a timeout would poll in steps of up to 50 ms.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.wait(timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0 or line != SETUP_DONE + "\n":
            raise SetupError(f"set-up process failed with exit code {child.returncode}")
    return statistics.median(samples)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fcheaps").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv):
    import workloads
    ap = argparse.ArgumentParser(description="fcheaps benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny shrinks every operation, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    try:
        fcheaps_file = import_fcheaps()
        import workloads
        args = parse_args(argv)
        wl = workloads.build(args.workload, args.seed, args.size)
    except (SetupError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(SETUP_DONE, flush=True)
        return 0

    tally = Tally()
    if args.trace == 0:
        try:
            setup_s = setup_seconds(args)
        except SetupError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        times = tally.passes(wl, args.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mib": {"value": tally.first_pass_rss_mib, "unit": "MiB"},
        }
    else:
        import tracer
        untraced = tally.passes(wl, args.seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        try:
            times = tally.passes(wl, args.seconds / 2)
        finally:
            tr.uninstall()
        if tr.missing:
            print(f"perfbench: not traced, absent: {', '.join(tr.missing)}", file=sys.stderr)
        values = tr.metrics(len(times), statistics.median(untraced), statistics.median(times))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in tracer.metric_names()}

    for name, problem in sorted(tally.problems.items())[:20]:
        print(f"perfbench: FAILED {name}: {problem}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "passes": len(times), "pass_s": times,
        "error_rate": tally.failed / tally.attempted,
        "git_sha": _git_sha(), "src_sha256": _src_sha256(), "fcheaps_file": fcheaps_file,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
