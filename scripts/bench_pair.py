#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

Example:
    python3 scripts/bench_pair.py --parent ../parent --change . \\
        --workload walks-closed-forms --pairs 10 --claim run_s

Each pair runs `perfbench/run.py --trace 0` once in each checkout, with its
own seed (--seed, --seed + 1, ...); the side that runs first alternates from
pair to pair.  The run length and the end-to-end metrics with their bounds
come from the change checkout's BENCHMARK.json.  For each metric the script
prints both sides' median and quartiles and a verdict: "WORSE than bound"
when the change's median is worse than the parent's by more than the bound,
a share of the parent's median; "unresolved" when it is not, but the
parent's own interquartile range, as a share of its median, exceeds the
bound, so the runs spread too widely to tell, unless every run of the change
beats every run of the parent; "within bound" otherwise.  For --claim it
also prints the pair wins and whether the claim holds: the change wins at
least nine of every ten pairs (ties count for neither side) and the medians
differ, the change's way, by more than the parent's interquartile range.
With --json PATH the same verdicts, every pair's values, each side's
quartiles, the checkouts' commits and the host are also written to PATH as
one JSON object.  Nothing is written to either checkout.

setup_s and peak_rss_mib include importing fcheaps, which compiles its
sources unless a bytecode cache holds them.  So that both sides do the same
work whatever __pycache__ the checkouts hold, each side runs with
PYTHONPYCACHEPREFIX set to a fresh temporary directory of its own (and
bytecode writing on), filled before the first pair by compileall over src
and perfbench and by one set-up-only benchmark process, which caches the
interpreter modules the benchmark imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (one value: itself thrice)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_share(parent: float, change: float, better: str) -> float:
    """How much worse the change is than the parent, as a share of the parent;
    negative when it is better."""
    diff = change - parent if better == "lower" else parent - change
    return diff / parent


def exceeds_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than bound."""
    return worse_share(statistics.median(parent), statistics.median(change), better) > bound


def every_run_better(parent: list[float], change: list[float], better: str) -> bool:
    """Whether every run of the change beats every run of the parent."""
    if better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """"WORSE than bound", "unresolved" or "within bound" (see the module
    docstring)."""
    if exceeds_bound(parent, change, better, bound):
        return "WORSE than bound"
    q1, med, q3 = quartiles(parent)
    if q3 - q1 > bound * med and not every_run_better(parent, change, better):
        return "unresolved"
    return "within bound"


def pair_wins(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """Pairs the change wins and pairs it loses; ties count for neither."""
    wins = losses = 0
    for p, c in zip(parent, change, strict=True):
        if c != p:
            if (c < p) == (better == "lower"):
                wins += 1
            else:
                losses += 1
    return wins, losses


def claim_holds(parent: list[float], change: list[float], better: str) -> bool:
    """At least nine tenths of the pairs won, and the medians apart, the
    change's way, by more than the parent's interquartile range."""
    wins, _losses = pair_wins(parent, change, better)
    q1, med, q3 = quartiles(parent)
    gain = med - statistics.median(change)
    if better != "lower":
        gain = -gain
    return 10 * wins >= 9 * len(parent) and gain > q3 - q1


def summarize(metrics: dict[str, dict], values: dict[str, dict[str, list[float]]],
              claim: str | None) -> dict:
    """Per metric, both sides' values and quartiles and the bound verdicts;
    for the claimed metric, the pair wins and whether the claim holds."""
    out: dict = {"metrics": {}}
    for m, meta in metrics.items():
        p, c = values["parent"][m], values["change"][m]
        out["metrics"][m] = {
            "unit": meta["unit"], "better": meta["better"], "bound": meta["bound"],
            "parent": p, "change": c,
            "parent_quartiles": list(quartiles(p)), "change_quartiles": list(quartiles(c)),
            "worse_share": worse_share(statistics.median(p), statistics.median(c),
                                       meta["better"]),
            "exceeds_bound": exceeds_bound(p, c, meta["better"], meta["bound"]),
            "verdict": verdict(p, c, meta["better"], meta["bound"]),
        }
    if claim is not None:
        p, c = values["parent"][claim], values["change"][claim]
        better = metrics[claim]["better"]
        wins, losses = pair_wins(p, c, better)
        out["claim"] = {"metric": claim, "pairs": len(p), "wins": wins, "losses": losses,
                        "holds": claim_holds(p, c, better)}
    return out


def commit_of(checkout: Path) -> str | None:
    """The checkout's git HEAD, or None outside a git checkout."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def side_env(cache_dir: Path, base: dict[str, str]) -> dict[str, str]:
    """The environment of one side's processes: base with bytecode read from
    and written to cache_dir instead of the checkout."""
    env = {k: v for k, v in base.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache_dir)
    return env


def warm_cache(checkout: Path, workload: str, env: dict[str, str]) -> None:
    """Compile the checkout's sources, then the modules the benchmark imports,
    into the side's cache."""
    for cmd in ([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                 "--setup-only"]):
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                             f"{proc.stderr}")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             env: dict[str, str]) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--claim", help="end-to-end metric the change claims to improve")
    ap.add_argument("--seed", type=int, default=9000, help="seed of the first pair")
    ap.add_argument("--json", type=Path, help="also write the results to this file")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in metrics:
        ap.error(f"--claim must be one of {', '.join(metrics)}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = {"parent": args.parent, "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        envs = {side: side_env(Path(tmp) / side, os.environ) for side in sides}
        for side in sides:
            warm_cache(sides[side], args.workload, envs[side])
        values: dict[str, dict[str, list[float]]] = {s: {m: [] for m in metrics} for s in sides}
        failed = {s: 0 for s in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], args.workload, args.seed + i,
                                  spec["run_seconds"], envs[side])
                failed[side] += result["failed"] + (not result["correct"])
                for m in metrics:
                    values[side][m].append(result["metrics"][m]["value"])
                print(f"pair {i} {side}: " + " ".join(f"{m}={values[side][m][-1]:.4g}"
                                                       for m in metrics), flush=True)
    print(f"failed or incorrect: parent {failed['parent']}, change {failed['change']}")
    summary = summarize(metrics, values, args.claim)
    for m, row in summary["metrics"].items():
        cells = [f"{s} q1/med/q3 " + "/".join(f"{v:.4g}" for v in row[f"{s}_quartiles"])
                 for s in sides]
        print(f"{m} [{row['unit']}]: {'; '.join(cells)}; change worse by "
              f"{row['worse_share']:+.1%}, bound {row['bound']:.0%}: {row['verdict']}")
    if args.claim is not None:
        claim = summary["claim"]
        print(f"claim {args.claim}: change won {claim['wins']} of {claim['pairs']} pairs "
              f"(lost {claim['losses']}); claim {'holds' if claim['holds'] else 'NOT met'}")
    if args.json is not None:
        record = {"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
                  "run_seconds": spec["run_seconds"], "failed": failed,
                  "commits": {s: commit_of(sides[s]) for s in sides},
                  "host": {"python": platform.python_version(), "machine": platform.machine(),
                           "cpus": os.cpu_count()},
                  **summary}
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
