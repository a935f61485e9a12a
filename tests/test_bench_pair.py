"""The decision rules of scripts/bench_pair.py, on made-up run values, and
the environment its benchmark processes run in."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pair", Path(__file__).resolve().parent.parent / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

PARENT = [1.30, 1.40, 1.35, 1.28, 1.42, 1.37, 1.33, 1.39, 1.31, 1.36]


def test_quartiles():
    assert bench_pair.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_worse_share_sign(better):
    worse = 1.2 if better == "lower" else 0.8
    assert bench_pair.worse_share(1.0, worse, better) == pytest.approx(0.2)
    assert bench_pair.worse_share(1.0, 2.0 - worse, better) == pytest.approx(-0.2)


def test_bound_is_a_share_of_the_parent_median():
    parent = [10.0, 10.0, 10.0]
    assert not bench_pair.exceeds_bound(parent, [12.4, 12.5, 12.6], "lower", 0.25)
    assert bench_pair.exceeds_bound(parent, [12.6, 12.6, 12.6], "lower", 0.25)
    assert not bench_pair.exceeds_bound(parent, [5.0, 5.0, 5.0], "lower", 0.25)
    assert bench_pair.exceeds_bound(parent, [7.4, 7.4, 7.4], "higher", 0.25)


# quartiles 0.9 / 1.0 / 1.3: an interquartile range of 40% of the median
NOISY = [0.8, 0.9, 0.9, 1.0, 1.0, 1.0, 1.3, 1.3, 1.5]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdict_is_unresolved_when_the_parent_spreads_past_the_bound(better):
    assert bench_pair.verdict(NOISY, NOISY, better, 0.25) == "unresolved"
    assert bench_pair.verdict(NOISY, NOISY, better, 0.5) == "within bound"
    assert bench_pair.verdict(PARENT, PARENT, better, 0.25) == "within bound"


def test_verdict_within_bound_when_every_change_run_wins():
    assert bench_pair.verdict(NOISY, [0.7, 0.75, 0.79], "lower", 0.25) == "within bound"
    assert bench_pair.verdict(NOISY, [0.7, 0.75, 0.8], "lower", 0.25) == "unresolved"
    assert bench_pair.verdict(NOISY, [1.6, 1.7], "higher", 0.25) == "within bound"
    assert bench_pair.verdict(NOISY, [1.5, 1.7], "higher", 0.25) == "unresolved"


def test_verdict_worse_than_bound_whatever_the_spread():
    assert bench_pair.verdict(NOISY, [1.3, 1.3, 1.4], "lower", 0.25) == "WORSE than bound"
    assert bench_pair.verdict(NOISY, [0.7, 0.7, 0.7], "higher", 0.25) == "WORSE than bound"


def test_pair_wins_ignore_ties():
    assert bench_pair.pair_wins([3, 3, 3, 3], [2, 3, 4, 1], "lower") == (2, 1)
    assert bench_pair.pair_wins([3, 3, 3, 3], [2, 3, 4, 1], "higher") == (1, 2)
    with pytest.raises(ValueError):
        bench_pair.pair_wins([1, 2], [1], "lower")


def test_claim_needs_nine_tenths_of_the_pairs():
    change = [p * 0.7 for p in PARENT]
    assert bench_pair.claim_holds(PARENT, change, "lower")
    lost_two = change[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    assert not bench_pair.claim_holds(PARENT, lost_two, "lower")
    lost_one = change[:9] + [PARENT[9] + 1]
    assert bench_pair.claim_holds(PARENT, lost_one, "lower")


def test_claim_needs_medians_apart_by_the_parent_iqr():
    q1, _med, q3 = bench_pair.quartiles(PARENT)
    # every pair won, but by less than the parent's own spread
    change = [p - (q3 - q1) / 4 for p in PARENT]
    assert bench_pair.pair_wins(PARENT, change, "lower") == (10, 0)
    assert not bench_pair.claim_holds(PARENT, change, "lower")
    assert not bench_pair.claim_holds(PARENT, change, "higher")


def test_side_env_moves_bytecode_to_the_cache_dir(tmp_path):
    base = {"PATH": "/bin", "PYTHONPATH": "lib", "PYTHONDONTWRITEBYTECODE": "1"}
    env = bench_pair.side_env(tmp_path / "parent", base)
    assert env == {"PATH": "/bin", "PYTHONPATH": "lib",
                   "PYTHONPYCACHEPREFIX": str(tmp_path / "parent")}
    assert base["PYTHONDONTWRITEBYTECODE"] == "1"


def test_side_env_writes_nothing_to_the_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    (checkout / "src" / "mod.py").write_text("X = 1\n")
    env = bench_pair.side_env(tmp_path / "cache", os.environ)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, env=env,
                   check=True)
    assert not list(checkout.rglob("__pycache__"))
    assert list((tmp_path / "cache").rglob("mod.*.pyc"))


def test_warm_cache_compiles_then_imports_in_the_side_env(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **_kw):
        calls.append((cmd[1:], cwd, env))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
    env = bench_pair.side_env(tmp_path / "cache", {})
    bench_pair.warm_cache(tmp_path, "verify", env)
    assert [c[0] for c in calls] == [
        ["-m", "compileall", "-q", "src", "perfbench"],
        ["perfbench/run.py", "--workload", "verify", "--seed", "0", "--setup-only"],
    ]
    assert all(cwd == tmp_path and e is env for _cmd, cwd, e in calls)


def test_json_record_matches_the_printed_verdicts(tmp_path, monkeypatch, capsys):
    # made-up runs: the change is 30% faster on run_s and equal elsewhere
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1,
        "end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mib", "unit": "MiB", "better": "lower",
                        "bound": 0.1}]}))
    parent_dir = tmp_path / "parent"
    parent_dir.mkdir()

    def fake_run_once(checkout, workload, seed, seconds, env):
        run_s = PARENT[seed - 100] * (1.0 if checkout == parent_dir else 0.7)
        return {"failed": 0, "correct": True,
                "metrics": {"run_s": {"value": run_s}, "peak_rss_mib": {"value": 25.0}}}

    monkeypatch.setattr(bench_pair, "warm_cache", lambda *_a: None)
    monkeypatch.setattr(bench_pair, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    bench_pair.main(["--parent", str(parent_dir), "--change", str(tmp_path), "--workload",
                     "verify", "--pairs", "10", "--claim", "run_s", "--seed", "100",
                     "--json", str(out)])
    record = json.loads(out.read_text())
    printed = capsys.readouterr().out.splitlines()
    assert record["workload"] == "verify" and record["pairs"] == 10 and record["seed"] == 100
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["commits"] == {"parent": None, "change": None}  # not git checkouts
    assert set(record["host"]) == {"python", "machine", "cpus"}
    run_s = record["metrics"]["run_s"]
    assert run_s["parent"] == PARENT
    assert run_s["parent_quartiles"] == list(bench_pair.quartiles(PARENT))
    assert run_s["exceeds_bound"] is False
    assert run_s["verdict"] == "within bound"
    assert record["metrics"]["peak_rss_mib"]["worse_share"] == 0.0
    assert printed[-1] == (f"claim run_s: change won {record['claim']['wins']} of 10 pairs "
                           f"(lost {record['claim']['losses']}); claim "
                           f"{'holds' if record['claim']['holds'] else 'NOT met'}")
    assert printed[-3].startswith("run_s [s]: parent q1/med/q3 ")
    assert printed[-2].endswith("change worse by +0.0%, bound 10%: within bound")


def test_summarize_on_made_up_values():
    metrics = {"run_s": {"unit": "s", "better": "lower", "bound": 0.25}}
    values = {"parent": {"run_s": PARENT}, "change": {"run_s": [p * 0.7 for p in PARENT]}}
    summary = bench_pair.summarize(metrics, values, "run_s")
    row = summary["metrics"]["run_s"]
    assert row["worse_share"] == pytest.approx(-0.3)
    assert row["change_quartiles"] == list(bench_pair.quartiles(values["change"]["run_s"]))
    assert not row["exceeds_bound"] and row["verdict"] == "within bound"
    assert summary["claim"] == {"metric": "run_s", "pairs": 10, "wins": 10, "losses": 0,
                                "holds": True}
    slower = {"parent": values["change"], "change": {"run_s": PARENT}}
    summary = bench_pair.summarize(metrics, slower, None)
    assert summary["metrics"]["run_s"]["exceeds_bound"] and "claim" not in summary
    assert summary["metrics"]["run_s"]["verdict"] == "WORSE than bound"
