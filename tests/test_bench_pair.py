"""The decision rules of scripts/bench_pair.py, on made-up run values, and
the environment its benchmark processes run in."""

import importlib.util
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
