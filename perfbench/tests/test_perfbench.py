"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_fcheaps()

import tracer  # noqa: E402
import workloads  # noqa: E402
from fcheaps import cli, genfunc, heaps, walks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.01",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    meta = json.loads(meta_line.removeprefix("meta "))
    assert meta["seed"] == 7 and meta["passes"] >= 1
    assert {"git_sha", "python", "nproc", "src_sha256"} <= set(meta)


def _failures(wl) -> tuple[int, dict[str, str]]:
    tally = run.Tally()
    tally.passes(wl, 0.0)
    assert tally.attempted == len(wl.ops)
    return tally.failed, tally.problems


def test_seed_commit_outputs_pass():
    for name in workloads.WORKLOADS:
        assert _failures(workloads.build(name, 3, "tiny")) == (0, {})


def test_wrong_recorded_output_counts_as_failed():
    expected = workloads.load_expected()
    wl = workloads.build("affine-verify", 3, "tiny", expected)
    expected[wl.ops[0].name] = "0" * 64
    failed, problems = _failures(wl)
    assert failed == 1 and wl.ops[0].name in problems


def test_wrong_program_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(cli, "card_involutions", lambda family, n: 1)
    wl = workloads.build("closed-forms", 3, "tiny")
    failed, problems = _failures(wl)
    cards = [op.name for op in wl.ops if op.name.startswith("genfunc card")]
    assert failed == len(cards) and set(cards) == set(problems)


def test_cross_check_catches_outputs_recorded_wrong(monkeypatch):
    monkeypatch.setattr(cli, "card_involutions", lambda family, n: 1)
    ops = workloads.build("closed-forms", 3, "tiny", expected={}).ops
    wrong = {op.name: workloads.digest(op.run()) for op in ops}
    failed, problems = _failures(workloads.build("closed-forms", 3, "tiny", wrong))
    cards = [op.name for op in ops if op.name.startswith("genfunc card")]
    assert failed == 3 * len(cards) and all("card =" in p for p in problems.values())


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(*args):
        raise walks.EncodingError("broken")
    monkeypatch.setattr(walks, "decode_walk", broken)
    wl = workloads.build("walks-cells", 3, "tiny")
    failed, problems = _failures(wl)
    assert failed == sum(op.name.startswith("walk ") for op in wl.ops) > 0
    assert all("raised" in p for p in problems.values())


def test_tracer_wraps_every_import_site_and_restores_them():
    import fcheaps.enumerator as enumerator
    originals = (heaps.extend, enumerator.extend, cli.cross_validate)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        assert heaps.extend is enumerator.extend is not originals[0]
        assert cli.cross_validate is enumerator.cross_validate is not originals[2]
        assert _failures(workloads.build("finite-verify", 3, "tiny"))[0] == 0
    finally:
        tr.uninstall()
    assert (heaps.extend, enumerator.extend, cli.cross_validate) == originals
    values = tr.metrics(1, 1.0, 1.5)
    assert values["heaps.extend.calls"] > values["heaps.extend.accepted"] > 0
    assert values["cli.verify_cmd.calls"] == 3 and values["cli.errors"] == 0
    assert values["trace.overhead_s"] == 0.5
    assert [n for n, _unit, _better in tracer.metric_names()] == list(values)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "finite-verify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
