#!/usr/bin/env python3
"""Run the tier-1 suite against one-line source mutants of verdict code.

Usage:
    python3 scripts/mutants.py

MUTANTS lists (file, old text, new text, killer).  The killer is a test
that fails on the mutant, or "equivalent: <reason>" for a mutant that
changes no behaviour; those are not run, and the code they expose is a
deletion candidate.  Every other mutant is applied to its own copy of the
repository in a temporary directory, where the tier-1 suite runs with -x
(less tests/test_mutants.py, which fails on any applied mutant).
The script prints one line per mutant, killed (with the first test that
failed) or SURVIVED, then the survivors and the score, and exits 1 if any
mutant survived.  tests/test_mutants.py checks that each old text occurs
exactly once in its file, so the list cannot drift from the code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a mutant that hangs the suite counts as killed

MUTANTS = [
    # reconcile and the affine verdicts
    ("src/fcheaps/genfunc.py", "if c < 0:", "if c < -1:",
     "tests/test_genfunc.py::TestReconcile::test_remainder_coefficient_of_minus_one_rejected"),
    ("src/fcheaps/genfunc.py", "remainder.degree() > lmax - 2 * declared_period",
     "remainder.degree() > lmax - declared_period",
     "tests/test_genfunc.py::TestReconcile::test_remainder_degree_at_the_two_period_bound"),
    ("src/fcheaps/enumerator.py", '"period-divides", declared % period.period == 0,',
     '"period-divides", True,',
     "tests/test_cli.py::TestAffAFaultInjection::test_wrong_declared_period_fails_period_divides"),
    ("src/fcheaps/enumerator.py", '"zero-remainder", remainder.is_zero(),',
     '"zero-remainder", True,',
     "tests/test_cli.py::TestAffAFaultInjection::test_wrong_periodic_part_fails_zero_remainder"),
    ("src/fcheaps/qpoly.py", "if n - tau >= 2 * p:", "if n - tau >= p:",
     "tests/test_acceptance.py::test_criterion_05_affine_a"),
    ("src/fcheaps/genfunc.py", "return lcm(n + 1, 2)", "return 2 * lcm(n + 1, 2)",
     "tests/test_cli.py::TestInconclusiveWindow::test_exits_two"),
    ("src/fcheaps/enumerator.py", "for k in range((n + 1) // 2 + 1)),",
     "for k in range((n + 1) // 2)),",
     "tests/test_cli.py::TestVerify::test_finite_report_line"),
    # the finite verdicts and the walk-family counts they compare with
    ("src/fcheaps/enumerator.py", 'report._record("card", total == formula_card,',
     'report._record("card", True,',
     "tests/test_cli.py::TestFiniteFaultInjection::test_wrong_count_fails_card"),
    ("src/fcheaps/enumerator.py", 'report._record("length", good,', 'report._record("length", True,',
     "tests/test_cli.py::TestFiniteFaultInjection::test_shifted_walk_family_fails_length"),
    ("src/fcheaps/genfunc.py", "w[n - k].shift(2 * k + 1)", "w[n - k].shift(2 * k)",
     "tests/test_genfunc.py::TestLengthGenfunc::test_spot_value"),
    ("src/fcheaps/genfunc.py", 'family_poly(_family("Dodd", n), tmax).scale(2)',
     'family_poly(_family("Dodd", n), tmax)',
     "tests/test_genfunc.py::TestLengthGenfunc::test_matches_oracle"),
    ("src/fcheaps/genfunc.py", '"W": dict(allow_horiz=True, start=1,',
     '"W": dict(allow_horiz=True, start=0,',
     "tests/test_genfunc.py::TestLengthGenfunc::test_matches_oracle"),
    ("src/fcheaps/genfunc.py", "series_id, xmax), tmax)", "series_id, xmax + 1), tmax)[1:]",
     "tests/test_genfunc.py::TestSolveSeries::test_known_low_coefficients"),
    ("src/fcheaps/genfunc.py", '"Fhat": dict(start="any", end="any", require_touch=True),',
     '"Fhat": dict(start="any", end="any"),',
     "tests/test_genfunc.py::TestWalkPolynomials::test_affine_rows_count_axis_touching_walks"),
    ("src/fcheaps/enumerator.py", 'report._record("maj", oracle_maj == formula_maj,',
     'report._record("maj", True,',
     "tests/test_cli.py::TestFiniteFaultInjection::test_shifted_maj_fails_maj"),
    ("src/fcheaps/enumerator.py", 'report._record("maj-by-descents", by_desc == alt,',
     'report._record("maj-by-descents", True,',
     "tests/test_cli.py::TestFiniteFaultInjection"
     "::test_shifted_descent_term_fails_maj_by_descents"),
    ("src/fcheaps/enumerator.py", 'report._record("length", False, str(formula_len))',
     'report._record("length", True, str(formula_len))',
     "tests/test_cli.py::TestFailedWalkTotals::test_verify"),
    ("src/fcheaps/walks.py", "step += (FAMILY_CAP - spent) // (len(states) * slots) + 1",
     "step += (FAMILY_CAP - spent) // (len(states) * slots) + 2",
     "tests/test_walks.py::TestPackedFamilyPoly"
     "::test_refusal_step_is_where_the_state_bits_cross_the_cap"),
    # the walk
    ("src/fcheaps/enumerator.py", "(once & ~cs) | (descents & cs),", "once | (descents & cs),",
     "tests/test_acceptance.py::test_criterion_01_cardinalities"),
    ("src/fcheaps/enumerator.py", "free = allowed & ~(descents | (once & simple))",
     "free = allowed & ~(descents | once)",
     "tests/test_acceptance.py::test_criterion_01_cardinalities"),
    ("src/fcheaps/heaps.py", "for d, drop in g.drops[c]:", "for d, drop in g.drops[c][1:]:",
     "tests/test_acceptance.py::test_criterion_01_cardinalities"),
    # the fork merge, the peak and the cells zigzag
    ("src/fcheaps/heaps.py", "if proj[first + 1] != j:", "if proj[first + 1] == j:",
     "tests/test_cli.py::TestEnumerateWideBD::test_length_two_alternating_window_at_rank_120"),
    ("src/fcheaps/heaps.py", "or strict and any(x == y for x, y in zip(branch, branch[1:]))",
     "or False and any(x == y for x, y in zip(branch, branch[1:]))",
     "tests/test_heap_oracles.py::TestPeakClassifierOracle::test_palindromic_words"),
    ("src/fcheaps/heaps.py", "merged = [a if c == b else c for c in proj]", "merged = list(proj)",
     "tests/test_heap_oracles.py::TestPeakClassifierOracle::test_palindromic_words"),
    ("src/fcheaps/heaps.py", "and _peak(g, trimmed, j - 2) is None:", "and True:",
     "tests/test_heap_oracles.py::TestPeakClassifierOracle::test_every_self_dual_fc_heap"),
    ("src/fcheaps/cells.py", "== (j % 2 == 0)", "== (j % 2 == 1)",
     "tests/test_acceptance.py::test_criterion_11_cells"),
]


def apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} does not occur exactly once")
    target.write_text(text.replace(old, new))


def run_suite(tree: Path) -> str | None:
    """The first failing test of tier-1 with -x in tree, or None if all pass."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
    try:
        out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if out.returncode == 0:
        return None
    failed = [line.split()[1] for line in out.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"exit {out.returncode}"


def main() -> int:
    survivors = []
    live = [m for m in MUTANTS if not m[3].startswith("equivalent:")]
    for path, old, new, killer in MUTANTS:
        label = f"{path}: {old!r} -> {new!r}"
        if killer.startswith("equivalent:"):
            print(f"equivalent  {label} ({killer[len('equivalent:'):].strip()})", flush=True)
            continue
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp) / "repo"
            shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            apply(tree, path, old, new)
            first = run_suite(tree)
        if first is None:
            survivors.append(label)
            print(f"SURVIVED    {label}", flush=True)
        else:
            print(f"killed      {label} by {first}", flush=True)
    print(f"{len(live) - len(survivors)} of {len(live)} mutants killed")
    for label in survivors:
        print(f"survivor: {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
