"""Operation lists and output checks of the benchmark workloads.

A workload is a list of operations.  Each operation is a real user action:
a CLI command run in-process through ``fcheaps.cli.main``, or one walk
bijection round trip (there is no CLI for those).  ``Op.run`` is the timed
part; ``Op.check`` inspects its output afterwards and returns a problem
string or None.  ``Workload.cross_check`` compares outputs of different
operations of one pass.

The seed draws the random walks and shuffles the operation order.  The set of
CLI operations is the same for every seed, so their stdout is compared with
sha256 digests recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

from fcheaps import cli, coxeter, heaps, walks

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
AFFINE_GOLDEN = HERE.parent / "tests" / "golden" / "affine_reconcile.json"

SIZES = ("full", "tiny")
SCHEMES = ("linear", "typeA", "typeB", "affineA")


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list[Op]
    cross_check: Callable[[dict], dict[str, str]] = field(default=lambda outputs: {})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def _invoke(argv: list[str]) -> str:
    """stdout of one CLI command; raises unless it exits 0."""
    result = CliRunner().invoke(cli.main, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    if result.exit_code != 0:
        raise RuntimeError(f"exit code {result.exit_code}")
    return result.output


def _cli_op(argv: list[str], expected: dict[str, str],
            extra: Callable[[str], str | None] | None = None) -> Op:
    name = " ".join(argv)

    def check(out: str) -> str | None:
        want = expected.get(name)
        if want is None:
            return "no expected output recorded"
        if digest(out) != want:
            return "stdout differs from the recorded output"
        return extra(out) if extra else None

    return Op(name, lambda: _invoke(argv), check)


def _json_ok(out: str) -> str | None:
    return None if json.loads(out)["ok"] else "report is not ok"


# ---------------------------------------------------------------- finite-verify

def finite_verify(rng: random.Random, size: str, expected: dict[str, str]) -> Workload:
    groups = [("A", 9), ("B", 7), ("D", 7)] if size == "full" else [("A", 3), ("B", 3), ("D", 4)]
    ops = [_cli_op(["verify", "--type", fam, "--rank", str(n), "--format", "json"],
                   expected, _json_ok) for fam, n in groups]
    return Workload(ops)


# ---------------------------------------------------------------- affine-verify

def _affine_frozen(entry: dict) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        report = json.loads(out)
        if not report["ok"]:
            return "report is not ok"
        remainder = [int(c) for c in report["remainder"]["coeffs"]]
        period = report["period"]
        got = (remainder, period["transient_start"], period["period"],
               period["repeating_block"])
        want = (entry["remainder"], entry["transient_start"], entry["period"],
                entry["block"])
        return None if got == want else f"reconciliation {got} != golden {want}"
    return check


def affine_verify(rng: random.Random, size: str, expected: dict[str, str]) -> Workload:
    with open(AFFINE_GOLDEN) as f:
        golden = json.load(f)
    if size == "tiny":
        golden = [e for e in golden if (e["type"], e["rank"]) in (("affA", 3), ("affC", 2))]
    ops = [_cli_op(["verify", "--type", e["type"], "--rank", str(e["rank"]),
                    "--max-length", str(e["lmax"]), "--format", "json"],
                   expected, _affine_frozen(e)) for e in golden]
    return Workload(ops)


# ---------------------------------------------------------------- walks-cells

def _random_heights(rng: random.Random, npoints: int, closed=False, zero_start=False,
                    zero_end=False, need_touch=False, hmax=10) -> list[int]:
    """Rejection sampler of criterion 07: lattice paths with steps +-1 (0 at the floor)."""
    while True:
        hs = [0 if zero_start else rng.randint(0, 4)]
        for _ in range(npoints - 1):
            h = hs[-1]
            hs.append(rng.choice([o for o in (h + 1, h - 1 if h > 0 else 0) if o <= hmax]))
        if closed and hs[-1] != hs[0]:
            continue
        if zero_end and hs[-1] != 0:
            continue
        if need_touch and min(hs) > 0:
            continue
        return hs


def _random_walk(rng: random.Random, scheme: str, graphs: dict) -> tuple:
    family = {"linear": "A", "typeA": "A", "typeB": "B", "affineA": "affA"}[scheme]
    n = rng.randint(8, 30)
    g = graphs.get((family, n))
    if g is None:
        g = graphs[(family, n)] = coxeter.build_graph(coxeter.GroupType(family, n))
    if scheme == "linear":
        hs = _random_heights(rng, g.size)
    elif scheme == "typeA":
        hs = _random_heights(rng, g.size + 2, zero_start=True, zero_end=True)
    elif scheme == "typeB":
        hs = _random_heights(rng, g.size + 1, zero_start=True)
    else:
        hs = _random_heights(rng, g.size + 1, closed=True, need_touch=True)
    return g, walks.Walk.from_heights(hs)


def _round_trip(scheme: str, g, w) -> str | None:
    """decode -> domain check -> encode, as criterion 07 does; a problem or None."""
    mode = "exclude-start" if scheme == "affineA" else "all"
    h = walks.decode_walk(w, scheme, g)
    if not (heaps.is_self_dual(h) and heaps.is_alternating(h)):
        return "decoded heap is not a self-dual alternating heap"
    if walks.encode_walk(h, scheme) != w:
        return "encode(decode(w)) != w"
    if len(h) != w.weight(mode):
        return "weight differs from heap length"
    return None


def _reported(problem):
    return problem


def walks_cells(rng: random.Random, size: str, expected: dict[str, str]) -> Workload:
    per_scheme, ranks = (1000, range(3, 7)) if size == "full" else (10, range(3, 4))
    graphs: dict = {}
    ops = []
    for scheme in SCHEMES:
        for i in range(per_scheme):
            g, w = _random_walk(rng, scheme, graphs)
            ops.append(Op(f"walk {scheme} #{i}",
                          lambda s=scheme, g=g, w=w: _round_trip(s, g, w), _reported))
    ops += [_cli_op(["cells", "--rank", str(n), "--max-length", "12"], expected)
            for n in ranks]
    return Workload(ops)


# ---------------------------------------------------------------- closed-forms

def _coeffs(json_poly: dict) -> list[int]:
    cs = [int(c) for c in json_poly["coeffs"]]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def closed_forms(rng: random.Random, size: str, expected: dict[str, str]) -> Workload:
    if size == "full":
        ranks, desc_ranks, xmax, tmax = range(2, 19), range(2, 21), 24, 120
    else:
        ranks, desc_ranks, xmax, tmax = range(2, 5), range(2, 5), 6, 20
    argvs = []
    for fam in "ABD":
        for n in ranks:
            for stat in ("maj", "length", "card"):
                argvs.append(["genfunc", stat, "--type", fam, "--rank", str(n),
                              "--format", "json"])
    for n in desc_ranks:
        for k in range(n + 1):
            argvs.append(["genfunc", "maj", "--type", "B", "--rank", str(n),
                          "--descents", str(k), "--format", "json"])
    for sid in ("M", "Q", "Qo", "Mstar"):
        argvs.append(["series", "--id", sid, "--xmax", str(xmax), "--tmax", str(tmax),
                      "--format", "json"])
    walk_argv = {k: ["walks", "family", "--n", str(k), "--no-horiz", "--start", "0",
                     "--end", "0", "--tmax", str(tmax), "--format", "json"]
                 for k in range(xmax + 1)}
    argvs += walk_argv.values()
    ops = [_cli_op(a, expected) for a in argvs]

    def cross_check(outputs: dict[str, str]) -> dict[str, str]:
        """maj(1) = length(1) = card per group, and solved M = closed-walk counts."""
        bad: dict[str, str] = {}
        for fam in "ABD":
            for n in ranks:
                names = [" ".join(["genfunc", stat, "--type", fam, "--rank", str(n),
                                   "--format", "json"]) for stat in ("maj", "length", "card")]
                if not all(nm in outputs for nm in names):
                    continue
                maj, length, card = (json.loads(outputs[nm]) for nm in names)
                values = (sum(_coeffs(maj)), sum(_coeffs(length)), card["value"])
                if len(set(values)) != 1:
                    for nm in names:
                        bad[nm] = f"{fam}:{n} maj(1), length(1), card = {values}"
        m_name = " ".join(["series", "--id", "M", "--xmax", str(xmax), "--tmax", str(tmax),
                           "--format", "json"])
        if m_name not in outputs:
            return bad
        m_rows = json.loads(outputs[m_name])["coeffs"]
        for k, argv in walk_argv.items():
            name = " ".join(argv)
            if name in outputs and _coeffs({"coeffs": m_rows[k]}) != _coeffs(json.loads(outputs[name])):
                bad[m_name] = bad[name] = f"[x^{k}] of solved M differs from walk counts"
        return bad

    return Workload(ops, cross_check)


PARTS = {
    "finite-verify": finite_verify,
    "affine-verify": affine_verify,
    "walks-cells": walks_cells,
    "closed-forms": closed_forms,
}

#: The measured workloads, each the union of two parts.  A pass of one part
#: takes 3.5-5.5 s, and on a host whose speed drifts over tens of seconds the
#: run-to-run spread only narrows with longer runs; two workloads of about a
#: minute fit the time of a full benchmark where four of 30 s did not steady.
COMBINED = {
    "verify": ("finite-verify", "affine-verify"),
    "walks-closed-forms": ("walks-cells", "closed-forms"),
}

WORKLOADS = (*COMBINED, *PARTS)


def build(name: str, seed: int, size: str = "full",
          expected: dict[str, str] | None = None) -> Workload:
    """The workload's operations, inputs drawn from the seed, order shuffled by it."""
    rng = random.Random(seed)
    if expected is None:
        expected = load_expected()
    parts = [PARTS[part](rng, size, expected) for part in COMBINED.get(name, (name,))]
    ops = [op for part in parts for op in part.ops]
    rng.shuffle(ops)

    def cross_check(outputs: dict[str, str]) -> dict[str, str]:
        return {k: v for part in parts for k, v in part.cross_check(outputs).items()}

    return Workload(ops, cross_check)
