"""End-to-end acceptance gate.

Every test prints one `criterion NN <label>: PASS|FAIL` line (run pytest
with -s to watch them scroll by).  Expected numbers come from brute-force
oracles or closed forms checked elsewhere in the suite, never from the code
under test.
"""

import math
import random
import time
from functools import lru_cache

from fcheaps.coxeter import GroupType, build_graph
from fcheaps.cells import cells_report, is_irreducible_structural, reduce_fully, reduction_moves
from fcheaps.enumerator import cross_validate, iter_fc, maj_profile, passes_filter
from fcheaps.genfunc import (affine_periodic_part, card_involutions, length_genfunc,
                             maj_genfunc, maj_genfunc_by_descents, solve_series)
from fcheaps.heaps import is_alternating, is_self_dual
from fcheaps.qpoly import Series, TPoly, qbinomial
from fcheaps.walks import Walk, WalkFamilySpec, decode_walk, encode_walk, family_poly
from fc_oracles import move_choosers, reduce_choosing
from paper_objects import flats_up, involution_of, realize_permutation, rsk_walk
from profiles import length_profile
from series_oracle import scale_poly, series_one, shift_x, subst_x_times_t
import series_oracle

FINITE_RANGES = [("A", range(2, 11)), ("B", range(2, 9)), ("D", range(2, 9))]


def _report(num: int, label: str, failures: list[str]) -> None:
    print(f"criterion {num:02d} {label}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "; ".join(failures)


@lru_cache(maxsize=None)
def _graph(fam: str, n: int):
    return build_graph(GroupType(fam, n))


@lru_cache(maxsize=None)
def _length_poly(fam: str, n: int) -> TPoly:
    return length_profile(_graph(fam, n), None)


@lru_cache(maxsize=None)
def _maj_poly(fam: str, n: int) -> TPoly:
    return maj_profile(_graph(fam, n))


def test_criterion_01_cardinalities():
    failures = []
    t0 = time.perf_counter()
    for fam, ranks in FINITE_RANGES:
        for n in ranks:
            got = _length_poly(fam, n)(1)
            want = card_involutions(fam, n)
            if got != want:
                failures.append(f"{fam}:{n} counted {got} formula {want}")
    elapsed = time.perf_counter() - t0
    if card_involutions("B", 2) != 5:
        failures.append("B:2 card formula is not 5")
    if card_involutions("D", 2) != 6:
        failures.append("D:2 card formula is not 6")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "cardinalities", failures)


def test_criterion_02_major_index():
    failures = []
    for fam, ranks in FINITE_RANGES:
        for n in ranks:
            if _maj_poly(fam, n).coeffs != maj_genfunc(fam, n).coeffs:
                failures.append(f"{fam}:{n} maj profile != closed form")
    if maj_genfunc("A", 4).coeffs != (1, 1, 2, 1, 1):
        failures.append("A:4 maj spot value")
    if maj_genfunc("B", 2).coeffs != (1, 2, 2):
        failures.append("B:2 maj spot value")
    _report(2, "major index", failures)


def test_criterion_03_descent_refinement():
    failures = []
    for n in range(2, 9):
        formula = TPoly()
        for k in range(n + 1):
            formula = formula + maj_genfunc_by_descents(n, k)
        oracle = maj_profile(_graph("B", n), "alternating")
        if formula.coeffs != oracle.coeffs:
            failures.append(f"B:{n} descent formula != alternating class")
    gap = _maj_poly("B", 2) - maj_profile(_graph("B", 2), "alternating")
    if gap.coeffs != (0, 1):
        failures.append(f"B:2 full-set gap is {gap.coeffs}, want a single q")
    notes = cross_validate("B", 2).notes
    if not any("alternating" in note for note in notes):
        failures.append("B:2 discrepancy not reported in validation notes")
    _report(3, "descent refinement", failures)


def test_criterion_04_length_genfunc():
    failures = []
    for fam, ranks in FINITE_RANGES:
        for n in ranks:
            oracle = _length_poly(fam, n)
            closed = length_genfunc(fam, n)
            if oracle.padded(closed.degree()) != closed.padded(closed.degree()):
                failures.append(f"{fam}:{n} length profile != closed form")
    if length_genfunc("B", 2).coeffs != (1, 2, 0, 2):
        failures.append("B:2 length spot value")
    _report(4, "length generating functions", failures)


def test_criterion_05_affine_a():
    failures = []
    for n in (3, 5):
        window = 24
        counts = length_profile(_graph("affA", n), window)
        part, _period = affine_periodic_part("affA", n, window)
        if counts.padded(window) != part.padded(window):
            failures.append(f"affA:{n} window counts != finite closed form")
    spot, _ = affine_periodic_part("affA", 3, 8)
    if spot.coeffs != (1, 3):
        failures.append("affA:3 closed form is not 1 + 3t")
    for n in (4, 6):
        rep = cross_validate("affA", n, 40)
        if not rep.ok:
            failures.append(f"affA:{n} validation failed: {rep.failures}")
            continue
        if not rep.remainder.is_zero():
            failures.append(f"affA:{n} nonzero remainder {rep.remainder.coeffs}")
        if n % rep.period.period != 0:
            failures.append(f"affA:{n} period {rep.period.period} does not divide {n}")
        bound = 1 + n * n // 4
        if rep.period.transient_start > bound:
            failures.append(f"affA:{n} transient {rep.period.transient_start} > {bound}")
    _report(5, "affine A reconciliation", failures)


def test_criterion_06_affine_cbd():
    failures = []
    cases = [("affC", 2, 60, 6), ("affC", 3, 60, 8),
             ("affB", 2, 150, 30), ("affB", 3, 150, 56),
             ("affD", 2, 60, 6), ("affD", 3, 60, 8)]
    for fam, n, window, period_multiple in cases:
        t0 = time.perf_counter()
        rep = cross_validate(fam, n, window)
        elapsed = time.perf_counter() - t0
        if not rep.ok:
            failures.append(f"{fam}:{n} validation failed: {rep.failures}")
            continue
        if any(c < 0 for c in rep.remainder.coeffs):
            failures.append(f"{fam}:{n} remainder has negative coefficients")
        if rep.remainder.degree() >= window - 2 * period_multiple:
            failures.append(f"{fam}:{n} remainder support reaches the window edge")
        if period_multiple % rep.period.period != 0:
            failures.append(f"{fam}:{n} period {rep.period.period} "
                            f"does not divide {period_multiple}")
        if elapsed >= 60.0:
            failures.append(f"{fam}:{n} runtime {elapsed:.1f}s exceeds 60s")
    _report(6, "affine C/B/D reconciliation", failures)


def _scheme_cases():
    for n in range(2, 9):
        yield "linear", _graph("A", n), None, "all"
        yield "typeA", _graph("A", n), None, "all"
    for n in range(2, 8):
        yield "typeB", _graph("B", n), None, "all"
    for n in range(3, 8):
        yield "affineA", _graph("affA", n), 24, "exclude-start"


def _random_heights(rng, npoints, closed=False, zero_start=False,
                    zero_end=False, need_touch=False, hmax=10):
    while True:
        heights = [0 if zero_start else rng.randint(0, 4)]
        for _ in range(npoints - 1):
            h = heights[-1]
            options = [o for o in (h + 1, h - 1 if h > 0 else 0) if o <= hmax]
            heights.append(rng.choice(options))
        if closed and heights[-1] != heights[0]:
            continue
        if zero_end and heights[-1] != 0:
            continue
        if need_touch and min(heights) > 0:
            continue
        return heights


def test_criterion_07_walk_round_trips():
    failures = []
    checked = {"linear": 0, "typeA": 0, "typeB": 0, "affineA": 0}
    for scheme, g, window, mode in _scheme_cases():
        for _length, h in iter_fc(g, window):
            if scheme == "typeB":
                # the quadruple bond admits peak heaps that alternate edgewise
                # but have no walk; the classified filter excludes them
                if not passes_filter(h, "alternating"):
                    continue
            elif not (is_self_dual(h) and is_alternating(h)):
                continue
            w = encode_walk(h, scheme)
            if decode_walk(w, scheme, g) != h:
                failures.append(f"{scheme} round trip broke on {h.canonical_word}")
                break
            if len(h) != w.weight(mode):
                failures.append(f"{scheme} weight {w.weight(mode)} != |H|={len(h)}")
                break
            checked[scheme] += 1
    rng = random.Random(20260816)
    for scheme in checked:
        for _ in range(10_000):
            if scheme == "linear":
                g = _graph("A", rng.randint(9, 30))
                heights = _random_heights(rng, g.size)
            elif scheme == "typeA":
                g = _graph("A", rng.randint(9, 30))
                heights = _random_heights(rng, g.size + 2, zero_start=True,
                                          zero_end=True)
            elif scheme == "typeB":
                g = _graph("B", rng.randint(8, 30))
                heights = _random_heights(rng, g.size + 1, zero_start=True)
            else:
                g = _graph("affA", rng.randint(8, 30))
                heights = _random_heights(rng, g.size + 1, closed=True,
                                          need_touch=True)
            mode = "exclude-start" if scheme == "affineA" else "all"
            w = Walk.from_heights(heights)
            h = decode_walk(w, scheme, g)
            if not (is_self_dual(h) and is_alternating(h)):
                failures.append(f"{scheme} decode left the domain at {heights}")
                break
            if encode_walk(h, scheme) != w or len(h) != w.weight(mode):
                failures.append(f"{scheme} random round trip broke at {heights}")
                break
            checked[scheme] += 1
    for scheme, count in checked.items():
        if count < 10_000:
            failures.append(f"{scheme} only {count} instances checked")
    _report(7, "walk bijection round trips", failures)


def test_criterion_08_involution_criterion():
    failures = []
    for n in range(2, 9):
        g = _graph("A", n)
        for _length, h in iter_fc(g, None):
            perm = realize_permutation(h.canonical_word, g)
            self_inverse = all(perm[perm[i] - 1] == i + 1 for i in range(len(perm)))
            if is_self_dual(h) != self_inverse:
                failures.append(f"A:{n} mismatch on {h.canonical_word}")
                break
    _report(8, "self-duality is self-inverseness", failures)


def test_criterion_09_rsk():
    failures = []
    for n in range(2, 9):
        g = _graph("A", n)
        for _length, h in iter_fc(g, None):
            if not is_self_dual(h):
                continue
            if rsk_walk(h) != flats_up(encode_walk(h, "typeA")):
                failures.append(f"A:{n} rsk walk differs on {h.canonical_word}")
                break
    _report(9, "rsk shape walks", failures)


def test_criterion_10_functional_equations():
    failures = []
    xmax, tmax = 12, 40
    dp = Series(xmax, tmax, [family_poly(
        WalkFamilySpec(k, allow_horiz=False, start=0, end=0), tmax)
        for k in range(xmax + 1)])
    t = TPoly((0, 1), tmax)
    one = series_one(xmax, tmax)
    rhs = one + scale_poly(shift_x(dp * subst_x_times_t(dp, 1), 2), t)
    if dp != rhs:
        failures.append("closed-walk counts fail the quadratic equation")
    if solve_series("M", xmax, tmax) != dp:
        failures.append("M's rows differ from walk counts")
    if series_oracle.solve_series("M", xmax, tmax) != dp:
        failures.append("solved M differs from walk counts")
    mstar = solve_series("Mstar", xmax, tmax)
    if mstar != dp * shift_x(dp, 1).geom():
        failures.append("Mstar != M/(1 - xM) against walk counts")
    _report(10, "series functional equations", failures)


def test_criterion_11_cells():
    failures = []
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        g = _graph("affA", n)
        involutions_missing = 0
        for _length, h in iter_fc(g, 12):
            rep = reduce_fully(h, {})
            reduced = {reduce_choosing(h, c).canonical_word
                       for c in move_choosers(1, 2, 3)}
            if reduced != {rep.canonical_word}:
                failures.append(f"affA:{n} move choices diverge on {h.canonical_word}")
                break
            if reduction_moves(rep):
                failures.append(f"affA:{n} reduction left moves on {h.canonical_word}")
                break
            if (reduction_moves(h) == []) != is_irreducible_structural(h):
                failures.append(f"affA:{n} structural test disagrees "
                                f"on {h.canonical_word}")
                break
            if is_self_dual(h) and involution_of(rep) != h:
                failures.append(f"affA:{n} involution round trip broke "
                                f"on {h.canonical_word}")
                break
        report = cells_report(n, 12)
        if not all(report["audits"].values()):
            failures.append(f"affA:{n} audits: {report['audits']}")
        involutions_missing = sum(
            1 for row in report["fibers"] if row["involution"] is None)
        if n % 2 == 1 and involutions_missing:
            failures.append(f"affA:{n} odd cycle has fibers without involutions")
        if n % 2 == 0 and not involutions_missing:
            failures.append(f"affA:{n} even cycle should have empty fibers")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(11, "cell reduction", failures)


def test_criterion_12_qbinomial():
    failures = []
    for n in range(21):
        for k in range(n + 1):
            p = qbinomial(n, k)
            if p.coeffs != tuple(reversed(p.coeffs)):
                failures.append(f"[{n},{k}] not palindromic")
            if p.degree() != k * (n - k):
                failures.append(f"[{n},{k}] degree {p.degree()}")
            if p(1) != math.comb(n, k):
                failures.append(f"[{n},{k}] q->1 is {p(1)}")
    _report(12, "q-binomial suite", failures)
