import ast
import time
from itertools import accumulate, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps.coxeter import GroupType, build_graph
from fcheaps.qpoly import TPoly, qbinomial
from fcheaps.genfunc import (
    SERIES_IDS, solve_series, length_bound, length_genfunc, card_involutions,
    maj_genfunc, maj_genfunc_by_descents,
    affine_periodic_part, reconcile, ReconcileError,
)
from fcheaps.enumerator import maj_profile
from fcheaps import genfunc
from fcheaps.genfunc import ClosedFormError, InconclusiveWindowError, _family, affine_period
from fcheaps.coxeter import InvalidGroupError
from fcheaps.enumerator import cross_validate
from fcheaps.qpoly import Series
from fcheaps.walks import FamilyLimitError, family_poly, family_rows
from profiles import length_profile
import series_oracle as oracle


@pytest.mark.parametrize("solve", [solve_series, oracle.solve_series], ids=["dp", "oracle"])
class TestSolveSeries:
    def test_known_low_coefficients(self, solve):
        s = solve("M", 6, 20)
        # closed walks with no flats: [x^n] counts by total height
        assert s.coeffs[0].coeffs == (1,)
        assert s.coeffs[1].is_zero()
        assert s.coeffs[2].coeffs == (0, 1)          # UD
        assert s.coeffs[4].coeffs == (0, 0, 1, 0, 1)  # UDUD, UUDD

    def test_free_end_counts(self, solve):
        q = solve("Q", 5, 20)
        # [x^1]: U -> t; [x^2]: UD -> t^2? no: heights 0,1,0 weighs t; UU t^3
        assert q.coeffs[1].coeffs == (0, 1)
        assert q.coeffs[2].coeffs == (0, 1, 0, 1)

    def test_mstar_equals_m_times_geometric(self, solve):
        m = solve("M", 8, 24)
        mstar = solve("Mstar", 8, 24)
        assert mstar == m * oracle.shift_x(m, 1).geom()

    def test_odd_end_family(self, solve):
        qo = solve("Qo", 5, 20)
        assert qo.coeffs[0].is_zero()
        assert qo.coeffs[1].coeffs == (0, 1)          # U, ends at odd height 1

    def test_rejects_unknown_id(self, solve):
        with pytest.raises(ValueError):
            solve("Z", 3, 3)
        assert set(SERIES_IDS) == {"M", "Q", "Qo", "Mstar"}

    def test_matches_walk_dp(self, solve):
        from fcheaps.walks import WalkFamilySpec, family_poly
        m = solve("M", 7, 30)
        for n in range(8):
            spec = WalkFamilySpec(n, allow_horiz=False, start=0, end=0)
            assert m.coeffs[n].padded(30) == family_poly(spec, 30).padded(30)


class TestWalkFamiliesEqualTheSolver:
    """The walk-family counts against the functional-equation solver they
    replaced (tests/series_oracle.py)."""

    @given(st.sampled_from(SERIES_IDS), st.integers(0, 30), st.integers(0, 150))
    @settings(max_examples=100, deadline=None)
    def test_series(self, sid, xmax, tmax):
        assert solve_series(sid, xmax, tmax) == oracle.solve_series(sid, xmax, tmax)

    @given(st.sampled_from("ABD"), st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_length(self, family, n):
        assert length_genfunc(family, n) == oracle.length_genfunc(family, n)

    def test_windows_of_the_walk_identities(self):
        # A:1-30 and 44, B:2-24, D:2-30 and affA:3-12 at t <= 60; the oracle
        # refuses B:40, A:60 and B:60 by its cost model
        for family, ranks in [("A", [*range(1, 31), 44]), ("B", range(2, 25)),
                              ("D", range(2, 31))]:
            for n in ranks:
                assert length_genfunc(family, n) == oracle.length_genfunc(family, n), (family, n)
        for n in range(3, 13):
            assert family_poly(_family("affA", n), 60) == oracle.affa_poly_term(n, 60), n


class TestSeriesLimit:
    """Series and length windows are bounded by the walk families' FAMILY_CAP
    and refused with FamilyLimitError.  At a cap of 900 state bits Mstar at
    4 x 5, B:2 and D:2 fit; Mstar at 4 x 6 and B:3 do not."""

    def test_cap_is_read_per_call(self, monkeypatch):
        monkeypatch.setattr("fcheaps.walks.FAMILY_CAP", 900)
        assert solve_series("Mstar", 4, 5).coeffs[4].coeffs == (1, 3, 1, 0, 1)
        with pytest.raises(FamilyLimitError, match="^walk family of 1 start heights on 7 slots "
                                                   "of 10 bits exceeds 900 state bits at step 4$"):
            solve_series("Mstar", 4, 6)
        assert length_genfunc("B", 2).coeffs == (1, 2, 0, 2)
        assert length_genfunc("D", 2) == oracle.length_genfunc("D", 2)
        with pytest.raises(FamilyLimitError, match="on 11 slots of 9 bits exceeds 900 state "
                                                   "bits at step 3$"):
            length_genfunc("B", 3)

    @pytest.mark.parametrize("solve", [lambda: solve_series("Mstar", 1000, 1000),
                                       lambda: solve_series("Q", 400, 2000),
                                       lambda: length_genfunc("A", 150),
                                       lambda: length_genfunc("B", 100),
                                       lambda: length_genfunc("D", 100)])
    def test_default_cap_refuses_wide_windows(self, solve):
        t0 = time.perf_counter()
        with pytest.raises(FamilyLimitError, match="exceeds 2000000000 state bits"):
            solve()
        assert time.perf_counter() - t0 < 0.5  # refused before the pass


class TestLengthGenfunc:
    @pytest.mark.parametrize("fam,n", [("A", 4), ("A", 7), ("B", 3), ("B", 6),
                                       ("D", 3), ("D", 6)])
    def test_matches_oracle(self, fam, n):
        g = build_graph(GroupType(fam, n))
        cap = length_bound(fam, n)
        oracle = length_profile(g, None).truncate(cap)
        assert length_genfunc(fam, n).padded(cap) == oracle.padded(cap)

    def test_spot_value(self):
        assert length_genfunc("B", 2).coeffs == (1, 2, 0, 2)

    def test_affine_rejected(self):
        with pytest.raises(Exception):
            length_genfunc("affA", 4)


class TestCardinalities:
    def test_values(self):
        assert card_involutions("B", 2) == 5
        assert card_involutions("D", 3) == 16
        assert card_involutions("A", 4) == 6

    @pytest.mark.parametrize("fam,rng", [("A", range(2, 9)), ("B", range(2, 8)),
                                         ("D", range(2, 8))])
    def test_matches_length_polynomial(self, fam, rng):
        for n in rng:
            assert card_involutions(fam, n) == length_genfunc(fam, n)(1)

    def test_odd_d_central_term_halves_exactly(self):
        # for odd n, 3 C(n + 1, (n + 1) / 2) / 2 = 3 C(n, (n - 1) / 2)
        for n in range(3, 42, 2):
            assert card_involutions("D", n) == 2 ** n + 3 * comb(n, (n - 1) // 2) - 1


class TestMajGenfunc:
    def test_spot_values(self):
        assert maj_genfunc("A", 4).coeffs == (1, 1, 2, 1, 1)
        assert maj_genfunc("B", 2).coeffs == (1, 2, 2)

    @pytest.mark.parametrize("fam,rng", [("A", range(2, 9)), ("B", range(2, 8)),
                                         ("D", range(2, 8))])
    def test_matches_oracle(self, fam, rng):
        for n in rng:
            g = build_graph(GroupType(fam, n))
            assert maj_genfunc(fam, n) == maj_profile(g, "involutions")

    def test_a_is_central_q_binomial(self):
        for n in range(2, 9):
            assert maj_genfunc("A", n) == qbinomial(n, n // 2)


class TestByDescents:
    def test_identity_only_at_zero(self):
        assert maj_genfunc_by_descents(4, 0).coeffs == (1,)

    def test_two_one(self):
        assert maj_genfunc_by_descents(2, 1).coeffs == (0, 1, 2)

    def test_five_three_is_a_single_heap(self):
        p = maj_genfunc_by_descents(5, 3)
        assert p.coeffs == (0,) * 9 + (1,)

    def test_empty_when_too_many_descents(self):
        assert maj_genfunc_by_descents(3, 5).is_zero()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sums_to_alternating_profile(self, n):
        from profiles import descent_profiles
        g = build_graph(GroupType("B", n))
        profile = descent_profiles(g, "alternating")
        for k, poly in profile.items():
            assert maj_genfunc_by_descents(n, k).coeffs == poly.coeffs


PARITY = {"any": lambda h: True, "odd": lambda h: h % 2 == 1, "even": lambda h: h % 2 == 0}


def axis_touching_walks(n, tmax, start, end, weigh_start):
    """Weight polynomial, by listing every start height and step sequence, of
    the n-step walks without flats that touch the axis and never go below it,
    whose start height has the parity start and whose end height the parity
    end, or equals the start height for end "eq-start"."""
    coeffs = [0] * (tmax + 1)
    for h0 in range(tmax + 2):
        for steps in product((1, -1), repeat=n):
            hs = list(accumulate(steps, initial=h0))
            weight = sum(hs) - (0 if weigh_start else h0)
            ends = hs[-1] == h0 if end == "eq-start" else PARITY[end](hs[-1])
            if min(hs) == 0 and PARITY[start](h0) and ends and weight <= tmax:
                coeffs[weight] += 1
    return TPoly(coeffs, tmax)


class TestWalkPolynomials:
    def test_ohat_small(self):
        assert family_poly(_family("Ohat", 4), 12).coeffs == (0, 0, 2, 0, 4)

    def test_fhat_parity(self):
        p = family_poly(_family("Fhat-o", 3), 12)
        q = family_poly(_family("Fhat-oo", 3), 12)
        assert all(p[k] >= q[k] for k in range(13))

    @pytest.mark.parametrize("name,start,end,weigh_start", [
        ("Ohat", "any", "eq-start", False), ("Fhat", "any", "any", True),
        ("Fhat-o", "any", "odd", True), ("Fhat-e", "any", "even", True),
        ("Fhat-oo", "odd", "odd", True), ("Fhat-ee", "even", "even", True)])
    def test_affine_rows_count_axis_touching_walks(self, name, start, end, weigh_start):
        for n in range(1, 7):
            assert family_poly(_family(name, n), 14) == \
                axis_touching_walks(n, 14, start, end, weigh_start), n


def test_walk_families_are_named_only_in_the_table():
    # every WalkFamilySpec of genfunc is a row of _FAMILIES, built by _family,
    # and the family limit is walks.FamilyLimitError, not a genfunc copy of it
    tree = ast.parse(Path(genfunc.__file__).read_text())
    spec_calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "WalkFamilySpec"]
    table = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_family")
    assert spec_calls and all(table.lineno <= c.lineno <= table.end_lineno for c in spec_calls)
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes and not [name for name in classes if "Limit" in name]


class TestAffinePeriodicPart:
    def test_declared_periods(self):
        assert affine_periodic_part("affA", 4, 20)[1] == 4
        assert affine_periodic_part("affA", 5, 20)[1] == 1
        assert affine_periodic_part("affC", 2, 30)[1] == 6
        assert affine_periodic_part("affB", 2, 40)[1] == 30
        assert affine_periodic_part("affD", 2, 30)[1] == 6

    def test_finite_family_rejected(self):
        with pytest.raises(Exception):
            affine_periodic_part("B", 3, 30)


class TestAffinePeriod:
    @pytest.mark.parametrize("fam", ["affA", "affC", "affB", "affD"])
    def test_matches_periodic_part(self, fam):
        for n in range(2, 6):
            if (fam, n) == ("affA", 2):
                continue
            assert affine_period(fam, n) == affine_periodic_part(fam, n, 12)[1]

    def test_finite_family_rejected(self):
        with pytest.raises(InvalidGroupError):
            affine_period("D", 4)

    @pytest.mark.parametrize("fam,n,window", [("affC", 2, 8), ("affB", 2, 20),
                                              ("affB", 4, None)])
    def test_short_window_is_inconclusive(self, fam, n, window):
        with pytest.raises(InconclusiveWindowError, match="^inconclusive: window"):
            cross_validate(fam, n, window)


class TestReconcile:
    def test_exact_cancellation(self):
        oracle = TPoly([1, 3, 2, 2, 2, 2, 2, 2], cap=7)
        periodic = TPoly([0, 0, 2, 2, 2, 2, 2, 2], cap=7)
        rem, report = reconcile(oracle, periodic, 1)
        assert rem.coeffs == (1, 3)
        assert report.period == 1

    def test_negative_remainder_rejected(self):
        oracle = TPoly([1, 0, 0, 0, 0, 0, 0, 0], cap=7)
        periodic = TPoly([0, 2, 2, 2, 2, 2, 2, 2], cap=7)
        with pytest.raises(ReconcileError):
            reconcile(oracle, periodic, 1)

    def test_remainder_coefficient_of_minus_one_rejected(self):
        # the one negative value next to zero: c < 0 and not c < -1
        oracle = TPoly([1, 1, 2, 2, 2, 2, 2, 2], cap=7)
        periodic = TPoly([0, 2, 2, 2, 2, 2, 2, 2], cap=7)
        with pytest.raises(ReconcileError, match="coefficient -1 at degree 1 is negative"):
            reconcile(oracle, periodic, 1)

    @pytest.mark.parametrize("degree,ok", [(3, True), (4, False)])
    def test_remainder_degree_at_the_two_period_bound(self, degree, ok):
        # cap 9 and period 3: a remainder may reach degree 9 - 2 * 3 = 3,
        # which leaves two periods of zero tail, and no further
        oracle = TPoly([1] * 10, cap=9)
        periodic = TPoly([1] * 10, cap=9) - TPoly([0] * degree + [1], cap=9)
        if ok:
            rem, _report = reconcile(oracle, periodic, 3)
            assert rem.degree() == degree
        else:
            with pytest.raises(ReconcileError, match=f"reaches degree {degree}, leaving"):
                reconcile(oracle, periodic, 3)

    def test_cap_mismatch_rejected(self):
        with pytest.raises(ReconcileError):
            reconcile(TPoly([1], cap=5), TPoly([1], cap=6), 1)

    def test_remainder_must_vanish_near_cap(self):
        # remainder degree must stay <= cap - 2 * declared period
        oracle = TPoly([5] * 8, cap=7)
        periodic = TPoly([0] * 7 + [5], cap=7)
        with pytest.raises(ReconcileError):
            reconcile(oracle, periodic, 3)


def drop_one_walk(monkeypatch, row):
    """Make the DP lose one walk of `row` steps from every family genfunc counts."""
    def drop(p):
        k = next((i for i, c in enumerate(p.coeffs) if c), None)
        return p if k is None else p - TPoly.term(k, cap=p.cap)

    def rows(spec, tmax):
        out = family_rows(spec, tmax)
        if len(out) > row:
            out[row] = drop(out[row])
        return out

    def poly(spec, tmax):
        out = family_poly(spec, tmax)
        return drop(out) if spec.n == row else out
    monkeypatch.setattr("fcheaps.genfunc.family_rows", rows)
    monkeypatch.setattr("fcheaps.genfunc.family_poly", poly)


class TestTypedConsistencyErrors:
    @pytest.mark.parametrize("sid,settled", [("M", 0), ("Q", 1), ("Qo", 1)])
    def test_unsettled_iteration_raises(self, monkeypatch, sid, settled):
        # the solver's first `settled` convergence checks pass, the next one fails
        checks = []

        def eq(self, other):
            checks.append(other)
            return len(checks) <= settled
        monkeypatch.setattr(Series, "__eq__", eq)
        with pytest.raises(ClosedFormError, match=f"^{sid} iteration"):
            oracle.solve_series(sid, 3, 6)

    @pytest.mark.parametrize("sid,row", [("M", 4), ("Q", 3), ("Qo", 5), ("Mstar", 6)])
    def test_series_row_losing_a_walk_raises(self, monkeypatch, sid, row):
        drop_one_walk(monkeypatch, row)
        with pytest.raises(ClosedFormError, match=f"^{sid} row {row} totals"):
            solve_series(sid, 8, 30)

    def test_series_rows_past_the_window_are_not_checked(self, monkeypatch):
        # row 8 of M lacks the two of its 14 walks that weigh over 12 (UUUUDDDD
        # weighs 16), so its total says nothing and one walk more may go
        full = solve_series("M", 8, 12).coeffs[8](1)
        drop_one_walk(monkeypatch, 8)
        assert solve_series("M", 8, 12).coeffs[8](1) == full - 1 == 14 - 2 - 1

    @pytest.mark.parametrize("family", ["A", "B", "D"])
    def test_length_row_losing_a_walk_raises(self, monkeypatch, family):
        drop_one_walk(monkeypatch, 4)
        with pytest.raises(ClosedFormError, match=f"^{family}:4 length polynomial totals"):
            length_genfunc(family, 4)
