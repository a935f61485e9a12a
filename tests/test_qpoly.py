import pytest
from hypothesis import given, strategies as st

from fcheaps.qpoly import (
    TPoly, Series, TruncationError, PeriodError,
    qbinomial, detect_period, periodicize,
)


class TestTPoly:
    def test_construction_strips_trailing_zeros(self):
        p = TPoly([1, 2, 0, 0])
        assert p.degree() == 1
        assert p[0] == 1 and p[1] == 2 and p[3] == 0

    def test_cap_read_guard(self):
        p = TPoly([1, 1], cap=5)
        assert p[5] == 0
        with pytest.raises(TruncationError):
            p[6]

    def test_cap_propagates_as_minimum(self):
        a = TPoly([1, 1], cap=4)
        b = TPoly([2], cap=9)
        assert (a + b).cap == 4
        assert (a * b).cap == 4
        assert (a - a).cap == 4

    def test_mul_truncates_at_cap(self):
        a = TPoly([0, 1], cap=3)
        p = a * a * a  # t^3 at the cap survives
        assert p[3] == 1
        assert (p * a).is_zero()  # t^4 falls off

    def test_arithmetic(self):
        a = TPoly([1, 1])
        assert (a * a).coeffs == (1, 2, 1)
        assert (a - TPoly([1])).coeffs == (0, 1)
        assert a.scale(3).coeffs == (3, 3)
        assert a.shift(2).coeffs == (0, 0, 1, 1)

    def test_halve_exact(self):
        assert TPoly([2, 4]).halve().coeffs == (1, 2)
        with pytest.raises(ValueError):
            TPoly([1, 2]).halve()

    def test_call_evaluates(self):
        p = TPoly([1, 2, 1])
        assert p(1) == 4
        assert p(3) == 16

    def test_to_json_dict(self):
        p = TPoly([1, 0, 5], cap=7)
        assert p.to_json_dict() == {"var": "t", "coeffs": ["1", "0", "5"], "truncated_at": 7}
        assert TPoly([2]).to_json_dict("q") == {"var": "q", "coeffs": ["2"]}

    def test_to_text(self):
        assert TPoly([1, 1, 0, 2]).to_text("q") == "1 + q + 2*q^3"
        assert TPoly([]).to_text("t") == "0"
        assert TPoly([0, 1]).to_text("t", compact=True) == "t"
        assert TPoly([1, 2, 2]).to_text("q", compact=True) == "1+2q+2q^2"

    def test_truncate_rejects_negative_cap(self):
        for p in (TPoly([1, 2]), TPoly([1, 2], cap=4), TPoly([], cap=0)):
            with pytest.raises(ValueError):
                p.truncate(-1)


def _least_cap(*caps):
    known = [c for c in caps if c is not None]
    return min(known) if known else None


def _conv(a, b):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _zip_with(a, b, sign):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return [x + sign * y for x, y in zip(a, b)]


tpolys = st.builds(TPoly, st.lists(st.integers(-6, 6), max_size=9),
                   st.one_of(st.none(), st.integers(0, 9)))


class TestArithmeticResults:
    """Arithmetic builds its results without the validating constructor; each
    one must be the value the constructor gives for the exact coefficients."""

    @staticmethod
    def _check(result, coeffs, cap):
        assert result == TPoly(list(result.coeffs), result.cap)
        assert result == TPoly(coeffs, cap)
        assert type(result.coeffs) is tuple
        assert all(type(c) is int for c in result.coeffs)

    @given(tpolys, tpolys)
    def test_binary(self, a, b):
        cap = _least_cap(a.cap, b.cap)
        self._check(a + b, _zip_with(a.coeffs, b.coeffs, 1), cap)
        self._check(a - b, _zip_with(a.coeffs, b.coeffs, -1), cap)
        self._check(a * b, _conv(a.coeffs, b.coeffs), cap)

    @given(tpolys, st.integers(0, 6), st.integers(-3, 3),
           st.one_of(st.none(), st.integers(0, 12)))
    def test_unary(self, a, k, c, cap):
        shifted_cap = None if a.cap is None else a.cap + k
        self._check(a.shift(k), [0] * k + list(a.coeffs), shifted_cap)
        self._check(a.scale(c), [c * x for x in a.coeffs], a.cap)
        self._check(a.truncate(cap), list(a.coeffs), _least_cap(a.cap, cap))


class TestSeries:
    def test_mul_is_x_convolution(self):
        # (1 + x)^2 with polynomial coefficients
        one = TPoly([1])
        s = Series(2, 4, [one, one, TPoly([])])
        sq = s * s
        assert sq.coeffs[0].coeffs == (1,)
        assert sq.coeffs[1].coeffs == (2,)
        assert sq.coeffs[2].coeffs == (1,)

    def test_subst_x_times_t_shifts_each_coefficient(self):
        s = Series(2, 6, [TPoly([1]), TPoly([1]), TPoly([1])])
        s2 = s.subst_x_times_t(2)
        assert s2.coeffs[0].coeffs == (1,)
        assert s2.coeffs[1].coeffs == (0, 0, 1)
        assert s2.coeffs[2].coeffs == (0, 0, 0, 0, 1)

    def test_geom_inverts_one_minus(self):
        x = Series(3, 8, [TPoly([]), TPoly([1]), TPoly([]), TPoly([])])
        g = x.geom()
        for k in range(4):
            assert g.coeffs[k].coeffs == (1,)  # 1/(1-x) = 1 + x + x^2 + ...
        with pytest.raises(ValueError):
            Series(1, 4, [TPoly([1]), TPoly([])]).geom()

    def test_x_derivative(self):
        s = Series(2, 4, [TPoly([1]), TPoly([2]), TPoly([3])])
        d = s.x_derivative()
        assert d.coeffs[0].coeffs == (2,)
        assert d.coeffs[1].coeffs == (6,)


class TestQBinomial:
    def test_edge_values(self):
        assert qbinomial(0, 0).coeffs == (1,)
        assert qbinomial(5, 0).coeffs == (1,)
        assert qbinomial(5, 5).coeffs == (1,)
        assert qbinomial(4, 1).coeffs == (1, 1, 1, 1)
        assert qbinomial(3, 7).is_zero()

    def test_known_value(self):
        # [4 choose 2] = 1 + q + 2q^2 + q^3 + q^4
        assert qbinomial(4, 2).coeffs == (1, 1, 2, 1, 1)

    @pytest.mark.parametrize("n", range(21))
    def test_symmetry_degree_specialization(self, n):
        from math import comb
        for k in range(n + 1):
            p = qbinomial(n, k)
            assert p == qbinomial(n, n - k)
            assert p.degree() == k * (n - k)
            assert p(1) == comb(n, k)
            # palindromic coefficient vector
            assert p.coeffs == p.coeffs[::-1]

    @given(st.integers(0, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n + 1))))
    def test_pascal_recurrence(self, nk):
        # [n+1;k] = [n;k] + q^(n+1-k) [n;k-1]
        n, k = nk
        lhs = qbinomial(n + 1, k)
        rhs = qbinomial(n, k)
        if k >= 1:
            rhs = rhs + qbinomial(n, k - 1).shift(n + 1 - k)
        assert lhs == rhs


class TestDetectPeriod:
    def test_pure_periodic(self):
        r = detect_period([1, 2, 1, 2, 1, 2])
        assert (r.transient_start, r.period) == (0, 2)
        assert r.repeating_block == (1, 2)

    def test_transient(self):
        r = detect_period([9, 7, 3, 4, 3, 4, 3, 4])
        assert (r.transient_start, r.period) == (2, 2)

    def test_constant(self):
        r = detect_period([5, 5, 5, 5, 5])
        assert (r.transient_start, r.period) == (0, 1)

    def test_smallest_period_wins(self):
        # period 4 would also fit; 2 must be reported
        r = detect_period([0, 1, 0, 1, 0, 1, 0, 1])
        assert r.period == 2

    def test_rejects_aperiodic_and_short(self):
        with pytest.raises(PeriodError):
            detect_period([1, 2, 3, 4, 5, 6, 7])
        with pytest.raises(PeriodError):
            detect_period([1, 1, 1])

    def test_needs_two_repeats_past_transient(self):
        # only 1.5 copies of period 4 after the transient
        with pytest.raises(PeriodError):
            detect_period([9, 1, 2, 3, 4, 1, 2, 3])

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=4),
           st.lists(st.integers(0, 3), min_size=1, max_size=4),
           st.integers(2, 5))
    def test_planted_period_is_found(self, head, block, copies):
        seq = head + block * copies + block[:1]
        try:
            r = detect_period(seq)
        except PeriodError:
            return  # window too tight for the planted combination
        assert r.period <= len(block)
        for i in range(r.transient_start, len(seq) - r.period):
            assert seq[i] == seq[i + r.period]


class TestPeriodicize:
    def test_block_repeats_from_shift(self):
        p = periodicize(TPoly([3, 1]), shift=2, modulus=2, cap=9)
        assert p.coeffs == (0, 0, 3, 1, 3, 1, 3, 1, 3, 1)

    def test_scalar_block(self):
        p = periodicize(TPoly([2]), shift=5, modulus=3, cap=12)
        assert [p[k] for k in range(13)] == [0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0]
