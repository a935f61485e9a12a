"""Differential tests of the closed-form layer against the code it replaced.

The oracles are the earlier implementations, kept here as test-only code:
the fixed-point series solver (the triangular one is in series_oracle), the
geometric inverse by repeated series products, the q-Pascal triangle, and
q-binomials rebuilt per call and summed term by term.  The one-pass versions in ``fcheaps`` must agree with them
exactly (coefficients and truncation caps).
"""

import pytest

from fcheaps.genfunc import (SERIES_IDS, _galois_numbers, length_bound, length_genfunc,
                             maj_genfunc, maj_genfunc_by_descents, solve_series)
from fcheaps.qpoly import Series, TPoly, qbinomial, qbinomial_column
from series_oracle import even_shift_tail, scale_poly, series_one, shift_x, subst_x_times_t

WINDOWS = [(6, 20), (12, 40), (24, 120)]
RANKS = range(2, 13)
MAJ_RANKS = range(2, 26)


def iterated_geom(s: Series) -> Series:
    """1 / (1 - s) by xmax rounds of G <- 1 + s G."""
    one = series_one(s.xmax, s.tmax)
    out = one
    for _ in range(s.xmax):
        out = one + s * out
    return out


def fixed_point_series(series_id: str, xmax: int, tmax: int) -> Series:
    """Each walk functional equation iterated xmax + 2 times from a constant."""
    one = series_one(xmax, tmax)
    t = TPoly.term(1)

    def m_rhs(s):
        return one + scale_poly(shift_x(s * subst_x_times_t(s, 1), 2), t)

    m = one
    for _ in range(xmax + 2):
        m = m_rhs(m)
    assert m == m_rhs(m)
    if series_id == "M":
        return m
    if series_id == "Mstar":
        return m * iterated_geom(shift_x(m, 1))
    if series_id == "Q":
        def q_rhs(s):
            return m * (one + scale_poly(shift_x(subst_x_times_t(s, 1), 1), t))
        q = one
        for _ in range(xmax + 2):
            q = q_rhs(q)
        assert q == q_rhs(q)
        return q
    base = scale_poly(shift_x(m * subst_x_times_t(m, 1), 1), t)

    def qo_rhs(s):
        return base * (one + scale_poly(shift_x(subst_x_times_t(s, 2), 1), t * t))
    qo = Series(xmax, tmax)
    for _ in range(xmax + 2):
        qo = qo_rhs(qo)
    assert qo == qo_rhs(qo)
    return qo


def qbinomial_rows(nmax: int) -> list[list[TPoly]]:
    """The q-Pascal triangle: rows[n][k] is [n; k], one addition per entry
    by [n; k] = [n-1; k-1] + q^k [n-1; k]."""
    rows = [[TPoly.one()]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        rows.append([TPoly.one()] + [prev[k - 1] + prev[k].shift(k) for k in range(1, n)]
                    + [TPoly.one()])
    return rows


def row_qbinomial(n: int, k: int) -> TPoly:
    """[n; k] by sweeping one row of the q-Pascal recurrence."""
    if k < 0 or k > n:
        return TPoly.zero()
    row = [TPoly.one()] + [TPoly.zero()] * k
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j - 1] + row[j].shift(j)
    return row[k]


def oracle_length_genfunc(family: str, n: int) -> TPoly:
    """[x^n] of full series products, one product per term."""
    tmax = length_bound(family, n)
    xmax = n
    m = fixed_point_series("M", xmax, tmax)
    g = iterated_geom(shift_x(m, 1))
    if family == "A":
        return (m * g)[n]
    if family == "B":
        q = fixed_point_series("Q", xmax, tmax)
        peak = even_shift_tail(xmax, tmax, 2) * m * subst_x_times_t(m, 1) * g
        return (q * g + peak)[n]
    qo = fixed_point_series("Qo", xmax, tmax)
    peak = even_shift_tail(xmax, tmax, 1) * m * subst_x_times_t(m, 1) * g
    return (scale_poly(qo * g, TPoly([2])) + m * g + peak)[n]


def oracle_layer_sum(h: int) -> TPoly:
    total = TPoly.zero()
    for i in range(h):
        total = total + row_qbinomial(h - 1, i)
    return total


def oracle_maj_genfunc(family: str, n: int) -> TPoly:
    if family == "A":
        return row_qbinomial(n, n // 2)
    if family == "B":
        total = row_qbinomial(n, n // 2)
        for h in range(1, n + 1):
            total = total + oracle_layer_sum(h).shift(h)
        return total
    p = TPoly.zero()
    for h in range(1, n):
        p = p + oracle_layer_sum(h).shift(h)
    bridge = TPoly([0] * n + [1, 1])
    if n % 2 == 0:
        p = p + (bridge * oracle_layer_sum(n)).halve()
    else:
        k = (n - 1) // 2
        for h in range(1, k + 1):
            p = p + row_qbinomial(n - h - 1, k).shift(n - h)
        p = p + (bridge * (oracle_layer_sum(n) + row_qbinomial(n - 1, k))).halve()
    mid = row_qbinomial(n - 1, (n - 1) // 2)
    return p + TPoly.term(2 * n + 1) * mid - TPoly.term(n) * mid \
        + row_qbinomial(n + 1, (n + 1) // 2)


def oracle_maj_by_descents(n: int, k: int) -> TPoly:
    if k == 0:
        return TPoly.one()
    total = TPoly.zero()
    corner = (k - 1) * (k - 1)
    for h in range(2 * k - 1, n + 1):
        inner = TPoly.zero()
        for i in range(k - 1, h - k + 1):
            inner = inner + row_qbinomial(i, k - 1) * row_qbinomial(h - 1 - i, k - 1)
        total = total + inner.shift(corner + h)
    return total


@pytest.mark.parametrize("xmax,tmax", WINDOWS)
@pytest.mark.parametrize("sid", SERIES_IDS)
def test_series_match_fixed_point(sid, xmax, tmax):
    assert solve_series(sid, xmax, tmax) == fixed_point_series(sid, xmax, tmax)


@pytest.mark.parametrize("xmax,tmax", WINDOWS)
def test_geom_matches_iterated_products(xmax, tmax):
    xm = shift_x(solve_series("M", xmax, tmax), 1)
    assert xm.geom() == iterated_geom(xm)


def test_qbinomial_rows_match_per_call_sweep():
    rows = qbinomial_rows(30)
    assert [len(r) for r in rows] == list(range(1, 32))
    for n in range(31):
        assert qbinomial(n, -1) == qbinomial(n, n + 1) == row_qbinomial(n, n + 1)
        for k in range(n + 1):
            assert rows[n][k] == qbinomial(n, k) == row_qbinomial(n, k)


def test_qbinomial_column_matches_triangle():
    rows = qbinomial_rows(30)
    for n in range(31):
        for k in range(n + 3):
            want = [rows[m][k] if k <= m else TPoly.zero() for m in range(n + 1)]
            assert qbinomial_column(k, n) == want, (n, k)


def test_galois_numbers_are_triangle_row_sums():
    rows = qbinomial_rows(30)
    assert _galois_numbers(30) == [sum(row, TPoly.zero()) for row in rows]
    assert _galois_numbers(0) == [TPoly.one()]


@pytest.mark.parametrize("family", ["A", "B", "D"])
def test_length_genfunc_matches_full_products(family):
    for n in RANKS:
        assert length_genfunc(family, n) == oracle_length_genfunc(family, n), n


@pytest.mark.parametrize("family", ["A", "B", "D"])
def test_maj_genfunc_matches_per_call_sums(family):
    for n in MAJ_RANKS:
        assert maj_genfunc(family, n) == oracle_maj_genfunc(family, n), n


def test_maj_by_descents_matches_double_sum():
    for n in RANKS:
        for k in range(n + 2):
            assert maj_genfunc_by_descents(n, k) == oracle_maj_by_descents(n, k), (n, k)
