"""Closed-form counts and series for fully commutative involutions.

Length polynomials come from coefficient extraction in functional-equation
solutions; major index polynomials are explicit q-binomial sums; the affine
families get an eventually periodic closed part that a reconciliation step
matches against enumerated counts.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, lcm

from .coxeter import GroupType, InvalidGroupError
from .qpoly import (PeriodReport, Series, TPoly, detect_period, periodicize, qbinomial,
                    qbinomial_column, solve_triangular)
from .walks import WalkFamilySpec, family_poly

SERIES_IDS = ("M", "Q", "Qo", "Mstar")

# Most (xmax + 1)^2 (tmax + 1)^2 one series window may cost.  The solver
# multiplies series of truncated polynomials, so its time grows up to the
# square of the window's coefficient count.  On a 2-CPU x86_64 host, Mstar
# at 100 x 220 and at 200 x 110 (cost 0.50e9) took 6.0 s, Qo at 148 x 148
# (0.49e9) 3.8 s and Mstar at 100 x 300 (0.92e9) 10.3 s: at most about 12 ns
# per unit, so no window under the cap solves for much more than 6 s.
SERIES_CAP = 5 * 10 ** 8


class ClosedFormError(RuntimeError):
    """A series solution or closed form failed its own consistency check."""


class SeriesLimitError(RuntimeError):
    """A series window would cost more than SERIES_CAP."""


def _t() -> TPoly:
    return TPoly.term(1)


def solve_series(series_id: str, xmax: int, tmax: int) -> Series:
    """Solve the walk functional equations coefficient by coefficient.

    M(x)     = 1 + t x^2 M(x) M(tx)
    Q(x)     = M(x) (1 + x t Q(tx))
    Qo(x)    = x t M(x) M(tx) (1 + x t^2 Qo(x t^2))
    Mstar(x) = M(x) / (1 - x M(x))

    Every right-hand side carries a factor x or x^2 in front of the unknown,
    so its x^k coefficient needs only lower ones:

    M_k  = t sum_{i+j=k-2} M_i t^j M_j
    Q_k  = M_k + t sum_{i+j=k-1} M_i t^j Q_j
    Qo_k = B_k + t^2 sum_{i+j=k-1} B_i t^(2j) Qo_j,   B = x t M(x) M(tx)

    and one triangular pass builds each series.  Each solution is then
    checked, independently of the recursion, to satisfy its functional
    equation on the truncated window with whole-series arithmetic
    (ClosedFormError otherwise).  A window whose cost (xmax + 1)^2 (tmax + 1)^2
    exceeds SERIES_CAP (read per call) raises SeriesLimitError before
    anything is allocated.
    """
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    m, mm = _solve_m(xmax, tmax)
    if series_id == "M":
        return m
    if series_id == "Mstar":
        return m * m.shift_x(1).geom()
    if series_id == "Q":
        return _solve_q(m)
    return _solve_qo(mm)


def _solve_m(xmax: int, tmax: int) -> tuple[Series, Series]:
    """M and the product M(x) M(tx) its check forms, which Qo and the peak
    terms of the length polynomials reuse; SeriesLimitError first when the
    window costs more than SERIES_CAP."""
    cost = ((xmax + 1) * (tmax + 1)) ** 2
    if cost > SERIES_CAP:
        raise SeriesLimitError(f"series window of {xmax + 1} x {tmax + 1} coefficients "
                               f"costs {cost}, more than {SERIES_CAP}")
    one = Series.one(xmax, tmax)
    m = Series(xmax, tmax, solve_triangular(one.coeffs, None, 1, 2, tmax))
    mm = m * m.subst_x_times_t(1)
    if m != one + mm.shift_x(2).scale_poly(_t()):
        raise ClosedFormError("M iteration did not converge")
    return m, mm


def _solve_q(m: Series) -> Series:
    """Q from an already solved and checked M on the same window."""
    q = Series(m.xmax, m.tmax, solve_triangular(m.coeffs, m.coeffs, 1, 1, m.tmax))
    if q != m * (Series.one(m.xmax, m.tmax) + q.subst_x_times_t(1).shift_x(1).scale_poly(_t())):
        raise ClosedFormError("Q iteration did not converge")
    return q


def _solve_qo(mm: Series) -> Series:
    """Qo from M(x) M(tx), M already solved and checked, on the same window."""
    t = _t()
    base = mm.shift_x(1).scale_poly(t)
    qo = Series(mm.xmax, mm.tmax, solve_triangular(base.coeffs, base.coeffs, 2, 1, mm.tmax))
    if qo != base * (Series.one(mm.xmax, mm.tmax)
                     + qo.subst_x_times_t(2).shift_x(1).scale_poly(t * t)):
        raise ClosedFormError("Qo iteration did not converge")
    return qo


def _even_shift_tail(xmax: int, tmax: int, x_offset: int) -> Series:
    """Geometric tail of the peak corrections.

    x_offset 1 gives x t^2 / (1 - x t^2)   (terms x^k t^{2k}, k >= 1);
    x_offset 2 gives x^2 t^3 / (1 - x t^2) (terms x^{k+1} t^{2k+1})."""
    s = Series(xmax, tmax)
    for k in range(1, xmax + 1):
        xp = k + x_offset - 1
        tp = 2 * k + x_offset - 1
        if xp <= xmax and tp <= tmax:
            s.coeffs[xp] = TPoly.term(tp, cap=tmax)
    return s


def length_bound(family: str, n: int) -> int:
    """Safe cap on the length of any fully commutative involution."""
    if family == "A":
        return n * n // 4 + 2
    if family == "B":
        return n * (n + 1) // 2 + 4
    if family == "D":
        return (n + 1) * (n + 2) // 2 + 6
    raise InvalidGroupError(f"no finite length bound for family {family}")


def _x_coeff(a: Series, b: Series, k: int) -> TPoly:
    """[x^k] of a * b, without forming the rest of the product."""
    total = TPoly((), a.tmax)
    for i in range(k + 1):
        if a[i] and b[k - i]:
            total = total + a[i] * b[k - i]
    return total


def length_genfunc(family: str, n: int) -> TPoly:
    """Length polynomial of the involutions, capped at length_bound (which
    refuses the affine families); SeriesLimitError when the series window
    of n + 1 by length_bound + 1 coefficients costs more than SERIES_CAP."""
    GroupType(family, n)
    tmax = length_bound(family, n)
    xmax = n
    m, mm = _solve_m(xmax, tmax)
    # every family's polynomial is [x^n] of (numerator) / (1 - x M)
    if family == "A":
        num = m
    elif family == "B":
        num = _solve_q(m) + _even_shift_tail(xmax, tmax, 2) * mm
    else:
        num = (_solve_qo(mm).scale_poly(TPoly([2])) + m
               + _even_shift_tail(xmax, tmax, 1) * mm)
    return _x_coeff(num, m.shift_x(1).geom(), n)


def card_involutions(family: str, n: int) -> int:
    """Number of fully commutative involutions."""
    GroupType(family, n)
    if family == "A":
        return comb(n, n // 2)
    if family == "B":
        return 2 ** n + comb(n, n // 2) - 1
    if family == "D":
        if n % 2 == 0:
            return 2 ** n + comb(n + 1, n // 2) - 1
        # n + 1 = 2k and C(2k, k) = 2 C(2k - 1, k - 1), so extra is even
        extra = 3 * comb(n + 1, (n + 1) // 2)
        return 2 ** n + extra // 2 - 1
    raise InvalidGroupError(f"cardinality formula is for the finite families, not {family}")


def _galois_numbers(mmax: int) -> list[TPoly]:
    """G_m = sum_k [m; k] for m = 0..mmax, by the Goldman-Rota recurrence
    G_(m+1) = 2 G_m + (q^m - 1) G_(m-1) from G_0 = 1, G_1 = 2."""
    g = [TPoly.one(), TPoly([2])]
    for m in range(1, mmax):
        g.append(g[m].scale(2) + g[m - 1].shift(m) - g[m - 1])
    return g[:mmax + 1]


def maj_genfunc(family: str, n: int) -> TPoly:
    """Major index polynomial of the involutions (finite families).

    The B and D sums run over the Galois numbers G_(h-1), the row sums of
    the q-Pascal triangle, read from their Goldman-Rota recurrence, so no
    triangle is built.  The odd-D column [m; (n-1)/2] comes from one
    q-binomial column and the central entries from qbinomial.
    """
    GroupType(family, n)
    if family == "A":
        return qbinomial(n, n // 2)
    galois = _galois_numbers(n - 1)
    if family == "B":
        total = qbinomial(n, n // 2)
        for h in range(1, n + 1):
            total = total + galois[h - 1].shift(h)
        return total.assert_nonnegative()
    if family == "D":
        p = TPoly.zero()
        for h in range(1, n):
            p = p + galois[h - 1].shift(h)
        bridge = TPoly([0] * n + [1, 1])    # q^n (1 + q)
        if n % 2 == 0:
            p = p + (bridge * galois[n - 1]).halve()
            mid = qbinomial(n - 1, (n - 1) // 2)
        else:
            k = (n - 1) // 2
            col = qbinomial_column(k, n - 1)
            for h in range(1, k + 1):
                p = p + col[n - h - 1].shift(n - h)
            # the central column pairs with itself, keeping the half integral
            p = p + (bridge * (galois[n - 1] + col[n - 1])).halve()
            mid = col[n - 1]
        total = p + TPoly.term(2 * n + 1) * mid - TPoly.term(n) * mid \
            + qbinomial(n + 1, (n + 1) // 2)
        return total.assert_nonnegative()
    raise InvalidGroupError(f"major index is for the finite families, not {family}")


def maj_genfunc_by_descents(n: int, k: int) -> TPoly:
    """Major index polynomial of the alternating class with k descents.

    Covers the second finite family (rank parameter n); k = 0 gives the
    identity's contribution.  The sum is empty when n < 2k - 1.

    With a_i = q^i [i; k-1], the polynomial is
    q^((k-1)^2 + 1) sum_{i+j <= n-1} a_i a_j, summed as
    sum_i a_i (a_0 + ... + a_{n-1-i}) over prefix sums of a.  The a_i need
    one column of the q-Pascal triangle, walked down on its own.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    if k == 0:
        return TPoly.one()
    a = [c.shift(i) for i, c in enumerate(qbinomial_column(k - 1, n - 1))]
    prefix = list(accumulate(a))
    total = TPoly.zero()
    for i in range(n):
        if a[i]:
            total = total + a[i] * prefix[n - 1 - i]
    return total.shift((k - 1) * (k - 1) + 1)


def ohat_poly(n: int, tmax: int) -> TPoly:
    """Closed axis-touching walks, weight excluding the start point."""
    spec = WalkFamilySpec(n=n, allow_horiz=False, start="any", end="eq-start",
                          require_touch=True, weight="exclude-start")
    return family_poly(spec, tmax)


def fhat_poly(n: int, tmax: int, start="any", end="any") -> TPoly:
    """Axis-touching walks with endpoint parity constraints, all points weighted."""
    spec = WalkFamilySpec(n=n, allow_horiz=False, start=start, end=end,
                          require_touch=True, weight="all")
    return family_poly(spec, tmax)


def _affa_poly_term(n: int, tmax: int) -> TPoly:
    """Aperiodic part of the cyclic family: [x^n] M (1 + t x^2 W(tx)) / (1 - xM),
    with W the termwise x-derivative of xM."""
    xmax = n + 2
    m = solve_series("M", xmax, tmax)
    w = m.shift_x(1).x_derivative()
    inner = Series.one(xmax, tmax) + w.subst_x_times_t(1).shift_x(2).scale_poly(_t())
    return _x_coeff(m * inner, m.shift_x(1).geom(), n)


def affine_period(family: str, n: int) -> int:
    """Declared period of an affine family's involution counts."""
    t = GroupType(family, n)
    if not t.is_affine:
        raise InvalidGroupError(f"{family} is not an affine family")
    if family == "affA":
        return n if n % 2 == 0 else 1
    if family == "affC":
        return lcm(n + 1, 2)
    if family == "affB":
        return (2 * n + 1) * (2 * n + 2)
    return 2 * n + 2


def affine_periodic_part(family: str, n: int, lmax: int) -> tuple[TPoly, int]:
    """Closed eventually periodic polynomial (capped at lmax) and the declared
    period for an affine family's involution counts."""
    period = affine_period(family, n)
    if family == "affA":
        part = periodicize(ohat_poly(n, lmax), n, n, lmax) + _affa_poly_term(n, lmax)
    elif family == "affC":
        part = periodicize(fhat_poly(n, lmax), n + 1, n + 1, lmax) \
            + periodicize(TPoly([2]), 2 * n + 3, 2, lmax)
    elif family == "affB":
        fo = fhat_poly(n, lmax, end="odd").scale(2)
        fe = fhat_poly(n, lmax, end="even").scale(2)
        part = periodicize(fo, 2 * n + 2, 2 * n + 2, lmax) \
            + periodicize(fe, n + 1, 2 * n + 2, lmax) \
            + periodicize(TPoly.one(), 2 * n + 4, 1, lmax) \
            + periodicize(TPoly.one(), 4 * n + 2, 2 * n + 1, lmax)
    else:
        foo = fhat_poly(n, lmax, start="odd", end="odd").scale(4)
        fee = fhat_poly(n, lmax, start="even", end="even").scale(4)
        part = periodicize(foo, 2 * n + 2, 2 * n + 2, lmax) \
            + periodicize(fee, n + 1, 2 * n + 2, lmax) \
            + periodicize(TPoly([2]), 2 * n + 6, 2, lmax) \
            + periodicize(TPoly([2]), 4 * n + 4, 2 * n + 2, lmax)
    return part, period


class InconclusiveWindowError(ValueError):
    """An affine window too short to hold two declared periods: reconciliation
    could not tell a match from a mismatch there."""


class ReconcileError(ValueError):
    """Enumerated counts and the closed periodic part do not match up."""


def reconcile(oracle: TPoly, periodic: TPoly, declared_period: int) -> tuple[TPoly, PeriodReport]:
    """Subtract the periodic part from enumerated counts.

    The remainder must be nonnegative with support ending at least two
    declared periods before the cap; the report comes from period detection
    on the oracle coefficients themselves.
    """
    if oracle.cap is None or oracle.cap != periodic.cap:
        raise ReconcileError(f"caps differ: {oracle.cap} vs {periodic.cap}")
    lmax = oracle.cap
    remainder = oracle - periodic
    for i, c in enumerate(remainder.coeffs):
        if c < 0:
            raise ReconcileError(f"remainder coefficient {c} at degree {i} is negative")
    if remainder.degree() > lmax - 2 * declared_period:
        raise ReconcileError(
            f"remainder support reaches degree {remainder.degree()}, "
            f"leaving less than two periods ({declared_period}) of zero tail below {lmax}")
    report = detect_period(oracle.padded(lmax + 1))
    return remainder, report
