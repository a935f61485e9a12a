"""The functional-equation solver that genfunc's walk-family counts replaced.

It solves each walk series coefficient by coefficient on a bivariate
truncated Series, checks the solution against its functional equation with
whole-series arithmetic, and reads the length polynomials and affA's
aperiodic term off products of those series.  It is kept here as the
differential oracle of genfunc.solve_series, length_genfunc and the "affA"
walk family, which count the same walks with one pass of the walk DP.
The Series operations and the triangular pass that only this solver used
are functions here.
"""

from typing import Sequence

from fcheaps.genfunc import SERIES_IDS, ClosedFormError, length_bound
from fcheaps.qpoly import Series, TPoly

# Most (xmax + 1)^2 (tmax + 1)^2 one series window may cost.  The solver
# multiplies series of truncated polynomials, so its time grows up to the
# square of the window's coefficient count.  On a 2-CPU x86_64 host, Mstar
# at 100 x 220 and at 200 x 110 (cost 0.50e9) took 6.0 s, Qo at 148 x 148
# (0.49e9) 3.8 s and Mstar at 100 x 300 (0.92e9) 10.3 s: at most about 12 ns
# per unit, so no window under the cap solves for much more than 6 s.
SERIES_CAP = 5 * 10 ** 8


class SeriesCapError(RuntimeError):
    """A series window whose cost exceeds SERIES_CAP."""


def series_one(xmax: int, tmax: int) -> Series:
    """The series 1 on a window."""
    s = Series(xmax, tmax)
    s.coeffs[0] = TPoly.one(tmax)
    return s


def scale_poly(s: Series, p: TPoly) -> Series:
    return Series(s.xmax, s.tmax, [c * p for c in s.coeffs])


def shift_x(s: Series, k: int) -> Series:
    """Multiply by x^k."""
    if k < 0:
        raise ValueError("shift must be >= 0")
    out = [TPoly((), s.tmax) for _ in range(s.xmax + 1)]
    for i in range(s.xmax + 1 - k):
        out[i + k] = s.coeffs[i]
    return Series(s.xmax, s.tmax, out)


def subst_x_times_t(s: Series, r: int = 1) -> Series:
    """Substitute x -> x * t^r: the x^k coefficient gains a t-shift of r*k."""
    if r < 0:
        raise ValueError("power must be >= 0")
    out = [c.shift(r * k).truncate(s.tmax) for k, c in enumerate(s.coeffs)]
    return Series(s.xmax, s.tmax, out)


def x_derivative(s: Series) -> Series:
    """Termwise d/dx; the top coefficient of the result is unknown and left zero."""
    out = [TPoly((), s.tmax) for _ in range(s.xmax + 1)]
    for k in range(1, s.xmax + 1):
        out[k - 1] = s.coeffs[k].scale(k)
    return Series(s.xmax, s.tmax, out)


def solve_triangular(seed: Sequence[TPoly], known: Sequence[TPoly] | None, r: int, d: int,
                     tmax: int) -> list[TPoly]:
    """x^k coefficients of U = seed + x^d t^r K(x) U(x t^r), d >= 1, for every k
    that seed covers; K is ``known``, or U itself when None.

    U_k = seed_k + sum_{i+j=k-d} K_i t^(r(j+1)) U_j needs only lower
    coefficients of U, so one pass over k builds them all.
    """
    u: list[TPoly] = []
    kcoeffs = u if known is None else known
    twisted: list[TPoly] = []    # twisted[j] = t^(r(j+1)) U_j
    for k, c in enumerate(seed):
        for j in range(k - d + 1):
            if kcoeffs[k - d - j] and twisted[j]:
                c = c + kcoeffs[k - d - j] * twisted[j]
        u.append(c)
        twisted.append(c.shift(r * (k + 1)).truncate(tmax))
    return u


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
    exceeds SERIES_CAP (read per call) raises SeriesCapError before
    anything is allocated.
    """
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    m, mm = _solve_m(xmax, tmax)
    if series_id == "M":
        return m
    if series_id == "Mstar":
        return m * shift_x(m, 1).geom()
    if series_id == "Q":
        return _solve_q(m)
    return _solve_qo(mm)


def _solve_m(xmax: int, tmax: int) -> tuple[Series, Series]:
    """M and the product M(x) M(tx) its check forms, which Qo and the peak
    terms of the length polynomials reuse; SeriesCapError first when the
    window costs more than SERIES_CAP."""
    cost = ((xmax + 1) * (tmax + 1)) ** 2
    if cost > SERIES_CAP:
        raise SeriesCapError(f"series window of {xmax + 1} x {tmax + 1} coefficients "
                               f"costs {cost}, more than {SERIES_CAP}")
    unit = series_one(xmax, tmax)
    m = Series(xmax, tmax, solve_triangular(unit.coeffs, None, 1, 2, tmax))
    mm = m * subst_x_times_t(m, 1)
    if m != unit + scale_poly(shift_x(mm, 2), _t()):
        raise ClosedFormError("M iteration did not converge")
    return m, mm


def _solve_q(m: Series) -> Series:
    """Q from an already solved and checked M on the same window."""
    q = Series(m.xmax, m.tmax, solve_triangular(m.coeffs, m.coeffs, 1, 1, m.tmax))
    if q != m * (series_one(m.xmax, m.tmax)
                 + scale_poly(shift_x(subst_x_times_t(q, 1), 1), _t())):
        raise ClosedFormError("Q iteration did not converge")
    return q


def _solve_qo(mm: Series) -> Series:
    """Qo from M(x) M(tx), M already solved and checked, on the same window."""
    t = _t()
    base = scale_poly(shift_x(mm, 1), t)
    qo = Series(mm.xmax, mm.tmax, solve_triangular(base.coeffs, base.coeffs, 2, 1, mm.tmax))
    if qo != base * (series_one(mm.xmax, mm.tmax)
                     + scale_poly(shift_x(subst_x_times_t(qo, 2), 1), t * t)):
        raise ClosedFormError("Qo iteration did not converge")
    return qo


def even_shift_tail(xmax: int, tmax: int, x_offset: int) -> Series:
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


def _x_coeff(a: Series, b: Series, k: int) -> TPoly:
    """[x^k] of a * b, without forming the rest of the product."""
    total = TPoly((), a.tmax)
    for i in range(k + 1):
        if a[i] and b[k - i]:
            total = total + a[i] * b[k - i]
    return total


def length_genfunc(family: str, n: int) -> TPoly:
    """Length polynomial of the involutions of a finite family, capped at
    length_bound: [x^n] of (numerator) / (1 - x M)."""
    tmax = length_bound(family, n)
    xmax = n
    m, mm = _solve_m(xmax, tmax)
    if family == "A":
        num = m
    elif family == "B":
        num = _solve_q(m) + even_shift_tail(xmax, tmax, 2) * mm
    else:
        num = (scale_poly(_solve_qo(mm), TPoly([2])) + m
               + even_shift_tail(xmax, tmax, 1) * mm)
    return _x_coeff(num, shift_x(m, 1).geom(), n)


def affa_poly_term(n: int, tmax: int) -> TPoly:
    """Aperiodic part of the cyclic family: [x^n] M (1 + t x^2 W(tx)) / (1 - xM),
    with W the termwise x-derivative of xM."""
    xmax = n + 2
    m = solve_series("M", xmax, tmax)
    w = x_derivative(shift_x(m, 1))
    inner = series_one(xmax, tmax) + scale_poly(shift_x(subst_x_times_t(w, 1), 2), _t())
    return _x_coeff(m * inner, shift_x(m, 1).geom(), n)
