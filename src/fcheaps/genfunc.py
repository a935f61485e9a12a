"""Closed-form counts and series for fully commutative involutions.

Length polynomials and the walk series are sums of walk families, each
counted for every number of steps by one pass of the walk DP; major index
polynomials are explicit q-binomial sums; the affine families get an
eventually periodic closed part that a reconciliation step matches against
enumerated counts.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, lcm

from .coxeter import GroupType, InvalidGroupError
from .qpoly import (PeriodReport, Series, TPoly, detect_period, periodicize, qbinomial,
                    qbinomial_column)
from .walks import FamilyLimitError, WalkFamilySpec, family_poly, family_rows

SERIES_IDS = ("M", "Q", "Qo", "Mstar")


class ClosedFormError(RuntimeError):
    """A walk-family count or closed form failed its own consistency check."""


class SeriesLimitError(RuntimeError):
    """A series or length window whose walk families exceed FAMILY_CAP."""


def _family(name: str, n: int) -> WalkFamilySpec:
    """The n-step walk families that the length counts and series sum.

    The paper encodes the heap of an involution as a Dyck-type walk whose
    heights are the heap's occurrence counts per generator, so the heap's
    length is the walk's weight; "flats" are horizontal steps on the axis.
    """
    if name == "M":     # closed walks, no flats (Dyck paths)
        return WalkFamilySpec(n, start=0, end=0)
    if name == "Q":     # free end, no flats
        return WalkFamilySpec(n, start=0, end="any")
    if name == "Qo":    # odd end, no flats
        return WalkFamilySpec(n, start=0, end="odd")
    if name == "A":     # type A (scheme typeA, counts padded by 0 at both ends); Mstar
        return WalkFamilySpec(n, allow_horiz=True, start=0, end=0)
    if name == "B":     # alternating involutions of type B (scheme typeB, a 0 prepended)
        return WalkFamilySpec(n, allow_horiz=True, start=0, end="any")
    if name == "Dodd":  # twice these, A's walks and W's k = 1 term: D's alternating ones
        return WalkFamilySpec(n, allow_horiz=True, start=0, end="odd")
    if name == "W":     # what lies below the peak of a right-peak involution of type B or D
        return WalkFamilySpec(n, allow_horiz=True, start=1, end=0, weight="exclude-start")
    # "affA": closed walks around the cycle (scheme affineA) that touch the axis,
    # with flats: the aperiodic part of affine type A
    return WalkFamilySpec(n, allow_horiz=True, start="any", end="eq-start",
                          require_touch=True, weight="exclude-start")


def _walks(name: str, n: int, tmax: int, rows: bool = False):
    """family_poly of the named family, or with rows its family_rows;
    SeriesLimitError past FAMILY_CAP."""
    spec = _family(name, n)
    try:
        return family_rows(spec, tmax) if rows else family_poly(spec, tmax)
    except FamilyLimitError as e:
        raise SeriesLimitError(str(e)) from e


def solve_series(series_id: str, xmax: int, tmax: int) -> Series:
    """The walk series on a window: [x^k] is the weight polynomial of the
    k-step walks from the axis of one family, one pass for every k.

    M, Q, Qo: no flats, ending on the axis, anywhere, at an odd height;
    Mstar: with flats, ending on the axis.  They solve

    M(x)     = 1 + t x^2 M(x) M(tx)
    Q(x)     = M(x) (1 + x t Q(tx))
    Qo(x)    = x t M(x) M(tx) (1 + x t^2 Qo(x t^2))
    Mstar(x) = M(x) / (1 - x M(x))

    by the first-return decomposition of a walk.  A row whose heaviest walk
    fits under tmax holds every walk, so at t = 1 it must total their
    number (Catalan or central binomial; ClosedFormError otherwise).
    SeriesLimitError when the pass would exceed FAMILY_CAP.
    """
    if series_id not in SERIES_IDS:
        raise ValueError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    rows = _walks("A" if series_id == "Mstar" else series_id, xmax, tmax, rows=True)
    for k, row in enumerate(rows):
        half = k // 2
        central = comb(k, half)
        count, heaviest = {"M": (0 if k % 2 else central // (half + 1), half * half),
                           "Q": (central, k * (k + 1) // 2),
                           "Qo": (central if k % 2 else 0, k * (k + 1) // 2),
                           "Mstar": (central, half * half)}[series_id]
        if heaviest <= tmax and row(1) != count:
            raise ClosedFormError(f"{series_id} row {k} totals {row(1)} walks, not {count}")
    return Series(xmax, tmax, rows)


def length_bound(family: str, n: int) -> int:
    """Safe cap on the length of any fully commutative involution."""
    if family == "A":
        return n * n // 4 + 2
    if family == "B":
        return n * (n + 1) // 2 + 4
    if family == "D":
        return (n + 1) * (n + 2) // 2 + 6
    raise InvalidGroupError(f"no finite length bound for family {family}")


def length_genfunc(family: str, n: int) -> TPoly:
    """Length polynomial of the involutions, capped at length_bound (which
    refuses the affine families), as sums of walk families:

    A: the closed walks with flats;
    B: the free-end walks with flats, plus sum_{k=1}^{n-1} t^(2k+1) W_(n-k);
    D: 2 (odd-end walks) + A's walks + sum_{k=1}^{n} t^(2k) W_(n-k+1);

    W_j being the j-step walks of family "W".  The window holds every
    involution, so the polynomial must total card_involutions at t = 1
    (ClosedFormError otherwise).  SeriesLimitError past FAMILY_CAP.
    """
    GroupType(family, n)
    tmax = length_bound(family, n)
    if family == "A":
        poly = _walks("A", n, tmax)
    elif family == "B":
        w = _walks("W", n - 1, tmax, rows=True)
        poly = sum((w[n - k].shift(2 * k + 1) for k in range(1, n)), _walks("B", n, tmax))
    else:
        w = _walks("W", n, tmax, rows=True)
        poly = sum((w[n - k + 1].shift(2 * k) for k in range(1, n + 1)),
                   _walks("Dodd", n, tmax).scale(2) + _walks("A", n, tmax))
    card = card_involutions(family, n)
    if poly(1) != card:
        raise ClosedFormError(f"{family}:{n} length polynomial totals {poly(1)}, not {card}")
    return poly


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
    """Aperiodic part of the cyclic family: the n-step walks of family
    "affA" (closed, with flats, touching the axis, start not weighted)."""
    return _walks("affA", n, tmax)


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
