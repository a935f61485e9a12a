"""Exact integer polynomials, truncated bivariate series, and q-binomials.

TPoly is a dense polynomial in one variable with an optional truncation cap:
a capped value represents a power series whose coefficients are known exactly
up to the cap and unknown beyond it.  Series stacks TPoly coefficients along
a second variable x, truncated at a fixed x order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence


class TruncationError(ValueError):
    """Read past a truncation cap."""


class PeriodError(ValueError):
    """Period detection could not conclude."""


def _min_cap(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TPoly:
    """Dense integer polynomial, optionally truncated at degree ``cap``.

    Arithmetic propagates the minimum cap of the operands, so truncation is
    never forgotten.  Trailing zero coefficients are normalized away.
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs: Iterable[int] = (), cap: int | None = None):
        cs = [int(c) for c in coeffs]
        if cap is not None:
            if cap < 0:
                raise ValueError("cap must be >= 0")
            del cs[cap + 1:]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)
        self.cap = cap

    @classmethod
    def zero(cls, cap: int | None = None) -> "TPoly":
        return cls((), cap)

    @classmethod
    def one(cls, cap: int | None = None) -> "TPoly":
        return cls((1,), cap)

    @classmethod
    def term(cls, exponent: int, cap: int | None = None) -> "TPoly":
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        return cls([0] * exponent + [1], cap)

    def degree(self) -> int:
        """Degree of the stored polynomial; -1 for zero."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError(k)
        if self.cap is not None and k > self.cap:
            raise TruncationError(f"coefficient of degree {k} is beyond cap {self.cap}")
        return self.coeffs[k] if k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.cap == other.cap

    def __hash__(self) -> int:
        return hash((self.coeffs, self.cap))

    def __add__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(map(operator.add, a, b))
        cs += a[len(b):]
        return _tpoly(cs, _min_cap(self.cap, other.cap))

    def __sub__(self, other: "TPoly") -> "TPoly":
        a, b = self.coeffs, other.coeffs
        cs = list(map(operator.sub, a, b))
        if len(a) >= len(b):
            cs += a[len(b):]
        else:
            cs += [-c for c in b[len(a):]]
        return _tpoly(cs, _min_cap(self.cap, other.cap))

    def __mul__(self, other: "TPoly") -> "TPoly":
        cap = _min_cap(self.cap, other.cap)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _tpoly([], cap)
        n = len(a) + len(b) - 1
        if cap is not None:
            n = min(n, cap + 1)
        cs = [0] * n
        for i, x in enumerate(a):
            if i >= n:
                break
            if x:
                for j, y in enumerate(b[:n - i], i):
                    cs[j] += x * y
        return _tpoly(cs, cap)

    def scale(self, c: int) -> "TPoly":
        return _tpoly([c * a for a in self.coeffs], self.cap)

    def shift(self, k: int) -> "TPoly":
        """Multiply by the variable to the k-th power."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        cap = None if self.cap is None else self.cap + k
        if not self.coeffs:
            return _tpoly([], cap)
        return _tpoly([0] * k + list(self.coeffs), cap)

    def truncate(self, cap: int | None) -> "TPoly":
        new = _min_cap(self.cap, cap)
        if new is not None and new < 0:
            raise ValueError("cap must be >= 0")
        if new == self.cap:
            return self
        return _tpoly(list(self.coeffs), new)

    def halve(self) -> "TPoly":
        """Exact division by 2; raises if any coefficient is odd."""
        for i, c in enumerate(self.coeffs):
            if c % 2:
                raise ValueError(f"coefficient of degree {i} is odd: {c}")
        return TPoly((c // 2 for c in self.coeffs), self.cap)

    def assert_nonnegative(self) -> "TPoly":
        for i, c in enumerate(self.coeffs):
            if c < 0:
                raise ValueError(f"negative coefficient {c} at degree {i}")
        return self

    def __call__(self, v: int) -> int:
        """Evaluate the stored coefficients at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def padded(self, length: int) -> list[int]:
        """Coefficient list padded with zeros to the given length."""
        if self.cap is not None and length > self.cap + 1:
            raise TruncationError(f"padding to {length} exceeds cap {self.cap}")
        cs = list(self.coeffs[:length])
        cs.extend([0] * (length - len(cs)))
        return cs

    def to_text(self, var: str = "t", compact: bool = False) -> str:
        """Render as ``1 + 2*t + t^3`` (or ``1+2t+t^3`` when compact)."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                if mag == 1:
                    body = power
                elif compact:
                    body = f"{mag}{power}"
                else:
                    body = f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                if compact:
                    parts.append(("+" if c > 0 else "-") + body)
                else:
                    parts.append(("+ " if c > 0 else "- ") + body)
        return ("" if compact else " ").join(parts)

    def to_json_dict(self, var: str = "t") -> dict:
        """JSON form with coefficients as decimal strings."""
        out: dict = {"var": var, "coeffs": [str(c) for c in self.coeffs]}
        if self.cap is not None:
            out["truncated_at"] = self.cap
        return out

    def __repr__(self) -> str:
        body = self.to_text()
        return f"TPoly({body!r}, cap={self.cap})" if self.cap is not None else f"TPoly({body!r})"


def _tpoly(cs: list[int], cap: int | None) -> TPoly:
    """Arithmetic results: a fresh list of ints and a valid cap.

    Skips the public constructor's int() pass and cap check; trims to the
    cap and strips trailing zeros exactly as it does.
    """
    if cap is not None:
        del cs[cap + 1:]
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(TPoly)
    p.coeffs = tuple(cs)
    p.cap = cap
    return p


class Series:
    """Bivariate truncated series: x up to ``xmax``, t capped at ``tmax``.

    coeffs[k] is the TPoly in t multiplying x^k; every entry carries the
    shared t cap.
    """

    __slots__ = ("xmax", "tmax", "coeffs")

    def __init__(self, xmax: int, tmax: int, coeffs: Sequence[TPoly] | None = None):
        if xmax < 0 or tmax < 0:
            raise ValueError("orders must be >= 0")
        self.xmax = xmax
        self.tmax = tmax
        if coeffs is None:
            cs = [TPoly((), tmax) for _ in range(xmax + 1)]
        else:
            if len(coeffs) != xmax + 1:
                raise ValueError("need xmax + 1 coefficients")
            cs = [c.truncate(tmax) for c in coeffs]
        self.coeffs = cs

    def __getitem__(self, k: int) -> TPoly:
        if k < 0:
            raise IndexError(k)
        if k > self.xmax:
            raise TruncationError(f"x order {k} beyond xmax {self.xmax}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (self.xmax, self.tmax) == (other.xmax, other.tmax) and self.coeffs == other.coeffs

    def _check(self, other: "Series") -> None:
        if (self.xmax, self.tmax) != (other.xmax, other.tmax):
            raise ValueError("series orders differ")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series(self.xmax, self.tmax, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        out = [TPoly((), self.tmax) for _ in range(self.xmax + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.xmax + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Series(self.xmax, self.tmax, out)

    def geom(self) -> "Series":
        """1 / (1 - self); requires zero constant term in x.

        G = 1 + self * G with a_0 = 0, so G_0 = 1 and
        G_k = sum_{i=1..k} a_i G_{k-i}: one triangular pass.
        """
        if not self.coeffs[0].is_zero():
            raise ValueError("geometric inverse needs zero constant term")
        g = [TPoly.one(self.tmax)]
        for k in range(1, self.xmax + 1):
            c = TPoly((), self.tmax)
            for i in range(1, k + 1):
                if self.coeffs[i] and g[k - i]:
                    c = c + self.coeffs[i] * g[k - i]
            g.append(c)
        return Series(self.xmax, self.tmax, g)

    def __repr__(self) -> str:
        rows = ", ".join(f"x^{k}: {c.to_text()}" for k, c in enumerate(self.coeffs) if not c.is_zero())
        return f"Series(xmax={self.xmax}, tmax={self.tmax}, {rows or '0'})"


def qbinomial_column(k: int, nmax: int) -> list[TPoly]:
    """The column [n; k] of the q-Pascal triangle for n = 0..nmax.

    Walks down the column by [n; k] = [n-1; k] (1 - q^n) / (1 - q^(n-k))
    from [k; k] = 1; the entries above it are zero.  The division is exact:
    with c = [n-1; k] (1 - q^n) and m = n - k, the quotient d solves
    d_e = c_e + d_(e-m) for its k (n - k) + 1 coefficients.

    >>> [p.to_text("q") for p in qbinomial_column(2, 4)]
    ['0', '0', '1', '1 + q + q^2', '1 + q + 2*q^2 + q^3 + q^4']
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    col = [TPoly.zero()] * min(k, nmax + 1)
    if k > nmax:
        return col
    d = [1]
    col.append(TPoly.one())
    for n in range(k + 1, nmax + 1):
        m = n - k
        prev, d = d, d + [0] * k
        for e in range(n, len(d)):
            d[e] -= prev[e - n]
        for e in range(m, len(d)):
            d[e] += d[e - m]
        col.append(TPoly(d))
    return col


def qbinomial(n: int, k: int) -> TPoly:
    """Gaussian binomial coefficient as an exact polynomial; zero outside 0 <= k <= n.

    >>> qbinomial(4, 2).to_text("q")
    '1 + q + 2*q^2 + q^3 + q^4'
    """
    if k < 0 or k > n:
        return TPoly.zero()
    return qbinomial_column(k, n)[n]


@dataclass(frozen=True)
class PeriodReport:
    """Eventual periodicity of an integer sequence.

    transient_start: first index from which the sequence is periodic.
    period: the (minimal) period length found.
    repeating_block: the period-length block starting at transient_start.
    """

    transient_start: int
    period: int
    repeating_block: tuple[int, ...]


def detect_period(seq: Sequence[int]) -> PeriodReport:
    """Find the smallest eventual period of ``seq``, then the smallest transient.

    Requires at least two full periods after the transient; raises
    PeriodError when no period satisfies that within the window.

    >>> detect_period([5, 1, 2, 1, 2, 1, 2])
    PeriodReport(transient_start=1, period=2, repeating_block=(1, 2))
    >>> detect_period([1, 3, 0, 0, 0, 0])
    PeriodReport(transient_start=2, period=1, repeating_block=(0,))
    """
    n = len(seq)
    if n < 4:
        raise PeriodError("sequence too short for period detection")
    for p in range(1, n // 2 + 1):
        tau = n - p
        while tau > 0 and seq[tau - 1] == seq[tau - 1 + p]:
            tau -= 1
        if n - tau >= 2 * p:
            return PeriodReport(tau, p, tuple(seq[tau:tau + p]))
    raise PeriodError(f"no period with 2 repeats in a window of {n} terms")


def periodicize(block: TPoly, shift: int, modulus: int, cap: int) -> TPoly:
    """Expand block * t^shift / (1 - t^modulus) as a polynomial capped at ``cap``."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    cs = [0] * (cap + 1)
    for k, c in enumerate(block.coeffs):
        if c == 0:
            continue
        e = shift + k
        while e <= cap:
            cs[e] += c
            e += modulus
    return TPoly(cs, cap)
