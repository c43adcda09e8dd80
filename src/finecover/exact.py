"""Exact rational arithmetic: intervals, dyadic helpers, quadratic values.

Everything on the verified path is a Fraction or an Interval with Fraction
endpoints. Floats never enter; display code may format decimals, but the
computations themselves stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, isqrt
from typing import Union

def parse_rat(text: str) -> Fraction:
    """Parse a rational literal: "3/8", "-2", or a decimal like "0.125".

    Decimal input is converted exactly (no float round trip).
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def rat_str(q: Fraction) -> str:
    """Canonical serialized form "num/den": reduced, positive denominator.

    Integers keep the explicit "/1" so emitted files have one shape.
    """
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def pow2(n: int) -> Fraction:
    return Fraction(2) ** n


def pow3(n: int) -> Fraction:
    return Fraction(3) ** n


def ceil_log_recip(q: Fraction, base: int = 2) -> int:
    """Least n >= 0 with base**(-n) <= q. Requires q > 0."""
    if q <= 0:
        raise ValueError("need q > 0")
    num, den = q.numerator, q.denominator
    n = 0
    scale = 1
    # base**(-n) <= q  iff  den <= num * base**n
    while den > num * scale:
        scale *= base
        n += 1
    return n


def floor_log_recip(q: Fraction, base: int = 2) -> int:
    """Greatest n >= 0 with base**(-n) >= q. Requires 0 < q <= 1."""
    if not 0 < q <= 1:
        raise ValueError("need 0 < q <= 1")
    num, den = q.numerator, q.denominator
    n = 0
    # base**(-(n+1)) >= q  iff  den >= num * base**(n+1)
    scale = base
    while den >= num * scale:
        scale *= base
        n += 1
    return n


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        # endpoints that already are Fractions are kept as they are
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = Fraction(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
            object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")

    @staticmethod
    def point(x) -> "Interval":
        if type(x) is not Fraction:
            x = Fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def iv_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo)


def iv_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def iv_mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def iv_abs(a: Interval) -> Interval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return iv_neg(a)
    return Interval(Fraction(0), max(-a.lo, a.hi))


def iv_min(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def iv_max(a: Interval, b: Interval) -> Interval:
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def iv_scale(c: Fraction, a: Interval) -> Interval:
    x, y = c * a.lo, c * a.hi
    return Interval(min(x, y), max(x, y))


def iv_pad(a: Interval, e: Fraction) -> Interval:
    """Widen both endpoints outward by e >= 0."""
    if e < 0:
        raise ValueError("pad amount must be >= 0")
    return Interval(a.lo - e, a.hi + e)


def iv_hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def iv_intersect(a: Interval, b: Interval) -> Union[Interval, None]:
    """Intersection, or None when the intervals are disjoint."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        return None
    return Interval(lo, hi)


def iv_geom_tail(n: int) -> Interval:
    """Enclosure [0, 2**-n] for any nonnegative tail sum bounded by 2**-n."""
    return Interval(Fraction(0), pow2(-n))


class CauchyViolation(ValueError):
    """Enclosures that must share a value turned out disjoint: the source lied."""


def iv_refine(old: Union[Interval, None], new: Interval, what: str = "enclosure") -> Interval:
    """Fold a fresh enclosure of the same value into the accumulated one."""
    if old is None:
        return new
    got = iv_intersect(old, new)
    if got is None:
        raise CauchyViolation(f"{what}: {new} disjoint from accumulated {old}")
    return got


QuadLike = Union["QuadVal", Fraction, int]


@dataclass(frozen=True)
class QuadVal:
    """Exact value a + b*sqrt(2) with rational a, b.

    Comparisons against rationals and other QuadVals are exact (sign of
    a**2 - 2*b**2 arguments), so irrational partition tags can be checked
    for membership without any rounding. Enclosures of prescribed width
    come from integer square roots.
    """

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other: QuadLike) -> "QuadVal":
        if isinstance(other, QuadVal):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadVal(Fraction(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: QuadLike) -> "QuadVal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadVal(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadVal":
        return QuadVal(-self.a, -self.b)

    def __sub__(self, other: QuadLike) -> "QuadVal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadVal(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QuadLike) -> "QuadVal":
        return (-self) + other

    def __mul__(self, other: QuadLike) -> "QuadVal":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadVal(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    # -- exact order ------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: |a| vs |b|*sqrt(2) decided by a^2 vs 2 b^2
        lhs, rhs = a * a, 2 * b * b
        if lhs == rhs:
            raise AssertionError("sqrt(2) cannot be rational")
        if lhs > rhs:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def _diff_sign(self, other: QuadLike) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare QuadVal with {type(other).__name__}")
        return (self - o)._sign()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (QuadVal, Fraction, int)):
            return NotImplemented
        o = self._coerce(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        # rational-valued QuadVals hash like their Fraction
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt2"))

    def __lt__(self, other: QuadLike) -> bool:
        return self._diff_sign(other) < 0

    def __le__(self, other: QuadLike) -> bool:
        return self._diff_sign(other) <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return self._diff_sign(other) > 0

    def __ge__(self, other: QuadLike) -> bool:
        return self._diff_sign(other) >= 0

    # -- approximation ----------------------------------------------------

    def enclosure(self, k: int) -> Interval:
        """Interval of width <= 2**-k containing the exact value."""
        if self.b == 0:
            return Interval.point(self.a)
        bmag = abs(self.b)
        m = k + (bmag.numerator // bmag.denominator).bit_length() + 1
        s = isqrt(2 * 4**m)  # s/2^m <= sqrt2 < (s+1)/2^m
        p1 = self.b * Fraction(s, 2**m)
        p2 = self.b * Fraction(s + 1, 2**m)
        return Interval(self.a + min(p1, p2), self.a + max(p1, p2))

    def floor_int(self) -> int:
        if self.b == 0:
            return floor(self.a)
        prec = 8
        while True:
            box = self.enclosure(prec)
            if floor(box.lo) == floor(box.hi):
                return floor(box.lo)
            prec *= 2  # terminates: the value is irrational

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt2"


ExactPoint = Union[Fraction, QuadVal]


def exact_floor(x: ExactPoint) -> int:
    if isinstance(x, QuadVal):
        return x.floor_int()
    return floor(x)


def dyadic_runs(cells, level: int) -> list[Interval]:
    """Maximal runs of adjacent level-`level` dyadic cells as closed intervals.

    Cell i is [i 2^-level, (i+1) 2^-level]; `cells` lists indices in
    ascending order.
    """
    runs: list[list[int]] = []  # [first index, one past the last]
    for i in cells:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [Interval(Fraction(a, 1 << level), Fraction(b, 1 << level)) for a, b in runs]


def simplest_dyadic_between(lo: ExactPoint, hi: ExactPoint) -> Fraction:
    """Dyadic rational m/2**k strictly inside (lo, hi), with k minimal."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    k = 0
    while True:
        m = exact_floor(lo * pow2(k)) + 1
        cand = Fraction(m, 2**k)
        if lo < cand < hi:
            return cand
        k += 1
