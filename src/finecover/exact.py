"""Exact arithmetic: integer-numerator intervals, dyadic helpers, quadratics.

Everything on the verified path is a Fraction, an integer-numerator
triple (lo, hi, d) standing for the interval [lo/d, hi/d], or a QuadVal,
the element a + b*sqrt(2) of Z[sqrt(2)] on two ints that a quadratic
point holds over its int denominator, enclosed by a triple from an
integer square root. An Interval with Fraction endpoints is only the
value type the public edge hands out.
Floats never enter; display code may format decimals, but the
computations themselves stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import floor, gcd, isqrt, lcm
from typing import Callable, Optional


def parse_pair(text: str) -> tuple[int, int]:
    """Parse a rational literal, "3/8", "-2" or a decimal like "0.125", to
    its reduced (numerator, denominator), the denominator positive.

    Only ASCII digits, an optional sign and one "/" or "." are accepted,
    so the value's size is bounded by the text's. Decimal input is
    converted exactly (no float round trip).
    """
    s = text.strip()
    head, sep, part = s.partition("/")
    if not sep:
        head, sep, part = head.partition(".")
    digits = head[1:] if head[:1] in "+-" else head  # an empty head leaves no digits either way
    if s.isascii() and digits.isdigit() and (part.isdigit() or not sep):
        try:
            if sep == ".":
                n, d = int(head + part), 10 ** len(part)
            else:
                n, d = int(head), int(part) if sep else 1
        except ValueError as exc:  # past int()'s digit limit
            raise ValueError(f"not a rational: {text!r}") from exc
        if d:  # a zero denominator falls through to the error
            g = gcd(n, d)
            return (n, d) if g == 1 else (n // g, d // g)
    raise ValueError(f"not a rational: {text!r}")


def parse_rat(text: str) -> Fraction:
    """The Fraction of a rational literal, as parse_pair reads it."""
    return Fraction(*parse_pair(text))


def rat_str(q: Fraction) -> str:
    """Canonical serialized form "num/den": reduced, positive denominator.

    Integers keep the explicit "/1" so emitted files have one shape.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def pow2(n: int) -> Fraction:
    return Fraction(2) ** n


def pow3(n: int) -> Fraction:
    return Fraction(3) ** n


def ceil_log_recip(q: Fraction, base: int = 2) -> int:
    """Least n >= 0 with base**(-n) <= q. Requires q > 0."""
    num, den = q.numerator, q.denominator
    if num <= 0:
        raise ValueError("need q > 0")
    # start from a lower bound read off the bit lengths: log_base(den/num)
    # exceeds (len(den) - len(num) - 1) / ceil(log2(base))
    n = max(den.bit_length() - num.bit_length() - 1, 0) // (base - 1).bit_length()
    scale = base**n
    # base**(-n) <= q  iff  den <= num * base**n
    while den > num * scale:
        scale *= base
        n += 1
    return n


def floor_log_recip(q: Fraction) -> int:
    """Greatest n >= 0 with 2**(-n) >= q. Requires 0 < q <= 1."""
    if not 0 < q <= 1:
        raise ValueError("need 0 < q <= 1")
    # the least n with 2**(-n) <= q, less one unless q is that power
    n = ceil_log_recip(q)
    return n if q.denominator == q.numerator << n else n - 1


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

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class CauchyViolation(ValueError):
    """Enclosures that must share a value turned out disjoint: the source lied."""


# -- integer-numerator intervals ------------------------------------------
#
# Codes, integrands, approximant points and sums carry the interval
# [lo/d, hi/d] as the triple (lo, hi, d) of ints with d > 0, not
# necessarily reduced. Each op applies the endpoint formula of interval
# arithmetic to the numerators over a common denominator, and operands
# with equal denominators combine without multiplying. Every op is exact,
# so a triple turned into an Interval by rt_interval has exactly the
# endpoints that Fraction arithmetic on the ends gives; only the
# normalisation of each intermediate Fraction is skipped.


def rt_point(q: Fraction) -> tuple:
    n = q.numerator
    return n, n, q.denominator


def rt_cell(i: int, level: int) -> tuple:
    """The dyadic cell [i 2^-level, (i+1) 2^-level]."""
    return i, i + 1, 1 << level


def rt_of(box: Interval) -> tuple:
    lo, hi = box.lo, box.hi
    a, b = lo.denominator, hi.denominator
    return lo.numerator * b, hi.numerator * a, a * b


def rt_interval(r: tuple) -> Interval:
    lo, hi, d = r
    return Interval(Fraction(lo, d), Fraction(hi, d))


def _aligned(a: tuple, b: tuple) -> tuple:
    """The numerators of a and b over one denominator: (alo, ahi, blo, bhi, d)."""
    alo, ahi, ad = a
    blo, bhi, bd = b
    if ad == bd:
        return alo, ahi, blo, bhi, ad
    return alo * bd, ahi * bd, blo * ad, bhi * ad, ad * bd


def rt_add(a: tuple, b: tuple) -> tuple:
    alo, ahi, blo, bhi, d = _aligned(a, b)
    return alo + blo, ahi + bhi, d


def rt_mul(a: tuple, b: tuple) -> tuple:
    alo, ahi, ad = a
    blo, bhi, bd = b
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products), ad * bd


def rt_scale(c: Fraction, a: tuple) -> tuple:
    lo, hi, d = a
    p = c.numerator
    if p < 0:
        lo, hi = hi, lo
    return p * lo, p * hi, c.denominator * d


def rt_intersect(a: tuple, b: tuple) -> Optional[tuple]:
    """Intersection, or None when the intervals are disjoint."""
    alo, ahi, blo, bhi, d = _aligned(a, b)
    lo, hi = max(alo, blo), min(ahi, bhi)
    return None if lo > hi else (lo, hi, d)


def rt_refine(old: Optional[tuple], new: tuple, what: Optional[Callable[[], str]]) -> tuple:
    """Fold a fresh enclosure into the accumulated one (None at first):
    their intersection, reduced by gcd so that refining again and again
    cannot grow the denominator. Disjoint ones raise CauchyViolation, and
    only then is what() called, to name the value; with no old enclosure
    it may be None."""
    got = new if old is None else rt_intersect(old, new)
    if got is None:
        raise CauchyViolation(f"{what()}: {rt_interval(new)} disjoint from accumulated {rt_interval(old)}")
    lo, hi, d = got
    g = gcd(lo, hi, d)
    return got if g == 1 else (lo // g, hi // g, d // g)


def rt_pad(a: tuple, j: int) -> tuple:
    """Widen both ends outward by 2^-j, j >= 0."""
    lo, hi, d = a
    return (lo << j) - d, (hi << j) + d, d << j


def _block_ends(boxes: list) -> tuple:
    """(ends, lo, hi, den): the boxes' ends over the lcm den of their
    denominators, and the numerators of their hull."""
    den = lcm(*(d for _, _, d in boxes))
    ends = [(lo * (den // d), hi * (den // d)) for lo, hi, d in boxes]
    return ends, min(e[0] for e in ends), max(e[1] for e in ends), den


def rt_block(boxes: list) -> tuple:
    """The hull of the boxes, padded by the largest gap between the ends of
    neighbours, over the lcm of their denominators."""
    ends, lo, hi, den = _block_ends(boxes)
    worst = 0
    for (alo, ahi), (blo, bhi) in zip(ends, ends[1:]):
        worst = max(worst, abs(alo - blo), abs(ahi - bhi))
    return lo - worst, hi + worst, den


def rt_block_region(regions: list) -> tuple:
    """An enclosure of rt_block(boxes) for any boxes, each inside the region
    of the same place: the regions' hull, padded by the widest extent
    max(hi) - min(lo) of two neighbours, which bounds every gap between the
    ends of their boxes."""
    ends, lo, hi, den = _block_ends(regions)
    worst = 0
    for (alo, ahi), (blo, bhi) in zip(ends, ends[1:]):
        worst = max(worst, max(ahi, bhi) - min(alo, blo))
    return lo - worst, hi + worst, den


def rt_geom_tail(n: int) -> tuple:
    """Enclosure [0, 2**-n] for any nonnegative tail sum bounded by 2**-n."""
    return 0, 1, 1 << n


def rt_points(qs) -> list:
    """Point triples of the rationals qs, all over one common denominator."""
    d = lcm(*(q.denominator for q in qs))
    out = []
    for q in qs:
        n = q.numerator * (d // q.denominator)
        out.append((n, n, d))
    return out


# A block's common denominator stays below this many bits unless a single
# interval needs more. One denominator for a long tail would be the lcm of
# all its terms' denominators, and the cache would grow quadratically.
_BLOCK_BITS = 256


def rt_into_terms(intervals) -> list:
    """Intervals (a_n, b_n), n = 0, 1, ..., prepared for rt_into_sum.

    Consecutive intervals share a common denominator D, one per block:
    each block is (D, N, terms) with one term (2aD, 2bD, (a+b)D, (b-a)D, s)
    per interval, N the number of intervals and s = N - n, so that the
    weight 2^-n is 2^s / 2^N.
    """
    count = len(intervals)
    blocks, group, den = [], [], 1
    for n, (a, b) in enumerate(intervals):
        both = lcm(a.denominator, b.denominator)
        wider = lcm(den, both)
        if group and wider.bit_length() > _BLOCK_BITS:
            blocks.append((den, group))
            group, wider = [], both
        den = wider
        group.append((n, a, b))
    if group:
        blocks.append((den, group))
    out = []
    for den, group in blocks:
        terms = []
        for n, a, b in group:
            lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
            terms.append((2 * lo, 2 * hi, lo + hi, hi - lo, count - n))
        out.append((den, count, terms))
    return out


def rt_into_sum(r: tuple, blocks: list) -> tuple:
    """Range over x in r of sum_n 2^-n max(0, min(x - a_n, b_n - x)).

    Each term is piecewise linear with one peak, at the midpoint of its
    interval, so the ends of r, plus the peak when r holds the midpoint,
    are its only candidate extremes. A block sums over the denominator
    2 d D 2^N, where every candidate is an integer.
    """
    lo, hi, d = r
    total = 0, 0, 1
    for den, count, terms in blocks:
        xl, xh = 2 * lo * den, 2 * hi * den
        slo = shi = 0
        for a2, b2, m, h, s in terms:
            a2, b2 = a2 * d, b2 * d
            vl, vh = min(xl - a2, b2 - xl), min(xh - a2, b2 - xh)
            vl, vh = (vl if vl > 0 else 0), (vh if vh > 0 else 0)
            if vl > vh:
                vl, vh = vh, vl
            m *= d
            if xl <= m <= xh:
                h *= d
                vl, vh = min(vl, h), max(vh, h)
            slo += vl << s
            shi += vh << s
        total = rt_add(total, (slo, shi, (2 * d * den) << count))
    return total


def sqrt2_sign(p: int, q: int) -> int:
    """The sign of p + q*sqrt(2) for integers p and q. When the two terms
    have opposite signs, p**2 against 2*q**2 tells which is larger; they
    are never equal, as sqrt(2) is irrational."""
    if q == 0:
        return (p > 0) - (p < 0)
    s = 1 if q > 0 else -1
    return s if p * s >= 0 or p * p < 2 * q * q else -s


def _parts(x) -> Optional[tuple]:
    """(a, b) of an int or a QuadVal; None for anything else."""
    if type(x) is int:
        return x, 0
    return (x.a, x.b) if type(x) is QuadVal else None


@total_ordering
@dataclass(frozen=True)
class QuadVal:
    """The element a + b*sqrt(2) of Z[sqrt(2)], on two ints.

    A quadratic unit point is a QuadVal over its int denominator. Sums,
    differences and products with ints and other QuadVals stay on ints,
    and `__lt__` is `sqrt2_sign` of the difference, so irrational
    partition tags are compared without any rounding. `total_ordering`
    derives the other orders from `__lt__` and `__eq__`; any operand but
    an int or a QuadVal raises TypeError, in either order.
    """

    a: int
    b: int = 0

    def __add__(self, other) -> "QuadVal":
        o = _parts(other)
        return NotImplemented if o is None else QuadVal(self.a + o[0], self.b + o[1])

    __radd__ = __add__

    def __sub__(self, other) -> "QuadVal":
        o = _parts(other)
        return NotImplemented if o is None else QuadVal(self.a - o[0], self.b - o[1])

    def __rsub__(self, other) -> "QuadVal":
        o = _parts(other)
        return NotImplemented if o is None else QuadVal(o[0] - self.a, o[1] - self.b)

    def __mul__(self, other) -> "QuadVal":
        o = _parts(other)
        if o is None:
            return NotImplemented
        c, d = o
        return QuadVal(self.a * c + 2 * self.b * d, self.a * d + self.b * c)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = _parts(other)
        return NotImplemented if o is None else (self.a, self.b) == o

    def __hash__(self) -> int:
        # rational-valued QuadVals hash like their int
        return hash((self.a, self.b, "sqrt2")) if self.b else hash(self.a)

    def __lt__(self, other) -> bool:
        o = _parts(other)
        if o is None:
            raise TypeError(f"cannot compare QuadVal with {type(other).__name__}")
        return sqrt2_sign(self.a - o[0], self.b - o[1]) < 0

    def __floor__(self) -> int:
        # b*sqrt(2) is irrational for b != 0, so its floor is isqrt(2b^2)
        # when b > 0 and one less than -isqrt(2b^2) when b < 0
        a, b = self.a, self.b
        if b > 0:
            return a + isqrt(2 * b * b)
        return a - isqrt(2 * b * b) - 1 if b else a

    def enclosure(self, k: int, den: int = 1) -> tuple:
        """The triple (lo, hi, den << m) of width <= 2**-k around
        (a + b*sqrt(2))/den, for an int den > 0: b times the bracket
        s/2^m <= sqrt(2) < (s+1)/2^m, s = isqrt(2 << 2m), shifted by a."""
        a, b = self.a, self.b
        m = k + (abs(b) // den).bit_length() + 1
        lo = (a << m) + b * isqrt(2 << 2 * m)
        return (lo, lo + b, den << m) if b > 0 else (lo + b, lo, den << m)


def pair_str(n, d: int) -> str:
    """The text of n/d, n an int or a QuadVal and d > 0: "3/4", or
    "1/4 + 1/8*sqrt2". For display only: it builds Fractions."""
    if type(n) is int:
        return str(Fraction(n, d))
    return f"{Fraction(n.a, d)} + {Fraction(n.b, d)}*sqrt2"


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


def simplest_dyadic_between(lo, lo_d: int, hi, hi_d: int) -> tuple[int, int]:
    """The dyadic rational m/2**k strictly inside (lo/lo_d, hi/hi_d), with k
    minimal, as its reduced pair (m, 2**k). The numerators are ints or
    QuadVals over positive int denominators; m is one more than the floor
    of lo 2^k / lo_d, which is floor(lo 2^k) // lo_d, all on the integers."""
    if not lo * hi_d < hi * lo_d:
        raise ValueError("need lo < hi")
    k = 0
    while True:
        m = floor(lo * (1 << k)) // lo_d + 1
        if m * hi_d < hi * (1 << k):
            return m, 1 << k
        k += 1
