"""Order and enclosures of a + b*sqrt(2) on Fraction parts: the formulas
that `finecover.exact.QuadVal` decides on integer numerators, kept here as
the reference the tests check `sqrt2_sign`, the QuadVal comparisons and
`QuadVal.enclosure` against."""

from fractions import Fraction
from math import isqrt

from finecover.exact import Interval


def ref_sign(a, b) -> int:
    """The sign of a + b*sqrt(2) for rationals a and b."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    # opposite signs: |a| vs |b|*sqrt(2) decided by a^2 vs 2 b^2
    lhs, rhs = a * a, 2 * b * b
    assert lhs != rhs, "sqrt(2) cannot be rational"
    if lhs > rhs:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def ref_cmp(x, y) -> int:
    """The sign of x - y, each a pair (a, b) standing for a + b*sqrt(2)."""
    return ref_sign(Fraction(x[0]) - Fraction(y[0]), Fraction(x[1]) - Fraction(y[1]))


def ref_enclosure(a, b, k: int) -> Interval:
    """An interval of width <= 2**-k around a + b*sqrt(2): b times the
    bracket s/2^m <= sqrt(2) < (s+1)/2^m, shifted by a."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return Interval.point(a)
    bmag = abs(b)
    m = k + (bmag.numerator // bmag.denominator).bit_length() + 1
    s = isqrt(2 * 4**m)
    p1 = b * Fraction(s, 2**m)
    p2 = b * Fraction(s + 1, 2**m)
    return Interval(a + min(p1, p2), a + max(p1, p2))
