"""Interval arithmetic on Fraction ends: the endpoint formulas that the
integer-numerator triple ops of `finecover.exact` apply, kept here as the
reference the tests check those ops and the triple kernels against."""

from finecover.exact import Interval


def ref_add(a, b):
    return Interval(a.lo + b.lo, a.hi + b.hi)


def ref_mul(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def ref_pad(a, e):
    """Both ends widened outward by e >= 0."""
    return Interval(a.lo - e, a.hi + e)


def ref_intersect(a, b):
    """The intersection, or None when the intervals are disjoint."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return None if lo > hi else Interval(lo, hi)
