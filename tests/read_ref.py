"""The read side of `verify` as it was written on Fraction compares, kept as
the reference the tests check the integer versions against: the regex
rational parser, a quadratic point checked against the ambient interval
with QuadVal compares, a cover's point order by exact value, the unit sweep
that sorts its rows with a cross-multiplying comparator, and the
sequence-space witness walk that builds a `Cylinder` for every node it
visits."""

import re
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from finecover.exact import QuadVal, simplest_dyadic_between
from finecover.spaces import CantorPoint, Cylinder, UnitPoint

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def ref_parse_rat(text: str) -> Fraction:
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    whole, den, decimals = m.groups()
    try:
        if decimals is not None:
            return Fraction(int(whole + decimals), 10 ** len(decimals))
        return Fraction(int(whole), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def ref_from_quad(v: QuadVal) -> UnitPoint:
    """The point v: a rational point when v is rational, else v's parts over
    the lcm of their denominators, checked against [-1, 2] as QuadVals."""
    if v.is_rational:
        q = v.as_fraction()
        if not -1 <= q <= 2:
            raise ValueError(f"point {q} outside ambient [-1, 2]")
        return UnitPoint(q.numerator, q.denominator)
    if v < -1 or v > 2:
        raise ValueError(f"point {v} outside ambient [-1, 2]")
    return UnitPoint(*_pair(v))


def ref_cover(entries) -> tuple[list, dict]:
    """A unit cover's points and radii: duplicates merged keeping the larger
    radius, points sorted by exact value."""
    radii: dict = {}
    for p, r in entries:
        r = Fraction(r)
        radii[p] = max(radii[p], r) if p in radii else r
    return sorted(radii, key=UnitPoint.exact_value), radii


def _by_left_end(a: tuple, b: tuple) -> int:
    x, y = a[0] * b[2], b[0] * a[2]
    return (x > y) - (x < y)


def _value(n, d: int):
    return n * Fraction(1, d)


def _pair(v) -> tuple:
    """A Fraction's (numerator, denominator); a QuadVal's denominator is
    the lcm of its parts', and its numerator the QuadVal with integer parts."""
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    d = lcm(v.a.denominator, v.b.denominator)
    return QuadVal(v.a * d, v.b * d), d


def ref_sweep(points, radii) -> tuple[list, object]:
    """The kept rows and the first gap's witness of the balls, taken in the
    order of `points`."""
    rows = []
    for p in points:
        (vn, vd), r = _pair(p.exact), radii[p]
        rd = r.denominator
        d = lcm(vd, rd)
        c, s = vn * (d // vd), r.numerator * (d // rd)
        lo, hi = c - s, c + s
        if hi > 0 and lo < d:
            rows.append((lo, hi, d, c, p, r))
    rows.sort(key=cmp_to_key(_by_left_end))
    kept = []
    reach, reach_d, gap = 0, 1, None
    for row in rows:
        lo, hi, d = row[0], row[1], row[2]
        if kept:
            last = kept[-1]
            if hi * last[2] <= last[1] * d:
                continue
            if lo * last[2] == last[0] * d:
                kept.pop()
        kept.append(row)
        if gap is None:
            if lo * reach_d > reach * d:
                gap = row
            elif hi * reach_d > reach * d:
                reach, reach_d = hi, d
    if reach >= reach_d:
        return kept, None
    nxt = Fraction(1) if gap is None else _value(gap[0], gap[2])
    return kept, simplest_dyadic_between(_value(reach, reach_d), nxt)


def ref_cantor_witness(points, radii):
    """The leftmost uncovered cylinder's point, by a depth-first walk over
    `Cylinder` nodes; a ball's depth is the least m with 2^-m <= r."""
    cells = set()
    for p in points:
        m = 0
        while Fraction(1, 1 << m) > radii[p]:
            m += 1
        cells.add(Cylinder(p.index(m), m))
    deepest = max(c.depth for c in cells)
    stack = [Cylinder(0, 0)]
    while stack:
        cell = stack.pop()
        if cell in cells:
            continue
        if cell.depth >= deepest:
            return CantorPoint.from_pattern(cell.prefix, "0")
        i, level = 2 * cell.index, cell.depth + 1
        stack += [Cylinder(i + 1, level), Cylinder(i, level)]
    return None
