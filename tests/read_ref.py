"""The read side of `verify` as it was written on Fraction compares, kept as
the reference the tests check the integer versions against: the regex
rational parser, a quadratic point checked against the ambient interval
by `quad_ref.ref_cmp`, a cover's point order by exact value or by
sequence-space cell, its CSV written from Fraction values, the unit sweep
that sorts its rows with a cross-multiplying comparator, and the
sequence-space witness walk that builds a `Cylinder` for every node it
visits."""

import csv
import io
import re
from fractions import Fraction
from functools import cmp_to_key
from math import lcm

from quad_ref import ref_cmp

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


def ref_from_quad(a, b) -> UnitPoint:
    """The point a + b*sqrt(2): a rational point when b is 0, else the parts
    over the lcm of their denominators, checked against [-1, 2] by ref_cmp."""
    a, b = Fraction(a), Fraction(b)
    if not b:
        if not -1 <= a <= 2:
            raise ValueError(f"point {a} outside ambient [-1, 2]")
        return UnitPoint(a.numerator, a.denominator)
    if ref_cmp((a, b), (-1, 0)) < 0 or ref_cmp((a, b), (2, 0)) > 0:
        raise ValueError(f"point {a} + {b}*sqrt2 outside ambient [-1, 2]")
    return UnitPoint(*ref_pair((a, b)))


_BY_VALUE = cmp_to_key(ref_cmp)


def ref_value(p: UnitPoint) -> tuple:
    """An exact point's value as quad_ref's pair (a, b), for a + b*sqrt(2)."""
    return (p.exact, Fraction(0)) if p.is_rational else p.exact


def ref_value_key(p: UnitPoint):
    """Sort key of exact points by value, on ref_cmp."""
    return _BY_VALUE(ref_value(p))


def ref_cover(entries) -> tuple[list, dict]:
    """A unit cover's points and radii: duplicates merged keeping the larger
    radius, points sorted by exact value."""
    radii: dict = {}
    for p, r in entries:
        r = Fraction(r)
        radii[p] = max(radii[p], r) if p in radii else r
    return sorted(radii, key=ref_value_key), radii


def _ratio_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def ref_cantor_cover(entries) -> tuple[list, dict]:
    """A sequence-space cover's points and radii: points merged by their
    patterns keeping the larger radius, sorted by depth-48 cell, then
    pattern."""
    radii: dict = {}
    for p, r in entries:
        r = Fraction(r)
        radii[p] = max(radii[p], r) if p in radii else r
    return sorted(radii, key=lambda p: (p.index(48), p.pattern)), radii


def _point_text(p) -> str:
    if isinstance(p, CantorPoint):
        return f"prefix={p.pattern[0]};period={p.pattern[1]}"
    v = p.exact
    return f"rat:{_ratio_str(v)}" if isinstance(v, Fraction) else f"quad:{_ratio_str(v[0])},{_ratio_str(v[1])}"


def ref_cover_csv(points, radii) -> str:
    """The CSV of a cover whose points are written in the given order, a
    unit point from its Fraction value, "rat:n/d" or "quad:a,b" for
    a + b*sqrt(2), a sequence from its pattern."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["point", "radius"])
    for p in points:
        writer.writerow([_point_text(p), _ratio_str(radii[p])])
    return out.getvalue()


def _by_left_end(a: tuple, b: tuple) -> int:
    x, y = a[0] * b[2], b[0] * a[2]
    return (x > y) - (x < y)


def ref_pair(v) -> tuple:
    """A Fraction's (numerator, denominator); for a pair (a, b) standing for
    a + b*sqrt(2), the lcm d of the parts' denominators and the QuadVal of
    the parts' numerators over d (an int when b is 0)."""
    if isinstance(v, Fraction):
        return v.numerator, v.denominator
    a, b = v
    d = lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    return (QuadVal(an, bn) if bn else an), d


def ref_sweep(points, radii) -> tuple[list, object]:
    """The kept rows and the first gap's witness of the balls, taken in the
    order of `points`."""
    rows = []
    for p in points:
        (vn, vd), r = ref_pair(p.exact), radii[p]
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
    nxt = (1, 1) if gap is None else (gap[0], gap[2])
    return kept, Fraction(*simplest_dyadic_between(reach, reach_d, *nxt))


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
