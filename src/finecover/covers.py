"""Tagged partitions, fine covers, the factor-2 conversions, and the
subdivision searches that either find a fine cover or report exactly
where they got stuck.

Fineness conventions, fixed here once: a partition cell [a,b] with tag t
needs the gauge at t to be >= b-a (non-strict); a cover entry (p, r)
needs the gauge at p to be >= r. The searches accept a unit-interval cell
only where "gauge at sample > cell width" holds strictly, on the sample's
verdict or on the region kernel's lower end, and emit the cell width as
the radius, so accepted entries always verify with margin. On the
sequence space the ball B(x, r) IS the cylinder [x restricted to m] with
2^-m <= r, so the acceptance test is the non-strict "gauge >= 2^-depth".

The fineness check reads a code's region kernel the same way: a run of
rows whose hull the region bounds above every row's bound passes at once,
and a No or an Unknown comes only from a row's own verdict. Limit codes
take part too, through the region of their stage block; the searches
sample every cell of a limit code instead (see `_subdivide`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd, lcm
from operator import ge, gt
from typing import Optional, Union

from .exact import (
    QuadVal,
    ceil_log_recip,
    dyadic_runs,
    pair_str,
    pow2,
    rt_cell,
    simplest_dyadic_between,
    sqrt2_sign,
)
from .gauges import DomainError, GaugeCode, Verdict, _LimitCode, _point_region, _verdict, verified_above, verified_at_least
from .spaces import (
    CantorPoint,
    Cylinder,
    UnitPoint,
    dist_to_cantor,
    leftmost_cantor_ge,
    pattern_index,
    phi,
    psi_preimage_point,
)


class MalformedPartition(ValueError):
    """Structural invariant of a tagged partition fails."""


class NotACover(ValueError):
    """An operation requiring an exact covering received a non-covering."""


@dataclass(frozen=True, init=False, repr=False)
class TaggedPartition:
    """Cuts 0 = x0 <= x1 <= ... <= xn = 1 with a tag in every cell.

    A frozen dataclass on `ends`, each cut as its reduced (numerator,
    denominator), and `tags`, so equality and hash are those of the pair
    (ends, tags) and no field can be assigned or deleted; the cuts as
    Fractions are built on each read, and repr shows the cuts and tags.
    """

    ends: tuple
    tags: tuple

    def __init__(self, cuts, tags) -> None:
        self._build(tuple((c.numerator, c.denominator) for c in map(Fraction, cuts)), tuple(tags))

    @classmethod
    def from_ends(cls, ends, tags) -> TaggedPartition:
        """The partition whose cuts are n/d for the reduced pairs (n, d), d > 0, of `ends`."""
        part = cls.__new__(cls)
        part._build(tuple(ends), tuple(tags))
        return part

    def _build(self, ends: tuple, tags: tuple) -> None:
        """Hold the ends and tags, then check the invariants on the ends."""
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "tags", tags)
        if len(ends) < 2:
            raise MalformedPartition("need at least the two endpoint cuts")
        if ends[0][0] != 0 or ends[-1][0] != ends[-1][1]:
            raise MalformedPartition(f"cuts must run from 0 to 1, got {self.cuts[0]}..{self.cuts[-1]}")
        if any(an * bd > bn * ad for (an, ad), (bn, bd) in zip(ends, ends[1:])):
            raise MalformedPartition("cuts must be nondecreasing")
        if len(tags) != len(ends) - 1:
            raise MalformedPartition(f"{len(ends) - 1} cells but {len(tags)} tags")
        for i, tag in enumerate(tags):
            if not isinstance(tag, UnitPoint):
                raise MalformedPartition(f"tag {i} is not a point of [0,1]")
            (ln, ld), (hn, hd) = ends[i], ends[i + 1]
            vn, vd = tag.num, tag.den
            if vn is not None:
                # vn/vd against the ends; for vn = a + b*sqrt(2), b nonzero, on the ints a and b
                if type(vn) is int:
                    inside = vn * ld >= ln * vd and vn * hd <= hn * vd
                else:
                    a, b = vn.a, vn.b
                    inside = sqrt2_sign(a * ld - ln * vd, b * ld) > 0 and sqrt2_sign(hn * vd - a * hd, -b * hd) > 0
                if not inside:
                    raise MalformedPartition(f"tag {i} = {pair_str(vn, vd)} outside its cell [{self.cuts[i]},{self.cuts[i + 1]}]")
            else:
                lo, hi = Fraction(ln, ld), Fraction(hn, hd)
                box = tag.approx(24 if tag.prec is None else min(24, tag.prec))
                if box.hi < lo or box.lo > hi:
                    raise MalformedPartition(f"tag {i} verifiably outside its cell [{lo},{hi}]")

    @property
    def cuts(self) -> tuple:
        return tuple(Fraction(n, d) for n, d in self.ends)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(cuts={self.cuts!r}, tags={self.tags!r})"

    def widths(self):
        """(tag, wn, wd) for each cell in order: its width wn/wd taken on
        the cut numerators, over the lcm of the two cuts' denominators."""
        ends = self.ends
        for tag, (an, ad), (bn, bd) in zip(self.tags, ends, ends[1:]):
            wd = lcm(ad, bd)
            yield tag, bn * (wd // bd) - an * (wd // ad), wd


def cover_entry(p, radius: tuple) -> tuple:
    """The keyed entry (space, key, radius) of the cover entry at p with
    the reduced radius (rn, rd), once p is checked to be exact and rn > 0.
    The key is p's (num, den) or pattern; key + radius is its row."""
    if radius[0] <= 0:
        raise ValueError(f"cover radius must be > 0, got {Fraction(*radius)} at {p!r}")
    if isinstance(p, UnitPoint):
        if p.num is None:
            raise ValueError("cover points must be exact")
        return "unit", (p.num, p.den), radius
    if isinstance(p, CantorPoint):
        if p.pattern is None:
            raise ValueError("cover points must be exact")
        return "cantor", p.pattern, radius
    raise ValueError(f"not a point: {p!r}")


def row_point(space: str, row: tuple):
    """The point of a cover row, or of its key."""
    if space == "unit":
        return UnitPoint(row[0], row[1])
    return CantorPoint(pattern=(row[0], row[1]))


class FineCover:
    """Finite set of points with a positive radius each, held as its rows,
    the merged entries on integers in output order: a unit row (num, den,
    rn, rd) is the point num/den, num an int or a QuadVal as in
    `UnitPoint`, with the reduced radius rn/rd, in order of value; a
    sequence-space row (prefix, period, rn, rd) holds a canonical pattern,
    in order of depth-48 cell, then pattern. `points` is built from the
    rows when first read, and `entries()` pairs it with the rows' radii.

    Duplicate points are merged keeping the larger radius (covering and
    fineness both survive: the kept ball contains the dropped one). Points
    must be exact (the searches only ever emit exact sample points) and
    all from one space.
    """

    def __init__(self, entries):
        self.space, self.rows = _merge(cover_entry(p, Fraction(r).as_integer_ratio()) for p, r in entries)

    @classmethod
    def from_keyed(cls, keyed) -> FineCover:
        """The cover of keyed entries (`cover_entry`), merged as `__init__`
        merges its entries."""
        cover = cls.__new__(cls)
        cover.space, cover.rows = _merge(keyed)
        return cover

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def points(self) -> list:
        return [row_point(self.space, row) for row in self.rows]

    def entries(self):
        return [(p, Fraction(row[2], row[3])) for p, row in zip(self.points, self.rows)]

    def __repr__(self) -> str:
        return f"FineCover({self.space}, {len(self.rows)} points)"


def _merge(keyed) -> tuple[str, list]:
    """The space and the rows, in output order, of keyed entries (space,
    key, radius): the entries of one key merge to the largest radius."""
    merged: dict = {}  # key -> row
    space = None
    for here, key, (rn, rd) in keyed:
        if here != space:
            if space is not None:
                raise ValueError("cover mixes points from both spaces")
            space = here
        old = merged.get(key)
        if old is None or rn * old[3] > old[2] * rd:
            merged[key] = (*key, rn, rd)
    if space is None:
        raise ValueError("a cover needs at least one point")
    out = list(merged.values())
    out.sort(key=_value_key(out) if space == "unit" else lambda row: (pattern_index(row[0], row[1], 48), row))
    return space, out


@dataclass(frozen=True)
class Obstruction:
    """Regions a search at `stage` could not resolve by its depth limit.

    A region survives its level when its region bound ruled out
    acceptance, when every sample said No, or when some sample said
    Unknown. It is reported as unresolved, never refuted: finitely many
    samples saying No do not refute the existential test, and a bound
    speaks only for the region's own level, so a No verdict here would
    be dishonest.
    """

    unresolved: tuple
    stage: int
    depth_reached: int
    space: str


def _cmp_value(p: tuple, q: tuple) -> int:
    """The sign of p - q for tuples that start with the (num, den) of exact
    unit points: num den' - num' den, whose sign `sqrt2_sign` reads."""
    x = p[0] * q[1] - q[0] * p[1]
    return sqrt2_sign(x.a, x.b) if type(x) is QuadVal else (x > 0) - (x < 0)


def _value_key(items: list):
    """A sort key by value for tuples that start with the (num, den) of an
    exact unit point, such as cover rows. With int numerators it is the
    integer (n << k) // d, for k past twice the bit length of the largest d:
    two distinct values differ by more than 2^-k, so their keys differ the
    same way, and equal values tie. Else it is `_cmp_value`."""
    if all(type(x[0]) is int for x in items):
        k = 2 * max((x[1].bit_length() for x in items), default=0) + 1
        return lambda x: (x[0] << k) // x[1]
    return cmp_to_key(_cmp_value)


def _sweep(cover: FineCover) -> tuple[list, Optional[Fraction]]:
    """One pass over a unit cover's balls in the cover's order, by centre.

    Returns the rows of the balls that meet [0,1] and that no other ball
    contains, in ascending order of both ends, and the witness of the first
    gap in [0,1] (None when the balls cover it): the simplest dyadic
    rational between the covered reach and the next left end. A ball that
    meets [0,1] in at most an endpoint is skipped: one with hi = 0 never
    extends the reach, and one with lo = 1 can only set the gap to 1, the
    bound the witness takes anyway.

    The kept balls form a stack that rises in both ends. A ball whose
    right end is no larger than the top's lies inside the top, since its
    centre is no smaller, and is skipped; otherwise the kept balls whose
    left end is no smaller than its own lie inside it and are popped. Every
    ball seen lies inside one on the stack, so the stack ends as the balls
    no other contains. The covering sweep then runs over the kept balls
    only: a dropped ball lies inside a kept one, so it never extends the
    reach, and the first left end past the reach is a kept ball's.

    A sweep row (lo, hi, d, c, row) holds the ball's ends and centre as
    numerators over the row's own denominator d, the lcm of the centre's
    and the radius's, so its integers stay the size of one row whatever
    the cover, and the cover row it came from. Rows compare by
    cross-multiplication. A quadratic centre's numerator is a QuadVal on
    two ints, which multiplies, subtracts and compares like an int, and
    the witness's floor is taken on its ints too.
    """
    kept = []
    for row in cover.rows:
        vn, vd, rn, rd = row
        d = lcm(vd, rd)
        c, s = vn * (d // vd), rn * (d // rd)
        lo, hi = c - s, c + s
        if hi <= 0 or lo >= d:
            continue
        if kept:
            if hi * kept[-1][2] <= kept[-1][1] * d:
                continue  # inside the last kept ball
            while kept and kept[-1][0] * d >= lo * kept[-1][2]:
                kept.pop()  # the last kept ball is inside this one
        kept.append((lo, hi, d, c, row))
    reach, reach_d, gap = 0, 1, None  # [0, reach/reach_d] is covered up to the first gap
    for row in kept:
        lo, hi, d = row[0], row[1], row[2]
        if lo * reach_d > reach * d:
            gap = row
            break
        reach, reach_d = hi, d
    if reach >= reach_d:
        return kept, None
    # every row starts below 1, so the gap does too
    nxt = (1, 1) if gap is None else (gap[0], gap[2])
    return kept, Fraction(*simplest_dyadic_between(reach, reach_d, *nxt))


def uncovered_witness(cover: FineCover):
    """An explicit point missed by the cover, or None if it covers everything.

    Unit side: exact sweep over the closed balls; the witness is the
    simplest dyadic rational in the first gap. Cantor side: leftmost
    unresolved cell of the binary tree of cylinders.
    """
    if cover.space == "unit":
        return _sweep(cover)[1]
    # the ball B(p, r) is the cylinder of depth m at p (`cylinder_for_ball`),
    # here the node (1 << m) | index of the binary tree, whose children are
    # 2u and 2u + 1; a node's depth is its bit length less one
    cells, depths = set(), {}  # depths: radius pair -> m
    for prefix, period, rn, rd in cover.rows:
        if (m := depths.get((rn, rd))) is None:
            m = depths[rn, rd] = ceil_log_recip(Fraction(rn, rd))
        cells.add((1 << m) | pattern_index(prefix, period, m))
    deepest = max(cells).bit_length() - 1

    # depth-first, left branch first; a cell is only pushed when no cell
    # above it is a cylinder of the cover, so checking the cell alone
    # tells whether it is covered
    stack = [1]
    while stack:
        u = stack.pop()
        if u in cells:
            continue
        if u >> deepest:
            return CantorPoint.from_pattern(bin(u)[3:], "0")
        stack += (2 * u + 1, 2 * u)
    return None


def _run_box(g: GaugeCode, x, stage: int) -> Optional[tuple]:
    """The query triple at `stage` of a row whose point is not a rational
    unit point, when it may join a run: a quadratic point inside [0,1]
    under a continuous code, or an eventually periodic sequence. Else None,
    and the row keeps its own verdict: an approximant, whose box narrows as
    it is asked; a point outside [0,1] or of the other space, which its
    verdict rejects; a quadratic point under a direct code, whose kernel
    reads the point itself and may reject it; a rule-only sequence, whose
    bits are read only as far as its verdict asks. A cover row x, of g's
    space as `check_cover` passes it, is read as its point."""
    if g.domain == "unit":
        x = row_point("unit", x) if type(x) is tuple else x
        if type(x) is UnitPoint and type(x.num) is QuadVal and g.kind == "continuous":
            a, b = x.num.a, x.num.b
            if sqrt2_sign(a, b) > 0 and sqrt2_sign(x.den - a, -b) > 0:
                return _point_region(x, stage, "unit")
        return None
    x = x.pattern if type(x) is CantorPoint else x if type(x) is tuple else None
    return None if x is None else rt_cell(pattern_index(x[0], x[1], stage), stage)


def _hull(g: GaugeCode, rows: list, i: int, end: int, stage: int, boxes: dict) -> tuple:
    """(j, hull, bn, bd) for the run rows[i:j], which stops at `end` or at
    the first row that keeps its own verdict: the hull of the rows' query
    triples at `stage`, and the largest bound bn/bd. The ends and the bound
    are kept as (n, d) pairs and compared by cross-multiplication, so the
    integers stay the size of one row. A rational unit row's triple is read
    off its point or its cover row; any other row's `_run_box` is kept in
    `boxes` by index."""
    unit = g.domain == "unit"
    ln, ld, hn, hd, bn, bd = 1, 0, -1, 0, -1, 0  # +inf, -inf, -inf as n/0
    for j in range(i, end):
        x, qn, qd = rows[j]
        if qn < 0:
            break
        if type(x) is tuple:
            lo, d = x[0], x[1]
        elif type(x) is UnitPoint:
            lo, d = x.num, x.den
        else:
            lo = None
        if unit and type(lo) is int:
            hi = lo
            if lo < 0 or lo > d:
                break
        else:
            if j not in boxes:
                boxes[j] = _run_box(g, x, stage)
            box = boxes[j]
            if box is None:
                break
            lo, hi, d = box
        if lo * ld < ln * d:
            ln, ld = lo, d
        if hi * hd > hn * d:
            hn, hd = hi, d
        if qn * bd > bn * qd:
            bn, bd = qn, qd
    else:
        j = end
    return j, (ln * hd, hn * ld, ld * hd), bn, bd


def check_fineness(g: GaugeCode, bounds, stage: int) -> tuple[Verdict, Optional[int]]:
    """Check "gauge at x >= qn/qd" for each triple (x, qn, qd) in order, an
    int numerator over a positive int denominator, not necessarily reduced,
    stopping at the first No. x is a point, or a cover row of g's space,
    whose point is built only for a verdict of its own.

    Returns the worst verdict (No, else Unknown if any, else Yes) and the
    index of the triple that said No, or None.

    A code with a region kernel accepts a run of consecutive rows at once
    when the region's lower end over the hull of the rows' query triples at
    `stage` is >= the run's largest bound. Each row's verdict would be Yes:
    its last rung reads the kernel on its own triple, inside the hull,
    which the region encloses, and a sound code says No at no earlier rung.
    The runs gallop: the first is the whole list; a run that passes is
    skipped and the next is twice as long, one that fails is halved, and at
    length 1 the row takes its own verdict and the next run has length 2.
    So the region only ever says Yes, and every No and Unknown, with its
    index, comes from the row's own verdict. A row with a negative bound,
    or one that `_run_box` turns away, ends a run and takes its own
    verdict, so an error it raises is raised at its own index. A limit
    code's region bounds its stage block, which is what its verdict reads
    (`gauges._LimitCode`). A region of None has no bound at this stage, on
    any hull, so every row from there takes its own verdict, as do all rows
    of a code with no region kernel.
    """
    worst = Verdict.YES
    rows, boxes = list(bounds), {}
    i, n = 0, len(rows)
    size = n if g.region is not None and stage >= 0 else 0  # the next run's length; 0 asks every row
    while i < n:
        if size > 1:
            j, hull, bn, bd = _hull(g, rows, i, min(n, i + size), stage, boxes)
            if j - i > 1:
                box = g.region(hull, stage)
                if box is None:  # no bound at this stage, on any hull
                    size = 0
                elif box[0] * bd >= bn * box[2]:
                    i, size = j, 2 * size
                else:
                    size = (j - i) // 2
                continue
        x, qn, qd = rows[i]
        v = _verdict(g, row_point(g.domain, x) if type(x) is tuple else x, qn, qd, stage, False)
        if v is Verdict.NO:
            return v, i
        if v is Verdict.UNKNOWN:
            worst = v
        i += 1
        if size:
            size = max(size, 2)
    return worst, None


def verify_partition(g: GaugeCode, part: TaggedPartition, stage: int) -> Verdict:
    """Is every cell within the gauge at its tag? Yes / No / Unknown."""
    return check_partition(g, part, stage)[0]


def check_partition(g: GaugeCode, part: TaggedPartition, stage: int) -> tuple[Verdict, Optional[int]]:
    """`check_fineness` on the partition's cells, each width against the
    gauge at its tag. A partition lives on [0,1], so a sequence-space code
    is a DomainError."""
    if g.domain != "unit":
        raise DomainError("partitions live on the unit interval")
    return check_fineness(g, part.widths(), stage)


def check_cover(g: GaugeCode, cover: FineCover, stage: int) -> tuple:
    """(witness, verdict, index): `uncovered_witness`, No and None when
    there is a witness, else None and `check_fineness` on the cover's rows.
    A cover of the other space than g's is a DomainError, gap or none."""
    if cover.space != g.domain:
        raise DomainError(f"cover is on {cover.space}, gauge on {g.domain}")
    witness = uncovered_witness(cover)
    if witness is not None:
        return witness, Verdict.NO, None
    return None, *check_fineness(g, [(row, row[2], row[3]) for row in cover.rows], stage)


def verify_cover(g: GaugeCode, cover: FineCover, stage: int) -> Verdict:
    """Exact covering check, then per-point radius-below-gauge verdicts."""
    return check_cover(g, cover, stage)[1]


def partition_to_cover(part: TaggedPartition) -> FineCover:
    """Tags become cover points with twice the cell width as radius; cells
    of width 0 carry no ball."""
    return FineCover([(tag, Fraction(2 * wn, wd)) for tag, wn, wd in part.widths() if wn])


def _minimal_rows(cover: FineCover, caller: str) -> list:
    """The rows of `_sweep` for a unit cover that must cover [0,1]; errors name `caller`."""
    if cover.space != "unit":
        raise ValueError(f"{caller} works on unit-interval covers")
    kept, witness = _sweep(cover)
    if witness is not None:
        raise NotACover("input does not cover [0,1]")
    return kept


def minimize_cover(cover: FineCover) -> FineCover:
    """Drop every ball that meets [0,1] in at most an endpoint or lies
    inside another; the covering must survive intact."""
    return FineCover.from_keyed(("unit", row[4][:2], row[4][2:]) for row in _minimal_rows(cover, "minimize_cover"))


def _cut(lo, lo_d: int, hi, hi_d: int) -> tuple[int, int]:
    """The cut in the overlap [lo/lo_d, hi/hi_d] of two neighbours, with
    lo/lo_d <= hi/hi_d, as a reduced (n, d): the midpoint when it is
    rational, else the simplest dyadic rational strictly inside. The ends'
    numerators are ints or QuadVals, and so is the midpoint's."""
    x, y = lo * hi_d, hi * lo_d
    m, d = x + y, 2 * lo_d * hi_d  # the midpoint is m / d
    if type(m) is QuadVal:
        if m.b:
            if x == y:
                raise NotACover(f"overlap degenerates to the irrational point {pair_str(lo, lo_d)}")
            return simplest_dyadic_between(lo, lo_d, hi, hi_d)
        m = m.a
    k = gcd(m, d)
    return m // k, d // k


def cover_to_partition(cover: FineCover) -> TaggedPartition:
    """Minimized cover points become tags; cuts split the neighbor overlaps.

    Cut choice: the midpoint of the overlap when it is rational, else the
    simplest dyadic rational strictly inside (cover points may be exact
    quadratic irrationals; cuts must stay rational). A kept ball centred
    outside [0,1] is a NotACover, since its centre cannot be a tag. The
    overlaps are compared on the rows' numerators, and the partition is
    built from its cuts' integer ends.
    """
    rows = _minimal_rows(cover, "cover_to_partition")
    for _, _, d, c, (vn, vd, _, _) in rows:
        if not 0 <= c <= d:
            raise NotACover(f"ball centred at {pair_str(vn, vd)} outside [0,1] cannot tag a cell")
    ends = [(0, 1)]
    for (_, hi0, d0, c0, p0), (lo1, _, d1, c1, p1) in zip(rows, rows[1:]):
        # the overlap [max(centre 0, left end 1), min(centre 1, right end 0)]
        lo, lo_d = (c0, d0) if c0 * d1 >= lo1 * d0 else (lo1, d1)
        hi, hi_d = (c1, d1) if c1 * d0 <= hi0 * d1 else (hi0, d0)
        if lo * hi_d > hi * lo_d:
            raise NotACover(f"adjacent balls at {pair_str(p0[0], p0[1])} and {pair_str(p1[0], p1[1])} fail to overlap")
        ends.append(_cut(lo, lo_d, hi, hi_d))
    ends.append((1, 1))
    return TaggedPartition.from_ends(ends, [row_point("unit", row[4]) for row in rows])


# -- subdivision searches ------------------------------------------------


def _checked_hints(g: GaugeCode, hints, space: str) -> list:
    """The search hints as a new list, once the code is checked to live on
    `space` and every hint to be an exact point of it."""
    if g.domain != space:
        raise DomainError(f"{space} search got a {g.domain} code")
    point_type = UnitPoint if space == "unit" else CantorPoint
    for h in hints or ():
        if not isinstance(h, point_type) or (h.num if space == "unit" else h.pattern) is None:
            raise ValueError(f"{space} search hints must be exact points of that space, got {h!r}")
    return list(hints or ())


def _subdivide(g: GaugeCode, depth: int, stage: int, strict: bool, samples, regions, first=None):
    """Breadth-first search over the binary tree of cells, for both spaces.

    Cell i at level l, of width w = 2^-l, is accepted on the first of
    `samples(i, l)` whose verdict "gauge > w" (strict) or "gauge >= w" is
    Yes, giving the cover entry (sample, w), w as the pair (1, 2^l);
    otherwise cells 2i and 2i+1 go on to level l+1. Cells left at `depth`
    form an Obstruction of `regions`. The unit search alone passes
    `first(i, l)`, the cover key of the cell's first sample if no hint lies
    in it, else None.

    Branch and bound, for a code with a region kernel: one region
    evaluation at `stage` on the triple `rt_cell(i, l)`, in either space,
    encloses the code on the whole cell as (lo, hi, d), and the cell's
    children inherit both ends. An end passes the test when lo << l
    beats d (> strict, >= non-strict). A cell evaluates anew only when it
    inherits nothing, or an upper end that passes with a lower end that
    does not. When the upper end fails, no sample could get the Yes, so the
    cell survives unsampled. When the lower end passes, a sample whose own
    query region lies inside the cell (a rational one on [0,1]; any one of
    a cylinder at level <= stage) is taken without a verdict: the enclosure
    holds that query's at `stage`, so its verdict would be Yes by that
    rung. On [0,1], with no hint in the cell, that is `first(i, l)`, whose
    row is built from its key with no point; a hint before it, such as a
    quadratic one, is still asked. A cylinder takes its first sample,
    hinted or not. Either way the covers and obstructions are those of the
    plain sample-only walk.

    Limit codes are sampled cell by cell, though they have a region: its
    pad is at least one term's spread over the whole cell, which at the
    cell's own scale is about the width the gauge must beat, so it seldom
    decides a cell and would cost each cell one more block evaluation.
    Their verdicts are asked in the order of the sample-only walk.
    """
    if depth < 1:
        raise ValueError("need depth >= 1")
    if stage < 0:
        raise ValueError("stage must be >= 0")
    # looked up per call: the names may be rebound to instrumented wrappers
    verdict = verified_above if strict else verified_at_least
    passes = gt if strict else ge  # lo << level vs d: the end lo/d passes the cell's test
    region, unit = None if isinstance(g, _LimitCode) else g.region, g.domain == "unit"
    keyed = []
    frontier = [(0, None)]  # (cell index at the current level, enclosure (lo, hi, d) of the gauge there)
    for level in range(depth + 1):
        w, radius = pow2(-level), (1, 1 << level)
        survivors = []
        for i, box in frontier:
            lower = False  # the lower end passes, with samples' queries inside the cell
            if region is not None:
                if box is None or passes(box[1] << level, box[2]) and not passes(box[0] << level, box[2]):
                    box = region(rt_cell(i, level), stage)
                if box is not None:  # None: a limit code under a modulus met a term with no region
                    lo, hi, d = box
                    if not passes(hi << level, d):
                        survivors.append((i, box))
                        continue
                    lower = passes(lo << level, d) and (unit or level <= stage)
                    # `first` spares the common cell a samples generator: about 8% of perfbench search rows/s (2-core host)
                    if lower and first and (key := first(i, level)) is not None:
                        keyed.append((g.domain, key, radius))
                        continue
            for m in samples(i, level):
                if lower and (not unit or m.is_rational) or verdict(g, m, w, stage) is Verdict.YES:
                    keyed.append(cover_entry(m, radius))
                    break
            else:
                survivors.append((i, box))
        if not survivors:
            return FineCover.from_keyed(keyed)
        if level == depth:
            return Obstruction(tuple(regions([i for i, _ in survivors], level)), stage, depth, g.domain)
        frontier = [(c, box) for i, box in survivors for c in (2 * i, 2 * i + 1)]
    raise AssertionError("unreachable")


def find_cover_unit(g: GaugeCode, depth: int, stage: int, hints=()) -> Union[FineCover, Obstruction]:
    """Subdivide [0,1] into dyadic cells until the gauge verifiably beats
    each cell's width at some sample point.

    Cell i at level l is [i 2^-l, (i+1) 2^-l]. It is accepted on the first
    sample m (in-cell hints in ascending order, then midpoint, then
    endpoints) with the strict verdict gauge(m) > 2^-l, and contributes the
    entry (m, 2^-l). Cells still unaccepted at `depth` come back as an
    Obstruction of merged dyadic runs. Codes with a region kernel are
    bounded on whole cells first (see `_subdivide`).

    Each sample (2i+1, 2i or 2i+2) 2^-(l+1) is built from the cell's
    integers when it is tried. In-cell hints are found by bisection on the
    hints sorted by value, each compared with a cell end on its pair.
    """
    hints = _checked_hints(g, hints, "unit")
    key = _value_key([(h.num, h.den) for h in hints])
    hints.sort(key=lambda h: key((h.num, h.den)))

    def hinted(i: int, level: int):
        # the hints h with i/n <= h <= (i+1)/n: the first at or past i/n up to the first past (i+1)/n
        n = 1 << level
        return hints and hints[
            bisect_left(hints, True, key=lambda h: h.num * n >= i * h.den) :
            bisect_left(hints, True, key=lambda h: h.num * n > (i + 1) * h.den)
        ]

    def first(i: int, level: int):
        return None if hinted(i, level) else (2 * i + 1, 2 << level)

    def samples(i: int, level: int):
        in_cell = hinted(i, level)
        yield from in_cell
        for k in (2 * i + 1, 2 * i, 2 * i + 2):
            s = (k & -k).bit_length() - 1 if k else level + 1  # the power of two k and 2 << level share
            cand = UnitPoint(k >> s, (2 << level) >> s)
            if cand not in in_cell:
                yield cand

    return _subdivide(g, depth, stage, True, samples, dyadic_runs, first)


def find_cover_cantor(g: GaugeCode, depth: int, stage: int, hints=()) -> Union[FineCover, Obstruction]:
    """Breadth-first over cylinders: accept [sigma] once the gauge at some
    sample point of the cylinder is verifiably >= its width 2^-|sigma|.

    Cell i at level l is Cylinder(i, l), the sequence-space twin of the
    dyadic cell that phi maps it onto. Samples are in-cylinder hints first,
    then the two constant-tail extensions. Accepted cylinders contribute
    (sample, 2^-|sigma|); survivors at `depth` form the Obstruction, sorted
    by index. Codes with a region kernel are bounded on whole cylinders
    first, and a cylinder whose lower end passes takes its first sample,
    hinted or not, with no verdict (see `_subdivide`). In-cylinder hints
    are found by bisection on the hints' sorted depth-48 cells, and past
    depth 48 filtered by their own cell.
    """
    hints = sorted(_checked_hints(g, hints, "cantor"), key=lambda h: (h.index(48), h.pattern))
    keys = [h.index(48) for h in hints]

    def hinted(i: int, level: int):
        # the hints whose depth-48 cell lies in Cylinder(i, level), or past depth 48 contains it
        shift = 48 - level
        lo = i << shift if shift >= 0 else i >> -shift
        in_cell = hints[bisect_left(keys, lo) : bisect_left(keys, lo + (1 << max(shift, 0)))]
        return [h for h in in_cell if h.index(level) == i] if shift < 0 else in_cell

    def samples(i: int, level: int):
        in_cell = hinted(i, level)
        yield from in_cell
        prefix = Cylinder(i, level).prefix
        for tail in "01":
            cand = CantorPoint.from_pattern(prefix, tail)
            if cand not in in_cell:
                yield cand

    def regions(cells, level: int) -> list:
        return [Cylinder(i, level) for i in cells]

    return _subdivide(g, depth, stage, False, samples, regions)


# -- transfers of covers between the spaces ------------------------------


def transfer_cover_phi(cover: FineCover) -> FineCover:
    """Push a sequence-space cover through the binary-expansion map.

    phi is 1-Lipschitz onto [0,1], so the image points with unchanged radii
    cover the interval and stay fine for the gauge the pullback was built
    from.
    """
    if cover.space != "cantor":
        raise ValueError("phi transfer pushes sequence-space covers forward")
    return FineCover([(phi(p), r) for p, r in cover.entries()])


def transfer_cover_psi(cover: FineCover) -> FineCover:
    """Pull a unit-interval cover back to the sequence space through psi.

    Entries whose ball verifiably misses the middle-thirds set C are
    dropped (psi's image never meets them). An entry at a point of C with
    radius r yields the cylinder of depth ceil(log3 1/r) - 1 at the psi
    preimage: points of C within r agree with the anchor on that many
    ternary digits, hence on that many bits upstairs. An entry centered
    off C but touching it is anchored at the leftmost C point of its ball,
    with the depth derived from the doubled radius.
    """
    if cover.space != "unit":
        raise ValueError("psi transfer pulls unit-interval covers back")
    entries = []
    for p, r in cover.entries():
        if not p.is_rational:
            raise ValueError(f"psi transfer needs rational cover points, got {pair_str(p.num, p.den)}")
        v = p.exact
        lo, hi = max(v - r, Fraction(0)), min(v + r, Fraction(1))
        if lo > hi:
            continue  # ball entirely outside [0,1]
        d = dist_to_cantor(min(max(v, Fraction(0)), Fraction(1)))
        if d == 0 and 0 <= v <= 1:
            anchor, reach = v, r
        else:
            w = leftmost_cantor_ge(lo)
            if w > hi:
                continue  # ball misses the set entirely
            anchor, reach = w, 2 * r
        m = ceil_log_recip(min(reach, Fraction(1)), 3)
        entries.append((psi_preimage_point(anchor), pow2(-max(m - 1, 0))))
    if not entries:
        raise NotACover("no cover entry touches the middle-thirds set")
    return FineCover(entries)
