"""Showcase gauges whose search behavior exhibits what fine covers can and
cannot do: the open-cover series gauge with its finite-subcover extraction,
the Cauchy-gap gauge whose obstruction chases a missing limit, and the
pinned-point gauge on the sequence space that hides one point from
unhinted search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional, Union

from .covers import FineCover, Obstruction, find_cover_cantor, find_cover_unit
from .exact import (
    Interval,
    floor_log_recip,
    pow2,
    rt_add,
    rt_geom_tail,
    rt_into_sum,
    rt_into_terms,
    rt_scale,
)
from .gauges import (
    Baire1Code,
    ContinuousCode,
    DirectCode,
    Verdict,
    eval_enclosure,
    kernel_dist,
    modulus_limit,
)
from .spaces import CantorPoint, Cylinder, UnitPoint


class UnexpectedCover(RuntimeError):
    """A search succeeded where the construction proves it must not."""


class GalleryFalsification(RuntimeError):
    """A verified postcondition of a demo failed; something is deeply wrong."""


# -- open covers and the series gauge ------------------------------------


@dataclass(frozen=True)
class OpenCoverSpec:
    """Open rational intervals: a finite head, then an optional tail rule
    n -> (center, radius) for all n past the head. Tail radii must lie in
    (0, 1] for the series tail bound; the first few are checked, and a
    later radius above 1 is clipped to 1. The clipped interval lies inside
    the stated one, so a union of clipped intervals that covers a set, as
    found by check_star and finite_subcover, also covers it in the stated
    family.
    """

    head: tuple
    tail: Optional[Callable[[int], tuple]] = None

    def __post_init__(self) -> None:
        head = tuple((Fraction(a), Fraction(b)) for a, b in self.head)
        object.__setattr__(self, "head", head)
        for a, b in head:
            if a >= b:
                raise ValueError(f"empty open interval ({a},{b})")
        if self.tail is not None:
            for n in range(len(head), len(head) + 8):
                c, r = self.tail(n)
                if not 0 < Fraction(r) <= 1:
                    raise ValueError(f"tail radius at {n} must be in (0,1], got {r}")

    def interval(self, n: int):
        if n < len(self.head):
            return self.head[n]
        if self.tail is None:
            return None
        c, r = self.tail(n)
        c, r = Fraction(c), min(Fraction(r), Fraction(1))
        return (c - r, c + r)

    def intervals_upto(self, k: int) -> list:
        out = []
        for n in range(k + 1):
            got = self.interval(n)
            if got is None:
                break
            out.append(got)
        return out


_QUARTER = Fraction(1, 4)


def heine_borel_gauge(cov: OpenCoverSpec) -> ContinuousCode:
    """The weighted depth-series gauge: quarter of sum 2^-n * (distance
    from x into the n-th interval's interior).

    Finite families sum exactly. With a tail rule, terms past the working
    bound contribute [0, 2^-K] (each distance-into is at most its radius,
    at most 1), scaled by the same quarter. The intervals up to each
    working bound are put over common denominators once and kept, and the
    series is summed in integers.
    """
    prepared: dict = {}  # working bound -> rt_into_terms of the intervals up to it

    def kernel(r: tuple, k: int) -> tuple:
        bound = k + 2
        terms = prepared.get(bound)
        if terms is None:
            terms = prepared[bound] = rt_into_terms(cov.intervals_upto(bound))
        total = rt_into_sum(r, terms)
        if cov.tail is not None:
            total = rt_add(total, rt_geom_tail(bound))
        return rt_scale(_QUARTER, total)

    return ContinuousCode(kernel, domain="unit", label="open-cover-series")


def _merge_open(intervals) -> list:
    """Connected components of a union of open intervals. Touching
    endpoints do NOT merge: (0,1) and (1,2) jointly miss the point 1."""
    rest = sorted(intervals)
    if not rest:
        return []
    out = [rest[0]]
    for a, b in rest[1:]:
        pa, pb = out[-1]
        if a < pb:
            out[-1] = (pa, max(pb, b))
        else:
            out.append((a, b))
    return out


def _component_containing(components, lo, hi) -> bool:
    return any(a <= lo and hi <= b for a, b in components)


_STAR_STAGES = (4, 8, 16, 32, 64)


def check_star(cov: OpenCoverSpec, g: ContinuousCode, p, k: int) -> Verdict:
    """The covering property behind finite subcovers: if the gauge at p
    exceeds 2^-k then the ball of that radius sits inside the union of the
    first k+1 intervals. Yes or Unknown only; a No would refute the
    construction itself.
    """
    p = Fraction(p)
    thr = pow2(-k)
    comps = _merge_open(cov.intervals_upto(k))
    x = UnitPoint.from_rat(p)
    for s in _STAR_STAGES:
        box = eval_enclosure(g, x, s)
        if _component_containing(comps, p - box.hi, p + box.hi):
            return Verdict.YES  # conclusion holds outright
        if box.hi <= thr:
            return Verdict.YES  # premise verifiably fails
        # straddling threshold with too-wide ball: try a tighter stage
    return Verdict.UNKNOWN


def finite_subcover(cov: OpenCoverSpec, cover: FineCover, stage: int = 16, g: Optional[ContinuousCode] = None) -> int:
    """Index k such that the first k+1 intervals already cover [0,1].

    k is the max over cover points of the least exponent the gauge
    verifiably beats; the union is then checked exactly and the result
    only returned when the check passes. g is heine_borel_gauge(cov),
    built here unless the caller already has it.
    """
    g = heine_borel_gauge(cov) if g is None else g
    stages = sorted({max(s, stage) for s in _STAR_STAGES})
    k = 0
    for p in cover.points:
        kp = None
        for s in stages:
            box = eval_enclosure(g, p, s)
            if box.lo > 1:
                kp = 0
                break
            if box.lo > 0:
                kp = floor_log_recip(box.lo) + 1
                break
        if kp is None:
            raise GalleryFalsification(f"gauge not verifiably positive at cover point {p}")
        k = max(k, kp)
    for kk in range(k, k + 17):
        comps = _merge_open(cov.intervals_upto(kk))
        if _component_containing(comps, Fraction(0), Fraction(1)):
            return kk
    raise GalleryFalsification(f"first {k + 17} intervals fail the exact union check")


# -- the Cauchy-gap gauge ------------------------------------------------


@dataclass(frozen=True)
class CauchySpec:
    """Increasing rational sequence with an explicit Cauchy modulus.

    term(n) for n >= 0; modulus(j) = N with |term(n) - term(m)| <= 2^-j
    for all n, m >= N. The limit is never below a term.
    """

    term: Callable[[int], Fraction]
    modulus: Optional[Callable[[int], int]] = None
    label: str = ""


def _ceil_sqrt(j: int) -> int:
    r = isqrt(j)
    return r if r * r == j else r + 1


def _gap_term(n: int) -> Fraction:
    top = (n + 1) ** 2  # the sum of 2^-(i^2), i = 1..n+1, as one integer over 2^top
    return Fraction(sum(1 << (top - i * i) for i in range(1, n + 2)), 1 << top)


def default_cauchy_spec() -> CauchySpec:
    """z_n = sum of 2^(-i^2) for i = 1..n+1: increasing, gaps shrink as
    2^(-(n+2)^2), limit irrational so it never lands on a dyadic cut."""
    return CauchySpec(_gap_term, modulus=_ceil_sqrt, label="gap")


def gap_limit_point(spec: CauchySpec = None) -> UnitPoint:
    """The (unreachable by rationals of the sequence) limit, as an opaque
    point: at precision k, term N(k) is within 2^-k of the limit."""
    spec = spec or default_cauchy_spec()
    if spec.modulus is None:
        raise ValueError("need a modulus to approximate the limit")

    def fn(k: int) -> Interval:
        n = spec.modulus(k)
        v = spec.term(n)
        return Interval(v, v + pow2(-k))  # increasing: the limit is not below v

    return UnitPoint.from_fn(fn, label=f"limit-{spec.label or 'seq'}")


def cauchy_gap_gauge(spec: CauchySpec) -> Union[DirectCode, Baire1Code]:
    """Stage-n gauge |x - z_n|, within |z_n - z*| of the limit gauge
    |x - z*| at every x, which vanishes exactly at the missing limit. With
    a modulus the limit is uniform, a point code with a region; without,
    a Baire1Code. Term indices are 1-based, hence the shift; terms are
    labelled by index, as z_n has a denominator of 2^((n+1)^2)."""

    def term(t: int) -> ContinuousCode:
        return ContinuousCode(kernel_dist([spec.term(t - 1)]), label=f"dist-z{t - 1}")

    label = f"gap-{spec.label or 'seq'}"
    if spec.modulus is None:
        return Baire1Code(term, domain="unit", label=label)
    return modulus_limit(term, lambda j: spec.modulus(j) + 1, domain="unit", label=label)


def gap_obstruction_demo(spec: CauchySpec, depth: int, stage: int) -> Obstruction:
    """Search for a fine cover and report where it must fail: a single
    dyadic run of width at most 4 cells around the missing limit."""
    g = cauchy_gap_gauge(spec)
    got = find_cover_unit(g, depth, stage)
    if isinstance(got, FineCover):
        raise UnexpectedCover(
            f"cover of {len(got)} balls found for the gap gauge at depth {depth}"
        )
    if len(got.unresolved) != 1:
        raise GalleryFalsification(
            f"expected one unresolved run, got {len(got.unresolved)}"
        )
    run = got.unresolved[0]
    if run.width > pow2(-depth + 2):
        raise GalleryFalsification(f"unresolved run too wide: {run.width}")
    return got


# -- the pinned-point gauge on the sequence space ------------------------


@dataclass(frozen=True)
class OracleSpec:
    """One distinguished point of the sequence space, hidden from searches
    unless passed as a hint."""

    Z: CantorPoint


def pin_index(spec: OracleSpec, x: CantorPoint, bound: int = 0) -> Optional[int]:
    """f(x) = 1 + first bit where x disagrees with Z, 0 at Z itself;
    None when no disagreement shows up within the scan bound."""
    z = spec.Z
    if x == z:
        return 0
    limit = bound
    if x.pattern is not None and z.pattern is not None:
        px, qx = len(x.pattern[0]), len(x.pattern[1])
        pz, qz = len(z.pattern[0]), len(z.pattern[1])
        q = qx * qz // gcd(qx, qz)
        limit = max(limit, max(px, pz) + q + 2)
    for i in range(limit):
        if x.bit(i) != z.bit(i):
            return i + 1
    return None


def oracle_pin_gauge(spec: OracleSpec) -> DirectCode:
    """2^-f(x) with f the first-disagreement index against Z, and 1 at Z.

    When the scan bound b is too small to find the disagreement, x is
    either Z (value 1) or disagrees past bit b (value at most 2^-(b+1)),
    so the evaluator answers the hull [0, 1]. That enclosure is exactly
    what hides Z's neighborhood from unhinted searches.

    The region of a triple (lo, hi, 2^m), a dyadic cell or a hull of
    such cells, reads the prefix shared by the depth-m cylinders it spans,
    cut to the scan bound. If that prefix leaves Z at bit i, every point
    there has f = i + 1, found by the kernel's scan, and the region is the
    exact point 2^-(i+1); else, and on any other triple, it is [0, 1].
    Every prefix of Z reads [0, 1], so the region names no more of Z than
    the kernel does, while pin covers verify in runs and the searches take
    every cylinder off Z on its region.
    """
    z = spec.Z

    def kernel(x: CantorPoint, stage: int) -> tuple:
        bound = max(stage, 8)
        f = pin_index(spec, x, bound=bound)
        if f == 0:
            return 1, 1, 1
        if f is None:
            return 0, 1, 1  # the hull of {1} and [0, 2^-(bound+1)]
        return 1, 1, 1 << f  # 2^-f

    def region(r: tuple, stage: int) -> tuple:
        lo, hi, d = r
        if d & (d - 1) or not 0 <= lo < hi <= d:
            return 0, 1, 1
        # the cylinders lo .. hi - 1 at depth m share the bits above the highest where lo and hi - 1 differ
        m = d.bit_length() - 1
        t = min(m - (lo ^ (hi - 1)).bit_length(), max(stage, 8))
        off = (lo >> (m - t)) ^ z.index(t)
        if not off:
            return 0, 1, 1  # Z, every 2^-f, and the kernel's hull
        return 1, 1, 1 << (t - off.bit_length() + 1)  # 2^-(i+1), i the first bit off Z

    return DirectCode(kernel, domain="cantor", label="pin", region=region)


def oracle_pin_demo(spec: OracleSpec, depth: int, stage: int) -> FineCover:
    """Two runs of the same search. Without the hint, every cylinder along
    Z survives to the depth limit: the gauge cannot be verified large on a
    neighborhood it cannot name. With the hint, Z's own gauge value 1
    accepts the root.

    The blind half only demonstrates anything when the search cannot name
    Z by accident. Its canonical samples are the constant-tail extensions,
    so an eventually constant Z is exactly what they would hit.
    """
    pat = getattr(spec.Z, "pattern", None)
    if pat is None or len(set(pat[1])) < 2:
        raise ValueError(
            "demo needs a pinned point with both bits in its period; "
            "an eventually constant point is one of the search's own samples"
        )
    g = oracle_pin_gauge(spec)
    blind = find_cover_cantor(g, depth, stage)
    if isinstance(blind, FineCover):
        raise UnexpectedCover("unhinted search covered the pinned point")
    want = Cylinder(spec.Z.index(depth), depth)
    if blind.unresolved != (want,):
        got = [cyl.prefix for cyl in blind.unresolved]
        raise GalleryFalsification(f"unresolved cylinders {got}, expected [{want.prefix}]")

    seen = find_cover_cantor(g, depth, stage, hints=[spec.Z])
    if isinstance(seen, Obstruction):
        raise GalleryFalsification("hinted search still obstructed")
    if not any(p.index(depth) == want.index for p in seen.points):
        raise GalleryFalsification("hinted cover has no point tracking Z")
    return seen

