"""Coded gauges with stage-indexed three-valued evaluation.

Four code strengths: continuous (region kernel), direct (exact point
kernel), and pointwise limits at one or two levels (a sequence of
continuous codes, or a sequence of such sequences). Evaluation never
assumes a limit exists: `eval_enclosure` reports an interval consistent
with what has been observed through the stage budget, and `verified_above`
turns that into Yes / No / Unknown.

A declared convergence modulus j -> N, with every term past N within 2^-j
of the limit at every x, makes the limit uniform, and a uniform limit is
one Baire level lower: `modulus_limit` builds such a limit as a direct
code whose kernel is the term the modulus names, padded. What is left for
the limit codes proper is a limit with no modulus, of which only the
terms observed so far are known.

Every point code's enclosures must hold the value, so continuous and
direct codes fold every enclosure they ever produce into a per-point
running intersection, and one that misses the others is a
CauchyViolation. A verdict on a point code climbs the stage ladder and
stops at the first decisive rung, and a decision is permanent. A verdict
on a limit code reads one trailing block at the query's own stage; its
Yes rests only on the terms observed, and it never says No. The limit
code's region kernel bounds that block on a whole region.

Evaluation runs on the integer-numerator triples of `exact`: every code's
`_eval` returns (lo, hi, d), the per-point accumulators hold triples
reduced by gcd, and verdicts compare numerators by cross-multiplication.
In this module only the public edge, `eval_enclosure` and
`ContinuousCode.region_eval`, turns a triple into an Interval; elsewhere
`spaces.UnitPoint.approx`, `integral.Integrand.at`, `integral.riemann_sum`
and `exact.dyadic_runs` build Intervals for their callers in the same way.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Union

from .exact import (
    CauchyViolation,
    Interval,
    pow3,
    floor_log_recip,
    rt_block,
    rt_block_region,
    rt_cell,
    rt_interval,
    rt_intersect,
    rt_of,
    rt_pad,
    rt_point,
    rt_points,
    rt_refine,
)
from .spaces import (
    CantorPoint,
    Cylinder,
    UnitPoint,
    dist_to_cantor,
    phi,
    psi_preimage_point,
)

_UNIT_CELL = rt_cell(0, 0)


class DomainError(ValueError):
    """A point or region lies outside the code's declared domain."""


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


Point = Union[UnitPoint, CantorPoint]
Region = Union[Interval, Cylinder]


def _point_region(x: Point, k: int, domain: str):
    """The kernel input a point query evaluates on, a triple: that of an
    exact rational point in [0,1], else the width-2^-k enclosure of a
    quadratic point (`QuadVal.enclosure`) or the point's approximant,
    clipped to [0,1]; or the dyadic cell of the point's depth-k cylinder."""
    if domain == "unit":
        if not isinstance(x, UnitPoint):
            raise DomainError(f"unit-interval code evaluated at {x!r}")
        n, d = x.num, x.den
        if type(n) is int:
            if n < 0 or n > d:
                raise DomainError(f"point {x!r} verifiably outside [0,1]")
            return n, n, d
        box = rt_intersect(rt_of(x.approx(k)) if n is None else n.enclosure(k, d), _UNIT_CELL)
        if box is None:
            raise DomainError(f"point {x!r} verifiably outside [0,1]")
        return box
    if not isinstance(x, CantorPoint):
        raise DomainError(f"sequence-space code evaluated at {x!r}")
    return rt_cell(x.index(k), k)


@lru_cache(maxsize=32)
def _ladder(stage: int) -> tuple:
    """Stages a continuous or direct code's verdict climbs under budget
    `stage` >= 0: powers of two, then the budget. A limit code's verdict
    reads the budget alone."""
    out = []
    s = 1
    while s <= stage:
        out.append(s)
        s *= 2
    if not out or out[-1] != stage:
        out.append(stage)
    return tuple(out)


def _resolvable_j(modulus: Callable[[int], int], stage: int) -> int:
    """Largest j with modulus(j) <= stage, i.e. the finest 2^-j certified by
    now; 0 when modulus(0) > stage. Assumes modulus is nondecreasing in j.
    The scan cap keeps a constant modulus from looping forever.
    """
    j = 0
    while j < 4 * stage + 64 and modulus(j + 1) <= stage:
        j += 1
    return j


def _term_cache(terms: Callable[[int], GaugeCode], domain: str) -> Callable[[int], GaugeCode]:
    """terms(n), built once per n and checked to live on `domain`."""
    cache: dict[int, GaugeCode] = {}

    def term(n: int) -> GaugeCode:
        code = cache.get(n)
        if code is None:
            code = terms(n)
            if code.domain != domain:
                raise DomainError(f"term {n} declares domain {code.domain}, code is {domain}")
            cache[n] = code
        return code

    return term


class _PointCode:
    """A code built on one kernel, whose triples it accumulates per point,
    and a `region` kernel that bounds it on whole cells, or None."""

    def __init__(self, kernel: Callable, domain: str = "unit", label: str = "", region: Optional[Callable] = None):
        self.kernel = kernel
        self.region = region
        self.domain = domain
        self.label = label
        self._acc: dict[Point, tuple] = {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label or '...'}, domain={self.domain})"

    def _fold(self, x: Point, raw: tuple) -> tuple:
        """Fold the enclosure raw at x into x's accumulated one. A point's
        first enclosure has nothing to miss, so it needs no message."""
        old = self._acc.get(x)
        what = None if old is None else lambda: f"{self.kind} code {self.label or id(self)} at {x!r}"
        got = self._acc[x] = rt_refine(old, raw, what)
        return got


class ContinuousCode(_PointCode):
    """A coded continuous function via a sound region kernel.

    The kernel works in the integer-numerator format of `exact`: kernel(r,
    k) takes a unit-interval region as the triple r (a sequence-space
    cylinder as the triple of the dyadic cell phi maps it onto), must
    return a triple enclosing {f(t) : t in region}, and must tighten as the
    region shrinks and k grows. `gaugespec` fuses a gauge expression into
    one kernel from the kernel_* builders below. Point queries go through
    the point's own width <= 2^-k approximant (a sequence point's depth-k
    cylinder), and their triples are accumulated per point.
    """

    kind = "continuous"

    def __init__(self, kernel: Callable, domain: str = "unit", label: str = ""):
        super().__init__(kernel, domain, label, region=kernel)

    def region_eval(self, region: Region, k: int) -> Interval:
        """Enclosure of the code over the region, built as one Interval."""
        r = rt_of(region) if self.domain == "unit" else rt_cell(region.index, region.depth)
        return rt_interval(self.kernel(r, k))

    def _eval(self, x: Point, stage: int) -> tuple:
        return self._fold(x, self.kernel(_point_region(x, stage, self.domain), stage))


class DirectCode(_PointCode):
    """A gauge whose values are computed outright, no tower of codes.

    The kernel works in the integer-numerator format of `exact`: kernel(x,
    s) returns the enclosure at the point x at stage s as a triple. Every
    enclosure it returns must hold the value there; the enclosures are
    intersected across calls, so a coarse fallback is fine but a stand-in
    that may miss the value is not.

    A region kernel, when given, takes a region as a triple r like a
    continuous code's kernel, and region(r, s) must enclose kernel(x, s)
    for every point x of r at every stage s: inclusion, not only
    soundness, since a search accepts a cell on its lower end without
    asking the point. It may return None at a stage where it has no bound
    on any region, as a limit under a modulus does at a stage whose term
    has none; the search then samples the cell and the fineness check asks
    the rows.
    """

    kind = "direct"

    def _eval(self, x: Point, stage: int) -> tuple:
        return self._fold(x, self.kernel(x, stage))


def _block(stage: int) -> tuple[int, int]:
    # trailing half-block; below stage 2 peek at the first two terms so a
    # successive gap is always observable
    if stage < 2:
        return 1, 2
    return -(-stage // 2), stage


class _LimitCode:
    """A pointwise limit of codes one level down, known only term by term
    and with no modulus (`modulus_limit` builds a limit that has one): the
    hull of the trailing block at a stage says what the limit *could* be,
    never what it is not, so a verdict on it is Yes or Unknown, read from
    that stage's block alone, whatever stages were asked before.

    Its region kernel, `region(r, s)`, encloses the stage-s block at every
    point whose query region lies inside r: each term's enclosure at such
    a point lies inside the term's region on r (`exact.rt_block_region`).
    It returns None when a block term has no region. That is judged block
    by block, so building the code or reading its region compiles no term.
    The fineness check reads it on runs of rows; the searches sample every
    cell (see `covers._subdivide`).

    Each point keeps the stage and enclosure of its last successful query,
    and a query at that stage again is answered from them without touching
    a term: the terms' accumulators at x change only through a query at x
    at another stage, which drops them, so evaluating anew would rebuild
    the same hull. An approximant point narrows its boxes as any code asks
    it at a finer stage, so its accumulated box is kept with them and must
    be unchanged too.
    """

    def __init__(self, terms: Callable[[int], GaugeCode], domain: str = "unit", label: str = ""):
        self.term = _term_cache(terms, domain)
        self.domain = domain
        self.label = label
        self._last: dict[Point, tuple] = {}  # (stage, point's box, enclosure)

    def _limit_eval(self, x: Point, stage: int) -> tuple:
        last = self._last.get(x)
        if last is not None:
            if last[0] == stage and last[1] == getattr(x, "_best", None):
                return last[2]
            del self._last[x]  # the terms at x change from here on
        lo_n, hi_n = _block(stage)
        got = rt_block([self.term(n)._eval(x, stage) for n in range(lo_n, hi_n + 1)])
        self._last[x] = stage, getattr(x, "_best", None), got
        return got

    def region(self, r: tuple, stage: int) -> Optional[tuple]:
        lo_n, hi_n = _block(stage)
        boxes = []
        for n in range(lo_n, hi_n + 1):
            kernel = self.term(n).region
            box = kernel and kernel(r, stage)
            if box is None:
                return None
            boxes.append(box)
        return rt_block_region(boxes)

    __repr__ = _PointCode.__repr__


# Each code class defines its own `kind` and `_eval`, even where `_eval` only
# delegates: perfbench/tracing.py wraps every class's own `_eval` and counts
# evaluations per kind by that function's code object.


class Baire1Code(_LimitCode):
    """A pointwise limit of continuous codes."""

    kind = "baire1"

    def _eval(self, x: Point, stage: int) -> tuple:
        return self._limit_eval(x, stage)


class Baire2Code(_LimitCode):
    """A pointwise limit of Baire1Codes; one more level of the same policy."""

    kind = "baire2"

    def _eval(self, x: Point, stage: int) -> tuple:
        return self._limit_eval(x, stage)


GaugeCode = Union[ContinuousCode, DirectCode, Baire1Code, Baire2Code]


def modulus_limit(
    terms: Callable[[int], GaugeCode], modulus: Callable[[int], int], domain: str = "unit", label: str = ""
) -> DirectCode:
    """The limit of terms(1), terms(2), ... as a point code, given a
    modulus: every term past modulus(j) sits within 2^-j of the limit at
    every x, nondecreasing in j. At stage s the kernel reads term N =
    max(1, modulus(j)) padded by 2^-j, for the finest j certified by s, or
    j = 0 below modulus(0), reading past the budget as the trailing block
    does below stage 2. When N < s, term s padded by 2^-j holds the limit
    too and must meet it, else CauchyViolation. The region is term N's,
    padded, when the terms have regions, else None: judged on term 1, and
    on a limit code's term 1 as far down as the terms are limit codes.
    """
    term = _term_cache(terms, domain)
    resolved: dict[int, tuple] = {}  # stage -> (j, N)

    def at(s: int) -> tuple:
        got = resolved.get(s)
        if got is None:
            j = _resolvable_j(modulus, s)
            got = resolved[s] = j, max(1, modulus(j))
        return got

    def kernel(x: Point, s: int) -> tuple:
        j, n = at(s)
        got = rt_pad(term(n)._eval(x, s), j)
        if n < s:
            what = lambda: f"modulus of {label or 'limit'}, term {s} against term {n}, at {x!r}"
            rt_refine(got, rt_pad(term(s)._eval(x, s), j), what)
        return got

    def region(r: tuple, s: int) -> Optional[tuple]:
        j, n = at(s)
        box = term(n).region(r, s)
        return box and rt_pad(box, j)

    first = term(1)
    while isinstance(first, _LimitCode):
        first = first.term(1)
    return DirectCode(kernel, domain=domain, label=label, region=region if first.region else None)


def eval_enclosure(g: GaugeCode, x: Point, stage: int) -> Interval:
    """Interval consistent with every limit value observable through `stage`."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    return rt_interval(g._eval(x, stage))


def _verdict(g: GaugeCode, x: Point, qn: int, qd: int, stage: int, strict: bool) -> Verdict:
    """The verdict on "gauge at x > qn/qd" (strict) or ">=", for an int
    numerator and a positive int denominator, not necessarily reduced."""
    if stage < 0:
        raise ValueError("stage must be >= 0")
    if qn < 0:
        raise ValueError("need q >= 0")
    # A point code climbs the ladder, and its triple is the accumulated one,
    # which only shrinks, so a decision is permanent and cannot conflict
    # with later stages (those would fail to refine). A limit code reads the
    # block at the query's own stage, whose hull never rules a value out.
    point = not isinstance(g, _LimitCode)
    for s in _ladder(stage) if point else (stage,):
        lo, hi, d = g._eval(x, s)
        qnd = qn * d
        yes, no = (lo * qd > qnd, hi * qd <= qnd) if strict else (lo * qd >= qnd, hi * qd < qnd)
        if yes is not no:
            if yes:
                return Verdict.YES
            if point:
                return Verdict.NO
        elif yes:
            what = f"{'>' if strict else '>='} {Fraction(qn, qd)}"
            raise CauchyViolation(f"code {g!r} verifies both sides of {what} at {x!r}")
    return Verdict.UNKNOWN


def verified_above(g: GaugeCode, x: Point, q, stage: int) -> Verdict:
    """Three-valued answer to "gauge value at x > q", permanent once decided."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return _verdict(g, x, q.numerator, q.denominator, stage, strict=True)


def verified_at_least(g: GaugeCode, x: Point, q, stage: int) -> Verdict:
    """Like verified_above but for the non-strict "gauge value at x >= q"."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return _verdict(g, x, q.numerator, q.denominator, stage, strict=False)


# -- fused kernels -------------------------------------------------------
#
# `gaugespec` builds a gauge expression's kernel in one pass from these:
# one closure per node that reads x, with the interval arithmetic on the
# numerators inline. A constant operand of +, -, * or min is folded into
# its operator when the kernel is built; that of max is the constant's
# point kernel. A chain of offsets and scalings s a + b is one
# closure: over a single operand, interval arithmetic on such a chain is
# exact, so the folded kernel encloses the same rationals as the chain,
# and one whose operand is x reads the region triple without a call.


def kernel_x(r: tuple, k: int) -> tuple:
    """The kernel of x: the region itself."""
    return r


def kernel_linear(ka: Callable, s, b) -> Callable:
    """s a + b for rationals s and b; a chain of them folds into one closure."""
    s, b = Fraction(s), Fraction(b)
    if hasattr(ka, "linear"):
        ka, s0, b0 = ka.linear
        s, b = s0 * s, b0 * s + b
    # s lo/d + b = (a lo + c d) / (q d)
    a, c, q = s.numerator * b.denominator, b.numerator * s.denominator, s.denominator * b.denominator
    x = ka is kernel_x

    def kernel(r, k):
        lo, hi, d = r if x else ka(r, k)
        if a < 0:
            lo, hi = hi, lo
        cd = c * d
        return a * lo + cd, a * hi + cd, q * d

    kernel.linear = ka, s, b
    return kernel


def kernel_abs(ka: Callable) -> Callable:
    def kernel(r, k):
        lo, hi, d = ka(r, k)
        if lo >= 0:
            return lo, hi, d
        if hi <= 0:
            return -hi, -lo, d
        return 0, (hi if hi > -lo else -lo), d

    return kernel


def kernel_min_const(ka: Callable, c: Fraction) -> Callable:
    """min(a, c): a or c where one lies below the other, else the two
    ends over one denominator."""
    p, q = c.numerator, c.denominator

    def kernel(r, k):
        lo, hi, d = ka(r, k)
        pd = p * d
        if hi * q <= pd:
            return lo, hi, d
        if lo * q >= pd:
            return p, p, q
        return lo * q, pd, d * q

    return kernel


def kernel_add(ka: Callable, kb: Callable) -> Callable:
    def kernel(r, k):
        alo, ahi, ad = ka(r, k)
        blo, bhi, bd = kb(r, k)
        return alo * bd + blo * ad, ahi * bd + bhi * ad, ad * bd

    return kernel


def kernel_sub(ka: Callable, kb: Callable) -> Callable:
    def kernel(r, k):
        alo, ahi, ad = ka(r, k)
        blo, bhi, bd = kb(r, k)
        return alo * bd - bhi * ad, ahi * bd - blo * ad, ad * bd

    return kernel


def kernel_mul(ka: Callable, kb: Callable) -> Callable:
    def kernel(r, k):
        alo, ahi, ad = ka(r, k)
        blo, bhi, bd = kb(r, k)
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(products), max(products), ad * bd

    return kernel


def kernel_min(ka: Callable, kb: Callable) -> Callable:
    def kernel(r, k):
        alo, ahi, ad = ka(r, k)
        blo, bhi, bd = kb(r, k)
        alo, ahi, blo, bhi, ad = alo * bd, ahi * bd, blo * ad, bhi * ad, ad * bd
        return (alo if alo < blo else blo), (ahi if ahi < bhi else bhi), ad

    return kernel


def kernel_max(ka: Callable, kb: Callable) -> Callable:
    def kernel(r, k):
        alo, ahi, ad = ka(r, k)
        blo, bhi, bd = kb(r, k)
        alo, ahi, blo, bhi, ad = alo * bd, ahi * bd, blo * ad, bhi * ad, ad * bd
        return (alo if alo > blo else blo), (ahi if ahi > bhi else bhi), ad

    return kernel


def kernel_dist(points) -> Callable:
    """x |-> min |x - p| over a finite, nonempty set of rationals, with
    the points over one denominator once."""
    boxes = rt_points([Fraction(p) for p in points])
    if not boxes:
        raise ValueError("need at least one point")
    nums, den = [n for n, _, _ in boxes], boxes[0][2]

    def kernel(r, k):
        lo, hi, d = r
        lo, hi = lo * den, hi * den
        best_lo = best_hi = None
        for n in nums:
            n *= d
            a, b = lo - n, hi - n
            if b <= 0:
                a, b = -b, -a
            elif a < 0:
                a, b = 0, (b if b > -a else -a)
            if best_lo is None or a < best_lo:
                best_lo = a
            if best_hi is None or b < best_hi:
                best_hi = b
        return best_lo, best_hi, d * den

    return kernel


def kernel_memo(ka: Callable) -> Callable:
    """ka with a one-entry memo on (r, k). A kernel is a pure function of
    its region and stage, so the terms of a limit code that share a part
    evaluate it once per query."""
    last = got = None

    def kernel(r, k):
        nonlocal last, got
        if last != (r, k):
            got = ka(r, k)
            last = r, k
        return got

    return kernel


def continuous_const(q, domain: str = "unit") -> ContinuousCode:
    q = Fraction(q)
    point = rt_point(q)
    return ContinuousCode(lambda r, k: point, domain=domain, label=str(q))


# -- generic combinators -------------------------------------------------


def scale_code(g: GaugeCode, factor) -> GaugeCode:
    """Pointwise positive rational multiple of a gauge, any code kind."""
    c = Fraction(factor)
    if c <= 0:
        raise ValueError("scaling factor must be > 0")
    if g.kind == "continuous":
        return ContinuousCode(kernel_linear(g.kernel, c, 0), domain=g.domain, label=f"scale({c},{g.label})")
    if g.kind == "direct":
        region = g.region and kernel_linear(g.region, c, 0)
        return DirectCode(kernel_linear(g.kernel, c, 0), domain=g.domain, label=f"scale({c},{g.label})", region=region)
    return type(g)(lambda n: scale_code(g.term(n), c), domain=g.domain, label=f"scale({c},{g.label})")


# -- transfers between the two spaces ------------------------------------


def pullback_gauge_phi(g: GaugeCode) -> GaugeCode:
    """The sequence-space gauge x |-> g(phi(x)), any code kind.

    phi is 1-Lipschitz, so a cover fine for the pullback pushes forward
    (same radii) to a cover fine for g.
    """
    if g.domain != "unit":
        raise DomainError("pullback needs a unit-interval code")
    if g.kind == "continuous":
        # a sequence-space kernel reads a cylinder as the cell phi maps it onto
        return ContinuousCode(g.kernel, domain="cantor", label=f"phi*({g.label})")
    if g.kind == "direct":
        # one image per point: that of a rule point is an approximant, equal
        # only to itself; the region reads a cylinder as its cell, as above
        kernel, image = g.kernel, lru_cache(maxsize=None)(phi)
        label = f"phi*({g.label})"
        return DirectCode(lambda x, s: kernel(image(x), s), domain="cantor", label=label, region=g.region)
    return type(g)(lambda n: pullback_gauge_phi(g.term(n)), domain="cantor", label=f"phi*({g.label})")


def _third_bucket(v: Fraction) -> Fraction:
    # value in (2^-(n+1), 2^-n] maps to 3^-(n+1); nonpositive input gives 0
    if v <= 0:
        return Fraction(0)
    return pow3(-(floor_log_recip(min(v, Fraction(1))) + 1))


def transfer_gauge_psi(g: GaugeCode) -> DirectCode:
    """Unit-interval gauge mirroring a middle-thirds-space gauge through psi.

    At a rational point of the set C the value is the power of three tied to
    the binary bucket of g at the psi-preimage; off C it is the exact
    distance to C, which keeps accepted cells away from the set entirely.
    Non-rational queries get a wide sound stub: cover searches only ever
    sample rationals.
    """
    if g.domain != "cantor":
        raise DomainError("psi transfer needs a sequence-space code")

    def kernel(z: Point, stage: int) -> tuple:
        if not isinstance(z, UnitPoint):
            raise DomainError(f"unit-interval gauge evaluated at {z!r}")
        if not z.is_rational:
            return 0, 1, 2
        zq = z.rational_value()
        if not 0 <= zq <= 1:
            raise DomainError(f"point {zq} outside [0,1]")
        d = dist_to_cantor(zq)
        if d > 0:
            return rt_point(d)
        lo, hi, den = g._eval(psi_preimage_point(zq), stage)
        (a, _, e), (b, _, _) = rt_points([_third_bucket(Fraction(lo, den)), _third_bucket(Fraction(hi, den))])
        return a, b, e

    return DirectCode(kernel, domain="unit", label=f"psi*({g.label})")
