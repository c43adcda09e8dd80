"""The two ambient spaces: the unit interval and Cantor space 2^omega.

Points carry exact values where possible (rationals, quadratics a+b*sqrt2,
eventually periodic bit sequences); everything else is an approximant rule
whose successive enclosures are forced to nest. The maps between the spaces
live here too: phi (binary expansion onto [0,1]), psi (onto the middle-thirds
set C), and the exact distance-to-C walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Union

from .exact import (
    Interval,
    QuadVal,
    ceil_log_recip,
    pair_str,
    pow3,
    rt_cell,
    rt_interval,
    rt_of,
    rt_refine,
    sqrt2_sign,
)

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


class NotInCantorSet(ValueError):
    """A point asserted to lie on the middle-thirds set verifiably does not."""


def _norm_pattern(prefix: str, period: str) -> tuple[str, str]:
    """Canonical (prefix, period) for an eventually periodic bit sequence.

    Shrinks the period to its primitive root, then rotates trailing prefix
    bits into the period, so equal sequences get equal patterns.
    """
    period = period[: (period + period).find(period, 1)]  # the least shift that maps it onto itself
    if prefix:
        # the run of prefix bits that the period, read backwards, matches is
        # the run of low zeros of prefix XOR the period tiled to its length
        tiled = (period * (len(prefix) // len(period) + 1))[-len(prefix) :]
        diff = int(prefix, 2) ^ int(tiled, 2)
        n = (diff & -diff).bit_length() - 1 if diff else len(prefix)
        s = len(period) - n % len(period)
        prefix, period = prefix[: len(prefix) - n], period[s:] + period[:s]
    return prefix, period


def canonical_pattern(prefix: str, period: str) -> tuple[str, str]:
    """The canonical (prefix, period) of a valid bit pattern. One whose
    period is primitive and whose prefix is empty or ends in a bit other
    than the period's last is canonical, so `_norm_pattern` runs on others."""
    if period == "" or (prefix + period).strip("01"):
        raise ValueError(f"bad bit pattern: prefix={prefix!r} period={period!r}")
    if (period + period).find(period, 1) == len(period) and (not prefix or prefix[-1] != period[-1]):
        return prefix, period
    return _norm_pattern(prefix, period)


def pattern_bits(prefix: str, period: str, n: int) -> str:
    """The first n bits of the sequence prefix, then period repeated."""
    if n > len(prefix):
        prefix += period * -(-(n - len(prefix)) // len(period))
    return prefix[:n]


def pattern_index(prefix: str, period: str, k: int) -> int:
    """The depth-k cell of the pattern's sequence, as `CantorPoint.index`."""
    return int(pattern_bits(prefix, period, k) or "0", 2)


class CantorPoint:
    """A point of 2^omega: an eventually periodic bit pattern, or a total
    bit rule.

    A pattern point holds its canonical (prefix, period) and reads its bits
    off it; pattern points compare and hash by the pattern, so searches can
    deduplicate them. Rule-only points compare by identity. Their queried
    bits are cached, which is also what enforces that the rule is
    deterministic.
    """

    __slots__ = ("_rule", "pattern", "label", "_bits")

    def __init__(
        self,
        rule: Optional[Callable[[int], int]] = None,
        pattern: Optional[tuple[str, str]] = None,
        label: Optional[str] = None,
    ):
        """A rule-only point of `rule`, or with no rule the pattern point of
        `pattern`, which must be canonical (`canonical_pattern`)."""
        self._rule = rule
        self.pattern = pattern
        self.label = label
        self._bits: list[int] = []

    @classmethod
    def from_pattern(cls, prefix: str, period: str) -> "CantorPoint":
        return cls(pattern=canonical_pattern(prefix, period))

    def bit(self, i: int) -> int:
        if self.pattern is not None:
            prefix, period = self.pattern
            return int(prefix[i] if i < len(prefix) else period[(i - len(prefix)) % len(period)])
        while len(self._bits) <= i:
            b = self._rule(len(self._bits))
            if b not in (0, 1):
                raise ValueError(f"bit rule produced {b!r}")
            self._bits.append(b)
        return self._bits[i]

    def bits(self, n: int) -> str:
        """The first n bits: a slice of the prefix and repeated period for
        pattern points, the cached rule bits otherwise."""
        if self.pattern is None:
            return "".join(str(self.bit(i)) for i in range(n))
        return pattern_bits(*self.pattern, n)

    def index(self, k: int) -> int:
        """The depth-k cell of the point: it lies in Cylinder(x.index(k), k)."""
        return int(self.bits(k) or "0", 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CantorPoint):
            return NotImplemented
        if self.pattern is not None and other.pattern is not None:
            return self.pattern == other.pattern
        return self is other

    def __hash__(self) -> int:
        if self.pattern is not None:
            return hash(self.pattern)
        return id(self)

    def __repr__(self) -> str:
        if self.pattern is not None:
            return f"CantorPoint(prefix={self.pattern[0]!r}, period={self.pattern[1]!r})"
        return f"CantorPoint(rule, label={self.label!r})"


@dataclass(frozen=True)
class Cylinder:
    """The cylinder of the sequences whose first `depth` bits spell the
    `depth`-bit binary numeral of `index`: cell `index` at level `depth`
    of the binary tree, which phi maps onto the dyadic cell
    [index 2^-depth, (index + 1) 2^-depth]."""

    index: int
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0 or self.index < 0 or self.index >> self.depth:
            raise ValueError(f"no cylinder has index {self.index} at depth {self.depth}")

    @property
    def prefix(self) -> str:
        """The bit string every sequence in the cylinder starts with."""
        return format(self.index, f"0{self.depth}b") if self.depth else ""


def cylinder_for_ball(x: CantorPoint, r: Fraction) -> Cylinder:
    """B(x,r) as a cylinder: depth m least with 2^-m <= r."""
    m = ceil_log_recip(r)
    return Cylinder(x.index(m), m)


class UnitPoint:
    """A point of the unit interval, exact or given by a nested approximant.

    An exact point is its value num/den, set once: reduced ints for a
    rational point, a QuadVal a + b*sqrt(2) on two ints over an int for a
    quadratic one (one with no sqrt2 part is built as a rational one),
    None for an approximant. A quadratic point is read, ordered and
    enclosed on those ints (`QuadVal.enclosure` gives the triple). Its
    `exact`, built on each read for callers outside the package, is the
    pair (a/den, b/den) of Fractions; a rational point's is the Fraction
    num/den. Points compare for equality, not order: exact
    points by their pairs, an approximant only to itself. An exact point
    hashes by its pair, an approximant by identity. Approximant points
    only promise enclosures of width <= 2^-k, for k up to their `prec`
    when that is not None (a point recorded at a precision); `prec` is
    None for exact points. Successive approximant queries are
    intersected, so the published enclosures nest even when the
    underlying rule's do not, and a contradictory rule raises
    CauchyViolation.
    """

    __slots__ = ("num", "den", "_fn", "label", "_best", "prec")

    AMBIENT = Interval(Fraction(-1), Fraction(2))

    def __init__(self, num=None, den: int = 1, fn=None, label: Optional[str] = None, prec=None):
        self.num, self.den = num, den
        self._fn = fn
        self.label = label
        self.prec = prec
        self._best: Optional[tuple] = None  # the accumulated enclosure, a triple

    @classmethod
    def from_parts(cls, an: int, ad: int, bn: int, bd: int) -> "UnitPoint":
        """The point an/ad + (bn/bd)*sqrt(2) (see `unit_value`)."""
        return cls(*unit_value(an, ad, bn, bd))

    @classmethod
    def from_rat(cls, q) -> "UnitPoint":
        q = q if type(q) is Fraction else Fraction(q)
        return cls(*unit_value(q.numerator, q.denominator))

    @classmethod
    def from_fn(cls, fn: Callable[[int], Interval], label: Optional[str] = None, prec=None) -> "UnitPoint":
        return cls(fn=fn, label=label, prec=prec)

    @property
    def exact(self) -> Union[Fraction, tuple, None]:
        n, d = self.num, self.den
        if n is None:
            return None
        return Fraction(n, d) if type(n) is int else (Fraction(n.a, d), Fraction(n.b, d))

    @property
    def is_exact(self) -> bool:
        return self.num is not None

    @property
    def is_rational(self) -> bool:
        return type(self.num) is int

    def rational_value(self) -> Fraction:
        if type(self.num) is not int:
            raise ValueError(f"{self} is not an exact rational")
        return self.exact

    def exact_value(self) -> Union[Fraction, tuple]:
        if self.num is None:
            raise ValueError(f"{self} has no exact value")
        return self.exact

    def approx(self, k: int) -> Interval:
        """Enclosure of width <= 2^-k; successive calls nest."""
        if type(self.num) is int:
            return Interval.point(self.exact)
        if self.num is not None:
            return rt_interval(self.num.enclosure(k, self.den))
        if self.prec is not None and k > self.prec:
            raise ValueError(f"point recorded at precision {self.prec}, asked for {k}")
        box = self._fn(k)
        n, d = box.width.numerator, box.width.denominator
        # width n/d > 2^-k on the width's own integers: at k >= d.bit_length(), 2^-k < 1/d
        if n and (k >= d.bit_length() or n << k > d):
            raise ValueError(f"approximant returned width {box.width} > 2^-{k}")
        if box.hi < self.AMBIENT.lo or box.lo > self.AMBIENT.hi:
            raise ValueError(f"approximant box {box} outside ambient [-1, 2]")
        self._best = rt_refine(self._best, rt_of(box), lambda: str(self))
        return rt_interval(self._best)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitPoint):
            return NotImplemented
        if self.num is not None and other.num is not None:
            return self.num == other.num and self.den == other.den
        return self is other

    def __hash__(self) -> int:
        return id(self) if self.num is None else hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.num is not None:
            return f"UnitPoint({pair_str(self.num, self.den)})"
        return f"UnitPoint(approx, label={self.label!r})"


def unit_value(an: int, ad: int, bn: int = 0, bd: int = 1) -> tuple:
    """The exact value (num, den) of an/ad + (bn/bd)*sqrt(2) in the ambient
    [-1, 2], for reduced pairs with positive denominators: (an, ad) when bn
    is 0, else a QuadVal over the lcm of ad and bd."""
    if not bn:
        if not -ad <= an <= 2 * ad:
            raise ValueError(f"point {Fraction(an, ad)} outside ambient [-1, 2]")
        return an, ad
    d = lcm(ad, bd)
    a, b = an * (d // ad), bn * (d // bd)
    # -1 <= (a + b*sqrt(2))/d <= 2, on the integers
    if sqrt2_sign(a + d, b) < 0 or sqrt2_sign(2 * d - a, -b) < 0:
        raise ValueError(f"point {pair_str(QuadVal(a, b), d)} outside ambient [-1, 2]")
    return QuadVal(a, b), d


# -- phi: binary expansion 2^omega -> [0,1] ------------------------------


def _numeral(bits: str, base: int) -> Fraction:
    """0.bits read in the given base, bit 1 standing for the digit base - 1."""
    return Fraction(int(bits.replace("1", str(base - 1)) or "0", base), base ** len(bits))


def _pattern_value(prefix: str, period: str, base: int) -> Fraction:
    # the eventually periodic expansion 0.prefix period period ... in base
    tail = _numeral(period, base) / (1 - Fraction(1, base ** len(period)))
    return _numeral(prefix, base) + tail / base ** len(prefix)


def phi_value(x: CantorPoint) -> Fraction:
    """Exact phi for pattern points."""
    if x.pattern is None:
        raise ValueError("phi_value needs an eventually periodic point")
    return _pattern_value(*x.pattern, base=2)


def phi(x: CantorPoint) -> UnitPoint:
    """phi(x) = sum x(n) 2^-(n+1); 1-Lipschitz from (2^omega, d) onto [0,1]."""
    if x.pattern is not None:
        return UnitPoint.from_rat(phi_value(x))

    def fn(k: int) -> Interval:
        return rt_interval(rt_cell(x.index(k + 1), k + 1))

    return UnitPoint.from_fn(fn, label=f"phi({x!r})")


def psi_value(x: CantorPoint) -> Fraction:
    if x.pattern is None:
        raise ValueError("psi_value needs an eventually periodic point")
    return _pattern_value(*x.pattern, base=3)


def psi(x: CantorPoint) -> UnitPoint:
    """psi(x) = sum 2 x(n) 3^-(n+1), a bijection onto the middle-thirds set.

    Separation: bits first differing at index j puts images >= 3^-(j+1) apart.
    """
    if x.pattern is not None:
        return UnitPoint.from_rat(psi_value(x))

    def fn(k: int) -> Interval:
        v = _numeral(x.bits(k), 3)
        return Interval(v, v + pow3(-k))

    return UnitPoint.from_fn(fn, label=f"psi({x!r})")


# -- the middle-thirds set ----------------------------------------------


def _thirds_walk(z: Fraction):
    """The middle-thirds digit walk of a rational z in [0,1].

    Each step zooms into the left third (bit 0) or the right third (bit 1),
    scaling by 3. A rational orbit either revisits a state, so z is in C,
    or lands in a removed middle third at local scale 3^-len(bits).
    Returns (bits, index where the orbit cycles, None) in the first case
    and (bits, None, landing state) in the second.
    """
    w = z
    seen: dict[Fraction, int] = {}
    bits = []
    while w not in seen:
        seen[w] = len(bits)
        if w <= THIRD:
            bits.append("0")
            w = 3 * w
        elif w >= TWO_THIRDS:
            bits.append("1")
            w = 3 * w - 2
        else:
            return "".join(bits), None, w
    return "".join(bits), seen[w], None


def dist_to_cantor(z: Fraction) -> Fraction:
    """Exact d(z, C) for rational z in [0,1].

    Walks the self-similar structure: zooming a third scales distance by 3;
    a rational orbit either revisits a state (so z is in C) or lands in a
    removed middle third, where the distance is read off directly.
    """
    z = Fraction(z)
    if not 0 <= z <= 1:
        raise ValueError(f"need 0 <= z <= 1, got {z}")
    bits, _, w = _thirds_walk(z)
    if w is None:
        return Fraction(0)
    return pow3(-len(bits)) * min(w - THIRD, TWO_THIRDS - w)


def leftmost_cantor_ge(a: Fraction) -> Fraction:
    """The least point of C that is >= a. Requires a <= 1."""
    a = Fraction(a)
    if a > 1:
        raise ValueError(f"no C point >= {a}")
    if a <= 0:
        return Fraction(0)
    bits, _, w = _thirds_walk(a)
    if w is None:
        return a  # orbit cycled without leaving the construction: a is in C
    # a sits in a removed gap: next C point is the right third's start
    return psi_value(CantorPoint.from_pattern(bits + "1", "0"))


def psi_preimage_point(z: Fraction) -> CantorPoint:
    """psi^-1(z) as a pattern point, for rational z in C.

    The digit walk on a rational cycles, so the bit sequence is eventually
    periodic and can be captured exactly.
    """
    z = Fraction(z)
    if not 0 <= z <= 1:
        raise NotInCantorSet(f"{z} outside [0,1]")
    bits, start, w = _thirds_walk(z)
    if w is not None:
        raise NotInCantorSet(f"{z} lies in a removed middle third at scale 3^-{len(bits)}")
    return CantorPoint.from_pattern(bits[:start], bits[start:])
