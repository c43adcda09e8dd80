"""Gauge integration: Riemann sums over verified-fine tagged partitions.

The engine searches for a cover fine for HALF the requested gauge, converts
it to a partition (cells at most twice the cover radii, hence within the
full gauge), and pads the exact Riemann sum by epsilon on both sides. The
certificate records the partition so every figure is re-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Optional, Union

from .covers import (
    Obstruction,
    TaggedPartition,
    cover_to_partition,
    find_cover_unit,
    verify_partition,
)
from .exact import (
    CauchyViolation,
    Interval,
    ceil_log_recip,
    pair_str,
    rt_add,
    rt_interval,
    rt_mul,
    rt_of,
    rt_point,
)
from .gauges import DirectCode, GaugeCode, Verdict, continuous_const, scale_code
from .spaces import UnitPoint


class EvaluationError(ValueError):
    """Integrand evaluator failed; the message names the tag."""


class Integrand:
    """Pointwise-enclosable function on [0,1].

    The integrand evaluates through a kernel, in the integer-numerator
    format of `exact`, like a DirectCode: kernel(tag, prec) returns an
    enclosure of width <= 2^-prec as a triple. `at` returns the enclosure
    as an Interval.
    """

    def __init__(self, kernel: Callable[[UnitPoint, int], tuple], label: str = ""):
        self.kernel = kernel
        self.label = label

    def _triple(self, tag: UnitPoint, prec: int) -> tuple:
        """The kernel's triple at the tag; any failure is an EvaluationError
        that names the tag."""
        try:
            return self.kernel(tag, prec)
        except EvaluationError:
            raise
        except Exception as e:
            raise EvaluationError(f"integrand {self.label or '?'} failed at tag {tag}: {e}") from e

    def at(self, tag: UnitPoint, prec: int) -> Interval:
        return rt_interval(self._triple(tag, prec))

    def __repr__(self) -> str:
        return f"Integrand({self.label or '...'})"


@dataclass(frozen=True)
class IntegralCertificate:
    epsilon: Fraction
    partition: TaggedPartition
    sum: Interval
    claim: Interval

    def as_record(self, name: str, depth: int, stage: int) -> dict:
        return {
            "function": name,
            "epsilon": str(self.epsilon),
            "cells": len(self.partition.tags),
            "sum_lo": str(self.sum.lo),
            "sum_hi": str(self.sum.hi),
            "claim_lo": str(self.claim.lo),
            "claim_hi": str(self.claim.hi),
            "depth": depth,
            "stage": stage,
        }


def riemann_sum(f: Integrand, part: TaggedPartition, prec: int = 24) -> Interval:
    """Exact enclosure of sum f(tag_i) * (x_{i+1} - x_i), left to right.

    Each cell's width comes from `TaggedPartition.widths`, on the cut
    numerators, and scales the kernel's triple at the tag. The
    lower and upper sums are integer numerators over one running
    denominator, the lcm of the terms' so far; a term whose denominator
    divides it is added without growing it. Every term is exact, so the
    result is the rational that Interval arithmetic gives.
    """
    lo_sum = hi_sum = 0
    den = 1
    for tag, wn, wd in part.widths():
        if not wn:
            continue
        t_lo, t_hi, t_den = f._triple(tag, prec)
        # the width is > 0, so the term is [w f_lo, w f_hi]
        t_den *= wd
        if den % t_den:
            grow = t_den // gcd(den, t_den)
            lo_sum, hi_sum, den = lo_sum * grow, hi_sum * grow, den * grow
        k = wn * (den // t_den)
        lo_sum += t_lo * k
        hi_sum += t_hi * k
    return Interval(Fraction(lo_sum, den), Fraction(hi_sum, den))


def integrate(
    f: Integrand,
    fam: Callable[[Fraction], GaugeCode],
    eps,
    depth: int,
    stage: int,
    hints=(),
) -> Union[IntegralCertificate, Obstruction]:
    """Search with the halved gauge fam(eps), then sum over the resulting
    partition. A gauge family is a function from epsilon to a gauge.

    The cover radii are strictly below half the gauge at their points, so
    the partition cells (at most twice a radius) stay within the full
    gauge. Claim = sum padded by eps on each side.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"need epsilon > 0, got {eps}")
    g = fam(eps)
    got = find_cover_unit(scale_code(g, Fraction(1, 2)), depth, stage, hints=hints)
    if isinstance(got, Obstruction):
        return got
    part = cover_to_partition(got)
    check = verify_partition(g, part, stage)
    if check is not Verdict.YES:
        # the partition is fine whenever the search's Yes verdicts hold, so
        # a failure here means the gauge's answers contradict each other
        raise CauchyViolation(f"converted partition failed fineness: {check}")
    prec = ceil_log_recip(eps, 2) + 1
    s = riemann_sum(f, part, prec)
    return IntegralCertificate(eps, part, s, Interval(s.lo - eps, s.hi + eps))


# -- built-in integrands and families ------------------------------------


def poly_integrand(coeffs, label: str = "") -> tuple[Integrand, Callable[[Fraction], GaugeCode], Fraction]:
    """Rational-coefficient polynomial with a constant gauge family.

    The family width eps/(2L) (L a slope bound on [0,1]) makes every fine
    partition's sum land within eps of the closed-form integral.
    """
    coeffs = [Fraction(c) for c in coeffs]
    slope = sum(abs(c) * i for i, c in enumerate(coeffs))
    # coefficient k is nums[k] / den
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs] or [0]
    points = [rt_point(c) for c in coeffs]

    def kernel(tag: UnitPoint, prec: int) -> tuple:
        n, m = tag.num, tag.den
        if type(n) is int:
            # Horner on integers: sum nums[k] n^k m^(K-k) over den m^K, tag = n/m
            acc, scale = nums[-1], 1
            for c in reversed(nums[:-1]):
                scale *= m
                acc = acc * n + c * scale
            return acc, acc, den * scale
        box = rt_of(tag.approx(prec + 2)) if n is None else n.enclosure(prec + 2, m)
        acc = 0, 0, 1
        for c in reversed(points):
            acc = rt_add(rt_mul(acc, box), c)
        return acc

    def fam(eps: Fraction) -> GaugeCode:
        return continuous_const(eps / (2 * slope) if slope else Fraction(1))

    ref = sum(c / (i + 1) for i, c in enumerate(coeffs))
    return Integrand(kernel, label=label or "poly"), fam, ref


def _sqrt_recip_kernel(tag: UnitPoint, prec: int) -> tuple:
    n = tag.num
    if type(n) is not int or n < 0:
        raise EvaluationError(f"reciprocal square root needs an exact rational in [0,1], got {tag}")
    if n == 0:
        return 0, 0, 1  # the value at the pole, fixed by fiat
    # 1/sqrt(a/b) = sqrt(b/a), enclosed by a shifted integer square root
    m = prec
    s = isqrt((tag.den << (2 * m)) // n)
    return s, s + 1, 1 << m


def stern_brocot_index(n: int, d: int, cap: int) -> Optional[int]:
    """Position of n/d (d > 0) in the fixed enumeration of rationals in
    [0,1]: 0, 1, then breadth-first mediants; None if the index exceeds
    cap. The walk compares n/d with each mediant on the integers."""
    if n < 0 or n > d:
        raise ValueError(f"enumeration covers [0,1] only, got {pair_str(n, d)}")
    if n == 0:
        return 1 if cap >= 1 else None
    if n == d:
        return 2 if cap >= 2 else None
    ln, ld, rn, rd = 0, 1, 1, 1
    level, path = 0, 0
    while (1 << level) + 2 <= cap:
        mn, md = ln + rn, ld + rd
        if n * md == mn * d:
            at = (1 << level) + 2 + path
            return at if at <= cap else None
        if n * md < mn * d:
            rn, rd = mn, md
            path = path * 2
        else:
            ln, ld = mn, md
            path = path * 2 + 1
        level += 1
    return None


def dirichlet_gauge_family() -> Callable[[Fraction], GaugeCode]:
    """The classic vanishing-at-rationals gauge: eps * 2^-n at the n-th
    rational of the fixed enumeration, 1 at irrational points.

    At a rational whose index is out of reach for the stage the evaluator
    answers [0, eps*2^-cap]: sound, and never enough to accept a cell.
    """

    def fam(eps: Fraction) -> GaugeCode:
        en, ed = eps.numerator, eps.denominator

        def kernel(p: UnitPoint, stage: int) -> tuple:
            if p.is_rational:
                cap = stage + 64
                n = stern_brocot_index(p.num, p.den, cap)
                if n is None:
                    return 0, en, ed << cap  # [0, eps 2^-cap]
                return en, en, ed << n  # eps 2^-n
            if p.is_exact:
                return 1, 1, 1  # exact quadratic irrational
            return 0, 1, 1

        return DirectCode(kernel, domain="unit", label=f"dirichlet-{eps}")

    return fam


def _dirichlet_kernel(tag: UnitPoint, prec: int) -> tuple:
    if tag.is_rational:
        return 1, 1, 1
    if tag.is_exact:
        return 0, 0, 1
    return 0, 1, 1


def dirichlet_hints(level: int = 2) -> list[UnitPoint]:
    """One irrational tag per level-`level` dyadic cell: the cell's left
    endpoint plus sqrt(2)/4 of its width. All-rational tag sets cannot be
    fine for this family below eps = 1/4, so searches need these."""
    n = 1 << level
    out = []
    for i in range(n):
        # i/n + sqrt(2)/(4n); i/n need not be reduced, as 4n is a multiple of n
        out.append(UnitPoint.from_parts(i, n, 1, 4 * n))
    return out


def _sqrt_recip_family() -> Callable[[Fraction], GaugeCode]:
    def fam(eps: Fraction) -> GaugeCode:
        at_zero = z, _, zd = rt_point((eps / 4) ** 2)
        en, ed2 = eps.numerator, 2 * eps.denominator

        def kernel(p: UnitPoint, stage: int) -> tuple:
            n = p.num
            if type(n) is not int:
                raise EvaluationError(f"gauge needs exact rational points, got {p}")
            if n == 0:
                return at_zero
            # eps p / 2 for p = n/m
            v = en * n
            return v, v, ed2 * p.den

        def region(r: tuple, stage: int) -> tuple:
            lo, hi, d = r
            if lo > 0:
                return en * lo, en * hi, ed2 * d
            # a cell at 0: [0, max(eps hi / 2, (eps/4)^2)]
            return 0, max(en * hi * zd, z * ed2 * d), ed2 * d * zd

        return DirectCode(kernel, domain="unit", label=f"sqrt-recip-{eps}", region=region)

    return fam


def _step_kernel(c: Fraction):
    cn, cd = c.numerator, c.denominator

    def kernel(tag: UnitPoint, prec: int) -> tuple:
        if tag.is_exact:
            return (1, 1, 1) if tag.num * cd >= cn * tag.den else (0, 0, 1)
        box = tag.approx(prec)
        if box.lo >= c:
            return 1, 1, 1
        if box.hi < c:
            return 0, 0, 1
        return 0, 1, 1

    return kernel


def builtin_integrands() -> dict:
    """name -> (Integrand, gauge family eps -> gauge, reference value or None)."""
    ident, ident_fam, _ = poly_integrand([0, 1], label="identity")
    square, square_fam, _ = poly_integrand([0, 0, 1], label="square")
    step_c = Fraction(3, 8)
    return {
        "identity": (ident, ident_fam, Fraction(1, 2)),
        "square": (square, square_fam, Fraction(1, 3)),
        "sqrt-reciprocal": (
            Integrand(_sqrt_recip_kernel, label="sqrt-reciprocal"),
            _sqrt_recip_family(),
            Fraction(2),
        ),
        "dirichlet": (
            Integrand(_dirichlet_kernel, label="dirichlet"),
            dirichlet_gauge_family(),
            Fraction(0),
        ),
        "step": (
            Integrand(_step_kernel(step_c), label="step"),
            lambda eps: continuous_const(eps / 2),
            Fraction(1) - step_c,
        ),
    }


def default_depth(name: str, eps) -> int:
    """Subdivision depth at which the built-in searches complete."""
    k = ceil_log_recip(Fraction(eps), 2)
    if name == "sqrt-reciprocal":
        return 3 * k + 10
    if name == "dirichlet":
        return 4
    return k + 6


def default_hints(name: str) -> list:
    return dirichlet_hints() if name == "dirichlet" else []
