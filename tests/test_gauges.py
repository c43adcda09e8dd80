import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import quad
from interval_ref import ref_intersect, ref_pad
from kernel_ref import continuous_add, continuous_identity

from finecover.covers import TaggedPartition, verify_partition
from finecover.exact import CauchyViolation, Interval, pow2, pow3, rt_cell, rt_interval, rt_intersect, rt_of, rt_point
from finecover.gallery import OracleSpec, cauchy_gap_gauge, default_cauchy_spec, oracle_pin_gauge, pin_index
from finecover.gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    DirectCode,
    DomainError,
    Verdict,
    _verdict,
    continuous_const,
    eval_enclosure,
    kernel_abs,
    kernel_add,
    kernel_dist,
    kernel_linear,
    kernel_max,
    kernel_min,
    kernel_sub,
    kernel_x,
    modulus_limit,
    pullback_gauge_phi,
    scale_code,
    transfer_gauge_psi,
    verified_above,
    verified_at_least,
)
from finecover.gaugespec import parse_gauge
from finecover.spaces import CantorPoint, Cylinder, UnitPoint, phi
from finecover.integral import builtin_integrands, stern_brocot_index


def _rand_expr(rng, depth=3):
    """Random positive-free expression, a continuous code on one kernel
    from the fused kernel builders, with an exact reference evaluator."""
    kernel, fn = _rand_kernel(rng, depth)
    return ContinuousCode(kernel, label="rand"), fn


def _rand_kernel(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            q = Fraction(rng.randrange(0, 9), 8)
            return continuous_const(q).kernel, lambda x, q=q: q
        if kind == 1:
            return kernel_x, lambda x: x
        pts = sorted({Fraction(rng.randrange(0, 17), 16) for _ in range(rng.randrange(1, 4))})
        return kernel_dist(pts), lambda x, ps=tuple(pts): min(abs(x - p) for p in ps)
    op = rng.randrange(6)
    a, a_fn = _rand_kernel(rng, depth - 1)
    if op == 0:
        return kernel_abs(a), lambda x: abs(a_fn(x))
    if op == 1:
        c = rng.choice([Fraction(1, 4), Fraction(1, 2)])
        return kernel_linear(a, c, 0), lambda x, c=c: c * a_fn(x)
    b, b_fn = _rand_kernel(rng, depth - 1)
    if op == 2:
        return kernel_add(a, b), lambda x: a_fn(x) + b_fn(x)
    if op == 3:
        return kernel_sub(a, b), lambda x: a_fn(x) - b_fn(x)
    if op == 4:
        return kernel_min(a, b), lambda x: min(a_fn(x), b_fn(x))
    return kernel_max(a, b), lambda x: max(a_fn(x), b_fn(x))


def _rand_rational(rng, den_max=200):
    den = rng.randrange(1, den_max)
    return Fraction(rng.randrange(0, den + 1), den)


def test_const_code_enclosure():
    g = continuous_const(Fraction(1, 4))
    x = UnitPoint.from_rat(Fraction(3, 7))
    assert eval_enclosure(g, x, 0) == Interval.point(Fraction(1, 4))


def test_continuous_exact_at_rationals():
    rng = random.Random(8117)
    for _ in range(150):
        code, fn = _rand_expr(rng)
        x = _rand_rational(rng)
        box = eval_enclosure(code, UnitPoint.from_rat(x), rng.randrange(0, 12))
        assert box == Interval.point(fn(x))


def test_continuous_consistency_at_opaque_points():
    # precision k vs k+4: nested, and strictly narrower once width exceeds 2^-k+2
    rng = random.Random(50821)
    for _ in range(100):
        code, fn = _rand_expr(rng)
        v = _rand_rational(rng)
        x = UnitPoint.from_fn(lambda k, v=v: Interval(max(v - pow2(-k - 1), Fraction(-1)), v + pow2(-k - 1)))
        k = rng.randrange(2, 8)
        first = eval_enclosure(code, x, k)
        second = eval_enclosure(code, x, k + 4)
        assert first.lo <= second.lo and second.hi <= first.hi
        assert second.contains(fn(v))
        if first.width > pow2(-k + 2):
            assert second.width < first.width


def test_verified_above_const_boundary():
    g = continuous_const(Fraction(1, 4))
    x = UnitPoint.from_rat(Fraction(0))
    assert verified_above(g, x, Fraction(1, 8), 0) is Verdict.YES
    assert verified_above(g, x, Fraction(1, 4), 5) is Verdict.NO
    assert verified_above(g, x, Fraction(1, 2), 5) is Verdict.NO
    with pytest.raises(ValueError):
        verified_above(g, x, Fraction(-1, 2), 5)


def test_verified_at_least_boundary():
    g = continuous_const(Fraction(1, 4))
    x = UnitPoint.from_rat(Fraction(1, 2))
    assert verified_at_least(g, x, Fraction(1, 4), 3) is Verdict.YES
    assert verified_at_least(g, x, Fraction(17, 64), 3) is Verdict.NO


def test_domain_errors():
    g = continuous_const(Fraction(1, 2))
    with pytest.raises(DomainError):
        eval_enclosure(g, CantorPoint.from_pattern("", "0"), 4)
    with pytest.raises(DomainError):
        eval_enclosure(g, UnitPoint.from_rat(Fraction(3, 2)), 4)
    h = continuous_const(Fraction(1, 2), domain="cantor")
    with pytest.raises(DomainError):
        eval_enclosure(h, UnitPoint.from_rat(Fraction(1, 2)), 4)


def test_a_limit_term_on_the_other_space_is_a_domain_error():
    g = Baire1Code(lambda n: continuous_const(1, domain="cantor"))
    with pytest.raises(DomainError) as err:
        eval_enclosure(g, UnitPoint.from_rat(Fraction(1, 2)), 4)
    assert str(err.value) == "term 2 declares domain cantor, code is unit"


def test_direct_code_accumulation():
    def kernel(x, stage):
        if stage < 5:
            return 0, 1, 1
        return 2, 3, 4

    g = DirectCode(kernel)
    x = UnitPoint.from_rat(Fraction(1, 3))
    assert eval_enclosure(g, x, 8) == Interval(Fraction(1, 2), Fraction(3, 4))
    # later coarse queries keep what was already verified
    assert eval_enclosure(g, x, 1) == Interval(Fraction(1, 2), Fraction(3, 4))


def test_cauchy_violation_texts_name_the_code_the_point_and_both_enclosures():
    flip = ContinuousCode(lambda r, k: (k % 2, k % 2, 4), label="flip")
    liar = DirectCode(lambda x, s: (1, 1, 2 + s % 3), label="liar")
    bare = DirectCode(lambda x, s: (s, s, 3), domain="cantor")
    cases = [
        (flip, UnitPoint.from_rat(Fraction(1, 3)), "continuous code flip at UnitPoint(1/3): [0, 0] disjoint from accumulated [1/4, 1/4]"),
        (liar, UnitPoint.from_rat(Fraction(1, 5)), "direct code liar at UnitPoint(1/5): [1/4, 1/4] disjoint from accumulated [1/3, 1/3]"),
        (
            bare,
            CantorPoint.from_pattern("01", "1"),
            f"direct code {id(bare)} at CantorPoint(prefix='0', period='1'): [2/3, 2/3] disjoint from accumulated [1/3, 1/3]",
        ),
    ]
    for g, x, text in cases:
        eval_enclosure(g, x, 1)
        with pytest.raises(CauchyViolation) as info:
            eval_enclosure(g, x, 2)
        assert str(info.value) == text


def test_yes_sticks_across_off_ladder_stages():
    # tight only at precision 6; the running intersection keeps the Yes
    g = DirectCode(lambda x, s: (1, 1, 2) if s == 6 else (0, 1, 1))
    x = UnitPoint.from_rat(Fraction(1, 4))
    assert verified_above(g, x, Fraction(1, 3), 6) is Verdict.YES
    assert verified_above(g, x, Fraction(1, 3), 10) is Verdict.YES


def _geometric_baire1(limit_code, limit_fn, c, ratio, declare_modulus=True):
    # f_n = limit + c * ratio^n, |c| <= 1, ratio <= 1/2, so N(2^-j) = j + 1 works
    def term(n):
        return continuous_add(limit_code, continuous_const(c * ratio**n))

    if not declare_modulus:
        return Baire1Code(term), limit_fn
    return modulus_limit(term, lambda j: max(1, j + 1)), limit_fn


def test_baire1_trailing_block_example():
    # with its modulus, the limit reads term 10 padded by 2^-10 at stage 10
    g = modulus_limit(lambda n: continuous_const(Fraction(1, 2) + pow2(-n)), lambda j: max(1, j))
    x = UnitPoint.from_rat(Fraction(2, 7))
    box = eval_enclosure(g, x, 10)
    assert Fraction(1, 2) <= box.lo and box.hi <= Fraction(1, 2) + Fraction(1, 32)
    assert box.contains(Fraction(1, 2))
    assert verified_above(g, x, Fraction(1, 4), 10) is Verdict.YES
    assert verified_above(g, x, Fraction(3, 5), 10) is Verdict.NO


def test_baire1_no_needs_modulus():
    g = Baire1Code(lambda n: continuous_const(Fraction(1, 2) + pow2(-n)))
    x = UnitPoint.from_rat(Fraction(2, 7))
    assert verified_above(g, x, Fraction(3, 5), 16) is Verdict.UNKNOWN
    assert verified_above(g, x, Fraction(1, 4), 16) is Verdict.YES


def test_baire1_drift_without_modulus_is_tolerated():
    # terms sit at 5 then drop to 0: legitimately Cauchy, no modulus declared
    g = Baire1Code(lambda n: continuous_const(Fraction(5 if n < 12 else 0)))
    x = UnitPoint.from_rat(Fraction(1, 2))
    assert eval_enclosure(g, x, 4) == Interval.point(Fraction(5))
    assert eval_enclosure(g, x, 40) == Interval.point(Fraction(0))


def test_baire1_lying_modulus_is_caught():
    # term 1 is 5, and term 40, read beside it at stage 40, is 0
    g = modulus_limit(lambda n: continuous_const(Fraction(5 if n < 12 else 0)), lambda j: 1)
    x = UnitPoint.from_rat(Fraction(1, 2))
    eval_enclosure(g, x, 4)
    with pytest.raises(CauchyViolation):
        eval_enclosure(g, x, 40)


def test_baire1_soundness_and_permanence_random():
    rng = random.Random(33391)
    for _ in range(60):
        limit_code, limit_fn = _rand_expr(rng, depth=2)
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)])
        ratio = rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(-1, 2), Fraction(-1, 3)])
        g, _ = _geometric_baire1(limit_code, limit_fn, c, ratio)
        x = UnitPoint.from_rat(_rand_rational(rng))
        want = limit_fn(x.rational_value())
        s = rng.randrange(1, 12)
        s2 = s + rng.randrange(1, 12)
        assert eval_enclosure(g, x, s).contains(want)
        assert eval_enclosure(g, x, s2).contains(want)
        q = abs(want) + Fraction(rng.randrange(-8, 9), 16)
        if q < 0:
            q = -q
        early = verified_above(g, x, q, s)
        late = verified_above(g, x, q, s2)
        if early is Verdict.YES:
            assert late is Verdict.YES
            assert want > q
        if early is Verdict.NO:
            assert late is Verdict.NO
            assert want <= q


def test_continuous_permanence_random():
    rng = random.Random(77501)
    for _ in range(60):
        code, fn = _rand_expr(rng)
        x = UnitPoint.from_rat(_rand_rational(rng))
        want = fn(x.rational_value())
        q = abs(want) + Fraction(rng.randrange(-8, 9), 16)
        if q < 0:
            q = -q
        s = rng.randrange(0, 8)
        early = verified_above(code, x, q, s)
        late = verified_above(code, x, q, s + rng.randrange(1, 8))
        if early is not Verdict.UNKNOWN:
            assert late is early


def test_baire2_double_limit():
    def level1(m):
        return modulus_limit(lambda n, m=m: continuous_const(Fraction(1, 2) + pow2(-m) + pow2(-n)), lambda j: max(1, j))

    g = modulus_limit(level1, lambda j: max(1, j))
    x = UnitPoint.from_rat(Fraction(1, 5))
    box = eval_enclosure(g, x, 12)
    assert box.contains(Fraction(1, 2))
    assert verified_above(g, x, Fraction(1, 4), 12) is Verdict.YES
    assert verified_above(g, x, Fraction(2, 3), 12) is Verdict.NO
    assert verified_above(g, x, Fraction(2, 3), 24) is Verdict.NO


def test_each_code_class_keeps_its_own_kind_and_eval():
    # the benchmark's trace wraps each class's own _eval and counts
    # evaluations per kind by that function's code object
    classes = {ContinuousCode: "continuous", DirectCode: "direct", Baire1Code: "baire1", Baire2Code: "baire2"}
    for cls, kind in classes.items():
        assert cls.__dict__["kind"] == kind
        assert "_eval" in cls.__dict__
    assert len({cls.__dict__["_eval"].__code__ for cls in classes}) == 4


def _baire2_const(label):
    def level1(m):
        terms = lambda n, m=m: continuous_const(Fraction(1, 2) + pow2(-m) + pow2(-n))
        return modulus_limit(terms, lambda j: max(1, j), label=f"{label}-{m}")

    return modulus_limit(level1, lambda j: max(1, j), label=label)


def test_scale_code_kinds():
    g = scale_code(ContinuousCode(kernel_dist([Fraction(1, 2)]), label="dist"), Fraction(1, 2))
    x = UnitPoint.from_rat(Fraction(1, 4))
    assert type(g) is ContinuousCode and g.kind == "continuous"
    assert g.label == "scale(1/2,dist)"
    assert eval_enclosure(g, x, 4) == Interval.point(Fraction(1, 8))

    d = scale_code(DirectCode(lambda p, s: (3, 3, 8), label="d"), Fraction(2))
    assert type(d) is DirectCode and d.kind == "direct" and d.label == "scale(2,d)"
    assert eval_enclosure(d, x, 4) == Interval.point(Fraction(3, 4))

    # a limit under a modulus is a point code: its kernel and region scale
    # exactly, with no shift of the modulus
    b = scale_code(
        modulus_limit(lambda n: continuous_const(Fraction(1, 2) + pow2(-n)), lambda j: max(1, j), label="b1"),
        Fraction(2),
    )
    assert type(b) is DirectCode and b.kind == "direct" and b.label == "scale(2,b1)"
    box = eval_enclosure(b, x, 12)
    assert box == Interval(Fraction(1), Fraction(1) + pow2(-10))  # twice term 12 padded by 2^-12
    assert rt_interval(b.region(rt_cell(1, 2), 12)) == box

    b2 = scale_code(_baire2_const("b2"), Fraction(3))
    assert type(b2) is DirectCode and b2.label == "scale(3,b2)"
    box = eval_enclosure(b2, x, 12)
    assert box.contains(Fraction(3, 2))
    assert verified_above(b2, x, Fraction(1), 12) is Verdict.YES

    # a limit with no modulus scales term by term
    b = scale_code(Baire1Code(lambda n: continuous_const(Fraction(1, 2) + pow2(-n)), label="b1"), Fraction(2))
    assert type(b) is Baire1Code and b.label == "scale(2,b1)"
    assert b.term(1).label == "scale(2,1)"
    assert eval_enclosure(b, x, 12).contains(Fraction(1))
    with pytest.raises(ValueError):
        scale_code(g, Fraction(0))


def test_pullback_phi():
    g = ContinuousCode(kernel_dist([Fraction(1, 2)]), label="dist")
    back = pullback_gauge_phi(g)
    assert type(back) is ContinuousCode and back.kind == "continuous"
    assert back.domain == "cantor" and back.label == "phi*(dist)"
    x = CantorPoint.from_pattern("", "01")  # phi = 1/3
    box = eval_enclosure(back, x, 6)
    assert box.contains(Fraction(1, 6)) and box.width <= pow2(-6)
    assert back.region_eval(Cylinder(1, 1), 4) == Interval(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        pullback_gauge_phi(continuous_const(1, domain="cantor"))

    d = pullback_gauge_phi(DirectCode(lambda p, s: rt_point(p.rational_value()), label="id"))
    assert type(d) is DirectCode and d.kind == "direct"
    assert d.domain == "cantor" and d.label == "phi*(id)"
    assert eval_enclosure(d, x, 4) == Interval.point(Fraction(1, 3))

    # a limit under a modulus pulls back as a point code, its terms read at phi(x)
    terms = lambda n: continuous_add(continuous_identity(), continuous_const(pow2(-n)))
    b = pullback_gauge_phi(modulus_limit(terms, lambda j: max(1, j), label="b1"))
    assert type(b) is DirectCode and b.kind == "direct"
    assert b.domain == "cantor" and b.label == "phi*(b1)"
    assert eval_enclosure(b, x, 12) == Interval(Fraction(1, 3), Fraction(1, 3) + pow2(-11))
    b2 = pullback_gauge_phi(_baire2_const("b2"))
    assert type(b2) is DirectCode and b2.domain == "cantor" and b2.label == "phi*(b2)"
    assert eval_enclosure(b2, x, 12).contains(Fraction(1, 2))

    # a limit with no modulus pulls back term by term
    b = pullback_gauge_phi(
        Baire2Code(lambda m: Baire1Code(lambda n: continuous_const(Fraction(1, 2) + pow2(-m - n))), label="b2")
    )
    assert type(b) is Baire2Code and b.domain == "cantor" and b.label == "phi*(b2)"
    assert type(b.term(1)) is Baire1Code and b.term(1).domain == "cantor"
    assert type(b.term(1).term(2)) is ContinuousCode and b.term(1).term(2).domain == "cantor"
    assert eval_enclosure(b, x, 12).contains(Fraction(1, 2))


def test_a_pulled_back_direct_code_reads_one_image_per_rule_point():
    """phi of a rule point is an approximant point, equal only to itself.
    The pullback builds it once per point, so 200 queries at one rule
    point leave one accumulator entry in each term read, and each query
    gives the enclosure of a fresh code's first query at an equal point."""

    def pulled():
        built = {}

        def terms(n):
            built[n] = continuous_add(continuous_identity(), continuous_const(pow2(-n)))
            return built[n]

        return pullback_gauge_phi(modulus_limit(terms, lambda j: max(1, j))), built

    rule = lambda i: int(i % 3 == 0)
    g, built = pulled()
    x = CantorPoint(rule)
    boxes = [eval_enclosure(g, x, 8) for _ in range(200)]
    fresh, _ = pulled()
    assert boxes == [eval_enclosure(fresh, CantorPoint(rule), 8)] * 200
    # term 8 is read at stage 8; term 1 only tells whether the terms have a region
    assert {n: len(term._acc) for n, term in built.items()} == {1: 0, 8: 1}


def _psi_of(lo, hi):
    """The psi transfer of the sequence-space direct code answering [lo, hi]."""
    return transfer_gauge_psi(DirectCode(lambda x, s: rt_of(Interval(lo, hi)), domain="cantor"))


def test_psi_transfer_values():
    g = DirectCode(lambda x, s: (1, 1, 2), domain="cantor")
    hat = transfer_gauge_psi(g)
    assert hat.domain == "unit"
    # off the set: exact distance
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(1, 2)), 4) == Interval.point(Fraction(1, 6))
    # on the set: power-of-three bucket of the mirrored value
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(1, 3)), 4) == Interval.point(Fraction(1, 9))
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(0)), 4) == Interval.point(Fraction(1, 9))

    one = UnitPoint.from_rat(Fraction(1))
    assert eval_enclosure(_psi_of(Fraction(3, 8), Fraction(3, 8)), one, 4) == Interval.point(pow3(-2))
    assert eval_enclosure(_psi_of(Fraction(1, 4), Fraction(1, 4)), one, 4) == Interval.point(pow3(-3))
    # an inner enclosure over two buckets maps each end to its own bucket
    assert eval_enclosure(_psi_of(Fraction(1, 4), Fraction(3, 8)), one, 4) == Interval(pow3(-3), pow3(-2))
    assert eval_enclosure(_psi_of(Fraction(1, 5), Fraction(2)), one, 4) == Interval(pow3(-3), pow3(-1))
    # a lower end at 0 maps to 0
    assert eval_enclosure(_psi_of(Fraction(0), Fraction(1, 2)), one, 4) == Interval(Fraction(0), pow3(-2))
    assert eval_enclosure(_psi_of(Fraction(0), Fraction(0)), one, 4) == Interval.point(Fraction(0))

    opaque = UnitPoint.from_fn(lambda k: Interval(Fraction(1, 2) - pow2(-k - 1), Fraction(1, 2) + pow2(-k - 1)))
    assert eval_enclosure(hat, opaque, 4) == Interval(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        transfer_gauge_psi(continuous_const(1, domain="unit"))


def test_modulus_is_resolved_once_per_stage():
    """A limit under a modulus asks the modulus for the finest certified
    2^-j once per stage, not once per point or query: a stage-s scan makes
    s + 1 calls (j = 1 .. s + 1) and one more gives the term index. A
    verdict climbs the stage ladder: the Yes at 1/4 is decided at stage 1,
    and after the stage-10 enclosures the accumulated one decides the No
    at 3/5 there too."""
    calls = []

    def modulus(j):
        calls.append(j)
        return max(1, j)

    g = modulus_limit(lambda n: continuous_const(Fraction(1, 2) + pow2(-n)), modulus)
    points = [UnitPoint.from_rat(Fraction(i, 7)) for i in range(8)]
    for x in points:
        assert verified_above(g, x, Fraction(1, 4), 10) is Verdict.YES
    assert len(calls) == (1 + 1) + 1
    for x in points:
        eval_enclosure(g, x, 10)
        assert verified_above(g, x, Fraction(3, 5), 10) is Verdict.NO
    assert len(calls) == (1 + 1) + 1 + (10 + 1) + 1


def _recording_const(calls, key, c):
    """A constant continuous code whose kernel appends `key` to `calls`."""

    def kernel(r, k):
        calls.append(key)
        return c.numerator, c.numerator, c.denominator

    return ContinuousCode(kernel)


def test_limit_verdict_evaluates_one_block():
    """A limit-code verdict evaluates the trailing block at its own stage
    once, not the block of every rung of the stage ladder below it."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    near_half = lambda calls, key, n: _recording_const(calls, key, Fraction(1, 2) + pow2(-n))
    calls = []
    g = Baire1Code(lambda n: near_half(calls, n, n))
    assert verified_above(g, x, Fraction(1, 4), 12) is Verdict.YES
    assert sorted(calls) == list(range(6, 13))
    # under a modulus the verdict climbs the ladder: stage 1 reads term 1
    # padded by 2^-1, which settles the Yes
    calls = []
    g = modulus_limit(lambda n: near_half(calls, n, n), lambda j: max(1, j))
    assert verified_above(g, x, Fraction(1, 4), 12) is Verdict.YES
    assert calls == [1]
    # Baire-2 at stage 6: terms 3..6, each reading its own terms 3..6
    calls = []
    g = Baire2Code(lambda m: Baire1Code(lambda n: near_half(calls, (m, n), n)))
    assert verified_above(g, x, Fraction(1, 4), 6) is Verdict.YES
    assert sorted(calls) == [(m, n) for m in range(3, 7) for n in range(3, 7)]


def test_repeated_same_stage_query_calls_no_term_kernel():
    """A second query at the stage a point was last read at is answered
    from the stored enclosure, by a verdict as by eval_enclosure. Under a
    modulus, each term a query reads answers from its own store: a limit
    under a modulus whose terms are limits with none reads no term kernel
    on a repeated query either."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    calls = []
    level1 = lambda m: Baire1Code(lambda n: _recording_const(calls, (m, n), Fraction(1, 2) + pow2(-m) + pow2(-n)))
    for g in (Baire2Code(level1), modulus_limit(level1, lambda j: max(1, j + 1))):
        calls.clear()
        first = eval_enclosure(g, x, 8)
        assert calls
        calls.clear()
        assert eval_enclosure(g, x, 8) == first
        assert calls == []
    g = Baire2Code(level1)
    eval_enclosure(g, x, 8)
    calls.clear()
    assert verified_above(g, x, Fraction(1, 4), 8) is Verdict.YES
    assert calls == []


def test_query_at_another_stage_reads_the_block_again():
    """Each query at a stage other than the point's last reads its whole
    block; another point at the same stage is a query of its own."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    calls = []
    g = Baire1Code(lambda n: _recording_const(calls, n, Fraction(1, 2) + pow2(-n)))
    for stage in (8, 4, 8):
        calls.clear()
        eval_enclosure(g, x, stage)
        assert calls == list(range(-(-stage // 2), stage + 1))
    calls.clear()
    eval_enclosure(g, UnitPoint.from_rat(Fraction(2, 3)), 8)
    assert calls == list(range(4, 9))


def test_certificate_outside_the_block_makes_one_extra_call():
    """A limit under a modulus reads term N = max(1, modulus(j)) and, when
    N lies before the stage s, term s as the one extra call, which must
    meet term N padded. On constant terms at stage 12: modulus j -> 1 reads
    terms 1 and 12; j -> j reads term 12 alone."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    for modulus, want in ((lambda j: 1, [1, 12]), (lambda j: max(1, j), [12])):
        calls = []
        g = modulus_limit(lambda n: _recording_const(calls, n, Fraction(1, 2)), modulus)
        assert eval_enclosure(g, x, 12).contains(Fraction(1, 2))
        assert calls == want


def test_below_the_first_modulus_term_reads_it_padded_by_one():
    """Below stage modulus(0) no 2^-j is certified yet; the code reads term
    modulus(0), which sits within 1 of the limit, padded by 1. Terms 1/2 +
    2^-n, modulus j -> j + 5, stages 1 to 4: term 5 every time, and each
    enclosure holds the limit 1/2."""
    calls = []
    g = modulus_limit(lambda n: _recording_const(calls, n, Fraction(1, 2) + pow2(-n)), lambda j: j + 5)
    for stage in (1, 2, 3, 4):
        x = UnitPoint.from_rat(Fraction(stage, 7))
        calls.clear()
        box = eval_enclosure(g, x, stage)
        assert calls == [5]
        assert box == Interval(pow2(-5) - Fraction(1, 2), Fraction(3, 2) + pow2(-5))
        assert box.contains(Fraction(1, 2))
    assert verified_above(g, x, Fraction(1, 4), 6) is Verdict.UNKNOWN  # term 6 padded by 1/2
    assert verified_above(g, x, Fraction(1, 4), 7) is Verdict.YES  # term 7 padded by 1/4


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["gap", "geometric", "baire2", "baire1-terms"]),
    seed=st.integers(0, 10**6),
    level=st.integers(0, 8),
    data=st.data(),
)
def test_modulus_region_encloses_the_kernel_on_its_cell(kind, seed, level, data):
    """The inclusion contract a search relies on when it accepts a cell on
    the region's lower end: at every stage, the region of a limit under a
    modulus on a dyadic cell holds its enclosure at every rational point of
    the cell, below modulus(0) as above it; its terms continuous, limits
    under a modulus, or Baire-1 codes with no modulus."""
    if kind == "gap":
        g = cauchy_gap_gauge(default_cauchy_spec())
    elif kind == "geometric":
        rng = random.Random(seed)
        c = rng.choice([Fraction(1), Fraction(-1, 2)])
        g, _ = _geometric_baire1(_rand_expr(rng, depth=2)[0], None, c, Fraction(1, 2))
    elif kind == "baire2":
        g = _baire2_const("b2")
    else:
        terms = lambda n: Baire1Code(lambda k: continuous_const(Fraction(1, 2) + pow2(-n) + pow2(-k)))
        g = modulus_limit(terms, lambda j: max(1, j))
    i = data.draw(st.integers(0, (1 << level) - 1))
    m = data.draw(st.integers(1, 8))
    x = UnitPoint.from_rat(Fraction(i * m + data.draw(st.integers(0, m)), m << level))
    for stage in data.draw(st.lists(st.integers(0, 16), min_size=1, max_size=4)):
        box = rt_interval(g.region(rt_cell(i, level), stage))
        got = eval_enclosure(g, x, stage)
        assert box.lo <= got.lo and got.hi <= box.hi, (stage, box, got)


def test_a_limit_under_a_modulus_has_a_region_when_its_terms_do():
    terms = lambda n: continuous_const(Fraction(1, 2) + pow2(-n))
    assert modulus_limit(terms, lambda j: j).region is not None
    assert modulus_limit(lambda n: Baire1Code(lambda k: terms(n + k)), lambda j: j).region is not None
    bare = lambda n: DirectCode(lambda x, s: rt_point(Fraction(1, 2)))
    assert modulus_limit(lambda n: Baire1Code(bare), lambda j: j).region is None


def _late_settler():
    # terms 1 for n <= 100 and 1/1000 after, with no modulus
    return Baire1Code(lambda n: continuous_const(Fraction(1) if n <= 100 else Fraction(1, 1000)))


def test_modulus_free_verdict_reads_the_hull_at_its_stage():
    """On a fresh code a stage-400 verdict sees the block n = 200..400,
    the enclosure eval_enclosure reports, so it cannot say Yes on the
    strength of terms it never evaluated."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    g = _late_settler()
    assert verified_above(g, x, Fraction(1, 2), 400) is Verdict.UNKNOWN
    assert eval_enclosure(g, x, 400) == Interval.point(Fraction(1, 1000))


def test_a_modulus_free_verdict_reads_only_its_own_stage():
    """Stage 64 reads the block 32..64, all 1, and stage 400 the block
    200..400, all 1/1000. Asked in that order, the same code answers Yes
    then Unknown, each what a fresh code answers at that stage."""
    x = UnitPoint.from_rat(Fraction(1, 3))
    g = _late_settler()
    for stage, want in ((64, Verdict.YES), (400, Verdict.UNKNOWN)):
        assert verified_above(g, x, Fraction(1, 2), stage) is want
        assert verified_above(_late_settler(), x, Fraction(1, 2), stage) is want


def _cycling(values):
    """Term n is the constant values[n % len(values)]."""
    return lambda n: continuous_const(values[n % len(values)])


_STAGES = st.lists(st.integers(0, 64), min_size=1, max_size=8)
_LEVELS = st.lists(st.fractions(0, 2, max_denominator=8), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.fractions(0, 2, max_denominator=8), min_size=2, max_size=8),
    baire2=st.booleans(),
    stages=_STAGES,
    qs=_LEVELS,
)
def test_modulus_free_verdicts_equal_a_fresh_codes(values, baire2, stages, qs):
    """Non-monotone constant terms, asked at stages 0..64 in random order:
    each verdict is the one a fresh copy of the code gives at that stage,
    and none is No."""

    def build():
        if baire2:
            return Baire2Code(lambda m: Baire1Code(lambda n: _cycling(values)(m + n)))
        return Baire1Code(_cycling(values))

    g, x = build(), UnitPoint.from_rat(Fraction(1, 3))
    for stage in stages:
        for q in qs:
            for check in (verified_above, verified_at_least):
                got = check(g, x, q, stage)
                assert got is check(build(), x, q, stage) and got is not Verdict.NO, (stage, q)


@settings(max_examples=60, deadline=None)
@given(
    limit=st.fractions(0, 2, max_denominator=8),
    signs=st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=8),
    stages=_STAGES,
    qs=_LEVELS,
)
def test_a_decided_verdict_under_a_true_modulus_never_flips(limit, signs, stages, qs):
    """Term n is limit + sign 2^-(n+1) for a cycling, non-monotone sign, so
    modulus(j) = j + 1 is true: once decided, a verdict at q keeps its
    answer at every stage asked after it, and that answer is the limit's."""
    terms = lambda n: continuous_const(limit + signs[n % len(signs)] * pow2(-n - 1))
    g, x = modulus_limit(terms, lambda j: j + 1), UnitPoint.from_rat(Fraction(1, 3))
    decided = {}
    for stage in stages:
        for q in qs:
            for strict, check in ((True, verified_above), (False, verified_at_least)):
                got = check(g, x, q, stage)
                if (q, strict) in decided:
                    assert got is decided[q, strict], (stage, q, strict)
                elif got is not Verdict.UNKNOWN:
                    decided[q, strict] = got
                    assert (got is Verdict.YES) == (limit > q if strict else limit >= q)


# -- the Interval-valued evaluation layer, kept as the reference ----------
#
# Point verdicts run on integer-numerator triples. This is the layer as it
# was written before, in Fractions and Intervals: accumulators folded by
# intersection, limit codes enclosed by the padded block hull, and verdicts
# decided on Fraction compares. A limit under a modulus is given to it as a
# `_ModulusRecord` of its terms and modulus, and evaluated with the modulus
# scanned afresh each time. It evaluates the same kinds of codes through
# their kernels and keeps its own accumulators, so the two layers must
# agree on every enclosure, verdict and exception.

_UNIT = Interval(0, 1)


def _ref_refine(old, new):
    if old is None:
        return new
    got = ref_intersect(old, new)
    if got is None:
        raise CauchyViolation(f"{new} disjoint from accumulated {old}")
    return got


def _ref_block_enclosure(term_at, stage):
    lo_n, hi_n = (1, 2) if stage < 2 else (-(-stage // 2), stage)
    boxes = [term_at(n) for n in range(lo_n, hi_n + 1)]
    hull = boxes[0]
    worst = Fraction(0)
    for a, b in zip(boxes, boxes[1:]):
        hull = Interval(min(hull.lo, b.lo), max(hull.hi, b.hi))
        worst = max(worst, abs(a.lo - b.lo), abs(a.hi - b.hi))
    return ref_pad(hull, worst)


def _ref_resolvable_j(modulus, stage):
    best, j = None, 0
    while j <= 4 * stage + 64 and modulus(j) <= stage:
        best = j
        j += 1
    return best


def _ref_ladder(stage):
    if stage < 0:
        raise ValueError("stage must be >= 0")
    out, s = [], 1
    while s <= stage:
        out.append(s)
        s *= 2
    if not out or out[-1] != stage:
        out.append(stage)
    return out


class _ModulusRecord:
    """A limit under a declared modulus as the reference reads it: terms,
    built once each, and the modulus; `inner` is the limit on [0,1] that
    this one pulls back through phi, or None."""

    kind = "modulus"

    def __init__(self, terms, modulus, domain="unit", inner=None):
        built = {}
        self.term = lambda n: built[n] if n in built else built.setdefault(n, terms(n))
        self.modulus, self.domain, self.inner = modulus, domain, inner


def _ref_pullback(g):
    """pullback_gauge_phi for codes that may hold a _ModulusRecord."""
    if isinstance(g, _ModulusRecord):
        return _ModulusRecord(None, None, domain="cantor", inner=g)
    if g.kind in ("baire1", "baire2"):
        return type(g)(lambda n: _ref_pullback(g.term(n)), domain="cantor")
    return pullback_gauge_phi(g)


class _Reference:
    def __init__(self):
        self.acc = {}

    def limit_under_modulus(self, g, x, stage):
        """Term N padded by 2^-j, checked against term `stage` padded."""
        if g.inner is not None:
            return self.limit_under_modulus(g.inner, phi(x), stage)
        j = _ref_resolvable_j(g.modulus, stage)
        j = 0 if j is None else j
        n = max(1, g.modulus(j))
        got = ref_pad(self.eval(g.term(n), x, stage), pow2(-j))
        if n < stage and ref_intersect(got, ref_pad(self.eval(g.term(stage), x, stage), pow2(-j))) is None:
            raise CauchyViolation("term `stage` avoids term N")
        return got

    def eval(self, g, x, stage):
        key = (id(g), x)
        if g.kind == "continuous":
            if g.domain == "unit":
                if not isinstance(x, UnitPoint):
                    raise DomainError("not a unit point")
                box = ref_intersect(x.approx(stage), _UNIT)
                if box is None:
                    raise DomainError("outside [0,1]")
                raw = g.region_eval(box, stage)
            else:
                if not isinstance(x, CantorPoint):
                    raise DomainError("not a sequence point")
                raw = g.region_eval(Cylinder(x.index(stage), stage), stage)
            self.acc[key] = got = _ref_refine(self.acc.get(key), raw)
            return got
        if g.kind in ("direct", "modulus"):
            raw = rt_interval(g.kernel(x, stage)) if g.kind == "direct" else self.limit_under_modulus(g, x, stage)
            self.acc[key] = got = _ref_refine(self.acc.get(key), raw)
            return got
        return _ref_block_enclosure(lambda n: self.eval(g.term(n), x, stage), stage)

    def enclosure(self, g, x, stage):
        if stage < 0:
            raise ValueError("stage must be >= 0")
        return self.eval(g, x, stage)

    @staticmethod
    def _decide(lo, hi, q, strict):
        yes = lo is not None and (lo > q if strict else lo >= q)
        no = hi is not None and (hi <= q if strict else hi < q)
        if yes and no:
            raise CauchyViolation("both sides")
        return Verdict.YES if yes else Verdict.NO if no else None

    def verdict(self, g, x, q, stage, strict):
        q = Fraction(q)
        if q < 0:
            raise ValueError("need q >= 0")
        if g.kind not in ("baire1", "baire2"):
            for s in _ref_ladder(stage):
                box = self.enclosure(g, x, s)
                got = self._decide(box.lo, box.hi, q, strict)
                if got is not None:
                    return got
            return Verdict.UNKNOWN
        # a limit code reads one block, at the query's own stage, and never says No
        box = self.enclosure(g, x, stage)
        return Verdict.YES if self._decide(box.lo, box.hi, q, strict) is Verdict.YES else Verdict.UNKNOWN


def _geometric_terms(limit, c, ratio):
    return lambda n: continuous_add(limit(), continuous_const(c * ratio**n))


_MODULUS = lambda j: max(1, j + 1)  # true for geometric terms, |c| <= 1, |ratio| <= 1/2


_KINDS = (
    "continuous", "direct", "direct-stand-in", "direct-liar", "pin",
    "baire1", "baire1-bare", "baire1-liar", "baire2", "baire2-bare",
)


@st.composite
def _codes(draw, kind):
    """(space, builder) for one gauge code of the given kind, on [0,1] or
    pulled back to the sequence space; the builder is called once per
    layer, so that each layer evaluates codes of its own, with ref=True
    for the reference layer, which gets a _ModulusRecord for each limit
    under a modulus."""
    seed = draw(st.integers(0, 10**6))
    expr = lambda: _rand_expr(random.Random(seed), depth=2)[0]
    c = draw(st.sampled_from([Fraction(1), Fraction(-1, 2), Fraction(1, 3)]))
    ratio = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)]))
    tight, v = draw(st.integers(1, 12)), draw(st.fractions(0, 2, max_denominator=16))

    def direct(lim):
        g = expr()

        def kernel(x, s):
            box = rt_intersect(rt_of(x.approx(s)), (0, 1, 1))
            if box is None:
                raise DomainError("outside [0,1]")
            return g.kernel(box, s)

        return DirectCode(kernel)

    def baire2(lim, outer):
        def level1(m):
            shifted = lambda: continuous_add(expr(), continuous_const(pow2(-m)))
            return lim(_geometric_terms(shifted, c, ratio), _MODULUS)

        return Baire2Code(level1) if outer is None else lim(level1, outer)

    flip = draw(st.integers(2, 14))
    recipes = {
        "continuous": lambda lim: expr(),
        "direct": direct,
        # [2^-tight, 1] below stage `tight`, then a value that may lie outside
        "direct-stand-in": lambda lim: DirectCode(
            lambda x, s: (1, 1 << tight, 1 << tight) if s < tight else rt_point(v)
        ),
        "direct-liar": lambda lim: DirectCode(lambda x, s: (1, 1, 2 + s % 3)),
        "baire1": lambda lim: lim(_geometric_terms(expr, c, ratio), _MODULUS),
        "baire1-bare": lambda lim: Baire1Code(_geometric_terms(expr, c, ratio)),
        "baire1-liar": lambda lim: lim(lambda n: continuous_const(Fraction(5 if n < flip else 0)), lambda j: 1),
        "baire2": lambda lim: baire2(lim, _MODULUS),
        "baire2-bare": lambda lim: baire2(lim, None),
    }
    if kind == "pin":
        z = draw(st.sampled_from([("", "01"), ("1", "0"), ("01", "110")]))
        return "cantor", lambda ref: oracle_pin_gauge(OracleSpec(CantorPoint.from_pattern(*z)))
    recipe = recipes[kind]
    build = lambda ref: recipe(_ModulusRecord if ref else modulus_limit)
    if draw(st.booleans()):
        return "unit", build
    return "cantor", lambda ref: (_ref_pullback if ref else pullback_gauge_phi)(build(ref))


@st.composite
def _points(draw, space):
    """A builder of one point; approximant points keep the history of their
    queries, so each layer gets a point of its own."""
    if space == "cantor":
        prefix = draw(st.text("01", max_size=6))
        if draw(st.booleans()):
            period = draw(st.text("01", min_size=1, max_size=3))
            return lambda: CantorPoint.from_pattern(prefix, period)
        bits = prefix + "1"
        return lambda: CantorPoint(lambda i: int(bits[i % len(bits)]) ^ (i > 20))
    kind = draw(st.sampled_from(["rational", "end", "outside", "quad", "approx"]))
    if kind == "rational":
        q = draw(st.fractions(0, 1, max_denominator=64))
    elif kind == "end":
        q = draw(st.sampled_from([Fraction(0), Fraction(1)]))
    elif kind == "outside":
        q = draw(st.sampled_from([Fraction(-1, 3), Fraction(3, 2)]))
    elif kind == "quad":
        a = draw(st.fractions(0, 1, max_denominator=8))
        b = draw(st.fractions(Fraction(-1, 4), Fraction(1, 4), max_denominator=8).filter(bool))
        return lambda: quad(a, b)
    else:
        w = draw(st.fractions(0, 1, max_denominator=64))
        return lambda: UnitPoint.from_fn(lambda k: Interval(w - pow2(-k - 1), w + pow2(-k - 1)))
    return lambda: UnitPoint.from_rat(q)


_QS = st.one_of(
    st.just(Fraction(0)),
    st.tuples(st.integers(0, 64), st.integers(0, 8)).map(lambda t: Fraction(t[0], 1 << t[1])),
    st.fractions(0, 2, max_denominator=30),
)


def _outcome(call):
    """The value of call(), or the class of the ValueError it raised
    (CauchyViolation and DomainError among them)."""
    try:
        return call()
    except ValueError as e:
        return type(e)


@pytest.mark.parametrize("kind", _KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_triple_layer_matches_the_interval_reference(kind, data):
    """Enclosures, verdicts and exceptions of the triple layer are those of
    the Interval reference, over every code kind, point kind and q, with
    the stages in random order so the accumulators are reused."""
    space, code = data.draw(_codes(kind))
    point = data.draw(_points(space))
    ops = data.draw(st.lists(
        st.tuples(st.sampled_from(["enclosure", "above", "at_least"]), st.integers(0, 16), _QS),
        min_size=1, max_size=6,
    ))
    g, x, ref, rg, rx = code(False), point(), _Reference(), code(True), point()
    for op, stage, q in ops:
        if op == "enclosure":
            got = _outcome(lambda: eval_enclosure(g, x, stage))
            want = _outcome(lambda: ref.enclosure(rg, rx, stage))
        else:
            check = verified_above if op == "above" else verified_at_least
            got = _outcome(lambda: check(g, x, q, stage))
            want = _outcome(lambda: ref.verdict(rg, rx, q, stage, op == "above"))
        assert got == want, (op, stage, q)
        if isinstance(want, type):
            break


# -- hand-written kernels against Interval reference evaluators -----------
#
# The pin gauge and the dirichlet and sqrt-reciprocal families build their
# triples by hand. The evaluators below are Interval-valued references for
# them; each kernel's triple must be the same interval.


def _ref_pin_at(spec):
    def at(x, stage):
        f = pin_index(spec, x, bound=max(stage, 8))
        if f == 0:
            return Interval.point(Fraction(1))
        if f is None:
            return Interval(Fraction(0), Fraction(1))
        return Interval.point(pow2(-f))

    return at


def _ref_dirichlet_at(eps):
    def at(p, stage):
        if p.is_rational:
            cap = stage + 64
            n = stern_brocot_index(p.num, p.den, cap)
            if n is None:
                return Interval(Fraction(0), eps * pow2(-cap))
            return Interval.point(eps * pow2(-n))
        if p.is_exact:
            return Interval.point(Fraction(1))
        return Interval(Fraction(0), Fraction(1))

    return at


def _ref_sqrt_recip_at(eps):
    def at(p, stage):
        q = p.exact if p.is_rational else None
        if q is None:
            raise ValueError(f"gauge needs exact rational points, got {p}")
        if q == 0:
            return Interval.point((eps / 4) ** 2)
        return Interval.point(eps * q / 2)

    return at


def _kernel_outcome(call):
    try:
        return call()
    except ValueError as e:
        return str(e)


_EPS = st.one_of(
    st.integers(0, 12).map(lambda k: pow2(-k)),
    st.fractions(Fraction(1, 30), 1, max_denominator=30),
)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["dirichlet", "sqrt-reciprocal"]),
    eps=_EPS,
    point=_points("unit"),
    stages=st.lists(st.integers(0, 40), min_size=1, max_size=4),
)
def test_family_kernels_match_their_interval_evaluators(family, eps, point, stages):
    """Rationals (0 and 1 among them, points outside [0,1] and deep
    Stern-Brocot points past the cap), quadratic irrationals and
    approximant points."""
    code = builtin_integrands()[family][1](eps)
    at = (_ref_dirichlet_at if family == "dirichlet" else _ref_sqrt_recip_at)(eps)
    x = point()
    for s in stages:
        got = _kernel_outcome(lambda: rt_interval(code.kernel(x, s)))
        assert got == _kernel_outcome(lambda: at(x, s)), (x, s)


def test_dirichlet_kernel_past_the_stern_brocot_cap():
    eps = Fraction(3, 10)
    code = builtin_integrands()["dirichlet"][1](eps)
    x = UnitPoint.from_rat(Fraction(1, 70))  # index 2^68 + 2, past the cap stage + 64
    for s in (0, 5, 69, 80):
        assert rt_interval(code.kernel(x, s)) == _ref_dirichlet_at(eps)(x, s)
    assert stern_brocot_index(1, 70, 64) is None


@settings(max_examples=100, deadline=None)
@given(
    z=st.sampled_from([("", "01"), ("1", "0"), ("01", "110"), ("0110", "1")]),
    point=_points("cantor"),
    near=st.integers(0, 40),
    stages=st.lists(st.integers(0, 40), min_size=1, max_size=4),
)
def test_pin_kernel_matches_its_interval_evaluator(z, point, near, stages):
    """Pattern and rule points, Z itself, and rule points agreeing with Z
    on their first `near` bits, so the scan bound sometimes runs out."""
    spec = OracleSpec(CantorPoint.from_pattern(*z))
    code, at = oracle_pin_gauge(spec), _ref_pin_at(spec)
    zed = spec.Z
    for x in (point(), zed, CantorPoint(lambda i: zed.bit(i) ^ (i >= near))):
        for s in stages:
            assert rt_interval(code.kernel(x, s)) == at(x, s), (x, s)


# |x - 1/3| + 1/8 as every code kind, the limits' terms converging to it from above
_BOUND_CODES = {
    "continuous": lambda: parse_gauge("|x - 1/3| + 1/8"),
    "direct": lambda: DirectCode(lambda x, s: rt_point(abs(x.exact_value() - Fraction(1, 3)) + Fraction(1, 8))),
    "modulus": lambda: modulus_limit(lambda n: parse_gauge(f"|x - 1/3| + 1/8 + 2^-{n + 2}"), lambda j: j),
    "baire1": lambda: parse_gauge("baire1(n -> |x - 1/3| + 1/8 + 2^-(n+2))"),
    "baire2": lambda: parse_gauge("baire2(n -> baire1(k -> |x - 1/3| + 1/8 + 2^-(n+2) + 2^-(k+2)))"),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BOUND_CODES)),
    x=st.fractions(0, 1, max_denominator=12),
    q=st.fractions(0, 1, max_denominator=24),
    k=st.integers(1, 6),
    strict=st.booleans(),
    stage=st.integers(0, 12),
)
def test_a_bound_over_any_denominator_gives_the_reduced_bounds_verdict(kind, x, q, k, strict, stage):
    """_verdict on the unreduced bound (k n, k d) answers what verified_above
    or verified_at_least answers on n/d, each on a fresh code."""
    point = UnitPoint.from_rat(x)
    public = verified_above if strict else verified_at_least
    want = public(_BOUND_CODES[kind](), point, q, stage)
    got = _verdict(_BOUND_CODES[kind](), point, k * q.numerator, k * q.denominator, stage, strict)
    assert got is want


def test_both_sides_of_an_unreduced_width_prints_the_reduced_bound():
    """A code whose enclosure at 1/2 is the inverted [3/4, 1/4] verifies both
    sides of the middle cell's width, which `widths` gives as 2/4."""
    half = UnitPoint.from_rat(Fraction(1, 2))
    g = DirectCode(lambda x, s: (3, 1, 4) if x == half else (1, 1, 1), label="inverted")
    part = TaggedPartition((Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)),
                           tuple(UnitPoint.from_rat(Fraction(n, 8)) for n in (1, 4, 7)))
    assert [(wn, wd) for _, wn, wd in part.widths()] == [(1, 4), (2, 4), (1, 4)]
    with pytest.raises(CauchyViolation) as err:
        verify_partition(g, part, 8)
    assert str(err.value) == f"code DirectCode(inverted, domain=unit) verifies both sides of >= 1/2 at {half!r}"
