import random
from fractions import Fraction

import pytest

from finecover.exact import CauchyViolation, Interval, pow2, pow3
from finecover.gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    DirectCode,
    DomainError,
    Verdict,
    continuous_abs,
    continuous_add,
    continuous_const,
    continuous_dist_to,
    continuous_identity,
    continuous_max,
    continuous_min,
    continuous_scale,
    continuous_sub,
    eval_enclosure,
    preimage_pieces,
    pullback_gauge_phi,
    scale_code,
    transfer_gauge_psi,
    verified_above,
    verified_at_least,
)
from finecover.spaces import Ball, CantorPoint, Cylinder, UnitPoint


def _rand_expr(rng, depth=3):
    """Random positive-free expression with an exact reference evaluator."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            q = Fraction(rng.randrange(0, 9), 8)
            return continuous_const(q), lambda x, q=q: q
        if kind == 1:
            return continuous_identity(), lambda x: x
        pts = sorted({Fraction(rng.randrange(0, 17), 16) for _ in range(rng.randrange(1, 4))})
        return continuous_dist_to(pts), lambda x, ps=tuple(pts): min(abs(x - p) for p in ps)
    op = rng.randrange(6)
    a_code, a_fn = _rand_expr(rng, depth - 1)
    if op == 0:
        return continuous_abs(a_code), lambda x: abs(a_fn(x))
    if op == 1:
        c = rng.choice([Fraction(1, 4), Fraction(1, 2)])
        return continuous_scale(c, a_code), lambda x, c=c: c * a_fn(x)
    b_code, b_fn = _rand_expr(rng, depth - 1)
    if op == 2:
        return continuous_add(a_code, b_code), lambda x: a_fn(x) + b_fn(x)
    if op == 3:
        return continuous_sub(a_code, b_code), lambda x: a_fn(x) - b_fn(x)
    if op == 4:
        return continuous_min(a_code, b_code), lambda x: min(a_fn(x), b_fn(x))
    return continuous_max(a_code, b_code), lambda x: max(a_fn(x), b_fn(x))


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
        assert first.encloses(second)
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


def test_direct_code_accumulation():
    def ev(x, stage):
        if stage < 5:
            return Interval(Fraction(0), Fraction(1))
        return Interval(Fraction(1, 2), Fraction(3, 4))

    g = DirectCode(ev, monotone=True)
    x = UnitPoint.from_rat(Fraction(1, 3))
    assert eval_enclosure(g, x, 8) == Interval(Fraction(1, 2), Fraction(3, 4))
    # later coarse queries keep what was already verified
    assert eval_enclosure(g, x, 1) == Interval(Fraction(1, 2), Fraction(3, 4))

    raw = DirectCode(ev, monotone=False)
    assert eval_enclosure(raw, x, 8) == Interval(Fraction(1, 2), Fraction(3, 4))
    assert eval_enclosure(raw, x, 1) == Interval(Fraction(0), Fraction(1))


def test_yes_sticks_across_off_ladder_stages():
    # tight only at precision 6; the running intersection keeps the Yes
    def ev(region, k):
        if k == 6:
            return Interval.point(Fraction(1, 2))
        return Interval(Fraction(0), Fraction(1))

    g = DirectCode(lambda x, s: ev(None, s), monotone=True)
    x = UnitPoint.from_rat(Fraction(1, 4))
    assert verified_above(g, x, Fraction(1, 3), 6) is Verdict.YES
    assert verified_above(g, x, Fraction(1, 3), 10) is Verdict.YES


def _geometric_baire1(limit_code, limit_fn, c, ratio, declare_modulus=True):
    # f_n = limit + c * ratio^n, |c| <= 1, ratio <= 1/2, so N(2^-j) = j + 1 works
    def term(n):
        return continuous_add(limit_code, continuous_const(c * ratio**n))

    modulus = (lambda j: max(1, j + 1)) if declare_modulus else None
    return Baire1Code(term, modulus=modulus), limit_fn


def test_baire1_trailing_block_example():
    g = Baire1Code(
        lambda n: continuous_const(Fraction(1, 2) + pow2(-n)),
        modulus=lambda j: max(1, j),
    )
    x = UnitPoint.from_rat(Fraction(2, 7))
    box = eval_enclosure(g, x, 10)
    assert Interval(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 32)).encloses(box)
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
    g = Baire1Code(
        lambda n: continuous_const(Fraction(5 if n < 12 else 0)),
        modulus=lambda j: 1,
    )
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
        return Baire1Code(
            lambda n, m=m: continuous_const(Fraction(1, 2) + pow2(-m) + pow2(-n)),
            modulus=lambda j: max(1, j),
        )

    g = Baire2Code(level1, modulus=lambda j: max(1, j))
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
        return Baire1Code(
            lambda n, m=m: continuous_const(Fraction(1, 2) + pow2(-m) + pow2(-n)),
            modulus=lambda j: max(1, j),
            label=f"{label}-{m}",
        )

    return Baire2Code(level1, modulus=lambda j: max(1, j), label=label)


def test_scale_code_kinds():
    g = scale_code(continuous_dist_to([Fraction(1, 2)]), Fraction(1, 2))
    x = UnitPoint.from_rat(Fraction(1, 4))
    assert type(g) is ContinuousCode and g.kind == "continuous"
    assert g.label == "scale(1/2,dist('1/2',))"
    assert eval_enclosure(g, x, 4) == Interval.point(Fraction(1, 8))

    d = scale_code(DirectCode(lambda p, s: Interval.point(Fraction(3, 8)), monotone=False, label="d"), Fraction(2))
    assert type(d) is DirectCode and d.kind == "direct" and d.label == "scale(2,d)"
    assert d.monotone is False
    assert eval_enclosure(d, x, 4) == Interval.point(Fraction(3, 4))

    b = scale_code(
        Baire1Code(
            lambda n: continuous_const(Fraction(1, 2) + pow2(-n)),
            modulus=lambda j: max(1, j),
            label="b1",
        ),
        Fraction(2),
    )
    assert type(b) is Baire1Code and b.kind == "baire1" and b.label == "scale(2,b1)"
    assert b.modulus(3) == 4  # factor 2 costs one more bit of the modulus
    assert b.term(1).label == "scale(2,1)"
    box = eval_enclosure(b, x, 12)
    assert box.contains(Fraction(1))
    assert box.width <= Fraction(1, 64)

    b2 = scale_code(_baire2_const("b2"), Fraction(3))
    assert type(b2) is Baire2Code and b2.kind == "baire2" and b2.label == "scale(3,b2)"
    assert b2.modulus(5) == 7  # factor 3 costs two more bits
    assert type(b2.term(1)) is Baire1Code and b2.term(1).label == "scale(3,b2-1)"
    assert b2.term(1).modulus(5) == 7
    box = eval_enclosure(b2, x, 12)
    assert box.contains(Fraction(3, 2))
    assert verified_above(b2, x, Fraction(1), 12) is Verdict.YES

    assert scale_code(b, Fraction(1)).modulus(3) == 4  # no shift for factors <= 1
    with pytest.raises(ValueError):
        scale_code(g, Fraction(0))


def test_pullback_phi():
    g = continuous_dist_to([Fraction(1, 2)])
    back = pullback_gauge_phi(g)
    assert type(back) is ContinuousCode and back.kind == "continuous"
    assert back.domain == "cantor" and back.label == "phi*(dist('1/2',))"
    x = CantorPoint.from_pattern("", "01")  # phi = 1/3
    box = eval_enclosure(back, x, 6)
    assert box.contains(Fraction(1, 6)) and box.width <= pow2(-6)
    assert back.region_eval(Cylinder("1"), 4) == Interval(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        pullback_gauge_phi(continuous_const(1, domain="cantor"))

    d = pullback_gauge_phi(DirectCode(lambda p, s: Interval.point(p.rational_value()), monotone=False, label="id"))
    assert type(d) is DirectCode and d.kind == "direct"
    assert d.domain == "cantor" and d.label == "phi*(id)" and d.monotone is False
    assert eval_enclosure(d, x, 4) == Interval.point(Fraction(1, 3))

    mod = lambda j: max(1, j)
    b = pullback_gauge_phi(
        Baire1Code(lambda n: continuous_add(continuous_identity(), continuous_const(pow2(-n))), modulus=mod, label="b1")
    )
    assert type(b) is Baire1Code and b.kind == "baire1"
    assert b.domain == "cantor" and b.label == "phi*(b1)" and b.modulus is mod
    assert type(b.term(2)) is ContinuousCode and b.term(2).domain == "cantor"
    box = eval_enclosure(b, x, 12)
    assert box.contains(Fraction(1, 3)) and box.width <= Fraction(1, 64)

    b2 = pullback_gauge_phi(_baire2_const("b2"))
    assert type(b2) is Baire2Code and b2.kind == "baire2"
    assert b2.domain == "cantor" and b2.label == "phi*(b2)"
    assert type(b2.term(1)) is Baire1Code and b2.term(1).domain == "cantor"
    assert eval_enclosure(b2, x, 12).contains(Fraction(1, 2))


def test_psi_transfer_values():
    g = DirectCode(lambda x, s: Interval.point(Fraction(1, 2)), domain="cantor")
    hat = transfer_gauge_psi(g)
    assert hat.domain == "unit"
    # off the set: exact distance
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(1, 2)), 4) == Interval.point(Fraction(1, 6))
    # on the set: power-of-three bucket of the mirrored value
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(1, 3)), 4) == Interval.point(Fraction(1, 9))
    assert eval_enclosure(hat, UnitPoint.from_rat(Fraction(0)), 4) == Interval.point(Fraction(1, 9))

    finer = transfer_gauge_psi(DirectCode(lambda x, s: Interval.point(Fraction(3, 8)), domain="cantor"))
    assert eval_enclosure(finer, UnitPoint.from_rat(Fraction(1)), 4) == Interval.point(pow3(-2))
    quarter = transfer_gauge_psi(DirectCode(lambda x, s: Interval.point(Fraction(1, 4)), domain="cantor"))
    assert eval_enclosure(quarter, UnitPoint.from_rat(Fraction(1)), 4) == Interval.point(pow3(-3))

    opaque = UnitPoint.from_fn(lambda k: Interval(Fraction(1, 2) - pow2(-k - 1), Fraction(1, 2) + pow2(-k - 1)))
    assert eval_enclosure(hat, opaque, 4) == Interval(Fraction(0), Fraction(1, 2))
    with pytest.raises(DomainError):
        transfer_gauge_psi(continuous_const(1, domain="unit"))


def test_preimage_pieces_constants():
    zero = Baire1Code(lambda n: continuous_const(0), modulus=lambda j: 1)
    pieces = preimage_pieces(zero, Ball(UnitPoint.from_rat(Fraction(0)), Fraction(1)), 3)
    assert len(pieces) == 3
    for piece in pieces:
        assert piece == [Interval(Fraction(0), Fraction(1))]

    one = Baire1Code(lambda n: continuous_const(1), modulus=lambda j: 1)
    pieces = preimage_pieces(one, Ball(UnitPoint.from_rat(Fraction(0)), Fraction(1, 2)), 4)
    assert all(piece == [] for piece in pieces)


def test_preimage_pieces_inner_approximation():
    # limit is |x - 1/2|; membership ball B(0, 1/4) means x in (1/4, 3/4)
    g = Baire1Code(
        lambda n: continuous_add(continuous_dist_to([Fraction(1, 2)]), continuous_const(pow2(-n))),
        modulus=lambda j: max(1, j + 1),
    )
    pieces = preimage_pieces(g, Ball(UnitPoint.from_rat(Fraction(0)), Fraction(1, 4)), 5)
    prev = []
    for piece in pieces:
        for box in piece:
            assert Fraction(1, 4) < box.lo and box.hi < Fraction(3, 4)
        for old in prev:
            assert any(new.encloses(old) for new in piece)
        prev = piece
    assert pieces[-1] != []
    # no modulus, nothing verifiable
    bare = Baire1Code(lambda n: continuous_const(0))
    assert preimage_pieces(bare, Ball(UnitPoint.from_rat(Fraction(0)), Fraction(1)), 2) == [[], []]
