import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import quad
from interval_ref import ref_add, ref_mul
from quad_ref import ref_cmp
from read_ref import ref_value

from finecover.covers import Obstruction, TaggedPartition
from finecover.exact import Interval, pow2, rt_interval
from finecover.gauges import Verdict, eval_enclosure, scale_code
from finecover.integral import (
    EvaluationError,
    Integrand,
    IntegralCertificate,
    builtin_integrands,
    default_depth,
    default_hints,
    dirichlet_hints,
    integrate,
    poly_integrand,
    riemann_sum,
    stern_brocot_index,
)
from finecover.serialize import parse_unit
from finecover.spaces import UnitPoint

F = Fraction
STAGE = 16


def up(q):
    return UnitPoint.from_rat(F(q))


def test_riemann_sum_frozen():
    ident, _, _ = poly_integrand([0, 1])
    t = TaggedPartition((F(0), F(1)), (up("1/2"),))
    assert riemann_sum(ident, t) == Interval.point(F(1, 2))

    square, _, _ = poly_integrand([0, 0, 1])
    cuts = tuple(F(i, 4) for i in range(5))
    tags = tuple(up(F(2 * i + 1, 8)) for i in range(4))
    s = riemann_sum(square, TaggedPartition(cuts, tags))
    assert s == Interval.point(F(21, 64))


def test_riemann_sum_dirichlet_rational_tags():
    f, _, _ = builtin_integrands()["dirichlet"]
    cuts = tuple(F(i, 4) for i in range(5))
    tags = tuple(up(F(2 * i + 1, 8)) for i in range(4))
    assert riemann_sum(f, TaggedPartition(cuts, tags)) == Interval.point(F(1))


def test_riemann_sum_propagates_evaluator_failure():
    f, _, _ = builtin_integrands()["sqrt-reciprocal"]
    opaque = UnitPoint.from_fn(lambda k: Interval(F(1, 3), F(1, 3)), label="blob")
    t = TaggedPartition((F(0), F(1)), (opaque,))
    with pytest.raises(EvaluationError, match="blob"):
        riemann_sum(f, t)


def _ref_riemann_sum(f, part, prec):
    """The Interval fold riemann_sum was written as before its integer sum."""
    total = Interval.point(F(0))
    for lo, hi, tag in zip(part.cuts, part.cuts[1:], part.tags):
        if hi != lo:
            box = f.at(tag, prec)
            total = ref_add(total, Interval((hi - lo) * box.lo, (hi - lo) * box.hi))
    return total


@st.composite
def _partitions(draw):
    """Cuts with small, mostly non-dyadic denominators, repeated cuts
    (zero-width cells) allowed; each tag a rational of its cell or, in a
    cell of positive width, a quadratic irrational inside it."""
    inner = draw(st.lists(st.fractions(0, 1, max_denominator=30), max_size=8))
    cuts = [F(0)] + sorted(inner) + [F(1)]
    tags = []
    for lo, hi in zip(cuts, cuts[1:]):
        w = hi - lo
        if w and draw(st.booleans()):
            # lo + w c (sqrt2 - 1), strictly inside for 0 < c <= 2
            c = draw(st.fractions(F(1, 8), 2, max_denominator=8))
            tags.append(quad(lo - w * c, w * c))
        else:
            tags.append(up(lo + w * draw(st.fractions(0, 1, max_denominator=12))))
    return TaggedPartition(tuple(cuts), tuple(tags))


_INTEGRANDS = st.one_of(
    st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1, max_size=4).map(lambda cs: poly_integrand(cs)[0]),
    st.sampled_from(["dirichlet", "step"]).map(lambda name: builtin_integrands()[name][0]),
)


@settings(max_examples=150, deadline=None)
@given(f=_INTEGRANDS, part=_partitions(), prec=st.integers(0, 30))
# a middle cell whose two cuts share their denominator, between two that do not
@example(f=poly_integrand([0, 1])[0], part=TaggedPartition((F(0), F(1, 3), F(2, 3), F(1)), (up("1/6"), up("1/2"), up("5/6"))), prec=4)
def test_integer_sum_matches_the_interval_fold(f, part, prec):
    assert riemann_sum(f, part, prec) == _ref_riemann_sum(f, part, prec)


# -- built-in kernels against Interval reference evaluators ---------------
#
# The built-in integrands are triple kernels. The evaluators below are the
# Interval-valued references for them; each kernel's triple must be the
# same interval, and `at` must return it.


def _ref_poly_at(coeffs):
    def at(tag, prec):
        if tag.is_rational:
            acc = F(0)
            for c in reversed(coeffs):
                acc = acc * tag.exact + c
            return Interval.point(acc)
        box = tag.approx(prec + 2)
        acc = Interval.point(F(0))
        for c in reversed(coeffs):
            acc = ref_add(ref_mul(acc, box), Interval.point(c))
        return acc

    return at


def _ref_sqrt_recip_at(tag, prec):
    q = tag.exact if tag.is_rational else None
    if q == 0:
        return Interval.point(F(0))
    if q is None or q < 0:
        raise EvaluationError(f"reciprocal square root needs an exact rational in [0,1], got {tag}")
    s = isqrt((q.denominator << (2 * prec)) // q.numerator)
    return Interval(F(s, 1 << prec), F(s + 1, 1 << prec))


def _ref_dirichlet_at(tag, prec):
    if tag.is_rational:
        return Interval.point(F(1))
    if tag.is_exact:
        return Interval.point(F(0))
    return Interval(F(0), F(1))


def _ref_step_at(c):
    def at(tag, prec):
        if tag.is_exact:
            return Interval.point(F(1 if ref_cmp(ref_value(tag), (c, 0)) >= 0 else 0))
        box = tag.approx(prec)
        if box.lo >= c:
            return Interval.point(F(1))
        if box.hi < c:
            return Interval.point(F(0))
        return Interval(F(0), F(1))

    return at


_REF_AT = {
    "identity": _ref_poly_at([F(0), F(1)]),
    "square": _ref_poly_at([F(0), F(0), F(1)]),
    "sqrt-reciprocal": _ref_sqrt_recip_at,
    "dirichlet": _ref_dirichlet_at,
    "step": _ref_step_at(F(3, 8)),
}


@st.composite
def _tags(draw):
    """A factory of one tag: rationals (0, 1, dyadic, small and large
    denominators), quadratic irrationals, and approximant points, which
    keep the history of their queries, so each call gets a tag of its own."""
    kind = draw(st.sampled_from(["end", "rational", "dyadic", "quad", "approx"]))
    if kind == "end":
        q = draw(st.sampled_from([F(0), F(1)]))
    elif kind == "rational":
        q = draw(st.fractions(0, 1, max_denominator=10**6))
    elif kind == "dyadic":
        k = draw(st.integers(0, 40))
        q = F(draw(st.integers(0, 1 << k)), 1 << k)
    elif kind == "quad":
        # |b sqrt2| < 1/4, so a + b sqrt2 lies inside [0,1]
        a = draw(st.fractions(F(1, 4), F(3, 4), max_denominator=8))
        b = draw(st.fractions(F(-1, 8), F(1, 8), max_denominator=16).filter(bool))
        return lambda: quad(a, b)
    else:
        w = draw(st.fractions(F(1, 4), F(3, 4), max_denominator=64))
        return lambda: UnitPoint.from_fn(lambda k: Interval(w - pow2(-k - 1), w + pow2(-k - 1)))
    return lambda: up(q)


def _at_outcome(call):
    try:
        return call()
    except EvaluationError as e:
        return EvaluationError, str(e)


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_REF_AT)),
    coeffs=st.lists(st.fractions(-3, 3, max_denominator=7), min_size=1, max_size=4),
    tag=_tags(),
    prec=st.integers(0, 30),
)
def test_integrand_kernels_match_their_interval_evaluators(name, coeffs, tag, prec):
    """Every built-in integrand, and a random polynomial; where the
    reference raises, `at` and the Riemann sum raise the same
    EvaluationError, naming the tag."""
    cases = [(builtin_integrands()[name][0], _REF_AT[name]), (poly_integrand(coeffs)[0], _ref_poly_at(coeffs))]
    for f, ref in cases:
        want = _at_outcome(lambda: ref(tag(), prec))
        assert _at_outcome(lambda: rt_interval(f.kernel(tag(), prec))) == want
        assert _at_outcome(lambda: f.at(tag(), prec)) == want
        if isinstance(want, tuple):
            x = tag()
            assert str(x) in want[1]
            with pytest.raises(EvaluationError) as got:
                riemann_sum(f, TaggedPartition((F(0), F(1)), (x,)), prec)
            assert str(got.value) == want[1]


def test_a_callers_kernel_serves_at_and_the_sum():
    """A caller's own kernel serves `at` and the sum, and a failure in it
    is reported as an EvaluationError naming the integrand and the tag."""
    f = Integrand(lambda tag, prec: (2, 3, 6), label="band")
    assert f.at(up("1/5"), 4) == Interval(F(1, 3), F(1, 2))
    assert riemann_sum(f, TaggedPartition((F(0), F(1, 3), F(1)), (up(0), up(1)))) == Interval(F(1, 3), F(1, 2))
    broken = Integrand(lambda tag, prec: 1 // 0, label="broken")
    with pytest.raises(EvaluationError, match=r"integrand broken failed at tag UnitPoint\(1/5\): integer division"):
        broken.at(up("1/5"), 4)
    with pytest.raises(EvaluationError, match=r"integrand broken failed at tag UnitPoint\(1/5\): integer division"):
        riemann_sum(broken, TaggedPartition((F(0), F(1)), (up("1/5"),)))


def test_special_value_overrides_evaluator():
    f, _, _ = builtin_integrands()["sqrt-reciprocal"]
    assert f.at(up(0), 8) == Interval.point(F(0))


def test_integrate_identity():
    f, fam, ref = builtin_integrands()["identity"]
    eps = F(1, 16)
    cert = integrate(f, fam, eps, default_depth("identity", eps), STAGE)
    assert isinstance(cert, IntegralCertificate)
    assert cert.claim.contains(ref)
    assert cert.claim.lo == cert.sum.lo - eps
    assert cert.claim.hi == cert.sum.hi + eps


def test_integrate_builds_few_fractions(monkeypatch):
    """The search, the partition and the sum read each point's integer
    pair: 4,096 cells of identity at eps = 1/512 build under 200 Fractions
    all told, where one per sample point would be over 4,096. A count of
    work, not a timing bound."""
    f, fam, _ = builtin_integrands()["identity"]
    eps = F(1, 512)
    depth = default_depth("identity", eps)
    built, new = [], Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    cert = integrate(f, fam, eps, depth, STAGE)
    monkeypatch.undo()
    assert len(cert.partition.tags) == 4096
    assert len(built) < 200


def test_integrate_rejects_bad_epsilon():
    f, fam, _ = builtin_integrands()["identity"]
    with pytest.raises(ValueError):
        integrate(f, fam, 0, 4, STAGE)


def test_poly_regression():
    rng = random.Random(11)
    for _ in range(6):
        coeffs = [F(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 5))]
        f, fam, ref = poly_integrand(coeffs)
        slope = max(sum(abs(c) * i for i, c in enumerate(coeffs)), F(1))
        n = 0
        while pow2(n) <= 4 * slope:
            n += 1
        widths = []
        for k in (2, 5):
            eps = pow2(-k)
            cert = integrate(f, fam, eps, k + n + 1, STAGE)
            assert isinstance(cert, IntegralCertificate)
            assert cert.claim.contains(ref)
            widths.append(cert.claim.width)
        assert widths[1] < widths[0]


def test_integrate_step():
    f, fam, ref = builtin_integrands()["step"]
    eps = F(1, 16)
    cert = integrate(f, fam, eps, default_depth("step", eps), STAGE)
    assert cert.claim.contains(ref)


def test_integrate_sqrt_reciprocal():
    f, fam, ref = builtin_integrands()["sqrt-reciprocal"]
    eps = F(1, 32)
    cert = integrate(f, fam, eps, default_depth("sqrt-reciprocal", eps), STAGE)
    assert isinstance(cert, IntegralCertificate)
    assert cert.claim.contains(ref)
    assert cert.claim.width <= pow2(-5 + 3)


def test_integrate_dirichlet_needs_irrational_tags():
    f, fam, _ = builtin_integrands()["dirichlet"]
    eps = F(1, 8)
    blind = integrate(f, fam, eps, 4, STAGE)
    assert isinstance(blind, Obstruction)

    cert = integrate(f, fam, eps, 4, STAGE, hints=default_hints("dirichlet"))
    assert isinstance(cert, IntegralCertificate)
    assert cert.sum == Interval.point(F(0))
    assert cert.claim.contains(F(0))
    assert all(not tag.is_rational for tag in cert.partition.tags)


def test_dirichlet_sum_bound_across_eps():
    f, fam, _ = builtin_integrands()["dirichlet"]
    hints = default_hints("dirichlet")
    for k in range(3, 9):
        eps = pow2(-k)
        cert = integrate(f, fam, eps, 4, STAGE, hints=hints)
        assert isinstance(cert, IntegralCertificate)
        assert cert.sum.hi <= 4 * eps


def test_stern_brocot_index_frozen():
    want = {
        F(0): 1,
        F(1): 2,
        F(1, 2): 3,
        F(1, 3): 4,
        F(2, 3): 5,
        F(1, 4): 6,
        F(2, 5): 7,
        F(3, 5): 8,
        F(3, 4): 9,
    }
    for q, n in want.items():
        assert stern_brocot_index(q.numerator, q.denominator, 100) == n
    assert stern_brocot_index(3, 5, 8) == 8
    assert stern_brocot_index(3, 5, 7) is None
    assert stern_brocot_index(1, 1000, 100) is None
    with pytest.raises(ValueError, match=r"^enumeration covers \[0,1\] only, got 3/2$"):
        stern_brocot_index(3, 2, 100)
    with pytest.raises(ValueError, match=r"^enumeration covers \[0,1\] only, got -1/4$"):
        stern_brocot_index(-1, 4, 100)


def test_stern_brocot_index_matches_the_breadth_first_enumeration():
    # 0, 1, then the mediants of the Stern-Brocot tree's levels 0..7 in order
    order, gaps = [F(0), F(1)], [(F(0), F(1))]
    for _ in range(8):
        mediants = [F(a.numerator + b.numerator, a.denominator + b.denominator) for a, b in gaps]
        order += mediants
        gaps = [g for (a, b), m in zip(gaps, mediants) for g in ((a, m), (m, b))]
    index = {q: i for i, q in enumerate(order, start=1)}
    for d in range(1, 48):
        for n in filter(lambda n: gcd(n, d) == 1, range(d + 1)):
            at = index.get(F(n, d))
            for cap in (0, 1, 2, 3, 9, 66, 130, len(order)):
                assert stern_brocot_index(n, d, cap) == (at if at is not None and at <= cap else None), (n, d, cap)


def test_dirichlet_gauge_values():
    _, fam, _ = builtin_integrands()["dirichlet"]
    eps = F(1, 8)
    g = fam(eps)
    assert eval_enclosure(g, up("1/2"), STAGE) == Interval.point(eps / 8)
    deep = eval_enclosure(g, up(F(1, 1000)), STAGE)
    assert deep.lo == 0 and deep.hi == eps * pow2(-(STAGE + 64))
    irrational = quad(F(0), F(1, 2))
    assert eval_enclosure(g, irrational, STAGE) == Interval.point(F(1))


def test_dirichlet_hints_sit_in_their_cells():
    for i, h in enumerate(dirichlet_hints()):
        v = h.exact_value()  # the pair (a, b) of a + b*sqrt(2)
        assert ref_cmp((F(i, 4), 0), v) < 0 < ref_cmp((F(i + 1, 4), 0), v)
        assert not h.is_rational and v[1]


def _within(inner: tuple, outer: tuple) -> bool:
    (ilo, ihi, idn), (olo, ohi, odn) = inner, outer
    return olo * idn <= ilo * odn and ihi * odn <= ohi * idn


@st.composite
def _cells_and_points(draw):
    """A dyadic cell as a triple, the degenerate point 0 among them, and a
    rational point of it."""
    level = draw(st.integers(0, 40))
    if draw(st.booleans()):
        i = 0  # the cells [0, w] that touch the pole
    else:
        i = draw(st.integers(0, (1 << level) - 1))
    if draw(st.integers(0, 9)) == 0:
        return (0, 0, 1), F(0)
    t = draw(st.fractions(0, 1, max_denominator=1 << 20))
    return (i, i + 1, 1 << level), (i + t) / (1 << level)


@settings(max_examples=300, deadline=None)
@given(
    eps=st.fractions(F(1, 1 << 30), 4).filter(lambda e: e > 0),
    cell_point=_cells_and_points(),
    stage=st.integers(0, 64),
)
def test_sqrt_reciprocal_region_encloses_the_gauge_at_every_point_of_the_cell(eps, cell_point, stage):
    """The inclusion contract of a direct code's region kernel, on the
    sqrt-reciprocal family and on the half of it that integrate searches."""
    cell, q = cell_point
    g = builtin_integrands()["sqrt-reciprocal"][1](eps)
    for code in (g, scale_code(g, F(1, 2))):
        assert _within(code.kernel(up(q), stage), code.region(cell, stage))


@pytest.mark.parametrize(
    "tag,want",
    [
        ("approx:[1/2,9/16]@4", Interval(F(1), F(1))),  # the box lies right of the jump
        ("approx:[1/8,1/4]@3", Interval(F(0), F(0))),  # left of it
        ("approx:[5/16,7/16]@3", Interval(F(0), F(1))),  # across it
    ],
)
def test_step_on_an_approximant_tag_reads_its_box(tag, want):
    f, _, _ = builtin_integrands()["step"]
    assert riemann_sum(f, TaggedPartition((F(0), F(1)), (parse_unit(tag),)), 3) == want
