import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import quad
from read_ref import ref_from_quad

from finecover.exact import CauchyViolation, Interval, QuadVal, pow2, pow3, rt_cell, rt_interval
from finecover.spaces import (
    CantorPoint,
    Cylinder,
    NotInCantorSet,
    UnitPoint,
    _norm_pattern,
    canonical_pattern,
    cylinder_for_ball,
    dist_to_cantor,
    leftmost_cantor_ge,
    phi,
    phi_value,
    psi,
    psi_preimage_point,
    psi_value,
)


def test_pattern_normalization():
    # same sequence, different splits
    a = CantorPoint.from_pattern("0110", "01")
    b = CantorPoint.from_pattern("01100", "10")
    c = CantorPoint.from_pattern("0110", "0101")
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)
    assert a.pattern == ("0110", "01")
    # constant tails absorb the whole prefix when possible
    assert CantorPoint.from_pattern("1", "1").pattern == ("", "1")
    assert CantorPoint.from_pattern("011", "1").pattern == ("0", "1")


def test_pattern_equality_random():
    rng = random.Random(40917)
    for _ in range(200):
        prefix = "".join(rng.choice("01") for _ in range(rng.randrange(0, 5)))
        period = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        x = CantorPoint.from_pattern(prefix, period)
        # re-split: push k period cycles into the prefix, repeat the period
        k = rng.randrange(1, 4)
        y = CantorPoint.from_pattern(prefix + period * k, period * rng.randrange(1, 3))
        assert x == y and hash(x) == hash(y)
        assert x.bits(24) == y.bits(24)


def _ref_norm_pattern(prefix: str, period: str) -> tuple[str, str]:
    """The pattern normalisation as first written: one trailing prefix bit
    rotated into the period per step, quadratic in the prefix length."""
    for d in range(1, len(period) + 1):
        if len(period) % d == 0 and period == period[:d] * (len(period) // d):
            period = period[:d]
            break
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = period[-1] + period[:-1]
    return prefix, period


_BITS = st.text(alphabet="01", max_size=40)


@settings(max_examples=400, deadline=None)
@given(_BITS, _BITS.filter(bool), st.integers(0, 4), _BITS)
def test_norm_pattern_matches_the_reference(prefix, period, repeats, head):
    # prefixes that end in copies of the period exercise the rotation
    prefix = head + period * repeats + prefix[: len(prefix) % 3]
    assert _norm_pattern(prefix, period) == _ref_norm_pattern(prefix, period)
    assert _norm_pattern(prefix, period * 3) == _ref_norm_pattern(prefix, period * 3)


@settings(max_examples=400, deadline=None)
@given(_BITS, _BITS.filter(bool), st.integers(0, 4), _BITS)
def test_canonical_pattern_is_the_reference_normalisation(prefix, period, repeats, head):
    """The shortcut for patterns that are canonical already gives what the
    full normalisation gives, on patterns of both kinds."""
    prefix = head + period * repeats + prefix[: len(prefix) % 3]
    for p, q in ((prefix, period), (prefix, period * 2), ("", period), (prefix + "01"[period[-1] == "0"], period)):
        assert canonical_pattern(p, q) == _ref_norm_pattern(p, q)


def test_norm_pattern_is_linear_in_the_prefix():
    # a million-bit prefix the period absorbs whole, and one it stops in
    assert _norm_pattern("0" * 10**6, "0") == ("", "0")
    assert _norm_pattern("1" + "10" * (5 * 10**5), "10") == ("1", "10")
    assert _norm_pattern("1" + "0" * 10**6, "01") == ("1" + "0" * 10**6, "01")


_PATTERN_POINTS = st.builds(CantorPoint.from_pattern, _BITS, _BITS.filter(bool))
_RULE_POINTS = st.builds(
    lambda bits, tail: CantorPoint(lambda i: int(bits[i]) if i < len(bits) else (i * tail) % 3 % 2),
    _BITS,
    st.integers(1, 7),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_PATTERN_POINTS, _RULE_POINTS), st.integers(0, 200))
def test_bits_and_index_read_what_bit_reads(x, k):
    per_bit = "".join(str(x.bit(i)) for i in range(k))
    assert x.bits(k) == per_bit
    assert x.index(k) == int(per_bit or "0", 2)
    assert Cylinder(x.index(k), k).prefix == per_bit


def test_bit_rules():
    x = CantorPoint.from_pattern("10", "011")
    assert x.bits(8) == "10011011"
    calls = []

    def rule(i):
        calls.append(i)
        return i % 2

    y = CantorPoint(rule)
    assert y.bits(4) == "0101"
    assert y.bits(4) == "0101"
    assert calls == [0, 1, 2, 3]  # cached, queried once each

    bad = CantorPoint(lambda i: 2)
    with pytest.raises(ValueError):
        bad.bit(0)


def test_pattern_rejects():
    with pytest.raises(ValueError):
        CantorPoint.from_pattern("01", "")
    with pytest.raises(ValueError):
        CantorPoint.from_pattern("0a", "1")


def test_cylinder_basics():
    c = Cylinder(1, 2)
    assert c.depth == 2 and c.index == 1 and c.prefix == "01"
    assert Cylinder(0, 0).prefix == "" and Cylinder(5, 5).prefix == "00101"
    assert c == Cylinder(1, 2) and c != Cylinder(1, 3)
    assert CantorPoint.from_pattern("01", "1").index(2) == c.index
    assert CantorPoint.from_pattern("", "0").index(2) != c.index


@pytest.mark.parametrize("index, depth", [(4, 2), (-1, 2), (0, -1)])
def test_cylinder_rejects_cells_off_the_tree(index, depth):
    with pytest.raises(ValueError):
        Cylinder(index, depth)


def test_cylinder_cell_is_the_image_of_the_cylinder():
    """phi maps a cylinder onto the dyadic cell of its index and depth, the
    cell that the pullback of a continuous code evaluates on."""
    for depth in range(9):
        for bits in itertools.product("01", repeat=depth):
            prefix = "".join(bits)
            lo = phi_value(CantorPoint.from_pattern(prefix, "0"))
            hi = phi_value(CantorPoint.from_pattern(prefix, "1"))
            c = Cylinder(int(prefix or "0", 2), depth)
            assert c.prefix == prefix
            assert rt_interval(rt_cell(c.index, c.depth)) == Interval(lo, hi)


def test_cylinder_for_ball():
    x = CantorPoint.from_pattern("", "01")
    assert cylinder_for_ball(x, Fraction(1)) == Cylinder(0, 0)
    assert cylinder_for_ball(x, Fraction(1, 2)) == Cylinder(0, 1)
    assert cylinder_for_ball(x, Fraction(1, 3)) == Cylinder(1, 2)
    with pytest.raises(ValueError):
        cylinder_for_ball(x, Fraction(0))

    rng = random.Random(5521)
    for _ in range(200):
        r = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
        cyl = cylinder_for_ball(x, r)
        assert x.index(cyl.depth) == cyl.index
        width = pow2(-cyl.depth)
        assert width <= r or cyl.depth == 0
        if cyl.depth > 0:
            assert 2 * width > r  # parent cylinder would be too wide


def test_phi_frozen_values():
    assert phi(CantorPoint.from_pattern("1", "0")).rational_value() == Fraction(1, 2)
    assert phi(CantorPoint.from_pattern("", "1")).rational_value() == Fraction(1)
    assert phi(CantorPoint.from_pattern("", "01")).rational_value() == Fraction(1, 3)
    assert phi(CantorPoint.from_pattern("", "0")).rational_value() == Fraction(0)


def test_phi_lipschitz_random():
    # |phi x - phi y| <= d(x, y), exact on pattern points
    rng = random.Random(90131)
    for _ in range(200):
        x = CantorPoint.from_pattern(
            "".join(rng.choice("01") for _ in range(rng.randrange(0, 5))),
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 4))),
        )
        y = CantorPoint.from_pattern(
            "".join(rng.choice("01") for _ in range(rng.randrange(0, 5))),
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 4))),
        )
        if x == y:
            continue
        j = next((i for i in range(64) if x.bit(i) != y.bit(i)), None)
        assert j is not None
        gap = abs(phi_value(x) - phi_value(y))
        assert gap <= pow2(-j)
        # psi separates: images at least 3^-(j+1) apart
        assert abs(psi_value(x) - psi_value(y)) >= pow3(-j - 1)


def test_psi_frozen_values():
    assert psi(CantorPoint.from_pattern("", "1")).rational_value() == Fraction(1)
    assert psi(CantorPoint.from_pattern("1", "0")).rational_value() == Fraction(2, 3)
    assert psi(CantorPoint.from_pattern("0", "1")).rational_value() == Fraction(1, 3)
    assert psi(CantorPoint.from_pattern("", "0")).rational_value() == Fraction(0)


def test_phi_psi_opaque_approximants():
    x = CantorPoint(lambda i: 0 if i % 2 else 1)  # 1010... = 2/3 under phi
    p = phi(x)
    assert not p.is_exact
    prev = None
    for k in (1, 3, 6, 12):
        box = p.approx(k)
        assert box.width <= pow2(-k)
        assert box.contains(Fraction(2, 3))
        if prev is not None:
            assert prev.lo <= box.lo and box.hi <= prev.hi
        prev = box

    q = psi(x)  # 2*(3/4)/... = psi(1010...) = 3/4
    box = q.approx(10)
    assert box.width <= pow2(-10)
    assert box.contains(Fraction(3, 4))


def test_dist_to_cantor_frozen():
    assert dist_to_cantor(Fraction(1, 2)) == Fraction(1, 6)
    assert dist_to_cantor(Fraction(1, 6)) == Fraction(1, 18)
    assert dist_to_cantor(Fraction(1, 3)) == Fraction(0)
    assert dist_to_cantor(Fraction(0)) == Fraction(0)
    assert dist_to_cantor(Fraction(1)) == Fraction(0)
    with pytest.raises(ValueError):
        dist_to_cantor(Fraction(3, 2))


def test_dist_to_cantor_vs_nearest_points():
    # cross-check with exact nearest set points on each side, using the
    # symmetry 1 - C = C for the left neighbour
    rng = random.Random(22807)
    for _ in range(200):
        den = rng.choice([rng.randrange(2, 500), 3 ** rng.randrange(1, 6), 2 * 3 ** rng.randrange(1, 5)])
        z = Fraction(rng.randrange(0, den + 1), den)
        d = dist_to_cantor(z)
        right = leftmost_cantor_ge(z) - z
        left = z - (1 - leftmost_cantor_ge(1 - z))
        assert d == min(right, left)
        assert dist_to_cantor(z + d if right <= left else z - d) == 0


def test_leftmost_cantor_ge_frozen():
    assert leftmost_cantor_ge(Fraction(1, 2)) == Fraction(2, 3)
    assert leftmost_cantor_ge(Fraction(1, 8)) == Fraction(2, 9)
    assert leftmost_cantor_ge(Fraction(7, 32)) == Fraction(2, 9)
    assert leftmost_cantor_ge(Fraction(1)) == Fraction(1)
    assert leftmost_cantor_ge(Fraction(-3, 7)) == Fraction(0)
    with pytest.raises(ValueError):
        leftmost_cantor_ge(Fraction(9, 8))


def test_leftmost_cantor_ge_properties():
    rng = random.Random(61687)
    for _ in range(200):
        den = rng.randrange(2, 400)
        a = Fraction(rng.randrange(0, den + 1), den)
        m = leftmost_cantor_ge(a)
        assert m >= a
        assert dist_to_cantor(m) == 0
        if m > a:
            # sampled points of the gap [a, m) stay off the set
            for t in (a, (2 * a + m) / 3, (a + 2 * m) / 3):
                assert dist_to_cantor(t) > 0


def test_psi_preimage_prefix():
    assert psi_preimage_point(Fraction(1)).bits(3) == "111"
    assert psi_preimage_point(Fraction(2, 3)).bits(3) == "100"
    assert psi_preimage_point(Fraction(1, 4)).bits(4) == "0101"  # 1/4 = psi(0101...)
    assert psi_preimage_point(Fraction(1, 3)).bits(3) == "011"
    with pytest.raises(NotInCantorSet):
        psi_preimage_point(Fraction(1, 2))
    with pytest.raises(NotInCantorSet):
        psi_preimage_point(Fraction(5, 4))


def test_psi_preimage_point_roundtrip():
    rng = random.Random(73009)
    for _ in range(200):
        x = CantorPoint.from_pattern(
            "".join(rng.choice("01") for _ in range(rng.randrange(0, 5))),
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 4))),
        )
        z = psi_value(x)
        assert dist_to_cantor(z) == 0
        assert psi_preimage_point(z) == x
    with pytest.raises(NotInCantorSet):
        psi_preimage_point(Fraction(1, 2))


def test_unit_point_exact():
    p = UnitPoint.from_rat(Fraction(3, 8))
    assert p.is_exact and p.is_rational
    assert p.rational_value() == Fraction(3, 8)
    assert p.approx(50) == Interval.point(Fraction(3, 8))
    assert p == UnitPoint.from_rat(Fraction(3, 8))
    assert hash(p) == hash(UnitPoint.from_rat(Fraction(3, 8)))
    assert UnitPoint.from_rat(Fraction(1, 3)) != UnitPoint.from_rat(Fraction(1, 2))
    with pytest.raises(ValueError):
        UnitPoint.from_rat(Fraction(5, 2))


def test_unit_point_quad():
    p = quad(Fraction(1, 2), Fraction(1, 4))  # 1/2 + sqrt2/4
    assert p.is_exact and not p.is_rational
    box = p.approx(20)
    assert box.width <= pow2(-20)
    with pytest.raises(ValueError):
        p.rational_value()
    # rational quads normalize to plain fractions
    q = quad(Fraction(1, 2), 0)
    assert q.is_rational and q == UnitPoint.from_rat(Fraction(1, 2))
    with pytest.raises(ValueError):
        quad(2, 1)


def test_unit_point_hash_is_its_pair_hash():
    """The hash is taken once, at construction: an exact point hashes by
    its pair, so equal points hash alike however they were built, and an
    approximant point by identity."""
    for q in (Fraction(3, 8), Fraction(-1), Fraction(2), Fraction(1, 3)):
        assert hash(UnitPoint.from_rat(q)) == hash(UnitPoint(q.numerator, q.denominator))
    half = quad(Fraction(1, 2), 0)
    assert half == UnitPoint.from_rat(Fraction(1, 2)) and hash(half) == hash(UnitPoint(1, 2))
    a, b = quad(Fraction(1, 2), Fraction(1, 4)), quad(Fraction(2, 4), Fraction(1, 4))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    opaque = UnitPoint.from_fn(lambda k: Interval.point(Fraction(1, 2)))
    assert hash(opaque) == id(opaque) and {opaque: 1}[opaque] == 1


def _one_point(n: int, d: int) -> None:
    """The point built from the reduced pair (n, d) and the one from_rat
    builds from n/d are one point, down to the hash and the dict slot."""
    q = Fraction(n, d)
    a, b = UnitPoint(n, d), UnitPoint.from_rat(q)
    assert (a.num, a.den) == (b.num, b.den) == (n, d)
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert type(a.exact) is Fraction and a.exact == b.exact == q
    assert {a: 1}[b] == 1 and {b: 2}[a] == 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 70).flatmap(lambda d: st.tuples(st.integers(-d, 2 * d), st.just(d))))
def test_unit_point_from_its_pair_is_from_rat(nd):
    q = Fraction(*nd)
    _one_point(q.numerator, q.denominator)


def test_unit_point_pair_edges():
    """Zero, a negative value, both ambient ends, and denominators that are
    multiples of the hash modulus."""
    m = sys.hash_info.modulus
    for n, d in ((0, 1), (-3, 8), (-1, 1), (2, 1), (1, m), (-1, 2 * m)):
        _one_point(n, d)
    v = Fraction(1, 6), Fraction(-1, 4)
    p = quad(*v)
    assert type(p.num.a) is type(p.num.b) is int
    assert (Fraction(p.num.a, p.den), Fraction(p.num.b, p.den)) == v == p.exact


def test_from_quad_puts_both_parts_over_the_lcm_of_their_denominators():
    p = quad(Fraction(1, 6), Fraction(-1, 4))
    assert p.den == 12 and p.num == QuadVal(2, -3)
    q = UnitPoint(QuadVal(2, -3), 12)
    assert q == p and hash(q) == hash(p) and {p: 1}[q] == 1


@settings(max_examples=200, deadline=None)
@given(st.fractions(-1, 2, max_denominator=1 << 40))
def test_equal_points_hash_alike_however_built(q):
    """UnitPoint(n, d), from_rat and from_parts with no sqrt2 part build
    one point: equal, hashing alike, and one dict key."""
    built = [
        UnitPoint(q.numerator, q.denominator),
        UnitPoint.from_rat(q),
        quad(q),
        quad(q, 0),
    ]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1 and len(set(built)) == 1


def _built(make, *args):
    """The point make(*args) as its pair, or the message it raised."""
    try:
        p = make(*args)
    except ValueError as e:
        return str(e)
    return p.num, p.den


def _same_quad_point(a: Fraction, b: Fraction) -> None:
    """from_parts on the reduced pairs of a and b builds the point, or
    raises the message, that the tests' `quad` and the reference
    (`ref_from_quad`, on quad_ref's order) do for a + b*sqrt(2)."""
    parts = (a.numerator, a.denominator, b.numerator, b.denominator)
    got = _built(UnitPoint.from_parts, *parts)
    assert got == _built(quad, a, b) == _built(ref_from_quad, a, b)


# parts of both signs, many of them putting the point outside [-1, 2]
@settings(max_examples=1000, deadline=None)
@given(st.fractions(-4, 4, max_denominator=1 << 20), st.fractions(-4, 4, max_denominator=1 << 20))
def test_from_parts_is_from_quad_and_the_quadval_reference(a, b):
    _same_quad_point(a, b)


# 140/99 < sqrt(2) < 99/70, both within 1e-4 of it: each pair below puts a
# point on an ambient end, or just inside or just outside one
_LO, _HI, _TINY = Fraction(140, 99), Fraction(99, 70), Fraction(1, 10**5)


@pytest.mark.parametrize(
    "a, b",
    [(-1, 0), (2, 0), (-1 - _LO, 1), (-1 - _HI, 1), (2 + _LO, -1), (2 + _HI, -1),
     (-1, _TINY), (2, -_TINY), (-1, -_TINY), (2, _TINY)],
)
def test_from_parts_at_and_beside_the_ambient_ends(a, b):
    _same_quad_point(Fraction(a), Fraction(b))


def test_unit_point_opaque_nesting():
    # raw boxes alternate sides of 1/2; published enclosures must nest
    def fn(k):
        if k % 2 == 0:
            return Interval(Fraction(1, 2), Fraction(1, 2) + pow2(-k))
        return Interval(Fraction(1, 2) - pow2(-k), Fraction(1, 2))

    p = UnitPoint.from_fn(fn)
    assert not p.is_exact
    first = p.approx(1)
    second = p.approx(2)
    assert first.lo <= second.lo and second.hi <= first.hi
    assert second == Interval.point(Fraction(1, 2))

    flip = UnitPoint.from_fn(lambda k: Interval.point(0 if k < 3 else 1), label="flip")
    flip.approx(1)
    with pytest.raises(CauchyViolation) as got:
        flip.approx(3)
    assert str(got.value) == "UnitPoint(approx, label='flip'): [1, 1] disjoint from accumulated [0, 0]"

    wide = UnitPoint.from_fn(lambda k: Interval(0, 1))
    with pytest.raises(ValueError):
        wide.approx(2)

    far = UnitPoint.from_fn(lambda k: Interval.point(3))
    with pytest.raises(ValueError):
        far.approx(2)

    with pytest.raises(TypeError):
        UnitPoint.from_fn(fn) < UnitPoint.from_rat(Fraction(1, 2))

