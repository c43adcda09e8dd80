import random
from fractions import Fraction
from math import floor, gcd, isqrt
from operator import ge, gt, le, lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from interval_ref import ref_add, ref_intersect, ref_mul, ref_pad
from kernel_ref import rt_abs, rt_max, rt_min, rt_sub
from conftest import quad
from quad_ref import ref_cmp, ref_enclosure, ref_sign
from read_ref import ref_parse_rat

from finecover.exact import (
    Interval,
    QuadVal,
    ceil_log_recip,
    floor_log_recip,
    parse_pair,
    parse_rat,
    pow2,
    pow3,
    rat_str,
    rt_add,
    rt_block,
    rt_geom_tail,
    rt_interval,
    rt_intersect,
    rt_into_sum,
    rt_into_terms,
    rt_mul,
    rt_of,
    rt_pad,
    rt_point,
    rt_scale,
    simplest_dyadic_between,
    sqrt2_sign,
)
from finecover.gauges import DomainError, _point_region


def rand_rat(rng, span=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_interval(rng):
    a, b = rand_rat(rng), rand_rat(rng)
    return Interval(min(a, b), max(a, b))


def rand_point_in(rng, box):
    t = Fraction(rng.randint(0, 64), 64)
    return box.lo + t * (box.hi - box.lo)


def test_parse_rat_forms():
    assert parse_rat("3/8") == Fraction(3, 8)
    assert parse_rat("-2") == Fraction(-2)
    assert parse_rat("6/8") == Fraction(3, 4)
    assert parse_rat("0.125") == Fraction(1, 8)
    assert parse_rat(" 1/2 ") == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad",
    # exponents, underscores and non-ASCII digits are refused, so a short
    # field cannot stand for a huge integer
    ["", "x", "1/0", "1//2", "3 / 8 5", "1e-3000000", "1E3", "1.5e2", "1_0/3", "1/1_0", "\u0661/\u0662", "\uff11/2",
     ".5", "1.", "0x10", "nan", "inf", pytest.param("9" * 5000, id="over-long")],
)
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def _same_parse(text):
    """parse_rat returns what the regex parser returns and parse_pair its
    reduced pair, or all three raise the same ValueError."""
    try:
        want = ref_parse_rat(text)
    except ValueError as e:
        for parse in (parse_rat, parse_pair):
            with pytest.raises(ValueError) as got:
                parse(text)
            assert str(got.value) == str(e)
        return
    got = parse_rat(text)
    assert type(got) is Fraction and got == want
    assert parse_pair(text) == (want.numerator, want.denominator)


# digits, the separators, and characters the parser must refuse: an
# underscore and an exponent that int() or Fraction() would read, and an
# Arabic-Indic and a fullwidth digit that int() reads as digits
@settings(max_examples=2000, deadline=None)
@given(st.text(alphabet="0123456789+-/. _e\u0661\uff11\t\n\u2003", max_size=12))
def test_parse_rat_matches_the_regex_parser(text):
    _same_parse(text)


_digits = st.text(alphabet="0123456789", min_size=1, max_size=6)
_space = st.sampled_from(["", " ", "\t", "  "])
# a literal built from a sign, digits with any leading zeros and a "/" or
# "." part, zero denominators included; or one with a field left empty or
# holding an underscore, an exponent or a non-ASCII digit
_literal = st.tuples(
    _space,
    st.sampled_from(["", "+", "-"]),
    st.one_of(_digits, st.sampled_from(["", "1_0", "\u0661", "\uff11"])),
    st.sampled_from(["", "/", "."]),
    st.one_of(_digits, st.sampled_from(["", "0", "00", "1_0", "5e3", "1E2", "\u0662"])),
    _space,
).map(lambda t: t[0] + t[1] + t[2] + (t[3] + t[4] if t[3] else "") + t[5])


@settings(max_examples=2000, deadline=None)
@given(_literal)
def test_parse_pair_matches_the_regex_parser_on_built_literals(text):
    _same_parse(text)


@pytest.mark.parametrize("text", ["0/5", "-0", "+6/8", "007/010", "-2.50", " 0.000 "])
def test_parse_pair_reduces_with_a_positive_denominator(text):
    n, d = parse_pair(text)
    assert d > 0 and gcd(n, d) == 1 and Fraction(n, d) == ref_parse_rat(text)


@pytest.mark.parametrize(
    "text",
    ["9" * 4300, "9" * 4301, "-" + "9" * 4301, "1/" + "7" * 4301, "1." + "5" * 4300, "1" * 2000 + "." + "5" * 2301],
)
def test_parse_rat_at_the_int_digit_limit(text):
    _same_parse(text)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 2**200), st.integers(1, 2**200), st.sampled_from([2, 3, 10]))
def test_ceil_log_recip_matches_the_loop_from_zero(num, den, base):
    # the search starts from a bound read off the bit lengths; this is the loop from n = 0
    n, scale = 0, 1
    while den > num * scale:
        scale, n = scale * base, n + 1
    assert ceil_log_recip(Fraction(num, den), base) == n


def test_rat_str_canonical():
    assert rat_str(Fraction(6, 8)) == "3/4"
    assert rat_str(Fraction(-3, -4)) == "3/4"
    assert rat_str(Fraction(4, 2)) == "2/1"
    assert rat_str(Fraction(0)) == "0/1"


def test_rat_round_trip():
    rng = random.Random(7101)
    for _ in range(500):
        q = rand_rat(rng, span=10**6)
        assert parse_rat(rat_str(q)) == q


def test_pow_helpers():
    assert pow2(3) == 8
    assert pow2(-4) == Fraction(1, 16)
    assert pow3(-2) == Fraction(1, 9)


def test_log_recip_bounds():
    assert ceil_log_recip(Fraction(1)) == 0
    assert ceil_log_recip(Fraction(1, 2)) == 1
    assert ceil_log_recip(Fraction(3, 8)) == 2
    assert ceil_log_recip(Fraction(1, 3), base=3) == 1
    assert ceil_log_recip(Fraction(2, 7), base=3) == 2
    assert floor_log_recip(Fraction(1)) == 0
    assert floor_log_recip(Fraction(1, 4)) == 2
    assert floor_log_recip(Fraction(3, 8)) == 1


def test_log_recip_characterization():
    rng = random.Random(7102)
    for _ in range(300):
        q = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        for base in (2, 3):
            n = ceil_log_recip(q, base)
            assert Fraction(base) ** (-n) <= q
            assert n == 0 or Fraction(base) ** (-(n - 1)) > q
        if q <= 1:
            m = floor_log_recip(q)
            assert pow2(-m) >= q > pow2(-(m + 1))


def test_floor_log_recip_at_and_beside_the_powers_of_two():
    # the one case where the floor and ceiling logs agree is q = 2^-k
    for k in range(200):
        assert floor_log_recip(pow2(-k)) == k
        for q in (Fraction(1, 2**k + 1), Fraction(2, 2 ** (k + 1) - 1)):
            if q <= 1:
                m = floor_log_recip(q)
                assert pow2(-m) >= q > pow2(-(m + 1))
    with pytest.raises(ValueError, match="need 0 < q <= 1"):
        floor_log_recip(Fraction(3, 2))


def test_interval_basic():
    box = Interval(Fraction(1, 4), Fraction(1, 2))
    assert box.width == Fraction(1, 4)
    assert box.contains(Fraction(1, 3))
    assert not box.contains(Fraction(2, 3))
    assert Interval.point(Fraction(1, 3)).width == 0
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_interval_coerces_only_non_fractions():
    box = Interval(1, 2)
    assert type(box.lo) is Fraction and type(box.hi) is Fraction
    assert box == Interval(Fraction(1), Fraction(2))
    assert Interval("1/3", 1).lo == Fraction(1, 3)
    assert type(Interval.point(3).lo) is Fraction
    with pytest.raises(ValueError):
        Interval(Fraction(2), 1)
    q = QuadVal(1, 2)
    assert type(q.a) is int and q.b == 2


def rand_triple(rng, box):
    """box as an integer-numerator triple, over a denominator that is
    sometimes not reduced, so equal and unequal denominators both occur."""
    lo, hi, d = rt_of(box)
    m = rng.choice([1, 1, 2, 3])
    return lo * m, hi * m, d * m


def test_interval_ops_sound():
    """Exact containment survives every lifted operation, and each triple
    op gives the ends of the Fraction endpoint formula."""
    rng = random.Random(7103)
    # first a pair whose intervals each have both ends over one denominator
    shared = Interval(Fraction(1, 6), Fraction(5, 6)), Interval(Fraction(-7, 3), Fraction(2, 3))
    for n in range(1001):
        a, b = shared if n == 0 else (rand_interval(rng), rand_interval(rng))
        x, y = rand_point_in(rng, a), rand_point_in(rng, b)
        ta, tb = rand_triple(rng, a), rand_triple(rng, b)
        assert rt_interval(ta) == a
        c = rand_rat(rng)
        assert ref_add(a, b).contains(x + y) and rt_interval(rt_add(ta, tb)) == ref_add(a, b)
        assert ref_mul(a, b).contains(x * y) and rt_interval(rt_mul(ta, tb)) == ref_mul(a, b)
        j = rng.randrange(0, 6)
        assert rt_interval(rt_pad(ta, j)) == ref_pad(a, pow2(-j))
        scaled = Interval(min(c * a.lo, c * a.hi), max(c * a.lo, c * a.hi))
        assert scaled.contains(c * x) and rt_interval(rt_scale(c, ta)) == scaled
        assert rt_interval(rt_sub(ta, tb)).contains(x - y)
        assert rt_interval(rt_abs(ta)).contains(abs(x))
        assert rt_interval(rt_min(ta, tb)).contains(min(x, y))
        assert rt_interval(rt_max(ta, tb)).contains(max(x, y))
        assert rt_interval(rt_min(ta, tb)) == Interval(min(a.lo, b.lo), min(a.hi, b.hi))
        assert rt_interval(rt_max(ta, tb)) == Interval(max(a.lo, b.lo), max(a.hi, b.hi))
        gap = max(abs(a.lo - b.lo), abs(a.hi - b.hi))
        block = rt_interval(rt_block([ta, tb]))
        assert block == Interval(min(a.lo, b.lo) - gap, max(a.hi, b.hi) + gap)
        assert block.contains(x) and block.contains(y)
        got = ref_intersect(a, b)
        if got is None:
            assert a.hi < b.lo or b.hi < a.lo
            assert rt_intersect(ta, tb) is None
        else:
            assert a.lo <= got.lo and got.hi <= a.hi and b.lo <= got.lo and got.hi <= b.hi
            assert rt_interval(rt_intersect(ta, tb)) == got


def test_series_blocks_keep_denominators_small():
    """A long tail of cubic denominators is split into several blocks, each
    over a bounded common denominator, and the blocks sum to the Fraction
    series sum_n 2^-n max(0, min(x - a_n, b_n - x))."""
    intervals = [
        (Fraction(1, (n + 2) ** 3) - Fraction(1, n + 2), Fraction(1, (n + 2) ** 3) + Fraction(1, n + 2))
        for n in range(70)
    ]
    blocks = rt_into_terms(intervals)
    assert len(blocks) > 1
    assert all(den.bit_length() <= 256 for den, _, _ in blocks)
    for x in (Fraction(0), Fraction(1, 3), Fraction(2, 7)):
        want = sum(max(Fraction(0), min(x - a, b - x)) * pow2(-n) for n, (a, b) in enumerate(intervals))
        assert rt_interval(rt_into_sum(rt_point(x), blocks)) == Interval.point(want)


def test_rt_pad():
    assert rt_interval(rt_pad(rt_point(Fraction(1, 2)), 3)) == Interval(Fraction(3, 8), Fraction(5, 8))
    assert rt_interval(rt_pad((1, 2, 3), 0)) == Interval(Fraction(-2, 3), Fraction(5, 3))


def test_geom_tail_encloses_true_tail():
    for n in range(1, 12):
        tail = sum(pow2(-i) for i in range(n + 1, n + 60))
        box = rt_interval(rt_geom_tail(n))
        assert box.lo == 0 and box.hi == pow2(-n)
        assert box.contains(tail)


def test_quadval_algebra():
    r2 = QuadVal(0, 1)
    assert r2 * r2 == 2
    assert (r2 - 1) * (r2 + 1) == 1
    assert QuadVal(1) + 1 == 2 and 1 - r2 == QuadVal(1, -1)
    third = 3 * r2
    assert third == r2 * 3 == QuadVal(0, 3)


def test_quadval_order():
    # the bounds 3/2, 7/5, 17/12 and 3/4 of the Fraction order, cleared of their denominators
    r2 = QuadVal(0, 1)
    assert 1 < r2 < 2 and 2 * r2 < 3
    assert 7 < 5 * r2 and 12 * r2 < 17
    assert not r2 < r2
    assert r2 <= r2
    assert 1 < r2 < 2 * r2 < 3
    assert -5 * r2 < -7


def test_quadval_hash_matches_fraction():
    q = QuadVal(3)
    assert q == 3
    assert hash(q) == hash(Fraction(3)) == hash(3)
    table = {q: "here"}
    assert table[3] == "here"


def test_quadval_enclosure_width_and_membership():
    rng = random.Random(7104)
    for _ in range(200):
        v, d = QuadVal(rng.randint(-40, 40), rng.randint(-40, 40)), rng.randint(1, 40)
        k = rng.randint(0, 30)
        lo, hi, e = v.enclosure(k, d)
        assert (hi - lo) << k <= e
        assert lo * d <= v * e <= hi * d


# numerators of a few bits and of over 200 bits, of either sign
_BIG = 2**260
_INTS = st.one_of(st.integers(-64, 64), st.integers(-_BIG, _BIG))


@st.composite
def _sqrt2_pairs(draw):
    """(p, q): p or q zero, any pair, or q with p of opposite sign within a
    few units of -q*sqrt(2), where p**2 and 2*q**2 are closest."""
    q = draw(_INTS)
    kind = draw(st.sampled_from(["p0", "q0", "any", "near"]))
    if kind == "p0":
        return 0, q
    if kind == "q0":
        return draw(_INTS), 0
    if kind == "any":
        return draw(_INTS), q
    p = isqrt(2 * q * q) + draw(st.integers(-2, 3))  # near |q|*sqrt(2)
    return (-p if q > 0 else p), q


@settings(max_examples=300, deadline=None)
@given(pq=_sqrt2_pairs())
def test_sqrt2_sign_matches_the_reference(pq):
    p, q = pq
    assert sqrt2_sign(p, q) == ref_sign(p, q)
    assert sqrt2_sign(-p, -q) == -ref_sign(p, q)


_DENS = st.one_of(st.integers(1, 64), st.integers(1, _BIG))


@st.composite
def _quad_and_other(draw):
    """A value (a + b*sqrt(2))/d on ints and one to compare it with: an
    int, another such value, a rational end of one of its enclosures, a
    hair from it, or one with the same b and d."""
    a, b, d = draw(_INTS), draw(_INTS), draw(_DENS)
    kind = draw(st.sampled_from(["int", "quad", "end", "same-b"]))
    if kind == "int":
        other = draw(_INTS), 0, 1
    elif kind == "quad":
        other = draw(_INTS), draw(_INTS), draw(_DENS)
    elif kind == "end":
        box = ref_enclosure(Fraction(a, d), Fraction(b, d), draw(st.integers(0, 64)))
        end = draw(st.sampled_from([box.lo, box.hi]))
        other = end.numerator, 0, end.denominator
    else:
        other = a + draw(_INTS), b, d
    return (a, b, d), other


@settings(max_examples=400, deadline=None)
@given(case=_quad_and_other())
def test_quadval_order_matches_the_reference(case):
    (a, b, d), (c, e, f) = case
    # x/d against y/f is x*f against y*d, on the ints
    x, y = QuadVal(a, b) * f, (QuadVal(c, e) if e else c) * d
    s = ref_cmp((Fraction(a, d), Fraction(b, d)), (Fraction(c, f), Fraction(e, f)))
    assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0, s != 0)
    # the reflected operators: an int on the left defers to QuadVal
    assert (y < x, y <= x, y > x, y >= x) == (s > 0, s >= 0, s < 0, s <= 0)
    assert ((x - y) > 0) - ((x - y) < 0) == sqrt2_sign((x - y).a, (x - y).b) == s


@pytest.mark.parametrize("op", [lt, le, gt, ge])
@pytest.mark.parametrize("value", [QuadVal(1, 1), QuadVal(3)])
def test_quadval_refuses_to_order_against_a_fraction(op, value):
    # a Fraction is not an element of Z[sqrt(2)]: every order refuses it,
    # from either side, rather than answer on some rounding
    for left, right in ((value, Fraction(1, 2)), (Fraction(1, 2), value)):
        with pytest.raises(TypeError, match="cannot compare QuadVal with Fraction"):
            op(left, right)


@settings(max_examples=300, deadline=None)
@given(a=_INTS, b=_INTS, d=_DENS, k=st.integers(0, 64))
@example(a=3, b=0, d=4, k=5)  # a rational value, with no sqrt2 part
def test_quadval_enclosure_is_the_reference_interval(a, b, d, k):
    # equal ends, not just a nested box: the boxes that points, verdicts
    # and emitted bytes read stay exactly the reference's
    got, want = rt_interval(QuadVal(a, b).enclosure(k, d)), ref_enclosure(Fraction(a, d), Fraction(b, d), k)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def _ref_floor(a: Fraction, b: Fraction) -> int:
    """floor(a + b*sqrt(2)) by brute force: reference enclosures at doubling
    precision until both ends share their floor."""
    k = 1
    while True:
        box = ref_enclosure(a, b, k)
        if floor(box.lo) == floor(box.hi):
            return floor(box.lo)
        k *= 2


@st.composite
def _quad_points(draw):
    """(a, b, d) with (a + b*sqrt(2))/d in [-1, 2], b nonzero: a is chosen
    so that a + b*sqrt(2) lies between the ints j and j + 1."""
    b, d = draw(_INTS.filter(bool)), draw(st.one_of(st.integers(1, 64), st.integers(1, 2**80)))
    j = draw(st.one_of(st.integers(-d, 2 * d - 1), st.sampled_from([-d, -1, 0, d - 1, d, 2 * d - 1])))
    return j - floor(QuadVal(0, b)), b, d


@settings(max_examples=300, deadline=None)
@given(abd=_quad_points(), k=st.integers(0, 64))
def test_quad_sign_floor_and_point_region_match_the_reference(abd, k):
    """On int parts over an int denominator: the sign and floor agree with
    the reference and its brute-force floor, and the query triple of the
    point at stage k is the reference enclosure clipped to [0,1] (or a
    DomainError when that is empty)."""
    a, b, d = abd
    fa, fb = Fraction(a, d), Fraction(b, d)
    v = QuadVal(a, b)
    assert sqrt2_sign(a, b) == ref_sign(fa, fb) == (v > 0) - (v < 0)
    assert floor(v) == _ref_floor(Fraction(a), Fraction(b))
    assert floor(v) // d == _ref_floor(fa, fb)
    box = ref_enclosure(fa, fb, k)
    lo, hi = max(box.lo, 0), min(box.hi, 1)
    point = quad(fa, fb)
    if lo > hi:
        with pytest.raises(DomainError):
            _point_region(point, k, "unit")
    else:
        assert rt_interval(_point_region(point, k, "unit")) == Interval(lo, hi)


def test_quadval_floor():
    r2 = QuadVal(0, 1)
    assert floor(5 * r2) == 7
    assert floor(-1 * r2) == -2
    assert floor(QuadVal(7)) // 2 == 3  # 7/2
    assert floor(Fraction(-1, 2)) == -1


def test_quadval_floor_decides_where_a_coarse_enclosure_straddles_the_integer():
    # 1 - 99/70 + sqrt2 = (-29 + 70 sqrt2)/70 sits 7e-5 below 1, so its
    # box at precision 8 still straddles 1; the floor on the ints needs no box
    v = QuadVal(-29, 70)
    lo, hi, e = v.enclosure(8, 70)
    assert lo < e < hi
    assert floor(v) // 70 == 0


@pytest.mark.parametrize("p, q", [(99, 70), (239, 169), (19601, 13860), (8119, 5741)])
@pytest.mark.parametrize("n", [-3, 0, 1, 5])
def test_math_floor_of_a_quadval_just_below_and_just_above_an_integer(p, q, n):
    # n + (sqrt2 - p/q) and n - (sqrt2 - p/q) sit within 1e-4 of n, on
    # opposite sides of it: below when p/q > sqrt2, above when p/q < sqrt2;
    # each is a QuadVal over q, floored on the ints
    above = p * p > 2 * q * q
    assert floor(QuadVal(n * q - p, q)) // q == (n - 1 if above else n)
    assert floor(QuadVal(n * q + p, -q)) // q == (n if above else n - 1)


def test_simplest_dyadic_between():
    assert simplest_dyadic_between(1, 3, 2, 3) == (1, 2)
    assert simplest_dyadic_between(0, 1, 1, 5) == (1, 8)
    r2 = QuadVal(0, 1)
    low = r2 - 1  # ~0.41421
    n, d = simplest_dyadic_between(low, 1, 64 * low + 1, 64)  # between low and low + 1/64
    assert low * d < n and 64 * n < (64 * low + 1) * d
    assert d & (d - 1) == 0  # power of two


def test_simplest_dyadic_prefers_coarse():
    rng = random.Random(7105)
    for _ in range(200):
        a = Fraction(rng.randint(0, 2**12 - 2), 2**12)
        b = a + Fraction(rng.randint(1, 40), 2**12)
        cut = Fraction(*simplest_dyadic_between(a.numerator, a.denominator, b.numerator, b.denominator))
        assert a < cut < b
        k = cut.denominator.bit_length() - 1
        if k > 0:
            # no strictly coarser dyadic fits
            coarser = Fraction(floor(a * pow2(k - 1)) + 1, 2 ** (k - 1))
            assert not (a < coarser < b)
