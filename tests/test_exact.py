import random
from fractions import Fraction
from math import floor, gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from interval_ref import ref_add, ref_intersect, ref_mul, ref_pad
from kernel_ref import rt_abs, rt_max, rt_min, rt_sub
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
    q = QuadVal(1, "1/2")
    assert type(q.a) is Fraction and q.b == Fraction(1, 2)


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
    for _ in range(1000):
        a, b = rand_interval(rng), rand_interval(rng)
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
    assert QuadVal(Fraction(1, 2)) + Fraction(1, 2) == 1
    third = Fraction(1, 3) * r2
    assert third * 3 == r2


def test_quadval_order():
    r2 = QuadVal(0, 1)
    assert 1 < r2 < Fraction(3, 2)
    assert Fraction(7, 5) < r2 < Fraction(17, 12)
    assert not r2 < r2
    assert r2 <= r2
    half_r2 = Fraction(1, 2) * r2
    assert Fraction(1, 2) < half_r2 < Fraction(3, 4)
    assert -r2 < -Fraction(7, 5)


def test_quadval_hash_matches_fraction():
    q = QuadVal(Fraction(3, 4))
    assert q == Fraction(3, 4)
    assert hash(q) == hash(Fraction(3, 4))
    table = {q: "here"}
    assert table[Fraction(3, 4)] == "here"


def test_quadval_enclosure_width_and_membership():
    rng = random.Random(7104)
    for _ in range(200):
        v = QuadVal(rand_rat(rng), rand_rat(rng))
        k = rng.randint(0, 30)
        box = v.enclosure(k)
        assert box.width <= pow2(-k)
        assert box.lo <= v <= box.hi


# numerators of a few bits and of over 200 bits, of either sign
_BIG = 2**260
_INTS = st.one_of(st.integers(-64, 64), st.integers(-_BIG, _BIG))
_RATS = st.builds(Fraction, _INTS, st.one_of(st.integers(1, 64), st.integers(1, _BIG)))
_PARTS = st.one_of(st.just(Fraction(0)), _RATS)  # a = 0 and b = 0 included


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


@st.composite
def _quad_and_other(draw):
    """A QuadVal (a, b) and an int, Fraction or QuadVal to compare it with,
    also a rational end of one of its enclosures, a hair from its value."""
    a, b = draw(_PARTS), draw(_PARTS)
    kind = draw(st.sampled_from(["int", "fraction", "quad", "end", "same-b"]))
    if kind == "int":
        other = draw(_INTS)
    elif kind == "fraction":
        other = draw(_RATS)
    elif kind == "quad":
        other = QuadVal(draw(_PARTS), draw(_PARTS))
    elif kind == "end":
        box = ref_enclosure(a, b, draw(st.integers(0, 64)))
        other = draw(st.sampled_from([box.lo, box.hi]))
    else:
        other = QuadVal(a + draw(_PARTS), b)
    return (a, b), other


@settings(max_examples=400, deadline=None)
@given(case=_quad_and_other())
def test_quadval_order_matches_the_reference(case):
    (a, b), other = case
    x = QuadVal(a, b)
    s = ref_cmp((a, b), (other.a, other.b) if isinstance(other, QuadVal) else (other, 0))
    assert (x < other, x <= other, x > other, x >= other) == (s < 0, s <= 0, s > 0, s >= 0)
    # the reflected operators: a rational on the left defers to QuadVal
    assert (other < x, other <= x, other > x, other >= x) == (s > 0, s >= 0, s < 0, s <= 0)


@settings(max_examples=300, deadline=None)
@given(a=_PARTS, b=_PARTS, k=st.integers(0, 64))
def test_quadval_enclosure_is_the_reference_interval(a, b, k):
    # equal ends, not just a nested box: the boxes that points, verdicts
    # and emitted bytes read stay exactly the reference's
    got, want = QuadVal(a, b).enclosure(k), ref_enclosure(a, b, k)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_quadval_floor():
    r2 = QuadVal(0, 1)
    assert floor(5 * r2) == 7
    assert floor(-1 * r2) == -2
    assert floor(QuadVal(Fraction(7, 2))) == 3
    assert floor(Fraction(-1, 2)) == -1


def test_quadval_floor_doubles_its_precision_until_the_box_decides():
    # 1 - 99/70 + sqrt2 sits 7e-5 below 1, so the box at precision 8 still
    # straddles 1 and the floor has to refine
    v = QuadVal(1 - Fraction(99, 70), 1)
    box = v.enclosure(8)
    assert box.lo < 1 < box.hi
    assert floor(v) == 0


@pytest.mark.parametrize("p, q", [(99, 70), (239, 169), (19601, 13860), (8119, 5741)])
@pytest.mark.parametrize("n", [-3, 0, 1, 5])
def test_math_floor_of_a_quadval_just_below_and_just_above_an_integer(p, q, n):
    # n + (sqrt2 - p/q) and n - (sqrt2 - p/q) sit within 1e-4 of n, on
    # opposite sides of it: below when p/q > sqrt2, above when p/q < sqrt2
    above = p * p > 2 * q * q
    assert floor(QuadVal(n - Fraction(p, q), 1)) == (n - 1 if above else n)
    assert floor(QuadVal(n + Fraction(p, q), -1)) == (n if above else n - 1)


def test_quadval_as_fraction():
    assert QuadVal(Fraction(2, 3)).as_fraction() == Fraction(2, 3)
    with pytest.raises(ValueError):
        QuadVal(0, 1).as_fraction()


def test_simplest_dyadic_between():
    assert simplest_dyadic_between(Fraction(1, 3), Fraction(2, 3)) == Fraction(1, 2)
    assert simplest_dyadic_between(Fraction(0), Fraction(1, 5)) == Fraction(1, 8)
    r2 = QuadVal(0, 1)
    low = r2 - 1  # ~0.41421
    cut = simplest_dyadic_between(low, low + Fraction(1, 64))
    assert low < cut < low + Fraction(1, 64)
    assert cut.denominator & (cut.denominator - 1) == 0  # power of two


def test_simplest_dyadic_prefers_coarse():
    rng = random.Random(7105)
    for _ in range(200):
        a = Fraction(rng.randint(0, 2**12 - 2), 2**12)
        b = a + Fraction(rng.randint(1, 40), 2**12)
        cut = simplest_dyadic_between(a, b)
        assert a < cut < b
        k = cut.denominator.bit_length() - 1
        if k > 0:
            # no strictly coarser dyadic fits
            coarser = Fraction(floor(a * pow2(k - 1)) + 1, 2 ** (k - 1))
            assert not (a < coarser < b)
