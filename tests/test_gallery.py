import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finecover import cli, gallery
from finecover.covers import FineCover, find_cover_unit
from finecover.exact import Interval, pow2
from finecover.gallery import (
    CauchySpec,
    GalleryFalsification,
    _gap_term,
    _merge_open,
    OpenCoverSpec,
    OracleSpec,
    UnexpectedCover,
    cauchy_gap_gauge,
    check_star,
    default_cauchy_spec,
    finite_subcover,
    gap_limit_point,
    gap_obstruction_demo,
    heine_borel_gauge,
    oracle_pin_demo,
    oracle_pin_gauge,
    pin_index,
)
from finecover.gauges import Verdict, eval_enclosure, verified_above, verified_at_least
from finecover.gaugespec import parse_cover_file
from finecover.spaces import CantorPoint, UnitPoint


def two_interval_cover() -> OpenCoverSpec:
    return OpenCoverSpec(((F(-1, 10), F(6, 10)), (F(4, 10), F(11, 10))))


def tailed_cover() -> OpenCoverSpec:
    def tail(n: int):
        return (F(1, n + 2), pow2(-2 * (n + 2)))

    return OpenCoverSpec(((F(-1, 8), F(9, 32)), (F(1, 4), F(9, 8))), tail=tail)


def default_oracle_spec() -> OracleSpec:
    return OracleSpec(CantorPoint.from_pattern("", "01"))


def test_open_cover_spec_rejects_bad_intervals():
    with pytest.raises(ValueError):
        OpenCoverSpec(((F(1, 2), F(1, 2)),))
    with pytest.raises(ValueError):
        OpenCoverSpec(((F(3, 4), F(1, 4)),))
    with pytest.raises(ValueError):
        OpenCoverSpec(((F(0), F(1)),), tail=lambda n: (F(1, 2), F(2)))


def _ref_dist_into_range(box, a, b):
    """Range of x -> max(0, min(x-a, b-x)) over the box: the ends, and the
    peak (b-a)/2 when the box holds the midpoint."""

    def d(x):
        return max(F(0), min(x - a, b - x))

    vals = [d(box.lo), d(box.hi)]
    if box.lo <= (a + b) / 2 <= box.hi:
        vals.append((b - a) / 2)
    return Interval(min(vals), max(vals))


def _ref_series(cov, box, k):
    """The series gauge's enclosure at stage k, summed in Fractions."""
    bound = k + 2
    lo = hi = F(0)
    for n, (a, b) in enumerate(cov.intervals_upto(bound)):
        part = _ref_dist_into_range(box, a, b)
        lo, hi = lo + part.lo * pow2(-n), hi + part.hi * pow2(-n)
    if cov.tail is not None:
        hi += pow2(-bound)
    return Interval(lo / 4, hi / 4)


_ENDS = st.fractions(min_value=F(-1, 2), max_value=F(3, 2), max_denominator=24)
_HEADS = st.lists(st.tuples(_ENDS, _ENDS).filter(lambda ab: ab[0] != ab[1]).map(sorted), min_size=1, max_size=5)
# tail n -> (c / (n+2)^p, r / (n+1)): radii in (0, 1], and with p = 3 the
# common denominator of a long tail outgrows one block
_TAILS = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 8), st.integers(1, 3), st.fractions(F(1, 8), 1, max_denominator=8)),
)


def _tail_rule(params):
    if params is None:
        return None
    c, p, r = params
    return lambda n: (F(c, (n + 2) ** p), r / (n + 1))


@settings(max_examples=150, deadline=None)
@given(
    head=_HEADS,
    tail=_TAILS,
    k=st.integers(0, 64),
    which=st.integers(0, 4),
    around=st.tuples(st.fractions(0, F(1, 4), max_denominator=32), st.fractions(0, F(1, 4), max_denominator=32)),
    cell=st.integers(0, 10).flatmap(lambda level: st.tuples(st.integers(0, 2**level - 1), st.just(level))),
)
# stage 0 sums only the first 3 of 4 head intervals
@example(head=[(F(0), F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4)), (F(3, 4), F(1))], tail=None, k=0, which=3, around=(F(0), F(0)), cell=(0, 0))
def test_series_gauge_matches_the_fraction_sum(head, tail, k, which, around, cell):
    """The integer kernel of the series gauge gives exactly the Fraction
    sum of distances-into at stages 0..64: on dyadic cells, on points, and
    on boxes around an interval's midpoint, where the peak counts."""
    cov = OpenCoverSpec(tuple(head), tail=_tail_rule(tail))
    g = heine_borel_gauge(cov)
    summed = cov.intervals_upto(k + 2)
    a, b = summed[which % len(summed)]
    mid = (a + b) / 2
    i, level = cell
    for box in (
        Interval(mid - around[0], mid + around[1]),
        Interval.point(mid),
        Interval(F(i, 2**level), F(i + 1, 2**level)),
        Interval.point(a),
    ):
        assert g.region_eval(box, k) == _ref_series(cov, box, k)


def test_series_gauge_two_interval_values():
    g = heine_borel_gauge(two_interval_cover())
    half = eval_enclosure(g, UnitPoint.from_rat(F(1, 2)), 8)
    assert half.lo == half.hi == F(3, 80)
    zero = eval_enclosure(g, UnitPoint.from_rat(F(0)), 8)
    assert zero.lo == zero.hi == F(1, 40)


def test_series_gauge_wide_interval_uncapped():
    g = heine_borel_gauge(OpenCoverSpec(((F(-1), F(2)),)))
    box = eval_enclosure(g, UnitPoint.from_rat(F(1, 2)), 8)
    assert box.lo == box.hi == F(3, 8)


def test_series_gauge_tail_slack_width():
    g = heine_borel_gauge(tailed_cover())
    box = eval_enclosure(g, UnitPoint.from_rat(F(1, 2)), 8)
    # head terms are exact at a rational point; only the tail bound spreads
    assert box.width == pow2(-12)
    assert box.lo > 0


def test_series_gauge_positive_on_covered_points():
    g = heine_borel_gauge(two_interval_cover())
    rng = random.Random(7)
    for _ in range(200):
        p = F(rng.randint(0, 512), 512)
        v = verified_above(g, UnitPoint.from_rat(p), F(0), 8)
        assert v is Verdict.YES


def test_series_gauge_clips_tail_radii_past_the_checked_indices():
    # radius 1/2 at every checked tail index, 3/2 at n = 9 and growing;
    # clipped to 1, the tail bound [0, 2^-K] holds again at every stage
    cov = parse_cover_file("0 1\ntail: 1/2 1/2+(n-1)*(n-2)*(n-3)*(n-4)*(n-5)*(n-6)*(n-7)*(n-8)/40320\n")
    assert cov.interval(8) == (F(0), F(1))
    assert cov.interval(9) == cov.interval(20) == (F(-1, 2), F(3, 2))
    x = UnitPoint.from_rat(F(1, 2))
    g = heine_borel_gauge(cov)
    assert verified_above(g, x, F(3, 8), 32) is Verdict.NO
    fine = eval_enclosure(g, x, 32)
    coarse = eval_enclosure(heine_borel_gauge(cov), x, 4)
    assert fine.hi < F(3, 8)
    assert max(fine.lo, coarse.lo) <= min(fine.hi, coarse.hi)
    assert eval_enclosure(g, x, 4) == fine


def test_check_star_decides_two_interval():
    cov = two_interval_cover()
    g = heine_borel_gauge(cov)
    # vacuous: gauge at 9/10 is 1/40, premise threshold 1 never beaten
    assert check_star(cov, g, F(9, 10), 0) is Verdict.YES
    rng = random.Random(11)
    for _ in range(200):
        p = F(rng.randint(0, 256), 256)
        k = rng.randint(0, 10)
        assert check_star(cov, g, p, k) is Verdict.YES


def test_check_star_never_no_with_tail():
    cov = tailed_cover()
    g = heine_borel_gauge(cov)
    rng = random.Random(13)
    for _ in range(100):
        p = F(rng.randint(0, 128), 128)
        k = rng.randint(0, 8)
        assert check_star(cov, g, p, k) is not Verdict.NO


def test_finite_subcover_two_interval():
    cov = two_interval_cover()
    g = heine_borel_gauge(cov)
    cover = find_cover_unit(g, 10, 8)
    assert isinstance(cover, FineCover)
    k = finite_subcover(cov, cover)
    assert 1 <= k <= 10
    lo, hi = cov.interval(0)
    a, b = cov.interval(1)
    assert lo < 0 and max(hi, b) > 1  # the verified union really spans [0,1]


def test_finite_subcover_with_tail_rule():
    cov = tailed_cover()
    g = heine_borel_gauge(cov)
    cover = find_cover_unit(g, 11, 8)
    assert isinstance(cover, FineCover)
    k = finite_subcover(cov, cover)
    assert 1 <= k <= 12


def test_finite_subcover_is_index_zero_when_the_gauge_exceeds_one():
    cov = OpenCoverSpec(((F(-10), F(11)),))
    g = heine_borel_gauge(cov)
    cover = find_cover_unit(g, 4, 8)
    assert isinstance(cover, FineCover)
    assert all(eval_enclosure(g, p, 16).lo > 1 for p in cover.points)
    assert finite_subcover(cov, cover) == 0


def test_finite_subcover_asks_each_stage_once(monkeypatch):
    """At the default stage 16 the ladder 4, 8, 16, 32, 64 reads 16, 32, 64,
    each once: a cover point in the gap between two intervals, where the
    gauge is never verifiably positive, tries every stage and fails."""
    asked = []

    def counted(g, x, stage):
        asked.append(stage)
        return eval_enclosure(g, x, stage)

    monkeypatch.setattr(gallery, "eval_enclosure", counted)
    cov = OpenCoverSpec(((F(-1, 10), F(4, 10)), (F(6, 10), F(11, 10))))
    with pytest.raises(GalleryFalsification):
        finite_subcover(cov, FineCover([(UnitPoint.from_rat(F(1, 2)), F(1, 4))]))
    assert asked == [16, 32, 64]


def test_gallery_heine_borel_builds_its_gauge_once(monkeypatch, tmp_path, capsys):
    built = []

    def counted(cov):
        built.append(cov)
        return heine_borel_gauge(cov)

    monkeypatch.setattr(cli, "heine_borel_gauge", counted)
    monkeypatch.setattr(gallery, "heine_borel_gauge", counted)
    (tmp_path / "two.cov").write_text("-1/10 6/10\n4/10 11/10\n")
    assert cli.main(["gallery", "heine-borel", "--cover", str(tmp_path / "two.cov"), "--depth", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["union_verified"] is True
    assert len(built) == 1


def test_merge_open_keeps_disjoint_intervals_apart():
    assert _merge_open([]) == []
    assert _merge_open([(F(1, 2), F(1)), (F(0), F(1, 4))]) == [(F(0), F(1, 4)), (F(1, 2), F(1))]


def test_gap_sequence_defaults():
    zs = default_cauchy_spec()
    assert zs.term(0) == F(1, 2)
    assert zs.term(2) == F(289, 512)
    assert zs.modulus(9) == 3
    assert zs.modulus(10) == 4
    # declared modulus really is a modulus on sampled pairs
    for j in (2, 5, 9, 16):
        n0 = zs.modulus(j)
        for a in range(n0, n0 + 4):
            for b in range(a, n0 + 4):
                assert abs(zs.term(a) - zs.term(b)) <= pow2(-j)


def test_gap_gauge_bounds_at_endpoints():
    g = cauchy_gap_gauge(default_cauchy_spec())
    at0 = eval_enclosure(g, UnitPoint.from_rat(F(0)), 10)
    assert at0.lo >= F(1, 2)
    at1 = eval_enclosure(g, UnitPoint.from_rat(F(1)), 10)
    assert at1.lo > F(43, 100)


def test_gap_gauge_cauchyness_exact():
    zs = default_cauchy_spec()
    rng = random.Random(17)
    for _ in range(100):
        x = F(rng.randint(0, 64), 64)
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        dm, dn = abs(x - zs.term(m)), abs(x - zs.term(n))
        assert abs(dm - dn) <= abs(zs.term(m) - zs.term(n))


def test_limit_point_verdict_needs_stage():
    g = cauchy_gap_gauge(default_cauchy_spec())
    z = gap_limit_point()
    assert verified_above(g, z, pow2(-20), 10) is Verdict.UNKNOWN
    g2 = cauchy_gap_gauge(default_cauchy_spec())
    assert verified_above(g2, z, pow2(-20), 24) is Verdict.NO


def test_gap_obstruction_closes_on_limit():
    zs = default_cauchy_spec()
    zbox = gap_limit_point().approx(40)
    for depth in (6, 12):
        obs = gap_obstruction_demo(zs, depth, 12)
        run = obs.unresolved[0]
        assert run.lo <= zbox.lo and zbox.hi <= run.hi
        assert run.width <= pow2(-depth + 2)


def test_gap_gauge_without_modulus_stays_unknown():
    zs = CauchySpec(default_cauchy_spec().term, modulus=None, label="blind")
    g = cauchy_gap_gauge(zs)
    z = gap_limit_point()
    assert verified_above(g, z, pow2(-20), 24) is Verdict.UNKNOWN


def test_gap_terms_are_the_fraction_sums():
    for n in range(41):
        assert _gap_term(n) == sum(pow2(-i * i) for i in range(1, n + 2))


@pytest.mark.parametrize("modulus", [default_cauchy_spec().modulus, None], ids=["modulus", "bare"])
def test_gap_gauge_at_a_deep_stage_holds_the_limit_distance(modulus):
    """At stage 200 the terms' denominators run to 2^40401; the enclosure
    at 3/4 meets 3/4 - z* as the limit point's box of width 2^-2000 gives
    it, and is narrower than 2^-100."""
    g = cauchy_gap_gauge(CauchySpec(default_cauchy_spec().term, modulus=modulus))
    box = eval_enclosure(g, UnitPoint.from_rat(F(3, 4)), 200)
    z = gap_limit_point().approx(2000)
    assert box.lo <= F(3, 4) - z.lo and F(3, 4) - z.hi <= box.hi
    assert box.width < pow2(-100)


def test_pin_gauge_values():
    spec = default_oracle_spec()
    g = oracle_pin_gauge(spec)
    x = CantorPoint.from_pattern("1", "0")
    box = eval_enclosure(g, x, 8)
    assert box.lo == box.hi == F(1, 2)
    y = CantorPoint.from_pattern("0100", "0")
    box = eval_enclosure(g, y, 8)
    assert box.lo == box.hi == F(1, 16)
    z = CantorPoint.from_pattern("01", "01")
    box = eval_enclosure(g, z, 8)
    assert box.lo == box.hi == F(1)


@pytest.mark.parametrize("near", [12, 30, 60])
def test_pin_gauge_is_honest_on_rule_points_past_the_scan(near):
    # x agrees with Z for `near` bits, so its value is 2^-(near+1), below
    # 2^-12; a scan bound that runs out first must not answer Yes
    spec = default_oracle_spec()
    z = spec.Z
    x = CantorPoint(lambda i: z.bit(i) ^ (i >= near))
    g = oracle_pin_gauge(spec)
    assert verified_at_least(g, x, pow2(-12), 8) is Verdict.UNKNOWN
    assert eval_enclosure(g, x, 8) == Interval(F(0), F(1))
    assert verified_at_least(g, x, pow2(-12), near + 10) is Verdict.NO
    assert eval_enclosure(g, x, near + 10) == Interval.point(pow2(-(near + 1)))


def test_pin_demo_hides_then_finds():
    spec = default_oracle_spec()
    cover = oracle_pin_demo(spec, 10, 8)
    assert isinstance(cover, FineCover)
    assert any(p.bits(10) == spec.Z.bits(10) for p in cover.points)


def test_pin_demo_rejects_eventually_constant_pin():
    # the search's constant-tail samples would name such a Z outright
    spec = OracleSpec(CantorPoint.from_pattern("10101", "0"))
    with pytest.raises(ValueError, match="eventually constant"):
        oracle_pin_demo(spec, 6, 8)


def test_pin_index_excludes_oracle_exactly():
    spec = default_oracle_spec()
    rng = random.Random(23)
    seen = 0
    for _ in range(300):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
        x = CantorPoint.from_pattern(pre, per)
        if x == spec.Z:
            continue
        f = pin_index(spec, x)
        assert f is not None and f >= 1
        assert x.bits(f - 1) == spec.Z.bits(f - 1)
        assert x.bits(f) != spec.Z.bits(f)
        seen += 1
    assert seen > 250
