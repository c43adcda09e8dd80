import cProfile
import fractions
import pstats
import random
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import quad
from fineness_ref import ref_check_fineness
from quad_ref import ref_cmp, ref_sign
from read_ref import ref_cantor_witness, ref_cover, ref_cover_csv, ref_pair, ref_sweep, ref_value, ref_value_key

from finecover import covers, gauges
from finecover.cli import main
from finecover.covers import (
    FineCover,
    MalformedPartition,
    NotACover,
    Obstruction,
    TaggedPartition,
    check_fineness,
    cover_to_partition,
    find_cover_cantor,
    find_cover_unit,
    minimize_cover,
    partition_to_cover,
    transfer_cover_phi,
    transfer_cover_psi,
    uncovered_witness,
    verify_cover,
    verify_partition,
    _sweep,
)
from finecover.exact import (
    Interval,
    dyadic_runs,
    pow2,
    rt_cell,
    rt_intersect,
    rt_interval,
    rt_of,
    rt_point,
    simplest_dyadic_between,
)
from finecover.gallery import CauchySpec, OracleSpec, cauchy_gap_gauge, default_cauchy_spec, oracle_pin_gauge
from finecover.gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    DirectCode,
    DomainError,
    Verdict,
    _LimitCode,
    continuous_const,
    eval_enclosure,
    kernel_dist,
    modulus_limit,
    pullback_gauge_phi,
    scale_code,
    transfer_gauge_psi,
    verified_above,
    verified_at_least,
)
from finecover.gaugespec import parse_gauge
from finecover.integral import builtin_integrands, default_depth, dirichlet_gauge_family, dirichlet_hints, riemann_sum
from finecover.serialize import cover_csv
from finecover.spaces import CantorPoint, Cylinder, UnitPoint, cylinder_for_ball

F = Fraction
STAGE = 8


def up(q):
    return UnitPoint.from_rat(F(q))


def const(q):
    return continuous_const(F(q))


def quarters(*tags):
    return TaggedPartition((F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), tuple(map(up, tags)))


# -- partition structure -------------------------------------------------


def test_partition_structure_rejects():
    with pytest.raises(MalformedPartition):
        TaggedPartition((F(0), F(1, 2)), (up("1/4"),))  # last cut not 1
    with pytest.raises(MalformedPartition):
        TaggedPartition((F(0), F(3, 4), F(1, 2), F(1)), (up(0), up("1/2"), up("3/4")))
    with pytest.raises(MalformedPartition):
        TaggedPartition((F(0), F(1, 2), F(1)), (up("7/8"), up("3/4")))  # tag off-cell
    with pytest.raises(MalformedPartition):
        TaggedPartition((F(0), F(1)), ())  # missing tag


def test_partition_accepts_zero_width_cell_and_opaque_tag():
    t = TaggedPartition(
        (F(0), F(1, 2), F(1, 2), F(1)),
        (up("1/4"), up("1/2"), up("3/4")),
    )
    assert len(t.tags) == 3
    # opaque tag straddling its cell boundary is not refutable
    wob = UnitPoint.from_fn(lambda k: Interval(F(1, 2) - pow2(-k - 1), F(1, 2) + pow2(-k - 1)))
    TaggedPartition((F(0), F(1, 2), F(1)), (wob, up("3/4")))
    off = UnitPoint.from_fn(lambda k: Interval(F(7, 8), F(7, 8)))
    with pytest.raises(MalformedPartition):
        TaggedPartition((F(0), F(1, 2), F(1)), (off, up("3/4")))


@settings(max_examples=200, deadline=None)
@given(
    inner=st.lists(st.fractions(0, 1, max_denominator=2**40), min_size=2, max_size=2),
    cell=st.integers(0, 2),
    at_hi=st.booleans(),
    inside=st.booleans(),
    t=st.builds(lambda n, e: F(n, 2**e), st.integers(1, 7), st.integers(8, 240)),
)
def test_partition_quad_tag_membership_at_both_cell_ends(inner, cell, at_hi, inside, t):
    """A tag a hair inside or outside a cell end, end +- t*(sqrt(2) - 1),
    is kept or refused as the Fraction reference order says, with its text."""
    cuts = (F(0), *sorted(inner), F(1))
    lo, hi = cuts[cell], cuts[cell + 1]
    # inside at lo: lo + t(sqrt2 - 1); inside at hi: hi - t(sqrt2 - 1)
    end, sign = (hi, -1) if at_hi else (lo, 1)
    if not inside:
        sign = -sign
    a, b = end - sign * t, sign * t
    tag = quad(a, b)
    tags = [up(c) for c in cuts[:-1]]
    tags[cell] = tag
    outside = ref_cmp((a, b), (lo, 0)) < 0 or ref_cmp((a, b), (hi, 0)) > 0
    if not outside:
        TaggedPartition(cuts, tuple(tags))
        return
    with pytest.raises(MalformedPartition) as err:
        TaggedPartition(cuts, tuple(tags))
    assert str(err.value) == f"tag {cell} = {a} + {b}*sqrt2 outside its cell [{lo},{hi}]"


@settings(max_examples=500, deadline=None)
@given(
    inner=st.lists(st.fractions(0, 1, max_denominator=2**30), min_size=2, max_size=2),
    a=st.fractions(-2, 2, max_denominator=2**30),
    b=st.fractions(-1, 1, max_denominator=2**30).filter(bool),
)
def test_partition_quad_tag_check_agrees_with_quadval_order(inner, a, b):
    """A random irrational tag in the middle of three random cells is kept
    exactly when the reference order (`quad_ref`) puts it inside the cell."""
    v = (a, b)
    assume(ref_cmp(v, (-1, 0)) >= 0 and ref_cmp(v, (2, 0)) <= 0)
    cuts = (F(0), *sorted(inner), F(1))
    lo, hi = cuts[1], cuts[2]
    tags = (up(0), quad(a, b), up(1))
    if ref_cmp(v, (lo, 0)) >= 0 and ref_cmp(v, (hi, 0)) <= 0:
        TaggedPartition(cuts, tags)
        return
    with pytest.raises(MalformedPartition) as err:
        TaggedPartition(cuts, tags)
    assert str(err.value) == f"tag 1 = {a} + {b}*sqrt2 outside its cell [{lo},{hi}]"


_QUAD_TAG = quad(F(1, 4), F(1, 8))  # 1/4 + sqrt(2)/8, about 0.427
_FAR_BOX = UnitPoint.from_fn(lambda k: Interval(F(7, 8), F(7, 8)))

# (cuts, tags, the message of the MalformedPartition they raise)
_MALFORMED = [
    ((F(0),), (), "need at least the two endpoint cuts"),
    ((F(0), F(1, 2)), (up("1/4"),), "cuts must run from 0 to 1, got 0..1/2"),
    ((F(1, 3), F(1)), (up("1/2"),), "cuts must run from 0 to 1, got 1/3..1"),
    ((F(0), F(3, 4), F(1, 2), F(1)), (up(0), up("1/2"), up("3/4")), "cuts must be nondecreasing"),
    ((F(0), F(1, 2), F(1)), (up("1/4"),), "2 cells but 1 tags"),
    ((F(0), F(1)), (up("1/4"), up("3/4")), "1 cells but 2 tags"),
    ((F(0), F(1, 2), F(1)), (up("1/4"), CantorPoint.from_pattern("", "0")), "tag 1 is not a point of [0,1]"),
    ((F(0), F(1, 2), F(1)), (up("7/8"), up("3/4")), "tag 0 = 7/8 outside its cell [0,1/2]"),
    ((F(0), F(1, 3), F(1)), (up("1/6"), up("1/4")), "tag 1 = 1/4 outside its cell [1/3,1]"),
    ((F(0), F(1, 2), F(1)), (up("1/4"), _QUAD_TAG), "tag 1 = 1/4 + 1/8*sqrt2 outside its cell [1/2,1]"),
    ((F(0), F(1, 3), F(1)), (_QUAD_TAG, up("1/2")), "tag 0 = 1/4 + 1/8*sqrt2 outside its cell [0,1/3]"),
    ((F(0), F(1, 2), F(1)), (_FAR_BOX, up("3/4")), "tag 0 verifiably outside its cell [0,1/2]"),
]


@pytest.mark.parametrize("cuts, tags, message", _MALFORMED)
def test_a_malformed_partition_says_why_from_cuts_and_from_ends(cuts, tags, message):
    """Each check gives the same text whether the partition is built from
    Fraction cuts or from their integer ends."""
    with pytest.raises(MalformedPartition) as err:
        TaggedPartition(cuts, tags)
    assert str(err.value) == message
    with pytest.raises(MalformedPartition) as err:
        TaggedPartition.from_ends([(c.numerator, c.denominator) for c in cuts], tags)
    assert str(err.value) == message


@settings(max_examples=100, deadline=None)
@given(inner=st.lists(st.fractions(0, 1, max_denominator=60), max_size=6), share=st.fractions(0, 1, max_denominator=8))
def test_a_partition_from_its_ends_reads_as_the_one_from_its_cuts(inner, share):
    cuts = (F(0), *sorted(inner), F(1))
    tags = tuple(up(lo + (hi - lo) * share) for lo, hi in zip(cuts, cuts[1:]))
    made = TaggedPartition(cuts, tags)
    built = TaggedPartition.from_ends([(c.numerator, c.denominator) for c in cuts], tags)
    assert built == made and hash(built) == hash(made)
    assert repr(built) == repr(made) == f"TaggedPartition(cuts={cuts!r}, tags={tags!r})"
    assert built.cuts == cuts and all(type(c) is F for c in built.cuts)
    assert list(built.widths()) == list(made.widths())
    for field in ("cuts", "tags", "ends"):
        with pytest.raises(AttributeError):
            setattr(built, field, ())


def test_converting_checking_and_summing_build_no_fraction_per_cell():
    """The 4,096-cell identity integral at eps = 1/512: converting the cover,
    re-checking its fineness and summing build a fixed number of Fractions,
    the sum's two ends, not one per cut or per width."""
    f, fam, _ = builtin_integrands()["identity"]
    eps = F(1, 512)
    g = fam(eps)
    cover = find_cover_unit(scale_code(g, F(1, 2)), default_depth("identity", eps), 48)
    assert len(cover) == 4096
    profile = cProfile.Profile()
    profile.enable()
    part = cover_to_partition(cover)
    check = verify_partition(g, part, 48)
    total = riemann_sum(f, part, 10)
    profile.disable()
    assert check is Verdict.YES and total == Interval.point(F(1, 2))
    made = sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if name == "__new__" and path == fractions.__file__)
    assert made <= 4


# -- verify_partition ----------------------------------------------------


def test_verify_partition_quarters_yes():
    t = quarters(0, "1/4", "1/2", "3/4")
    assert verify_partition(const("1/2"), t, STAGE) is Verdict.YES


def test_verify_partition_width_boundary_non_strict():
    t = quarters("1/8", "3/8", "5/8", "7/8")
    assert verify_partition(const("1/4"), t, STAGE) is Verdict.YES


def test_verify_partition_halves_no():
    t = TaggedPartition((F(0), F(1, 2), F(1)), (up("1/4"), up("3/4")))
    assert verify_partition(const("1/8"), t, STAGE) is Verdict.NO


def test_verify_partition_identity_plus_small_no():
    g = parse_gauge("x + 1/100")
    t = TaggedPartition((F(0), F(1, 2), F(1)), (up(0), up("1/2")))
    assert verify_partition(g, t, STAGE) is Verdict.NO


# -- covers, witnesses, verify_cover -------------------------------------


def test_cover_merges_duplicates_keeping_larger_radius():
    c = FineCover([(up("1/2"), F(1, 4)), (up("1/2"), F(1, 2))])
    assert len(c) == 1
    assert dict(c.entries())[up("1/2")] == F(1, 2)


def test_cover_rejects_bad_entries():
    with pytest.raises(ValueError):
        FineCover([(up("1/2"), F(0))])
    with pytest.raises(ValueError):
        FineCover([])
    with pytest.raises(ValueError):
        FineCover([(up("1/2"), F(1, 2)), (CantorPoint.from_pattern("", "0"), F(1, 2))])


@pytest.mark.parametrize(
    "point", [UnitPoint.from_fn(lambda k: Interval(F(1, 3), F(1, 3))), CantorPoint(lambda i: i % 2)], ids=["approx", "rule"]
)
def test_a_cover_point_must_be_exact(point):
    """A cover row holds an exact value or a pattern, so an approximant
    and a rule-only sequence are turned away, after the radius check."""
    with pytest.raises(ValueError, match="cover points must be exact"):
        FineCover([(point, F(1, 2))])
    with pytest.raises(ValueError, match="cover radius must be > 0"):
        FineCover([(point, F(0))])


def test_uncovered_witness_frozen():
    c = FineCover([(up("1/8"), F(1, 4))])
    assert uncovered_witness(c) == F(1, 2)
    full = FineCover([(up("1/4"), F(1, 2)), (up("3/4"), F(1, 2))])
    assert uncovered_witness(full) is None


def test_uncovered_witness_deep_cantor_cover():
    # one cylinder 1500 bits deep: the probe walks 1500 levels down the
    # leftmost uncovered branch
    cover = FineCover([(CantorPoint.from_pattern("", "01"), pow2(-1500))])
    w = uncovered_witness(cover)
    assert w == CantorPoint.from_pattern("", "0")
    # the all-zeros branch is covered at the bottom, so the probe backtracks
    # from depth 1500
    zeros = FineCover([(CantorPoint.from_pattern("", "0"), pow2(-1500)), (CantorPoint.from_pattern("", "1"), F(1, 2))])
    assert uncovered_witness(zeros) == CantorPoint.from_pattern("0" * 1499 + "1", "0")


def test_verify_cover_covering_failure():
    c = FineCover([(up("1/8"), F(1, 4))])
    assert verify_cover(const("1/4"), c, STAGE) is Verdict.NO


def test_verify_cover_radius_failure():
    c = FineCover([(up("1/2"), F(3, 4))])
    assert verify_cover(const("1/4"), c, STAGE) is Verdict.NO


def test_verify_cover_yes():
    c = FineCover([(up("1/4"), F(1, 2)), (up("3/4"), F(1, 2))])
    assert verify_cover(const("1/2"), c, STAGE) is Verdict.YES


def test_verify_cover_cantor():
    zero = CantorPoint.from_pattern("0", "0")
    one = CantorPoint.from_pattern("1", "0")
    both = FineCover([(zero, F(1, 2)), (one, F(1, 2))])
    g = continuous_const(F(1, 2), domain="cantor")
    assert verify_cover(g, both, STAGE) is Verdict.YES
    half = FineCover([(zero, F(1, 2))])
    assert verify_cover(g, half, STAGE) is Verdict.NO
    w = uncovered_witness(half)
    assert w.bit(0) == 1


# -- check_fineness: runs of rows on one region evaluation ----------------


def _approx(q):
    """An approximant point at the rational q, with boxes of width 2^-k."""
    return UnitPoint.from_fn(lambda k: Interval(q - F(1, 2 << k), q + F(1, 2 << k)), label=f"~{q}")


def _unit_point(spec):
    kind, q, b = spec
    if kind == "rat":
        return up(q)
    if kind == "quad":
        return quad(q, b)
    return _approx(q)


def _cantor_point(spec):
    prefix, period = spec
    if period:
        return CantorPoint.from_pattern(prefix, period)
    # rule-only, with a bad bit that only a query past the prefix's next three bits reads
    return CantorPoint(lambda i: int(prefix[i]) if i < len(prefix) else 1 if i < len(prefix) + 3 else 2, label=prefix)


_UNIT_SPECS = st.tuples(st.just("rat"), st.fractions(-1, 2, max_denominator=16), st.none()) | st.tuples(
    st.sampled_from(["quad", "approx"]),
    st.fractions(F(-1, 2), F(3, 2), max_denominator=16),
    st.fractions(F(-1, 4), F(1, 4), max_denominator=16).filter(bool),
)
_CANTOR_SPECS = st.tuples(st.text("01", max_size=6), st.sampled_from(["0", "1", "01", "110", ""]))
_BOUNDS = st.sampled_from([F(0), F(1, 1 << 20), F(1, 64), F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1), F(-1, 8)]) | st.fractions(
    0, 1, max_denominator=64
)


def _mixed_baire1(text):
    """baire1(n -> text + 2^-n), whose terms past the second are point-only
    direct codes, with no region."""
    term = lambda n: parse_gauge(f"{text} + 2^-{n}")
    return Baire1Code(lambda n: term(n) if n <= 2 else _point_only(term(n)))


def _gauge_builder(kind, text, eps):
    def gauge():
        if kind in ("text", "baire1", "baire2"):
            return parse_gauge(text)
        if kind in ("cantor", "cantor-baire1"):
            return pullback_gauge_phi(parse_gauge(text))
        if kind == "gap":
            return cauchy_gap_gauge(default_cauchy_spec())
        if kind == "gap-baire1":
            return cauchy_gap_gauge(CauchySpec(default_cauchy_spec().term, modulus=None))
        if kind == "mixed-baire1":
            return _mixed_baire1(text)
        return builtin_integrands()["sqrt-reciprocal"][1](eps)

    return gauge


def _rows_builder(shape, specs, scale):
    """Rows (point, qn, qd) built afresh from their specs: straight, of a
    unit cover, or of a partition from its cuts and tag kinds."""

    def rows():
        if shape == "partition":
            cuts, kinds = specs
            # a tag in the middle of its cell, off it by sqrt(2)/8 of the width, or an approximant there
            tags = [
                up(a) if a == b or t == "rat" else _approx((a + b) / 2) if t == "approx"
                else quad((a + b) / 2, (b - a) / 8)
                for t, a, b in zip(kinds, cuts, cuts[1:])
            ]
            got = [(p, F(wn, wd)) for p, wn, wd in TaggedPartition(cuts, tags).widths()]
        else:
            point = _cantor_point if shape == "cantor" else _unit_point
            got = [(point(p), r) for p, r in specs]
            if shape == "cover":
                got = FineCover(got).entries()
        return [(p, (r * scale).numerator, (r * scale).denominator) for p, r in got]

    return rows


@st.composite
def _fineness_cases(draw):
    """(gauge, rows, stage), the gauge and rows as builders, since both keep
    state per point, with the bounds scaled down by 2^-20 half of the time
    so that most rows are fine."""
    kind = draw(st.sampled_from(["text", "text", "gap", "sqrt", "cantor", "baire1", "baire2", "gap-baire1",
                                 "cantor-baire1", "mixed-baire1"]))
    text = draw(_BAIRE1 if kind in ("baire1", "cantor-baire1") else _BAIRE2 if kind == "baire2" else _GAUGES)
    eps = draw(st.sampled_from([F(1, 4), F(1, 32)]))
    stage = draw(st.sampled_from([0, 1, 2, 4, 48]))
    scale = draw(st.sampled_from([F(1), F(1, 1 << 20)]))
    shape = "cantor" if kind.startswith("cantor") else draw(st.sampled_from(["rows", "cover", "partition"]))
    if shape == "partition":
        cuts = [F(0), *sorted(draw(st.lists(st.fractions(0, 1, max_denominator=32), max_size=10))), F(1)]
        specs = cuts, draw(st.lists(st.sampled_from(["rat", "quad", "approx"]), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    else:
        specs = draw(st.lists(st.tuples(_CANTOR_SPECS if shape == "cantor" else _UNIT_SPECS, _BOUNDS), min_size=1, max_size=12))
        if shape == "cover":
            specs = [(p, r) for p, r in specs if p[0] != "approx" and r > 0]  # cover points are exact, radii positive
            assume(specs)
    return _gauge_builder(kind, text, eps), _rows_builder(shape, specs, scale), stage


def _outcome(check, g, rows, stage):
    try:
        return check(g, rows, stage)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_fineness_cases())
def test_check_fineness_by_runs_matches_one_verdict_per_row(case):
    """Gauge texts on [0,1] and pulled back to sequences, the gap gauge (a
    modulus code with regions) and the sqrt-reciprocal direct code with its
    region; limit codes: baire1 and baire2 texts, a baire1 text pulled
    back, the gap gauge with no modulus, and a baire1 code whose later
    terms have no region; rational, quadratic and approximant points,
    centres in [-1, 2], rule-only sequences; stages 0, 1, 2, 4 and 48.
    Every verdict, index, error type and message is the reference's."""
    gauge, rows, stage = case
    assert _outcome(check_fineness, gauge(), rows(), stage) == _outcome(ref_check_fineness, gauge(), rows(), stage)


def _counted_verdicts(monkeypatch):
    asked = []
    inner = covers._verdict

    def counting(g, x, qn, qd, stage, strict):
        asked.append(x)
        return inner(g, x, qn, qd, stage, strict)

    monkeypatch.setattr(covers, "_verdict", counting)
    return asked


def _grid_rows(n, radius):
    return [(up(F(2 * i + 1, 2 * n)), radius.numerator, radius.denominator) for i in range(n)]


def test_a_fine_cover_under_a_constant_gauge_takes_no_verdict(monkeypatch):
    asked = _counted_verdicts(monkeypatch)
    cover = FineCover([(p, F(qn, qd)) for p, qn, qd in _grid_rows(1024, F(1, 2048))])
    assert verify_cover(const(F(1, 1024)), cover, 48) is Verdict.YES
    assert asked == []


def test_one_bad_row_is_found_by_its_own_verdict(monkeypatch, tmp_path, capsys):
    """Row 517 of 1,024 has a radius above the gauge: the runs around it
    pass on their regions, and the row itself says No."""
    rows = _grid_rows(1024, F(1, 2048))
    rows[517] = (rows[517][0], 1, 256)
    asked = _counted_verdicts(monkeypatch)
    assert check_fineness(const(F(1, 1024)), rows, 48) == (Verdict.NO, 517)
    assert 0 < len(asked) < 40 and asked[-1] == rows[517][0]
    path = tmp_path / "cover.csv"
    path.write_text(cover_csv(FineCover([(p, F(qn, qd)) for p, qn, qd in rows])))
    assert main(["verify", "--gauge", "1/1024", "--in", str(path), "--stage", "48"]) == 3
    assert capsys.readouterr().out == "entry 517: gauge at rat:1035/2048 is below the radius 1/256\n"


def test_a_direct_code_without_a_region_asks_every_row(monkeypatch):
    asked = _counted_verdicts(monkeypatch)
    g = DirectCode(lambda x, s: (1, 1, 1024), label="1/1024")
    rows = _grid_rows(1024, F(1, 2048))
    assert check_fineness(g, rows, 48) == (Verdict.YES, None)
    assert asked == [p for p, _, _ in rows]


def test_approximant_and_outside_rows_take_their_own_verdicts(monkeypatch):
    """An approximant is asked in its turn, its box untouched before that;
    a point outside [0,1] raises DomainError at its own row, after the
    rows before it passed on their region."""
    asked = _counted_verdicts(monkeypatch)
    g = const(F(1, 4))
    tag = _approx(F(1, 3))
    rows = [(up(F(i, 8)), 1, 8) for i in range(4)] + [(tag, 1, 8)] + [(up(F(i, 8)), 1, 8) for i in range(4, 9)]
    assert check_fineness(g, rows, 48) == (Verdict.YES, None)
    assert asked == [tag]
    asked.clear()
    outside = up(F(-1, 8))
    rows = [(up(F(i, 8)), 1, 8) for i in range(8)] + [(outside, 1, 8)] + [(up(F(1, 2)), 1, 8)]
    with pytest.raises(DomainError, match="outside"):
        check_fineness(parse_gauge("x + 1/4"), rows, 48)
    assert asked == [outside]


@settings(max_examples=120, deadline=None)
@given(text=st.deferred(lambda: _BAIRE1 | _BAIRE2), level=st.integers(0, 6), data=st.data())
def test_a_limit_region_holds_the_block_at_every_point_of_its_hull(text, level, data):
    """What the fineness runs rest on: at stages 0, 1, 2, 3 and 8 the region
    of a baire1 or baire2 text, on a dyadic cell or on the hull of one of
    its rationals and another of [0,1], holds the enclosure at that
    rational; and the region of its phi pullback, on the hull of a pattern
    point's cylinder at a level up to the stage and another pattern point's
    query cell, holds the enclosure at the first point."""
    g, h = parse_gauge(text), pullback_gauge_phi(parse_gauge(text))
    i = data.draw(st.integers(0, (1 << level) - 1))
    x = (i + data.draw(st.fractions(0, 1, max_denominator=12))) / (1 << level)
    y = data.draw(st.none() | st.fractions(0, 1, max_denominator=16))
    cell = rt_cell(i, level) if y is None else rt_of(Interval(min(x, y), max(x, y)))
    patterns = st.tuples(st.text("01", max_size=6), st.sampled_from(["0", "1", "01", "110"]))
    z, other = (CantorPoint.from_pattern(*data.draw(patterns)) for _ in range(2))
    for stage in (0, 1, 2, 3, 8):
        box, got = rt_interval(g.region(cell, stage)), eval_enclosure(g, up(x), stage)
        assert box.lo <= got.lo and got.hi <= box.hi, (stage, box, got)
        m = data.draw(st.integers(0, stage))
        ends = [rt_interval(rt_cell(z.index(m), m)), rt_interval(rt_cell(other.index(stage), stage))]
        hull = rt_of(Interval(min(e.lo for e in ends), max(e.hi for e in ends)))
        box, got = rt_interval(h.region(hull, stage)), eval_enclosure(h, z, stage)
        assert box.lo <= got.lo and got.hi <= box.hi, (stage, box, got)


def test_a_limit_whose_later_terms_have_no_region_asks_their_rows(monkeypatch):
    """baire1(n -> 1/8 + 2^-n) with no region past its second term. At
    stage 2 its block, terms 1 and 2, has the region [1/8, 7/8], and the
    fine grid passes on it without a verdict. At stage 4 the block, terms
    2 to 4, has none, so after that one region call every row takes its
    own verdict. Both agree with the reference, and nothing raises."""
    rows = _grid_rows(64, F(1, 128))
    asked, regions, inner = _counted_verdicts(monkeypatch), [], _LimitCode.region

    def counting(self, r, s):
        regions.append(s)
        return inner(self, r, s)

    monkeypatch.setattr(_LimitCode, "region", counting)
    for stage, verdicts in ((2, 0), (4, 64)):
        asked.clear()
        regions.clear()
        assert check_fineness(_mixed_baire1("1/8"), rows, stage) == (Verdict.YES, None)
        assert (len(asked), regions) == (verdicts, [stage])
        assert ref_check_fineness(_mixed_baire1("1/8"), rows, stage) == (Verdict.YES, None)


@pytest.mark.parametrize(
    "text",
    [
        "baire1(n -> x/2 + 1/16 + 2^-(n+2))",
        "baire1(n -> (|x - 1/3| + 1/8) * (1 - 2^-n))",
        "baire2(n -> baire1(k -> min(x, 1/4) + 1/32 + 2^-(n+3) + 2^-(k+3)))",
    ],
)
@pytest.mark.parametrize("stage", [1, 4, 8])
def test_the_searches_sample_a_limit_code_and_never_read_its_region(monkeypatch, text, stage):
    """With the block region made to raise, both searches on a limit code,
    on [0,1] and pulled back, return the cover or obstruction of the
    sample-only walk and ask the same verdicts in the same order."""
    asked, inner = [], gauges._verdict

    def recording(g, x, qn, qd, s, strict):
        asked.append((x, qn, qd, s, strict))
        return inner(g, x, qn, qd, s, strict)

    def no_region(self, r, s):
        raise AssertionError("a search read a limit code's region")

    monkeypatch.setattr(gauges, "_verdict", recording)
    monkeypatch.setattr(_LimitCode, "region", no_region)
    got = find_cover_unit(parse_gauge(text), 5, stage)
    searched, asked[:] = asked[:], []
    _assert_same_search(got, _ref_find_cover_unit(parse_gauge(text), 5, stage))
    assert searched == asked
    asked.clear()
    got = find_cover_cantor(pullback_gauge_phi(parse_gauge(text)), 5, stage)
    searched, asked[:] = asked[:], []
    want = _ref_find_cover_cantor(pullback_gauge_phi(parse_gauge(text)), 5, stage, [])
    assert type(got) is type(want)
    assert (got.entries() == want.entries()) if isinstance(want, FineCover) else [c.index for c in got.unresolved] == list(want.unresolved)
    assert searched == asked


def _ref_cantor_witness(cover):
    """The sequence-side witness as first written: a depth-first walk, left
    branch first, over the prefix strings of the cover's cylinders."""
    prefixes = set()
    for p, r in cover.entries():
        m = 0
        while F(1, 1 << m) > r:
            m += 1
        prefixes.add("".join(str(p.bit(i)) for i in range(m)))
    maxlen = max(len(s) for s in prefixes)
    stack = [""]
    while stack:
        node = stack.pop()
        if node in prefixes:
            continue
        if len(node) >= maxlen:
            return CantorPoint.from_pattern(node, "0")
        stack.append(node + "1")
        stack.append(node + "0")
    return None


_CELL = st.tuples(
    st.text(alphabet="01", max_size=4),  # the cylinder's prefix
    st.text(alphabet="01", max_size=3),  # more bits of the point inside it
    st.sampled_from(["0", "1", "01"]),  # the point's period
    st.booleans(),  # a radius of 3/2 the width, which names the same cylinder
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL, min_size=1, max_size=12))
def test_cantor_witness_matches_the_string_walk(cells):
    entries = [
        (CantorPoint.from_pattern(prefix + more, period), F(3 if wide else 2, 2 << len(prefix)))
        for prefix, more, period, wide in cells
    ]
    cover = FineCover(entries)
    got = uncovered_witness(cover)
    assert got == _ref_cantor_witness(cover)
    for p, r in cover.entries() if got is not None else ():
        cell = cylinder_for_ball(p, r)
        assert got.index(cell.depth) != cell.index


# -- conversions ---------------------------------------------------------


def test_partition_to_cover_frozen():
    t = TaggedPartition((F(0), F(1, 2), F(1)), (up("1/4"), up("3/4")))
    c = partition_to_cover(t)
    assert c.entries() == [(up("1/4"), F(1)), (up("3/4"), F(1))]

    t2 = TaggedPartition((F(0), F(1)), (up("1/2"),))
    assert partition_to_cover(t2).entries() == [(up("1/2"), F(2))]

    t3 = quarters("1/8", "3/8", "5/8", "7/8")
    c3 = partition_to_cover(t3)
    assert [r for _, r in c3.entries()] == [F(1, 2)] * 4


def test_partition_to_cover_drops_zero_cells():
    t = TaggedPartition((F(0), F(1, 2), F(1, 2), F(1)), (up("1/4"), up("1/2"), up("3/4")))
    c = partition_to_cover(t)
    assert len(c) == 2


def test_minimize_cover_frozen():
    c = FineCover([(up("1/4"), F(1, 2)), (up("1/2"), F(1, 8)), (up("3/4"), F(1, 2))])
    slim = minimize_cover(c)
    assert [p.exact_value() for p in slim.points] == [F(1, 4), F(3, 4)]
    with pytest.raises(NotACover):
        minimize_cover(FineCover([(up("1/8"), F(1, 4))]))


def test_cover_to_partition_frozen():
    c = FineCover([(up("1/4"), F(3, 4)), (up("3/4"), F(3, 4))])
    t = cover_to_partition(c)
    assert t.cuts == (F(0), F(1, 2), F(1))
    assert [x.exact_value() for x in t.tags] == [F(1, 4), F(3, 4)]

    t2 = cover_to_partition(FineCover([(up("1/2"), F(1))]))
    assert t2.cuts == (F(0), F(1))

    c3 = FineCover([(up(F(i, 8)), F(1, 4)) for i in (1, 3, 5, 7)])
    t3 = cover_to_partition(c3)
    assert t3.cuts == (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def test_cover_to_partition_quad_points_get_dyadic_cuts():
    r2 = (F(0), F(1, 2))  # sqrt(2)/2
    pts = [(up("1/4"), F(1, 2)), (quad(*r2), F(1, 2)), (up("7/8"), F(1, 2))]
    t = cover_to_partition(FineCover(pts))
    assert all(isinstance(x, F) for x in t.cuts)
    v = r2
    lo, hi = t.cuts[1], t.cuts[2]
    assert ref_cmp((lo, 0), v) < 0 < ref_cmp((hi, 0), v)  # the quad tag sits inside its cell


def test_cover_to_partition_cuts_two_quad_centres_at_their_rational_midpoint():
    # the overlap runs from one centre to the other, 1/2 -+ sqrt(2)/8, and
    # its midpoint 1/2 is rational although neither end is
    centres = [quad(F(1, 2), F(s, 8)) for s in (-1, 1)]
    t = cover_to_partition(FineCover([(c, F(1, 2)) for c in centres]))
    assert t.cuts == (F(0), F(1, 2), F(1))
    assert list(t.tags) == centres


# The conversion as it was written before the single sweep, kept as the
# reference: the balls sorted and swept for the witness, then the rows
# sorted by (lo, -hi), the contained ones dropped, and a second FineCover.
# Balls that miss [0,1] are dropped first, as the sweep does. Values are
# quad_ref's pairs (a, b) for a + b*sqrt(2), ordered by ref_cmp.

_BY_VALUE = cmp_to_key(ref_cmp)
_ONE = (F(1), F(0))


def _shift(v, q):
    """v + q for a pair v and a rational q."""
    return v[0] + q, v[1]


def _text(v):
    """A pair's value as the package's messages write it."""
    return f"{v[0]} + {v[1]}*sqrt2" if v[1] else str(v[0])


def _in_ambient(v):
    return ref_cmp(v, (-1, 0)) >= 0 and ref_cmp(v, (2, 0)) <= 0


def _ref_witness(cover):
    balls = sorted(
        ((_shift(ref_value(p), -r), _shift(ref_value(p), r)) for p, r in cover.entries()),
        key=lambda ball: (_BY_VALUE(ball[0]), _BY_VALUE(ball[1])),
    )
    t, i = (F(0), F(0)), 0
    while i < len(balls) and ref_cmp(balls[i][0], t) <= 0:
        t = max(t, balls[i][1], key=_BY_VALUE)
        i += 1
    if ref_cmp(t, _ONE) >= 0:
        return None
    nxt = balls[i][0] if i < len(balls) else _ONE
    return F(*simplest_dyadic_between(*ref_pair(t), *ref_pair(min(nxt, _ONE, key=_BY_VALUE))))


def _ref_minimize(cover):
    if _ref_witness(cover) is not None:
        raise NotACover("input does not cover [0,1]")
    meets = [
        (p, r) for p, r in cover.entries()
        if ref_sign(*_shift(ref_value(p), r)) > 0 and ref_cmp(_shift(ref_value(p), -r), _ONE) < 0
    ]
    rows = sorted(
        ((_shift(ref_value(p), -r), _shift(ref_value(p), r), p, r) for p, r in meets),
        key=lambda row: (_BY_VALUE(row[0]), _BY_VALUE((-row[1][0], -row[1][1]))),
    )
    best_hi, kept = None, []
    for lo, hi, p, r in rows:
        if best_hi is not None and ref_cmp(hi, best_hi) <= 0:
            continue
        best_hi = hi
        kept.append((p, r))
    return FineCover(kept)


def _ref_cover_to_partition(cover):
    slim = _ref_minimize(cover)
    pts = [(p, ref_value(p), r) for p, r in slim.entries()]
    for _, v, _ in pts:
        if ref_sign(*v) < 0 or ref_cmp(v, _ONE) > 0:
            raise NotACover(f"ball centred at {_text(v)} outside [0,1] cannot tag a cell")
    cuts = [F(0)]
    for (p0, v0, r0), (p1, v1, r1) in zip(pts, pts[1:]):
        lo, hi = max(v0, _shift(v1, -r1), key=_BY_VALUE), min(v1, _shift(v0, r0), key=_BY_VALUE)
        if ref_cmp(lo, hi) > 0:
            raise NotACover(f"adjacent balls at {_text(v0)} and {_text(v1)} fail to overlap")
        if ref_cmp(lo, hi) == 0:
            if lo[1]:
                raise NotACover(f"overlap degenerates to the irrational point {_text(lo)}")
            cut = lo[0]
        else:
            mid = ((lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2)
            cut = F(*simplest_dyadic_between(*ref_pair(lo), *ref_pair(hi))) if mid[1] else mid[0]
        cuts.append(F(cut))
    cuts.append(F(1))
    return TaggedPartition(tuple(cuts), tuple(p for p, _, _ in pts))


def _point(v):
    return quad(*v)


def _rat(q):
    return q, F(0)


# prime denominators, small and large, for balls off the dyadic grid
_PRIMES = (3, 5, 7, 11, 13, 101, 65537, 1_000_003, 2**61 - 1)


def _over_primes(lo, hi):
    """Rationals in [lo, hi] over one of _PRIMES."""
    return st.sampled_from(_PRIMES).flatmap(lambda p: st.integers(ceil(lo * p), floor(hi * p)).map(lambda n: F(n, p)))


_SMALL = st.one_of(st.fractions(F(1, 64), F(1, 2), max_denominator=64), _over_primes(F(1, 64), F(1, 2)))
_EXTRA_POINTS = st.one_of(
    st.fractions(F(-1, 4), F(5, 4), max_denominator=16).map(_rat),
    _over_primes(F(-1, 4), F(5, 4)).map(_rat),
    st.tuples(
        st.fractions(F(-1, 4), F(1), max_denominator=8),
        st.fractions(F(-1, 4), F(1, 4), max_denominator=8).filter(bool),
    ),
    st.tuples(
        _over_primes(F(-1, 4), F(1)),
        _over_primes(F(-1, 4), F(1, 4)).filter(bool),
    ),
)


@st.composite
def _unit_covers(draw):
    """A grid of n balls (n a power of two or a prime) with some dropped
    (gaps at 0, inside or near 1, unless the neighbours still reach), random
    rational and quadratic balls over small and prime denominators, and
    balls derived from drawn ones: inside them, inside them with the same
    left end, around them with the same left end, with the same left end
    over another denominator, and a neighbour overlapping them followed by
    a ball around both, centred after them, which the sweep's stack keeps
    and then pops together."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 3, 5, 7, 11, 13]))
    stretch = draw(st.sampled_from([F(1, 2), F(3, 4), F(1)]))
    dropped = draw(st.sets(st.integers(0, n - 1), max_size=2))
    balls = [(_rat(F(2 * i + 1, 2 * n)), stretch / n) for i in range(n) if i not in dropped]
    balls += draw(st.lists(st.tuples(_EXTRA_POINTS, _SMALL), max_size=6))
    if not balls:
        balls.append(draw(st.tuples(_EXTRA_POINTS, _SMALL)))
    for j, how, s in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 4), _SMALL), max_size=4)):
        v, r = balls[j % len(balls)]
        if how == 0:
            ball = _shift(v, r / 4), r / 2  # strictly inside
        elif how == 1:
            ball = _shift(v, -r / 4), 3 * r / 4  # inside, same left end
        elif how == 2:
            ball = _shift(v, s / 4), r + s / 4  # around, same left end
        elif how == 3:
            ball = _shift(v, s - r), s  # same left end, radius s
        else:
            if _in_ambient(_shift(v, r)):
                balls.append((_shift(v, r), r))  # overlapping it on the right
            ball = _shift(v, 2 * r + s), 3 * r + s  # around both, centred after them
        if _in_ambient(ball[0]):  # a point's ambient interval
            balls.append(ball)
    return FineCover([(_point(v), r) for v, r in balls])


def _swept(sweep) -> tuple[list, object]:
    """`_sweep`'s kept rows as (lo, hi, d, c, num, den, rn, rd), the ball's
    ends and centre over d, then its cover row, and the witness."""
    kept, witness = sweep
    return [(lo, hi, d, c, *row) for lo, hi, d, c, row in kept], witness


def _ref_swept(sweep) -> tuple[list, object]:
    """The same projection of `ref_sweep`'s rows (lo, hi, d, c, point, radius)."""
    kept, witness = sweep
    return [(lo, hi, d, c, p.num, p.den, r.numerator, r.denominator) for lo, hi, d, c, p, r in kept], witness


@settings(max_examples=200, deadline=None)
@given(cover=_unit_covers())
def test_one_sweep_matches_the_two_sort_conversion(cover):
    """uncovered_witness, minimize_cover and cover_to_partition give what
    the two-sort conversion gives, or raise the same NotACover; the
    partition, built from its cuts' integer ends, reads as the one built
    from Fraction cuts. The one-pass sweep keeps the rows the sort by left
    end keeps."""
    assert _swept(_sweep(cover)) == _ref_swept(ref_sweep(cover.points, dict(cover.entries())))
    assert uncovered_witness(cover) == _ref_witness(cover)
    for new, ref in ((minimize_cover, _ref_minimize), (cover_to_partition, _ref_cover_to_partition)):
        try:
            want = ref(cover)
        except NotACover as e:
            with pytest.raises(NotACover) as got:
                new(cover)
            assert str(got.value) == str(e)
            continue
        got = new(cover)
        if isinstance(want, FineCover):
            assert got.entries() == want.entries()
        else:
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert got.cuts == want.cuts and list(got.widths()) == list(want.widths())


def test_a_ball_around_earlier_kept_balls_pops_them_all():
    """The balls at 1/8, 1/4 and 3/8 of radius 1/8 are kept in turn, each
    reaching past the last; the ball at 1/2 of radius 1/2, centred after
    them, contains all three and pops them together."""
    cover = FineCover([(up(F(n, 8)), F(1, 8)) for n in (1, 2, 3)] + [(up(F(1, 2)), F(1, 2)), (up(F(7, 8)), F(1, 4))])
    kept, witness = _sweep(cover)
    assert [row[4] for row in kept] == [(1, 2, 1, 2), (7, 8, 1, 4)]
    assert witness is None
    assert _swept((kept, witness)) == _ref_swept(ref_sweep(cover.points, dict(cover.entries())))
    assert cover_to_partition(cover) == _ref_cover_to_partition(cover)


_CENTRES = st.one_of(
    st.fractions(F(-1), F(2), max_denominator=64).map(_rat),
    _over_primes(F(-1), F(2)).map(_rat),
    st.tuples(
        st.fractions(F(-1, 2), F(3, 2), max_denominator=8),
        st.fractions(F(-1, 4), F(1, 4), max_denominator=8).filter(bool),
    ),
)


@st.composite
def _shuffled_entries(draw):
    """Cover entries in a drawn order: a dyadic grid, drawn centres over
    [-1, 2] (some quadratic), drawn points again with another radius, and
    balls with the same left end as a drawn one."""
    n = draw(st.sampled_from([1, 2, 4, 8, 16, 3, 5]))
    balls = [(_rat(F(2 * i + 1, 2 * n)), F(1, n)) for i in range(n)]
    balls += draw(st.lists(st.tuples(_CENTRES, _SMALL), max_size=8))
    for j, s in draw(st.lists(st.tuples(st.integers(0, 99), _SMALL), max_size=4)):
        v, r = balls[j % len(balls)]
        balls.append((v, s))
        if _in_ambient(_shift(v, s - r)):
            balls.append((_shift(v, s - r), s))
    return [(_point(balls[i][0]), balls[i][1]) for i in draw(st.permutations(range(len(balls))))]


@settings(max_examples=300, deadline=None)
@given(entries=_shuffled_entries())
def test_cover_orders_match_the_fraction_sorts(entries):
    """FineCover's points, the sweep's kept rows and the unit witness are
    those of the sorts by exact value and by the cross-multiplying
    comparator, and the emitted CSV is byte for byte the same."""
    cover = FineCover(entries)
    points, radii = ref_cover(entries)
    assert [p.exact for p in cover.points] == [p.exact for p in points]
    assert dict(cover.entries()) == radii
    assert _swept(_sweep(cover)) == _ref_swept(ref_sweep(points, radii))
    assert uncovered_witness(cover) == ref_sweep(points, radii)[1]
    assert cover_csv(cover) == ref_cover_csv(points, radii)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CENTRES, min_size=1, max_size=12).flatmap(lambda vs: st.permutations(vs + vs[: len(vs) // 2])))
def test_mixed_points_sort_stably_by_their_reference_values(values):
    """Rational and quadratic points, some of equal value but built apart,
    are put in the order a stable sort by their quad_ref values gives."""
    points = [_point(v) for v in values]
    key = covers._value_key([(p.num, p.den) for p in points])
    got = sorted(points, key=lambda p: key((p.num, p.den)))
    assert [id(p) for p in got] == [id(p) for p in sorted(points, key=ref_value_key)]


@st.composite
def _cylinder_entries(draw):
    """The cylinders of a depth-k grid, some dropped, of radius 2^-k or the
    non-dyadic 4/(3 2^k) (1/3 at k = 2), and drawn balls whose radii run
    from 1/1000 to 2, past 1."""
    k = draw(st.integers(0, 5))
    grid_r = draw(st.sampled_from([F(1, 1 << k), F(4, 3 << k)]))
    dropped = draw(st.sets(st.integers(0, (1 << k) - 1), max_size=3))
    entries = [
        (CantorPoint.from_pattern(format(i, f"0{k}b") if k else "", draw(st.sampled_from(["0", "1", "01"]))), grid_r)
        for i in range(1 << k)
        if i not in dropped
    ]
    radius = st.sampled_from([F(1, 3), F(1), F(2), F(5, 3), F(1, 2), F(3, 4), F(3, 16), F(1, 1000)])
    point = st.builds(CantorPoint.from_pattern, st.text(alphabet="01", max_size=7), st.sampled_from(["0", "1", "01", "110"]))
    entries += draw(st.lists(st.tuples(point, radius), min_size=0 if entries else 1, max_size=6))
    return entries


@settings(max_examples=300, deadline=None)
@given(entries=_cylinder_entries())
def test_cantor_witness_matches_the_cylinder_walk(entries):
    cover = FineCover(entries)
    assert uncovered_witness(cover) == ref_cantor_witness(cover.points, dict(cover.entries()))


def test_cantor_witness_with_and_without_a_gap():
    grid = [(CantorPoint.from_pattern(format(i, "03b"), "0"), F(1, 7)) for i in range(8)]
    full, gappy = FineCover(grid), FineCover(grid[:5] + grid[6:])
    assert uncovered_witness(full) is None is ref_cantor_witness(full.points, dict(full.entries()))
    want = CantorPoint.from_pattern("101", "0")
    assert uncovered_witness(gappy) == want == ref_cantor_witness(gappy.points, dict(gappy.entries()))


def _is_prime(n):
    """Miller-Rabin with the first twelve primes as bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_after(n, count):
    out = []
    while len(out) < count:
        n += 1
        if _is_prime(n):
            out.append(n)
    return out


def _prime_cover(skip=()):
    """64 balls, ball i centred near (2i+1)/128 over one ~60-bit prime and
    of radius near 3/256 over another, all 128 primes distinct; neighbours
    overlap, so the cover has a gap only where balls are skipped."""
    primes = _primes_after(1 << 59, 128)
    balls = []
    for i in range(64):
        if i in skip:
            continue
        p, q = primes[2 * i], primes[2 * i + 1]
        balls.append((up(F((2 * i + 1) * p // 128, p)), F(3 * q // 256 + 1, q)))
    return FineCover(balls)


def test_conversion_over_sixty_bit_prime_denominators():
    """Rows keep their own denominators: each stays the lcm of one centre's
    and one radius's, however many balls the cover has."""
    cover = _prime_cover()
    assert uncovered_witness(cover) is None is _ref_witness(cover)
    assert cover_to_partition(cover) == _ref_cover_to_partition(cover)
    assert minimize_cover(cover).entries() == _ref_minimize(cover).entries()
    kept, _ = _sweep(cover)
    assert len(kept) == 64
    assert max(row[2].bit_length() for row in kept) <= 2 * 60

    gappy = _prime_cover(skip={20, 41})
    witness = uncovered_witness(gappy)
    assert witness is not None and witness == _ref_witness(gappy)
    assert F(39, 128) < witness < F(43, 128)
    with pytest.raises(NotACover, match="input does not cover"):
        cover_to_partition(gappy)


def test_a_kept_ball_centred_outside_the_interval_is_not_a_cover():
    cover = FineCover([(up(F(-1, 8)), F(1, 2)), (up(F(1, 2)), F(1, 2))])
    assert uncovered_witness(cover) is None
    with pytest.raises(NotACover, match="ball centred at -1/8 outside"):
        cover_to_partition(cover)


def test_two_quad_balls_touching_at_an_irrational_point_are_not_a_cover():
    # [sqrt2/2 - 1, sqrt2/2] and [sqrt2/2, sqrt2/2 + 1/2] share only the end
    # sqrt2/2, so no rational cut fits between the two tags
    cover = FineCover([(quad(F(-1, 2), F(1, 2)), F(1, 2)), (quad(F(1, 4), F(1, 2)), F(1, 4))])
    assert uncovered_witness(cover) is None
    with pytest.raises(NotACover) as err:
        cover_to_partition(cover)
    assert str(err.value) == "overlap degenerates to the irrational point 0 + 1/2*sqrt2"


def _conversion_outcome(convert, cover):
    try:
        got = convert(cover)
    except (NotACover, MalformedPartition) as e:
        return type(e), str(e)
    return got.entries() if isinstance(got, FineCover) else got


def test_balls_centred_outside_the_interval_that_miss_it_are_skipped():
    """Balls disjoint from [0,1], or touching it only at 0 or at 1."""
    for r, far in (
        (F(1), (F(19, 10), F(1, 20))),
        (F(1), (F(-1), F(1, 2))),
        (F(1, 2), (F(-1, 4), F(1, 4))),
        (F(1, 2), (F(5, 4), F(1, 4))),
    ):
        cover = FineCover([(up(F(1, 2)), r), (up(far[0]), far[1])])
        assert uncovered_witness(cover) is None
        assert minimize_cover(cover).entries() == [(up(F(1, 2)), r)]
        assert cover_to_partition(cover) == TaggedPartition((F(0), F(1)), (up(F(1, 2)),))


@settings(max_examples=50, deadline=None)
@given(
    cover=_unit_covers(),
    far=st.one_of(st.fractions(-1, F(-1, 2), max_denominator=16), st.fractions(F(3, 2), 2, max_denominator=16)),
    share=st.fractions(F(1, 64), F(1), max_denominator=64),
)
def test_a_ball_that_misses_the_interval_changes_no_conversion(cover, far, share):
    """Adding a ball disjoint from [0,1], or touching it only at an endpoint
    (its radius a share of its centre's distance to [0,1], share 1 touching),
    leaves the witness, minimize_cover and cover_to_partition as they were,
    errors included."""
    reach = -far if far < 0 else far - 1
    wider = FineCover(cover.entries() + [(up(far), reach * share)])
    assert uncovered_witness(wider) == uncovered_witness(cover)
    for convert in (minimize_cover, cover_to_partition):
        assert _conversion_outcome(convert, wider) == _conversion_outcome(convert, cover)


# -- round trips ---------------------------------------------------------


def _piecewise_const_gauge(rng):
    """Random dyadic-breakpoint step gauge with values in [1/8, 1]."""
    k = rng.randrange(1, 4)
    cuts = sorted(rng.sample([F(i, 16) for i in range(1, 16)], k))
    cuts = [F(0)] + cuts + [F(1)]
    vals = [F(rng.randrange(2, 17), 16) for _ in range(len(cuts) - 1)]

    def f(x):
        for i in range(len(vals)):
            if cuts[i] <= x < cuts[i + 1]:
                return vals[i]
        return vals[-1]

    def at(p: UnitPoint, stage: int) -> tuple:
        return rt_point(f(p.exact_value()))

    return DirectCode(at, domain="unit", label="step"), min(vals)


def test_round_trip_partition_cover_partition():
    rng = random.Random(7)
    for _ in range(25):
        g, m = _piecewise_const_gauge(rng)
        g2 = scale_code(g, 2)

        # partition with cells thinner than the gauge minimum
        n = 16 if m > F(1, 16) else 32
        cuts = tuple(F(i, n) for i in range(n + 1))
        tags = tuple(up(F(2 * i + 1, 2 * n)) for i in range(n))
        t = TaggedPartition(cuts, tags)
        assert verify_partition(g, t, STAGE) is Verdict.YES
        c = partition_to_cover(t)
        assert verify_cover(g2, c, STAGE) is Verdict.YES

        # cover from the search, back to a partition, against the doubled gauge
        cov = find_cover_unit(g, depth=8, stage=STAGE)
        assert isinstance(cov, FineCover)
        assert verify_cover(g, cov, STAGE) is Verdict.YES
        back = cover_to_partition(cov)
        assert verify_partition(g2, back, STAGE) is Verdict.YES


# -- unit search ---------------------------------------------------------


def test_find_cover_unit_const_quarter_frozen():
    c = find_cover_unit(const("1/4"), depth=8, stage=STAGE)
    assert isinstance(c, FineCover)
    assert len(c) == 8
    assert all(r == F(1, 8) for _, r in c.entries())
    assert [p.exact_value() for p, _ in c.entries()] == [F(2 * i + 1, 16) for i in range(8)]
    assert verify_cover(const("1/4"), c, STAGE) is Verdict.YES


def test_find_cover_unit_big_gauge_single_cell():
    c = find_cover_unit(const(2), depth=4, stage=STAGE)
    assert isinstance(c, FineCover)
    assert c.entries() == [(up("1/2"), F(1))]


def test_find_cover_unit_obstruction_whole_interval():
    r = find_cover_unit(const("1/8"), depth=2, stage=STAGE)
    assert isinstance(r, Obstruction)
    assert r.depth_reached == 2
    assert r.space == "unit"
    assert list(r.unresolved) == [Interval(F(0), F(1))]
    assert r.stage == STAGE


def test_find_cover_unit_obstruction_localizes():
    g = ContinuousCode(kernel_dist([F(1, 3)]))
    r = find_cover_unit(g, depth=6, stage=STAGE)
    assert isinstance(r, Obstruction)
    total = sum(iv.width for iv in r.unresolved)
    assert total <= F(1, 8)
    assert any(iv.lo <= F(1, 3) <= iv.hi for iv in r.unresolved)

    deeper = find_cover_unit(g, depth=10, stage=STAGE)
    assert sum(iv.width for iv in deeper.unresolved) < total


def test_find_cover_unit_quad_hint():
    target = (F(0), F(1, 2))  # sqrt(2)/2, interior to [1/2, 3/4]

    def at(p: UnitPoint, stage: int) -> tuple:
        if p.is_exact and p.exact_value() == target:
            return 1, 1, 1
        return 1, 1, 64

    g = DirectCode(at, domain="unit", label="spike")
    miss = find_cover_unit(g, depth=2, stage=STAGE)
    assert isinstance(miss, Obstruction)
    assert list(miss.unresolved) == [Interval(F(0), F(1))]

    hit = find_cover_unit(g, depth=2, stage=STAGE, hints=[quad(*target)])
    assert isinstance(hit, Obstruction)
    # the spike value 1 beats the width of [1/2, 1] already at level 1
    assert list(hit.unresolved) == [Interval(F(0), F(1, 2))]


_CONSTS = st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 8, 16]))
_EXPRS = st.recursive(
    st.just("x") | _CONSTS,
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: f"({t[0]} + {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"min({t[0]}, {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"max({t[0]}, {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"|{t[0]} - {t[1]}|"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]}) * ({t[1]})"),
        sub.map(lambda e: f"({e}) / 3"),
        st.tuples(_CONSTS, _CONSTS).map(lambda t: f"dist({t[0]}, {t[1]})"),
    ),
    max_leaves=6,
)
_GAUGES = st.one_of(_EXPRS, st.tuples(_EXPRS, st.integers(1, 6)).map(lambda t: f"|{t[0]}| + 2^-{t[1]}"))
# limit bodies in n: terms that fall to their limit, or rise to it
_BODIES = st.one_of(
    st.tuples(_EXPRS, st.integers(0, 4)).map(lambda t: f"{t[0]} + 2^-(n+{t[1]})"),
    _EXPRS.map(lambda e: f"({e}) * (1 - 2^-n)"),
    st.tuples(_EXPRS, _EXPRS, st.integers(0, 4)).map(lambda t: f"min({t[0]} + 2^-(n+{t[2]}), ({t[1]}) * (1 - 2^-n))"),
)
_BAIRE1 = _BODIES.map(lambda b: f"baire1(n -> {b})")
_BAIRE2 = st.tuples(_BODIES, st.integers(0, 4)).map(lambda t: f"baire2(n -> baire1(k -> {t[0]} + 2^-(k+{t[1]})))")


def _point_only(g):
    """The same region kernel, reachable only through sample points: a
    direct code, which the search never bounds on whole cells. A sequence
    point is evaluated on the cell of its depth-s cylinder."""
    if g.domain == "cantor":
        return DirectCode(lambda x, s: g.kernel(rt_cell(x.index(s), s), s), domain="cantor")
    return DirectCode(lambda x, s: g.kernel(rt_intersect(rt_of(x.approx(s)), (0, 1, 1)), s), domain="unit")


def _ref_find_cover_unit(g, depth, stage, hints=()):
    """The sample-only walk of find_cover_unit as it was first written: a
    fresh from_rat point per sample, in-cell hints by a scan of every hint,
    and no region bound."""
    hints = sorted(hints, key=ref_value_key)
    entries, frontier = [], [0]
    for level in range(depth + 1):
        w = pow2(-level)
        survivors = []
        for i in frontier:
            a, b = F(i, 1 << level), F(i + 1, 1 << level)
            in_cell = [h for h in hints if ref_cmp(ref_value(h), (a, 0)) >= 0 and ref_cmp(ref_value(h), (b, 0)) <= 0]
            cands = in_cell + [c for c in map(up, (F(2 * i + 1, 2 << level), a, b)) if c not in in_cell]
            for m in cands:
                if verified_above(g, m, w, stage) is Verdict.YES:
                    entries.append((m, w))
                    break
            else:
                survivors.append(i)
        if not survivors:
            return FineCover(entries)
        if level == depth:
            return Obstruction(tuple(dyadic_runs(survivors, level)), stage, depth, "unit")
        frontier = [c for i in survivors for c in (2 * i, 2 * i + 1)]


def _assert_same_search(pruned, ref):
    assert type(pruned) is type(ref)
    if isinstance(ref, FineCover):
        assert pruned.entries() == ref.entries()
    else:
        assert pruned.unresolved == ref.unresolved


@settings(max_examples=80, deadline=None)
@given(
    _GAUGES,
    st.integers(1, 7),
    st.sampled_from([1, 3, 8]),
    st.lists(st.integers(0, 16), max_size=3),
)
def test_find_cover_unit_pruning_matches_point_only_search(text, depth, stage, hint_nums):
    hints = [up(F(n, 16)) for n in hint_nums]
    pruned = find_cover_unit(parse_gauge(text), depth, stage, hints=hints)
    ref = find_cover_unit(_point_only(parse_gauge(text)), depth, stage, hints=hints)
    _assert_same_search(pruned, ref)
    _assert_same_search(ref, _ref_find_cover_unit(_point_only(parse_gauge(text)), depth, stage, hints))
    # the sequence side: the phi pullback, hinted at the hints' binary expansions
    hints = [
        CantorPoint.from_pattern(format(n, "04b"), "0") if n < 16 else CantorPoint.from_pattern("", "1")
        for n in hint_nums
    ]
    pruned = find_cover_cantor(pullback_gauge_phi(parse_gauge(text)), depth, stage, hints=hints)
    ref = find_cover_cantor(_point_only(pullback_gauge_phi(parse_gauge(text))), depth, stage, hints=hints)
    _assert_same_search(pruned, ref)


@pytest.mark.parametrize("eps", [F(1, 4), F(1, 8), F(3, 32), F(1, 32)])
def test_find_cover_unit_samples_match_the_fresh_point_walk_on_direct_codes(eps):
    """The sqrt-reciprocal family at its search depth, halved as integrate
    halves it, and dirichlet with and without its irrational hints. The
    reference walk ignores the region kernel, so it stays the reference."""
    sqrt_fam = builtin_integrands()["sqrt-reciprocal"][1]
    depth = default_depth("sqrt-reciprocal", eps)
    got = find_cover_unit(scale_code(sqrt_fam(eps), F(1, 2)), depth, STAGE)
    assert isinstance(got, FineCover)
    _assert_same_search(got, _ref_find_cover_unit(scale_code(sqrt_fam(eps), F(1, 2)), depth, STAGE))
    dirichlet = builtin_integrands()["dirichlet"][1]
    for hints in ((), dirichlet_hints(), dirichlet_hints(3)):
        got = find_cover_unit(dirichlet(eps), 5, STAGE, hints=hints)
        _assert_same_search(got, _ref_find_cover_unit(dirichlet(eps), 5, STAGE, hints))


_HINTS = st.one_of(
    # cell ends at every level, 0 and 1 among them
    st.integers(0, 6).flatmap(lambda k: st.integers(0, 1 << k).map(lambda n: up(F(n, 1 << k)))),
    st.fractions(0, 1, max_denominator=40).map(up),
    st.builds(
        quad,
        st.fractions(F(1, 4), F(3, 4), max_denominator=8),
        st.fractions(F(-1, 8), F(1, 8), max_denominator=16).filter(bool),
    ),
)


@settings(max_examples=60, deadline=None)
@given(_GAUGES, st.integers(1, 6), st.sampled_from([1, 3, 8]), st.lists(_HINTS, max_size=4))
def test_find_cover_unit_samples_match_the_fresh_point_walk_with_hints(text, depth, stage, hints):
    """Hints on dyadic cell ends (repeated ones too), off the grid and
    quadratic, for the bounded search and for its point-only twin."""
    want = _ref_find_cover_unit(_point_only(parse_gauge(text)), depth, stage, hints)
    _assert_same_search(find_cover_unit(parse_gauge(text), depth, stage, hints=hints), want)
    _assert_same_search(find_cover_unit(_point_only(parse_gauge(text)), depth, stage, hints=hints), want)


def _queried(monkeypatch, name):
    """The points a search asks `name` about, in order."""
    asked = []
    inner = getattr(covers, name)

    def counting(g, x, q, stage):
        asked.append(x)
        return inner(g, x, q, stage)

    monkeypatch.setattr(covers, name, counting)
    return asked


def test_a_region_accepted_cell_still_asks_its_quadratic_first_sample(monkeypatch):
    """The cell [1/8, 1/4] has the region [5/32, 3/16] above its width
    1/8, and its first sample is a quadratic hint just above 1/8. At stage
    1 that hint's query box reaches below 3/32, so its verdict is Unknown
    and the midpoint 3/16 is accepted on the region, without a verdict. At
    stage 8 the box is narrow and the hint itself gets the Yes."""
    text = "min(x + 1/32, 3/16)"
    hint = quad(F(-257, 200), F(1))  # 1/8 + (sqrt2 - 141/100)
    asked = _queried(monkeypatch, "verified_above")
    got = find_cover_unit(parse_gauge(text), 4, 1, hints=[hint])
    assert hint in asked and up(F(3, 16)) not in asked
    assert [p.exact_value() for p, _ in got.entries()] == [F(1, 8)] + [F(2 * i + 1, 16) for i in range(1, 8)]
    _assert_same_search(got, _ref_find_cover_unit(_point_only(parse_gauge(text)), 4, 1, [hint]))
    got = find_cover_unit(parse_gauge(text), 4, 8, hints=[hint])
    assert (hint, F(1, 8)) in got.entries()
    _assert_same_search(got, _ref_find_cover_unit(_point_only(parse_gauge(text)), 4, 8, [hint]))


def test_a_rational_hint_at_a_cell_end_serves_both_neighbours(monkeypatch):
    """The hint 1/8 is the first sample of [0, 1/8], whose verdict accepts
    it, and of [1/8, 1/4], whose region [3/16, 1/4] accepts it unasked."""
    asked = _queried(monkeypatch, "verified_above")
    got = find_cover_unit(parse_gauge("x/2 + 1/8"), 4, STAGE, hints=[up(F(1, 8))])
    assert got.entries() == [(up(F(1, 8)), F(1, 8)), (up(F(3, 8)), F(1, 4)), (up(1), F(1, 2))]
    assert asked.count(up(F(1, 8))) == 1
    _assert_same_search(got, _ref_find_cover_unit(_point_only(parse_gauge("x/2 + 1/8")), 4, STAGE, [up(F(1, 8))]))


@pytest.mark.parametrize("text", ["x/2 + 1/64", "|x - 1/3| + 1/64"])
@pytest.mark.parametrize("stage", [1, 2, 3])
def test_a_cantor_search_deeper_than_its_stage_asks_every_cylinder_past_it(monkeypatch, text, stage):
    """Past level `stage` a sample's query reads its depth-`stage`
    cylinder, which is wider than the cell, so a cell there is accepted
    only on a verdict, even when the region's lower end passes."""
    g = pullback_gauge_phi(parse_gauge(text))
    asked = _queried(monkeypatch, "verified_at_least")
    got = find_cover_cantor(g, 9, stage)
    want = _ref_find_cover_cantor(_point_only(pullback_gauge_phi(parse_gauge(text))), 9, stage, [])
    assert isinstance(want, FineCover) and got.entries() == want.entries()
    deep = [(p, r) for p, r in got.entries() if r < pow2(-stage)]
    assert deep and all(p in asked for p, _ in deep)

    def lower_end_passes(p, r):
        level = r.denominator.bit_length() - 1
        lo, _, d = g.region(rt_cell(p.index(level), level), stage)
        return F(lo, d) >= r

    assert any(lower_end_passes(p, r) for p, r in deep)


def test_an_inherited_lower_end_past_the_stage_still_asks_the_cylinder(monkeypatch):
    """x/2 pulled back, at stage 1. The cylinder [01] has the region
    [1/8, 1/4], whose lower end fails its width 1/4 and passes the width
    1/8 of its children [010] and [011]. They inherit it at level 3, past
    the stage, where a sample's query reads its depth-1 cylinder [0], whose
    enclosure [0, 1/4] decides nothing. So they are asked, not accepted,
    and are not bounded again: the left half stays unresolved, as in the
    sample-only walk."""
    kernel, cells = parse_gauge("x/2").kernel, []

    def counting(r, k):
        if r[2] > 2:  # a search cell; a query at stage 1 reads a depth-1 one
            cells.append(r)
        return kernel(r, k)

    g = ContinuousCode(counting, domain="cantor")
    asked = _queried(monkeypatch, "verified_at_least")
    got = find_cover_cantor(g, 6, 1)
    want = _ref_find_cover_cantor(_point_only(ContinuousCode(kernel, domain="cantor")), 6, 1, [])
    assert isinstance(got, Obstruction) and got.unresolved == tuple(Cylinder(i, 6) for i in want.unresolved)
    assert got.unresolved == tuple(Cylinder(i, 6) for i in range(32))
    lo, _, d = kernel(rt_cell(1, 2), 1)
    assert F(lo, d) == F(1, 8) and rt_cell(1, 2) in cells
    for i in (2, 3):
        assert rt_cell(i, 3) not in cells
        assert CantorPoint.from_pattern(Cylinder(i, 3).prefix, "0") in asked


def _counting_region(region):
    """region, counting its calls in the returned list."""
    calls = []

    def counting(r, k):
        calls.append(r)
        return region(r, k)

    return counting, calls


def test_an_inherited_lower_end_accepts_without_a_region_evaluation():
    """The halved identity gauge at eps = 1/512 is the constant 1/2048. Its
    one region evaluation, at the root, hands both ends down; the lower
    end passes at level 12, where all 4,096 cells take their midpoints.
    The halved sqrt-reciprocal gauge at eps = 1/64 evaluates its region on
    at most 2,045 cells. Both covers are those of the sample-only walk."""
    eps = F(1, 512)
    kernel, calls = _counting_region(builtin_integrands()["identity"][1](eps).kernel)
    got = find_cover_unit(scale_code(ContinuousCode(kernel), F(1, 2)), default_depth("identity", eps), STAGE)
    assert len(calls) == 1 and len(got) == 4096
    assert [p for p, _ in got.entries()] == [up(F(2 * i + 1, 8192)) for i in range(4096)]

    eps = F(1, 64)
    g = builtin_integrands()["sqrt-reciprocal"][1](eps)
    region, calls = _counting_region(g.region)
    depth = default_depth("sqrt-reciprocal", eps)
    got = find_cover_unit(scale_code(DirectCode(g.kernel, region=region), F(1, 2)), depth, 16)
    assert 0 < len(calls) <= 2045
    _assert_same_search(got, _ref_find_cover_unit(scale_code(g, F(1, 2)), depth, 16))


def test_a_pulled_back_direct_code_is_bounded_on_cylinders(monkeypatch):
    """The gap gauge under its modulus is a direct code with a region, and
    its pullback keeps the region, since a cylinder's triple is the cell
    phi maps it onto. Its search asks 25 verdicts, against 55 for the same
    kernel with no region, and both leave the one cylinder 9248 at depth
    14 unresolved."""
    g = pullback_gauge_phi(cauchy_gap_gauge(default_cauchy_spec()))
    asked = _queried(monkeypatch, "verified_at_least")
    got = find_cover_cantor(g, 14, 16)
    bounded = len(asked)
    want = find_cover_cantor(DirectCode(g.kernel, domain="cantor"), 14, 16)
    assert (bounded, len(asked) - bounded) == (25, 55)
    assert got.unresolved == want.unresolved == (Cylinder(9248, 14),)


_HALF = {
    "continuous": lambda: const(F(1, 2)),
    "direct": lambda: DirectCode(lambda x, s: rt_point(F(1, 2)), region=lambda r, s: rt_point(F(1, 2))),
    "modulus": lambda: modulus_limit(lambda n: const(F(1, 2)), lambda j: j),
    "baire1": lambda: Baire1Code(lambda n: const(F(1, 2))),
    "baire2": lambda: Baire2Code(lambda m: Baire1Code(lambda n: const(F(1, 2)))),
}


@pytest.mark.parametrize("kind", _HALF)
@pytest.mark.parametrize("space", ["unit", "cantor"])
def test_a_negative_stage_is_rejected_by_every_verdict_and_search(kind, space):
    """The gauge 1/2 as every code kind, in both spaces: stage -1 raises,
    also where a region would accept every cell without a verdict."""
    g, x, search = _HALF[kind](), up(F(1, 3)), find_cover_unit
    if space == "cantor":
        g, x, search = pullback_gauge_phi(g), CantorPoint.from_pattern("", "01"), find_cover_cantor
    calls = [
        lambda: eval_enclosure(g, x, -1),
        lambda: verified_above(g, x, F(1, 3), -1),
        lambda: verified_at_least(g, x, F(1, 3), -1),
        lambda: search(g, 2, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="stage must be >= 0"):
            call()


def _code_on(kind: str, space: str):
    """The code `kind` on `space`: the gauge 1/2 as each kind of `_HALF`, a
    direct code that answers 1 wherever it is asked, the pin and psi
    gauges, and a Dirichlet gauge."""
    if kind == "one":
        return DirectCode(lambda x, s: (1, 1, 1), domain=space)
    if kind == "pin":
        return oracle_pin_gauge(OracleSpec(CantorPoint.from_pattern("", "01")))
    if kind == "psi":
        return transfer_gauge_psi(continuous_const(F(1, 2), domain="cantor"))
    if kind == "dirichlet":
        return dirichlet_gauge_family()(F(1, 2))
    g = _HALF[kind]()
    return pullback_gauge_phi(g) if space == "cantor" else g


@pytest.mark.parametrize(
    "kind, space",
    [(kind, space) for kind in [*_HALF, "one"] for space in ("unit", "cantor")]
    + [("pin", "cantor"), ("psi", "unit"), ("dirichlet", "unit")],
)
def test_every_code_kind_rejects_the_other_space(kind, space):
    """A point, a cover (whole or with a gap) or a partition of the other
    space is a DomainError for every query and check, whatever the kernel
    would answer there: a code answers only on its own space."""
    g = _code_on(kind, space)
    if space == "unit":
        x, other = CantorPoint.from_pattern("", "01"), "cantor"
        whole = FineCover([(CantorPoint.from_pattern("", "0"), 1)])
        gappy = FineCover([(CantorPoint.from_pattern("0", "0"), F(1, 2))])
    else:
        x, other = up(F(1, 3)), "unit"
        whole, gappy = FineCover([(up(F(1, 2)), F(1, 2))]), FineCover([(up(F(1, 4)), F(1, 8))])
    name = "unit-interval" if space == "unit" else "sequence-space"
    at_x = f"^{name} code evaluated at "
    calls = [
        (at_x, lambda: eval_enclosure(g, x, STAGE)),
        (at_x, lambda: verified_above(g, x, F(1, 4), STAGE)),
        (at_x, lambda: verified_at_least(g, x, F(1, 4), STAGE)),
        (at_x, lambda: check_fineness(g, [(x, 1, 4), (x, 1, 4)], STAGE)),
        (f"^cover is on {other}, gauge on {space}$", lambda: verify_cover(g, whole, STAGE)),
        (f"^cover is on {other}, gauge on {space}$", lambda: verify_cover(g, gappy, STAGE)),
    ]
    if space == "cantor":
        calls.append((at_x, lambda: verify_partition(g, TaggedPartition([0, 1], [up(F(1, 2))]), STAGE)))
    for message, call in calls:
        with pytest.raises(DomainError, match=message):
            call()


@pytest.mark.parametrize("convert", [minimize_cover, cover_to_partition])
def test_a_sequence_space_cover_is_refused_by_the_conversion_asked(convert):
    with pytest.raises(ValueError, match=f"^{convert.__name__} works on unit-interval covers$"):
        convert(FineCover([(CantorPoint.from_pattern("", "0"), 1)]))


def test_find_cover_cantor_prunes_cylinders_below_the_width():
    # the bound 1/8 rules out levels 0..2 without a sample, and each
    # level-3 cylinder accepts its first sample on the region's lower end,
    # without a point query
    g = continuous_const(F(1, 8), domain="cantor")
    c = find_cover_cantor(g, depth=3, stage=STAGE)
    assert isinstance(c, FineCover)
    assert c.entries() == [(CantorPoint.from_pattern(format(i, "03b"), "0"), F(1, 8)) for i in range(8)]
    assert len(g._acc) == 0


@pytest.mark.parametrize(
    "search, domain, hint",
    [
        (find_cover_cantor, "cantor", UnitPoint.from_rat(F(1, 2))),
        (find_cover_unit, "unit", CantorPoint.from_pattern("", "01")),
        (find_cover_unit, "unit", UnitPoint.from_fn(lambda k: Interval(F(1, 3), F(1, 3)))),
        (find_cover_cantor, "cantor", CantorPoint(lambda i: i % 2)),
    ],
)
def test_search_rejects_hints_from_the_wrong_space(search, domain, hint):
    with pytest.raises(ValueError, match="hints must be exact points"):
        search(continuous_const(F(1, 2), domain=domain), 3, STAGE, hints=[hint])


@pytest.mark.parametrize("search, domain", [(find_cover_cantor, "unit"), (find_cover_unit, "cantor")])
def test_search_rejects_a_code_from_the_other_space(search, domain):
    with pytest.raises(DomainError):
        search(continuous_const(F(1, 2), domain=domain), 1, STAGE)


# -- cantor search -------------------------------------------------------


def test_find_cover_cantor_half_frozen():
    g = continuous_const(F(1, 2), domain="cantor")
    c = find_cover_cantor(g, depth=4, stage=STAGE)
    assert isinstance(c, FineCover)
    assert [(p.pattern, r) for p, r in c.entries()] == [
        (("", "0"), F(1, 2)),
        (("1", "0"), F(1, 2)),
    ]
    assert verify_cover(g, c, STAGE) is Verdict.YES


def test_find_cover_cantor_one_root_frozen():
    g = continuous_const(F(1), domain="cantor")
    c = find_cover_cantor(g, depth=4, stage=STAGE)
    assert isinstance(c, FineCover)
    assert c.entries() == [(CantorPoint.from_pattern("", "0"), F(1))]


def test_find_cover_cantor_obstruction():
    g = continuous_const(F(1, 8), domain="cantor")
    r = find_cover_cantor(g, depth=2, stage=STAGE)
    assert isinstance(r, Obstruction)
    assert [cyl.prefix for cyl in r.unresolved] == ["00", "01", "10", "11"]
    assert r.depth_reached == 2
    assert r.stage == STAGE


def test_find_cover_cantor_hint_first():
    z = CantorPoint.from_pattern("01", "10")

    def at(p: CantorPoint, stage: int) -> tuple:
        return (1, 1, 1) if p == z else (1, 1, 4)

    g = DirectCode(at, domain="cantor", label="pin")
    c = find_cover_cantor(g, depth=4, stage=STAGE, hints=[z])
    assert isinstance(c, FineCover)
    assert c.entries() == [(z, F(1))]
    blind = find_cover_cantor(g, depth=4, stage=STAGE)
    assert len(blind) == 4  # without the hint it must go to width 1/4


def _ref_find_cover_cantor(g, depth, stage, hints):
    """The sample-only walk of find_cover_cantor with in-cylinder hints
    found by a scan of every hint, in the search's hint order."""
    hints = sorted(hints, key=lambda h: (h.index(48), h.pattern))
    entries, frontier = [], [0]
    for level in range(depth + 1):
        survivors = []
        for i in frontier:
            in_cell = [h for h in hints if h.index(level) == i]
            prefix = format(i, f"0{level}b") if level else ""
            tails = [CantorPoint.from_pattern(prefix, t) for t in "01"]
            for m in in_cell + [c for c in tails if c not in in_cell]:
                if verified_at_least(g, m, pow2(-level), stage) is Verdict.YES:
                    entries.append((m, pow2(-level)))
                    break
            else:
                survivors.append(i)
        if not survivors:
            return FineCover(entries)
        if level == depth:
            return Obstruction(tuple(survivors), stage, depth, "cantor")
        frontier = [c for i in survivors for c in (2 * i, 2 * i + 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.text("01", min_size=1, max_size=3),
    st.integers(40, 60),
    st.integers(-2, 3),
    st.lists(st.tuples(st.integers(0, 64), st.text("01", max_size=6), st.text("01", min_size=1, max_size=3)), max_size=12),
)
def test_find_cover_cantor_hints_by_bisection_match_the_scan(period, cap, extra, spec):
    """A gauge 2^-(n+1), n the agreement with a pinned point Z capped at
    `cap`, accepts the cylinders off Z's path at once and Z's own only
    past `cap`, so the search runs past depth 48. Hint m agrees with Z on
    exactly m bits, up to 64; at hints with an even period the gauge is 4
    times smaller, so they fall through to the next sample."""
    z = CantorPoint.from_pattern("", period)
    hints = [z] + [CantorPoint.from_pattern(z.bits(m) + "10"[int(z.bits(m + 1)[m])] + tail, per) for m, tail, per in spec]

    def at(x: CantorPoint, stage: int) -> tuple:
        n = next((k for k, (a, b) in enumerate(zip(x.bits(cap), z.bits(cap))) if a != b), cap)
        return 1, 1, 1 << (n + 1 + 2 * (x in hints and len(x.pattern[1]) % 2 == 0))

    g = DirectCode(at, domain="cantor", label="pinned")
    depth = cap + extra
    got = find_cover_cantor(g, depth, STAGE, hints=hints)
    want = _ref_find_cover_cantor(g, depth, STAGE, hints)
    assert type(got) is type(want)
    if isinstance(want, FineCover):
        assert got.entries() == want.entries()
    else:
        assert [cyl.index for cyl in got.unresolved] == list(want.unresolved)


# -- transfers -----------------------------------------------------------


def test_transfer_cover_phi_frozen():
    zero = CantorPoint.from_pattern("0", "0")
    one = CantorPoint.from_pattern("1", "0")
    c = FineCover([(zero, F(3, 4)), (one, F(3, 4))])
    pushed = transfer_cover_phi(c)
    assert [(p.exact_value(), r) for p, r in pushed.entries()] == [
        (F(0), F(3, 4)),
        (F(1, 2), F(3, 4)),
    ]


def test_transfer_cover_psi_on_set_points():
    c = FineCover([(up("2/3"), F(1, 9)), (up("1/3"), F(1, 3))])
    back = transfer_cover_psi(c)
    got = {(p.pattern, r) for p, r in back.entries()}
    # 2/3 lifts to 100... with one agreed bit; 1/3 lifts to 0111... at the root
    assert (("1", "0"), F(1, 2)) in got
    assert (("0", "1"), F(1)) in got


def test_transfer_cover_psi_drops_gap_balls():
    c = FineCover([(up("1/2"), F(1, 8)), (up("1/3"), F(1, 2))])
    back = transfer_cover_psi(c)
    assert len(back) == 1
    with pytest.raises(NotACover):
        transfer_cover_psi(FineCover([(up("1/2"), F(1, 8))]))


def test_transfer_cover_psi_drops_a_ball_right_of_the_interval():
    base = [(up("0"), F(1, 2)), (up("1"), F(1, 2))]
    # the ball of radius 1/4 at 3/2 lies wholly right of 1
    with_outside = transfer_cover_psi(FineCover(base + [(up("3/2"), F(1, 4))]))
    assert list(with_outside.entries()) == list(transfer_cover_psi(FineCover(base)).entries())


def test_transfer_cover_psi_anchors_off_set_ball():
    # 5/16 is off the set but its ball [1/4, 3/8] touches it at 1/4
    c = FineCover([(up("5/16"), F(1, 16)), (up("1/2"), F(3, 4))])
    back = transfer_cover_psi(c)
    got = {(p.pattern, r) for p, r in back.entries()}
    assert (("", "01"), F(1, 2)) in got  # anchored at 1/4 = 0.020202... base 3
    assert (("", "0"), F(1)) in got  # huge ball anchors at 0 and covers the root
    assert uncovered_witness(back) is None


def test_psi_pipeline_round_trip():
    # Dyadic samples all but never land on the middle-thirds set, so cells
    # around set points would stall without hints; seed the search with the
    # leftmost set point of every finest-level cell boundary.
    from finecover.spaces import leftmost_cantor_ge

    g = continuous_const(F(1, 4), domain="cantor")
    lifted = transfer_gauge_psi(g)
    hints = sorted({leftmost_cantor_ge(F(i, 256)) for i in range(257)})
    cov = find_cover_unit(
        lifted, depth=8, stage=STAGE, hints=[UnitPoint.from_rat(h) for h in hints]
    )
    assert isinstance(cov, FineCover)
    assert verify_cover(lifted, cov, STAGE) is Verdict.YES
    back = transfer_cover_psi(cov)
    assert verify_cover(g, back, STAGE) is Verdict.YES


def test_phi_pipeline_round_trip():
    from finecover.gauges import pullback_gauge_phi

    g = continuous_const(F(3, 16))
    pulled = pullback_gauge_phi(g)
    cc = find_cover_cantor(pulled, depth=6, stage=STAGE)
    assert isinstance(cc, FineCover)
    assert verify_cover(pulled, cc, STAGE) is Verdict.YES
    pushed = transfer_cover_phi(cc)
    assert verify_cover(g, pushed, STAGE) is Verdict.YES
