import cProfile
import csv
import fractions
import io
import json
import pstats
import tracemalloc
from fractions import Fraction as F

import pytest
from conftest import quad
from hypothesis import given, settings
from hypothesis import strategies as st
from read_ref import ref_cantor_cover, ref_cantor_witness, ref_cover, ref_cover_csv, ref_from_quad, ref_sweep

from finecover.covers import FineCover, MalformedPartition, TaggedPartition, uncovered_witness, verify_cover
from finecover.gallery import default_cauchy_spec, gap_limit_point, gap_obstruction_demo
from finecover.gauges import Verdict, pullback_gauge_phi, verified_at_least
from finecover.gaugespec import parse_gauge
from finecover.serialize import (
    cantor_str,
    cover_csv,
    obstruction_json,
    parse_cantor,
    parse_cover_csv,
    parse_partition_csv,
    parse_unit,
    partition_csv,
    unit_str,
)
from finecover.spaces import CantorPoint, UnitPoint, _norm_pattern


def test_cantor_round_trip():
    p = CantorPoint.from_pattern("0110", "01")
    s = cantor_str(p)
    assert s == "prefix=0110;period=01"
    assert parse_cantor(s) == p
    assert parse_cantor("prefix=;period=0") == CantorPoint.from_pattern("", "0")


@pytest.mark.parametrize("bad", ["prefix=01", "period=01", "prefix=2;period=0", "prefix=0;period="])
def test_cantor_rejects(bad):
    with pytest.raises(ValueError):
        parse_cantor(bad)


def test_unit_rat_and_quad_round_trip():
    p = UnitPoint.from_rat(F(3, 8))
    assert unit_str(p) == "rat:3/8"
    assert parse_unit("rat:3/8") == p
    q = quad(F(1, 4), F(1, 16))
    s = unit_str(q)
    assert s == "quad:1/4,1/16"
    assert parse_unit(s) == q


def test_a_quad_cell_with_no_sqrt2_part_reads_as_its_rational_point():
    """"quad:1/2,0" is the point "rat:1/2": one pair, one hash, one cover
    entry, and the same tag in a partition."""
    q, r = parse_unit("quad:1/2,0"), parse_unit("rat:1/2")
    assert q.is_rational and (q.num, q.den) == (r.num, r.den) == (1, 2)
    assert q == r and hash(q) == hash(r)
    cover = parse_cover_csv('point,radius\n"quad:1/2,0",1/4\nrat:1/2,1/2\n')
    assert cover.entries() == [(r, F(1, 2))]
    part = parse_partition_csv('lo,hi,tag\n0/1,1/2,"quad:1/4,0"\n1/2,1/1,rat:1/2\n')
    assert part.tags == (parse_unit("rat:1/4"), r)


def test_unit_approx_capped_at_recorded_precision():
    z = gap_limit_point()
    s = unit_str(z, prec=20)
    assert s.startswith("approx:[") and s.endswith("]@20")
    back = parse_unit(s)
    box20 = back.approx(20)
    assert box20.width <= F(1, 2**20)
    zbox = z.approx(30)
    assert box20.lo <= zbox.lo and zbox.hi <= box20.hi
    with pytest.raises(ValueError):
        back.approx(30)
    # a recorded point writes back at its own precision, below, at and above
    # the default 24, alone and as a partition tag
    for k in (10, 24, 30):
        tag = f"approx:[1/4,{F(1, 4) + F(1, 2**k)}]@{k}"
        assert unit_str(parse_unit(tag)) == tag
        assert unit_str(parse_unit(tag), prec=20) == tag
        text = f'lo,hi,tag\n0/1,1/2,"{tag}"\n1/2,1/1,rat:3/4\n'
        assert partition_csv(parse_partition_csv(text)) == text
        with pytest.raises(ValueError, match=f"point recorded at precision {k}, asked for {k + 1}"):
            parse_unit(tag).approx(k + 1)


def test_unit_rejects():
    with pytest.raises(ValueError):
        parse_unit("exact:1/2")
    with pytest.raises(ValueError):
        parse_unit("quad:1/2")
    with pytest.raises(ValueError):
        parse_unit("approx:[1/2,3/4]")


@pytest.mark.parametrize("prec", ["\u0661", "1_0", " 1_0 ", "+3", ""])
def test_unit_approx_precision_is_ascii_decimal(prec):
    # int() alone would read an Arabic-Indic one as 1 and "1_0" as 10
    with pytest.raises(ValueError, match=r"precision .* is not an ASCII decimal"):
        parse_unit(f"approx:[1/4,1/2]@{prec}")
    assert parse_unit("approx:[1/4,1/2]@2").approx(2).lo == F(1, 4)


def test_unit_approx_width_check_allocates_nothing_like_its_precision():
    # a box wider than 2^-k at a huge recorded k is refused on the width's
    # own integers, without building 2^k
    tag = "approx:[1/2,1073741825/2147483648]@100000000"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            unit_str(parse_unit(tag))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "approximant returned width 1/2147483648 > 2^-100000000"
    assert peak < 1 << 20
    assert unit_str(parse_unit("approx:[1/2,1/2]@100000000")) == "approx:[1/2,1/2]@100000000"
    for box, k, fits in (("0,1/8", 3, True), ("0,1/8", 4, False), ("0,3/16", 2, True), ("0,3/16", 3, False)):
        point = parse_unit(f"approx:[{box}]@{k}")
        if fits:
            assert point.approx(k).width <= F(1, 2**k)
        else:
            with pytest.raises(ValueError, match=r"approximant returned width .* > 2\^-"):
                point.approx(k)


def test_unit_cover_csv_round_trip():
    cover = FineCover(
        [
            (UnitPoint.from_rat(F(1, 4)), F(1, 2)),
            (quad(F(1, 2), F(1, 32)), F(1, 4)),
            (UnitPoint.from_rat(F(7, 8)), F(1, 2)),
        ]
    )
    text = cover_csv(cover)
    assert text.splitlines()[0] == "point,radius"
    back = parse_cover_csv(text)
    assert back.points == cover.points
    assert dict(back.entries()) == dict(cover.entries())
    assert cover_csv(back) == text


def test_cantor_cover_csv_round_trip():
    cover = FineCover(
        [
            (CantorPoint.from_pattern("", "0"), F(1, 2)),
            (CantorPoint.from_pattern("1", "0"), F(1, 2)),
        ]
    )
    back = parse_cover_csv(cover_csv(cover))
    assert back.space == "cantor"
    assert back.points == cover.points


def test_cover_csv_rejects():
    with pytest.raises(ValueError):
        parse_cover_csv("radius,point\n")
    with pytest.raises(ValueError) as err:
        parse_cover_csv("point,radius\nrat:1/2\n")
    assert "row 2" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_cover_csv("point,radius\nrat:1/2,1/4\nnonsense:0,1/4\n")
    assert "row 3" in str(err.value)


def test_partition_csv_round_trip():
    part = TaggedPartition(
        (F(0), F(1, 4), F(1, 2), F(1)),
        (
            UnitPoint.from_rat(F(1, 8)),
            quad(F(3, 8), F(1, 64)),
            UnitPoint.from_rat(F(3, 4)),
        ),
    )
    text = partition_csv(part)
    assert text.splitlines()[0] == "lo,hi,tag"
    back = parse_partition_csv(text)
    assert back.cuts == part.cuts
    assert back.tags == part.tags
    assert partition_csv(back) == text


def test_partition_cut_written_two_ways_parses():
    # a cell may start at the previous cut written another way; only the text is reused
    part = parse_partition_csv("lo,hi,tag\n0,1/2,rat:1/4\n2/4,3/4,rat:5/8\n0.75,1,rat:7/8\n")
    assert part.cuts == (F(0), F(1, 2), F(3, 4), F(1))
    with pytest.raises(MalformedPartition) as err:
        parse_partition_csv("lo,hi,tag\n0,1/2,rat:1/4\n1/2,3/4,rat:5/8\n3/5,1,rat:7/8\n")
    assert str(err.value) == "row 4: cell starts at 3/5, previous ended at 3/4"


def test_partition_csv_needs_its_header():
    with pytest.raises(ValueError) as err:
        parse_partition_csv("x,y\n")
    assert str(err.value) == "partition CSV must start with the lo,hi,tag header"


def test_partition_csv_rejects():
    with pytest.raises(MalformedPartition) as err:
        parse_partition_csv("lo,hi,tag\n0,1/4,rat:1/8\n1/2,1,rat:3/4\n")
    assert "row 3" in str(err.value)
    with pytest.raises(MalformedPartition):
        parse_partition_csv("lo,hi,tag\n")


def _fractions_made(parse, text) -> int:
    """The Fractions parse(text) constructs, counted by cProfile."""
    profile = cProfile.Profile()
    profile.enable()
    parse(text)
    profile.disable()
    return sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path == fractions.__file__ and name in ("__new__", "_from_coprime_ints"))


def _dyadic_cover_csv(rows: int) -> str:
    """rows cell midpoints over [0,1], their radii cycling through 2^-11..2^-18."""
    return "point,radius\n" + "".join(f"rat:{2 * i + 1}/{2 * rows},1/{1 << (11 + i % 8)}\n" for i in range(rows))


def test_reading_builds_fractions_per_distinct_radius_not_per_row():
    """A 1,024-row cover with 8 distinct radii builds no Fraction, as a
    64-row one does not: each radius text is read once, to its integer
    pair. A 1,024-cell partition builds none either."""
    made = [_fractions_made(parse_cover_csv, _dyadic_cover_csv(rows)) for rows in (1024, 64)]
    assert made == [0, 0]
    cells = "".join(f"{i}/1024,{i + 1}/1024,rat:{2 * i + 1}/2048\n" for i in range(1024))
    assert _fractions_made(parse_partition_csv, "lo,hi,tag\n" + cells) == 0


def test_obstruction_json_shape_and_determinism():
    obs = gap_obstruction_demo(default_cauchy_spec(), 6, 12)
    text = obstruction_json(obs)
    assert text == obstruction_json(obs)
    doc = json.loads(text)
    assert doc["space"] == "unit"
    assert doc["depth_reached"] == 6
    assert len(doc["unresolved"]) == 1
    assert all(t["last_verdict"] == "UNKNOWN" for t in doc["trace"])
    region = doc["unresolved"][0]
    assert region.startswith("[") and "," in region


def test_prec_is_none_on_exact_points_and_the_recorded_precision_on_approximants():
    assert UnitPoint.from_rat(F(1, 2)).prec is None
    assert quad(0, F(1, 2)).prec is None
    assert parse_unit("rat:3/8").prec is None
    assert parse_unit("approx:[1/2,9/16]@4").prec == 4


@pytest.mark.parametrize("order", [0, 1])
def test_cantor_rows_that_normalise_equal_merge_to_the_larger_radius(order):
    """prefix=0;period=10 and prefix=;period=01 spell one sequence, so the
    cover holds it once, with the larger radius, in either row order."""
    rows = ["prefix=0;period=10,1/4", "prefix=;period=01,1/2"][:: 1 - 2 * order]
    cover = parse_cover_csv("point,radius\n" + "\n".join(rows) + "\n")
    assert cover.entries() == [(CantorPoint.from_pattern("", "01"), F(1, 2))]
    assert cover_csv(cover) == "point,radius\nprefix=;period=01,1/2\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("prefix=10;period=0,0", "row 3: cover radius must be > 0, got 0 at CantorPoint(prefix='1', period='0')"),
        ("prefix=;period=01,-1/4", "row 3: cover radius must be > 0, got -1/4 at CantorPoint(prefix='', period='01')"),
        ("prefix=0;period=2,1/2", "row 3: bad bit pattern: prefix='0' period='2'"),
        ("prefix=0;period=,1/2", "row 3: bad bit pattern: prefix='0' period=''"),
        ("prefix=01,1/2", "row 3: expected prefix=...;period=..., got 'prefix=01'"),
        ("prefix=0;period=1,x", "row 3: not a rational: 'x'"),
        ("prefix=0;period=2,0", "row 3: bad bit pattern: prefix='0' period='2'"),
        ("rat:1/2,1/2", "row 3: cover mixes points from both spaces"),
    ],
)
def test_cantor_cover_row_errors_name_their_row(row, message):
    """A zero or negative radius names the row and the canonical
    CantorPoint; a malformed pattern, radius or space names the row, the
    point's fault before the radius's."""
    with pytest.raises(ValueError) as err:
        parse_cover_csv(f"point,radius\nprefix=;period=0,1/2\n{row}\n")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ("rat:1/4,0/1", "row 3: cover radius must be > 0, got 0 at UnitPoint(1/4)"),
        ('"quad:1/2,1/8",-2/8', "row 3: cover radius must be > 0, got -1/4 at UnitPoint(1/2 + 1/8*sqrt2)"),
        ('"approx:[1/4,1/4]@8",0', "row 3: cover radius must be > 0, got 0 at UnitPoint(approx, label='approx@8')"),
        ('"approx:[1/4,1/4]@8",1/2', "row 3: cover points must be exact"),
        ('"approx:[1/4,1/4]@x",zz', "row 3: approx point 'approx:[1/4,1/4]@x': precision 'x' is not an ASCII decimal"),
        ("rat:3,zz", "row 3: point 3 outside ambient [-1, 2]"),
        ("rat:1/2,zz", "row 3: not a rational: 'zz'"),
        ('"quad:1/2",1/2', "row 3: quad point needs two components, got 'quad:1/2'"),
        ("nonsense:0,1/4", "row 3: unknown unit point form 'nonsense:0'"),
        ("rat:1/2,1/4,1/8", "row 3: need point,radius, got ['rat:1/2', '1/4', '1/8']"),
        ("prefix=;period=1,1/2", "row 3: cover mixes points from both spaces"),
    ],
)
def test_unit_cover_row_errors_name_their_row(row, message):
    with pytest.raises(ValueError) as err:
        parse_cover_csv(f"point,radius\nrat:1/2,1/2\n{row}\n")
    assert str(err.value) == message


def test_a_cover_csv_with_no_rows_names_no_row():
    with pytest.raises(ValueError) as err:
        parse_cover_csv("point,radius\n\n")
    assert str(err.value) == "a cover needs at least one point"


# -- the cover reader against the Fraction reference ------------------------

# each radius with texts of its value that differ
_RADIUS_TEXTS = {
    F(1): ["1", "1/1", "2/2"],
    F(1, 2): ["1/2", "0.5", "2/4"],
    F(1, 3): ["1/3", "2/6"],
    F(1, 4): ["1/4", "2/8", "0.25"],
    F(3, 16): ["3/16", "0.1875", "6/32"],
    F(1, 8): ["1/8", "0.125"],
    F(1, 64): ["1/64", "0.015625"],
}


@st.composite
def _unit_point_texts(draw):
    """(text, reference point) of a rational or quadratic point, its text
    unreduced a third of the time; "quad:a,0" is a rational point."""
    a = draw(st.fractions(F(-1, 2), F(3, 2), max_denominator=16))
    b = draw(st.sampled_from([F(0), F(0), F(1, 8), F(-1, 4), F(1, 16)]))
    k = draw(st.sampled_from([1, 1, 3]))
    if b or draw(st.booleans()):
        text = f"quad:{a.numerator * k}/{a.denominator * k},{b.numerator}/{b.denominator}"
    else:
        text = f"rat:{a.numerator * k}/{a.denominator * k}"
    return text, ref_from_quad(a, b)


@st.composite
def _cantor_point_texts(draw):
    """(text, reference point) of a pattern, canonical or not."""
    prefix, period = draw(st.text("01", max_size=5)), draw(st.text("01", min_size=1, max_size=4))
    return f"prefix={prefix};period={period}", CantorPoint(pattern=_norm_pattern(prefix, period))


@st.composite
def _cover_texts(draw):
    """(space, CSV text, reference entries): rows drawn from a small pool of
    points, so that points repeat with radii whose texts differ, sometimes
    with a grid of balls that covers the space, shuffled, with blank rows."""
    space = draw(st.sampled_from(["unit", "cantor"]))
    pool = draw(st.lists(_unit_point_texts() if space == "unit" else _cantor_point_texts(), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(sorted(_RADIUS_TEXTS)), st.integers(0, 2)),
                          min_size=1, max_size=12))
    rows = [(text, _RADIUS_TEXTS[r][t % len(_RADIUS_TEXTS[r])], p, r) for (text, p), r, t in picks]
    k = draw(st.sampled_from([None, 1, 2, 3]))
    for i in range((1 << k) if k is not None else 0):
        if space == "unit":
            rows.append((f"rat:{2 * i + 1}/{2 << k}", f"1/{1 << k}", ref_from_quad(F(2 * i + 1, 2 << k), 0), F(1, 1 << k)))
        else:
            prefix = format(i, f"0{k}b")
            rows.append((f"prefix={prefix};period=0", f"1/{1 << k}", CantorPoint(pattern=_norm_pattern(prefix, "0")), F(1, 1 << k)))
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["point", "radius"])
    for (text, r_text, _, _), blank in zip(rows, blanks):
        if blank:
            writer.writerow([])
        writer.writerow([text, r_text])
    return space, out.getvalue(), [(p, r) for _, _, p, r in rows]


def _ref_verify(g, witness, points, radii, stage):
    """No when the reference witness exists, else the worst of the points'
    own verdicts, stopping at the first No."""
    if witness is not None:
        return Verdict.NO
    worst = Verdict.YES
    for p in points:
        v = verified_at_least(g, p, radii[p], stage)
        if v is Verdict.NO:
            return v
        if v is Verdict.UNKNOWN:
            worst = v
    return worst


def _outcome(f):
    try:
        return f()
    except ValueError as e:
        return type(e), str(e)


_CSV_GAUGES = {
    "unit": ["|x - 1/3| + 1/16", "1/8", "min(x + 1/8, 1 - x)"],
    "cantor": ["|x - 1/3| + 1/16", "1/8", "oracle-pin(prefix=;period=01)"],
}


@settings(max_examples=200, deadline=None)
@given(case=_cover_texts(), which=st.integers(0, 2), stage=st.sampled_from([1, 4, 16]))
def test_a_cover_csv_reads_as_the_fraction_reference_reads_it(case, which, stage):
    """On both spaces, parse_cover_csv gives the reference's entries, CSV
    bytes, witness and verify_cover verdict (or error), for shuffled rows,
    duplicates whose radius texts differ, quadratic points and blank rows."""
    space, text, entries = case
    points, radii = (ref_cover if space == "unit" else ref_cantor_cover)(entries)
    witness = ref_sweep(points, radii)[1] if space == "unit" else ref_cantor_witness(points, radii)
    cover = parse_cover_csv(text)
    assert cover.entries() == [(p, radii[p]) for p in points]
    assert cover_csv(cover) == ref_cover_csv(points, radii)
    assert uncovered_witness(cover) == witness

    def gauge():
        g = parse_gauge(_CSV_GAUGES[space][which])
        return pullback_gauge_phi(g) if g.domain != space else g

    got = _outcome(lambda: verify_cover(gauge(), cover, stage))
    assert got == _outcome(lambda: _ref_verify(gauge(), witness, points, radii, stage))


def test_reading_and_verifying_a_rational_cover_builds_no_point_per_row(monkeypatch):
    """A 1,024-row rational cover is read and verified under a continuous
    gauge with a region kernel on its integer rows: the region accepts the
    rows in runs, so a handful of points at most are built, not one a row."""
    text = "point,radius\n" + "".join(f"rat:{2 * i + 1}/2048,1/2048\n" for i in range(1024))
    g = parse_gauge("min(x + 1/512, 1/256)")
    built = []
    init = UnitPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UnitPoint, "__init__", counting_init)
    cover = parse_cover_csv(text)
    assert len(cover) == 1024 and not built
    assert verify_cover(g, cover, 48) is Verdict.YES
    assert len(built) <= 4
