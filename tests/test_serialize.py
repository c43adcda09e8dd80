import cProfile
import fractions
import json
import pstats
import tracemalloc
from fractions import Fraction as F

import pytest
from conftest import quad

from finecover.covers import FineCover, MalformedPartition, TaggedPartition
from finecover.gallery import default_cauchy_spec, gap_limit_point, gap_obstruction_demo
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
from finecover.spaces import CantorPoint, UnitPoint


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
    assert back.radii == cover.radii
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
    """A 1,024-row cover with 8 distinct radii builds one Fraction per
    radius, as a 64-row one does; a 1,024-cell partition builds none."""
    made = [_fractions_made(parse_cover_csv, _dyadic_cover_csv(rows)) for rows in (1024, 64)]
    assert made == [8, 8]
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
