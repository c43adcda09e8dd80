"""Text forms for the artifact types.

Numerics are canonical fractions end to end so that parsing back what was
written reproduces the same exact values. Points of the sequence space
write as prefix/period bit patterns; unit points as "rat:", "quad:" (for
a + b*sqrt(2)) or, for opaque points, an "approx:" enclosure at a stated
precision. Covers and partitions are CSV with a header; obstructions
are JSON, their trace one entry per unresolved region, each UNKNOWN at
the search's stage. A number cell reads as its reduced integer pair; a
radius text is read once a file. A cover is read into its integer rows
(see `FineCover`) and written from them, with no point built for a row.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from math import gcd

from .covers import FineCover, MalformedPartition, Obstruction, TaggedPartition, cover_entry, row_point
from .exact import Interval, parse_pair, parse_rat, rat_str
from .spaces import CantorPoint, Cylinder, UnitPoint, canonical_pattern, unit_value


def cantor_str(p: CantorPoint) -> str:
    if p.pattern is None:
        raise ValueError(f"{p!r} is not eventually periodic; cannot serialize")
    prefix, period = p.pattern
    return f"prefix={prefix};period={period}"


def _pattern(s: str) -> tuple[str, str]:
    """The canonical (prefix, period) of a "prefix=...;period=..." text."""
    body = s.strip()
    if not body.startswith("prefix=") or ";period=" not in body:
        raise ValueError(f"expected prefix=...;period=..., got {s!r}")
    return canonical_pattern(*body[len("prefix="):].split(";period=", 1))


def parse_cantor(s: str) -> CantorPoint:
    return CantorPoint.from_pattern(*_pattern(s))


def parse_bits(raw: str) -> CantorPoint:
    """A pinned bit pattern: "prefix=...;period=..." or bare period bits."""
    raw = raw.strip()
    if "prefix=" in raw:
        return parse_cantor(raw)
    return CantorPoint.from_pattern("", raw)


def _exact_str(num, den: int) -> str:
    if type(num) is int:
        return f"rat:{num}/{den}"
    a, b = num.a, num.b
    ga, gb = gcd(a, den), gcd(b, den)
    return f"quad:{a // ga}/{den // ga},{b // gb}/{den // gb}"


def unit_str(p: UnitPoint, prec: int = 24) -> str:
    """A point recorded at a precision is written at that precision."""
    if p.is_exact:
        return _exact_str(p.num, p.den)
    if p.prec is not None:
        prec = p.prec
    box = p.approx(prec)
    return f"approx:[{rat_str(box.lo)},{rat_str(box.hi)}]@{prec}"


def _exact_value(s: str):
    """The (num, den) of a "rat:" or "quad:" point text (`unit_value`);
    None for any other form."""
    body = s.strip()
    if body.startswith("rat:"):
        return unit_value(*parse_pair(body[4:]))
    if body.startswith("quad:"):
        a, _, b = body[5:].partition(",")
        if not b:
            raise ValueError(f"quad point needs two components, got {s!r}")
        return unit_value(*parse_pair(a), *parse_pair(b))
    return None


def parse_unit(s: str) -> UnitPoint:
    value = _exact_value(s)
    if value is not None:
        return UnitPoint(*value)
    body = s.strip()
    if body.startswith("approx:"):
        rest = body[7:]
        if "]@" not in rest or not rest.startswith("["):
            raise ValueError(f"malformed approx point {s!r}")
        inner, prec_s = rest[1:].rsplit("]@", 1)
        lo, _, hi = inner.partition(",")
        box = Interval(parse_rat(lo), parse_rat(hi))
        if not (prec_s.isascii() and prec_s.isdigit()):
            raise ValueError(f"approx point {s!r}: precision {prec_s!r} is not an ASCII decimal")
        prec = int(prec_s)
        return UnitPoint.from_fn(lambda k: box, label=f"approx@{prec}", prec=prec)
    raise ValueError(f"unknown unit point form {s!r}")


def point_str(p) -> str:
    return cantor_str(p) if isinstance(p, CantorPoint) else unit_str(p)


def _csv(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def cover_csv(cover: FineCover) -> str:
    point = _exact_str if cover.space == "unit" else "prefix={};period={}".format
    return _csv([["point", "radius"], *([point(a, b), f"{rn}/{rd}"] for a, b, rn, rd in cover.rows)])


def _csv_rows(text: str) -> list:
    """The CSV records of text; one the csv module rejects is a ValueError naming its row."""
    rows: list = []
    try:
        for row in csv.reader(io.StringIO(text)):
            rows.append(row)
    except csv.Error as e:
        raise ValueError(f"row {len(rows) + 1}: {e}") from None
    return rows


def parse_cover_csv(text: str) -> FineCover:
    rows = _csv_rows(text)
    if not rows or rows[0] != ["point", "radius"]:
        raise ValueError("cover CSV must start with the point,radius header")
    # the cover checks each row as it is read, so its errors name the row
    at = None  # the row being read, None once all are read
    radius = cache(parse_pair)  # a searched cover's radii are a few powers of two

    def keyed():
        nonlocal at
        for at, row in enumerate(rows[1:], start=2):
            if row:
                if len(row) != 2:
                    raise ValueError(f"need point,radius, got {row!r}")
                ps, rs = row
                space, key = ("cantor", _pattern(ps)) if ps.startswith("prefix=") else ("unit", _exact_value(ps))
                p = parse_unit(ps) if key is None else None  # an approximant, or an unknown form
                r = radius(rs)
                if p is None and r[0] > 0:
                    yield space, key, r
                else:  # the checks on a point entry name the row's fault
                    yield cover_entry(row_point(space, key) if p is None else p, r)
        at = None

    try:
        return FineCover.from_keyed(keyed())
    except ValueError as e:
        if at is None:
            raise
        raise ValueError(f"row {at}: {e}") from None


def partition_csv(part: TaggedPartition) -> str:
    # the ends are reduced, so n/d is the canonical form rat_str writes
    ends = part.ends
    cells = zip(ends, ends[1:], part.tags)
    return _csv([["lo", "hi", "tag"], *([f"{an}/{ad}", f"{bn}/{bd}", unit_str(t)] for (an, ad), (bn, bd), t in cells)])


def parse_partition_csv(text: str) -> TaggedPartition:
    rows = _csv_rows(text)
    if not rows or rows[0] != ["lo", "hi", "tag"]:
        raise ValueError("partition CSV must start with the lo,hi,tag header")
    ends: list[tuple] = []  # each cut as its reduced (n, d)
    tags: list[UnitPoint] = []
    hi_s = None  # the text of the last cut read
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedPartition(f"row {i}: need lo,hi,tag, got {row!r}")
        try:
            # a cell almost always starts with the text the previous one ended with
            lo = ends[-1] if row[0] == hi_s else parse_pair(row[0])
            hi, hi_s = parse_pair(row[1]), row[1]
            tag = parse_unit(row[2])
        except ValueError as e:
            raise MalformedPartition(f"row {i}: {e}")
        if not ends:
            ends.append(lo)
        elif ends[-1] != lo:
            raise MalformedPartition(f"row {i}: cell starts at {row[0]}, previous ended at %d/%d" % ends[-1])
        ends.append(hi)
        tags.append(tag)
    if not tags:
        raise MalformedPartition("no cells")
    return TaggedPartition.from_ends(ends, tags)


def region_str(region) -> str:
    if isinstance(region, Cylinder):
        return f"[{region.prefix}]"
    return f"[{rat_str(region.lo)},{rat_str(region.hi)}]"


def obstruction_json(obs: Obstruction) -> str:
    doc = {
        "space": obs.space,
        "depth_reached": obs.depth_reached,
        "unresolved": [region_str(r) for r in obs.unresolved],
        "trace": [
            {"region": region_str(r), "last_verdict": "UNKNOWN", "stage": obs.stage} for r in obs.unresolved
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def integral_json(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"
