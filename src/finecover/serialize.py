"""Text forms for the artifact types.

Numerics are canonical fractions end to end so that parsing back what was
written reproduces the same exact values. Points of the sequence space
write as prefix/period bit patterns; unit points as "rat:", "quad:" (for
a + b*sqrt(2)) or, for opaque points, an "approx:" enclosure at a stated
precision. Covers and partitions are CSV with a header; obstructions
are JSON, their trace one entry per unresolved region, each UNKNOWN at
the search's stage. A number cell reads as its reduced integer pair, and
points and cuts are built from the pairs; a radius text is read once a file.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from math import gcd

from .covers import FineCover, MalformedPartition, Obstruction, TaggedPartition
from .exact import Interval, parse_pair, parse_rat, rat_str
from .spaces import CantorPoint, Cylinder, UnitPoint


def cantor_str(p: CantorPoint) -> str:
    if p.pattern is None:
        raise ValueError(f"{p!r} is not eventually periodic; cannot serialize")
    prefix, period = p.pattern
    return f"prefix={prefix};period={period}"


def parse_cantor(s: str) -> CantorPoint:
    body = s.strip()
    if not body.startswith("prefix=") or ";period=" not in body:
        raise ValueError(f"expected prefix=...;period=..., got {s!r}")
    prefix, period = body[len("prefix="):].split(";period=", 1)
    return CantorPoint.from_pattern(prefix, period)


def parse_bits(raw: str) -> CantorPoint:
    """A pinned bit pattern: "prefix=...;period=..." or bare period bits."""
    raw = raw.strip()
    if "prefix=" in raw:
        return parse_cantor(raw)
    return CantorPoint.from_pattern("", raw)


def unit_str(p: UnitPoint, prec: int = 24) -> str:
    """A point recorded at a precision is written at that precision."""
    if p.is_rational:
        return f"rat:{p.num}/{p.den}"
    if p.is_exact:
        a, b, d = p.num.a, p.num.b, p.den
        ga, gb = gcd(a, d), gcd(b, d)
        return f"quad:{a // ga}/{d // ga},{b // gb}/{d // gb}"
    if p.prec is not None:
        prec = p.prec
    box = p.approx(prec)
    return f"approx:[{rat_str(box.lo)},{rat_str(box.hi)}]@{prec}"


def parse_unit(s: str) -> UnitPoint:
    body = s.strip()
    if body.startswith("rat:"):
        return UnitPoint.from_pair(*parse_pair(body[4:]))
    if body.startswith("quad:"):
        a, _, b = body[5:].partition(",")
        if not b:
            raise ValueError(f"quad point needs two components, got {s!r}")
        return UnitPoint.from_parts(*parse_pair(a), *parse_pair(b))
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
    return _csv([["point", "radius"], *([point_str(p), rat_str(r)] for p, r in cover.entries())])


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
    # FineCover checks each entry as it is parsed, so its errors name the row
    at = None  # the row being read, None once all are read
    radius = cache(parse_rat)  # a searched cover's radii are a few powers of two

    def entries():
        nonlocal at
        for at, row in enumerate(rows[1:], start=2):
            if row:
                if len(row) != 2:
                    raise ValueError(f"need point,radius, got {row!r}")
                ps, rs = row
                yield parse_cantor(ps) if ps.startswith("prefix=") else parse_unit(ps), radius(rs)
        at = None

    try:
        return FineCover(entries())
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
