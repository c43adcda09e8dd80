"""Output checks for benchmark jobs, run outside the timed region.

Every check recomputes what it can from the job's own construction and
uses fresh gauge objects for re-verification, so nothing the timed call
accumulated can vouch for its own output.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

from finecover.covers import verify_cover, verify_partition
from finecover.gallery import OracleSpec, gap_limit_point, oracle_pin_gauge
from finecover.gauges import Verdict
from finecover.gaugespec import parse_gauge
from finecover.serialize import parse_cover_csv, parse_partition_csv
from finecover.spaces import CantorPoint

from jobs import INTEGRALS, pin_bits


class CheckFailed(Exception):
    pass


def _need(cond: bool, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _region(text: str) -> tuple[F, F]:
    lo, hi = text.strip("[]").split(",")
    return F(lo), F(hi)


def _gap_limit_inside(regions) -> bool:
    box = gap_limit_point().approx(64)
    return any(lo <= box.lo and box.hi <= hi for lo, hi in regions)


def _open_union_covers(intervals) -> bool:
    """Do the open intervals cover [0,1]? Exact sweep from 0."""
    x = F(0)
    while True:
        reach = [b for a, b in intervals if a < x < b]
        if not reach:
            return False
        x = max(reach)
        if x > 1:
            return True


def check(job, code: int, text: str) -> int:
    """Raise CheckFailed unless the outcome is right; return its row count.

    `text` is what the job wrote: its --out file when it has one, else
    stdout. Rows are cover entries, partition cells, obstruction regions
    and verified entries.
    """
    _need(code == job.expect, f"exit {code}, expected {job.expect}")
    kind, *arg = job.check
    if kind == "none":
        return 0
    if kind == "verify":
        _need(text.startswith(arg[0]), f"verify printed {text.strip()[:80]!r}, wanted {arg[0]!r}")
        return job.rows
    if kind == "cover":
        gauge, stage = arg
        cover = parse_cover_csv(text)
        _need(verify_cover(parse_gauge(gauge), cover, int(stage)) is Verdict.YES, "cover fails re-verification")
        return len(cover)
    if kind == "partition":
        gauge, stage = arg
        part = parse_partition_csv(text)
        # cells are at most twice a cover radius, so re-verify at twice the gauge
        doubled = parse_gauge(f"2 * ({gauge})")
        _need(verify_partition(doubled, part, int(stage)) is Verdict.YES, "partition fails re-verification")
        return len(part.tags)
    if kind == "pin-cover":
        prefix, period, stage = arg
        cover = parse_cover_csv(text)
        g = oracle_pin_gauge(OracleSpec(CantorPoint.from_pattern(prefix, period)))
        _need(verify_cover(g, cover, int(stage)) is Verdict.YES, "pin cover fails re-verification")
        return len(cover)
    doc = json.loads(text)
    if kind == "integral":
        _need(doc["function"] == arg[0], f"function {doc['function']}")
        _need(F(doc["claim_lo"]) <= INTEGRALS[arg[0]] <= F(doc["claim_hi"]), "claim misses the closed form")
        return doc["cells"]
    if kind == "gap-gallery":
        region = _region(doc["unresolved"])
        _need(_gap_limit_inside([region]), "gap region misses the limit")
        _need(region[1] - region[0] <= F(1, 2 ** (int(arg[0]) - 2)), "gap region too wide")
        return 1
    if kind == "pin-gallery":
        prefix, period, depth = arg
        _need(doc["pinned"] == f"prefix={prefix};period={period}", f"pinned {doc['pinned']}")
        _need(doc["blind_search"] == f"obstruction [{pin_bits((prefix, period), int(depth))}]", "blind search")
        _need(doc["hinted_cover_size"] >= 1, "empty hinted cover")
        return doc["hinted_cover_size"] + 1
    if kind == "heine-borel":
        (head,) = arg
        k = doc["subcover_index"]
        _need(doc["union_verified"] is True, "union not verified")
        _need(k + 1 >= len(head) or _open_union_covers(head[: k + 1]), f"first {k + 1} intervals miss a point")
        return doc["cover_size"]
    regions = doc["unresolved"]
    if kind == "gap-obstruction":
        _need(_gap_limit_inside([_region(r) for r in regions]), "obstruction misses the gap limit")
    elif kind == "rational-obstruction":
        c = F(arg[0])
        _need(any(lo <= c <= hi for lo, hi in map(_region, regions)), f"obstruction misses {arg[0]}")
    elif kind == "pin-obstruction":
        _need(regions == [f"[{arg[0]}]"], f"obstruction {regions}")
    else:
        raise ValueError(f"unknown check {kind}")
    return len(regions)
