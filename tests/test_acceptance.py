"""End-to-end acceptance run: one test per numbered criterion.

Each test accumulates failures instead of asserting inside its loops, then
registers a one-line summary (see conftest) before the final assert, so the
per-criterion PASS/FAIL table prints even when a criterion goes red.
"""

import random
from fractions import Fraction as F

from conftest import record_criterion

from finecover.exact import Interval, ceil_log_recip, pow2, rt_pad, rt_point
from finecover.spaces import CantorPoint, Cylinder, UnitPoint, leftmost_cantor_ge
from finecover.gauges import (
    Baire1Code,
    DirectCode,
    Verdict,
    continuous_const,
    eval_enclosure,
    pullback_gauge_phi,
    scale_code,
    transfer_gauge_psi,
    verified_above,
    verified_at_least,
)
from finecover.covers import (
    FineCover,
    Obstruction,
    TaggedPartition,
    cover_to_partition,
    find_cover_cantor,
    find_cover_unit,
    partition_to_cover,
    transfer_cover_phi,
    transfer_cover_psi,
    verify_cover,
    verify_partition,
)
from finecover.integral import (
    IntegralCertificate,
    builtin_integrands,
    default_depth,
    default_hints,
    integrate,
)
from finecover.gallery import (
    GalleryFalsification,
    OpenCoverSpec,
    OracleSpec,
    UnexpectedCover,
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
from finecover.gaugespec import parse_gauge

STAGE = 16


def _chk(bad, cond, msg):
    if not cond:
        bad.append(msg)


def _frac(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


# -- random generators shared by several criteria ------------------------


def _step_gauge(rng):
    """Piecewise constant rational gauge on [0,1] plus its exact minimum."""
    k = rng.randrange(1, 4)
    cuts = sorted(rng.sample([F(i, 16) for i in range(1, 16)], k))
    vals = [F(rng.randrange(2, 17), 16) for _ in range(k + 1)]

    def f(x):
        for i, c in enumerate(cuts):
            if x < c:
                return vals[i]
        return vals[k]

    g = DirectCode(lambda p, s: rt_point(f(p.exact_value())), domain="unit")
    return g, min(vals)


def _rand_expr(rng, floor_lo: int, floor_hi: int):
    """Gauge-spec text `floor + c * shape` with the shape vanishing at
    rational points inside [0,1], so the exact minimum is the floor."""
    floor = F(rng.randrange(floor_lo, floor_hi), 256)
    c = F(*rng.choice(((1, 4), (1, 2), (1, 1), (3, 2), (2, 1))))
    kind = rng.randrange(3)
    if kind == 0:
        pts = sorted({F(rng.randrange(0, 33), 32) for _ in range(rng.randrange(1, 4))})
        shape = "dist({})".format(", ".join(_frac(p) for p in pts))
    elif kind == 1:
        pts = [F(rng.randrange(0, 33), 32)]
        shape = f"|x - {_frac(pts[0])}|"
    else:
        a = F(rng.randrange(0, 33), 32)
        b = F(rng.randrange(0, 33), 32)
        while b == a:
            b = F(rng.randrange(0, 33), 32)
        pts = sorted((a, b))
        shape = f"min(|x - {_frac(pts[0])}|, |x - {_frac(pts[1])}|)"
    text = f"{_frac(floor)} + {_frac(c)} * {shape}"

    def truth(x, floor=floor, c=c, pts=tuple(pts)):
        return floor + c * min(abs(x - p) for p in pts)

    return text, floor, truth


# -- criterion 1 ---------------------------------------------------------


def test_criterion_1_conversions_stay_twice_fine():
    rng = random.Random(101)
    bad = []
    for t in range(100):
        g, m = _step_gauge(rng)
        n = 16 if m > F(1, 16) else 32
        cuts = tuple(F(i, n) for i in range(n + 1))
        tags = tuple(UnitPoint.from_rat(F(2 * i + 1, 2 * n)) for i in range(n))
        part = TaggedPartition(cuts, tags)
        _chk(bad, verify_partition(g, part, STAGE) is Verdict.YES, f"{t}: partition not fine")
        cov = partition_to_cover(part)
        _chk(
            bad,
            verify_cover(scale_code(g, 2), cov, STAGE) is Verdict.YES,
            f"{t}: converted cover not 2x fine",
        )

        got = find_cover_unit(g, 8, STAGE)
        if not isinstance(got, FineCover):
            bad.append(f"{t}: search obstructed")
            continue
        _chk(bad, verify_cover(g, got, STAGE) is Verdict.YES, f"{t}: searched cover not fine")
        part2 = cover_to_partition(got)
        _chk(
            bad,
            verify_partition(scale_code(g, 2), part2, STAGE) is Verdict.YES,
            f"{t}: converted partition not 2x fine",
        )
    record_criterion(
        1,
        "partition/cover conversions verified at twice the gauge",
        not bad,
        f"100 step gauges, both directions, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 2 ---------------------------------------------------------


def test_criterion_2_search_completes_at_predicted_depth():
    rng = random.Random(102)
    bad = []
    for t in range(50):
        text, m, _ = _rand_expr(rng, 1, 65)  # minimum in [2^-8, 1/4]
        g = parse_gauge(text)
        lows = [g.region_eval(Interval(F(i, 32), F(i + 1, 32)), 12).lo for i in range(32)]
        _chk(bad, min(lows) == m and all(lo >= m for lo in lows), f"{t}: minimum not verified ({text})")
        depth = ceil_log_recip(m / 4, 2)  # least D with 2^-D <= m/4
        got = find_cover_unit(g, depth, STAGE)
        if not isinstance(got, FineCover):
            bad.append(f"{t}: obstructed at depth {depth} ({text})")
            continue
        _chk(bad, verify_cover(g, got, STAGE) is Verdict.YES, f"{t}: cover failed ({text})")
    record_criterion(
        2,
        "continuous specs covered at depth from the verified minimum",
        not bad,
        f"50 gauge specs, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 3 ---------------------------------------------------------


def _covers_unit_exactly(ivs) -> bool:
    # walk the reach point through open intervals; each round must move it
    cur = F(0)
    for _ in range(len(ivs) + 2):
        if cur > 1:
            return True
        ext = [b for a, b in ivs if a < cur < b]
        if not ext:
            return False
        cur = max(ext)
    return cur > 1


def _rand_open_cover(rng, want_fixed_tail: bool) -> OpenCoverSpec:
    m = rng.choice((2, 3, 4))
    cuts = sorted(rng.sample([F(i, 16) for i in range(1, 16)], m - 1))
    ts = [F(0)] + cuts + [F(1)]
    head = tuple((ts[i] - F(1, 8), ts[i + 1] + F(1, 8)) for i in range(m))
    if want_fixed_tail:
        q = F(rng.randrange(0, 17), 16)
        tail = lambda n, q=q: (q, pow2(-(n + 3)))
    else:
        tail = lambda n: (F(1, n + 2), pow2(-(n + 2)))
    return OpenCoverSpec(head, tail=tail)


def test_criterion_3_finite_subcovers_with_exact_unions():
    rng = random.Random(103)
    bad = []
    stars = 0
    for t in range(20):
        spec = _rand_open_cover(rng, want_fixed_tail=t % 2 == 1)
        g = heine_borel_gauge(spec)
        got = find_cover_unit(g, 10, STAGE)
        if not isinstance(got, FineCover):
            bad.append(f"{t}: search obstructed")
            continue
        try:
            k = finite_subcover(spec, got, stage=STAGE)
        except GalleryFalsification as e:
            bad.append(f"{t}: {e}")
            continue
        _chk(
            bad,
            _covers_unit_exactly([spec.interval(n) for n in range(k + 1)]),
            f"{t}: union of first {k + 1} intervals misses part of [0,1]",
        )
        for _ in range(1000):
            p = F(rng.randrange(0, 513), 512)
            kk = rng.randrange(0, 13)
            if check_star(spec, g, p, kk) is Verdict.NO:
                bad.append(f"{t}: star refuted at p={p}, k={kk}")
            stars += 1
    record_criterion(
        3,
        "open-cover gauges yield finite subcovers, star checks never refute",
        not bad,
        f"20 specs, {stars} star checks, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 4 ---------------------------------------------------------


def test_criterion_4_integration_against_closed_forms():
    bad = []
    table = builtin_integrands()

    # area under x over [0,1] is the half triangle
    f, fam, _ = table["identity"]
    ident_ref = F(1, 2)
    for k in range(1, 11):
        eps = pow2(-k)
        cert = integrate(f, fam, eps, default_depth("identity", eps), STAGE)
        if not isinstance(cert, IntegralCertificate):
            bad.append(f"identity eps=2^-{k}: obstructed")
            continue
        _chk(
            bad,
            cert.claim.lo <= ident_ref <= cert.claim.hi,
            f"identity eps=2^-{k}: claim misses {ident_ref}",
        )

    # antiderivative of 1/sqrt is 2*sqrt, so the improper integral is 2
    f, fam, _ = table["sqrt-reciprocal"]
    for k in (3, 4, 5, 6):
        eps = pow2(-k)
        cert = integrate(f, fam, eps, default_depth("sqrt-reciprocal", eps), STAGE)
        if not isinstance(cert, IntegralCertificate):
            bad.append(f"sqrt-reciprocal eps=2^-{k}: obstructed")
            continue
        w = cert.claim.hi - cert.claim.lo
        _chk(bad, cert.claim.lo <= 2 <= cert.claim.hi, f"sqrt-reciprocal eps=2^-{k}: claim misses 2")
        _chk(bad, w <= pow2(-k + 3), f"sqrt-reciprocal eps=2^-{k}: claim width {w} too wide")

    # the rationals are null, so every sum must sit within 4 eps of zero
    f, fam, _ = table["dirichlet"]
    for k in range(3, 9):
        eps = pow2(-k)
        cert = integrate(
            f, fam, eps, default_depth("dirichlet", eps), STAGE, hints=default_hints("dirichlet")
        )
        if not isinstance(cert, IntegralCertificate):
            bad.append(f"dirichlet eps=2^-{k}: obstructed")
            continue
        _chk(
            bad,
            -4 * eps <= cert.sum.lo and cert.sum.hi <= 4 * eps,
            f"dirichlet eps=2^-{k}: sum {cert.sum.lo}..{cert.sum.hi} exceeds 4 eps",
        )
    record_criterion(
        4,
        "integral claims match closed forms at every tested epsilon",
        not bad,
        f"identity k=1..10, sqrt-reciprocal k=3..6, dirichlet k=3..8, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 5 ---------------------------------------------------------


def test_criterion_5_gap_obstruction_localizes_the_limit():
    bad = []
    spec = default_cauchy_spec()
    zstar = gap_limit_point(spec)
    for depth in (12, 16, 20):
        try:
            obs = gap_obstruction_demo(spec, depth, STAGE)
        except UnexpectedCover as e:
            bad.append(f"depth {depth}: unexpected cover ({e})")
            continue
        except GalleryFalsification as e:
            bad.append(f"depth {depth}: {e}")
            continue
        _chk(bad, len(obs.unresolved) == 1, f"depth {depth}: {len(obs.unresolved)} regions")
        reg = obs.unresolved[0]
        zbox = zstar.approx(depth + 5)
        _chk(
            bad,
            reg.lo <= zbox.lo and zbox.hi <= reg.hi,
            f"depth {depth}: region [{reg.lo},{reg.hi}] misses the limit",
        )
        _chk(
            bad,
            reg.hi - reg.lo <= pow2(-depth + 2),
            f"depth {depth}: region width {reg.hi - reg.lo} too wide",
        )
    record_criterion(
        5,
        "gap search obstructs on one narrow run around the missing limit",
        not bad,
        f"depths 12/16/20, {len(bad)} failures",
    )
    assert not bad, bad


# -- criterion 6 ---------------------------------------------------------


def _rand_pattern_point(rng, mixed_period: bool = False) -> CantorPoint:
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 7)))
    while True:
        per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        if not mixed_period or len(set(per)) == 2:
            return CantorPoint.from_pattern(pre, per)


def test_criterion_6_oracle_pin_blind_versus_hinted():
    rng = random.Random(106)
    bad = []
    # a pin the canonical samples could hit is excluded by the demo itself
    zs = []
    while len(zs) < 10:
        z = _rand_pattern_point(rng, mixed_period=True)
        if all(z != w for w in zs):
            zs.append(z)
    exclusions = 0
    for z in zs:
        spec = OracleSpec(z)
        try:
            hinted = oracle_pin_demo(spec, 10, 8)
        except (UnexpectedCover, GalleryFalsification) as e:
            bad.append(f"Z={z.bits(10)}: {e}")
            continue
        _chk(
            bad,
            any(p.bits(10) == z.bits(10) for p, _ in hinted.entries()),
            f"Z={z.bits(10)}: hinted cover has no point tracking Z",
        )
        obs = find_cover_cantor(oracle_pin_gauge(spec), 10, 8)
        _chk(
            bad,
            isinstance(obs, Obstruction)
            and tuple(c.prefix for c in obs.unresolved) == (z.bits(10),),
            f"Z={z.bits(10)}: blind obstruction is not exactly the Z cylinder",
        )
        done = 0
        while done < 50:
            x = _rand_pattern_point(rng)
            if x == z:
                continue
            fx = pin_index(spec, x)
            if fx is None or fx < 1 or x.bits(fx) == z.bits(fx):
                bad.append(f"Z={z.bits(10)}: pin fails to exclude X={x.bits(12)} (f={fx})")
            else:
                exclusions += 1
            done += 1
    record_criterion(
        6,
        "pin gauge hides Z from blind search, hints recover it, pins exclude",
        not bad,
        f"10 oracles, {exclusions} exclusion checks, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 7 ---------------------------------------------------------


def test_criterion_7_transfer_pipelines_between_the_spaces():
    rng = random.Random(107)
    bad = []

    for t in range(20):
        text, _, _ = _rand_expr(rng, 16, 65)  # minimum in [1/16, 1/4]
        g = parse_gauge(text)
        cc = find_cover_cantor(pullback_gauge_phi(g), 6, STAGE)
        if not isinstance(cc, FineCover):
            bad.append(f"phi {t}: sequence search obstructed ({text})")
            continue
        _chk(
            bad,
            verify_cover(g, transfer_cover_phi(cc), STAGE) is Verdict.YES,
            f"phi {t}: pushed cover failed on [0,1] ({text})",
        )

    hints = [
        UnitPoint.from_rat(h) for h in sorted({leftmost_cantor_ge(F(i, 256)) for i in range(257)})
    ]
    for t in range(10):
        vals = {p: rng.choice((F(1, 2), F(1, 4), F(1, 8))) for p in ("00", "01", "10", "11")}

        def kernel(x, s, vals=vals):
            return rt_point(vals[x.bits(2)])

        g = DirectCode(kernel, domain="cantor")
        cov = find_cover_unit(transfer_gauge_psi(g), 8, STAGE, hints=hints)
        if not isinstance(cov, FineCover):
            bad.append(f"psi {t}: unit search obstructed (vals {sorted(vals.items())})")
            continue
        _chk(
            bad,
            verify_cover(g, transfer_cover_psi(cov), STAGE) is Verdict.YES,
            f"psi {t}: pulled cover failed on the sequence space",
        )
    record_criterion(
        7,
        "phi and psi transfer pipelines verified end to end",
        not bad,
        f"20 phi + 10 psi runs, {len(bad)} failures",
    )
    assert not bad, bad[:5]


# -- criterion 8 ---------------------------------------------------------


def test_criterion_8_soundness_and_permanence_sweep():
    rng = random.Random(108)
    trials = 0
    bad = []

    # expression codes: enclosures contain the true value, nest as the
    # stage grows, and non-Unknown verdicts never flip
    for t in range(2000):
        text, _, truth = _rand_expr(rng, 1, 65)
        g = parse_gauge(text)
        x = F(rng.randrange(0, 65), 64)
        px = UnitPoint.from_rat(x)
        tv = truth(x)
        s1 = rng.choice((2, 4, 6))
        b1 = eval_enclosure(g, px, s1)
        trials += 1
        _chk(bad, b1.lo <= tv <= b1.hi, f"expr {t}: enclosure misses value")
        q = max(F(0), tv + rng.choice((F(-1, 64), F(-1, 1024), F(1, 1024), F(1, 64))))
        v1 = verified_above(g, px, q, s1)
        v2 = verified_above(g, px, q, 12)
        trials += 1
        _chk(bad, v1 is Verdict.UNKNOWN or v2 is v1, f"expr {t}: verdict flipped {v1}->{v2}")
        b2 = eval_enclosure(g, px, 12)
        trials += 1
        _chk(
            bad,
            b1.lo <= b2.lo and b2.hi <= b1.hi and b2.lo <= tv <= b2.hi,
            f"expr {t}: enclosures fail to nest",
        )

    # term-by-term limits: the block hull tracks the limit at every stage
    # and decided comparisons survive more stages
    for t in range(1000):
        lim = F(rng.randrange(1, 17), 32)
        c = F(rng.randrange(1, 5), 8)
        gb = Baire1Code(lambda n, lim=lim, c=c: continuous_const(lim - c * pow2(-n)))
        px = UnitPoint.from_rat(F(rng.randrange(0, 9), 8))
        s1 = rng.choice((2, 3, 5))
        b1 = eval_enclosure(gb, px, s1)
        b2 = eval_enclosure(gb, px, 14)
        trials += 2
        _chk(bad, b1.lo <= lim <= b1.hi, f"limit {t}: early enclosure misses limit")
        _chk(bad, b2.lo <= lim <= b2.hi, f"limit {t}: late enclosure misses limit")
        ql = max(F(0), lim - c / 2)
        v1 = verified_above(gb, px, ql, s1)
        v2 = verified_above(gb, px, ql, 14)
        trials += 1
        _chk(bad, v1 is Verdict.UNKNOWN or v2 is v1, f"limit {t}: verdict flipped {v1}->{v2}")

    # direct codes with shrinking pads: nesting plus verdict permanence
    for t in range(1500):
        v = F(rng.randrange(0, 257), 256)
        g = DirectCode(lambda p, s, v=v: rt_pad(rt_point(v), s), domain="unit")
        px = UnitPoint.from_rat(F(rng.randrange(0, 9), 8))
        b1 = eval_enclosure(g, px, 3)
        b2 = eval_enclosure(g, px, 9)
        trials += 1
        _chk(
            bad,
            b1.lo <= b2.lo and b2.hi <= b1.hi and b2.lo <= v <= b2.hi,
            f"direct {t}: enclosures fail to nest",
        )
        q = max(F(0), v + rng.choice((F(-1, 32), F(1, 32))))
        v1 = verified_at_least(g, px, q, 3)
        v2 = verified_at_least(g, px, q, 9)
        trials += 1
        _chk(bad, v1 is Verdict.UNKNOWN or v2 is v1, f"direct {t}: verdict flipped {v1}->{v2}")

    # scaling commutes with the truth, enclosure-soundness survives it
    for t in range(1000):
        text, _, truth = _rand_expr(rng, 1, 65)
        fc = F(*rng.choice(((1, 2), (3, 4), (2, 1))))
        sg = scale_code(parse_gauge(text), fc)
        x = F(rng.randrange(0, 65), 64)
        box = eval_enclosure(sg, UnitPoint.from_rat(x), 10)
        trials += 1
        _chk(bad, box.lo <= fc * truth(x) <= box.hi, f"scale {t}: enclosure misses value")

    record_criterion(
        8,
        "randomized soundness and permanence sweep",
        not bad,
        f"{trials} trials, {len(bad)} violations",
    )
    assert trials >= 10_000
    assert not bad, bad[:5]
