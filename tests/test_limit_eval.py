"""Limit codes against the references that evaluate every query afresh
(`limit_ref`): a query at the stage a point was last queried at is
answered from the stored enclosure while the point's box is unchanged,
the parts of a text body that read no index are compiled once per gauge,
and a limit under a declared modulus resolves its modulus once per stage.
None of this may change an enclosure, a verdict or where a
CauchyViolation is raised."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import conftest
from limit_ref import Baire1Ref, Baire2Ref, ModulusRef, ref_spec

from finecover import gaugespec
from finecover.exact import CauchyViolation, Interval, pow2
from finecover.gallery import CauchySpec, _gap_term, cauchy_gap_gauge, default_cauchy_spec
from finecover.gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    eval_enclosure,
    kernel_dist,
    kernel_linear,
    kernel_memo,
    modulus_limit,
    verified_above,
    verified_at_least,
)
from finecover.gaugespec import parse_gauge
from finecover.spaces import UnitPoint

_MODULUS = lambda j: max(1, j + 1)  # true for terms within 2^-(n+1) of the limit

# the builders of each layer: a limit with no modulus at either level, and
# one under a declared modulus
_CODE = (Baire1Code, Baire2Code, modulus_limit)
_REF = (Baire1Ref, Baire2Ref, ModulusRef)


def _near(p, c):
    """|x - p| + c as one continuous code."""
    return ContinuousCode(kernel_linear(kernel_dist([p]), 1, c))


def _limit(bare, lim, terms, modulus):
    return bare(terms) if modulus is None else lim(terms, modulus)


def _baire1(modulus):
    terms = lambda n: _near(Fraction(1, 3), Fraction((-1) ** n, 2 ** (n + 1)))
    return lambda b1, b2, lim: _limit(b1, lim, terms, modulus)


def _baire2(modulus, inner):
    def build(b1, b2, lim):
        level1 = lambda m: _limit(b1, lim, lambda n: _near(Fraction(2, 5), pow2(-m - 1) + pow2(-n - 1)), inner)
        return _limit(b2, lim, level1, modulus)

    return build


def _gap(modulus):
    def build(b1, b2, lim):
        if b1 is Baire1Code:
            return cauchy_gap_gauge(CauchySpec(_gap_term, modulus=modulus, label="gap"))
        # the gauge as defined: term t is |x - z_(t-1)|, and the modulus is shifted with it
        terms = lambda t: ContinuousCode(kernel_dist([_gap_term(t - 1)]))
        return _limit(b1, lim, terms, modulus and (lambda j: modulus(j) + 1))

    return build


_CODES = {
    "baire1": _baire1(_MODULUS),
    "baire1-bare": _baire1(None),
    # modulus(0) = 3: stages 1 and 2 read term 3 padded by 1
    "baire1-late": _baire1(lambda j: j + 3),
    # term N = 1 is 5 and every term from 5 on is 0: term `stage` avoids it
    "baire1-liar": lambda b1, b2, lim: lim(lambda n: _near(Fraction(1, 2), Fraction(5 if n < 5 else 0)), lambda j: 1),
    # term N = stage alternates between 1/2 and 3/2: the enclosures of two
    # stages of different parity are disjoint
    "baire1-flip": lambda b1, b2, lim: lim(lambda n: _near(Fraction(0), Fraction(2 + (-1) ** n, 2)), lambda j: max(1, j)),
    "baire2": _baire2(_MODULUS, _MODULUS),
    "baire2-bare": _baire2(None, None),
    "baire2-inner-bare": _baire2(_MODULUS, None),
    "gap": _gap(default_cauchy_spec().modulus),
    "gap-bare": _gap(None),
    "gap-liar": _gap(lambda j: 0),
}

# x-dependent parts that read no index, and bodies that put them beside
# parts that do (an index inside dist, or x times a power of the index)
_PARTS = (
    "|x - 1/3|",
    "min(2^-2, dist(1/8, 5/8) + 2^-3)",
    "x * x",
    "(x + 1/4) / 2",
    "max(x, 1 - x) - 1/2",
    "dist(1/3)",
)
_BODIES = (
    "baire1(n -> {f} + 2^-(n+3))",
    "baire1(n -> {f} * (1 - 2^-n))",
    "baire1(n -> min({f}, {g} + 2^-n))",
    "baire1(n -> {f} + x * 2^-(n+1))",
    "baire1(n -> dist(1/(n+1), 1/2) + {f})",
    "baire1(n -> {f})",
    "baire2(n -> baire1(k -> {f} + 2^-(n+3) + 2^-(k+3)))",
    "baire2(n -> baire1(k -> {f} * (1 - 2^-n) + {g} * 2^-k))",
    "baire2(n -> baire1(k -> max({f}, 2^-(n+k))))",
)


def _text_code(draw):
    text = draw(st.sampled_from(_BODIES)).format(f=draw(st.sampled_from(_PARTS)), g=draw(st.sampled_from(_PARTS)))
    return lambda b1, b2, lim: ref_spec(text) if b1 is Baire1Ref else parse_gauge(text)


def _point_pool():
    rational = st.fractions(0, 1, max_denominator=16).map(lambda q: lambda: UnitPoint.from_rat(q))
    quad = st.tuples(
        st.fractions(Fraction(1, 4), Fraction(3, 4), max_denominator=8),
        st.fractions(Fraction(-1, 8), Fraction(1, 8), max_denominator=8).filter(bool),
    ).map(lambda ab: lambda: conftest.quad(*ab))
    approx = st.fractions(0, 1, max_denominator=16).map(lambda w: lambda: _approximant(w))
    return st.lists(st.one_of(rational, quad, approx), min_size=1, max_size=4)


def _approximant(w):
    """An opaque point at w whose boxes narrow with every finer stage asked."""
    return UnitPoint.from_fn(lambda k: Interval(w - pow2(-k - 1), w + pow2(-k - 1)))


def _outcome(call):
    try:
        return call()
    except CauchyViolation as e:
        return type(e)


@pytest.mark.parametrize("kind", [*_CODES, "text"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_limit_codes_match_the_reference(kind, data):
    """Random query sequences on twin codes, points from a small pool and
    stages from {1, 2, 3, 4, 8}, so that repeated and mixed stages both
    occur: enclosures, verdicts at random q and CauchyViolations agree
    with the reference query by query."""
    build = _text_code(data.draw) if kind == "text" else _CODES[kind]
    pool = data.draw(_point_pool())
    queries = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(pool) - 1),
            st.sampled_from([1, 2, 3, 4, 8]),
            st.sampled_from(["enclosure", "above", "at_least"]),
            st.fractions(0, 2, max_denominator=32),
        ),
        min_size=1,
        max_size=12,
    ))
    g, ref = build(*_CODE), build(*_REF)
    xs, rxs = [p() for p in pool], [p() for p in pool]
    for i, stage, op, q in queries:
        if op == "enclosure":
            got = _outcome(lambda: eval_enclosure(g, xs[i], stage))
            want = _outcome(lambda: eval_enclosure(ref, rxs[i], stage))
        else:
            check = verified_above if op == "above" else verified_at_least
            got = _outcome(lambda: check(g, xs[i], q, stage))
            want = _outcome(lambda: check(ref, rxs[i], q, stage))
        assert got == want, (i, stage, op, q)


@pytest.mark.parametrize(
    "kind, stages",
    [("baire1-liar", (1, 4, 8)), ("baire1-flip", (1, 2)), ("gap-liar", (1, 2))],
    ids=["baire1-liar", "baire1-flip", "gap-liar"],
)
def test_lying_moduli_raise_where_the_reference_does(kind, stages):
    """Each liar's enclosures agree with the reference's until the last
    stage, where both raise CauchyViolation: against term `stage`
    (baire1-liar, gap-liar) or against the stage before (baire1-flip)."""
    g, ref = _CODES[kind](*_CODE), _CODES[kind](*_REF)
    x, rx = UnitPoint.from_rat(Fraction(1, 3)), UnitPoint.from_rat(Fraction(1, 3))
    for stage in stages[:-1]:
        assert eval_enclosure(g, x, stage) == eval_enclosure(ref, rx, stage)
    for code, point in ((g, x), (ref, rx)):
        with pytest.raises(CauchyViolation):
            eval_enclosure(code, point, stages[-1])


def test_index_free_part_is_compiled_once_and_evaluated_once_per_query(monkeypatch):
    """The part of a body that reads no index is compiled by the first term
    compile, not at parse time, and only once for the whole gauge; the
    terms of one block share one evaluation of it, and a query at another
    stage evaluates it again, once. Enclosures stay the reference's."""
    compiled, evaluated = [], []

    def counting_memo(ka):
        compiled.append(ka)

        def kernel(r, k):
            evaluated.append(k)
            return ka(r, k)

        return kernel_memo(kernel)

    monkeypatch.setattr(gaugespec, "kernel_memo", counting_memo)
    text = "baire2(n -> baire1(k -> min(2^-2, dist(1/8, 5/8) + 2^-3) + 2^-(n+3) + 2^-(k+3)))"
    g, ref = parse_gauge(text), ref_spec(text)
    assert compiled == []
    x = UnitPoint.from_rat(Fraction(3, 7))
    for stage, want in ((6, [6]), (3, [3]), (3, []), (6, [6])):
        evaluated.clear()
        assert eval_enclosure(g, x, stage) == eval_enclosure(ref, x, stage)
        assert evaluated == want
    assert len(compiled) == 1


@pytest.mark.parametrize("kind", ["baire1", "baire2-bare"])
def test_a_finer_box_of_an_approximant_point_is_read_again(kind):
    """A query at an approximant point's last stage is not answered from
    the stored enclosure once another query has narrowed the point's box:
    the enclosure is the reference's, which reads the narrower box."""
    g, ref = _CODES[kind](*_CODE), _CODES[kind](*_REF)
    x, rx = _approximant(Fraction(1, 3)), _approximant(Fraction(1, 3))
    first = eval_enclosure(g, x, 1)
    assert eval_enclosure(ref, rx, 1) == first
    x.approx(8), rx.approx(8)
    got = eval_enclosure(g, x, 1)
    assert got == eval_enclosure(ref, rx, 1)
    assert got.width < first.width


@pytest.mark.parametrize(
    "text, shared",
    [
        ("baire1(n -> x * x)", ["1:15 mul"]),
        ("baire1(n -> x + 2^-n)", []),
        ("baire1(n -> x + dist(1/n) + (x + 1) * 2^-n)", ["1:32 add"]),
        ("baire1(n -> dist(1/3, 1/n) + |x - 1/3|)", ["1:30 abs"]),
        ("baire2(n -> baire1(k -> min(x, 1 - x) * 2^-n + dist(1/4) * 2^-k))", ["1:25 min", "1:48 dist"]),
        ("baire2(n -> baire1(k -> x * x))", ["1:27 mul"]),
    ],
)
def test_shared_parts_are_the_largest_that_read_no_index(text, shared):
    node = gaugespec._Parser(gaugespec._lex(text)).parse()
    body = node[3][3] if node[0] == "baire2" else node[3]
    parts = gaugespec._shared_parts(body)
    got = [f"{sub[1][0]}:{sub[1][1]} {sub[0]}" for sub, _ in gaugespec._walk(body) if id(sub) in parts]
    assert sorted(got) == sorted(shared)
    assert len(parts) == len(shared)
