import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from kernel_ref import compile_ref
from lex_ref import ref_lex
from quad_ref import ref_cmp, ref_sign

from finecover.exact import Interval, pow2, rt_interval
from finecover.gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    DirectCode,
    Verdict,
    continuous_const,
    eval_enclosure,
    pullback_gauge_phi,
    verified_above,
)
from finecover.gaugespec import (
    MAX_EXPONENT,
    SpecError,
    _compile,
    _lex,
    _Parser,
    _walk,
    parse_cover_file,
    parse_expr_const,
    parse_gauge,
    parse_gauge_file,
)
from finecover.spaces import CantorPoint, Cylinder, UnitPoint


def up(q):
    return UnitPoint.from_rat(F(q))


def value_at(g, q, stage=8):
    box = eval_enclosure(g, up(q), stage)
    assert box.lo == box.hi
    return box.lo


def test_constant_and_arithmetic():
    assert value_at(parse_gauge("1/4"), F(1, 2)) == F(1, 4)
    assert value_at(parse_gauge("x/4 + 1/8"), F(1, 2)) == F(1, 4)
    assert value_at(parse_gauge("|x - 1/2| + 1/16"), F(1, 4)) == F(5, 16)
    assert value_at(parse_gauge("2^-3"), F(0)) == F(1, 8)
    assert value_at(parse_gauge("2^(-(2+1))"), F(0)) == F(1, 8)
    assert value_at(parse_gauge("3 - 2 * x"), F(1)) == F(1)


def test_min_max_dist():
    g = parse_gauge("min(x + 1/8, 1 - x, 3/4)")
    assert value_at(g, F(0)) == F(1, 8)
    assert value_at(g, F(1)) == F(0)
    assert value_at(parse_gauge("max(x, 1/4)"), F(0)) == F(1, 4)
    assert value_at(parse_gauge("dist(1/3, 2/3)"), F(1, 2)) == F(1, 6)
    assert value_at(parse_gauge("dist(1/3, 2/3)"), F(0)) == F(1, 3)


def test_comments_and_multiline():
    g = parse_gauge("min(x, 1 - x)  # taper at both ends\n + 1/32")
    assert value_at(g, F(0)) == F(1, 32)
    assert value_at(g, F(1, 2)) == F(17, 32)


@pytest.mark.parametrize(
    "text,line",
    [
        ("x + @", 1),
        ("x +\n@", 2),
        ("min(x)", 1),
        ("y + 1", 1),
        ("2^x", 1),
        ("3^2", 1),
        ("1/(x)", 1),
        ("(x", 1),
        ("baire1(x -> x)", 1),
        ("baire2(n -> n)", 1),
        ("1/0", 1),
    ],
)
def test_errors_cite_position(text, line):
    with pytest.raises(SpecError) as err:
        parse_gauge(text)
    assert err.value.line == line
    assert f"line {line}," in str(err.value)


def test_baire1_stage_sensitivity():
    g = parse_gauge("baire1(n -> 1/2 - 2^-(n+1))")
    assert isinstance(g, Baire1Code)
    x = up(F(1, 2))
    assert verified_above(g, x, F(7, 16), 1) is Verdict.UNKNOWN
    g2 = parse_gauge("baire1(n -> 1/2 - 2^-(n+1))")
    assert verified_above(g2, x, F(7, 16), 16) is Verdict.YES
    box = eval_enclosure(parse_gauge("baire1(n -> 1/2 - 2^-(n+1))"), x, 16)
    assert box.lo == F(1, 2) - 3 * pow2(-10)


def test_baire2_compiles_and_encloses():
    g = parse_gauge("baire2(m -> baire1(n -> 1/2 - 2^-(m+n)))")
    assert isinstance(g, Baire2Code)
    box = eval_enclosure(g, up(F(1, 4)), 8)
    assert box.lo <= F(1, 2) <= box.hi + F(1, 2)


def test_limit_codes_keep_their_labels_and_indices():
    # labels reach error messages, so they are pinned here
    g = parse_gauge("baire2(m -> baire1(n -> 1/2 - 2^-(m+n)))")
    inner = g.term(3).term(2)
    assert (repr(g), repr(g.term(3)), repr(inner)) == (
        "Baire2Code(spec-baire2, domain=unit)",
        "Baire1Code(spec-baire1-3, domain=unit)",
        "ContinuousCode(term-3-2, domain=unit)",
    )
    assert eval_enclosure(inner, up(F(1, 4)), 4) == Interval.point(F(15, 32))
    g = parse_gauge("baire1(n -> x + 2^-n)")
    assert (repr(g), repr(g.term(4))) == ("Baire1Code(spec-baire1, domain=unit)", "ContinuousCode(term-4, domain=unit)")
    with pytest.raises(SpecError, match="baire1 cannot appear inside an expression"):
        parse_gauge("baire1(n -> baire1(m -> x))").term(1)


def test_builtin_cauchy_gap():
    g = parse_gauge("cauchy-gap(gap)")
    # with its modulus, the gap gauge is a point code with a region
    assert isinstance(g, DirectCode) and g.region is not None
    assert eval_enclosure(g, up(F(0)), 10).lo >= F(1, 2)
    with pytest.raises(SpecError):
        parse_gauge("cauchy-gap(fibonacci)")


def test_builtin_oracle_pin():
    g = parse_gauge("oracle-pin(0101)")
    assert isinstance(g, DirectCode) and g.domain == "cantor"
    box = eval_enclosure(g, CantorPoint.from_pattern("1", "0"), 8)
    assert box.lo == box.hi == F(1, 2)
    with pytest.raises(SpecError):
        parse_gauge("oracle-pin(012)")


def test_builtin_heine_borel(tmp_path):
    cov = tmp_path / "two.cov"
    cov.write_text("-1/10 6/10\n4/10 11/10\n")
    g = parse_gauge(f"heine-borel({cov})")
    assert isinstance(g, ContinuousCode)
    assert value_at(g, F(1, 2)) == F(3, 80)
    with pytest.raises(SpecError):
        parse_gauge(f"heine-borel({tmp_path / 'missing.cov'})")


def test_heine_borel_relative_path_resolves_against_the_gauge_file(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "cov.txt").write_text("-1/10 6/10\n4/10 11/10\n")
    (sub / "g.txt").write_text("heine-borel(cov.txt)\n")
    monkeypatch.chdir(tmp_path)
    assert value_at(parse_gauge_file(str(sub / "g.txt")), F(1, 2)) == F(3, 80)


def test_parse_cover_file_with_tail():
    spec = parse_cover_file(
        "# demo cover\n-1/8 9/32\n1/4 9/8\ntail: 1/(n+2) 2^(-2*(n+2))\n"
    )
    assert spec.head == ((F(-1, 8), F(9, 32)), (F(1, 4), F(9, 8)))
    assert spec.tail(2) == (F(1, 4), F(1, 256))


@pytest.mark.parametrize(
    "text",
    [
        "1/2\n",
        "0 1 2\n",
        "tail: 1/(n+2)\n",
        "0 1\ntail: n n\ntail: n n\n",
        "tail: x x\n",
        "1/2 1/2\n",
    ],
)
def test_parse_cover_file_rejects(text):
    with pytest.raises(SpecError):
        parse_cover_file(text)


def test_parse_expr_const():
    assert parse_expr_const("3/4 + 2^-2") == F(1)
    with pytest.raises(SpecError):
        parse_expr_const("x + 1")


@pytest.mark.parametrize(
    "parse,text,line,col",
    [
        (parse_gauge, "1/(x)", 1, 2),
        (parse_gauge, "2^x", 1, 2),
        (parse_expr_const, "x + 1", 1, 1),
        (parse_gauge, "heine-borel(", 1, 13),
        (parse_gauge, "x\n\t+ @", 2, 4),
        (parse_cover_file, "0 1/2\n1/4 1\ntail: x n\n", 3, 1),
        (parse_cover_file, "0 1\ntail: 1/0 n\n", 2, 1),
        (parse_cover_file, "0 1\ntail: n 2\n", 2, 1),
        (parse_cover_file, "0 1\n1/2 1/4\n", 2, 1),
        # the tail rule fails only at n = 20, past the indices checked at parse time
        (lambda text: parse_cover_file(text).intervals_upto(24), "0 1\ntail: 1/(n-20) 1/2\n", 2, 1),
    ],
)
def test_errors_cite_column(parse, text, line, col):
    with pytest.raises(SpecError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_end_of_input_after_a_comment_points_past_it():
    with pytest.raises(SpecError) as err:
        parse_gauge("min(x, 1) +  # unfinished")
    assert (err.value.line, err.value.col) == (1, 26)


# Pieces of gauge text for the lexer property: every token kind, the
# built-ins with and without their argument, every arrow, comments and
# line breaks, blanks that are not newlines, letters, digits and symbols
# the grammar does not know, and word characters that are not letters.
_LEX_PIECES = (
    "0", "7", "42", "x", "n", "x1", "min", "baire1", "heine-borel", "cauchy-gap", "oracle-pin",
    "oracle-pin(01)", "(", ")", "+", "-", "*", "/", "^", "|", ",", "·", "->", "|->", "↦", "→",
    "#", "\n", "\r", "\t", " ", "\x1c", "\x85", "\u2028", "é", "Σ", "²", "½", "٣", "_", ";", "=", "@",
)


def _lexed(lex, text):
    """The (kind, text, line, col) of each token, or the error's message
    and position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(text)]
    except SpecError as e:
        return ("error", str(e), e.line, e.col)


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from(_LEX_PIECES), max_size=24).map("".join))
def test_lex_matches_the_reference_scanner(text):
    assert _lexed(_lex, text) == _lexed(ref_lex, text)


def test_token_pattern_classes_are_the_scanners_predicates():
    r"""The pattern scans blanks with [^\S\n] and names with \w, where the
    reference scanner asks str.isspace and str.isalnum; over every code
    point the two agree."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\S\n]", every) == [c for c in every if c.isspace() and c != "\n"]
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]


# Random expression trees as (text, exact evaluator, interval evaluator);
# every operator is bracketed, so the text means what the tree says. The
# interval evaluator is the reference for region evaluation: Interval ops
# on Fraction endpoints, with the endpoint formulas of interval arithmetic.
_RATS = st.fractions(min_value=-2, max_value=2, max_denominator=8)


def _ref_mul(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def _ref_abs(a):
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return Interval(-a.hi, -a.lo)
    return Interval(F(0), max(-a.lo, a.hi))


_REF = {
    "+": lambda a, b: Interval(a.lo + b.lo, a.hi + b.hi),
    "-": lambda a, b: Interval(a.lo - b.hi, a.hi - b.lo),
    "*": _ref_mul,
    "min": lambda a, b: Interval(min(a.lo, b.lo), min(a.hi, b.hi)),
    "max": lambda a, b: Interval(max(a.lo, b.lo), max(a.hi, b.hi)),
}


def _rat(q):
    return f"({q.numerator}/{q.denominator})", lambda x: q, lambda box: Interval.point(q)


def _ref_dist(qs, box):
    out = None
    for q in qs:
        d = _ref_abs(_REF["-"](box, Interval.point(q)))
        out = d if out is None else _REF["min"](out, d)
    return out


def _dist(qs):
    text = f"dist({', '.join(_rat(q)[0] for q in qs)})"
    return text, lambda x: min(abs(x - q) for q in qs), lambda box: _ref_dist(qs, box)


def _binary(t):
    (a, fa, ra), sym, (b, fb, rb) = t
    op = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v}[sym]
    return f"({a} {sym} {b})", lambda x: op(fa(x), fb(x)), lambda box: _REF[sym](ra(box), rb(box))


def _fold(name, boxes):
    out = boxes[0]
    for box in boxes[1:]:
        out = _REF[name](out, box)
    return out


def _min_max(t):
    name, args = t
    pick = min if name == "min" else max
    return (
        f"{name}({', '.join(a for a, _, _ in args)})",
        lambda x: pick(f(x) for _, f, _ in args),
        lambda box: _fold(name, [r(box) for _, _, r in args]),
    )


def _div(t):
    (a, fa, ra), q = t
    return f"({a} / {_rat(q)[0]})", lambda x: fa(x) / q, lambda box: _ref_mul(ra(box), Interval.point(1 / q))


def _trees(with_x: bool):
    leaves = [
        _RATS.map(_rat),
        st.integers(-4, 4).map(lambda k: (f"2^({k})", lambda x: F(2) ** k, lambda box: Interval.point(F(2) ** k))),
    ]
    if with_x:
        leaves += [st.just(("x", lambda x: x, lambda box: box)), st.lists(_RATS, min_size=1, max_size=3).map(_dist)]

    def extend(kids):
        return st.one_of(
            st.tuples(kids, st.sampled_from("+-*"), kids).map(_binary),
            st.tuples(kids, _RATS.filter(bool)).map(_div),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(kids, min_size=2, max_size=3)).map(_min_max),
            kids.map(lambda t: (f"|{t[0]}|", lambda x: abs(t[1](x)), lambda box: _ref_abs(t[2](box)))),
            kids.map(lambda t: (f"-({t[0]})", lambda x: -t[1](x), lambda box: _ref_mul(t[2](box), Interval.point(F(-1))))),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(tree=_trees(with_x=True), const=_trees(with_x=False), x=st.fractions(0, 1, max_denominator=64))
def test_rendered_trees_evaluate_exactly(tree, const, x):
    text, f, _ = tree
    assert value_at(parse_gauge(text), x) == f(x)
    text, f, _ = const
    assert parse_expr_const(text) == f(None)
    assert value_at(parse_gauge(text), x) == f(None)


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees(with_x=True),
    cell=st.integers(0, 12).flatmap(lambda level: st.tuples(st.integers(0, 2**level - 1), st.just(level))),
    x=st.fractions(0, 1, max_denominator=64),
    quad=st.tuples(st.fractions(0, 1, max_denominator=8), st.fractions(-1, 1, max_denominator=8).filter(bool)),
    k=st.integers(0, 40),
)
def test_rendered_trees_match_the_interval_reference(tree, cell, x, quad, k):
    """Region evaluation of a compiled gauge gives exactly the intervals of
    the Fraction reference, on dyadic cells, rational points and the
    approximants of quadratic irrationals."""
    text, _, ref = tree
    i, level = cell
    box = Interval(F(i, 2**level), F(i + 1, 2**level))
    g = parse_gauge(text)
    assert g.region_eval(box, k) == ref(box)
    assert g.region_eval(Interval.point(x), k) == ref(Interval.point(x))
    a, b = quad
    if ref_sign(a, b) >= 0 and ref_cmp((a, b), (1, 0)) <= 0:
        point = conftest.quad(a, b)
        near = point.approx(k)
        assert eval_enclosure(parse_gauge(text), point, k) == ref(Interval(max(near.lo, 0), min(near.hi, 1)))


# Rendered trees with every operator, for the fused kernels against the
# composed-closure reference (kernel_ref). A quarter of them hold one or two
# nodes that are errors on purpose: an exponent or divisor that reads x, a
# zero divisor, an exponent that is not an integer or beyond MAX_EXPONENT,
# x inside dist.
def _good_texts():
    leaves = st.one_of(
        st.just("x"),
        _RATS.map(lambda q: _rat(q)[0]),
        st.lists(_RATS, min_size=1, max_size=4).map(lambda qs: f"dist({', '.join(_rat(q)[0] for q in qs)})"),
        st.just("dist(1/2, (1/3 + 1/4), 2^(-3))"),
    )

    def extend(kids):
        return st.one_of(
            st.tuples(kids, st.sampled_from("+-*"), kids).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(kids, _RATS.filter(bool)).map(lambda t: f"({t[0]} / {_rat(t[1])[0]})"),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(kids, min_size=2, max_size=3)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"
            ),
            # a constant beside an operand, on either side, often inside
            # the operand's range on a coarse cell
            st.tuples(st.sampled_from(["min", "max"]), kids, st.fractions(0, 1, max_denominator=8), st.booleans()).map(
                lambda t: f"{t[0]}({_rat(t[2])[0]}, {t[1]})" if t[3] else f"{t[0]}({t[1]}, {_rat(t[2])[0]})"
            ),
            # one operand twice: both sides come back over one denominator
            st.tuples(kids, st.sampled_from(["+", "-", "*"])).map(lambda t: f"({t[0]} {t[1]} {t[0]})"),
            st.tuples(st.sampled_from(["min", "max"]), kids).map(lambda t: f"{t[0]}({t[1]}, {t[1]})"),
            kids.map(lambda a: f"|{a}|"),
            kids.map(lambda a: f"(-{a})"),
            st.integers(-6, 6).map(lambda e: f"2^({e})"),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def _bad_texts():
    good = _good_texts()
    bad = st.one_of(
        good.map(lambda a: f"2^(x + {a})"),
        st.tuples(good, good).map(lambda t: f"({t[0]} / (x * {t[1]}))"),
        good.map(lambda a: f"({a} / (1 - 1))"),
        st.sampled_from(["2^(1/2)", f"2^({MAX_EXPONENT} + 1)", "dist(1/3, x)"]),
    )
    return st.one_of(
        bad,
        st.tuples(good, st.sampled_from("+-*"), bad).map(lambda t: f"({t[0]} {t[1]}\n {t[2]})"),
        st.tuples(bad, bad).map(lambda t: f"max({t[0]}, {t[1]})"),
        st.tuples(bad, bad).map(lambda t: f"({t[0]} / {t[1]})"),
    )


def _texts():
    good, bad = _good_texts(), _bad_texts()
    return st.integers(0, 3).flatmap(lambda i: bad if i == 3 else good)


def _region_triples():
    cell = st.integers(0, 6).flatmap(lambda level: st.tuples(st.integers(0, 2**level - 1), st.just(level)))
    return st.lists(
        st.one_of(
            cell.map(lambda c: ("cell", c)),
            st.integers(1, 64).flatmap(lambda d: st.integers(0, d).map(lambda n: ("point", (n, n, d)))),
            cell.map(lambda c: ("thirds", (3 * c[0], 3 * c[0] + 2, 3 << c[1]))),
        ),
        min_size=1,
        max_size=6,
    )


def _spec_error(fn):
    try:
        return fn(), None
    except SpecError as e:
        return None, (str(e), e.line, e.col)


def _check_fused(text, triples, k):
    fused, err = _spec_error(lambda: parse_gauge(text))
    tree = _Parser(_lex(text)).parse()
    ref, ref_err = _spec_error(lambda: compile_ref(tree, {}))
    assert err == ref_err
    if err is not None:
        return
    if isinstance(ref, F):
        ref = continuous_const(ref)
    # the coarse cells first: there an operand's range meets a constant's
    regions = [("cell", (0, 0)), ("cell", (0, 1)), ("cell", (1, 1)), *triples]
    for shape, (i, level) in (r for r in regions if r[0] == "cell"):
        cyl = Cylinder(i, level)
        assert pullback_gauge_phi(fused).region_eval(cyl, k) == pullback_gauge_phi(ref).region_eval(cyl, k)
    triples = [(r[0], r[0] + 1, 1 << r[1]) if shape == "cell" else r for shape, r in regions]
    for node, _ in _walk(tree):
        got, want = _compile(node, {}), compile_ref(node, {})
        if isinstance(want, F):
            assert got == want
            continue
        for r in triples:
            assert rt_interval(got(r, k)) == rt_interval(want.kernel(r, k)), node


@settings(max_examples=300, deadline=None)
@given(text=_texts(), triples=_region_triples(), k=st.integers(0, 20))
# one operand twice, so both sides come over one denominator; a constant
# beside max on either side; regions over dist's own point denominator
@example(text="(|x - 1/3| + |x - 1/3|)", triples=[("thirds", (3, 5, 12))], k=4)
@example(text="(|x - 1/3| - |x - 1/3|)", triples=[("thirds", (3, 5, 12))], k=4)
@example(text="min(|x - 1/3|, |x - 1/3|)", triples=[("thirds", (3, 5, 12))], k=4)
@example(text="max(|x - 1/3|, |x - 1/3|)", triples=[("thirds", (3, 5, 12))], k=4)
@example(text="max(x, 1/4)", triples=[("point", (1, 1, 8))], k=4)
@example(text="max(1/4, x)", triples=[("point", (1, 1, 8))], k=4)
@example(text="dist(1/3, 2/3)", triples=[("thirds", (0, 2, 3)), ("point", (1, 1, 3))], k=4)
def test_fused_kernels_match_the_composed_reference(text, triples, k):
    """One fused kernel per expression encloses exactly the rationals of the
    composed closures, on dyadic cells, exact points, non-dyadic triples
    and through phi on cylinders; a bad expression raises the same
    SpecError, at the same line and column. Every subexpression is
    compared on its own too, so an outer operator cannot mask an inner
    one's error."""
    _check_fused(text, triples, k)


@pytest.mark.parametrize(
    "text",
    [
        # a constant folded into min or max: inside, below and above the operand
        "min((1/2), |x - (1/3)|)",
        "min((x + (2/1)), (1/2))",
        "max(x, (1/2))",
        "max((x - (2/1)), (1/2))",
        # one operand twice, so both sides share a denominator
        "(x + x)",
        "(x - x)",
        "(x * (x - (1/2)))",
        "min(x, x)",
        "max(|x - (1/3)|, |x - (1/3)|)",
        # operands over different denominators
        "(dist((1/3)) - (x / (5/1)))",
        "(|x - (1/3)| + (x * (2/5)))",
        "max(dist((1/3), (5/6)), ((1/2) - x))",
        "min(|x|, (x * (2/3)))",
        # offsets and scalings folded into one closure, of x and of others
        "((2/1) * ((x / (3/1)) + (1/4)))",
        "((-|(x - (1/2))|) + (1/3))",
        "dist((1/4), (3/4), (1/2))",
        "|(x - (2/1))|",
        # errors, each at its own node
        "(x + 2^(x))",
        "((x / x) - (1 / (1 - 1)))",
        f"max(2^(1/2), 2^({MAX_EXPONENT} + 1))",
        "(1 + dist((1/3), x))",
        "(2^(1/2) / 2^(x))",
    ],
)
def test_fused_kernels_match_the_composed_reference_on_each_branch(text):
    """Inputs that reach every branch of the fused kernels, which random
    trees reach only now and then."""
    _check_fused(text, [("thirds", (3, 5, 12)), ("point", (1, 1, 3))], 4)
