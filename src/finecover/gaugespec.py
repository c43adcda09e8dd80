"""Text grammar for gauges.

Expressions over rationals with the variable x: constants, absolute value,
+ - * /, min, max, dist to a finite set of rationals, powers 2^(-e) with
integer exponent. baire1(n -> expr) builds a stage-indexed code, n starting
at 1; baire2 nests one more level. Built-ins name the showcase gauges:
heine-borel(cover-file), cauchy-gap(seq-name), oracle-pin(bit-pattern).

One pass over the parsed expression folds its x-free parts to exact
constants and builds the rest as one fused kernel from the kernel_*
builders of `finecover.gauges`: one closure per node that reads x, with
each constant operand of +, -, * and min folded into its operator, and
that of max read as a point kernel. Within a baire1/baire2
body, each largest part that reads x but no index is compiled once per
gauge and shared by every term. Gauge text never becomes Python source.

Text becomes tokens by one compiled pattern, `_TOKEN`, matched once per
token. Its alternatives, in the order they are tried: a newline; other
blanks (exactly what `str.isspace` accepts); a comment from # to the end
of the line; a numeral of ASCII digits; a built-in name; any other name,
a run of `str.isalnum` characters and underscores that starts with a
letter (checked after the match, since "_" and digits such as "²" match
too); an arrow (-> |-> ↦ →); a one-character symbol, the middle dot ·
meaning *. A built-in's argument, up to its matching close paren on the
same line, is captured raw by the lexer's one hand scan.

Division and exponents must not depend on x; the index n is fine. An
expression nests at most MAX_DEPTH levels, and an exponent is at most
MAX_EXPONENT in size. Every error carries the 1-based line and column it
was noticed at.
"""

from __future__ import annotations

import operator
import os
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import pow2
from .gallery import (
    OpenCoverSpec,
    OracleSpec,
    cauchy_gap_gauge,
    default_cauchy_spec,
    heine_borel_gauge,
    oracle_pin_gauge,
)
from .gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    GaugeCode,
    continuous_const,
    kernel_abs,
    kernel_add,
    kernel_dist,
    kernel_linear,
    kernel_max,
    kernel_memo,
    kernel_min,
    kernel_min_const,
    kernel_mul,
    kernel_sub,
    kernel_x,
)
from .serialize import parse_bits


class SpecError(ValueError):
    """Bad gauge text; line and col are 1-based positions in the source."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


_BUILTINS = ("heine-borel", "cauchy-gap", "oracle-pin")
# Levels an expression may nest: an operand is one level, and every
# bracket, sign, exponent, argument list or operator around it adds one.
# The bound keeps the recursive parser and compiler far from Python's
# recursion limit.
MAX_DEPTH = 100
# Largest |e| in 2^e. It is checked before the power is formed, so no
# power a text asks for, at parse time or in a term at some index, has
# more than 65,537 bits.
MAX_EXPONENT = 1 << 16
# The group that matched names the token's kind, and blanks and comments
# match none. No quantifier nests, so lexing is linear in the text.
_TOKEN = re.compile(
    r"(?P<newline>\n)|[^\S\n]+|#[^\n]*|(?P<num>[0-9]+)"
    rf"|(?P<builtin>{'|'.join(_BUILTINS)})[^\S\n]*|(?P<name>\w+)"
    r"|(?P<arrow>\|->|->|↦|→)|(?P<sym>[()+\-*/^|,·])"
)


class _Tok(NamedTuple):
    kind: str  # num name sym arrow raw end
    text: str
    line: int
    col: int


def _lex(src: str) -> list:
    toks = []
    line, line_start, i, n = 1, 0, 0, len(src)
    while i < n:
        m = _TOKEN.match(src, i)
        col = i - line_start + 1
        if m is None or m.lastgroup == "name" and not src[i].isalpha():
            raise SpecError(f"stray character {src[i]!r}", line, col)
        kind, i = m.lastgroup, m.end()
        if kind == "newline":
            line, line_start = line + 1, i
        elif kind == "builtin":
            # built-in arguments (paths, bit patterns) are captured raw, up
            # to the matching close paren on the same line
            hit = m["builtin"]
            toks.append(_Tok("name", hit, line, col))
            col = i - line_start + 1  # of the "("
            if not src.startswith("(", i):
                raise SpecError(f"{hit} needs a parenthesized argument", line, col)
            depth, j = 1, i + 1
            while j < n and src[j] != "\n" and depth:
                depth += {"(": 1, ")": -1}.get(src[j], 0)
                j += 1
            if depth:
                raise SpecError(f"unclosed {hit}(...)", line, j - line_start + 1)
            toks += [_Tok("sym", "(", line, col), _Tok("raw", src[i + 1 : j - 1], line, col + 1),
                     _Tok("sym", ")", line, j - line_start)]
            i = j
        elif kind:
            toks.append(_Tok(kind, "*" if m[0] == "·" else m[0], line, col))
    toks.append(_Tok("end", "", line, i - line_start + 1))
    return toks


# AST: tuples (op, loc, *args) with loc = (line, col)
# ops: const x idx abs add sub mul div neg min max dist pow2 baire1 baire2 builtin


def _walk(node):
    """Every node of a tree with its nesting level, without recursion."""
    stack = [(node, 1)]
    while stack:
        sub, level = stack.pop()
        yield sub, level
        kids = sub[2] if sub[0] == "dist" else sub[2:]
        stack.extend((k, level + 1) for k in kids if isinstance(k, tuple))


_BINOPS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class _Parser:
    def __init__(self, toks: list, free_names: tuple = ()):
        self.toks = toks
        self.pos = 0
        self.bound: list = list(free_names)  # index names in scope, innermost last
        self.depth = 0  # operands open on the parse stack

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_sym(self, s: str) -> _Tok:
        t = self.peek()
        if t.kind == "sym" and t.text == s:
            return self.take()
        raise SpecError(f"expected {s!r}, found {t.text or 'end of input'!r}", t.line, t.col)

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise SpecError(f"trailing input starting at {t.text!r}", t.line, t.col)
        # operator chains nest in the tree but not in the parser
        for sub, level in _walk(node):
            if level > MAX_DEPTH:
                raise SpecError(f"expression nested deeper than {MAX_DEPTH} levels", *sub[1])
        return node

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.unary)

    def chain(self, ops: str, operand):
        """operand (op operand)*, folded to the left, for the symbols in ops."""
        node = operand()
        while (t := self.peek()).kind == "sym" and t.text in ops:
            self.take()
            node = (_BINOPS[t.text], (t.line, t.col), node, operand())
        return node

    def unary(self):
        # every recursion of the parser passes through here
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SpecError(f"expression nested deeper than {MAX_DEPTH} levels", t.line, t.col)
        if t.kind == "sym" and t.text == "-":
            self.take()
            node = ("neg", (t.line, t.col), self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        t = self.peek()
        if t.kind == "sym" and t.text == "^":
            self.take()
            if base[0] != "const" or base[2] != 2:
                bl, bc = base[1]
                raise SpecError("only powers of 2 are supported", bl, bc)
            exp = self.unary()
            return ("pow2", (t.line, t.col), exp)
        return base

    def atom(self):
        t = self.take()
        loc = (t.line, t.col)
        if t.kind == "num":
            try:
                return ("const", loc, Fraction(int(t.text)))
            except ValueError:  # longer than the interpreter's int-string limit
                raise SpecError(f"numeral of {len(t.text)} digits is too long", t.line, t.col) from None
        if t.kind == "sym" and t.text == "(":
            node = self.expr()
            self.expect_sym(")")
            return node
        if t.kind == "sym" and t.text == "|":
            node = self.expr()
            tt = self.peek()
            if not (tt.kind == "sym" and tt.text == "|"):
                raise SpecError("unclosed |...|", t.line, t.col)
            self.take()
            return ("abs", loc, node)
        if t.kind == "name":
            return self.named(t)
        raise SpecError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)

    def named(self, t: _Tok):
        loc = (t.line, t.col)
        name = t.text
        if name == "x":
            return ("x", loc)
        if name in self.bound:
            return ("idx", loc, name)
        if name in ("min", "max", "dist"):
            self.expect_sym("(")
            args = [self.expr()]
            while self.peek().text == ",":
                self.take()
                args.append(self.expr())
            self.expect_sym(")")
            if name == "dist":
                return ("dist", loc, args)
            if len(args) < 2:
                raise SpecError(f"{name} needs at least two arguments", t.line, t.col)
            node = args[0]
            for a in args[1:]:
                node = (name, loc, node, a)
            return node
        if name in ("baire1", "baire2"):
            self.expect_sym("(")
            it = self.take()
            if it.kind != "name" or it.text in ("x", "min", "max", "dist", "baire1", "baire2") or it.text in self.bound:
                raise SpecError("combinator needs a fresh index name", it.line, it.col)
            at = self.take()
            if at.kind != "arrow":
                raise SpecError("expected -> after the index name", at.line, at.col)
            self.bound.append(it.text)
            body = self.expr()
            self.bound.pop()
            self.expect_sym(")")
            if name == "baire2" and body[0] != "baire1":
                raise SpecError("baire2 body must be a baire1(...) expression", it.line, it.col)
            return (name, loc, it.text, body)
        if name in _BUILTINS:
            self.expect_sym("(")
            arg = self.take()
            if arg.kind != "raw":
                raise SpecError(f"missing argument to {name}", arg.line, arg.col)
            self.expect_sym(")")
            return ("builtin", loc, name, arg.text)
        raise SpecError(f"unknown name {name!r}", t.line, t.col)


# Each operator's exact operation on constants, its fused kernel on kernels,
# and, for a binary one, its kernel with one constant operand c:
# fold(a, c, left) for the other operand's kernel a, left when c is the
# left operand. max takes c as its point kernel; the others fold it in.
_OPS = {
    "neg": (operator.neg, lambda a: kernel_linear(a, -1, 0), None),
    "abs": (abs, kernel_abs, None),
    "add": (operator.add, kernel_add, lambda a, c, left: kernel_linear(a, 1, c)),
    "sub": (operator.sub, kernel_sub, lambda a, c, left: kernel_linear(a, -1, c) if left else kernel_linear(a, 1, -c)),
    "mul": (operator.mul, kernel_mul, lambda a, c, left: kernel_linear(a, c, 0)),
    "min": (min, kernel_min, lambda a, c, left: kernel_min_const(a, c)),
    "max": (max, kernel_max, lambda a, c, left: kernel_max(a, continuous_const(c).kernel)),
}
# what keeps an expression from being a constant: x, dist (measured from
# x), and the combinators and built-ins, which are gauges themselves
_NOT_CONSTANT = ("x", "dist", "baire1", "baire2", "builtin")


def _compile(node, env: dict, shared: Optional[dict] = None):
    """The exact Fraction of an x-free expression, or the fused kernel of
    one that depends on x (see the kernel_* builders of `gauges`), in one
    pass. Index names are frozen via env. Constants are tested by exact
    type: a limit code compiles its terms while it is evaluated, and an
    isinstance test against Fraction goes through the numbers ABCs.
    shared maps the id of a node to its memoized kernel once compiled, and
    to None until then (see _shared_parts)."""
    if shared is not None and id(node) in shared:
        kernel = shared[id(node)]
        if kernel is None:
            kernel = shared[id(node)] = kernel_memo(_compile(node, env))
        return kernel
    op, loc = node[0], node[1]
    if op == "const":
        return node[2]
    if op == "idx":
        return Fraction(env[node[2]])
    if op == "x":
        return kernel_x
    if op == "dist":
        return kernel_dist([_constant(a, env) for a in node[2]])
    if op == "pow2":
        e = _compile(node[2], env, shared)
        if type(e) is not Fraction:
            raise SpecError("exponent may not depend on x", *loc)
        if e.denominator != 1:
            raise SpecError(f"exponent must be an integer, got {e}", *loc)
        if abs(e) > MAX_EXPONENT:
            raise SpecError(f"exponent beyond +-{MAX_EXPONENT}", *loc)
        return pow2(int(e))
    if op == "div":
        a, d = _compile(node[2], env, shared), _compile(node[3], env, shared)
        if type(d) is not Fraction:
            raise SpecError("divisor may not depend on x", *loc)
        if d == 0:
            raise SpecError("division by zero", *loc)
        return a / d if type(a) is Fraction else kernel_linear(a, 1 / d, 0)
    if op in _OPS:
        exact, fused, fold = _OPS[op]
        args = [_compile(a, env, shared) for a in node[2:]]
        const = [type(a) is Fraction for a in args]
        if all(const):
            return exact(*args)
        if any(const):
            a, b = args
            return fold(b, a, True) if const[0] else fold(a, b, False)
        return fused(*args)
    raise SpecError(f"{op} cannot appear inside an expression", *loc)


def _check_constant(node) -> None:
    """Raise at the first node, in source order, that is not constant."""
    bad = min((sub for sub, _ in _walk(node) if sub[0] in _NOT_CONSTANT), key=lambda sub: sub[1], default=None)
    if bad is not None:
        raise SpecError("x is not allowed here" if bad[0] == "x" else f"not a constant expression ({bad[0]})", *bad[1])


def _constant(node, env: dict) -> Fraction:
    """The exact value of an expression that may not read x."""
    _check_constant(node)
    return _compile(node, env)


def _continuous(node, env: dict, label: str, shared: Optional[dict] = None) -> ContinuousCode:
    kernel = _compile(node, env, shared)
    if type(kernel) is Fraction:
        kernel = continuous_const(kernel).kernel
    return ContinuousCode(kernel, domain="unit", label=label)


def _shared_parts(body) -> dict:
    """The largest parts of a limit body that read x (or dist) but no index,
    bare x aside, keyed by id with None for a kernel not yet compiled.
    Their value at (r, k) is the same in every term."""
    parts = {}

    def scan(node) -> tuple:
        # whether node reads x and whether it reads an index; the parts
        # below a node that reads an index are recorded there
        op = node[0]
        kids = [k for k in (node[2] if op == "dist" else node[2:]) if isinstance(k, tuple)]
        flags = [scan(k) for k in kids]
        reads_x = op in ("x", "dist") or any(f[0] for f in flags)
        reads_idx = op == "idx" or any(f[1] for f in flags)
        if reads_idx and op != "dist":  # dist arguments are constants
            parts.update((id(k), None) for k, (kx, ki) in zip(kids, flags) if kx and not ki and k[0] != "x")
        return reads_x, reads_idx

    reads_x, reads_idx = scan(body)
    if reads_x and not reads_idx and body[0] != "x":
        parts[id(body)] = None
    return parts


def _limit(node, env: dict, names: str = "", shared: Optional[dict] = None):
    """The code of a baire1 or baire2 node; term t binds its index to t.
    names holds the outer indices' values, "-t" each, for the labels.
    The parts of the innermost body that read no index are compiled once
    per gauge, by the first term compile that reaches them, so an error
    in one surfaces when it did per term; the terms of a block share one
    evaluation of each (see _shared_parts)."""
    op, idx, body = node[0], node[2], node[3]
    if shared is None:
        shared = _shared_parts(body[3] if op == "baire2" else body)

    def term(t: int):
        if op == "baire2":
            return _limit(body, {**env, idx: t}, f"{names}-{t}", shared)
        return _continuous(body, {**env, idx: t}, label=f"term{names}-{t}", shared=shared)

    code = Baire2Code if op == "baire2" else Baire1Code
    return code(term, domain="unit", label=f"spec-{op}{names}")


def compile_gauge(node, base_dir: str = ".") -> GaugeCode:
    op, loc = node[0], node[1]
    if op in ("baire1", "baire2"):
        return _limit(node, {})
    if op == "builtin":
        name, arg = node[2], node[3]
        if name == "heine-borel":
            path = arg.strip().strip('"')
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError as e:
                raise SpecError(f"cannot read cover file: {e}", *loc)
            return heine_borel_gauge(parse_cover_file(text))
        if name == "cauchy-gap":
            seq = arg.strip() or "gap"
            if seq != "gap":
                raise SpecError(f"unknown sequence preset {seq!r}", *loc)
            return cauchy_gap_gauge(default_cauchy_spec())
        if name == "oracle-pin":
            try:
                z = parse_bits(arg)
            except ValueError as e:
                raise SpecError(str(e), *loc)
            return oracle_pin_gauge(OracleSpec(z))
        raise SpecError(f"unknown built-in {name!r}", *loc)
    return _continuous(node, {}, label="spec")


def parse_gauge(text: str, base_dir: str = ".") -> GaugeCode:
    """Text to gauge code. The result evaluates over the unit interval
    except for oracle-pin, which lives on the sequence space."""
    return compile_gauge(_Parser(_lex(text)).parse(), base_dir=base_dir)


def parse_gauge_file(path: str) -> GaugeCode:
    with open(path) as fh:
        text = fh.read()
    return parse_gauge(text, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_expr_const(text: str) -> Fraction:
    """Evaluate a closed expression (no x and no index), e.g. a CLI epsilon."""
    return _constant(_Parser(_lex(text)).parse(), {})


def parse_cover_file(text: str) -> OpenCoverSpec:
    """One open interval "a b" per line (rational endpoints), comments with
    '#', and at most one "tail: center-expr radius-expr" line whose
    expressions may use the index n."""
    head = []
    tail_exprs, tail_ln = None, 0
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tail:"):
            if tail_exprs is not None:
                raise SpecError("second tail rule", ln, 1)
            parts = line[5:].split()
            if len(parts) != 2:
                raise SpecError("tail rule needs exactly two expressions", ln, 1)
            try:
                tail_exprs = tuple(_Parser(_lex(p), free_names=("n",)).parse() for p in parts)
                for t in tail_exprs:
                    _check_constant(t)
            except SpecError as e:
                raise SpecError(f"in tail rule: {e}", ln, 1)
            tail_ln = ln
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SpecError("interval line needs two endpoints", ln, 1)
        try:
            a, b = (parse_expr_const(p) for p in parts)
        except (SpecError, ValueError) as e:
            raise SpecError(f"bad endpoint: {e}", ln, 1)
        try:
            OpenCoverSpec(((a, b),))  # checked on its own, so an error cites this line
        except ValueError as e:
            raise SpecError(str(e), ln, 1)
        head.append((a, b))
    tail = None
    if tail_exprs is not None:
        center, radius = tail_exprs

        def tail(n: int):
            # called at any index while a search runs, so a failure cites the rule's line
            try:
                return (_compile(center, {"n": n}), _compile(radius, {"n": n}))
            except ValueError as e:
                raise SpecError(f"in tail rule: {e}", tail_ln, 1)

    try:
        return OpenCoverSpec(tuple(head), tail=tail)
    except SpecError:
        raise  # from the tail rule, already at its line
    except ValueError as e:  # the head intervals passed on their own lines
        raise SpecError(f"in tail rule: {e}", tail_ln, 1)
