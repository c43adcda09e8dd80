"""Text grammar for gauges.

Expressions over rationals with the variable x: constants, absolute value,
+ - * /, min, max, dist to a finite set of rationals, powers 2^(-e) with
integer exponent. baire1(n -> expr) builds a stage-indexed code, n starting
at 1; baire2 nests one more level. Built-ins name the showcase gauges:
heine-borel(cover-file), cauchy-gap(seq-name), oracle-pin(bit-pattern).

Division and exponents must not depend on x; the index n is fine. An
expression nests at most MAX_DEPTH levels. Every error carries the 1-based
line and column it was noticed at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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
    continuous_abs,
    continuous_add,
    continuous_const,
    continuous_dist_to,
    continuous_identity,
    continuous_max,
    continuous_min,
    continuous_mul,
    continuous_scale,
    continuous_sub,
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
# The bound keeps the recursive parser and the tree walkers below far from
# Python's recursion limit.
MAX_DEPTH = 100
_ARROWS = ("->", "|->")


@dataclass(frozen=True)
class _Tok:
    kind: str  # num name sym arrow end
    text: str
    line: int
    col: int


def _lex(src: str) -> list:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("num", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            hit = next(
                (b for b in _BUILTINS if src.startswith(b, i)), None
            )
            if hit is not None:
                # built-in arguments (paths, bit patterns) are captured raw,
                # up to the matching close paren
                toks.append(_Tok("name", hit, start_line, start_col))
                i += len(hit)
                col += len(hit)
                while i < n and src[i].isspace() and src[i] != "\n":
                    i += 1
                    col += 1
                if i >= n or src[i] != "(":
                    raise SpecError(f"{hit} needs a parenthesized argument", line, col)
                toks.append(_Tok("sym", "(", line, col))
                i += 1
                col += 1
                depth = 1
                arg_line, arg_col = line, col
                buf = []
                while i < n and depth > 0:
                    ch = src[i]
                    if ch == "(":
                        depth += 1
                    elif ch == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif ch == "\n":
                        raise SpecError(f"unclosed {hit}(...)", line, col)
                    buf.append(ch)
                    i += 1
                    col += 1
                if depth != 0:
                    raise SpecError(f"unclosed {hit}(...)", line, col)
                toks.append(_Tok("raw", "".join(buf), arg_line, arg_col))
                toks.append(_Tok("sym", ")", line, col))
                i += 1
                col += 1
                continue
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        arrow = next((a for a in _ARROWS if src.startswith(a, i)), None)
        if arrow is not None:
            toks.append(_Tok("arrow", arrow, start_line, start_col))
            i += len(arrow)
            col += len(arrow)
            continue
        if c == "↦" or c == "→":  # typeset arrow variants
            toks.append(_Tok("arrow", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "·":  # middle dot multiplies
            toks.append(_Tok("sym", "*", start_line, start_col))
            i += 1
            col += 1
            continue
        if c in "()+-*/^|,":
            toks.append(_Tok("sym", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise SpecError(f"stray character {c!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


# AST: tuples (op, loc, *args) with loc = (line, col)
# ops: const x idx abs add sub mul div neg min max dist pow2 baire1 baire2 builtin


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
        # operator chains nest in the tree but not in the parser; walk it
        # without recursion to find the deepest node
        stack = [(node, 1)]
        while stack:
            sub, level = stack.pop()
            if level > MAX_DEPTH:
                raise SpecError(f"expression nested deeper than {MAX_DEPTH} levels", *sub[1])
            kids = sub[2] if sub[0] == "dist" else sub[2:]
            stack.extend((k, level + 1) for k in kids if isinstance(k, tuple))
        return node

    def expr(self):
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if t.text == "+" else "sub", (t.line, t.col), node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            t = self.peek()
            if t.kind == "sym" and t.text in "*/":
                self.take()
                rhs = self.unary()
                node = ("mul" if t.text == "*" else "div", (t.line, t.col), node, rhs)
            else:
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
            return ("const", loc, Fraction(int(t.text)))
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


def _free_x(node) -> bool:
    op = node[0]
    if op == "x":
        return True
    if op in ("const", "idx"):
        return False
    if op == "dist":
        return True  # distance is measured from x even when args are constant
    if op in ("baire1", "baire2"):
        return _free_x(node[3])
    if op == "builtin":
        return False
    return any(_free_x(a) for a in node[2:] if isinstance(a, tuple))


def _eval_const(node, env: dict) -> Fraction:
    op, loc = node[0], node[1]
    if op == "const":
        return node[2]
    if op == "idx":
        return Fraction(env[node[2]])
    if op == "x":
        raise SpecError("x is not allowed here", *loc)
    if op == "neg":
        return -_eval_const(node[2], env)
    if op == "abs":
        return abs(_eval_const(node[2], env))
    if op in ("add", "sub", "mul", "div", "min", "max"):
        a = _eval_const(node[2], env)
        b = _eval_const(node[3], env)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "min":
            return min(a, b)
        if op == "max":
            return max(a, b)
        if b == 0:
            raise SpecError("division by zero", *loc)
        return a / b
    if op == "pow2":
        e = _eval_const(node[2], env)
        if e.denominator != 1:
            raise SpecError(f"exponent must be an integer, got {e}", *loc)
        return pow2(int(e))
    raise SpecError(f"not a constant expression ({op})", *loc)


_BINARY = {
    "add": continuous_add,
    "sub": continuous_sub,
    "mul": continuous_mul,
    "min": continuous_min,
    "max": continuous_max,
}


def _compile_region(node, env: dict) -> ContinuousCode:
    """Compose the continuous code of an expression whose only free
    variable is x. Index names are frozen via env."""
    op, loc = node[0], node[1]
    if op == "x":
        return continuous_identity()
    if not _free_x(node):
        return continuous_const(_eval_const(node, env))
    if op == "neg":
        return continuous_scale(-1, _compile_region(node[2], env))
    if op == "abs":
        return continuous_abs(_compile_region(node[2], env))
    if op in _BINARY:
        return _BINARY[op](_compile_region(node[2], env), _compile_region(node[3], env))
    if op == "div":
        if _free_x(node[3]):
            raise SpecError("divisor may not depend on x", *loc)
        d = _eval_const(node[3], env)
        if d == 0:
            raise SpecError("division by zero", *loc)
        return continuous_scale(1 / d, _compile_region(node[2], env))
    if op == "pow2":
        raise SpecError("exponent may not depend on x", *loc)
    if op == "dist":
        return continuous_dist_to([_eval_const(a, env) for a in node[2]])
    raise SpecError(f"{op} cannot appear inside a gauge expression", *loc)


def _continuous(node, env: dict, label: str) -> ContinuousCode:
    return ContinuousCode(_compile_region(node, env).region_eval, domain="unit", label=label)


def compile_gauge(node, base_dir: str = ".") -> GaugeCode:
    op, loc = node[0], node[1]
    if op == "baire1":
        idx, body = node[2], node[3]

        def term(t: int, _idx=idx, _body=body) -> ContinuousCode:
            return _continuous(_body, {_idx: t}, label=f"term-{t}")

        return Baire1Code(term, domain="unit", label="spec-baire1")
    if op == "baire2":
        idx, body = node[2], node[3]
        inner_idx, inner_body = body[2], body[3]

        def term2(t: int, _oi=idx, _ii=inner_idx, _ib=inner_body) -> Baire1Code:
            def term1(s: int) -> ContinuousCode:
                return _continuous(_ib, {_oi: t, _ii: s}, label=f"term-{t}-{s}")

            return Baire1Code(term1, domain="unit", label=f"spec-baire1-{t}")

        return Baire2Code(term2, domain="unit", label="spec-baire2")
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
    if _free_x(node) or op in ("const", "add", "sub", "mul", "div", "neg", "abs", "min", "max", "dist", "pow2", "x"):
        return _continuous(node, {}, label="spec")
    raise SpecError(f"cannot compile {op} as a gauge", *loc)


def parse_gauge(text: str, base_dir: str = ".") -> GaugeCode:
    """Text to gauge code. The result evaluates over the unit interval
    except for oracle-pin, which lives on the sequence space."""
    return compile_gauge(_Parser(_lex(text)).parse(), base_dir=base_dir)


def parse_gauge_file(path: str) -> GaugeCode:
    with open(path) as fh:
        text = fh.read()
    return parse_gauge(text, base_dir=os.path.dirname(os.path.abspath(path)))


def parse_expr_const(text: str, env: Optional[dict] = None) -> Fraction:
    """Evaluate a closed expression (no x), e.g. a CLI epsilon or a tail
    rule instantiated at a concrete index."""
    env = env or {}
    node = _Parser(_lex(text), free_names=tuple(env)).parse()
    return _eval_const(node, env)


def parse_cover_file(text: str) -> OpenCoverSpec:
    """One open interval "a b" per line (rational endpoints), comments with
    '#', and at most one "tail: center-expr radius-expr" line whose
    expressions may use the index n."""
    head = []
    tail_exprs = None
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
            except SpecError as e:
                raise SpecError(f"in tail rule: {e}", ln, 1)
            for t in tail_exprs:
                if _free_x(t):
                    raise SpecError("tail rule may use n but not x", ln, 1)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SpecError("interval line needs two endpoints", ln, 1)
        try:
            a, b = (parse_expr_const(p) for p in parts)
        except (SpecError, ValueError) as e:
            raise SpecError(f"bad endpoint: {e}", ln, 1)
        head.append((a, b))
    tail = None
    if tail_exprs is not None:
        ce, re = tail_exprs

        def tail(n: int):
            return (_eval_const(ce, {"n": n}), _eval_const(re, {"n": n}))

    try:
        return OpenCoverSpec(tuple(head), tail=tail)
    except ValueError as e:
        raise SpecError(str(e), 1, 1)
