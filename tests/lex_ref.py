"""Reference lexer for gauge text: the character-by-character scanner that
`gaugespec._lex` replaced with one token pattern, kept here with its own
tables so the property tests can compare the two on arbitrary text. It
returns the same kinds, texts and 1-based positions, and raises the same
SpecError messages at the same places."""

from dataclasses import dataclass

from finecover.gaugespec import SpecError

_BUILTINS = ("heine-borel", "cauchy-gap", "oracle-pin")
_DIGITS = frozenset("0123456789")
# symbol text -> token; arrows are tried before the one-character symbols
# "|" and "-" they start with, and the last two arrows are typeset variants
_ARROWS = ("|->", "->", "↦", "→")
_SYMBOLS = {c: ("sym", c) for c in "()+-*/^|,"}
_SYMBOLS.update({a: ("arrow", a) for a in _ARROWS})
_SYMBOLS["·"] = ("sym", "*")  # middle dot multiplies


@dataclass(frozen=True)
class RefTok:
    kind: str  # num name sym arrow raw end
    text: str
    line: int
    col: int


def ref_lex(src: str) -> list:
    toks = []
    n = len(src)
    line, line_start, i = 1, 0, 0

    def scan(j: int, ok) -> int:
        while j < n and ok(src[j]):
            j += 1
        return j

    def col(at: int) -> int:
        return at - line_start + 1

    def tok(kind: str, text: str, at: int) -> None:
        toks.append(RefTok(kind, text, line, col(at)))

    while i < n:
        c, start = src[i], i
        if c == "\n":
            line, line_start, i = line + 1, i + 1, i + 1
        elif c.isspace():
            i += 1
        elif c == "#":
            i = scan(i, lambda ch: ch != "\n")
        elif c in _DIGITS:
            i = scan(i, _DIGITS.__contains__)
            tok("num", src[start:i], start)
        elif c.isalpha():
            hit = next((b for b in _BUILTINS if src.startswith(b, i)), None)
            if hit is None:
                i = scan(i, lambda ch: ch.isalnum() or ch == "_")
                tok("name", src[start:i], start)
                continue
            # built-in arguments (paths, bit patterns) are captured raw, up
            # to the matching close paren on the same line
            tok("name", hit, start)
            i = scan(i + len(hit), lambda ch: ch.isspace() and ch != "\n")
            if i >= n or src[i] != "(":
                raise SpecError(f"{hit} needs a parenthesized argument", line, col(i))
            tok("sym", "(", i)
            depth, j = 1, i + 1
            while j < n and src[j] != "\n" and depth:
                depth += {"(": 1, ")": -1}.get(src[j], 0)
                j += 1
            if depth:
                raise SpecError(f"unclosed {hit}(...)", line, col(j))
            tok("raw", src[i + 1 : j - 1], i + 1)
            tok("sym", ")", j - 1)
            i = j
        else:
            text = next((a for a in _ARROWS if src.startswith(a, i)), c)
            if text not in _SYMBOLS:
                raise SpecError(f"stray character {c!r}", line, col(i))
            tok(*_SYMBOLS[text], start)
            i += len(text)
    tok("end", "", i)
    return toks
