"""Limit codes that evaluate every query afresh: the reference the limit
codes of `finecover.gauges` are checked against.

`limit_eval_ref` is the evaluation body as it was before a limit code kept
the stage and enclosure of each point's last query: every query reads the
whole trailing block again. `Baire1Ref` and `Baire2Ref` evaluate by it, and
`ref_spec` builds the code of a baire1/baire2 gauge text whose terms are
compiled one by one by `kernel_ref.compile_ref`, so no part of the body is
shared between terms.

`ModulusRef` is the reference for a limit under a declared modulus, which
`finecover.gauges.modulus_limit` builds: in Intervals, with the modulus
scanned afresh on every query.
"""

from fractions import Fraction

from interval_ref import ref_intersect, ref_pad
from kernel_ref import compile_ref

from finecover.exact import CauchyViolation, pow2, rt_block, rt_interval, rt_of
from finecover.gauges import Baire1Code, Baire2Code, _block, continuous_const
from finecover.gaugespec import _lex, _Parser


def limit_eval_ref(self, x, stage: int) -> tuple:
    lo_n, hi_n = _block(stage)
    return rt_block([self.term(n)._eval(x, stage) for n in range(lo_n, hi_n + 1)])


class Baire1Ref(Baire1Code):
    _eval = limit_eval_ref


class Baire2Ref(Baire2Code):
    _eval = limit_eval_ref


class ModulusRef:
    """The limit of terms(1), terms(2), ... under modulus, a point code.

    Each query scans the modulus from j = 0 for the finest j with
    modulus(j) <= stage (0 when there is none), reads term N =
    max(1, modulus(j)) padded by 2^-j and, when N < stage, checks that term
    `stage` padded by 2^-j meets it. A point's enclosures are intersected.
    """

    kind = "modulus-ref"
    region = None

    def __init__(self, terms, modulus, domain="unit"):
        self.terms, self.modulus, self.domain = terms, modulus, domain
        self._built, self._acc = {}, {}

    def term(self, n):
        if n not in self._built:
            self._built[n] = self.terms(n)
        return self._built[n]

    def _padded(self, n, j, x, stage):
        return ref_pad(rt_interval(self.term(n)._eval(x, stage)), pow2(-j))

    def _eval(self, x, stage: int) -> tuple:
        j = 0
        while j + 1 <= 4 * stage + 64 and self.modulus(j + 1) <= stage:
            j += 1
        n = max(1, self.modulus(j))
        got = self._padded(n, j, x, stage)
        if n < stage and ref_intersect(got, self._padded(stage, j, x, stage)) is None:
            raise CauchyViolation(f"term {stage} avoids term {n} padded by 2^-{j}")
        old = self._acc.get(x)
        if old is not None:
            got = ref_intersect(old, got)
            if got is None:
                raise CauchyViolation(f"enclosure at {x!r} avoids the accumulated {old}")
        self._acc[x] = got
        return rt_of(got)


def _ref_limit(node, env: dict):
    op, idx, body = node[0], node[2], node[3]

    def term(t: int):
        if op == "baire2":
            return _ref_limit(body, {**env, idx: t})
        code = compile_ref(body, {**env, idx: t})
        return continuous_const(code) if isinstance(code, Fraction) else code

    return (Baire2Ref if op == "baire2" else Baire1Ref)(term, domain="unit")


def ref_spec(text: str):
    """The reference code of a baire1(...) or baire2(...) gauge text."""
    node = _Parser(_lex(text)).parse()
    if node[0] not in ("baire1", "baire2"):
        raise ValueError("need a limit gauge")
    return _ref_limit(node, {})
