"""Limit codes that evaluate every query afresh: the reference the limit
codes of `finecover.gauges` are checked against.

`limit_eval_ref` is the evaluation body as it was before a limit code kept
the stage and enclosure of each point's last query: every query reads the
whole trailing block and then the certificate term again, even when that
term lies inside the block. `Baire1Ref` and `Baire2Ref` evaluate by it, and
`ref_spec` builds the code of a baire1/baire2 gauge text whose terms are
compiled one by one by `kernel_ref.compile_ref`, so no part of the body is
shared between terms.
"""

from fractions import Fraction

from kernel_ref import compile_ref

from finecover.exact import CauchyViolation, rt_block, rt_interval, rt_intersect, rt_pad, rt_refine
from finecover.gauges import Baire1Code, Baire2Code, _block, continuous_const
from finecover.gaugespec import _lex, _Parser


def limit_eval_ref(self, x, stage: int) -> tuple:
    lo_n, hi_n = _block(stage)
    hull = rt_block([self.term(n)._eval(x, stage) for n in range(lo_n, hi_n + 1)])
    resolved = self._resolved(stage)
    if resolved is not None:
        j, n = resolved
        cert = rt_pad(self.term(n)._eval(x, stage), j)
        what = lambda: f"certificate of {self.label or id(self)} at {x!r}"
        self._cert[x] = rt_refine(self._cert.get(x), cert, what)
    known = self._cert.get(x)
    if known is not None:
        got = rt_intersect(hull, known)
        if got is None:
            raise CauchyViolation(
                f"limit code {self.label or id(self)}: block hull {rt_interval(hull)} "
                f"avoids certified {rt_interval(known)} at {x!r}"
            )
    else:
        got = hull
    lo, _, d = got
    prev = self._best_lo.get(x)
    if prev is None or lo * prev[1] > prev[0] * d:
        self._best_lo[x] = lo, d
    return got


class Baire1Ref(Baire1Code):
    _eval = limit_eval_ref


class Baire2Ref(Baire2Code):
    _eval = limit_eval_ref


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
