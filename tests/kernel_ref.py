"""Composed-closure gauge kernels: the reference the fused kernels of
`finecover.gauges` are checked against.

Each operator is its own closure over one triple op of the integer-numerator
format, constants are closures too, and `compile_ref` composes them along
the parsed expression as the grammar's compiler did before its kernels
were fused. The triple ops here apply the endpoint formulas of
`interval_ref` to the numerators over a common denominator.
"""

from fractions import Fraction

from finecover.exact import _aligned, pow2, rt_add, rt_mul, rt_points, rt_scale
from finecover.gauges import ContinuousCode, DomainError, continuous_const
from finecover.gaugespec import MAX_EXPONENT, SpecError, _check_constant

# -- triple ops -------------------------------------------------------------


def rt_sub(a: tuple, b: tuple) -> tuple:
    alo, ahi, blo, bhi, d = _aligned(a, b)
    return alo - bhi, ahi - blo, d


def rt_abs(a: tuple) -> tuple:
    lo, hi, d = a
    if lo >= 0:
        return a
    if hi <= 0:
        return -hi, -lo, d
    return 0, max(-lo, hi), d


def rt_min(a: tuple, b: tuple) -> tuple:
    alo, ahi, blo, bhi, d = _aligned(a, b)
    return min(alo, blo), min(ahi, bhi), d


def rt_max(a: tuple, b: tuple) -> tuple:
    alo, ahi, blo, bhi, d = _aligned(a, b)
    return max(alo, blo), max(ahi, bhi), d


def rt_dist(a: tuple, points: list) -> tuple:
    """Range of min |x - p| over the points (from rt_points), x in a."""
    best = None
    for p in points:
        d = rt_abs(rt_sub(a, p))
        best = d if best is None else rt_min(best, d)
    return best


# -- composed continuous codes ---------------------------------------------


def continuous_identity() -> ContinuousCode:
    return ContinuousCode(lambda r, k: r, domain="unit", label="x")


def _combine2(op, a: ContinuousCode, b: ContinuousCode, name: str) -> ContinuousCode:
    if a.domain != b.domain:
        raise DomainError(f"cannot combine {a.domain} code with {b.domain} code")
    ka, kb = a.kernel, b.kernel
    return ContinuousCode(
        lambda r, k: op(ka(r, k), kb(r, k)),
        domain=a.domain,
        label=f"{name}({a.label},{b.label})",
    )


def continuous_add(a: ContinuousCode, b: ContinuousCode) -> ContinuousCode:
    return _combine2(rt_add, a, b, "add")


def continuous_sub(a: ContinuousCode, b: ContinuousCode) -> ContinuousCode:
    return _combine2(rt_sub, a, b, "sub")


def continuous_mul(a: ContinuousCode, b: ContinuousCode) -> ContinuousCode:
    return _combine2(rt_mul, a, b, "mul")


def continuous_min(a: ContinuousCode, b: ContinuousCode) -> ContinuousCode:
    return _combine2(rt_min, a, b, "min")


def continuous_max(a: ContinuousCode, b: ContinuousCode) -> ContinuousCode:
    return _combine2(rt_max, a, b, "max")


def continuous_abs(a: ContinuousCode) -> ContinuousCode:
    ka = a.kernel
    return ContinuousCode(lambda r, k: rt_abs(ka(r, k)), domain=a.domain, label=f"abs({a.label})")


def continuous_scale(q, a: ContinuousCode) -> ContinuousCode:
    q = Fraction(q)
    ka = a.kernel
    return ContinuousCode(lambda r, k: rt_scale(q, ka(r, k)), domain=a.domain, label=f"scale({q},{a.label})")


def continuous_dist_ref(points) -> ContinuousCode:
    """x |-> min |x - p| over a finite set of rationals, by rt_dist."""
    pts = sorted(Fraction(p) for p in points)
    if not pts:
        raise ValueError("need at least one point")
    boxes = rt_points(pts)
    return ContinuousCode(lambda r, k: rt_dist(r, boxes), domain="unit", label=f"dist{tuple(str(p) for p in pts)}")


# -- the composing compiler -------------------------------------------------

_OPS = {
    "neg": (lambda a: -a, lambda a: continuous_scale(-1, a)),
    "abs": (abs, continuous_abs),
    "add": (lambda a, b: a + b, continuous_add),
    "sub": (lambda a, b: a - b, continuous_sub),
    "mul": (lambda a, b: a * b, continuous_mul),
    "min": (min, continuous_min),
    "max": (max, continuous_max),
}


def compile_ref(node, env: dict):
    """The exact Fraction of an x-free expression, or the composed
    continuous code of one that depends on x, raising the SpecErrors of
    `finecover.gaugespec._compile` at the same nodes."""
    op, loc = node[0], node[1]
    if op == "const":
        return node[2]
    if op == "idx":
        return Fraction(env[node[2]])
    if op == "x":
        return continuous_identity()
    if op == "dist":
        points = []
        for a in node[2]:
            _check_constant(a)
            points.append(compile_ref(a, env))
        return continuous_dist_ref(points)
    if op == "pow2":
        e = compile_ref(node[2], env)
        if not isinstance(e, Fraction):
            raise SpecError("exponent may not depend on x", *loc)
        if e.denominator != 1:
            raise SpecError(f"exponent must be an integer, got {e}", *loc)
        if abs(e) > MAX_EXPONENT:
            raise SpecError(f"exponent beyond +-{MAX_EXPONENT}", *loc)
        return pow2(int(e))
    if op == "div":
        a, d = compile_ref(node[2], env), compile_ref(node[3], env)
        if not isinstance(d, Fraction):
            raise SpecError("divisor may not depend on x", *loc)
        if d == 0:
            raise SpecError("division by zero", *loc)
        return a / d if isinstance(a, Fraction) else continuous_scale(1 / d, a)
    if op in _OPS:
        exact, code = _OPS[op]
        args = [compile_ref(a, env) for a in node[2:]]
        if all(isinstance(a, Fraction) for a in args):
            return exact(*args)
        return code(*(continuous_const(a) if isinstance(a, Fraction) else a for a in args))
    raise SpecError(f"{op} cannot appear inside an expression", *loc)
