"""Seeded job lists for the two benchmark workloads.

A job is one `finecover` command line plus the exit code it must return
and the output check that applies to it. Every expected exit code follows
from how the job's inputs were built, never from running the program:
gauges are assembled from pieces whose minimum on [0,1] is known exactly,
and artifact files are written from dyadic refinements whose radii are
chosen against that minimum.

Every job class of a workload gets the same number of jobs per pass,
and the parameters that drive a job's cost (epsilon, depth, stage, file
size) sweep the class's range by slot instead of by chance. Two seeds
therefore differ in the inputs but not in the mix of work. The program
sees only the argv lists and the files written into the work directory.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("search", "verify-artifacts")

# closed-form integrals of the built-in integrands
INTEGRALS = {
    "identity": F(1, 2),
    "square": F(1, 3),
    "step": F(5, 8),
    "sqrt-reciprocal": F(2),
    "dirichlet": F(0),
}


@dataclass
class Job:
    """One CLI call. `expect` is its exit code; `check` names the output
    check (see checks.py); `rows` is set for verify jobs, whose row count
    is the input's."""

    id: str
    argv: list
    expect: int
    check: tuple = ("none",)
    rows: int | None = None
    out_file: str | None = None


@dataclass
class JobList:
    jobs: list
    files: dict = field(default_factory=dict)  # name -> text, or rows for csv


# -- gauge expressions ----------------------------------------------------
#
# Tuples: ("x",) ("q", F) ("pow2", int) ("abs", a) ("add", a, b)
# ("sub", a, b) ("mul", a, b) ("div", a, int) ("min", [a, ...])
# ("max", [a, ...]) ("dist", [F, ...]); render() gives the grammar text.


def rat(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render(e) -> str:
    op = e[0]
    if op == "x":
        return "x"
    if op == "q":
        return rat(e[1])
    if op == "pow2":
        return f"2^{e[1]}" if e[1] >= 0 else f"2^-{-e[1]}"
    if op == "abs":
        return f"|{render(e[1])}|"
    if op in ("add", "sub", "mul"):
        sym = {"add": "+", "sub": "-", "mul": "*"}[op]
        return f"({render(e[1])} {sym} {render(e[2])})"
    if op == "div":
        return f"({render(e[1])} / {e[2]})"
    if op in ("min", "max", "dist"):
        args = [rat(a) for a in e[1]] if op == "dist" else [render(a) for a in e[1]]
        return f"{op}({', '.join(args)})"
    raise ValueError(op)


def _rand_q(rng: random.Random) -> F:
    b = rng.randint(2, 12)
    return F(rng.randint(0, b), b)


def _leaf(rng: random.Random):
    if rng.random() < 0.5:
        return ("abs", ("sub", ("x",), ("q", _rand_q(rng))))
    return ("dist", sorted({_rand_q(rng), _rand_q(rng)}))


def rand_expr(rng: random.Random, ops: int):
    """A random grammar expression in x with `ops` operators over |.|,
    + - *, /c, min, max, dist and 2^e. The tree's shape depends on `ops`
    alone and each node picks among operators of like cost, so evaluating
    it costs nearly the same for every seed. Its sign is arbitrary;
    callers wrap it in |.|."""
    if ops == 0:
        return _leaf(rng)
    if ops % 2:
        a = rand_expr(rng, ops - 1)
        k = rng.randrange(3)
        if k == 0:
            return ("abs", a)
        if k == 1:
            return ("div", a, rng.randint(2, 5))
        return ("mul", ("pow2", -rng.randint(1, 4)), a)
    a, b = rand_expr(rng, ops // 2), rand_expr(rng, ops // 2 - 1)
    op = rng.choice(("add", "sub", "mul", "min", "max"))
    return (op, [a, b]) if op in ("min", "max") else (op, a, b)


def dip(rng: random.Random, c: F, ops: int):
    """min(|T| + 1/4, |x - c|): nonnegative and zero at c only."""
    t = ("add", ("abs", rand_expr(rng, ops)), ("pow2", -2))
    return ("min", [t, ("abs", ("sub", ("x",), ("q", c)))])


def capped_gauge(rng: random.Random, m: int, c: F, ops: int):
    """min(2^-(m-2), dip + 2^-m): minimum exactly 2^-m, attained at c, and
    at most 2^-(m-2) everywhere, so every search cell is refined to level
    m-1 at least and accepted by level m+1. Away from c the cap holds,
    whatever T is, so the cell count depends on m alone."""
    return ("min", [("pow2", -(m - 2)), ("add", dip(rng, c, ops), ("pow2", -m))])


def _dyadic_point(rng: random.Random, level: int) -> F:
    return F(rng.randint(0, 1 << level), 1 << level)


# -- shared builders -------------------------------------------------------


def _bits_with_both(rng: random.Random, n: int) -> str:
    while True:
        s = "".join(rng.choice("01") for _ in range(n))
        if "0" in s and "1" in s:
            return s


def _pin_point(rng: random.Random, i: int) -> tuple[str, str]:
    """An eventually periodic point whose period holds both bits, as the
    canonical (prefix, period) pair the program prints for it. The slot i
    fixes the lengths drawn."""
    prefix = "".join(rng.choice("01") for _ in range(i % 4))
    return _norm_pattern(prefix, _bits_with_both(rng, 2 + i % 3))


def _norm_pattern(prefix: str, period: str) -> tuple[str, str]:
    for d in range(1, len(period) + 1):
        if len(period) % d == 0 and period == period[:d] * (len(period) // d):
            period = period[:d]
            break
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1] + period[:-1]
    return prefix, period


def pin_bits(z: tuple[str, str], n: int) -> str:
    prefix, period = z
    out = prefix
    while len(out) < n:
        out += period
    return out[:n]


def _pin_arg(z: tuple[str, str], rng: random.Random) -> str:
    prefix, period = z
    if not prefix and rng.random() < 0.5:
        return period
    return f"prefix={prefix};period={period}"


def _sweep(values, i: int, n: int):
    """The i-th of n evenly spaced picks from `values`, first and last
    included: n jobs of a class cover the class's whole range."""
    return values[round(i * (len(values) - 1) / (n - 1))] if n > 1 else values[0]


def _cycle(choices, i: int) -> str:
    """Parameters that drive cost are taken by slot, not drawn, so every
    seed gets the same mix of work."""
    return str(choices[i % len(choices)])


# -- the README's command blocks ------------------------------------------
#
# Each keeps the exit code it really has. The first cousin example exits 2
# because min(x + 1/8, 1 - x) vanishes at 1, so --out receives the
# obstruction JSON and the verify that reads it back rejects the header.


def readme_jobs() -> list:
    g = "min(x + 1/8, 1 - x)"
    return [
        Job("readme-integrate", ["integrate", "--preset", "identity", "--epsilon", "1/16", "--stage", "48"], 0,
            ("integral", "identity")),
        Job("readme-cousin", ["cousin", "--gauge", g, "--depth", "6", "--out", "cover.csv", "--stage", "48"], 2,
            ("rational-obstruction", "1"), out_file="cover.csv"),
        Job("readme-verify", ["verify", "--gauge", g, "--in", "cover.csv", "--stage", "48"], 1),
        Job("readme-pin-hint", ["cousin", "--preset", "oracle-pin:01", "--space", "cantor", "--depth", "6",
                                "--hint", "Z", "--stage", "48"], 0, ("pin-cover", "", "01", "48")),
        Job("readme-gap", ["cousin", "--preset", "cauchy-gap", "--depth", "10", "--stage", "12"], 2,
            ("gap-obstruction",)),
        Job("readme-pin-gallery", ["gallery", "oracle-pin", "--bits", "01", "--depth", "8", "--stage", "48"], 0,
            ("pin-gallery", "", "01", "8")),
    ]


# -- search ---------------------------------------------------------------
#
# Fifteen classes of four jobs each. Four use gauges that can be evaluated
# on a whole region: integrate, cousin, cousin --as-partition and
# heine-borel. Eleven use gauges that can only be evaluated at points:
# sqrt-reciprocal, dirichlet, cauchy-gap (gallery and cousin), four kinds
# of limit code and three oracle-pin classes. Within a class the jobs take
# evenly spaced points of the range named for it: epsilon 2^-4 ... 2^-9
# with the presets in turn, minima 2^-6 ... 2^-10, and 2, 3, 4 head
# intervals in turn with a tail rule on every other file; epsilon
# 2^-2 ... 2^-6 for sqrt-reciprocal, cauchy-gap depths 10 ... 20 and pin
# depths 6 ... 16, with minima 2^-3, 2^-4, 2^-5 in turn for the limit
# codes. Four jobs a class keep a traced run, with its cProfile pass, well
# inside three minutes.

PER_CLASS_SEARCH = 4
INTEGRATE_PRESETS = ("identity", "square", "step")


_TAILS = ("tail: 1/(n+2) 2^-(n+2)", "tail: 1/2 2^-(n+1)", "tail: 1/(2*n+1) 2^-(n+3)")


def _cover_file(rng: random.Random, k: int, tail: str | None) -> tuple[str, list]:
    """k overlapping open head intervals covering [0,1], plus a tail rule
    when given. Returns the file text and the head as exact pairs."""
    cuts = [F(0)] + [F(j, k) + F(rng.randint(-2, 2), 32) for j in range(1, k)] + [F(1)]
    head = []
    for a, b in zip(cuts, cuts[1:]):
        head.append((a - F(rng.randint(2, 3), 32), b + F(rng.randint(2, 3), 32)))
    lines = [f"{rat(a)} {rat(b)}" for a, b in head]
    if tail:
        lines.append(tail)
    return "# seeded open cover\n" + "\n".join(lines) + "\n", head


def _region_jobs(rng: random.Random, n: int, files: dict) -> list:
    jobs = []
    for i in range(n):
        k, preset = _sweep(range(4, 10), i, n), INTEGRATE_PRESETS[i % 3]
        jobs.append(Job(f"int-{i}", ["integrate", "--preset", preset, "--epsilon", f"1/{1 << k}",
                                     "--stage", _cycle((16, 32, 48), i)], 0, ("integral", preset)))
    for i in range(2 * n):
        m = _sweep(range(6, 11), i // 2, n)  # each minimum once as a cover, once as a partition
        c = _dyadic_point(rng, m)
        text = render(capped_gauge(rng, m, c, 4))
        stage = _cycle((8, 16, 48), i)
        argv = ["cousin", "--depth", str(m + 2), "--stage", stage]
        if rng.random() < 0.25:
            files[f"g{i}.txt"] = f"# seeded gauge, minimum 2^-{m} at {rat(c)}\n{text}\n"
            argv += ["--gauge-file", f"g{i}.txt"]
        else:
            argv += ["--gauge", text]
        if i % 2:
            argv.append("--as-partition")
            check = ("partition", text, stage)
        else:
            check = ("cover", text, stage)
        jobs.append(Job(f"cousin-{i}", argv, 0, check))
    for i in range(n):
        text, head = _cover_file(rng, 2 + i % 3, tail=_TAILS[i % 3] if i % 2 else None)
        files[f"hb{i}.cov"] = text
        jobs.append(Job(f"hb-{i}", ["gallery", "heine-borel", "--cover", f"hb{i}.cov", "--depth", "12",
                                    "--stage", _cycle((8, 12), i)], 0, ("heine-borel", head)))
    return jobs


_DIRICHLET_K = (2, 5, 8, 12, 16)
_GAP_DEPTHS = (10, 12, 15, 17, 20)
_BAIRE = ("b1-pos", "b1-zero", "b2-pos", "b2-zero")
_PIN = ("pin-gallery", "pin-hint", "pin-blind")
_PIN_DEPTHS = (6, 9, 12, 14, 16)


def _baire_text(kind: str, rng: random.Random, m: int, c: F) -> str:
    """Limit codes whose limit is the capped gauge (minimum 2^-m at c) when
    positive, and min(2^-(m-2), dip) when it vanishes at c. Terms approach
    from above by 2^-(n+m), and by 2^-(k+m) at the inner level."""
    d = render(dip(rng, c, 2))
    limit = f"min(2^-{m - 2}, {d} + 2^-{m})" if kind.endswith("pos") else f"min(2^-{m - 2}, {d})"
    if kind.startswith("b1"):
        return f"baire1(n -> {limit} + 2^-(n+{m}))"
    return f"baire2(n -> baire1(k -> {limit} + 2^-(n+{m}) + 2^-(k+{m})))"


def _pointwise_jobs(rng: random.Random, n: int) -> list:
    jobs = []
    for i in range(n):
        jobs.append(Job(f"sqrt-{i}", ["integrate", "--preset", "sqrt-reciprocal", "--epsilon", f"1/{1 << _sweep(range(2, 7), i, n)}",
                                      "--stage", _cycle((16, 32, 48), i)], 0, ("integral", "sqrt-reciprocal")))
        jobs.append(Job(f"dir-{i}", ["integrate", "--preset", "dirichlet", "--epsilon", f"1/{1 << _sweep(_DIRICHLET_K, i, n)}",
                                     "--stage", _cycle((16, 32, 48), i)], 0, ("integral", "dirichlet")))
        d = str(_sweep(_GAP_DEPTHS, i, n))
        jobs.append(Job(f"gapg-{i}", ["gallery", "cauchy-gap", "--depth", d, "--stage", _cycle((12, 16, 24), i)], 0,
                        ("gap-gallery", d)))
        jobs.append(Job(f"gapc-{i}", ["cousin", "--preset", "cauchy-gap", "--depth", d, "--stage",
                                      _cycle((8, 12, 16), i)], 2, ("gap-obstruction",)))
        for kind in _BAIRE:
            m = 3 + i % 3
            c = _dyadic_point(rng, m)
            text = _baire_text(kind, rng, m, c)
            stage = _cycle((6, 8, 12) if kind.startswith("b1") else (3, 4, 6), i)
            argv = ["cousin", "--gauge", text, "--depth", str(m + 2), "--stage", stage]
            if kind.endswith("pos"):
                jobs.append(Job(f"{kind}-{i}", argv, 0, ("cover", text, stage)))
            else:
                jobs.append(Job(f"{kind}-{i}", argv, 2, ("rational-obstruction", rat(c))))
        for kind in _PIN:
            z = _pin_point(rng, i)
            arg = _pin_arg(z, rng)
            depth = str(_sweep(_PIN_DEPTHS, i, n))
            stage = _cycle((8, 16, 48), i)
            if kind == "pin-gallery":
                jobs.append(Job(f"{kind}-{i}", ["gallery", "oracle-pin", "--bits", arg, "--depth", depth,
                                                "--stage", stage], 0, ("pin-gallery", z[0], z[1], depth)))
                continue
            argv = ["cousin", "--preset", f"oracle-pin:{arg}", "--space", "cantor", "--depth", depth,
                    "--stage", stage]
            if kind == "pin-hint":
                jobs.append(Job(f"{kind}-{i}", argv + ["--hint", "Z"], 0, ("pin-cover", z[0], z[1], stage)))
            else:
                jobs.append(Job(f"{kind}-{i}", argv, 2, ("pin-obstruction", pin_bits(z, int(depth)))))
    return jobs


def search(rng: random.Random, smoke: bool = False) -> JobList:
    n = 1 if smoke else PER_CLASS_SEARCH
    files = {}
    jobs = _region_jobs(rng, n, files) + _pointwise_jobs(rng, n)
    rng.shuffle(jobs)
    return JobList(readme_jobs() + jobs, files)


# -- verify-artifacts ------------------------------------------------------


def _refine(rng: random.Random, cells: list, n: int, frozen=()) -> list:
    """Non-uniform dyadic refinement: split random cells (index, level),
    never one in `frozen`, until there are n. Cells stay in position order.
    Every other starting cell ends with the same share of the n cells, so
    the number of cells left of any starting boundary is the same for
    every seed; so is the cost of a job that stops at a known point.
    Levels stop two past a uniform grid of n cells, which bounds the size
    of the rationals."""
    top = n.bit_length() + 1
    free = [c for c in cells if c not in frozen]
    share, extra = divmod(n - (len(cells) - len(free)), len(free))
    out = []
    for cell in cells:
        if cell in frozen:
            out.append(cell)
            continue
        want = share + (extra > 0)
        extra -= 1
        leaves = [cell]
        while len(leaves) < want:
            j = rng.randrange(len(leaves))
            i, lv = leaves[j]
            if lv < top:
                leaves[j:j + 1] = [(2 * i, lv + 1), (2 * i + 1, lv + 1)]
        out += leaves
    return out


def _grid(level: int) -> list:
    return [(i, level) for i in range(1 << level)]


def _bounds(cell) -> tuple[F, F]:
    i, lv = cell
    return F(i, 1 << lv), F(i + 1, 1 << lv)


def canon(q: F) -> str:
    """The program's own form for rationals: always num/den."""
    return f"{q.numerator}/{q.denominator}"


def _unit_cover_rows(cells, radius_scale=F(1)) -> list:
    rows = []
    for cell in cells:
        a, b = _bounds(cell)
        rows.append([f"rat:{canon((a + b) / 2)}", canon((b - a) * radius_scale)])
    return rows


def _partition_rows(rng: random.Random, cells, quad_share: float) -> list:
    rows = []
    for cell in cells:
        a, b = _bounds(cell)
        w = b - a
        if rng.random() < quad_share:
            tag = f"quad:{canon(a - w)},{canon(w)}"  # a + w*(sqrt2 - 1), inside (a, b)
        else:
            tag = f"rat:{canon(a + w * rng.randint(0, 4) / 4)}"
        rows.append([canon(a), canon(b), tag])
    return rows


def _cantor_leaves(rng: random.Random, n: int) -> list:
    """Leaves of a random complete prefix tree with n leaves, in order: the
    bit strings of a refinement of the cells of level 4."""
    return [format(i, f"0{lv}b") for i, lv in _refine(rng, _grid(4), n)]


# One job per class and pass, each on a file of 2^10 rows: a pass is then
# a few seconds, so a run holds the 100 jobs its 90th percentile needs.
VERIFY_CLASSES = ("cont-cover", "cont-part", "cont-radius", "cont-gap", "cont-wide", "b1-cover", "b1-low",
                  "gap-cover", "pin-cover", "pin-blind", "pin-gap")
VERIFY_ROWS = 1 << 10


def verify_artifacts(rng: random.Random, smoke: bool = False) -> JobList:
    jobs, files = [], {}
    for cls in VERIFY_CLASSES:
        jobs.append(_verify_job(rng, cls, cls, VERIFY_ROWS, files))
    rng.shuffle(jobs)
    return JobList(jobs, files)


def _gauge_args(rng: random.Random, name: str, text: str, files: dict) -> list:
    if rng.random() < 0.25:
        files[f"{name}.gauge"] = text + "\n"
        return ["--gauge-file", f"{name}.gauge"]
    return ["--gauge", text]


def _verify_job(rng: random.Random, cls: str, name: str, n: int, files: dict) -> Job:
    path = f"{name}.csv"
    if cls.startswith("pin"):
        return _pin_verify_job(rng, cls, name, n, files)
    if cls == "gap-cover":
        # cauchy-gap vanishes at its irrational limit, which the ball of some
        # entry must contain; the declared modulus certifies that entry's No
        files[path] = [["point", "radius"]] + _unit_cover_rows(_refine(rng, _grid(4), n))
        return Job(name, ["verify", "--preset", "cauchy-gap", "--in", path, "--stage", "8"], 3,
                   ("verify", "entry "), rows=n)
    # Cells sit at the base level m+1 or deeper, so widths are at most
    # 2^-(m+1), while the capped gauge lies in [2^-m, 2^-(m-2)] with its
    # minimum at the midpoint c of one base cell that is never split. A
    # limit code evaluates its terms many times per entry, so its gauge
    # expression is drawn smaller.
    m = 4 if cls == "cont-wide" else 3
    keep = (rng.randrange(1 << (m + 1)), m + 1)
    cells = _refine(rng, _grid(m + 1), n, frozen={keep})
    lo, hi = _bounds(keep)
    text = render(capped_gauge(rng, m, (lo + hi) / 2, 1 if cls.startswith("b1") else 3))
    cover = [["point", "radius"]]
    if cls == "cont-cover":
        # radius = width <= 2^-(m+1) <= half the gauge at every midpoint
        files[path] = cover + _unit_cover_rows(cells)
        return Job(name, ["verify", *_gauge_args(rng, name, text, files), "--in", path, "--stage", "16"], 0,
                   ("verify", "cover verified"), rows=n)
    if cls == "cont-part":
        files[path] = [["lo", "hi", "tag"]] + _partition_rows(rng, cells, 0.3)
        return Job(name, ["verify", *_gauge_args(rng, name, text, files), "--in", path, "--stage", "48"], 0,
                   ("verify", "partition verified"), rows=n)
    if cls == "cont-radius":
        rows = _unit_cover_rows(cells)
        j = n // 2 + rng.randrange(16)  # the verdicts before it are the job's cost
        rows[j][1] = canon(F(2) ** -(m - 3))  # above the cap 2^-(m-2)
        files[path] = cover + rows
        return Job(name, ["verify", "--gauge", text, "--in", path, "--stage", "16"], 3,
                   ("verify", f"entry {j}: gauge at {rows[j][0]} is below the radius {rows[j][1]}"), rows=n)
    if cls == "cont-gap":
        # Balls equal to their cells touch; dropping one opens a gap, which
        # verify must name as an uncovered point
        rows = _unit_cover_rows(cells, F(1, 2))
        del rows[rng.randrange(n)]
        files[path] = cover + rows
        return Job(name, ["verify", "--gauge", text, "--in", path, "--stage", "16"], 3,
                   ("verify", "not a cover: rat:"), rows=n - 1)
    if cls == "cont-wide":
        # one aligned block of 16 base cells stays whole: its width
        # 2^-(m-3) exceeds the cap 2^-(m-2) at any tag
        wide = ((1 << (m - 3)) // 2, m - 3)
        base = [c for c in _grid(m + 1) if c[0] >> 4 != wide[0]]
        base.insert(wide[0] << 4, wide)
        cells = _refine(rng, base, n, frozen={wide})
        j = cells.index(wide)
        rows = _partition_rows(rng, cells, 0.3)
        files[path] = [["lo", "hi", "tag"]] + rows
        return Job(name, ["verify", "--gauge", text, "--in", path, "--stage", "48"], 3,
                   ("verify", f"cell {j} [{rows[j][0]},{rows[j][1]}]: gauge at {rows[j][2]} is below the width"),
                   rows=n)
    if cls in ("b1-cover", "b1-low"):
        # Terms G*(1 - 2^-n) rise to G >= 2*radius. Stage 4 sees terms 2..4
        # with gaps up to G/8, which bound the limit below by 5G/8 at every
        # entry. Stage 1 sees G/2 and 3G/4 only, a bound of G/4; at c that is
        # 2^-(m+2), short of the radius 2^-(m+1), and a code without modulus
        # never says No.
        files[path] = cover + _unit_cover_rows(cells)
        limit = f"baire1(n -> {text} * (1 - 2^-n))"
        if cls == "b1-cover":
            return Job(name, ["verify", "--gauge", limit, "--in", path, "--stage", "4"], 0,
                       ("verify", "cover verified"), rows=n)
        return Job(name, ["verify", "--gauge", limit, "--in", path, "--stage", "1"], 2,
                   ("verify", "cover unresolved at this stage"), rows=n)
    raise ValueError(cls)


def _pin_verify_job(rng: random.Random, cls: str, name: str, n: int, files: dict) -> Job:
    """Sequence-space covers by cylinders. Against the pin gauge of Z a
    point off Z's leaf meets the leaf's width exactly or better; the leaf
    along Z verifies only when its point is Z itself. Z starts with 1000,
    so its leaf, where pin-blind fails, sits in the middle of the file."""
    path = f"{name}.csv"
    prefix, period = _pin_point(rng, n.bit_length())
    z = _norm_pattern("1000" + prefix, period)
    zbits = pin_bits(z, 64)
    leaves = _cantor_leaves(rng, n)
    rows = []
    for leaf in leaves:
        r = rat(F(1, 1 << len(leaf)))
        if zbits.startswith(leaf):
            if cls == "pin-blind":
                rows.append([f"prefix={leaf};period=0", r])
            else:
                rows.append([f"prefix={z[0]};period={z[1]}", r])
        else:
            rows.append([f"prefix={leaf};period={rng.choice(['0', '1', '01', '10', '110'])}", r])
    expect, want = 0, "cover verified"
    if cls == "pin-blind":
        expect, want = 3, "entry "
    if cls == "pin-gap":
        del rows[n // 4 + rng.randrange(16)]  # off Z's leaf, which is past n // 2
        expect, want = 3, "not a cover: prefix="
    files[path] = [["point", "radius"]] + rows
    arg = _pin_arg(z, rng)
    gauge = ["--preset", f"oracle-pin:{arg}"] if rng.random() < 0.5 else ["--gauge", f"oracle-pin({arg})"]
    return Job(name, ["verify", *gauge, "--in", path, "--stage", "16"], expect,
               ("verify", want), rows=len(rows))


GENERATORS = {
    "search": search,
    "verify-artifacts": verify_artifacts,
}


def build(workload: str, seed: int, smoke: bool = False) -> JobList:
    """The job list of one workload; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), smoke)


def write_files(jobs: JobList, directory: str) -> None:
    """Write the inputs; CSV artifacts go through csv.writer."""
    for name, body in jobs.files.items():
        with open(os.path.join(directory, name), "w", newline="") as fh:
            if isinstance(body, str):
                fh.write(body)
            else:
                csv.writer(fh, lineterminator="\n").writerows(body)
