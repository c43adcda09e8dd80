"""The traced pass and the counting pass.

The traced pass rebinds the coarse public functions of each layer, in
every finecover module that imported them, with wrappers that record one
span per call: name, start, end, parent span, job id. The hot boundaries
(`verified_above`, `verified_at_least`, `eval_enclosure`, each code
kind's `_eval`, `Integrand.at`) get aggregate counters instead of spans.

The counting pass runs the jobs under cProfile and keeps only call counts;
profiling slows pure-Python code several times over and unevenly, so its
times would misstate every layer's share.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# span name -> (module, function names)
SPANS = {
    "gaugespec.parse": ("finecover.gaugespec", ("parse_gauge", "parse_gauge_file", "parse_expr_const", "parse_cover_file")),
    "serialize.emit": ("finecover.serialize", ("cover_csv", "partition_csv", "obstruction_json", "integral_json")),
    "serialize.parse": ("finecover.serialize", ("parse_cover_csv", "parse_partition_csv")),
    "covers.search": ("finecover.covers", ("find_cover_unit", "find_cover_cantor")),
    "covers.convert": ("finecover.covers", ("cover_to_partition",)),
    "covers.verify": ("finecover.covers", ("verify_partition", "verify_cover")),
    "covers.witness": ("finecover.covers", ("uncovered_witness",)),
    "integral.integrate": ("finecover.integral", ("integrate",)),
    "integral.sum": ("finecover.integral", ("riemann_sum",)),
    "gallery.demo": ("finecover.gallery", ("gap_obstruction_demo", "oracle_pin_demo")),
    "gallery.subcover": ("finecover.gallery", ("finite_subcover",)),
}

KINDS = ("continuous", "direct", "baire1", "baire2")


def _rows(args, result) -> int:
    """Rows an emit or parse call handled: entries, cells or regions."""
    obj = args[0] if isinstance(result, str) else result
    if isinstance(obj, dict):
        return 0
    if hasattr(obj, "unresolved"):
        return len(obj.unresolved)
    if hasattr(obj, "tags"):
        return len(obj.tags)
    return len(obj)


def _level(q) -> int:
    """Dyadic level of a query width: about log2(1/q)."""
    q = Fraction(q)
    return q.denominator.bit_length() - q.numerator.bit_length() if q > 0 else -1


class Tracer:
    """Spans and counters of one traced pass. Spans are lists
    [name, start, end, parent index, job id, child seconds]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counts: Counter = Counter()
        self.agg: dict = defaultdict(lambda: [0, 0.0])
        self.eval_self: Counter = Counter()
        self._eval_stack: list = []
        self._in_verdict = 0
        self._in_search = 0
        self._restore: list = []

    # -- installing -------------------------------------------------------

    def _rebind(self, orig, wrapped) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "finecover" and not name.startswith("finecover."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))

    def install(self) -> None:
        from finecover import cli, gauges, integral

        for span, (modname, names) in SPANS.items():
            mod = sys.modules[modname]
            for fname in names:
                self._rebind(getattr(mod, fname), self._span(span, getattr(mod, fname)))
        self._rebind(cli.main, self._span("cli.main", cli.main))
        for fname in ("verified_above", "verified_at_least"):
            self._rebind(getattr(gauges, fname), self._verdict(fname, getattr(gauges, fname)))
        self._rebind(gauges.eval_enclosure, self._enclosure(gauges.eval_enclosure))
        for cls in (gauges.ContinuousCode, gauges.DirectCode, gauges.Baire1Code, gauges.Baire2Code):
            self._restore.append((cls, "_eval", cls.__dict__["_eval"]))
            cls._eval = self._eval(cls.kind, cls.__dict__["_eval"])
        at = integral.Integrand.__dict__["at"]
        self._restore.append((integral.Integrand, "at", at))
        integral.Integrand.at = self._count("integrand_evals", at)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _charge_parent(self, dt: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][5] += dt

    def _span(self, name: str, fn):
        tracer = self
        counts_rows = name.startswith("serialize.")
        search = name == "covers.search"

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, tracer.stack[-1] if tracer.stack else None, tracer.job, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._in_search += search
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._in_search -= search
                tracer.stack.pop()
                tracer._charge_parent(rec[2] - rec[1])
            if counts_rows:
                tracer.counts["serialize.rows"] += _rows(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _verdict(self, fname: str, fn):
        tracer = self

        def wrapper(g, x, q, stage):
            tracer._in_verdict += 1
            t0 = perf_counter()
            try:
                v = fn(g, x, q, stage)
            finally:
                dt = perf_counter() - t0
                tracer._in_verdict -= 1
                if not tracer._in_verdict:
                    tracer._charge_parent(dt)
            cell = tracer.agg[(fname, g.kind, v.value, _level(q))]
            cell[0] += 1
            cell[1] += dt
            if tracer._in_search:
                tracer.counts["covers.samples"] += 1
                tracer.counts["covers.accepted"] += v.value == "yes"
            return v

        wrapper.__wrapped__ = fn
        return wrapper

    def _enclosure(self, fn):
        tracer = self

        def wrapper(g, x, stage):
            t0 = perf_counter()
            box = fn(g, x, stage)
            dt = perf_counter() - t0
            inside = tracer._in_verdict > 0
            cell = tracer.agg[("eval_enclosure", g.kind, "rung" if inside else "direct", stage)]
            cell[0] += 1
            cell[1] += dt
            tracer.counts["gauges.top_evals"] += 1
            tracer.counts["gauges.rungs"] += inside
            if not inside:
                tracer._charge_parent(dt)
            return box

        wrapper.__wrapped__ = fn
        return wrapper

    def _eval(self, kind: str, fn):
        tracer = self

        def wrapper(code, x, stage):
            tracer._eval_stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(code, x, stage)
            finally:
                dt = perf_counter() - t0
                inner = tracer._eval_stack.pop()
                tracer.eval_self[kind] += dt - inner
                if tracer._eval_stack:
                    tracer._eval_stack[-1] += dt

        return wrapper

    def _count(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summaries --------------------------------------------------------

    def total(self, names) -> tuple[float, int]:
        """Seconds and calls of the outermost spans named in `names`."""
        names = set(names)
        secs, calls = 0.0, 0
        for name, start, end, parent, _job, _child in self.spans:
            if name in names and (parent is None or self.spans[parent][0] not in names):
                secs += end - start
                calls += 1
        return secs, calls

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - s[5] for s in self.spans if s[0] == name)

    def metrics(self) -> dict:
        verdicts = Counter()
        verdict_s = 0.0
        for (fname, _kind, outcome, _lv), (n, secs) in self.agg.items():
            if fname != "eval_enclosure":
                verdicts[outcome] += n
                verdict_s += secs
        n_verdicts = sum(verdicts.values())
        samples = self.counts["covers.samples"]
        out = {
            "cli.jobs": (self.total(["cli.main"])[1], "count"),
            "cli.self_s": (self.self_time("cli.main"), "s"),
            "gaugespec.parse_s": (self.total(["gaugespec.parse"])[0], "s"),
            "gaugespec.parses": (self.total(["gaugespec.parse"])[1], "count"),
            "serialize.emit_s": (self.total(["serialize.emit"])[0], "s"),
            "serialize.parse_s": (self.total(["serialize.parse"])[0], "s"),
            "serialize.rows": (self.counts["serialize.rows"], "count"),
            "covers.search_s": (self.total(["covers.search"])[0], "s"),
            "covers.search_self_s": (self.self_time("covers.search"), "s"),
            "covers.samples": (samples, "count"),
            "covers.accepted": (self.counts["covers.accepted"], "count"),
            "covers.accept_ratio": (self.counts["covers.accepted"] / samples if samples else 0.0, "ratio"),
            "covers.convert_s": (self.total(["covers.convert"])[0], "s"),
            "covers.verify_s": (self.total(["covers.verify"])[0], "s"),
            "covers.witness_s": (self.total(["covers.witness"])[0], "s"),
            "integral.integrate_s": (self.total(["integral.integrate"])[0], "s"),
            "integral.sum_s": (self.total(["integral.sum"])[0], "s"),
            "integral.integrand_evals": (self.counts["integrand_evals"], "count"),
            "gallery.demo_s": (self.total(["gallery.demo", "gallery.subcover"])[0], "s"),
            "gallery.subcover_s": (self.total(["gallery.subcover"])[0], "s"),
            "gauges.verdict_s": (verdict_s, "s"),
            "gauges.verdicts": (n_verdicts, "count"),
            "gauges.verdicts.yes": (verdicts["yes"], "count"),
            "gauges.verdicts.no": (verdicts["no"], "count"),
            "gauges.verdicts.unknown": (verdicts["unknown"], "count"),
            "gauges.top_evals": (self.counts["gauges.top_evals"], "count"),
            "gauges.rungs_per_verdict": (self.counts["gauges.rungs"] / n_verdicts if n_verdicts else 0.0, "ratio"),
        }
        for kind in KINDS:
            out[f"gauges.eval_s.{kind}"] = (self.eval_self[kind], "s")
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "job": j} for n, s, e, p, j, _c in self.spans],
            "hot": [
                {"fn": fn, "kind": kind, "outcome": outcome, "level": lv, "calls": n, "seconds": secs}
                for (fn, kind, outcome, lv), (n, secs) in sorted(self.agg.items(), key=lambda kv: str(kv[0]))
            ],
        }


# -- counting pass ------------------------------------------------------------


def _code_key(fn):
    fn = getattr(fn, "__func__", fn)
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def counted_functions() -> dict:
    """Metric name -> the functions whose cProfile call counts it sums."""
    from fractions import Fraction as Frac

    from finecover import exact, gauges, spaces

    fractions = [Frac.__new__]
    if hasattr(Frac, "_from_coprime_ints"):
        fractions.append(Frac._from_coprime_ints)
    out = {
        "exact.intervals": [exact.Interval.__post_init__],
        "exact.fractions": fractions,
        "spaces.cantor_bits": [spaces.CantorPoint.bit],
        "spaces.approx_calls": [spaces.UnitPoint.approx],
    }
    for cls in (gauges.ContinuousCode, gauges.DirectCode, gauges.Baire1Code, gauges.Baire2Code):
        out[f"gauges.evals.{cls.kind}"] = [cls._eval]
    return out


class Counting:
    """cProfile around each job; only call counts survive."""

    def __init__(self):
        self.prof = cProfile.Profile()

    def __enter__(self):
        self.prof.enable()
        return self

    def __exit__(self, *exc):
        self.prof.disable()
        return False

    def counts(self) -> dict:
        stats = pstats.Stats(self.prof).stats
        out = {}
        for name, fns in counted_functions().items():
            out[name] = sum(stats.get(_code_key(fn), (0, 0))[1] for fn in fns)
        return out
