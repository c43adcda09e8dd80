"""Benchmark of the finecover command line, run from the repository root.

    python3 perfbench/run.py --workload search --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, one table

A workload is a seeded list of `finecover` jobs (argv lists plus the files
they read). The runner replays the list in process through
`finecover.cli.main(argv)`, one job after another: a closed loop with one
client, as a user at a terminal runs commands. It repeats whole passes
over the list until `--seconds` (by default `run_seconds` of
BENCHMARK.json) have passed and at least 100 jobs ran, then checks every
output outside the timed region.

Set-up (importing finecover in a fresh interpreter, building the job list
and writing its inputs) runs in this process. The jobs then run in a fresh
child process with PYTHONHASHSEED fixed and COUSIN_GAUGE_STAGE_DEFAULT
removed, so the child's peak RSS covers only the import and the jobs;
every job passes --stage itself.

--trace 0 prints the end-to-end metrics. Their times are scaled to a
fixed host speed, measured by a reference loop run between jobs, because
the shared host's speed drifts by tens of percent over minutes; the raw
figures are printed beside them. --trace 1 runs one plain pass,
one traced pass (spans at each layer's public functions, written to
perfbench/_out/) and one cProfile pass that only counts calls, and prints
the per-layer metrics. The last stdout line is always one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "reference_digests.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
JOBS_FILE = "jobs.pickle"

HASH_SEED = "0"
STAGE_ENV = "COUSIN_GAUGE_STAGE_DEFAULT"
SHIPPED_SEED = 1  # the seed whose stdout digests are recorded
MIN_JOBS = 100  # so that p90 has ten samples beyond it
SETUP_REPEATS = 7  # imports; generation runs on every other one
CHILD_TIMEOUT_S = 170
# Median seconds of reference_loop() on the 2-core host the benchmark was
# written on. Timings are scaled to that host speed (see README.md).
REFERENCE_S = 0.0026

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import finecover.cli\n"
    "print(time.perf_counter() - t)\n"
)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic, the
    kind of work finecover does. Run between jobs, it tracks the speed of
    the shared host, which drifts by tens of percent over minutes."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    return time.perf_counter() - t0


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != STAGE_ENV}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="search or verify-artifacts")
    p.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    p.add_argument("--seed", type=int, default=SHIPPED_SEED)
    p.add_argument("--seconds", type=float, help="measuring time; run_seconds of BENCHMARK.json by default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a short job list, for the benchmark's own test")
    p.add_argument("--record-digests", action="store_true",
                   help=f"store the stdout digests of seed {SHIPPED_SEED} as the reference")
    p.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p


# -- set-up, in the parent process --------------------------------------------


def _prepare(workload: str, seed: int, smoke: bool) -> str:
    """Set-up is the import of finecover.cli in a fresh interpreter plus
    job and input generation. Each is repeated and the medians are summed.
    Returns the work directory, which holds the inputs and, in JOBS_FILE,
    the job list, the set-up seconds and the host speed beside them."""
    from jobs import build, write_files

    workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    imports, generation, reference = [], [], []
    for i in range(SETUP_REPEATS):
        reference += [reference_loop() for _ in range(3)]
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], env=pinned_env(), cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(probe.stdout))
        if i % 2:
            continue
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        jobs = build(workload, seed, smoke)
        write_files(jobs, workdir)
        generation.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(generation)
    with open(os.path.join(workdir, JOBS_FILE), "wb") as fh:
        pickle.dump({"jobs": jobs.jobs, "setup_s": setup_s, "setup_speed": REFERENCE_S / statistics.median(reference)},
                    fh)
    return workdir


# -- one workload, inside the pinned child process ---------------------------


def _run_job(call, job, keep: bool) -> dict:
    """One timed job. Only the first pass keeps the output text; later
    passes keep its digest, so their memory does not grow with the pass
    count."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    gc.collect()
    reference = reference_loop()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(job)
    except Exception as e:  # a traceback is a failed job, not a crashed benchmark
        code, exc = None, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    text = out.getvalue()
    if job.out_file and exc is None:
        with open(job.out_file) as fh:
            text = fh.read()
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{text}".encode()).hexdigest()
    res = {"code": code, "seconds": dt, "reference": reference, "digest": digest, "exc": exc}
    if keep:
        res.update(text=text, err=err.getvalue())
    return res


def _call_main(job) -> int:
    from finecover import cli

    return cli.main(list(job.argv))


def _pass(jobs, call=_call_main, keep: bool = False) -> list:
    return [_run_job(call, job, keep) for job in jobs]


def _judge(workload: str, seed: int, smoke: bool, jobs, first: list, later: list, record: bool):
    """Check the first pass's outputs and compare every later execution's
    digest with it. An execution fails when cli.main raises, or when it
    returns a wrong result: a wrong exit code, a failed check or changed
    output. Returns (failed executions, whether no result was wrong, rows
    per pass, reasons)."""
    from checks import CheckFailed, check

    reference = None
    if seed == SHIPPED_SEED and not smoke and not record:
        with open(DIGESTS) as fh:
            reference = json.load(fh).get(workload, {})
    crashed, wrong, reasons, rows = set(), set(), [], 0
    for i, (job, res) in enumerate(zip(jobs, first)):
        if res["exc"] is not None:
            crashed.add(i)
            reasons.append(f"{job.id}: cli.main raised {res['exc']} [{' '.join(job.argv)[:120]}]")
            continue
        why = None
        try:
            n = check(job, res["code"], res["text"])
        except (CheckFailed, ValueError, KeyError, TypeError) as e:
            why = f"{type(e).__name__}: {e}"
        else:
            if reference is not None and reference.get(job.id) != res["digest"]:
                why = "output differs from the reference digest" if job.id in reference else "no reference digest"
        if why is None:
            rows += n
        else:
            wrong.add(i)
            reasons.append(f"{job.id}: {why} [{' '.join(job.argv)[:120]}] {res['err'].strip()[:160]}")
    failed, changed = len(crashed) + len(wrong), 0
    for results in later:
        for i, (job, res) in enumerate(zip(jobs, results)):
            if i in crashed or i in wrong:
                failed += 1
            elif res["digest"] != first[i]["digest"]:
                failed += 1
                changed += 1
                reasons.append(f"{job.id}: output changed between passes")
    if record and not wrong and not changed:
        data = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                data = json.load(fh)
        data[workload] = {job.id: res["digest"] for i, (job, res) in enumerate(zip(jobs, first)) if i not in crashed}
        with open(DIGESTS, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return failed, not wrong and not changed, rows, reasons


def _percentile(samples, q: int) -> tuple:
    """Nearest-rank percentile of (seconds, job id) samples: the sample."""
    s = sorted(samples)
    return s[max(-(-len(s) * q // 100), 1) - 1]


def _job_class(job_id: str) -> str:
    return job_id.rstrip("0123456789").rstrip("-")


def run_workload(args) -> dict:
    with open(os.path.join(args.child, JOBS_FILE), "rb") as fh:
        prepared = pickle.load(fh)
    jobs, setup_s = prepared["jobs"], prepared["setup_s"]
    os.chdir(args.child)
    try:
        if args.trace:
            return _traced(args, jobs, setup_s)
        t0 = time.perf_counter()
        first, later = _pass(jobs, keep=True), []
        while time.perf_counter() - t0 < args.seconds or (1 + len(later)) * len(jobs) < MIN_JOBS:
            later.append(_pass(jobs))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
        failed, correct, rows, reasons = _judge(args.workload, args.seed, args.smoke, jobs, first, later,
                                                args.record_digests)
        # Each pass's times are scaled by the host speed the reference loop
        # measured between its jobs; the raw figures are printed beside them.
        speeds = [REFERENCE_S / statistics.median(r["reference"] for r in results) for results in [first] + later]
        raw = [(r["seconds"], job.id) for results in [first] + later for job, r in zip(jobs, results)]
        samples = [(r["seconds"] * speed, job.id)
                   for speed, results in zip(speeds, [first] + later) for job, r in zip(jobs, results)]
        attempted = len(samples)
        p90 = _percentile(samples, 90)
        metrics = {
            "setup_s": (setup_s * prepared["setup_speed"], "s"),
            "rows_per_s": (rows * len(speeds) / sum(t for t, _ in samples), "rows/s"),
            "job_s_p50": (statistics.median(t for t, _ in samples), "s"),
            "job_s_p90": (p90[0], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info = {"passes": len(speeds), "jobs_per_pass": len(jobs), "samples": attempted, "rows_per_pass": rows,
                "failed_frac": failed / attempted, "p50_class": _job_class(_percentile(samples, 50)[1]),
                "p90_class": _job_class(p90[1]), "host_speed": statistics.median(speeds),
                "setup_speed": prepared["setup_speed"], "raw_setup_s": setup_s,
                "raw_rows_per_s": rows * len(speeds) / sum(t for t, _ in raw),
                "raw_job_s_p50": statistics.median(t for t, _ in raw), "raw_job_s_p90": _percentile(raw, 90)[0]}
        return _result(args, attempted, failed, correct, metrics, info, reasons)
    finally:
        os.chdir(ROOT)


def _traced(args, jobs, setup_s) -> dict:
    from finecover import cli
    from tracing import Counting, Tracer

    plain = _pass(jobs, keep=True)
    tracer = Tracer()
    tracer.install()
    try:
        def traced_call(job):
            tracer.job = job.id
            return cli.main(list(job.argv))

        traced = _pass(jobs, traced_call)
    finally:
        tracer.uninstall()
    counting = Counting()

    def counted_call(job):
        with counting:
            return cli.main(list(job.argv))

    counted = _pass(jobs, counted_call)
    failed, correct, _rows, reasons = _judge(args.workload, args.seed, args.smoke, jobs, plain, [traced, counted],
                                             False)
    metrics = tracer.metrics()
    metrics.update({name: (n, "count") for name, n in counting.counts().items()})
    overhead = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
                   "metrics": {k: v for k, (v, _u) in metrics.items()}, **tracer.dump()}, fh)
    attempted = 3 * len(jobs)
    info = {"jobs_per_pass": len(jobs), "spans": len(tracer.spans), "trace_file": os.path.relpath(path, ROOT),
            "failed_frac": failed / attempted}
    return _result(args, attempted, failed, correct, metrics, info, reasons)


def _result(args, attempted, failed, correct, metrics, info, reasons) -> dict:
    for line in reasons[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


# -- the parent: pin the environment, one child per workload -----------------


def _child_argv(args, workload: str, workdir: str) -> list:
    argv = [sys.executable, os.path.abspath(__file__), "--child", workdir, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + ["--smoke"] * args.smoke + ["--record-digests"] * args.record_digests


def _spawn(args, workload: str, capture: bool):
    workdir = _prepare(workload, args.seed, args.smoke)
    try:
        return subprocess.run(_child_argv(args, workload, workdir), env=pinned_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_all(args) -> int:
    from jobs import WORKLOADS

    rows, worst = [], 0
    for workload in WORKLOADS:
        got = _spawn(args, workload, capture=True)
        if got is None or got.returncode:
            return 1
        sys.stdout.write(got.stdout)
        result = json.loads(got.stdout.strip().splitlines()[-1])
        rows.append((workload, result))
        worst = worst or (not result["correct"])
    names = list(rows[0][1]["metrics"])
    print()
    print(f"{'metric':32s}" + "".join(f"{w:>20s}" for w, _ in rows) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:20.6g}" for _, r in rows)
        print(f"{name:32s}{cells}  {rows[0][1]['metrics'][name]['unit']}")
    fails = "".join(f"{r['failed'] / r['attempted']:20.6g}" for _, r in rows)
    print(f"{'failed_frac':32s}{fails}  ratio")
    print(f"{'jobs attempted':32s}" + "".join(f"{r['attempted']:20d}" for _, r in rows) + "  count")
    return 1 if worst else 0


def main() -> int:
    args = _parser().parse_args()
    if not os.path.isfile(os.path.join(SRC, "finecover", "cli.py")):
        print(f"perfbench: no finecover sources at {SRC}; run from the repository root", file=sys.stderr)
        return 1
    if args.record_digests and (args.seed != SHIPPED_SEED or args.smoke):
        print(f"perfbench: digests are recorded at --seed {SHIPPED_SEED} without --smoke", file=sys.stderr)
        return 1
    if args.seconds is None:
        with open(BENCHMARK) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    sys.path[:0] = [HERE, SRC]
    from jobs import WORKLOADS

    if args.all:
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    if not args.child:
        got = _spawn(args, args.workload, capture=False)
        return 1 if got is None else got.returncode
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
