"""Line traffic of the benchmark's jobs over src/finecover.

    python3 tools/traffic.py --seed 1 --seed 7 gauges.py:452 covers.py:131
    python3 tools/traffic.py --seed 1 --workload search covers.py:418
    python3 tools/traffic.py --seed 1

Builds the `search` and `verify-artifacts` job lists of perfbench/jobs.py
(read only: it is imported without writing a bytecode file), writes their
inputs to a temporary directory and runs every job once through
`cli.main`, in process, under `sys.settrace`, counting the line events of
each line of src/finecover. Each workload at each seed runs in a fresh
interpreter with PYTHONHASHSEED=0, as one pass of the benchmark does, so
no process-wide cache carries over from one to the next.

Given FILE:LINE arguments (FILE relative to src/finecover), it prints the
hits of each of those lines per seed, both workloads summed, with the
line's text. Without them, it prints every line of a function body in
src/finecover that no job ran at any of the seeds. `--workload NAME`
counts that workload alone, and `--smoke` uses the short job lists of the
benchmark's smoke test.
"""

from __future__ import annotations

import argparse
import dis
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finecover"
PERFBENCH = ROOT / "perfbench"
WORKLOADS = ("search", "verify-artifacts")


def _jobs_module():
    """perfbench/jobs.py, imported without a bytecode file."""
    sys.path.insert(0, str(PERFBENCH))
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("jobs")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write


def traffic(workload: str, seed: int, smoke: bool = False) -> Counter:
    """Line events per (file name, line) of src/finecover over one pass of
    the workload's jobs at the seed. A job that raises counts its lines up
    to the raise and is named on stderr, as the benchmark fails it."""
    from finecover import cli

    jobs = _jobs_module()
    job_list = jobs.build(workload, seed, smoke)
    src = str(SRC) + os.sep
    hits: Counter = Counter()

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename, frame.f_lineno] += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    here, outer = os.getcwd(), sys.gettrace()
    with tempfile.TemporaryDirectory() as work:
        jobs.write_files(job_list, work)
        os.chdir(work)
        try:
            for job in job_list.jobs:
                sys.settrace(call)
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                        cli.main(list(job.argv))
                except Exception as e:
                    print(f"{job.id}: {type(e).__name__}: {e}", file=sys.stderr)
                finally:
                    sys.settrace(outer)
        finally:
            os.chdir(here)
    return Counter({(Path(f).name, line): n for (f, line), n in hits.items()})


def function_lines(path: Path) -> set:
    """The lines of the function bodies in a module, those a line event can
    name: module and class bodies run at import, and a function's prologue,
    up to its RESUME at the def line, is no line event."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:
            resume = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
            out.update(line for start, _, line in code.co_lines() if line and start > resume)
    return out


def _counts(seed: int, smoke: bool, workloads: tuple) -> Counter:
    """The workloads at one seed, summed, each in a fresh interpreter."""
    total: Counter = Counter()
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
    for workload in workloads:
        argv = [sys.executable, __file__, "--child", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
        got = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
        total.update({(f, line): n for f, line, n in json.loads(got.stdout)})
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, action="append", required=True, help="job-list seed; repeat for several")
    p.add_argument("--workload", choices=WORKLOADS, help="count this workload alone; by default both, summed")
    p.add_argument("--smoke", action="store_true", help="the smoke test's short job lists")
    p.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("lines", nargs="*", metavar="FILE:LINE")
    args = p.parse_args(argv)
    if args.child:
        hits = traffic(args.child, args.seed[0], args.smoke)
        json.dump([[f, line, n] for (f, line), n in sorted(hits.items())], sys.stdout)
        return 0
    workloads = (args.workload,) if args.workload else WORKLOADS
    counts = [_counts(seed, args.smoke, workloads) for seed in args.seed]
    if args.lines:
        print("line".ljust(18) + "".join(f"seed {s}".rjust(12) for s in args.seed))
        for spec in args.lines:
            name, _, line = spec.partition(":")
            text = (SRC / name).read_text().splitlines()[int(line) - 1].strip()
            print(spec.ljust(18) + "".join(f"{c[name, int(line)]:>12,}" for c in counts) + f"   {text}")
        return 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(function_lines(path)):
            if not any(c[path.name, line] for c in counts):
                print(f"{path.name}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
