"""Steadiness check for the benchmark, run from the repository root.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads verify-artifacts

For each workload it makes --runs untraced runs, each with another seed,
and reports every end-to-end metric's quartile spread, (Q3 - Q1) / median
from statistics.quantiles(values, n=4), against its bound in
BENCHMARK.json; a spread must stay within a third of the bound (setup_s
is reported but exempt). It then makes two traced runs at one seed and
requires the counting-pass counts to repeat exactly, and last runs the
smoke configuration of the benchmark's own test. Results go to
perfbench/_out/steady.json; the exit code is 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402
from test_smoke import smoke_result  # noqa: E402

EXACT = ("exact.intervals", "exact.fractions", "spaces.cantor_bits", "spaces.approx_calls", "covers.samples",
         "gauges.evals.continuous", "gauges.evals.direct", "gauges.evals.baire1", "gauges.evals.baire2")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    got = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if got.returncode:
        raise SystemExit(f"{workload} seed {seed}: exit {got.returncode}\n{got.stderr}")
    lines = got.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = dict(re.findall(r"(p50_class|p90_class|host_speed) ([^,]+)", lines[0]))
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    ok, report = True, {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = _run(workload, seed, args.seconds, 0)
            results.append(r)
            ok &= r["correct"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()) + f", failed {r['failed']}, "
                  + ", ".join(f"{k} {v}" for k, v in r["info"].items()), flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values) if len(values) >= 2 else 0.0
            within = metric["name"] == "setup_s" or s <= metric["bound"] / 3
            ok &= within
            rows[metric["name"]] = {"median": statistics.median(values), "spread": s, "bound": metric["bound"],
                                    "values": values, "ok": within}
            print(f"  {metric['name']:12s} median {statistics.median(values):<12.6g} spread {s:7.4f} "
                  f"bound/3 {metric['bound'] / 3:7.4f} {'ok' if within else 'TOO WIDE'}", flush=True)
        report[workload] = {"runs": rows}
        a, b = (_run(workload, args.first_seed, args.seconds, 1) for _ in range(2))
        same = {k: a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in EXACT}
        ok &= all(same.values()) and a["correct"] and b["correct"]
        report[workload]["counts_repeat"] = same
        print(f"  counting pass repeats exactly: {all(same.values())} "
              + ", ".join(f"{k} {a['metrics'][k]['value']}" for k in EXACT), flush=True)
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = smoke_result(workload, trace)
            ok &= r["correct"]
            print(f"smoke {workload} trace {trace}: correct {r['correct']}", flush=True)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
