"""The benchmark's own test: a smoke configuration of every workload.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs with a short job list, untraced and traced, and must
check out correct and print exactly the metrics BENCHMARK.json names.
Outside the repository's tests/ directory, so Tier-1 does not collect it.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402


@functools.lru_cache(maxsize=None)
def smoke_result(workload: str, trace: int, seed: int = 7) -> dict:
    """The result line of one smoke run."""
    got = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode == 0, got.stderr
    return json.loads(got.stdout.strip().splitlines()[-1])


def _declared(key: str) -> set:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke(workload, trace):
    result = smoke_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], result
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert result["attempted"] >= 100


# `finecover verify` on a unit-interval cover with a gap raises instead of
# naming the uncovered point (cmd_verify hands a Fraction to unit_str), so
# the cont-gap job of verify-artifacts fails on every pass.
KNOWN_FAILING = pytest.mark.xfail(strict=True, reason="cmd_verify raises on an uncovered unit-interval point")


@pytest.mark.parametrize("workload", [pytest.param(w, marks=KNOWN_FAILING) if w == "verify-artifacts" else w
                                      for w in WORKLOADS])
def test_no_job_fails(workload):
    assert smoke_result(workload, 0)["failed"] == 0


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py") or name.endswith(".json"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert got.returncode != 0
    assert got.stdout == ""
