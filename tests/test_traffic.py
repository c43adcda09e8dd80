"""tools/traffic.py counts the lines the benchmark's jobs run: on the
smoke job lists the search loop runs and the line the search never
reaches does not, and one workload can be counted alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "finecover"
TOOL = [sys.executable, "-B", str(ROOT / "tools" / "traffic.py"), "--seed", "1", "--smoke"]


def _line(text: str, name: str = "covers.py") -> int:
    """The 1-based number of the one line of the module that reads text."""
    found = [i for i, line in enumerate((SRC / name).read_text().splitlines(), 1) if line.strip() == text]
    assert len(found) == 1, found
    return found[0]


def test_traffic_lists_the_unreached_line_and_not_the_search_loop():
    loop, unreachable = _line("for i, box in frontier:"), _line('raise AssertionError("unreachable")')
    unrun = subprocess.run(TOOL, capture_output=True, text=True, check=True).stdout.splitlines()
    assert f'covers.py:{unreachable}: raise AssertionError("unreachable")' in unrun
    assert not any(line.startswith(f"covers.py:{loop}:") for line in unrun)


def test_traffic_counts_one_workload_alone():
    """The search loop runs in `search` alone. A limit code's region is
    read in `verify-artifacts` alone, though `search` queries limit codes."""
    lines = [
        f"covers.py:{_line('for i, box in frontier:')}",
        f"gauges.py:{_line('kernel = self.term(n).region', 'gauges.py')}",
        f"gauges.py:{_line('last = self._last.get(x)', 'gauges.py')}",
    ]

    def hits(workload: str) -> list:
        out = subprocess.run(TOOL + ["--workload", workload] + lines, capture_output=True, text=True, check=True)
        return [int(row.split()[1].replace(",", "")) for row in out.stdout.splitlines()[1:]]

    loop, region, limit = hits("search")
    assert loop > 0 and region == 0 and limit > 0
    loop, region, _ = hits("verify-artifacts")
    assert loop == 0 and region > 0
