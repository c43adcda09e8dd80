"""tools/traffic.py counts the lines the benchmark's jobs run: on the
smoke job lists the search loop runs and the line the search never
reaches does not."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COVERS = ROOT / "src" / "finecover" / "covers.py"


def _line(text: str) -> int:
    """The 1-based number of the one line of covers.py that reads text."""
    found = [i for i, line in enumerate(COVERS.read_text().splitlines(), 1) if line.strip() == text]
    assert len(found) == 1, found
    return found[0]


def test_traffic_lists_the_unreached_line_and_not_the_search_loop():
    loop, unreachable = _line("for i, box in frontier:"), _line('raise AssertionError("unreachable")')
    tool = [sys.executable, "-B", str(ROOT / "tools" / "traffic.py"), "--seed", "1", "--smoke"]
    unrun = subprocess.run(tool, capture_output=True, text=True, check=True).stdout.splitlines()
    assert f'covers.py:{unreachable}: raise AssertionError("unreachable")' in unrun
    assert not any(line.startswith(f"covers.py:{loop}:") for line in unrun)
