"""The README's command examples, run as a transcript.

Every `$ finecover ...` line of a fenced block in README.md runs through
`cli.main` in one scratch directory, in order, so later commands see the
files earlier ones wrote. The lines after a command, up to the next `$`
line or the end of the block, are its expected stdout; a line that reads
`...` stands for any run of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from finecover.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _transcript(text: str) -> list:
    """(argv, expected stdout lines) per command, in README order."""
    out = []
    in_block = False
    cmd = None
    for line in text.splitlines():
        if line.startswith("```"):
            in_block = not in_block
            cmd = None
        elif in_block and line.startswith("$ "):
            words = shlex.split(line[2:])
            cmd = (words[1:], []) if words[0] == "finecover" else None
            if cmd is not None:
                out.append(cmd)
        elif in_block and cmd is not None:
            cmd[1].append(line)
    return out


def _pattern(expected: list) -> str:
    return "".join(r"(?:.*\n)*" if ln.strip() == "..." else re.escape(ln) + r"\n" for ln in expected)


def test_readme_commands_print_what_it_shows(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COUSIN_GAUGE_STAGE_DEFAULT", raising=False)
    cmds = _transcript(README.read_text())
    assert len(cmds) >= 6  # an unparsed README would pass with no commands
    for argv, expected in cmds:
        main(argv)
        got = capsys.readouterr().out
        if re.fullmatch(_pattern(expected), got) is None:
            pytest.fail(f"finecover {shlex.join(argv)} printed:\n{got}\nREADME shows:\n" + "\n".join(expected))
