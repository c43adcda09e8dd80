"""Shared pytest hooks for the suite.

The acceptance tests register one result per criterion via record_criterion.
The terminal summary then prints one PASS/FAIL line per criterion so the
outcome of the whole acceptance run is visible at a glance, even when a
criterion test aborts partway through.

`quad(a, b)` builds the unit point a + b*sqrt(2) from rational parts.
"""

from fractions import Fraction

from finecover.spaces import UnitPoint

_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(num: int, title: str, ok: bool, detail: str) -> None:
    """Record the outcome of acceptance criterion `num`.

    Call this before the final assert of the criterion test so the summary
    line is printed even when the assert trips.
    """
    _RESULTS[num] = (title, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        title, ok, detail = _RESULTS[num]
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({title}): {word} [{detail}]")


def quad(a, b=0) -> UnitPoint:
    """The unit point a + b*sqrt(2) for rationals a and b (ints, Fractions
    or their text), built by `UnitPoint.from_parts` from their reduced
    pairs: a rational point when b is 0."""
    a, b = Fraction(a), Fraction(b)
    return UnitPoint.from_parts(a.numerator, a.denominator, b.numerator, b.denominator)
