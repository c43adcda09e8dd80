import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finecover import cli, covers, integral
from finecover.cli import main
from finecover.covers import verify_cover
from finecover.gallery import gap_limit_point
from finecover.gauges import DirectCode, Verdict
from finecover.gaugespec import MAX_DEPTH, MAX_EXPONENT, parse_gauge
from finecover.serialize import parse_cover_csv


BAIRE = "baire1(n -> 1/2 - 2^-(n+1))"
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integrate_identity(capsys):
    code, out, _ = run(capsys, "integrate", "--preset", "identity", "--epsilon", "1/16", "--depth", "10")
    assert code == 0
    doc = json.loads(out)
    assert F(doc["claim_lo"]) <= F(1, 2) <= F(doc["claim_hi"])
    assert doc["function"] == "identity"


def test_integrate_rejects_bad_epsilon(capsys):
    code, _, err = run(capsys, "integrate", "--preset", "identity", "--epsilon", "0")
    assert code == 1
    assert "epsilon" in err or "positive" in err


def test_integrate_search_visits_only_cells_that_can_accept(capsys, monkeypatch):
    # the halved identity gauge is the constant 1/4096: region bounds rule
    # out levels 0..12 without a sample, and each level-13 cell's region
    # lower end already beats its width, so the cell accepts its midpoint
    # without a verdict
    calls = []
    inner = covers.verified_above

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(covers, "verified_above", counting)
    code, out, _ = run(capsys, "integrate", "--preset", "identity", "--epsilon", "1/1024")
    assert code == 0
    assert json.loads(out)["cells"] == 8192
    assert len(calls) == 0


def test_integrate_contradicting_gauge_exits_four(capsys, monkeypatch):
    # a gauge answering 1 until the cover is converted and 0 after: the
    # scaled search code and the gauge keep separate accumulators, so each
    # one's enclosures nest, the search accepts and the partition check
    # then fails
    converted = []
    inner = integral.cover_to_partition

    def converting(cover):
        converted.append(cover)
        return inner(cover)

    def fam(eps):
        return DirectCode(lambda p, stage: (0, 0, 1) if converted else (1, 1, 1), label="liar")

    f, _, ref = cli.builtin_integrands()["identity"]
    monkeypatch.setattr(integral, "cover_to_partition", converting)
    monkeypatch.setattr(cli, "builtin_integrands", lambda: {"flaky": (f, fam, ref)})
    code, out, err = run(capsys, "integrate", "--preset", "flaky", "--epsilon", "1/4", "--depth", "4", "--stage", "1")
    assert code == 4
    assert out == ""
    assert "failed fineness" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--stage", "--depth"])
@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--preset", "identity", "--epsilon", "1/16"],
        ["cousin", "--gauge", "const:1/4"],
        ["verify", "--gauge", "const:1/4", "--in", "cover.csv"],
        ["gallery", "oracle-pin", "--bits", "01"],
    ],
)
def test_zero_or_negative_stage_and_depth_rejected(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 1
    assert out == ""
    if argv[0] == "verify" and flag == "--depth":
        assert f"unrecognized arguments: --depth {value}" in err  # verify searches nothing
    else:
        assert f"argument {flag}: must be >= 1, got {value}" in err


def test_verify_deep_cantor_cover_names_witness(capsys, tmp_path):
    art = tmp_path / "deep.csv"
    art.write_text(f"point,radius\nprefix=;period=01,1/{2**1500}\n")
    code, out, _ = run(capsys, "verify", "--preset", "oracle-pin:01", "--in", str(art))
    assert code == 3
    assert out == "not a cover: prefix=;period=0 is uncovered\n"


def test_integrate_unknown_preset(capsys):
    code, _, err = run(capsys, "integrate", "--preset", "cosine", "--epsilon", "1/8")
    assert code == 1
    assert "cosine" in err


def test_integrate_dirichlet_small_sum(capsys):
    code, out, _ = run(capsys, "integrate", "--preset", "dirichlet", "--epsilon", "1/8", "--depth", "14")
    assert code == 0
    doc = json.loads(out)
    assert F(doc["sum_hi"]) <= F(1, 2)


def test_cousin_const_cover_reverifies(capsys, tmp_path):
    code, out, _ = run(capsys, "cousin", "--gauge", "const:1/4", "--space", "unit", "--depth", "8")
    assert code == 0
    cover = parse_cover_csv(out)
    assert verify_cover(parse_gauge("1/4"), cover, 8) is Verdict.YES
    art = tmp_path / "cover.csv"
    art.write_text(out)
    code2, out2, _ = run(capsys, "verify", "--gauge", "const:1/4", "--in", str(art))
    assert code2 == 0
    assert "verified" in out2


def test_cousin_as_partition_reverifies(capsys, tmp_path):
    code, out, _ = run(capsys, "cousin", "--gauge", "const:1/4", "--depth", "8", "--as-partition")
    assert code == 0
    assert out.splitlines()[0] == "lo,hi,tag"
    art = tmp_path / "part.csv"
    art.write_text(out)
    # widths are at most 2 * radius, so re-verify against the doubled gauge
    code2, out2, _ = run(capsys, "verify", "--gauge", "const:1/2", "--in", str(art))
    assert code2 == 0


def test_cousin_deterministic(capsys):
    a = run(capsys, "cousin", "--gauge", "dist(1/3) + 1/16", "--depth", "6")
    b = run(capsys, "cousin", "--gauge", "dist(1/3) + 1/16", "--depth", "6")
    assert a == b


def test_cousin_cauchy_gap_obstruction(capsys):
    code, out, _ = run(capsys, "cousin", "--preset", "cauchy-gap", "--depth", "16", "--stage", "12")
    assert code == 2
    doc = json.loads(out)
    assert len(doc["unresolved"]) == 1
    lo, hi = doc["unresolved"][0].strip("[]").split(",")
    zbox = gap_limit_point().approx(40)
    assert F(lo) <= zbox.lo and zbox.hi <= F(hi)


def test_cousin_oracle_pin_hint(capsys):
    code, out, _ = run(
        capsys, "cousin", "--preset", "oracle-pin:0101", "--space", "cantor",
        "--depth", "10", "--hint", "Z",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,radius"
    assert "period=01" in lines[1] and lines[1].endswith(",1/1")


def test_cousin_oracle_pin_blind_obstructed(capsys):
    code, out, _ = run(capsys, "cousin", "--preset", "oracle-pin:0101", "--depth", "6")
    assert code == 2
    doc = json.loads(out)
    assert doc["unresolved"] == ["[010101]"]


def test_cousin_space_mismatch(capsys):
    code, _, err = run(capsys, "cousin", "--preset", "oracle-pin:01", "--space", "unit")
    assert code == 1
    assert "cantor" in err


@pytest.mark.parametrize(
    "argv",
    [("--preset", "oracle-pin:2"), ("--gauge", "oracle-pin(2)")],
)
def test_cousin_bad_pin_bits_exit_one(capsys, argv):
    # the preset and the grammar read the pinned bits with one parser
    code, out, err = run(capsys, "cousin", *argv, "--space", "cantor", "--depth", "4")
    assert code == 1
    assert out == ""
    assert "bad bit pattern" in err


@pytest.mark.parametrize(
    "text,col",
    [
        ("x + \u00b2", 5),
        pytest.param("x + " + "9" * 5000, 5, id="numeral-of-5000-digits"),
        (f"x + 2^{MAX_EXPONENT + 1}", 6),
        (f"x + 2^-{MAX_EXPONENT + 1}", 6),
    ],
)
def test_bad_gauge_text_exits_one_at_its_column(capsys, text, col):
    # a superscript digit is no numeral; a numeral past the interpreter's
    # int-string limit and an exponent past MAX_EXPONENT are rejected
    # before any arithmetic
    code, out, err = run(capsys, "cousin", "--gauge", text, "--depth", "4")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: line 1, col {col}: ") and "Traceback" not in err


def test_limit_body_errors_surface_when_a_term_is_compiled(capsys, tmp_path):
    """A limit body's index-free part is compiled by the first term that
    needs it, not at parse time: a bad cover file is reported before the
    body's own error, which a search reaches at its first term."""
    cover = tmp_path / "cover.csv"
    cover.write_text("point,radius\nrat:1/2,zz\n")
    code, out, err = run(capsys, "verify", "--gauge", "baire1(n -> 2^x + 2^-n)", "--in", str(cover))
    assert (code, out, err) == (1, "", "error: row 2: not a rational: 'zz'\n")
    code, out, err = run(capsys, "cousin", "--gauge", "baire1(n -> 2^x)")
    assert (code, out, err) == (1, "", "error: line 1, col 14: exponent may not depend on x\n")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("point,radius\nrat:1/2,1/2\nrat:1/4,0/1\n", "row 3: cover radius must be > 0, got 0 at UnitPoint(1/4)",
                     id="zero-radius"),
        pytest.param("point,radius\nrat:1/2,1\n\nprefix=0;period=1,1/2\n", "row 4: cover mixes points from both spaces",
                     id="mixed-spaces"),
    ],
)
def test_verify_cover_entry_errors_name_their_row(capsys, tmp_path, text, message):
    art = tmp_path / "cover.csv"
    art.write_text(text)
    code, out, err = run(capsys, "verify", "--gauge", "1", "--stage", "4", "--in", str(art))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_flags_inflated_radius(capsys, tmp_path):
    _, out, _ = run(capsys, "cousin", "--gauge", "const:1/4", "--depth", "8")
    lines = out.splitlines()
    first = lines[1].rsplit(",", 1)[0]
    lines[1] = f"{first},1/2"
    art = tmp_path / "bad.csv"
    art.write_text("\n".join(lines) + "\n")
    code, out2, _ = run(capsys, "verify", "--gauge", "const:1/4", "--in", str(art))
    assert code == 3
    assert "below the radius" in out2


@pytest.mark.parametrize(
    "text, row",
    [
        pytest.param("point,radius\nrat:1e-3000000,1/2\nrat:1/2,1/2\n", 2, id="cover-exponent"),
        pytest.param("point,radius\nrat:1/2,1/2\nrat:1/4,1_0/3\n", 3, id="cover-underscore"),
        pytest.param("lo,hi,tag\n0,1e-3000000,rat:0\n1e-3000000,1,rat:1/2\n", 2, id="partition-exponent"),
        pytest.param("lo,hi,tag\n0,1/2,rat:1/4\n1/2,1,rat:6.5E-1\n", 3, id="partition-tag-exponent"),
    ],
)
def test_verify_refuses_exponents_and_underscores_in_csv_numbers(capsys, tmp_path, text, row):
    # a ten-byte exponent would stand for a ten-million-bit denominator
    art = tmp_path / "art.csv"
    art.write_text(text)
    code, out, err = run(capsys, "verify", "--gauge", "1", "--stage", "4", "--in", str(art))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: row {row}: not a rational: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, row",
    [
        pytest.param("point,radius\nrat:1/2,1/2\nrat:" + "1" * 320_000 + ",1/2\n", 3, id="cover"),
        pytest.param("lo,hi,tag\n0,1," + "1" * 320_000 + "\n", 2, id="partition"),
    ],
)
def test_verify_oversized_csv_field_exits_one(capsys, tmp_path, text, row):
    # the csv module refuses fields over 131072 characters with its own error type
    art = tmp_path / "art.csv"
    art.write_text(text)
    code, out, err = run(capsys, "verify", "--gauge", "1", "--stage", "4", "--in", str(art))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: row {row}: field larger than field limit") and "Traceback" not in err


def test_verify_partition_quad_tag_outside_its_cell_exits_one(capsys, tmp_path):
    # 3 - sqrt(2) is about 1.586: inside the ambient [-1, 2], outside [0, 1]
    art = tmp_path / "part.csv"
    art.write_text('lo,hi,tag\n0,1,"quad:3/1,-1/1"\n')
    code, out, err = run(capsys, "verify", "--gauge", "1", "--stage", "4", "--in", str(art))
    assert (code, out, err) == (1, "", "error: tag 0 = 3 + -1*sqrt2 outside its cell [0,1]\n")


# tag components: numerals of either sign, some of them large, and pieces
# that are not numerals at all, empty or with a stray sign or slash
_COMPONENT = st.one_of(
    st.fractions(-1, 2, max_denominator=16).map(lambda q: f"{q.numerator}/{q.denominator}"),
    st.integers(-(10**60), 10**60).map(str),
    st.builds("{}/{}".format, st.integers(-(10**40), 10**40), st.integers(0, 10**40)),
    st.builds("{}.{}".format, st.integers(-3, 3), st.integers(0, 10**30)),
    st.sampled_from(["", "-", "+", "/", "1/", "/2", ".5", "--1", "+-1", " 1/2 ", "1/2/3", "x", "1e3"]),
)


@st.composite
def _tag_texts(draw):
    kind = draw(st.sampled_from(["quad", "approx", "rat", "box"]))
    if kind == "box":  # a well-formed approximant: q +- 2^-j recorded at precision p
        q, j, p = draw(st.fractions(0, 1, max_denominator=8)), draw(st.integers(16, 40)), draw(st.integers(16, 40))
        return f"approx:[{q - F(1, 2**j)},{q + F(1, 2**j)}]@{p}"
    parts = ",".join(draw(st.lists(_COMPONENT, max_size=3)))
    if kind != "approx":
        return f"{kind}:{parts}"
    prec = draw(st.one_of(st.integers(0, 64).map(str), st.sampled_from(["", "x", "-1", "1.5", "10" * 20])))
    return f"approx:[{parts}]@{prec}"


@settings(max_examples=150, deadline=None)
@given(tag=_tag_texts())
def test_verify_partition_tag_fuzz_ends_in_an_exit_code(tmp_path_factory, tag):
    """Any tag text on a one-row partition ends in exit 0-3 with no
    traceback; a refused one prints nothing on stdout and says why on stderr."""
    art = tmp_path_factory.mktemp("fuzz") / "part.csv"
    art.write_text(f'lo,hi,tag\n0,1,"{tag}"\n')
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--gauge", "x + 1/2", "--stage", "4", "--in", str(art)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# Artifacts for the verify fuzzer: a well-formed partition CSV, Cantor
# cover CSV or heine-borel cover file, then some of its cells replaced and
# some of its rows dropped. Unit-interval cover CSVs stay out while a gap
# in one still raises (test_verify_names_the_gap_in_a_rational_cover).
_NUMBERS = st.one_of(st.fractions(-1, 2, max_denominator=8).map(str), _COMPONENT)
_TAGS = st.one_of(
    _tag_texts(),
    st.fractions(0, 1, max_denominator=8).map("rat:{}".format),
    # sqrt2 - 1 and 1/2 + sqrt2/4 lie in (0, 1), sqrt2 outside it; a box at a precision past any stage
    st.sampled_from(["quad:-1/1,1/1", "quad:1/2,1/4", "quad:0/1,1/1", "approx:[1/3,1/3]@" + "9" * 40]),
)
_BITS = st.text("01", max_size=3)
_CANTOR_POINTS = st.one_of(
    st.builds("prefix={};period={}".format, _BITS, _BITS),
    st.sampled_from(["prefix=2;period=1", "prefix=0", "period=1", "rat:1/2", "prefix=;period=01;", ""]),
)
_TAIL_EXPRS = st.sampled_from(["n", "1/n", "2^-n", "x", "1/(n - 3)", "1/(n - 9)", "2^-(n*n)", "-1/n", "0", "(n - 2)/n", "2^n"])


def _mutated(draw, rows, cells):
    """rows with some cells replaced by draws from cells[column] and some rows dropped."""
    for i, j in draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, len(cells) - 1)), max_size=3)):
        if rows:
            rows[i % len(rows)][j] = draw(cells[j])
    for i in draw(st.lists(st.integers(0, 7), max_size=2)):
        if rows:
            del rows[i % len(rows)]
    return rows


def _csv_text(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(f'"{c}"' for c in row) + "\n" for row in rows)


@st.composite
def _partition_args(draw):
    cuts = [F(0), *sorted(draw(st.lists(st.fractions(0, 1, max_denominator=8), max_size=4))), F(1)]
    rows = [[str(lo), str(hi), f"rat:{lo}"] for lo, hi in zip(cuts, cuts[1:])]
    rows = _mutated(draw, rows, [_NUMBERS, _NUMBERS, _TAGS])
    gauge = draw(st.sampled_from(["1", "x + 1/2", "min(x + 1/8, 1 - x)"]))
    return {"art.csv": _csv_text("lo,hi,tag", rows)}, ["verify", "--gauge", gauge, "--in", "art.csv"]


@st.composite
def _cantor_cover_args(draw):
    # fine for the gauge pinned at 0101...: that point and three other quarters
    rows = [["prefix=;period=01", "1/4"]] + [[f"prefix={p};period=0", "1/4"] for p in ("00", "10", "11")]
    rows = _mutated(draw, rows, [_CANTOR_POINTS, _NUMBERS])
    return {"art.csv": _csv_text("point,radius", rows)}, ["verify", "--gauge", "oracle-pin(01)", "--in", "art.csv"]


@st.composite
def _heine_borel_args(draw):
    rows = [["-1/8", "5/8"], ["1/2", "9/8"]]
    rows = _mutated(draw, rows, [_NUMBERS, _NUMBERS])  # equal or swapped ends make an empty interval
    lines = [" ".join(row) for row in rows]
    if draw(st.booleans()):
        lines.append(f"tail: {draw(_TAIL_EXPRS)} {draw(_TAIL_EXPRS)}")
    return {"cover": "\n".join(lines) + "\n"}, ["gallery", "heine-borel", "--cover", "cover", "--depth", "6"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(_partition_args(), _cantor_cover_args(), _heine_borel_args()), stage=st.sampled_from(["1", "4", "8"]))
def test_verify_artifact_fuzz_ends_in_an_exit_code(monkeypatch, tmp_path, case, stage):
    """Any mutated partition CSV, Cantor cover CSV or heine-borel cover
    file ends in an exit code 0-4 and raises nothing; a refused one prints
    nothing on stdout and says why on stderr."""
    files, argv = case
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--stage", stage])
    assert code in (0, 1, 2, 3, 4)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


# Gauge texts for the cousin fuzzer. Pieces: numerals, names and symbols,
# the combinators and comments, each built-in with an argument it accepts
# and one it refuses, and characters the grammar does not know. Texts:
# expressions built by the grammar, some with one piece spliced in, and
# strings of pieces.
_GAUGE_PIECES = (
    "x", "n", "m", "0", "1", "3/4", "1/8", "2^-", "2^", "min(", "max(", "dist(", "baire1(n -> ",
    "baire2(m -> ", "|", "(", ")", ",", "+", "-", "*", "/", "^", "·", "->", "↦", " ", "\n", "# c\n",
    "#", "cauchy-gap()", "cauchy-gap(1)", "oracle-pin(01)", "oracle-pin(", "heine-borel(cover)",
    "heine-borel(none)", "const:", "é", "@", "_", "²",
)


def _gauge_exprs(*names):
    """Expressions over x, constants and the index names given."""
    leaves = st.sampled_from(["x", "1", "3/4", "1/8", "2^-3", "dist(1/4, 3/4)", *names, *(f"2^-{n}" for n in names)])
    return st.recursive(
        leaves,
        lambda e: st.one_of(
            st.builds("({} {} {})".format, e, st.sampled_from("+-*/·"), e),
            st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), e, e),
            st.builds("|{}|".format, e),
            st.builds("-{}".format, e),
        ),
        max_leaves=6,
    )


_GAUGE_EXPRS = st.one_of(
    _gauge_exprs(),
    _gauge_exprs("n").map("baire1(n -> {})".format),
    _gauge_exprs("m", "n").map("baire2(m -> baire1(n -> {}))".format),
)
_GAUGE_TEXTS = st.one_of(
    _GAUGE_EXPRS,
    st.builds(lambda t, piece, at: t[:at] + piece + t[at:], _GAUGE_EXPRS, st.sampled_from(_GAUGE_PIECES), st.integers(0, 40)),
    st.lists(st.sampled_from(_GAUGE_PIECES), max_size=16).map("".join),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_GAUGE_TEXTS, stage=st.sampled_from(["1", "2", "8", "48"]))
def test_cousin_gauge_text_fuzz_ends_in_an_exit_code(monkeypatch, tmp_path, text, stage):
    """Any gauge text ends a cousin search in exit 0, 1 or 2 and raises
    nothing; a refused one prints nothing on stdout and says why on
    stderr. The text goes in as --gauge=TEXT, since argparse would read a
    separate argument that starts with - as an option. heine-borel reads
    its cover file from the working directory, here a fresh one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover").write_text("-1/8 5/8\n1/2 9/8\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["cousin", f"--gauge={text}", "--depth", "2", "--stage", stage])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@pytest.mark.xfail(strict=True, raises=AttributeError, reason="uncovered_witness returns a Fraction, which point_str cannot write")
def test_verify_names_the_gap_in_a_rational_cover(capsys, tmp_path):
    # the balls [0, 1/2] and [5/8, 7/8] miss (1/2, 5/8), whose simplest dyadic is 9/16
    art = tmp_path / "cover.csv"
    art.write_text("point,radius\nrat:1/4,1/4\nrat:3/4,1/8\n")
    assert run(capsys, "verify", "--gauge", "1/2", "--in", str(art)) == (3, "not a cover: rat:9/16 is uncovered\n", "")


def test_verify_stage_sensitivity(capsys, tmp_path):
    art = tmp_path / "part.csv"
    art.write_text(
        "lo,hi,tag\n0,7/16,rat:1/4\n7/16,7/8,rat:1/2\n7/8,1,rat:15/16\n"
    )
    code, out, _ = run(capsys, "verify", "--gauge", BAIRE, "--in", str(art), "--stage", "1")
    assert code == 2
    assert "unresolved" in out
    code2, out2, _ = run(capsys, "verify", "--gauge", BAIRE, "--in", str(art), "--stage", "1000")
    assert code2 == 0
    assert "verified" in out2


def test_stage_env_default(capsys, tmp_path, monkeypatch):
    art = tmp_path / "part.csv"
    art.write_text(
        "lo,hi,tag\n0,7/16,rat:1/4\n7/16,7/8,rat:1/2\n7/8,1,rat:15/16\n"
    )
    monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", "1")
    code, _, _ = run(capsys, "verify", "--gauge", BAIRE, "--in", str(art))
    assert code == 2
    monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", "64")
    code2, _, _ = run(capsys, "verify", "--gauge", BAIRE, "--in", str(art))
    assert code2 == 0


def test_main_twice_in_one_process_leaks_no_argument(capsys, tmp_path, monkeypatch):
    """The parser is built once per process; each call still starts from the
    defaults and reads the stage default from the environment."""
    plain = run(capsys, "cousin", "--gauge", "const:1/4")
    out = tmp_path / "hinted.csv"
    assert run(capsys, "cousin", "--gauge", "const:1/4", "--depth", "3", "--hint", "rat:1/8", "--out", str(out)) == (0, "", "")
    assert "rat:1/8," in out.read_text()
    assert run(capsys, "cousin", "--gauge", "const:1/4") == plain
    assert cli._make_parser() is cli._make_parser()

    art = tmp_path / "part.csv"
    art.write_text("lo,hi,tag\n0,7/16,rat:1/4\n7/16,7/8,rat:1/2\n7/8,1,rat:15/16\n")
    monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", "1")
    assert run(capsys, "verify", "--gauge", BAIRE, "--in", str(art), "--stage", "64")[0] == 0
    assert run(capsys, "verify", "--gauge", BAIRE, "--in", str(art))[0] == 2
    monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", "64")
    assert run(capsys, "gallery", "cauchy-gap", "--depth", "12")[0] == 0
    assert run(capsys, "verify", "--gauge", BAIRE, "--in", str(art)) == (0, "partition verified\n", "")


def test_gallery_heine_borel(capsys, tmp_path):
    cov = tmp_path / "two.cov"
    cov.write_text("-1/10 6/10\n4/10 11/10\n")
    code, out, _ = run(capsys, "gallery", "heine-borel", "--cover", str(cov))
    assert code == 0
    doc = json.loads(out)
    assert doc["subcover_index"] >= 1
    assert doc["union_verified"] is True


def test_gallery_cauchy_gap(capsys):
    code, out, _ = run(capsys, "gallery", "cauchy-gap", "--depth", "12", "--stage", "12")
    assert code == 0
    doc = json.loads(out)
    assert F(doc["width"]) <= F(1, 2**10)


def test_cauchy_gap_runs_at_a_deep_stage(capsys):
    """Term t of the gap gauge has a denominator of 2^(t^2), too long to
    write out at stage 120 and past; no label or message of a run writes
    one."""
    code, out, err = run(capsys, "gallery", "cauchy-gap", "--stage", "200")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    run_lo, run_hi = (F(v) for v in doc["unresolved"].strip("[]").split(","))
    z = gap_limit_point().approx(40)
    assert run_lo <= z.lo and z.hi <= run_hi
    assert run(capsys, "cousin", "--preset", "cauchy-gap", "--depth", "10", "--stage", "120")[0] == 2


def test_gallery_oracle_pin(capsys):
    code, out, _ = run(capsys, "gallery", "oracle-pin", "--bits", "0101", "--depth", "10", "--stage", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["blind_search"] == "obstruction [0101010101]"
    assert doc["hinted_cover_size"] >= 1


def test_bad_flags_exit_one(capsys):
    assert main(["cousin", "--no-such-flag"]) == 1
    assert main(["nonsense"]) == 1


_EXIT_PATH_FILES = {
    "part.csv": "lo,hi,tag\n0,1,rat:1/2\n",
    "cantor.csv": "point,radius\nprefix=;period=01,1\n",
    "unknown.csv": "foo,bar\n1,2\n",
    "two-fields.csv": "lo,hi,tag\n0,1\n",
    "header-only.csv": "lo,hi,tag\n",
    "tailed.cov": "-1/10 6/10\ntail: 1/2 2^-(n+4)\n",
}


@pytest.mark.parametrize(
    "argv,env,code,err",
    [
        (["cousin", "--gauge", "const:1/4", "--stage", "abc"], None, 1, "argument --stage: not an integer: 'abc'\n"),
        (["cousin", "--gauge", "const:1/4", "--depth", "4"], "abc", 0, "ignoring bad COUSIN_GAUGE_STAGE_DEFAULT='abc'\n"),
        (["cousin", "--preset", "nope"], None, 1, "error: unknown preset 'nope'\n"),
        (["cousin", "--depth", "4"], None, 1, "error: need --gauge, --gauge-file, or --preset\n"),
        (["cousin", "--gauge", "const:1/4", "--hint", "Z"], None, 1,
         "error: --hint Z only makes sense with an oracle-pin preset\n"),
        (["verify", "--gauge", "oracle-pin(01)", "--in", "part.csv"], None, 1,
         "error: partitions live on the unit interval\n"),
        (["verify", "--gauge", "x", "--in", "cantor.csv"], None, 1, "error: cover is on cantor, gauge on unit\n"),
        (["verify", "--gauge", "x", "--in", "unknown.csv"], None, 1, "error: unrecognized artifact header 'foo,bar'\n"),
        (["gallery", "heine-borel"], None, 1, "error: heine-borel needs --cover FILE\n"),
        (["integrate", "--preset", "identity", "--epsilon", "1/16", "--depth", "1"], None, 2, ""),
        (["gallery", "heine-borel", "--cover", "tailed.cov", "--depth", "1"], None, 2, ""),
        (["verify", "--gauge", "x", "--in", "two-fields.csv"], None, 1, "error: row 2: need lo,hi,tag, got ['0', '1']\n"),
        (["verify", "--gauge", "x", "--in", "header-only.csv"], None, 1, "error: no cells\n"),
        (["cousin", "--gauge", "1/2 )"], None, 1, "error: line 1, col 5: trailing input starting at ')'\n"),
        (["cousin", "--gauge", "|x"], None, 1, "error: line 1, col 1: unclosed |...|\n"),
        (["cousin", "--gauge", "baire1(n x)"], None, 1, "error: line 1, col 10: expected -> after the index name\n"),
        (["cousin", "--gauge", "heine-borel"], None, 1,
         "error: line 1, col 12: heine-borel needs a parenthesized argument\n"),
    ],
)
def test_exit_paths(capsys, tmp_path, monkeypatch, argv, env, code, err):
    """Each branch ends in its exit code: a message and no report on exit 1,
    the obstruction JSON and no message on exit 2, and on exit 0 a bad
    stage default is reported and the stage falls back to 48."""
    for name, text in _EXIT_PATH_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", env)
    got, out, got_err = run(capsys, *argv)
    assert got == code
    assert got_err.endswith(err) if err else got_err == ""
    if code == 0:
        monkeypatch.delenv("COUSIN_GAUGE_STAGE_DEFAULT")
        assert run(capsys, *argv, "--stage", "48") == (0, out, "")
    elif code == 1:
        assert out == ""
    else:
        assert json.loads(out)["unresolved"] == ["[0/1,1/1]"]


@pytest.mark.parametrize("raw", ["0", "-3", "9" * 5000])
def test_bad_stage_default_falls_back_to_48(capsys, monkeypatch, raw):
    argv = ["cousin", "--gauge", "const:1/4", "--depth", "4"]
    monkeypatch.setenv("COUSIN_GAUGE_STAGE_DEFAULT", raw)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, f"ignoring bad COUSIN_GAUGE_STAGE_DEFAULT={raw!r}\n")
    monkeypatch.delenv("COUSIN_GAUGE_STAGE_DEFAULT")
    assert run(capsys, *argv, "--stage", "48") == (0, out, "")


def test_relative_heine_borel_path_in_gauge_text_reads_from_the_cwd(capsys, tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "cov.txt").write_text("-1/10 6/10\n4/10 11/10\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "cousin", "--gauge", "heine-borel(cov.txt)", "--depth", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, col 1: cannot read cover file: ") and err.endswith("'./cov.txt'\n")


_VERIFY = ["verify", "--gauge", "1/2", "--in"]


@pytest.mark.parametrize(
    "argv,name,text,err",
    [
        (_VERIFY, "ap.csv", 'point,radius\n"approx:[0,1/2]@3",1/2\n',
         "error: row 2: cover points must be exact\n"),
        (["gallery", "heine-borel", "--cover"], "F.cov", "x 1\n",
         "error: line 1, col 1: bad endpoint: line 1, col 1: x is not allowed here\n"),
        # the reader's texts for points outside [-1, 2], a quadratic tag
        # outside its cell, cells that do not meet, and zero denominators
        pytest.param(_VERIFY, 'c.csv', 'point,radius\nrat:5/2,1/2\n',
                     'error: row 2: point 5/2 outside ambient [-1, 2]\n', id='rat-above'),
        pytest.param(_VERIFY, 'c.csv', 'point,radius\nrat:-3,1/2\n',
                     'error: row 2: point -3 outside ambient [-1, 2]\n', id='rat-below'),
        pytest.param(_VERIFY, 'c.csv', 'point,radius\n"quad:2,1",1/2\n',
                     'error: row 2: point 2 + 1*sqrt2 outside ambient [-1, 2]\n', id='quad-above'),
        pytest.param(_VERIFY, 'c.csv', 'point,radius\n"quad:-1,-1/2",1/2\n',
                     'error: row 2: point -1 + -1/2*sqrt2 outside ambient [-1, 2]\n', id='quad-below'),
        pytest.param(_VERIFY, 'c.csv', 'point,radius\n"quad:1/2",1/2\n',
                     "error: row 2: quad point needs two components, got 'quad:1/2'\n", id='quad-one-part'),
        pytest.param(_VERIFY, 'c.csv', 'point,radius\nrat:1/2,1/0\n',
                     "error: row 2: not a rational: '1/0'\n", id='radius-zero-den'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/1,1/2,"quad:0,1/2"\n1/2,1/1,rat:3/4\n',
                     'error: tag 0 = 0 + 1/2*sqrt2 outside its cell [0,1/2]\n', id='quad-tag-above-cell'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/1,1/2,rat:1/4\n1/2,1/1,"quad:1,-1/2"\n',
                     'error: tag 1 = 1 + -1/2*sqrt2 outside its cell [1/2,1]\n', id='quad-tag-below-cell'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/1,1/1,"quad:2,1"\n',
                     'error: row 2: point 2 + 1*sqrt2 outside ambient [-1, 2]\n', id='quad-tag-outside-ambient'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/1,1/2,rat:1/4\n1/3,1/1,rat:1/2\n',
                     'error: row 3: cell starts at 1/3, previous ended at 1/2\n', id='cell-start-mismatch'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/1,1/0,rat:1/4\n',
                     "error: row 2: not a rational: '1/0'\n", id='cut-zero-den-hi'),
        pytest.param(_VERIFY, 'p.csv', 'lo,hi,tag\n0/0,1/2,rat:1/4\n1/2,1/1,rat:3/4\n',
                     "error: row 2: not a rational: '0/0'\n", id='cut-zero-den-lo'),
    ],
)
def test_bad_input_file_exits_one(capsys, tmp_path, monkeypatch, argv, name, text, err):
    (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, name) == (1, "", err)


def test_not_a_cover_exits_four(capsys, monkeypatch):
    def refuse(cover):
        raise covers.NotACover("probe")

    monkeypatch.setattr(cli, "cover_to_partition", refuse)
    assert run(capsys, "cousin", "--gauge", "1/2", "--depth", "2", "--as-partition") == (4, "", "not a cover: probe\n")

def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "cover.csv"
    code, out, _ = run(capsys, "cousin", "--gauge", "const:1/4", "--depth", "8", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().splitlines()[0] == "point,radius"


def test_obstruction_report_goes_to_out(capsys, tmp_path):
    argv = ["cousin", "--preset", "cauchy-gap", "--depth", "10", "--stage", "12"]
    code, obstruction, _ = run(capsys, *argv)
    assert code == 2 and json.loads(obstruction)["unresolved"]
    out_path = tmp_path / "obs.json"
    assert run(capsys, *argv, "--out", str(out_path)) == (2, "", "")
    assert out_path.read_text() == obstruction


def test_out_into_a_missing_directory_exits_one(capsys, tmp_path):
    out_path = tmp_path / "missing" / "cover.csv"
    code, out, err = run(capsys, "cousin", "--gauge", "const:1/4", "--depth", "4", "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: [Errno 2] ") and str(out_path) in err


def test_partition_check_comes_before_the_search(capsys, monkeypatch):
    # a sequence-space gauge is refused before any search, so the answer
    # does not hang on whether the search would find a cover (the blind
    # search stops short; with the pinned point as a hint it finds one)
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr(cli, "find_cover_cantor", no_search)
    monkeypatch.setattr(cli, "find_cover_unit", no_search)
    argv = ["cousin", "--preset", "oracle-pin:01", "--space", "cantor", "--depth", "6", "--as-partition"]
    refusal = (1, "", "error: --as-partition applies to unit-interval covers only\n")
    assert run(capsys, *argv) == refusal
    assert run(capsys, *argv, "--hint", "Z") == refusal


def test_benchmark_tracer_wraps_the_cli(capsys, monkeypatch):
    """The benchmark's tracer rebinds cli.main and each layer's public
    functions by name; a rename or a table bound at import time would show
    only in a traced benchmark run, so one small job runs traced here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["cousin", "--gauge", "const:1/4", "--depth", "3", "--stage", "8"]) == 0
        assert tracer.total(["cli.main"])[1] == 1
        assert tracer.total(["serialize.emit"])[1] == 1
        assert tracer.total(["covers.search"])[1] == 1
        assert set(tracing.counted_functions()) >= {"exact.fractions", "gauges.evals.continuous"}
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert capsys.readouterr().out.startswith("point,radius\n")


PARTITION = "lo,hi,tag\n0,1/2,rat:1/4\n1/2,1,rat:3/4\n"


@pytest.mark.parametrize(
    "gauge, stage, code, line",
    [
        ("1/2", "8", 0, "partition verified"),
        ("min(x + 1/8, 9/8 - x)", "8", 3, "cell 0 [0/1,1/2]: gauge at rat:1/4 is below the width"),
        ("baire1(n -> 1/2 - 2^-(n+1))", "1", 2, "partition unresolved at this stage"),
    ],
)
def test_verify_partition_report_goes_to_out(capsys, tmp_path, gauge, stage, code, line):
    art = tmp_path / "part.csv"
    art.write_text(PARTITION)
    argv = ["verify", "--gauge", gauge, "--in", str(art), "--stage", stage]
    assert run(capsys, *argv) == (code, line + "\n", "")
    report = tmp_path / "report.txt"
    assert run(capsys, *argv, "--out", str(report)) == (code, "", "")
    assert report.read_text() == line + "\n"


def test_verify_uncovered_report_goes_to_out(capsys, tmp_path):
    art = tmp_path / "cover.csv"
    art.write_text("point,radius\nprefix=;period=0,1/2\n")
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--preset", "oracle-pin:01", "--in", str(art), "--out", str(report))
    assert (code, out) == (3, "")
    assert report.read_text() == "not a cover: prefix=1;period=0 is uncovered\n"


def test_verify_has_no_depth(capsys, tmp_path):
    art = tmp_path / "part.csv"
    art.write_text(PARTITION)
    code, out, err = run(capsys, "verify", "--gauge", "1/2", "--in", str(art), "--depth", "3")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --depth 3" in err


def test_cousin_gauge_file(capsys, tmp_path):
    spec = tmp_path / "g.txt"
    spec.write_text("min(x + 1/8, 9/8 - x)\n")
    assert run(capsys, "cousin", "--gauge-file", str(spec), "--depth", "3") == (0, "point,radius\nrat:1/2,1/2\n", "")


def test_cousin_unit_hints_file_and_hint(capsys, tmp_path):
    # 9/20 and 3/8 + sqrt(2)/8 beat the width 1/2 in their halves, and in-cell hints come first
    hints = tmp_path / "hints.txt"
    hints.write_text("rat:9/20\n\n")
    argv = ["cousin", "--gauge", "dist(0, 1) + 1/16", "--depth", "4"]
    assert run(capsys, *argv) == (0, "point,radius\nrat:1/2,1/2\n", "")
    got = run(capsys, *argv, "--hints-file", str(hints), "--hint", "quad:3/8,1/8")
    assert got == (0, 'point,radius\nrat:9/20,1/2\n"quad:3/8,1/8",1/2\n', "")


@pytest.mark.parametrize(
    "in_file, on_line", [("prefix=11;period=01", "prefix=0;period=01"), ("prefix=0;period=01", "prefix=11;period=01")]
)
def test_cousin_cantor_hints_file_and_hint(capsys, tmp_path, in_file, on_line):
    # the pinned point, from either source, accepts the root; the other hint only gets tried
    hints = tmp_path / "hints.txt"
    hints.write_text(f"{in_file}\n")
    argv = ["cousin", "--gauge", "oracle-pin(prefix=11;period=01)", "--space", "cantor", "--depth", "4"]
    code, out, _ = run(capsys, *argv)
    assert (code, json.loads(out)["unresolved"]) == (2, ["[1101]"])
    got = run(capsys, *argv, "--hints-file", str(hints), "--hint", on_line)
    assert got == (0, "point,radius\nprefix=1;period=10,1/1\n", "")


def test_module_entry_point():
    got = subprocess.run(
        [sys.executable, "-m", "finecover", "--help"],
        capture_output=True, text=True,
    )
    assert got.returncode == 0
    assert "integrate" in got.stdout


# Gauge texts nested exactly n levels deep, one per way of nesting: the
# parser's brackets and signs, and the tree's operator and argument chains.
NESTED = {
    "parens": lambda n: "(" * (n - 1) + "x + 1/8" + ")" * (n - 1),
    "bars": lambda n: "|" * (n - 3) + "x + 1/8" + "|" * (n - 3),
    "signs": lambda n: "1/8 + " + "-" * (n - 2) + "x",
    "sum": lambda n: "1/8" + " + x" * (n - 2),
    "min": lambda n: "min(1/8 + x, " + ", ".join(["1"] * (n - 3)) + ")",
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_deep_gauge_exits_one_without_traceback(capsys, shape):
    code, out, err = run(capsys, "cousin", "--gauge", NESTED[shape](3000), "--depth", "4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 1, col ")
    assert f"nested deeper than {MAX_DEPTH} levels" in err and "Traceback" not in err


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_gauge_at_depth_bound_searches(capsys, shape):
    code, out, _ = run(capsys, "cousin", "--gauge", NESTED[shape](MAX_DEPTH), "--depth", "6")
    assert code == 0
    assert out.splitlines()[0] == "point,radius"
    code, _, err = run(capsys, "cousin", "--gauge", NESTED[shape](MAX_DEPTH + 1), "--depth", "6")
    assert code == 1
    assert f"nested deeper than {MAX_DEPTH} levels" in err
