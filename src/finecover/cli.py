"""Command line front end.

Four commands: integrate (certified enclosures of the built-in integrals),
cousin (fine-cover search for a gauge given in the spec grammar), verify
(re-check an emitted cover or partition against a gauge), and gallery (the
named demos). Exit codes are a contract: 0 success, 1 bad input, 2
unknown-or-obstruction, 3 a verified failure, 4 a falsified construction.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .covers import (
    NotACover,
    Obstruction,
    check_cover,
    check_fineness,
    cover_to_partition,
    find_cover_cantor,
    find_cover_unit,
    row_point,
)
from .exact import CauchyViolation, rat_str
from .gallery import (
    GalleryFalsification,
    OracleSpec,
    UnexpectedCover,
    default_cauchy_spec,
    finite_subcover,
    gap_obstruction_demo,
    heine_borel_gauge,
    oracle_pin_demo,
)
from .gauges import Verdict
from .gaugespec import SpecError, parse_cover_file, parse_expr_const, parse_gauge, parse_gauge_file
from .integral import builtin_integrands, default_depth, default_hints, integrate
from .serialize import (
    cantor_str,
    cover_csv,
    integral_json,
    obstruction_json,
    parse_bits,
    parse_cantor,
    parse_cover_csv,
    parse_partition_csv,
    parse_unit,
    partition_csv,
    point_str,
    region_str,
)
from .spaces import Cylinder

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_UNKNOWN = 2
EXIT_FAILED = 3
EXIT_FALSIFIED = 4

_STAGE_ENV = "COUSIN_GAUGE_STAGE_DEFAULT"


def _positive_int(text: str) -> int:
    """argparse type for --stage and --depth: 0 and negatives are errors,
    not a request for the default."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {v}")
    return v


def _stage(args) -> int:
    """--stage, else a valid $COUSIN_GAUGE_STAGE_DEFAULT, else 48."""
    if args.stage is not None:
        return args.stage
    raw = os.environ.get(_STAGE_ENV, "")
    if raw.strip():
        try:
            return _positive_int(raw)
        except argparse.ArgumentTypeError:
            print(f"ignoring bad {_STAGE_ENV}={raw!r}", file=sys.stderr)
    return 48


def _obstruction(got) -> tuple[str, int] | None:
    """The report of a search that stopped short of a cover: its obstruction
    JSON with exit 2. None when the search found a cover."""
    if isinstance(got, Obstruction):
        return obstruction_json(got), EXIT_UNKNOWN
    return None


def _build_gauge(args):
    """Gauge plus the pinned point when the preset has one. A preset is
    the named gauge text: oracle-pin:BITS is oracle-pin(BITS)."""
    if args.preset:
        if args.preset == "cauchy-gap":
            return parse_gauge("cauchy-gap()"), None
        if args.preset.startswith("oracle-pin:"):
            bits = args.preset.split(":", 1)[1]
            return parse_gauge(f"oracle-pin({bits})"), parse_bits(bits)
        raise ValueError(f"unknown preset {args.preset!r}")
    if args.gauge_file:
        return parse_gauge_file(args.gauge_file), None
    text = args.gauge
    if not text:
        raise ValueError("need --gauge, --gauge-file, or --preset")
    if text.startswith("const:"):
        text = text[len("const:"):]
    return parse_gauge(text), None


def _parse_hints(args, g, pinned):
    hints = []
    vals = list(args.hint or [])
    if args.hints_file:
        with open(args.hints_file) as fh:
            vals.extend(line.strip() for line in fh if line.strip())
    for v in vals:
        if v == "Z":
            if pinned is None:
                raise ValueError("--hint Z only makes sense with an oracle-pin preset")
            hints.append(pinned)
        elif g.domain == "cantor":
            hints.append(parse_cantor(v))
        else:
            hints.append(parse_unit(v))
    return hints


def cmd_integrate(args) -> tuple[str, int]:
    table = builtin_integrands()
    if args.preset not in table:
        raise ValueError(f"unknown function preset {args.preset!r}; have {', '.join(sorted(table))}")
    f, fam, _ref = table[args.preset]
    eps = parse_expr_const(args.epsilon)
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {args.epsilon}")
    stage = _stage(args)
    depth = default_depth(args.preset, eps) if args.depth is None else args.depth
    got = integrate(f, fam, eps, depth, stage, hints=default_hints(args.preset))
    if stop := _obstruction(got):
        return stop
    return integral_json(got.as_record(args.preset, depth, stage)), EXIT_OK


def cmd_cousin(args) -> tuple[str, int]:
    g, pinned = _build_gauge(args)
    if args.space and args.space != g.domain:
        raise ValueError(f"gauge lives on {g.domain}, not {args.space}")
    stage = _stage(args)
    hints = _parse_hints(args, g, pinned)
    search = find_cover_cantor if g.domain == "cantor" else find_cover_unit
    got = search(g, args.depth, stage, hints=hints)
    if stop := _obstruction(got):
        return stop
    if not args.as_partition:
        return cover_csv(got), EXIT_OK
    if g.domain != "unit":
        raise ValueError("--as-partition applies to unit-interval covers only")
    return partition_csv(cover_to_partition(got)), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    g, _ = _build_gauge(args)
    stage = _stage(args)
    with open(args.artifact) as fh:
        text = fh.read()
    header = text.splitlines()[0].strip() if text.strip() else ""
    # each artifact kind names its noun, its worst verdict with the index
    # of the bound that failed, and the line that reports that failure
    if header == "point,radius":
        cover = parse_cover_csv(text)
        witness, worst, bad = check_cover(g, cover, stage)
        if witness is not None:
            return f"not a cover: {point_str(witness)} is uncovered\n", EXIT_FAILED
        noun = "cover"

        def failure(i: int) -> str:
            row = cover.rows[i]
            return f"entry {i}: gauge at {point_str(row_point(cover.space, row))} is below the radius {row[2]}/{row[3]}"

    elif header == "lo,hi,tag":
        if g.domain != "unit":
            raise ValueError("partitions live on the unit interval")
        part = parse_partition_csv(text)
        noun = "partition"
        worst, bad = check_fineness(g, part.widths(), stage)

        def failure(i: int) -> str:
            (ln, ld), (hn, hd) = part.ends[i], part.ends[i + 1]
            return f"cell {i} [{ln}/{ld},{hn}/{hd}]: gauge at {point_str(part.tags[i])} is below the width"

    else:
        raise ValueError(f"unrecognized artifact header {header!r}")
    if bad is not None:
        return failure(bad) + "\n", EXIT_FAILED
    if worst is Verdict.YES:
        return f"{noun} verified\n", EXIT_OK
    return f"{noun} unresolved at this stage\n", EXIT_UNKNOWN


def cmd_gallery(args) -> tuple[str, int]:
    """One JSON record per demo, ending with its depth and stage; a stalled
    heine-borel search reports its obstruction instead."""
    stage = _stage(args)
    depth = (16 if args.demo == "cauchy-gap" else 10) if args.depth is None else args.depth
    if args.demo == "heine-borel":
        if not args.cover:
            raise ValueError("heine-borel needs --cover FILE")
        with open(args.cover) as fh:
            cov = parse_cover_file(fh.read())
        g = heine_borel_gauge(cov)
        got = find_cover_unit(g, depth, stage)
        if stop := _obstruction(got):
            return stop
        record = {"cover_size": len(got), "subcover_index": finite_subcover(cov, got, g=g), "union_verified": True}
    elif args.demo == "cauchy-gap":
        run = gap_obstruction_demo(default_cauchy_spec(), depth, stage).unresolved[0]
        record = {"unresolved": region_str(run), "width": rat_str(run.width)}
    else:
        z = parse_bits(args.bits or "01")
        cover = oracle_pin_demo(OracleSpec(z), depth, stage)
        record = {
            "pinned": cantor_str(z),
            "blind_search": f"obstruction {region_str(Cylinder(z.index(depth), depth))}",
            "hinted_cover_size": len(cover),
        }
    return integral_json({"demo": args.demo, **record, "depth": depth, "stage": stage}), EXIT_OK


@cache
def _make_parser() -> argparse.ArgumentParser:
    """Built once per process: parsing keeps no state in the parser."""
    top = argparse.ArgumentParser(prog="finecover", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, depth_default=None, search=True):
        p.add_argument("--stage", type=_positive_int, default=None, help=f"verification stage (default ${_STAGE_ENV} or 48)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        if search:
            p.add_argument("--depth", type=_positive_int, default=depth_default, help="dyadic search depth")

    p = sub.add_parser("integrate", help="certified enclosure of a built-in integral")
    p.add_argument("--preset", required=True, help="identity, square, sqrt-reciprocal, dirichlet, step")
    p.add_argument("--epsilon", required=True, help="accuracy, a positive rational like 1/16")
    common(p)
    p.set_defaults(fn=cmd_integrate)

    def gauge_source(p):
        src = p.add_mutually_exclusive_group()
        src.add_argument("--gauge", help="gauge expression, e.g. 'min(x+1/8, 1-x)' or const:1/4")
        src.add_argument("--gauge-file", help="file containing a gauge expression")
        src.add_argument("--preset", help="cauchy-gap or oracle-pin:BITS, short for cauchy-gap() or oracle-pin(BITS)")

    p = sub.add_parser("cousin", help="search a fine cover for a gauge")
    gauge_source(p)
    p.add_argument("--space", choices=("unit", "cantor"), default=None)
    p.add_argument("--as-partition", action="store_true", help="emit the induced tagged partition")
    p.add_argument("--hint", action="append", help="extra sample point (Z means the pinned point)")
    p.add_argument("--hints-file", help="file with one point per line")
    common(p, depth_default=8)
    p.set_defaults(fn=cmd_cousin)

    p = sub.add_parser("verify", help="re-check an emitted cover or partition")
    gauge_source(p)
    p.add_argument("--in", dest="artifact", required=True, help="cover or partition CSV")
    common(p, search=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gallery", help="run a named demo")
    p.add_argument("demo", choices=("heine-borel", "cauchy-gap", "oracle-pin"))
    p.add_argument("--cover", help="cover file for heine-borel")
    p.add_argument("--bits", help="bit pattern for oracle-pin (default 01)")
    common(p)
    p.set_defaults(fn=cmd_gallery)
    return top


def main(argv=None) -> int:
    """Run one command and write its report, the only output to stdout or
    --out. Each cmd_* returns (report text, exit code) and writes nothing,
    so a command that raises leaves both empty; exceptions map to exit
    codes here, the --out write's included."""
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if not e.code else EXIT_BAD_INPUT
    try:
        text, code = args.fn(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (UnexpectedCover, GalleryFalsification, CauchyViolation) as e:
        print(f"falsified: {e}", file=sys.stderr)
        return EXIT_FALSIFIED
    except NotACover as e:
        print(f"not a cover: {e}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (SpecError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
