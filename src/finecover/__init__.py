"""Exact-arithmetic fine covers and gauge integration on [0,1] and Cantor space.

The package turns gauge-style covering arguments into finite, checkable
artifacts: gauges are evaluated as interval enclosures at explicit precision
stages, covers and tagged partitions are verified with exact rational
arithmetic, and every searched object either comes back verified or as an
obstruction naming the regions that resisted.

The usual entry points:

- build a gauge (`gauges`, or parse one from text via `gaugespec`),
- search for a fine cover (`covers.find_cover_unit` / `find_cover_cantor`),
- convert and verify (`covers`), integrate (`integral`),
- or run the canned demonstrations (`gallery`) and the `finecover` CLI.
"""

from .exact import CauchyViolation, Interval, QuadVal, rat_str
from .spaces import CantorPoint, Cylinder, UnitPoint
from .gauges import (
    Baire1Code,
    Baire2Code,
    ContinuousCode,
    DirectCode,
    Verdict,
    eval_enclosure,
    modulus_limit,
    pullback_gauge_phi,
    scale_code,
    transfer_gauge_psi,
    verified_above,
    verified_at_least,
)
from .covers import (
    FineCover,
    MalformedPartition,
    NotACover,
    Obstruction,
    TaggedPartition,
    cover_to_partition,
    find_cover_cantor,
    find_cover_unit,
    minimize_cover,
    partition_to_cover,
    transfer_cover_phi,
    transfer_cover_psi,
    uncovered_witness,
    verify_cover,
    verify_partition,
)
from .integral import IntegralCertificate, builtin_integrands, integrate, riemann_sum
from .gallery import (
    CauchySpec,
    GalleryFalsification,
    OpenCoverSpec,
    OracleSpec,
    UnexpectedCover,
    cauchy_gap_gauge,
    check_star,
    finite_subcover,
    gap_obstruction_demo,
    heine_borel_gauge,
    oracle_pin_demo,
    oracle_pin_gauge,
)
from .gaugespec import SpecError, parse_gauge, parse_gauge_file

__version__ = "0.1.0"

__all__ = [
    "Baire1Code",
    "Baire2Code",
    "CantorPoint",
    "CauchySpec",
    "CauchyViolation",
    "ContinuousCode",
    "Cylinder",
    "DirectCode",
    "FineCover",
    "GalleryFalsification",
    "IntegralCertificate",
    "Interval",
    "MalformedPartition",
    "NotACover",
    "Obstruction",
    "OpenCoverSpec",
    "OracleSpec",
    "QuadVal",
    "SpecError",
    "TaggedPartition",
    "UnexpectedCover",
    "UnitPoint",
    "Verdict",
    "builtin_integrands",
    "cauchy_gap_gauge",
    "check_star",
    "cover_to_partition",
    "eval_enclosure",
    "find_cover_cantor",
    "find_cover_unit",
    "finite_subcover",
    "gap_obstruction_demo",
    "heine_borel_gauge",
    "integrate",
    "minimize_cover",
    "modulus_limit",
    "oracle_pin_demo",
    "oracle_pin_gauge",
    "parse_gauge",
    "parse_gauge_file",
    "partition_to_cover",
    "pullback_gauge_phi",
    "rat_str",
    "riemann_sum",
    "scale_code",
    "transfer_cover_phi",
    "transfer_cover_psi",
    "transfer_gauge_psi",
    "uncovered_witness",
    "verified_above",
    "verified_at_least",
    "verify_cover",
    "verify_partition",
]
