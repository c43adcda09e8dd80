"""The exact stdout of fixed CLI runs, recorded before the searches gained
region acceptance and the sqrt-reciprocal region kernel, of the gallery
demos and an obstruction, recorded before each command returned its report
to one writer, and of three cauchy-gap runs, recorded while the gap gauge
was still a limit code checked against certificates from its modulus, and
of four runs on modulus-free limit gauges, recorded while such a code still
kept the largest lower end it had seen at each point. A change that keeps
its covers, partitions, records and obstructions must keep these bytes and
exit codes."""

import pytest

from finecover.cli import main

# the cover file of the heine-borel run, written as two.cov in its directory
COVER = "-1/10 6/10\n4/10 11/10\n"
# the cover CSV of the verify run, written as gap.csv
GAP_COVER = "point,radius\nrat:1/4,1/4\nrat:3/4,1/4\n"
# a modulus-free Baire-1 gauge and the cover its cousin run writes, written as b1.csv
B1 = "baire1(n -> |x - 1/3|/2 + 1/16 + 2^-(n+4))"
B1_COVER = """\
point,radius
rat:1/16,1/8
rat:3/16,1/8
rat:9/32,1/16
rat:11/32,1/16
rat:1/2,1/8
rat:3/4,1/4
rat:7/8,1/4
"""

GOLDEN = [
    (
        ["integrate", "--preset", "identity", "--epsilon", "1/16", "--stage", "48"],
        0,
        """\
{
  "function": "identity",
  "epsilon": "1/16",
  "cells": 128,
  "sum_lo": "1/2",
  "sum_hi": "1/2",
  "claim_lo": "7/16",
  "claim_hi": "9/16",
  "depth": 10,
  "stage": 48
}
""",
    ),
    (
        ["integrate", "--preset", "square", "--epsilon", "1/16", "--stage", "48"],
        0,
        """\
{
  "function": "square",
  "epsilon": "1/16",
  "cells": 256,
  "sum_lo": "87381/262144",
  "sum_hi": "87381/262144",
  "claim_lo": "70997/262144",
  "claim_hi": "103765/262144",
  "depth": 10,
  "stage": 48
}
""",
    ),
    (
        ["integrate", "--preset", "sqrt-reciprocal", "--epsilon", "1/32", "--stage", "48"],
        0,
        """\
{
  "function": "sqrt-reciprocal",
  "epsilon": "1/32",
  "cells": 2049,
  "sum_lo": "1065363685/536870912",
  "sum_hi": "4295008661/2147483648",
  "claim_lo": "1048586469/536870912",
  "claim_hi": "4362117525/2147483648",
  "depth": 25,
  "stage": 48
}
""",
    ),
    (
        ["integrate", "--preset", "dirichlet", "--epsilon", "1/16", "--stage", "48"],
        0,
        """\
{
  "function": "dirichlet",
  "epsilon": "1/16",
  "cells": 4,
  "sum_lo": "0",
  "sum_hi": "0",
  "claim_lo": "-1/16",
  "claim_hi": "1/16",
  "depth": 4,
  "stage": 48
}
""",
    ),
    (
        ["integrate", "--preset", "step", "--epsilon", "1/16", "--stage", "48"],
        0,
        """\
{
  "function": "step",
  "epsilon": "1/16",
  "cells": 128,
  "sum_lo": "5/8",
  "sum_hi": "5/8",
  "claim_lo": "9/16",
  "claim_hi": "11/16",
  "depth": 10,
  "stage": 48
}
""",
    ),
    (
        ["cousin", "--gauge", "|x - 1/3|/2 + 1/128", "--depth", "10", "--stage", "48", "--as-partition"],
        0,
        """\
lo,hi,tag
0/1,1/8,rat:1/16
1/8,3/16,rat:5/32
3/16,1/4,rat:7/32
1/4,35/128,rat:17/64
35/128,39/128,rat:9/32
39/128,167/512,rat:5/16
167/512,43/128,rat:85/256
43/128,11/32,rat:87/256
11/32,23/64,rat:45/128
23/64,3/8,rat:47/128
3/8,13/32,rat:25/64
13/32,7/16,rat:27/64
7/16,33/64,rat:15/32
33/64,21/32,rat:5/8
21/32,3/4,rat:11/16
3/4,1/1,rat:7/8
""",
    ),
    (
        ["cousin", "--gauge", "|x - 1/3|/2 + 1/128", "--depth", "10", "--stage", "48", "--as-partition", "--hint", "rat:3/8", "--hint", "quad:1/2,1/8", "--hint", "rat:1/4"],
        0,
        """\
lo,hi,tag
0/1,1/8,rat:1/16
1/8,3/16,rat:5/32
3/16,17/64,rat:7/32
17/64,39/128,rat:9/32
39/128,167/512,rat:5/16
167/512,43/128,rat:85/256
43/128,11/32,rat:87/256
11/32,93/256,rat:45/128
93/256,13/32,rat:25/64
13/32,7/16,rat:27/64
7/16,33/64,rat:15/32
33/64,21/32,rat:5/8
21/32,3/4,"quad:1/2,1/8"
3/4,1/1,rat:7/8
""",
    ),
    (
        ["gallery", "heine-borel", "--cover", "two.cov", "--stage", "48"],
        0,
        """\
{
  "demo": "heine-borel",
  "cover_size": 35,
  "subcover_index": 7,
  "union_verified": true,
  "depth": 10,
  "stage": 48
}
""",
    ),
    (
        ["gallery", "cauchy-gap", "--stage", "48"],
        0,
        """\
{
  "demo": "cauchy-gap",
  "unresolved": "[36993/65536,18497/32768]",
  "width": "1/65536",
  "depth": 16,
  "stage": 48
}
""",
    ),
    (
        ["gallery", "oracle-pin", "--stage", "48"],
        0,
        """\
{
  "demo": "oracle-pin",
  "pinned": "prefix=;period=01",
  "blind_search": "obstruction [0101010101]",
  "hinted_cover_size": 1,
  "depth": 10,
  "stage": 48
}
""",
    ),
    (
        ["cousin", "--preset", "cauchy-gap", "--depth", "10", "--stage", "12"],
        2,
        """\
{
  "space": "unit",
  "depth_reached": 10,
  "unresolved": [
    "[289/512,579/1024]"
  ],
  "trace": [
    {
      "region": "[289/512,579/1024]",
      "last_verdict": "UNKNOWN",
      "stage": 12
    }
  ]
}
""",
    ),
    (
        ["gallery", "cauchy-gap", "--depth", "20", "--stage", "16"],
        0,
        """\
{
  "demo": "cauchy-gap",
  "unresolved": "[36993/65536,591889/1048576]",
  "width": "1/1048576",
  "depth": 20,
  "stage": 16
}
""",
    ),
    (
        # --depth first, so that its id differs from the depth-10 run's
        ["cousin", "--depth", "16", "--preset", "cauchy-gap", "--stage", "24"],
        2,
        """\
{
  "space": "unit",
  "depth_reached": 16,
  "unresolved": [
    "[36993/65536,18497/32768]"
  ],
  "trace": [
    {
      "region": "[36993/65536,18497/32768]",
      "last_verdict": "UNKNOWN",
      "stage": 24
    }
  ]
}
""",
    ),
    (
        # the No at 3/4 rests on the gap gauge's declared modulus
        ["verify", "--preset", "cauchy-gap", "--in", "gap.csv", "--stage", "8"],
        3,
        "entry 1: gauge at rat:3/4 is below the radius 1/4\n",
    ),
    # modulus-free limit gauges, whose verdicts rest on the stage observed
    (["cousin", "--gauge", B1, "--depth", "6", "--stage", "8"], 0, B1_COVER),
    (["verify", "--stage", "8", "--gauge", B1, "--in", "b1.csv"], 0, "cover verified\n"),
    (["verify", "--stage", "1", "--gauge", B1, "--in", "b1.csv"], 0, "cover verified\n"),
    (
        ["cousin", "--gauge", "baire2(n -> baire1(k -> |x - 1/2| + 2^-(n+4) + 2^-(k+4)))", "--depth", "5", "--stage", "4"],
        2,
        """\
{
  "space": "unit",
  "depth_reached": 5,
  "unresolved": [
    "[15/32,17/32]"
  ],
  "trace": [
    {
      "region": "[15/32,17/32]",
      "last_verdict": "UNKNOWN",
      "stage": 4
    }
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, code, want", GOLDEN, ids=[" ".join(argv[:3]) for argv, _, _ in GOLDEN])
def test_cli_output_bytes_are_unchanged(capsys, tmp_path, monkeypatch, argv, code, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "two.cov").write_text(COVER)
    (tmp_path / "gap.csv").write_text(GAP_COVER)
    (tmp_path / "b1.csv").write_text(B1_COVER)
    assert main(argv) == code
    assert capsys.readouterr().out == want
