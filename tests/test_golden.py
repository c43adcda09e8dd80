"""The exact stdout of fixed CLI runs, recorded before the searches gained
region acceptance and the sqrt-reciprocal region kernel. A search change
that keeps its covers, partitions and obstructions must keep these bytes."""

import pytest

from finecover.cli import main

GOLDEN = [
    (
        ["integrate", "--preset", "identity", "--epsilon", "1/16", "--stage", "48"],
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
]


@pytest.mark.parametrize("argv, want", GOLDEN, ids=[" ".join(argv[:3]) for argv, _ in GOLDEN])
def test_cli_output_bytes_are_unchanged(capsys, argv, want):
    assert main(argv) == 0
    assert capsys.readouterr().out == want
