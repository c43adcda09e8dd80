"""`check_fineness` as it was first written, kept as the reference the
tests check the region runs against: one verdict per row, in order,
stopping at the first No."""

from finecover.gauges import Verdict, _verdict


def ref_check_fineness(g, bounds, stage: int):
    worst = Verdict.YES
    for i, (x, qn, qd) in enumerate(bounds):
        v = _verdict(g, x, qn, qd, stage, False)
        if v is Verdict.NO:
            return v, i
        if v is Verdict.UNKNOWN:
            worst = v
    return worst, None
