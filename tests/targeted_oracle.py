"""Siegel product coefficients at chosen triples only, kept as a test oracle.

`targeted_mul` sums the Laurent-row overlaps of every (n1, m1) split one
target at a time with `dot_overlap`; it shares no code with the FFT or
direct-loop kernels of `siegelcong.siegel.siegel_mul`.
"""

from math import isqrt

import numpy as np

from siegel_checks import MatrixIndexT
from siegelcong.errors import PrecisionError, RingMismatchError
from siegelcong.ring import FpRing


def dot_overlap(ring, a, ashift, b, bshift, r):
    """Sum over r1 of a[r1 - ashift] * b[(r - r1) - bshift].

    a is indexed by r1 in [ashift, ashift + len(a)), b by r2 likewise; the
    helper evaluates the r-th coefficient of the Laurent product.
    """
    lo = max(ashift, r - bshift - len(b) + 1)
    hi = min(ashift + len(a) - 1, r - bshift)
    if lo > hi:
        return 0
    if isinstance(ring, FpRing) and ring.fits64:
        seg_a = a[lo - ashift:hi - ashift + 1]
        seg_b = b[r - hi - bshift:r - lo - bshift + 1][::-1]
        return int(np.dot(seg_a, seg_b)) % ring.p
    return sum(a[r1 - ashift] * b[r - r1 - bshift] for r1 in range(lo, hi + 1))


def _row(F, n, m):
    """A(n, r, m) for |r| <= isqrt(4nm), read one coefficient at a time."""
    b = isqrt(4 * n * m)
    vals = [F.a(n, r, m) for r in range(-b, b + 1)]
    return np.array(vals, dtype=np.int64) if isinstance(F.ring, FpRing) and F.ring.fits64 else vals


def targeted_mul(F, G, targets):
    """Coefficients of F*G at the requested triples only.

    Returns a dict keyed by (n, r, m).  Raises when a target exceeds the box.
    """
    if F.ring != G.ring:
        raise RingMismatchError(f"{F.ring.tag} vs {G.ring.tag}")
    ring = F.ring
    prec = min(F.prec, G.prec)
    out = {}
    for t in targets:
        n, r, m = t.key() if isinstance(t, MatrixIndexT) else t
        if n > prec or m > prec:
            raise PrecisionError(f"target ({n},{r},{m}) outside box {prec}",
                                 required=max(n, m), available=prec)
        acc = 0
        for n1 in range(n + 1):
            for m1 in range(m + 1):
                a = _row(F, n1, m1)
                b = _row(G, n - n1, m - m1)
                v = dot_overlap(ring, a, -isqrt(4 * n1 * m1),
                                b, -isqrt(4 * (n - n1) * (m - m1)), r)
                acc += v
        out[(n, r, m)] = ring.from_rational(acc)
    return out
