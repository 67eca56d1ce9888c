"""Brute-force Siegel checks kept as test oracles.

Both read one coefficient at a time through `SiegelFormSeries.a`, so they
share no code with the vector operations of `siegelcong.siegel`.
"""

from siegelcong.ring import FpRing
from siegelcong.siegel import SiegelFormSeries


def siegel_direct_scan(F, p, b):
    """Exhaustive necessary-condition scan of all stored coefficients.

    Returns (clean, witness): the first raw triple with det = b mod p whose
    coefficient does not vanish mod p, in (n, m, r) scan order.
    """
    b %= p
    for n in range(F.prec + 1):
        for m in range(F.prec + 1):
            bb = SiegelFormSeries.rb(n, m)
            for r in range(-bb, bb + 1):
                if (4 * n * m - r * r) % p != b:
                    continue
                v = F.a(n, r, m)
                vv = v % p if isinstance(F.ring, FpRing) else F.ring.reduce(v, p)
                if vv:
                    return False, (n, r, m)
    return True, None


def check_unimodular_moves(F):
    """Spot the translation move A(n,r,m) == A(n, r+2n, m+r+n) inside the window."""
    for n in range(F.prec + 1):
        for m in range(F.prec + 1):
            b = F.rb(n, m)
            for r in range(-b, b + 1):
                n2, r2, m2 = n, r + 2 * n, m + r + n
                if m2 < 0 or m2 > F.prec or abs(r2) > F.rb(n2, m2):
                    continue
                if not F.ring.is_zero(F.ring.sub(F.a(n, r, m), F.a(n2, r2, m2))):
                    return False
    return True
