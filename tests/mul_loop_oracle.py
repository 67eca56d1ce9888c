"""The direct row-by-row Siegel product, kept as the reference for `siegel_mul`.

`mul_loop` convolves the full Laurent rows of every split (n1, m1) of every
stored (n, m) with `np.convolve`, in the ring's own elements; it shares only
the box index with the FFT kernel of `siegelcong.siegel.siegel_mul`.
"""

from math import isqrt

import numpy as np

from siegelcong.siegel import box_index


def _pairs(prec):
    """The (n, m) pairs with n <= m <= prec, in vector order."""
    return zip(*(a.tolist() for a in np.triu_indices(prec + 1)))


def _full_rows(vec, idx):
    """rows[n][m]: A(n, r, m) for r = -isqrt(4nm)..isqrt(4nm), None when zero."""
    rows = [[None] * (idx.prec + 1) for _ in range(idx.prec + 1)]
    for n, m in _pairs(idx.prec):
        half = vec[idx.offset[n, m]:idx.offset[n, m] + isqrt(4 * n * m) + 1]
        if np.any(half != 0):
            rows[n][m] = rows[m][n] = np.concatenate([half[:0:-1], half])
    return rows


def mul_loop(F, G, prec):
    """The product vector of F and G at box prec, over any ring.

    Only the stored outputs (n <= m, r >= 0) are computed.
    """
    ring = F.ring
    idx = box_index(prec)
    frows, grows = _full_rows(F.at_box(prec), idx), _full_rows(G.at_box(prec), idx)
    out = ring.zeros(idx.size)
    for n, m in _pairs(prec):
        bo = isqrt(4 * n * m)
        acc = ring.zeros(2 * bo + 1)
        for n1 in range(n + 1):
            for m1 in range(m + 1):
                a, b = frows[n1][m1], grows[n - n1][m - m1]
                if a is None or b is None:
                    continue
                conv = ring.canonical(np.convolve(a, b))
                off = bo - (len(a) + len(b)) // 2 + 1
                acc[off:off + len(conv)] += conv
        out[idx.offset[n, m]:idx.offset[n, m] + bo + 1] = acc[bo:]
    return ring.canonical(out)
