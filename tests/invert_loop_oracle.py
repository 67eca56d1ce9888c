"""The coefficient-by-coefficient series inverse, kept as the reference for
`qexp.invert_series` (which is Newton iteration over `convolve_trunc`).

`invert_loop` solves sum_{j <= k} a_j b_{k-j} = [k == 0] for b_k one k at a
time, with one dot product of the ring's own elements per coefficient; it
shares no product code with `invert_series`.
"""

import numpy as np

from siegelcong.errors import ArithmeticDomainError


def invert_loop(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit."""
    head = ring.canonical(a[:1]).tolist()
    if not head or not head[0]:
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    inv0 = ring.inv(head[0])
    out = ring.zeros(n)
    out[0] = inv0
    arev = ring.canonical(np.asarray(a[1:n], dtype=ring.dtype)[::-1])
    la = len(arev)
    for k in range(1, n):
        lo = max(0, k - la)
        acc = ring.canonical(np.dot(arev[la - k + lo:], out[lo:k]))
        out[k] = ring.canonical(-inv0 * acc)
    return out
