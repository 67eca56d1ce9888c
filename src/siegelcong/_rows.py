"""Internal dense coefficient-row helpers of the q-series and Jacobi types.

A "row" is a 1-D numpy coefficient vector of dtype `ring.dtype`: int64 over
F_p with p < 2^21, holding residues in [0, p), and object over Z, Q and
larger primes, holding Python ints, Fractions or residues.  The Siegel
coefficient vector of siegelcong.siegel uses the same dtypes.  Rows carry
no ring metadata; every helper takes the ring explicitly and is one numpy
path for both dtypes, reduced mod p over F_p by `ring.canonical`; only
`convolve_trunc` branches on the dtype, to skip zero products of Python
objects.  Convolutions over F_p accumulate unreduced in int64 and reduce
once at the end; `FpRing.fits64` guarantees no overflow for the row
lengths used in this package.
"""

from __future__ import annotations

import numpy as np

from .errors import ArithmeticDomainError, RingMismatchError
from .ring import FpRing


def zeros(ring, n):
    return np.full(n, ring.zero, dtype=ring.dtype)


def from_ints(ring, xs):
    return np.array([ring.from_int(x) for x in xs], dtype=ring.dtype)


def aslist(ring, row):
    """The entries as Python ints, Fractions or residues."""
    return np.asarray(row).tolist()


def add(ring, a, b):
    return ring.canonical(a + b)


def sub(ring, a, b):
    return ring.canonical(a - b)


def neg(ring, a):
    return ring.canonical(-a)


def scale(ring, a, c):
    return ring.canonical(a * c)


def add_into(ring, dst, off, src):
    """dst[off : off+len(src)] += src, unreduced; caller normalizes."""
    dst[off:off + len(src)] += src


def is_zero(ring, row):
    return not np.any(ring.canonical(row))


def eq(ring, a, b):
    return len(a) == len(b) and not np.any(ring.canonical(a - b))


def convolve(ring, a, b):
    """Full convolution, length len(a) + len(b) - 1."""
    if len(a) == 0 or len(b) == 0:
        return zeros(ring, max(0, len(a) + len(b) - 1))
    return ring.canonical(np.convolve(a, b))


def convolve_trunc(ring, a, b, n):
    """First n coefficients of the product of two series rows."""
    a, b = np.asarray(a[:n], dtype=ring.dtype), np.asarray(b[:n], dtype=ring.dtype)
    out = zeros(ring, n)
    if a.dtype == object:
        # Python-object products are the cost: skip a's zeros (theta series
        # are sparse) and every product past q^(n-1)
        for i in np.flatnonzero(a):
            seg = b[:n - i]
            out[i:i + len(seg)] += a[i] * seg
        return ring.canonical(out)
    if len(a) and len(b):
        full = convolve(ring, a, b)
        out[:min(n, len(full))] = full[:n]
    return out


def invert_series(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit."""
    if len(a) == 0 or ring.is_zero(aslist(ring, a[:1])[0]):
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    inv0 = ring.inv(aslist(ring, a[:1])[0])
    out = zeros(ring, n)
    out[0] = inv0
    arev = ring.canonical(np.asarray(a[1:n], dtype=ring.dtype)[::-1])
    la = len(arev)
    for k in range(1, n):
        lo = max(0, k - la)
        acc = ring.canonical(np.dot(arev[la - k + lo:], out[lo:k]))
        out[k] = ring.neg(ring.mul(inv0, acc))
    return out


def read_only(row):
    """The row made immutable: a non-writeable array."""
    row.flags.writeable = False
    return row


def reduce_row(ring, row, fp):
    """Map a row over `ring` to a row over the prime field `fp`."""
    if isinstance(ring, FpRing) and ring.p != fp.p:
        raise RingMismatchError(f"cannot reduce {ring.tag} rows mod {fp.p}")
    return np.array([ring.reduce(v, fp.p) for v in aslist(ring, row)], dtype=fp.dtype)
