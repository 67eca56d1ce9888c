"""Internal dense coefficient-row helpers shared by the series types.

A "row" is a 1-D coefficient vector: a numpy int64 array over small prime
fields, a plain Python list over the exact rings (and over prime fields too
large for the int64 fast path).  Rows carry no ring metadata; every helper
takes the ring explicitly.  Convolutions over F_p accumulate unreduced in
int64 and reduce once at the end; `FpRing.fits64` guarantees no overflow for
the row lengths used in this package.

Siegel products use `convolve` only on their direct-loop path: over Z, Q,
primes p >= 2^21 and boxes past the FFT exactness bound of
`siegel.siegel_mul`.  Inside that bound the product runs an FFT over whole
n-slices and does not call these helpers.
"""

from __future__ import annotations

import numpy as np

from .errors import ArithmeticDomainError, RingMismatchError
from .ring import FpRing


def _np(ring):
    return isinstance(ring, FpRing) and ring.fits64


def zeros(ring, n):
    if _np(ring):
        return np.zeros(n, dtype=np.int64)
    return [ring.zero] * n


def from_ints(ring, xs):
    if _np(ring):
        return np.array([x % ring.p for x in xs], dtype=np.int64)
    return [ring.from_int(x) for x in xs]


def aslist(ring, row):
    if _np(ring):
        return [int(v) for v in row]
    return list(row)


def copy(ring, row):
    if _np(ring):
        return row.copy()
    return list(row)


def normalize(ring, row):
    """Canonicalize after unreduced accumulation (no-op for exact rings)."""
    if _np(ring):
        return row % ring.p
    return row


def add(ring, a, b):
    if _np(ring):
        return (a + b) % ring.p
    return [ring.add(x, y) for x, y in zip(a, b)]


def sub(ring, a, b):
    if _np(ring):
        return (a - b) % ring.p
    return [ring.sub(x, y) for x, y in zip(a, b)]


def neg(ring, a):
    if _np(ring):
        return (-a) % ring.p
    return [ring.neg(x) for x in a]


def scale(ring, a, c):
    if _np(ring):
        return a * (c % ring.p) % ring.p
    return [ring.mul(x, c) for x in a]


def add_into(ring, dst, off, src):
    """dst[off : off+len(src)] += src, unreduced; caller normalizes."""
    if _np(ring):
        dst[off:off + len(src)] += src
    else:
        for i, v in enumerate(src):
            dst[off + i] = ring.add(dst[off + i], v)


def is_zero(ring, row):
    if _np(ring):
        return not np.any(row % ring.p)
    return all(ring.is_zero(v) for v in row)


def eq(ring, a, b):
    if len(a) != len(b):
        return False
    if _np(ring):
        return not np.any((a - b) % ring.p)
    return all(ring.is_zero(ring.sub(x, y)) for x, y in zip(a, b))


def convolve(ring, a, b):
    """Full convolution, length len(a) + len(b) - 1."""
    if len(a) == 0 or len(b) == 0:
        return zeros(ring, max(0, len(a) + len(b) - 1))
    if _np(ring):
        return np.convolve(a, b) % ring.p
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def convolve_trunc(ring, a, b, n):
    """First n coefficients of the product of two series rows."""
    if _np(ring):
        la, lb = min(len(a), n), min(len(b), n)
        full = np.convolve(a[:la], b[:lb]) % ring.p
        out = np.zeros(n, dtype=np.int64)
        out[:min(n, len(full))] = full[:n]
        return out
    out = [ring.zero] * n
    for i, x in enumerate(a[:n]):
        if ring.is_zero(x):
            continue
        jmax = min(len(b), n - i)
        for j in range(jmax):
            out[i + j] = ring.add(out[i + j], ring.mul(x, b[j]))
    return out


def invert_series(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit."""
    if len(a) == 0 or ring.is_zero(a[0] if not _np(ring) else int(a[0])):
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    if _np(ring):
        p = ring.p
        c0 = int(a[0]) % p
        if c0 == 0:
            raise ArithmeticDomainError("constant term of series is zero; cannot invert")
        inv0 = pow(c0, p - 2, p)
        out = np.zeros(n, dtype=np.int64)
        out[0] = inv0
        arev = a[1:n][::-1] % p
        la = len(arev)
        for k in range(1, n):
            lo = max(0, k - la)
            acc = int(np.dot(arev[la - k + lo:], out[lo:k]))
            out[k] = (-inv0 * acc) % p
        return out
    inv0 = ring.inv(a[0])
    out = [ring.zero] * n
    out[0] = inv0
    for k in range(1, n):
        acc = ring.zero
        for i in range(1, min(k, len(a) - 1) + 1):
            acc = ring.add(acc, ring.mul(a[i], out[k - i]))
        out[k] = ring.neg(ring.mul(inv0, acc))
    return out


def to_tokens(ring, row):
    """The row as JSON tokens, `ring.to_token` of each entry."""
    if _np(ring):
        return row.tolist()
    return [ring.to_token(v) for v in row]


def from_tokens(ring, toks):
    """The row read back from `to_tokens`; over F_p a token that is not an
    int in [0, p) raises ValueError."""
    if not isinstance(ring, FpRing):
        return [ring.from_token(t) for t in toks]
    if not all(type(t) is int and 0 <= t < ring.p for t in toks):
        raise ValueError(f"a token is not a residue mod {ring.p}")
    return np.array(toks, dtype=np.int64) if _np(ring) else list(toks)


def mirror(ring, half):
    """The symmetric row [h_k, ..., h_1, h_0, h_1, ..., h_k] of its half h."""
    if _np(ring):
        return np.concatenate([half[:0:-1], half])
    return half[:0:-1] + half


def read_only(row):
    """The row made immutable: a non-writeable array, or a tuple."""
    if isinstance(row, np.ndarray):
        row.flags.writeable = False
        return row
    return tuple(row)


def reduce_row(ring, row, fp):
    """Map a row over `ring` to a row over the prime field `fp`."""
    if isinstance(ring, FpRing):
        if ring.p != fp.p:
            raise RingMismatchError(f"cannot reduce {ring.tag} rows mod {fp.p}")
        return copy(fp, row) if _np(fp) == _np(ring) else from_ints(fp, aslist(ring, row))
    vals = [ring.reduce(v, fp.p) for v in row]
    return from_ints(fp, vals)
