"""Truncated q-expansions of level-1 elliptic modular forms.

Provides the generators E4, E6, Delta and the eta-power series used by the
Jacobi layer, echelonized monomial bases of the weight-k spaces, and
`BoundedMemo`, the byte-bounded memo that this module and the Jacobi layer
keep their results in.  E2, E4, E6 and Delta come from one memoized,
read-only source, `level1_series`: one BoundedMemo entry per ring at the
largest q-precision asked, served to smaller precisions as a prefix view,
from which the index-1 columns, the weak columns, mk_basis and the CLI's
elliptic factors all read.  sigma_e comes from a numpy divisor sieve, and
the exact divisions by 12 and 1728 are one vector operation each
(`Ring.divexact_vector`).

Storage: a series of precision N is the 1-D vector of its N + 1
coefficients, of dtype `ring.dtype` like every coefficient vector (see
siegelcong.ring); every operation is one numpy expression for both dtypes,
reduced mod p only over F_p (`ring.canonical`).  The series product
convolve_trunc, which the Jacobi layer shares, is one ring.exact_product of
either an int64 np.convolve or, for long series over small F_p, a float64
FFT product; invert_series is Newton iteration over convolve_trunc.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .errors import ArithmeticDomainError, InvalidArgumentError, PrecisionError
from .ring import (FpRing, RatRing, centred, exact_product, fft_len, fft_qmax, int64_qmax,
                   ring_from_tag)

_INT = ring_from_tag("int")


# -- series products -------------------------------------------------------------

# Shorter-factor length from which convolve_trunc multiplies by FFT over
# F_p with p <= fft_qmax, the measured crossover with np.convolve.  Rings
# that need CRT (Z, Q, F_p past fft_qmax) keep np.convolve at every length.
_FFT_MIN = 250


def convolve_trunc(ring, a, b, n):
    """First n coefficients of the product of two series vectors: one
    ring.exact_product with T = min(len(a), len(b), n) terms per
    coefficient, of np.convolve (int64_qmax(T)), or of _convolve_fft
    (fft_qmax of the longer length) from _FFT_MIN terms on over F_p with p
    within that bound."""
    square = b is a
    a = np.asarray(a[:n], dtype=ring.dtype)
    b = a if square else np.asarray(b[:n], dtype=ring.dtype)
    out, t = ring.zeros(n), min(len(a), len(b))
    kernel, qmax = (lambda x, y, q: np.convolve(x, y)[:n] % q), int64_qmax(t)
    if t >= _FFT_MIN and isinstance(ring, FpRing):
        fq = fft_qmax(max(len(a), len(b)))
        if ring.p <= fq:
            kernel, qmax = (lambda x, y, q: _convolve_fft(x, y, q, n)), fq
    if t:
        full = exact_product(ring, a, b, kernel, t, qmax)
        out[:len(full)] = full
    return out


def _convolve_fft(x, y, q, n):
    """x * y to n terms, residues mod q in [0, q), by one float64 rfft product
    of the centred residues; exact for q <= fft_qmax(max(len(x), len(y))).
    The transform length covers the whole product, so nothing wraps."""
    size = fft_len(len(x) + len(y) - 1)
    spec = np.fft.rfft(centred(x, q).astype(float), size)
    spec = spec * (spec if y is x else np.fft.rfft(centred(y, q).astype(float), size))
    return np.rint(np.fft.irfft(spec, size)[:n]).astype(np.int64) % q


def invert_series(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit.

    Newton iteration: if a g = 1 + O(q^k), then g' = g (2 - a g) = g - g e,
    e = a g - 1 = O(q^k), has a g' = 1 + O(q^2k), so g' extends g by the
    terms k..2k-1 of -g e.  Each step is two convolve_trunc calls, of a by g
    and of g by the terms e_k.. of e."""
    head = ring.canonical(a[:1]).tolist()
    if not head or not head[0]:
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    g = ring.zeros(1)
    g[0] = ring.inv(head[0])
    a = ring.canonical(np.asarray(a[:n], dtype=ring.dtype))
    while len(g) < n:
        k = len(g)
        e = convolve_trunc(ring, a, g, min(2 * k, n))[k:]
        g = np.concatenate([g, ring.canonical(-convolve_trunc(ring, g, e, len(e)))])
    return g[:n]


# -- standard generators -------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(k):
    """Exact Bernoulli number B_k (B_1 = -1/2 convention)."""
    if k == 4:
        return Fraction(-1, 30)
    if k == 6:
        return Fraction(1, 42)
    b = [Fraction(1)]
    for m in range(1, k + 1):
        acc = sum(Fraction(comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-acc / (m + 1))
    return b[k]


def _sigma(e, n, ring):
    """sigma_e(0..n) (entry 0 is zero) by a numpy divisor sieve: one term
    d^e per pair (d, multiple of d), the powers from ring.powers (mod p over
    F_p), summed with one np.add.at; not reduced."""
    d = np.arange(1, n + 1)
    count = n // d
    div = np.repeat(d, count)
    mult = div * (np.arange(len(div)) - np.repeat(np.cumsum(count) - count, count) + 1)
    out = np.zeros(n + 1, dtype=ring.dtype)
    np.add.at(out, mult, ring.powers(d.tolist(), e)[div - 1])
    return out


def _eisenstein(k, prec, ring):
    """1 - (2k/B_k) * sum sigma_{k-1}(n) q^n for an even k >= 2."""
    out = ring.canonical(ring.canonical(_sigma(k - 1, prec, ring))
                         * ring.from_rational(Fraction(-2 * k) / bernoulli(k)))
    out[0] = ring.one
    return out


def eisenstein_q(k, prec, ring):
    """Normalized Eisenstein series of even weight k >= 4.

    E_k = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n; the scaling is integral for
    k = 4 and 6 (240 and -504).
    """
    if k % 2 or k < 4:
        raise InvalidArgumentError(f"Eisenstein weight must be even and >= 4, got {k}")
    return _eisenstein(k, prec, ring)


def delta_q(prec, ring):
    """The discriminant cusp form Delta = (E4^3 - E6^2)/1728, leading q^1: a
    read-only view of level1_series."""
    if prec < 1:
        raise InvalidArgumentError("Delta needs precision >= 1")
    return level1_series(prec, ring)[3]


def eta_pow6(prec, ring):
    """eta^6 with the fractional q-power removed (constant term 1).

    Computed as the square of the eta^3 series sum (-1)^j (2j+1) q^{j(j+1)/2}.
    """
    j = np.arange(isqrt(2 * prec) + 1)
    j = j[j * (j + 1) // 2 <= prec]
    cube = np.zeros(prec + 1, dtype=np.int64)
    cube[j * (j + 1) // 2] = np.where(j % 2, -1, 1) * (2 * j + 1)
    cube = ring.from_integers(cube, 1)
    return convolve_trunc(ring, cube, cube, prec + 1)


# -- weight-k bases ---------------------------------------------------------------

def _triangular_exponents(k):
    """(a, b, c) with 4a + 6b = k - 12c != 2 and a minimal: one triple per c,
    none for odd or negative k."""
    if k % 2:
        return []
    out = []
    for c in range(k // 12 + 1):
        rem = k - 12 * c
        if rem != 2:
            a = {0: 0, 4: 1, 2: 2}[rem % 6]
            out.append((a, (rem - 4 * a) // 6, c))
    return out


class BoundedMemo:
    """A least-recently-used memo holding at most `limit` bytes of values.

    size(value) gives the bytes a value holds (see array_bytes).  Inserting
    evicts the least recently used entries until the total is within the
    limit again; the entry just inserted always stays, even when it alone is
    larger.  Lookups use `get` and inserts item assignment, so a plain dict
    can stand in for a memo, unbounded (tests do).  Every memo of the
    Jacobi layer is one of these, with the same MEMO_BYTES bound.
    """

    def __init__(self, limit, size):
        self.limit, self.size = limit, size
        self.nbytes = 0
        self._items = {}          # key -> (value, bytes), least recently used first

    def get(self, key, default=None):
        hit = self._items.pop(key, None)
        if hit is None:
            return default
        self._items[key] = hit
        return hit[0]

    def __setitem__(self, key, value):
        old = self._items.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        nbytes = self.size(value)
        self._items[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.limit and len(self._items) > 1:
            self.nbytes -= self._items.pop(next(iter(self._items)))[1]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


# per memo; in the index-2, p = 31 heat cycle a 64 MiB bound added no hits
# and raised peak RSS from 134 to 199 MB
MEMO_BYTES = 16 << 20


def array_bytes(arrays):
    """Bytes held by numpy arrays, counting an object entry as 64 bytes (its
    pointer and a small Python number), so bounds over Z and Q are rough."""
    return sum(a.size * 64 if a.dtype == object else a.nbytes for a in arrays)


def integral_memo(memo, build, prec, ring):
    """build(prec, ring), an array of integral series along its last axis,
    memoized per ring at the largest precision asked, read-only; a smaller
    precision is a prefix view.  Q casts the entry of Z once (Fraction
    arithmetic would be the cost)."""
    rows = memo.get(ring.tag)
    if rows is None or rows.shape[-1] <= prec:
        if isinstance(ring, RatRing):
            ints = integral_memo(memo, build, prec, _INT)
            rows = ring.from_integers(ints, 1)
        else:
            rows = build(prec, ring)
        rows = memo[ring.tag] = _read_only(rows)
    return rows[..., :prec + 1]


_level1 = BoundedMemo(MEMO_BYTES, lambda rows: array_bytes([rows]))


def level1_series(prec, ring):
    """The read-only 4 x (prec + 1) matrix of E2, E4, E6 and Delta to q^prec,
    built once per ring (integral_memo).  Delta is (E4^3 - E6^2)/1728,
    divided as one vector operation."""
    return integral_memo(_level1, _level1_rows, prec, ring)


def _level1_rows(prec, ring):
    n = prec + 1
    e2, e4, e6 = (_eisenstein(k, prec, ring) for k in (2, 4, 6))
    e4_cubed = convolve_trunc(ring, convolve_trunc(ring, e4, e4, n), e4, n)
    delta = ring.divexact_vector(ring.canonical(e4_cubed - convolve_trunc(ring, e6, e6, n)), 1728)
    return np.stack([e2, e4, e6, delta])


_bases = BoundedMemo(MEMO_BYTES, lambda rows: array_bytes([rows]))


def mk_basis(k, prec, ring):
    """Echelonized basis of the weight-k level-1 space over `ring`: a
    read-only matrix of dtype `ring.dtype` with prec + 1 columns, one row
    per basis form.

    Reduces Delta^c E4^a E6^b, one for each c with 4a + 6b = k - 12c != 2
    and a minimal.  Each has integer coefficients and leading term 1*q^c, so
    the set is a basis of M_k (Serre, A Course in Arithmetic, VII §3.2, Thm 4)
    whose Z-span holds every monomial E4^a E6^b Delta^c of weight k; its
    reduced echelon form is the one of all those monomials, over Q and over
    every F_p.  Unit leading terms make the reduction a back substitution
    without division.  Pivot columns strictly increase and pivots equal 1;
    the number of rows is the dimension of the space, 0 at odd, negative
    and weight 2.

    Bases are memoized per (ring, k) at the largest precision built, in a
    BoundedMemo, and a smaller precision is served as a column slice (a
    view) of the stored matrix.  That is exact: the back substitution reads
    and clears only the pivot columns c <= k/12 < prec, and row operations
    commute with truncation.  jacobi.filtration asks for each basis at one
    precision per form, phi.prec.
    """
    tri = _triangular_exponents(k)
    if not tri:
        return _read_only(ring.zeros((0, prec + 1)))
    upper = k // 12 + 1
    if prec < upper:
        raise PrecisionError(f"mk_basis({k}) needs precision >= {upper}",
                             required=upper, available=prec)
    key = (ring.tag, k)
    rows = _bases.get(key)
    if rows is None or rows.shape[1] <= prec:
        n = prec + 1
        pw4, pw6, pwd = _power_chains(ring, prec, (2, max(b for _, b, _ in tri), tri[-1][2]))
        rows = np.stack([convolve_trunc(ring, convolve_trunc(ring, pw4[a], pw6[b], n), pwd[c], n)
                         for a, b, c in tri])
        # clear pivot column c_j above row j, last row first
        for j in range(len(tri) - 1, 0, -1):
            for i in range(j):
                x = rows[i, tri[j][2]]
                if x:
                    rows[i] = ring.canonical(rows[i] - rows[j] * x)
        rows = _bases[key] = _read_only(rows)
    return rows[:, :prec + 1]


_chains = None  # (ring tag, prec, [E4 chain, E6 chain, Delta chain]), or None


def _power_chains(ring, prec, emax):
    """The chains [f^0, ..., f^e] for (f, e) in zip((E4, E6, Delta), emax).

    One entry is kept: the last ring at the largest precision asked of it,
    so a smaller precision is served by the longer series (the caller
    truncates) and a chain grows when a larger power is asked for.  The
    stored vectors are read-only.
    """
    global _chains
    if _chains is None or _chains[0] != ring.tag or _chains[1] < prec:
        one = ring.zeros(prec + 1)
        one[0] = ring.one
        _chains = (ring.tag, prec, [[_read_only(one), f] for f in level1_series(prec, ring)[1:]])
    chains = _chains[2]
    for chain, e in zip(chains, emax):
        while len(chain) <= e:
            chain.append(_read_only(convolve_trunc(ring, chain[-1], chain[1], len(chain[1]))))
    return chains


def _read_only(a):
    a.flags.writeable = False
    return a


def mk_dim(k):
    """Dimension of the weight-k level-1 space: the size of mk_basis's
    triangular basis, one element per c with k - 12c != 2 (Serre, A Course in
    Arithmetic, VII §3.2, Thm 4).  Its unit leading terms make the count the
    same over Q and over every F_p.
    """
    return len(_triangular_exponents(k))
