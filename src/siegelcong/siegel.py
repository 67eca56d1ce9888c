"""Degree-2 Siegel modular forms as truncated triple series.

A form of box N has coefficients A(n, r, m) on the semipositive support
0 <= n, m <= N, |r| <= isqrt(4nm).  A(n, r, m) = A(m, r, n) = A(n, -r, m)
for every form here, so only the half support n <= m, 0 <= r <= isqrt(4nm)
is stored: one flat vector `coeffs`, ordered by n, then m, then r, which is
the row order of cache format 2.  Over F_p with p < 2^21 the vector is
int64 with residues in [0, p); over Z, Q and larger primes it has dtype
object and holds Python ints, Fractions or residues.  Every operation is a
numpy expression on that vector, reduced mod p only over F_p; the index
arrays of each box (BoxIndex) are built once and memoized.

Key facts used throughout: the generalized theta operator acts diagonally
(multiplication by det T), so its congruence criterion reduces to testing
coefficients on reduced matrices up to the dyadic-trace Sturm bound without
ever materializing the auxiliary form G; products of truncated expansions
are exact on the stored box because the support is semipositive.  Every such
test reads its coefficients with one gather at the reduced classes
(class_values).

Products (siegel_mul) take one of two paths, chosen from the ring and the
box alone: over F_p with p < 2^21 and ((p-1)/2)^2 (N+1)^2 (2N+1) <= 2^40 an
exact float64 FFT convolution of whole n-slices; over Z, Q, larger primes
and boxes past that bound the direct row-by-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .errors import (InconsistentVerdictError, InvalidArgumentError,
                     NotInRingError, PrecisionError, RingMismatchError)
from .jacobi import (JacobiFormSeries, criterion_weight, jacobi_cusp, jacobi_eisenstein,
                     jacobi_index)
from .linalg import FpMatrix, kernel_basis, solve
from .qexp import bernoulli
from .ring import FpRing, legendre, ring_from_tag


@dataclass(frozen=True)
class MatrixIndexT:
    """The even symmetric matrix [2n, r; r, 2m] indexed by (n, r, m)."""

    n: int
    r: int
    m: int

    @property
    def det(self):
        return 4 * self.n * self.m - self.r * self.r

    @property
    def is_reduced(self):
        if self.n == 0:
            return self.r == 0 and self.m >= 0
        return 0 <= self.r <= self.n <= self.m

    def key(self):
        return (self.n, self.r, self.m)


def reduce_T(T):
    """Gauss-reduce to the representative with 0 <= r <= n <= m.

    Preserves the determinant; raises on indefinite input.  Rank <= 1
    matrices reduce to (0, 0, m).
    """
    n, r, m = (T.n, T.r, T.m) if isinstance(T, MatrixIndexT) else T
    if n < 0 or m < 0 or 4 * n * m - r * r < 0:
        raise InvalidArgumentError(f"matrix ({n},{r},{m}) is not semipositive even")
    # each step swaps n > m or translates r into (-n, n]; n never grows
    while n and not (-n < r <= n <= m):
        if n > m:
            n, m = m, n
        else:
            t = (n - r) // (2 * n)
            m, r = m + r * t + n * t * t, r + 2 * t * n
    return MatrixIndexT(n, abs(r) if n else 0, m)


def dyadic_trace(T):
    """w(T) = 2n + 2m - |r| for a reduced matrix (2m for rank <= 1, 0 for zero)."""
    if not T.is_reduced:
        raise InvalidArgumentError(f"dyadic_trace needs a reduced matrix, got {T.key()}")
    return 2 * T.n + 2 * T.m - abs(T.r)


@lru_cache(maxsize=32)
def reduced_classes(wmax):
    """Read-only arrays n, r, m, det of the reduced classes with dyadic trace
    <= wmax, rank <= 1 included, sorted by (w, n, r, m)."""
    if wmax < 0:
        raise InvalidArgumentError("wmax must be >= 0")
    keys = [(0, 0, m) for m in range(wmax // 2 + 1)]
    keys += [(n, r, m) for n in range(1, wmax // 3 + 1) for r in range(n + 1)
             for m in range(n, (wmax + r - 2 * n) // 2 + 1)]
    n, r, m = np.array(keys, dtype=np.int64).T
    order = np.lexsort((m, r, n, 2 * n + 2 * m - r))
    out = tuple(a[order] for a in (n, r, m, 4 * n * m - r * r))
    for a in out:
        a.flags.writeable = False
    return out


def enumerate_reduced(wmax):
    """All reduced classes with dyadic trace <= wmax, rank <= 1 included.

    Sorted by (w, n, r, m); no duplicates.
    """
    n, r, m, _ = reduced_classes(wmax)
    return [MatrixIndexT(*t) for t in zip(n.tolist(), r.tolist(), m.tolist())]


class BoxIndex:
    """Read-only index arrays of the half support of one box, in vector order.

    n, r, m, det and gcd = gcd(n, r, m) hold one entry per stored key.
    offset[n, m] = offset[m, n] is the position of A(min, 0, max), so
    A(n, r, m) sits at offset[n, m] + |r|; widths lists isqrt(4nm) + 1 for
    the (n, m) pairs with n <= m in vector order, and nstart[n] is where the
    keys of q-degree n begin (nstart[N + 1] is the length).  The keys of a
    smaller box M are the keys with m <= M, in the same order.
    """

    def __init__(self, prec):
        self.prec = prec
        lo, hi = np.triu_indices(prec + 1)
        self.widths = np.array([isqrt(4 * a * b) + 1 for a, b in zip(lo.tolist(), hi.tolist())])
        starts = np.cumsum(self.widths) - self.widths
        self.size = int(self.widths.sum())
        self.offset = np.zeros((prec + 1, prec + 1), dtype=np.int64)
        self.offset[lo, hi] = self.offset[hi, lo] = starts
        self.nstart = np.append(np.diagonal(self.offset), self.size)
        self.n = np.repeat(lo, self.widths)
        self.m = np.repeat(hi, self.widths)
        self.r = np.arange(self.size) - np.repeat(starts, self.widths)
        self.det = 4 * self.n * self.m - self.r * self.r
        self.gcd = np.gcd(np.gcd(self.n, self.r), self.m)
        for a in (self.widths, self.offset, self.nstart, self.n, self.m, self.r,
                  self.det, self.gcd):
            a.flags.writeable = False

    @cached_property
    def slices(self):
        """(start, pos, src): n-slice i of the full support, as an
        (N+1) x (4N+1) array with A(i, r, m) at row m, column 2N + r, takes
        entry src[k] of the half vector to flat position pos[k] for
        start[i] <= k < start[i + 1]."""
        big, width = 2 * self.prec, 4 * self.prec + 1
        n, r, m = self.n, self.r, self.m
        # A(n, r, m) sits in slice n at (m, +-r) and in slice m at (n, +-r)
        sl = np.concatenate([n, n, m, m])
        pos = np.concatenate([m * width + big + r, m * width + big - r,
                              n * width + big + r, n * width + big - r])
        src = np.tile(np.arange(self.size), 4)
        keep = np.concatenate([r >= 0, r > 0, n != m, (n != m) & (r > 0)])
        order = np.argsort(sl[keep], kind="stable")
        start = np.searchsorted(sl[keep][order], np.arange(self.prec + 2))
        out = (start, pos[keep][order], src[keep][order])
        for a in out:
            a.flags.writeable = False
        return out


@lru_cache(maxsize=4)
def box_index(prec):
    """The BoxIndex of box prec, memoized for the last few boxes."""
    return BoxIndex(prec)


def _per_det(det, fn, dtype):
    """fn(d) at each entry d of det, evaluated once per distinct value."""
    values, inverse = np.unique(det, return_inverse=True)
    return np.array([fn(d) for d in values.tolist()], dtype=dtype)[inverse]


def _pairs(prec):
    """The (n, m) pairs with n <= m <= prec, in vector order."""
    return zip(*(a.tolist() for a in np.triu_indices(prec + 1)))


class SiegelFormSeries:
    """Truncated expansion sum A(n, r, m) q^n zeta^r q'^m of even weight k.

    coeffs is the half-support vector described in the module docstring.
    """

    __slots__ = ("ring", "weight", "prec", "coeffs")

    def __init__(self, ring, weight, prec, coeffs):
        self.ring = ring
        self.weight = weight
        self.prec = prec
        self.coeffs = coeffs

    @classmethod
    def constant(cls, ring, weight, prec, v):
        """The form with A(0, 0, 0) = v and every other coefficient zero."""
        vec = ring.zeros(box_index(prec).size)
        vec[0] = ring.from_int(v) if isinstance(v, int) else v
        return cls(ring, weight, prec, vec)

    @classmethod
    def zero(cls, ring, weight, prec):
        return cls.constant(ring, weight, prec, 0)

    @staticmethod
    def rb(n, m):
        return isqrt(4 * n * m)

    def a(self, n, r, m):
        """Coefficient A(n, r, m); zero outside the semipositive support."""
        if n < 0 or m < 0:
            return self.ring.zero
        if n > self.prec or m > self.prec:
            raise PrecisionError(f"triple ({n},{r},{m}) beyond box {self.prec}",
                                 required=max(n, m), available=self.prec)
        if abs(r) > self.rb(n, m):
            return self.ring.zero
        v = self.coeffs[box_index(self.prec).offset[n, m] + abs(r)]
        return int(v) if isinstance(self.ring, FpRing) else v

    def a_T(self, T):
        return self.a(T.n, T.r, T.m)

    def __repr__(self):
        return f"SiegelFormSeries({self.ring.tag}, k={self.weight}, N={self.prec})"

    def __eq__(self, other):
        return (isinstance(other, SiegelFormSeries) and self.ring == other.ring
                and self.prec == other.prec and np.array_equal(self.coeffs, other.coeffs))

    def at_box(self, prec):
        """The coefficient vector truncated to box prec <= self.prec."""
        if prec == self.prec:
            return self.coeffs
        return self.coeffs[box_index(self.prec).m <= prec]

    def _derived(self, vec, weight, prec=None):
        """A form over the same ring from the fresh vector vec."""
        prec = self.prec if prec is None else prec
        return SiegelFormSeries(self.ring, weight, prec, self.ring.canonical(vec))

    def _map2(self, other, fn, weight):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        prec = min(self.prec, other.prec)
        return self._derived(fn(self.at_box(prec), other.at_box(prec)), weight, prec)

    def __add__(self, other):
        w = self.weight if self.weight == other.weight else None
        return self._map2(other, np.add, w)

    def __sub__(self, other):
        w = self.weight if self.weight == other.weight else None
        return self._map2(other, np.subtract, w)

    def scale(self, c):
        c = self.ring.from_int(c) if isinstance(c, int) else c
        return self._derived(self.coeffs * c, self.weight)

    def __neg__(self):
        return self._derived(-self.coeffs, self.weight)

    def __mul__(self, other):
        if isinstance(other, SiegelFormSeries):
            return siegel_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def is_zero_window(self):
        return not np.any(self.coeffs != 0)

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        return SiegelFormSeries(fp, self.weight, self.prec, self.ring.reduce_vector(self.coeffs, fp))

    def support_dets(self):
        """Sorted determinants carried by nonzero stored coefficients."""
        return np.unique(box_index(self.prec).det[self.coeffs != 0]).tolist()

    def coeff_rows(self, n):
        """[n, r, m, token] for the nonzero A(n, r, m) with m >= n, r >= 0."""
        idx = box_index(self.prec)
        block = slice(idx.nstart[n], idx.nstart[n + 1])
        nz = np.flatnonzero(self.coeffs[block] != 0)
        toks = tokens(self.ring, self.coeffs[block][nz])
        return [[n, r, m, t] for r, m, t in zip(idx.r[block][nz].tolist(),
                                                 idx.m[block][nz].tolist(), toks)]

    def to_json(self):
        coeffs = [c for n in range(self.prec + 1) for c in self.coeff_rows(n)]
        return {"kind": "siegel", "ring": self.ring.tag, "weight": self.weight,
                "prec": self.prec, "coeffs": coeffs}


def tokens(ring, vec):
    """The entries of a coefficient vector as JSON tokens (ring.to_token)."""
    if vec.dtype == object:
        return [ring.to_token(v) for v in vec]
    return vec.tolist()


def class_values(F, wmax):
    """A(T) at the reduced classes of reduced_classes(wmax), in their order:
    one gather.  F's box must cover wmax // 2."""
    n, r, m, _ = reduced_classes(wmax)
    return F.coeffs[box_index(F.prec).offset[n, m] + r]


# -- lifts and generators ------------------------------------------------------------

def maass_lift(phi, prec):
    """Lift an index-1 Jacobi form: A(n,r,m) = sum_{d | (n,r,m)} d^{k-1} c(nm/d^2, r/d).

    An index-1 coefficient depends only on D = 4n - r^2 (Eichler-Zagier,
    The Theory of Jacobi Forms, Thm 2.2), and c(nm/d^2, r/d) has
    D = det/d^2, so A = sum_{d | gcd} d^{k-1} C[det/d^2] with C read from
    the zeta^0 and zeta^1 coefficients of phi: one masked gather per d.
    A(0,0,0) is set to zero; pinning the constant of a non-cuspidal lift is
    the caller's concern (see igusa_generators).  Requires q-precision at
    least prec^2 on the input.  C[D] is c((D + 3) // 4, D mod 4 == 3), read
    from phi's vector with one gather.
    """
    if phi.index != 1:
        raise InvalidArgumentError("maass_lift expects an index-1 Jacobi form")
    if phi.prec < prec * prec:
        raise PrecisionError(f"lift to box {prec} needs q-precision {prec * prec}",
                             required=prec * prec, available=phi.prec)
    ring = phi.ring
    D = np.arange(4 * prec * prec + 1)
    C = phi.coeffs[phi.idx.start[(D + 3) // 4] + (D % 4 == 3)]    # D = 4n - r^2, r in {0, 1}
    idx = box_index(prec)
    out = ring.zeros(idx.size)
    for d in range(1, prec + 1):
        keys = np.flatnonzero((idx.gcd % d == 0) & (idx.gcd > 0))
        dpow = ring.pow(ring.from_int(d), phi.weight - 1)
        out[keys] += dpow * C[idx.det[keys] // (d * d)]
    return SiegelFormSeries(ring, phi.weight, prec, ring.canonical(out))


_GENERATOR_WEIGHTS = {"E4": 4, "E6": 6, "chi10": 10, "chi12": 12}


def igusa_generators(prec, ring):
    """The four even-weight generators as truncated expansions on the box.

    chi10 and chi12 are lifts of the index-1 cusp generators, normalized by
    A(1,1,1) = 1; E4 and E6 are (-2k/B_k)-scaled lifts of the index-1
    Eisenstein series with the constant term pinned to 1.
    """
    qprec = prec * prec
    out = {}
    for name, k in _GENERATOR_WEIGHTS.items():
        if name.startswith("E"):
            lift = maass_lift(jacobi_eisenstein(k, qprec, ring), prec)
            out[name] = SiegelFormSeries.constant(ring, k, prec, 1) \
                + lift.scale(ring.from_rational(Fraction(-2 * k) / bernoulli(k)))
        else:
            out[name] = maass_lift(jacobi_cusp(k, qprec, ring), prec)
    return out


def fourier_jacobi(F, m):
    """The index-m slice: a Jacobi form with c(n, r) = A(n, r, m), zero where
    4nm - r^2 < 0; one gather from F's vector."""
    if m < 0 or m > F.prec:
        raise PrecisionError(f"slice index {m} outside box {F.prec}",
                             required=m, available=F.prec)
    idx = jacobi_index(m, F.prec)
    inside = idx.D >= 0
    vec = F.ring.zeros(idx.size)
    vec[inside] = F.coeffs[box_index(F.prec).offset[idx.n[inside], m] + idx.r[inside]]
    return JacobiFormSeries(F.ring, F.weight, m, F.prec, vec, weak=False)


# -- products -------------------------------------------------------------------------

# Bound on ((p-1)/2)^2 (N+1)^2 (2N+1) under which the FFT product is exact.
_FFT_LIMIT = 1 << 40


def _fft_exact(ring, prec):
    """True when siegel_mul over `ring` at box `prec` runs the FFT kernel."""
    if not (isinstance(ring, FpRing) and ring.fits64):
        return False
    h = (ring.p - 1) // 2
    return h * h * (prec + 1) ** 2 * (2 * prec + 1) <= _FFT_LIMIT


def siegel_mul(F, G):
    """Three-variable Cauchy product, exact on the shared box.

    Semipositivity of the support forces both q- and q'-degrees of the
    factors below those of the output, so no out-of-box terms are lost.

    Over F_p with p < 2^21 the product is a float64 FFT convolution when
    h^2 T <= 2^40, with h = (p-1)/2, N the shared box and
    T = (N+1)^2 (2N+1).  Residues are centred in [-h, h].  T bounds the
    terms in any output coefficient ((n+1)(m+1) pairs (n1, m1), each
    overlapping in at most 2N+1 values of r1), so every exact output is at
    most h^2 T in absolute value.  T also bounds the coefficients on the
    full support of one factor, so ||F||_2 ||G||_2 <= h^2 T.  The rounding
    error of an FFT convolution is at most about c log2(L) eps
    ||F||_2 ||G||_2, with eps = 2^-53, L the transform size (about
    (2N+1)(4N+1), see _mul_fft) and c about 13 (Percival, Math. Comp. 72,
    2003).  Since p >= 5 gives h >= 2, the bound itself keeps N below 5200
    and log2 L below 29, so the error is under 13 * 29 / 2^13 < 0.05, a
    tenth of the 1/2 that rounding to the nearest integer allows.  Measured
    on factors with every entry (p-1)/2 at the bound, boxes 4 to 40, the
    largest error was 1.2e-4.  Every other product (Z, Q, larger p, boxes
    past the bound) runs the direct loop, which the FFT path matches bit
    for bit.
    """
    if F.ring != G.ring:
        raise RingMismatchError(f"{F.ring.tag} vs {G.ring.tag}")
    prec = min(F.prec, G.prec)
    w = None
    if F.weight is not None and G.weight is not None:
        w = F.weight + G.weight
    mul = _mul_fft if _fft_exact(F.ring, prec) else _mul_loop
    return SiegelFormSeries(F.ring, w, prec, mul(F, G, prec))


def _mul_fft(F, G, prec):
    """Product vector over F_p by FFT; exact when _fft_exact holds.

    Each n-slice of the full support is packed into an (N+1) x (4N+1) array
    with r at offset 2N (BoxIndex.slices) and transformed at the least
    5-smooth sizes (fast for numpy.fft) of at least 2N+1 in m and 4N+1 in
    r: m1 + m2 <= 2N never wraps, and
    |r1 + r2| <= 2 sqrt(n1 m1) + 2 sqrt(n2 m2) <= 2 sqrt(nm) <= 2N
    (Cauchy-Schwarz), so the cyclic wrap in r never lands on a stored
    coefficient.  The n-convolution is a sum of spectrum products, and
    each output slice n gives back only its keys with m >= n, r >= 0.  Two
    slices n1, n2 >= N//2 + 1 never meet in the box (n1 + n2 > N), so the
    sum runs in three passes (low x low, low x high, high x low) that each
    hold the spectra of half the slices of each factor; each pass sums a
    subset of the terms, so the exactness bound covers it.
    """
    from numpy import fft

    p, big = F.ring.p, 2 * prec
    idx = box_index(prec)
    start, pos, src = idx.slices
    shape = (_fft_len(big + 1), _fft_len(2 * big + 1))
    out = np.zeros(idx.size, dtype=np.int64)

    def spectra(form, ns):
        vec = form.at_box(prec)
        centred = np.where(vec > p // 2, vec - p, vec).astype(float)   # residues in [-h, h]
        spec = np.empty((len(ns), shape[0], shape[1] // 2 + 1), dtype=complex)
        packed = np.zeros((prec + 1) * (2 * big + 1))
        for i, n in enumerate(ns):
            packed[:] = 0
            packed[pos[start[n]:start[n + 1]]] = centred[src[start[n]:start[n + 1]]]
            spec[i] = fft.rfft2(packed.reshape(prec + 1, 2 * big + 1), s=shape)
        return spec

    def add(fs, f0, gs, g0):
        """Add the products of F slices f0 + i and G slices g0 + j into out."""
        for n in range(f0 + g0, prec + 1):
            d = n - f0 - g0
            lo, hi = max(0, d - len(gs) + 1), min(len(fs), d + 1)
            if lo >= hi:
                continue
            acc = np.einsum("ijk,ijk->jk", fs[lo:hi], gs[d - hi + 1:d - lo + 1][::-1])
            vals = fft.irfft2(acc, s=shape)
            # the product's r sits at column (4N + r) mod shape[1]
            keys = slice(idx.nstart[n], idx.nstart[n + 1])
            cols = (2 * big + idx.r[keys]) % shape[1]
            out[keys] += np.rint(vals[idx.m[keys], cols]).astype(np.int64)
            out[keys] %= p

    half = prec // 2 + 1
    low, high = range(half), range(half, prec + 1)
    fl = spectra(F, low)
    add(fl, 0, fl if G is F else spectra(G, low), 0)
    add(fl, 0, spectra(G, high), half)
    del fl
    add(spectra(F, high), half, spectra(G, low), 0)
    return out


def _fft_len(n):
    """The least 5-smooth length >= n, a fast size for numpy.fft."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


def _full_rows(vec, idx):
    """rows[n][m]: A(n, r, m) for r = -isqrt(4nm)..isqrt(4nm), None when zero."""
    rows = [[None] * (idx.prec + 1) for _ in range(idx.prec + 1)]
    for n, m in _pairs(idx.prec):
        half = vec[idx.offset[n, m]:idx.offset[n, m] + isqrt(4 * n * m) + 1]
        if np.any(half != 0):
            rows[n][m] = rows[m][n] = np.concatenate([half[:0:-1], half])
    return rows


def _mul_loop(F, G, prec):
    """Product vector by direct row convolution, over any ring.

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


def theta_operator(F, j=1):
    """The generalized theta operator iterated j times: A(T) -> det(T)^j A(T).

    Over a prime field the weight annotation grows by j(p + 1); over exact
    rings it is left unchanged.
    """
    if j < 0:
        raise InvalidArgumentError("iterate count must be >= 0")
    ring = F.ring
    mult = _per_det(box_index(F.prec).det, lambda d: ring.pow(ring.from_int(d), j), ring.dtype)
    w = F.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + j * (ring.p + 1)
    return F._derived(F.coeffs * mult, w)


# -- the Sturm-type verifier and congruence certificates --------------------------------

@dataclass
class SturmReport:
    is_zero: bool
    bound: int
    classes_checked: int
    witness: tuple | None


def _sturm_bound(weight, prec):
    """The dyadic-trace Sturm bound weight // 3; PrecisionError unless box
    prec covers it (never silently narrowed)."""
    bound = weight // 3
    if prec < bound // 2:
        raise PrecisionError(f"Sturm bound {bound} of weight {weight} needs box precision "
                             f"{bound // 2}", required=bound // 2, available=prec)
    return bound


def _scan(F, weight, eps=None):
    """The zero test mod p behind every verdict: A(T) at the reduced classes
    T within the Sturm bound of weight (only those with legendre(det T, p)
    == eps when eps is given), and the first (n, r, m) where it does not
    vanish."""
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("a Sturm scan needs a prime-field form")
    bound = _sturm_bound(weight, F.prec)
    classes, values = reduced_classes(bound), class_values(F, bound)
    if eps is not None:
        mask = _legendre_mask(classes[3], F.ring.p, eps)
        classes, values = [a[mask] for a in classes], values[mask]
    hit = np.flatnonzero(values)
    witness = tuple(int(a[hit[0]]) for a in classes[:3]) if len(hit) else None
    return SturmReport(witness is None, bound, len(values), witness)


def sturm_zero(F, k_eff):
    """Finite zero test mod p at effective weight k_eff: A(T) vanishes on
    every reduced T with dyadic trace at most k_eff / 3."""
    return _scan(F, k_eff)


@dataclass
class CongruenceCertificate:
    """Machine-checkable verdict for one Ramanujan-type congruence."""

    form: str
    p: int
    b: int
    verdict: str                 # "holds" | "fails"
    G_weight: int
    sturm_bound: int
    classes_checked: int
    witness: tuple | None
    method: str                  # "theta-criterion" | "sieve-identity"

    @property
    def holds(self):
        return self.verdict == "holds"

    def to_json(self):
        return {"form": self.form, "p": self.p, "b": self.b, "verdict": self.verdict,
                "G_weight": self.G_weight, "sturm_bound": self.sturm_bound,
                "classes_checked": self.classes_checked,
                "witness": list(self.witness) if self.witness else None,
                "method": self.method}


def congruence_required_prec(k, p, b):
    """Box size sufficient for the certificate at (k, p, b)."""
    return criterion_weight(k, p, b) // 3 // 2


def _legendre_mask(det, p, eps):
    """det entries d with legendre(d, p) == eps."""
    return _per_det(det % p, lambda d: legendre(d, p), np.int64) == eps


def siegel_congruence(F, p, b, label=""):
    """Certificate for the congruence of F at b mod p.

    The theta operator is diagonal, so the auxiliary form vanishes iff A(T)
    vanishes on every reduced class in the Sturm bound whose determinant has
    the Legendre class of b (b nonzero), or is divisible by p (b = 0, via
    the sieve identity).  F must already live over F_p.
    """
    if not isinstance(F.ring, FpRing) or F.ring.p != p:
        raise InvalidArgumentError(f"siegel_congruence needs a form over fp:{p}")
    if F.weight is None:
        raise InvalidArgumentError("form needs a weight annotation")
    b %= p
    g_weight = criterion_weight(F.weight, p, b)
    rep = _scan(F, g_weight, legendre(b, p))
    return CongruenceCertificate(form=label, p=p, b=b,
                                 verdict="holds" if rep.is_zero else "fails",
                                 G_weight=g_weight, sturm_bound=rep.bound,
                                 classes_checked=rep.classes_checked, witness=rep.witness,
                                 method="theta-criterion" if b else "sieve-identity")


def congruence_scan(F, p, label="", include_zero=True):
    """Certificates for every residue b; verdicts are constant on each
    nonzero Legendre class (InconsistentVerdictError otherwise)."""
    out = {b: siegel_congruence(F, p, b, label=label)
           for b in range(0 if include_zero else 1, p)}
    for eps in (1, -1):
        cls = [b for b in range(1, p) if legendre(b, p) == eps]
        odd = [b for b in cls if out[b].verdict != out[cls[0]].verdict]
        if odd:
            raise InconsistentVerdictError(
                f"verdicts differ inside one Legendre class: b={cls[0]},{odd[0]}")
    return out


# -- the Legendre-class sieve ------------------------------------------------------------

def sieve(F, p, s):
    """Project F onto the part with legendre(det T, p) = s, s in {0, +1, -1}.

    F0 = F - D^{p-1}F, F(+/-1) = (D^{p-1}F +/- D^{(p-1)/2}F)/2; the three
    parts sum back to F coefficientwise over any ring.
    """
    if s not in (0, 1, -1):
        raise InvalidArgumentError(f"sieve class must be 0, +1 or -1, got {s}")
    ring = F.ring
    fp = isinstance(ring, FpRing)
    if fp and ring.p != p:
        raise InvalidArgumentError(f"form lives over {ring.tag}, sieve asked for p={p}")

    def mult(det):
        dfull = ring.pow(ring.from_int(det), p - 1)
        if s == 0:
            return ring.sub(ring.one, dfull)
        dhalf = ring.pow(ring.from_int(det), (p - 1) // 2)
        part = ring.add(dfull, dhalf) if s == 1 else ring.sub(dfull, dhalf)
        return ring.divexact(part, ring.from_int(2))
    w = F.weight
    if w is not None and fp:
        w = criterion_weight(w, p, 0)
    return F._derived(F.coeffs * _per_det(box_index(F.prec).det, mult, ring.dtype), w)


# -- monomial evaluation and mod-p decompositions ---------------------------------------

class GeneratorContext:
    """Shared generator tables at one (ring, box) plus memoized monomials.

    The optional cache object (see siegelcong.cache) persists generator
    expansions across runs; products are only memoized in-process.  The
    coefficient vectors of generators and monomials are read-only.
    """

    def __init__(self, ring, prec, cache=None):
        self.ring = ring
        self.prec = prec
        self.cache = cache
        self._gens = None
        self._mono = {}

    def generators(self):
        if self._gens is None:
            loaded = {}
            if self.cache is not None:
                for name in _GENERATOR_WEIGHTS:
                    form = self.cache.load(name, self.ring, self.prec)
                    if form is not None:
                        loaded[name] = form
            if len(loaded) < len(_GENERATOR_WEIGHTS):
                computed = igusa_generators(self.prec, self.ring)
                if self.cache is not None:
                    for name, form in computed.items():
                        if name not in loaded:
                            self.cache.store(name, form)
                loaded = computed
            for form in loaded.values():
                form.coeffs.flags.writeable = False
            self._gens = loaded
        return self._gens

    def generator(self, name):
        try:
            return self.generators()[name]
        except KeyError:
            raise InvalidArgumentError(f"unknown generator {name!r}") from None

    def evaluate(self, poly, weight):
        """sum of coef * monomial(*e) over poly {e: coef}, a form of the given
        weight (every monomial must have it)."""
        out = SiegelFormSeries.zero(self.ring, weight, self.prec)
        for e, coef in poly.items():
            if 4 * e[0] + 6 * e[1] + 10 * e[2] + 12 * e[3] != weight:
                raise InvalidArgumentError(f"monomial {e} does not have weight {weight}")
            out = out + self.monomial(*e).scale(coef)
        return out

    def monomial(self, a, b, c, d):
        """E4^a E6^b chi10^c chi12^d, memoized by exponent."""
        key = (a, b, c, d)
        hit = self._mono.get(key)
        if hit is not None:
            return hit
        if key == (0, 0, 0, 0):
            out = SiegelFormSeries.constant(self.ring, 0, self.prec, 1)
        else:
            for i, name in enumerate(_GENERATOR_WEIGHTS):
                if key[i] > 0:
                    rest = key[:i] + (key[i] - 1,) + key[i + 1:]
                    out = self.generator(name)
                    if any(rest):
                        out = siegel_mul(self.monomial(*rest), out)
                    break
        out.coeffs.flags.writeable = False
        self._mono[key] = out
        return out


def weight_monomials(k):
    """Exponent tuples (a, b, c, d) with 4a + 6b + 10c + 12d = k."""
    out = []
    for d in range(k // 12 + 1):
        for c in range((k - 12 * d) // 10 + 1):
            rem = k - 12 * d - 10 * c
            for b in range(rem // 6 + 1):
                if (rem - 6 * b) % 4 == 0:
                    out.append(((rem - 6 * b) // 4, b, c, d))
    return out


@dataclass
class Decomposition:
    solution: dict      # exponent tuple -> coefficient in [0, p)
    kernel_dim: int
    weight: int
    bound: int


def _class_matrix(forms, wmax, mask=None):
    """Column j holds class_values(forms[j], wmax), restricted to mask."""
    cols = [class_values(f, wmax) for f in forms]
    return np.stack(cols if mask is None else [c[mask] for c in cols], axis=1)


def decompose_mod_p(F, k, ctx):
    """One expression of F mod p in the weight-k generator monomials.

    Matches the coefficients on every reduced class within the weight-k
    Sturm bound.  For p >= 5 the weight-k monomials are linearly independent
    mod p (Nagaoka, Math. Z. 2000: the kernel of reduction mod p is
    generated by E_{p-1} - 1, so it holds no nonzero form of a single
    weight), so the solution is unique and kernel_dim is 0; it is reported
    as a check.  Raises NotInRingError when no combination matches.
    """
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("decompose_mod_p needs a prime-field form")
    p = F.ring.p
    monos = weight_monomials(k)
    if not monos:
        raise NotInRingError(f"no generator monomials in weight {k}")
    bound = _sturm_bound(k, min(F.prec, ctx.prec))
    mat = FpMatrix(p, _class_matrix([ctx.monomial(*e) for e in monos], bound))
    sol = solve(mat, class_values(F, bound))
    if sol is None:
        raise NotInRingError(f"form is not a weight-{k} monomial combination mod {p}")
    particular, kernel = sol
    solution = {e: x for e, x in zip(monos, particular) if x % p}
    return Decomposition(solution=solution, kernel_dim=len(kernel), weight=k, bound=bound)


def monomial_text(e, coef=None):
    parts = []
    if coef is not None and coef != 1:
        parts.append(str(coef))
    for name, expo in zip(("E4", "E6", "chi10", "chi12"), e):
        if expo == 1:
            parts.append(name)
        elif expo > 1:
            parts.append(f"{name}^{expo}")
    return "*".join(parts) if parts else "1"


def search_congruences(max_weight, max_prime, cache=None, progress=None):
    """All (cusp form, prime, Legendre class) congruences at b != 0, p >= 5.

    Works weight by weight over the cusp monomials (those involving chi10 or
    chi12).  The set of forms with a congruence on a fixed Legendre class is
    the kernel of a coefficient matrix over the reduced classes within the
    Sturm bound of the criterion, so each cell reports a kernel basis, up to
    scalars.  Primes p > k with p != 2k - 1 are excluded outright by the
    non-existence criterion (any nonzero reduction has a nonzero coefficient
    with n, m below p inside the weight-k identification window).  A cheap
    small-window kernel (a necessary condition) prunes the rest before the
    full bound is materialized.
    """
    from .ring import is_prime
    results = []
    # small-window contexts per (p, box), shared across weights; full-bound
    # ones are not shared, as they would keep large-box monomials alive
    contexts = {}
    primes = [p for p in range(5, max_prime + 1) if is_prime(p)]
    for k in range(10, max_weight + 1, 2):
        monos = [e for e in weight_monomials(k) if e[2] + e[3] >= 1]
        if not monos:
            continue
        for p in primes:
            if progress:
                progress(f"weight {k}, p = {p}")
            if p > k and p != 2 * k - 1:
                results.append({"weight": k, "p": p,
                                "status": "excluded-by-nonexistence"})
                continue
            results.extend(_search_cell(k, p, monos, cache, contexts))
    return results


def _search_cell(k, p, monos, cache, contexts):
    full_bound = criterion_weight(k, p, 1) // 3
    small_bound = min(full_bound, max(k // 3, 6) + 3)
    ring = ring_from_tag(f"fp:{p}")
    box = max(small_bound // 2, 2)
    ctx = contexts.get((p, box))
    if ctx is None:
        ctx = contexts[(p, box)] = GeneratorContext(ring, box, cache)
    cols = [ctx.monomial(*e) for e in monos]
    out = []
    full_ctx = None
    for eps in (1, -1):
        cell = {"weight": k, "p": p, "legendre_class": eps,
                "holds_b": sorted(b for b in range(1, p) if legendre(b, p) == eps)}
        mask = _legendre_mask(reduced_classes(small_bound)[3], p, eps)
        if not kernel_basis(FpMatrix(p, _class_matrix(cols, small_bound, mask))):
            cell.update(status="none")
            out.append(cell)
            continue
        if full_ctx is None:
            full_ctx = GeneratorContext(ring, max(full_bound // 2, 2), cache)
            full_cols = [full_ctx.monomial(*e) for e in monos]
            # a direction vanishing inside the weight-k window is zero mod p
            ident = _class_matrix(full_cols, k // 3)
        mask = _legendre_mask(reduced_classes(full_bound)[3], p, eps)
        kern = kernel_basis(FpMatrix(p, _class_matrix(full_cols, full_bound, mask)))
        forms = []
        degenerate = 0
        for vec in kern:
            if not np.any(ident.dot(vec) % p):
                degenerate += 1
                continue
            terms = [monomial_text(e, coef=x) for x, e in zip(vec, monos) if x % p]
            forms.append(" + ".join(terms))
        if forms:
            cell.update(status="congruence", dim=len(forms), forms=forms,
                        degenerate_directions=degenerate, sturm_bound=full_bound)
        else:
            cell.update(status="none", degenerate_directions=degenerate)
        out.append(cell)
    return out


def verify_combination(F, combo, k, ctx):
    """Check a claimed monomial expression of F mod p on the weight-k bound.

    combo maps exponent tuples (a, b, c, d) to integer coefficients.
    """
    return sturm_zero(ctx.evaluate(combo, k) - F, k).is_zero
