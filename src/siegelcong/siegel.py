"""Degree-2 Siegel modular forms as truncated triple series.

A form of precision N stores A(n, r, m) for all 0 <= n, m <= N and
|r| <= isqrt(4nm) (the semipositive support).  The canonical stored key is
raw (unreduced); binary-form reduction happens at query time for the
Sturm-type verifier and certificates.

Key facts used throughout: the generalized theta operator acts diagonally
(multiplication by det T), so its congruence criterion reduces to testing
coefficients on reduced matrices up to the dyadic-trace Sturm bound without
ever materializing the auxiliary form G; products of truncated expansions
are exact on the stored box because the support is semipositive.

Products (siegel_mul) take one of two paths, chosen from the ring and the
box alone: over F_p with p < 2^21 and ((p-1)/2)^2 (N+1)^2 (2N+1) <= 2^40 an
exact float64 FFT convolution of whole n-slices; over Z, Q, larger primes
and boxes past that bound the direct row-by-row loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import _rows as rows
from .errors import (InconsistentVerdictError, InvalidArgumentError,
                     NotInRingError, PrecisionError, RingMismatchError)
from .jacobi import JacobiFormSeries, jacobi_cusp, jacobi_eisenstein, rbound
from .linalg import FpMatrix, solve
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

    @property
    def w(self):
        """Dyadic trace 2n + 2m - |r|; meaningful for reduced matrices."""
        return dyadic_trace(self)

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
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            raise InvalidArgumentError("reduction failed to terminate")
        if n > m:
            n, m = m, n
        if n == 0:
            r = 0
            break
        if not (-n < r <= n):
            t = (n - r) // (2 * n)
            m = m + r * t + n * t * t
            r = r + 2 * t * n
            continue
        if m < n:
            continue
        break
    return MatrixIndexT(n, abs(r), m)


def dyadic_trace(T):
    """w(T) = 2n + 2m - |r| for a reduced matrix (2m for rank <= 1, 0 for zero)."""
    if not T.is_reduced:
        raise InvalidArgumentError(f"dyadic_trace needs a reduced matrix, got {T.key()}")
    return 2 * T.n + 2 * T.m - abs(T.r)


def enumerate_reduced(wmax):
    """All reduced classes with dyadic trace <= wmax, rank <= 1 included.

    Sorted by (w, n, r, m); no duplicates.
    """
    if wmax < 0:
        raise InvalidArgumentError("wmax must be >= 0")
    out = [MatrixIndexT(0, 0, m) for m in range(wmax // 2 + 1)]
    for n in range(1, wmax // 3 + 1):
        for r in range(n + 1):
            top = (wmax + r - 2 * n) // 2
            for m in range(n, top + 1):
                out.append(MatrixIndexT(n, r, m))
    out.sort(key=lambda t: (dyadic_trace(t), t.n, t.r, t.m))
    return out


class SiegelFormSeries:
    """Truncated expansion sum A(n, r, m) q^n zeta^r q'^m of even weight k."""

    __slots__ = ("ring", "weight", "prec", "tables")

    def __init__(self, ring, weight, prec, tables):
        self.ring = ring
        self.weight = weight
        self.prec = prec
        self.tables = tables

    @classmethod
    def zero(cls, ring, weight, prec):
        tab = [[rows.zeros(ring, 2 * isqrt(4 * n * m) + 1) for m in range(prec + 1)]
               for n in range(prec + 1)]
        return cls(ring, weight, prec, tab)

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
        b = self.rb(n, m)
        if abs(r) > b:
            return self.ring.zero
        v = self.tables[n][m][b + r]
        return int(v) if isinstance(self.ring, FpRing) else v

    def a_T(self, T):
        return self.a(T.n, T.r, T.m)

    def __repr__(self):
        return f"SiegelFormSeries({self.ring.tag}, k={self.weight}, N={self.prec})"

    def __eq__(self, other):
        return (isinstance(other, SiegelFormSeries) and self.ring == other.ring
                and self.prec == other.prec
                and all(rows.eq(self.ring, self.tables[n][m], other.tables[n][m])
                        for n in range(self.prec + 1) for m in range(self.prec + 1)))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        return min(self.prec, other.prec)

    def _map2(self, other, fn, weight):
        prec = self._check(other)
        tab = [[fn(self.tables[n][m], other.tables[n][m]) for m in range(prec + 1)]
               for n in range(prec + 1)]
        return SiegelFormSeries(self.ring, weight, prec, tab)

    def __add__(self, other):
        w = self.weight if self.weight == other.weight else None
        return self._map2(other, lambda a, b: rows.add(self.ring, a, b), w)

    def __sub__(self, other):
        w = self.weight if self.weight == other.weight else None
        return self._map2(other, lambda a, b: rows.sub(self.ring, a, b), w)

    def scale(self, c):
        c = self.ring.from_int(c) if isinstance(c, int) else c
        tab = [[rows.scale(self.ring, row, c) for row in line] for line in self.tables]
        return SiegelFormSeries(self.ring, self.weight, self.prec, tab)

    def __neg__(self):
        tab = [[rows.neg(self.ring, row) for row in line] for line in self.tables]
        return SiegelFormSeries(self.ring, self.weight, self.prec, tab)

    def __mul__(self, other):
        if isinstance(other, SiegelFormSeries):
            return siegel_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def set_constant(self, v):
        """Replace A(0, 0, 0); used to pin the Eisenstein normalization."""
        self.tables[0][0][0] = self.ring.from_int(v) if isinstance(v, int) else v

    def is_zero_window(self):
        return all(rows.is_zero(self.ring, self.tables[n][m])
                   for n in range(self.prec + 1) for m in range(self.prec + 1))

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        tab = [[rows.reduce_row(self.ring, row, fp) for row in line] for line in self.tables]
        return SiegelFormSeries(fp, self.weight, self.prec, tab)

    def support_dets(self):
        """Sorted determinants carried by nonzero stored coefficients."""
        dets = set()
        for n in range(self.prec + 1):
            for m in range(self.prec + 1):
                b = self.rb(n, m)
                for r in range(-b, b + 1):
                    v = self.tables[n][m][b + r]
                    if not self.ring.is_zero(int(v) if isinstance(self.ring, FpRing) else v):
                        dets.add(4 * n * m - r * r)
        return sorted(dets)

    def coeff_rows(self, n):
        """[n, r, m, token] for the nonzero A(n, r, m) with m >= n, r >= 0."""
        out = []
        ring = self.ring
        for m in range(n, self.prec + 1):
            b = self.rb(n, m)
            if isinstance(ring, FpRing) and ring.fits64:
                half = self.tables[n][m][b:]
                nz = np.flatnonzero(half % ring.p)
                out.extend([n, r, m, v] for r, v in zip(nz.tolist(), half[nz].tolist()))
                continue
            for r in range(b + 1):
                v = self.a(n, r, m)
                if not ring.is_zero(ring.from_int(v) if isinstance(ring, FpRing) else v):
                    out.append([n, r, m, ring.to_token(v)])
        return out

    def to_json(self):
        coeffs = [c for n in range(self.prec + 1) for c in self.coeff_rows(n)]
        return {"kind": "siegel", "ring": self.ring.tag, "weight": self.weight,
                "prec": self.prec, "coeffs": coeffs}

    # -- structural checks (test helpers) ---------------------------------------
    def check_symmetries(self):
        """A(n,r,m) == A(m,r,n) == A(n,-r,m) on the full window."""
        for n in range(self.prec + 1):
            for m in range(self.prec + 1):
                b = self.rb(n, m)
                for r in range(b + 1):
                    if not self.ring.is_zero(self.ring.sub(self.a(n, r, m), self.a(m, r, n))):
                        return False
                    if not self.ring.is_zero(self.ring.sub(self.a(n, r, m), self.a(n, -r, m))):
                        return False
        return True

    def check_unimodular_moves(self):
        """Spot the translation move A(n,r,m) == A(n, r+2n, m+r+n) inside the window."""
        for n in range(self.prec + 1):
            for m in range(self.prec + 1):
                b = self.rb(n, m)
                for r in range(-b, b + 1):
                    n2, r2, m2 = n, r + 2 * n, m + r + n
                    if m2 < 0 or m2 > self.prec or abs(r2) > self.rb(n2, m2):
                        continue
                    if not self.ring.is_zero(self.ring.sub(self.a(n, r, m), self.a(n2, r2, m2))):
                        return False
        return True


# -- lifts and generators ------------------------------------------------------------

def _divisor_lists(n):
    divs = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for k in range(d, n + 1, d):
            divs[k].append(d)
    return divs


def maass_lift(phi, prec):
    """Lift an index-1 Jacobi form: A(n,r,m) = sum_{d | (n,r,m)} d^{k-1} c(nm/d^2, r/d).

    A(0,0,0) is set to zero; pinning the constant of a non-cuspidal lift is
    the caller's concern (see igusa_generators).  Requires q-precision at
    least prec^2 on the input.
    """
    if phi.index != 1:
        raise InvalidArgumentError("maass_lift expects an index-1 Jacobi form")
    if phi.prec < prec * prec:
        raise PrecisionError(f"lift to box {prec} needs q-precision {prec * prec}",
                             required=prec * prec, available=phi.prec)
    ring = phi.ring
    k = phi.weight
    fp = isinstance(ring, FpRing)
    if fp:
        dpow = [0] + [pow(d, k - 1, ring.p) for d in range(1, prec + 1)]
    else:
        dpow = [ring.zero] + [ring.from_int(d ** (k - 1)) for d in range(1, prec + 1)]
    divs = _divisor_lists(prec)
    out = SiegelFormSeries.zero(ring, k, prec)
    jrows = phi.rows
    jrb = [rbound(1, n) for n in range(phi.prec + 1)]
    for n in range(prec + 1):
        for m in range(n, prec + 1):
            b = isqrt(4 * n * m)
            row = out.tables[n][m]
            for r in range(b + 1):
                g = gcd(gcd(n, r), m)
                if g == 0:
                    continue
                if fp:
                    val = 0
                    for d in divs[g]:
                        nn = n * m // (d * d)
                        rr = r // d
                        val += dpow[d] * int(jrows[nn][jrb[nn] + rr])
                    val %= ring.p
                else:
                    val = ring.zero
                    for d in divs[g]:
                        nn = n * m // (d * d)
                        rr = r // d
                        val = ring.add(val, ring.mul(dpow[d], jrows[nn][jrb[nn] + rr]))
                row[b + r] = val
                row[b - r] = val
            if m != n:
                out.tables[m][n] = rows.copy(ring, row)
    return out


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
            jac = jacobi_eisenstein(k, qprec, ring)
            lift = maass_lift(jac, prec)
            lift = lift.scale(ring.from_rational(Fraction(-2 * k) / bernoulli(k)))
            lift.set_constant(1)
        else:
            jac = jacobi_cusp(k, qprec, ring)
            lift = maass_lift(jac, prec)
        lift.weight = k
        out[name] = lift
    return out


def fourier_jacobi(F, m):
    """The index-m slice: a Jacobi form with c(n, r) = A(n, r, m)."""
    if m < 0 or m > F.prec:
        raise PrecisionError(f"slice index {m} outside box {F.prec}",
                             required=m, available=F.prec)
    ring = F.ring
    rl = []
    for n in range(F.prec + 1):
        b = rbound(m, n)
        row = rows.zeros(ring, 2 * b + 1)
        bs = SiegelFormSeries.rb(n, m)
        rows.add_into(ring, row, b - bs, F.tables[n][m])
        rl.append(rows.normalize(ring, row))
    return JacobiFormSeries(ring, F.weight, m, rl, weak=False)


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
    most h^2 T in absolute value.  T also bounds the stored coefficients of
    one factor, so ||F||_2 ||G||_2 <= h^2 T.  The rounding error of an FFT
    convolution is at most about c log2(L) eps ||F||_2 ||G||_2, with
    eps = 2^-53, L the transform size (about (2N+1)(4N+1), see _mul_fft)
    and c about 13 (Percival, Math. Comp. 72, 2003).  Since p >= 5 gives
    h >= 2, the bound itself keeps N below 5200 and log2 L below 29, so
    the error is under 13 * 29 / 2^13 < 0.05, a tenth of the 1/2 that
    rounding to the nearest integer allows.  Measured on factors with every entry (p-1)/2 at the
    bound, boxes 4 to 40, the largest error was 1.2e-4.  Every other
    product (Z, Q, larger p, boxes past the bound) runs the direct loop,
    which the FFT path matches bit for bit.
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
    """Product tables over F_p by FFT; exact when _fft_exact holds.

    Each n-slice is packed into an (N+1) x (4N+1) array with r at offset 2N
    and transformed at the least 5-smooth sizes (fast for numpy.fft) of at
    least 2N+1 in m and 4N+1 in r: m1 + m2 <= 2N never wraps, and
    |r1 + r2| <= 2 sqrt(n1 m1) + 2 sqrt(n2 m2) <= 2 sqrt(nm) <= 2N
    (Cauchy-Schwarz), so the cyclic wrap in r never lands on a stored
    coefficient.  The n-convolution is a sum of spectrum products.  Two
    slices n1, n2 >= N//2 + 1 never meet in the box (n1 + n2 > N), so the
    sum runs in three passes (low x low, low x high, high x low) that each
    hold the spectra of half the slices of each factor; each pass sums a
    subset of the terms, so the exactness bound covers it.
    """
    from numpy import fft

    p, big = F.ring.p, 2 * prec
    shape = (_fft_len(big + 1), _fft_len(2 * big + 1))
    widths = [[isqrt(4 * n * m) for m in range(prec + 1)] for n in range(prec + 1)]
    tab = SiegelFormSeries.zero(F.ring, None, prec).tables

    def spectra(form, ns):
        out = np.empty((len(ns), shape[0], shape[1] // 2 + 1), dtype=complex)
        packed = np.zeros((prec + 1, 2 * big + 1))
        for i, n in enumerate(ns):
            packed[:] = 0
            for m, b in enumerate(widths[n]):
                packed[m, big - b:big + b + 1] = form.tables[n][m]
            packed -= p * np.rint(packed / p)       # residues into [-h, h]
            out[i] = fft.rfft2(packed, s=shape)
        return out

    def add(fs, f0, gs, g0):
        """Add the products of F slices f0 + i and G slices g0 + j into tab."""
        for n in range(f0 + g0, prec + 1):
            d = n - f0 - g0
            lo, hi = max(0, d - len(gs) + 1), min(len(fs), d + 1)
            if lo >= hi:
                continue
            acc = np.einsum("ijk,ijk->jk", fs[lo:hi], gs[d - hi + 1:d - lo + 1][::-1])
            vals = fft.irfft2(acc, s=shape)[:prec + 1]
            # the product's r sits at (4N + r) mod shape[1]; move it to 2N + r
            ints = np.roll(np.rint(vals).astype(np.int64), -big, axis=1)
            for m, b in enumerate(widths[n]):
                row = tab[n][m]
                row += ints[m, big - b:big + b + 1]
                row %= p

    half = prec // 2 + 1
    low, high = range(half), range(half, prec + 1)
    fl = spectra(F, low)
    add(fl, 0, fl if G is F else spectra(G, low), 0)
    add(fl, 0, spectra(G, high), half)
    del fl
    add(spectra(F, high), half, spectra(G, low), 0)
    return tab


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


def _mul_loop(F, G, prec):
    """Product tables by direct row convolution, over any ring."""
    ring = F.ring
    fnz = [[not rows.is_zero(ring, F.tables[n][m]) for m in range(prec + 1)]
           for n in range(prec + 1)]
    gnz = [[not rows.is_zero(ring, G.tables[n][m]) for m in range(prec + 1)]
           for n in range(prec + 1)]
    tab = SiegelFormSeries.zero(ring, None, prec).tables
    for n in range(prec + 1):
        for m in range(prec + 1):
            bo = isqrt(4 * n * m)
            acc = tab[n][m]
            for n1 in range(n + 1):
                frow_line = F.tables[n1]
                fnz_line = fnz[n1]
                for m1 in range(m + 1):
                    if not (fnz_line[m1] and gnz[n - n1][m - m1]):
                        continue
                    conv = rows.convolve(ring, frow_line[m1], G.tables[n - n1][m - m1])
                    off = bo - (isqrt(4 * n1 * m1) + isqrt(4 * (n - n1) * (m - m1)))
                    rows.add_into(ring, acc, off, conv)
            tab[n][m] = rows.normalize(ring, acc)
    return tab


def theta_operator(F, j=1):
    """The generalized theta operator iterated j times: A(T) -> det(T)^j A(T).

    Over a prime field the weight annotation grows by j(p + 1); over exact
    rings it is left unchanged.
    """
    if j < 0:
        raise InvalidArgumentError("iterate count must be >= 0")
    ring = F.ring
    fp = isinstance(ring, FpRing) and ring.fits64
    tab = []
    for n in range(F.prec + 1):
        line = []
        for m in range(F.prec + 1):
            b = SiegelFormSeries.rb(n, m)
            if fp:
                mult = np.array([pow((4 * n * m - r * r) % ring.p, j, ring.p)
                                 for r in range(-b, b + 1)], dtype=np.int64)
                line.append(F.tables[n][m] * mult % ring.p)
            else:
                line.append([ring.mul(v, ring.pow(ring.from_int(4 * n * m - r * r), j))
                             for r, v in zip(range(-b, b + 1), F.tables[n][m])])
        tab.append(line)
    w = F.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + j * (ring.p + 1)
    return SiegelFormSeries(ring, w, F.prec, tab)


# -- the Sturm-type verifier and congruence certificates --------------------------------

@dataclass
class SturmReport:
    is_zero: bool
    bound: int
    classes_checked: int
    witness: tuple | None


def sturm_zero(F, k_eff):
    """Finite zero test mod p at effective weight k_eff.

    True iff A(T) vanishes for every reduced T with dyadic trace at most
    k_eff / 3.  Errors out (never silently narrows the bound) when the box
    does not cover the enumeration.
    """
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("sturm_zero needs a prime-field form")
    bound = k_eff // 3
    need = bound // 2
    if F.prec < need:
        raise PrecisionError(f"Sturm bound {bound} needs box precision {need}",
                             required=need, available=F.prec)
    classes = enumerate_reduced(bound)
    for t in classes:
        if F.a_T(t) % F.ring.p:
            return SturmReport(False, bound, len(classes), t.key())
    return SturmReport(True, bound, len(classes), None)


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
    if b % p:
        return (k + (p + 1) * (p + 1) // 2) // 3 // 2
    return (k + p * p - 1) // 3 // 2


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
    k = F.weight
    b %= p
    if b:
        g_weight = k + (p + 1) * (p + 1) // 2
        target = legendre(b, p)
        method = "theta-criterion"

        def matches(det):
            return legendre(det, p) == target
    else:
        g_weight = k + p * p - 1
        method = "sieve-identity"

        def matches(det):
            return det % p == 0
    bound = g_weight // 3
    need = bound // 2
    if F.prec < need:
        raise PrecisionError(f"certificate at (p={p}, b={b}) needs box precision {need}",
                             required=need, available=F.prec)
    checked = 0
    witness = None
    for t in enumerate_reduced(bound):
        if not matches(t.det):
            continue
        checked += 1
        if witness is None and F.a_T(t) % p:
            witness = t.key()
    return CongruenceCertificate(form=label, p=p, b=b,
                                 verdict="fails" if witness else "holds",
                                 G_weight=g_weight, sturm_bound=bound,
                                 classes_checked=checked, witness=witness,
                                 method=method)


def congruence_scan(F, p, label="", include_zero=True):
    """Certificates for every residue b; verdicts are constant on each
    nonzero Legendre class (InconsistentVerdictError otherwise)."""
    out = {}
    for b in range(0 if include_zero else 1, p):
        out[b] = siegel_congruence(F, p, b, label=label)
    for b1 in range(1, p):
        for b2 in range(b1 + 1, p):
            if legendre(b1, p) == legendre(b2, p):
                if out.get(b1) and out.get(b2) and out[b1].verdict != out[b2].verdict:
                    raise InconsistentVerdictError(
                        f"verdicts differ inside one Legendre class: b={b1},{b2}")
    return out


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
    half = (p - 1) // 2
    tab = []
    for n in range(F.prec + 1):
        line = []
        for m in range(F.prec + 1):
            b = SiegelFormSeries.rb(n, m)
            vals = rows.aslist(ring, F.tables[n][m])
            outrow = rows.zeros(ring, 2 * b + 1)
            for idx, v in enumerate(vals):
                r = idx - b
                det = 4 * n * m - r * r
                if fp:
                    wfull = pow(det % p, p - 1, p)
                    whalf = pow(det % p, half, p)
                    if s == 0:
                        mult = (1 - wfull) % p
                    elif s == 1:
                        mult = (wfull + whalf) * pow(2, p - 2, p) % p
                    else:
                        mult = (wfull - whalf) * pow(2, p - 2, p) % p
                    outrow[idx] = v * mult % p
                else:
                    dfull = ring.pow(ring.from_int(det), p - 1)
                    dhalf = ring.pow(ring.from_int(det), half)
                    if s == 0:
                        mult = ring.sub(ring.one, dfull)
                    elif s == 1:
                        mult = ring.divexact(ring.add(dfull, dhalf), ring.from_int(2))
                    else:
                        mult = ring.divexact(ring.sub(dfull, dhalf), ring.from_int(2))
                    outrow[idx] = ring.mul(v, mult)
            line.append(outrow)
        tab.append(line)
    w = F.weight
    if w is not None and fp:
        w = w + p * p - 1
    return SiegelFormSeries(ring, w, F.prec, tab)


# -- monomial evaluation and mod-p decompositions ---------------------------------------

class GeneratorContext:
    """Shared generator tables at one (ring, box) plus memoized monomials.

    The optional cache object (see siegelcong.cache) persists generator
    expansions across runs; products are only memoized in-process.
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
            self._gens = loaded
        return self._gens

    def generator(self, name):
        try:
            return self.generators()[name]
        except KeyError:
            raise InvalidArgumentError(f"unknown generator {name!r}") from None

    def constant(self, v):
        form = SiegelFormSeries.zero(self.ring, 0, self.prec)
        form.set_constant(v)
        return form

    def monomial(self, a, b, c, d):
        """E4^a E6^b chi10^c chi12^d, memoized by exponent."""
        key = (a, b, c, d)
        hit = self._mono.get(key)
        if hit is not None:
            return hit
        if key == (0, 0, 0, 0):
            out = self.constant(1)
        else:
            for name, expo, drop in (("E4", a, (1, 0, 0, 0)), ("E6", b, (0, 1, 0, 0)),
                                     ("chi10", c, (0, 0, 1, 0)), ("chi12", d, (0, 0, 0, 1))):
                if expo > 0:
                    prev = self.monomial(a - drop[0], b - drop[1], c - drop[2], d - drop[3])
                    out = siegel_mul(prev, self.generator(name))
                    break
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


def decompose_mod_p(F, k, ctx):
    """One expression of F mod p in the weight-k generator monomials.

    Matches the coefficients on every reduced class within the weight-k
    Sturm bound; mod-p relations between the generators make the solution
    non-unique, so the kernel dimension is reported alongside a particular
    solution.  Raises NotInRingError when no combination matches.
    """
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("decompose_mod_p needs a prime-field form")
    p = F.ring.p
    monos = weight_monomials(k)
    if not monos:
        raise NotInRingError(f"no generator monomials in weight {k}")
    bound = k // 3
    need = bound // 2
    if F.prec < need or ctx.prec < need:
        raise PrecisionError(f"decomposition at weight {k} needs box {need}",
                             required=need, available=min(F.prec, ctx.prec))
    classes = enumerate_reduced(bound)
    cols = [ctx.monomial(*e) for e in monos]
    mat = FpMatrix(p, [[col.a_T(t) for col in cols] for t in classes])
    vec = [F.a_T(t) for t in classes]
    sol = solve(mat, vec)
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
    full_bound = (k + (p + 1) * (p + 1) // 2) // 3
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
        targets = [t for t in enumerate_reduced(small_bound)
                   if legendre(t.det, p) == eps]
        from .linalg import kernel_basis
        mat = FpMatrix(p, [[c.a_T(t) for c in cols] for t in targets])
        if not kernel_basis(mat):
            cell.update(status="none")
            out.append(cell)
            continue
        if full_ctx is None:
            full_ctx = GeneratorContext(ring, max(full_bound // 2, 2), cache)
            full_cols = [full_ctx.monomial(*e) for e in monos]
        targets = [t for t in enumerate_reduced(full_bound)
                   if legendre(t.det, p) == eps]
        mat = FpMatrix(p, [[c.a_T(t) for c in full_cols] for t in targets])
        kern = kernel_basis(mat)
        forms = []
        degenerate = 0
        ident = enumerate_reduced(k // 3)
        for vec in kern:
            # a direction vanishing inside the weight-k window is zero mod p
            if all(sum(x * c.a_T(t) for x, c in zip(vec, full_cols)) % p == 0
                   for t in ident):
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
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("verify_combination needs a prime-field form")
    p = F.ring.p
    bound = k // 3
    need = bound // 2
    if F.prec < need or ctx.prec < need:
        raise PrecisionError(f"verification at weight {k} needs box {need}",
                             required=need, available=min(F.prec, ctx.prec))
    for e in combo:
        if 4 * e[0] + 6 * e[1] + 10 * e[2] + 12 * e[3] != k:
            raise InvalidArgumentError(f"monomial {e} does not have weight {k}")
    for t in enumerate_reduced(bound):
        acc = 0
        for e, coef in combo.items():
            acc += coef * ctx.monomial(*e).a_T(t)
        if (acc - F.a_T(t)) % p:
            return False
    return True
