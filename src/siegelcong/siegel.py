"""Degree-2 Siegel modular forms as truncated triple series.

A form of box N has coefficients A(n, r, m) on the semipositive support
0 <= n, m <= N, |r| <= isqrt(4nm).  A(n, r, m) = A(m, r, n) = A(n, -r, m)
for every form here, so only the half support n <= m, 0 <= r <= isqrt(4nm)
is stored: one flat vector `coeffs`, ordered by n, then m, then r, which is
the vector a cache file holds.  Its dtype is `ring.dtype`
(siegelcong.ring), and every operation is a numpy expression on it, reduced
mod p only over F_p; the index arrays of each box (BoxIndex) are built once
and memoized.

Key facts used throughout: the generalized theta operator acts diagonally
(multiplication by det T), so its congruence criterion reduces to testing
coefficients on reduced matrices up to the dyadic-trace Sturm bound without
ever materializing the auxiliary form G; products of truncated expansions
are exact on the stored box because the support is semipositive.  Every such
test reads its coefficients with one gather at the reduced classes
(class_values).  A reduced T within trace B has n <= B/3, so a form may
hold only its slices n <= K, a prefix of its vector (SiegelFormSeries.nmax).

Products (siegel_mul) have one kernel, an exact float64 FFT convolution of
whole n-slices modulo a prime (_mul_fft), which ring.exact_product runs
modulo p itself over F_p when p is small enough for the box, else on
integer lifts modulo a few primes joined by CRT.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from . import linalg        # lazy module: read its names at call time
from .errors import (InconsistentVerdictError, InvalidArgumentError,
                     PrecisionError, RingMismatchError)
from .expr import GENERATOR_WEIGHTS, Record
from .qexp import (_read_only, bernoulli, criterion_weight, discriminant_series, index1_columns,
                   require_memory)
from .ring import (FpRing, RatRing, centred, exact_product, fft_len, fft_qmax, is_prime, legendre,
                   ring_from_tag, rint_residues)


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
    return tuple(_read_only(a[order]) for a in (n, r, m, 4 * n * m - r * r))


class BoxIndex:
    """Read-only index arrays of the half support of one box, in vector order.

    n, r, m, det hold one entry per stored key.
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
        for a in (self.widths, self.offset, self.nstart, self.n, self.m, self.r, self.det):
            _read_only(a)


@lru_cache(maxsize=4)
def box_index(prec):
    """The BoxIndex of box prec, memoized for the last few boxes; refused
    before any allocation when it could not fit in physical memory."""
    require_box_memory(prec)
    return BoxIndex(prec)


def box_bytes(prec, ring=None):
    """Closed-form estimates (index, columns) of the bytes box N = prec needs.

    The box has sum_{n <= m <= N} (isqrt(4nm) + 1) <= (N+1)^2 + 4(N+1)^3/9
    keys (sum_{n <= N} sqrt(n) <= (2/3)(N+1)^(3/2)), and BoxIndex holds four
    int64 arrays of that length.  With a ring, columns counts about the 16
    series to q^(N^2) that one generator build holds at once and four
    generator vectors, at 8 bytes an entry, 64 for dtype object (as in
    qexp.array_bytes).
    """
    n = prec + 1
    keys = n * n + 4 * n ** 3 // 9
    item = 0 if ring is None else 64 if ring.dtype == object else 8
    return 32 * keys, (16 * (prec * prec + 1) + 4 * keys) * item


def require_box_memory(prec, ring=None):
    """Refuse (InvalidArgumentError, naming the estimate) a box whose
    box_bytes exceed the host's physical memory."""
    index, cols = box_bytes(prec, ring)
    require_memory(f"box {prec}", index + cols,
                   f" ({index / 2 ** 30:.3g} GiB of index, {cols / 2 ** 30:.3g} GiB of "
                   f"q^{prec * prec} columns and generators)")


def _per_det(det, fn, dtype):
    """fn(d) at each entry d of det, evaluated once per distinct value."""
    values, inverse = np.unique(det, return_inverse=True)
    return np.array([fn(d) for d in values.tolist()], dtype=dtype)[inverse]


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

    @property
    def nmax(self):
        """K: the vector holds the keys with n <= K, its first nstart[K + 1]."""
        return int(np.searchsorted(box_index(self.prec).nstart, len(self.coeffs))) - 1

    def need(self, n):
        """PrecisionError unless the keys with n' <= n are stored."""
        if n > self.nmax:
            raise PrecisionError(f"slice {n} past the stored prefix n <= {self.nmax}", n, self.nmax)

    def a(self, n, r, m):
        """Coefficient A(n, r, m); zero outside the semipositive support."""
        if n < 0 or m < 0:
            return self.ring.zero
        if n > self.prec or m > self.prec:
            raise PrecisionError(f"triple ({n},{r},{m}) beyond box {self.prec}",
                                 required=max(n, m), available=self.prec)
        self.need(min(n, m))
        if abs(r) > self.rb(n, m):
            return self.ring.zero
        v = self.coeffs[box_index(self.prec).offset[n, m] + abs(r)]
        return int(v) if isinstance(self.ring, FpRing) else v

    def __repr__(self):
        return f"SiegelFormSeries({self.ring.tag}, k={self.weight}, N={self.prec})"

    def __eq__(self, other):
        return (isinstance(other, SiegelFormSeries) and self.ring == other.ring
                and self.prec == other.prec and np.array_equal(self.coeffs, other.coeffs))

    def at_box(self, prec, nmax=None):
        """The keys of box prec <= self.prec with n <= nmax (default: all stored)."""
        nmax = min(prec, self.nmax if nmax is None else nmax)
        self.need(nmax)
        vec = self.coeffs[:box_index(self.prec).nstart[nmax + 1]]
        return vec if prec == self.prec else vec[box_index(self.prec).m[:len(vec)] <= prec]

    def _derived(self, vec, weight, prec=None):
        """A form over the same ring from the fresh vector vec."""
        prec = self.prec if prec is None else prec
        return SiegelFormSeries(self.ring, weight, prec, self.ring.canonical(vec))

    def _map2(self, other, fn, weight):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        prec, nmax = min(self.prec, other.prec), min(self.nmax, other.nmax)
        return self._derived(fn(self.at_box(prec, nmax), other.at_box(prec, nmax)), weight, prec)

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

    def coeff_rows(self, n):
        """[n, r, m, token] for the nonzero A(n, r, m) with m >= n, r >= 0."""
        self.need(n)
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
    one gather.  F's box must cover wmax // 2, its prefix wmax // 3."""
    F.need(wmax // 3)
    n, r, m, _ = reduced_classes(wmax)
    return F.coeffs[box_index(F.prec).offset[n, m] + r]


# -- lifts and generators ------------------------------------------------------------

def maass_lift(ring, k, cols, prec):
    """Lift the index-1 Jacobi form of weight k with zeta^0 and zeta^1
    columns cols (qexp.index1_columns) to box prec:
    A(n,r,m) = sum_{d | (n,r,m)} d^{k-1} c(nm/d^2, r/d).

    An index-1 coefficient depends only on D = 4n - r^2 (Eichler-Zagier,
    The Theory of Jacobi Forms, Thm 2.2), and c(nm/d^2, r/d) has
    D = det/d^2, so A = sum_{d | gcd} d^{k-1} C[det/d^2] with C the
    discriminant series of the columns.  The d = 1 term is one gather,
    C[det].  The keys divisible by d >= 2 are d times the keys (n', r', m')
    of box M = N // d, the keys 1 <= i < nstart[M + 1] with m <= M, and
    det' = det/d^2; so the d sharing one M, N/(M + 1) < d <= N/M, add
    d^{k-1} C[det'] at offset[dn', dm'] + dr' in one scatter-add.  Its
    positions are distinct: d m1 = d' m2 with d < d' in one group and
    1 <= m2 < m1 <= M would make d'/d = m1/m2 >= M/(M - 1), yet
    d'/d < (M + 1)/M.  A(0,0,0) is set to zero; pinning the constant of a
    non-cuspidal lift is the caller's concern (see igusa_generator).
    Requires columns to q^(prec^2).  PAPER.md, "Index-1 generators and
    the lift".
    """
    have = min(len(h) for h in cols) - 1
    if have < prec * prec:
        raise PrecisionError(f"lift to box {prec} needs q-precision {prec * prec}",
                             required=prec * prec, available=have)
    h = np.array([h[:prec * prec + 1] for h in cols], dtype=ring.dtype)
    C = discriminant_series(h, 4 * prec * prec)[1:]
    idx = box_index(prec)
    dpow = ring.powers(range(prec + 1), k - 1)
    out = C[idx.det]
    out[0] = ring.zero
    for sub in {prec // d for d in range(2, prec + 1)}:
        ds = np.arange(prec // (sub + 1) + 1, prec // sub + 1)[:, None]
        keys = np.flatnonzero(idx.m[1:idx.nstart[sub + 1]] <= sub) + 1
        n, r, m = idx.n[keys], idx.r[keys], idx.m[keys]
        out[idx.offset[ds * n, ds * m] + ds * r] += dpow[ds] * C[idx.det[keys]]
    return SiegelFormSeries(ring, k, prec, ring.canonical(out))


def igusa_generator(name, prec, ring):
    """One of the four even-weight generators E4, E6, chi10 and chi12 as a
    truncated expansion on the box.

    chi10 and chi12 are lifts of the index-1 cusp generators, normalized by
    A(1,1,1) = 1; E4 and E6 are (-2k/B_k)-scaled lifts of the index-1
    Eisenstein series with the constant term pinned to 1.  The lift reads
    the generator's two columns to q^(prec^2); no Jacobi form is built.
    Every coefficient is an integer (the columns, the lifts and the scales
    240 and -504), so over Q it is built over Z and cast once.
    """
    k = GENERATOR_WEIGHTS.get(name)
    if k is None:
        raise InvalidArgumentError(f"unknown generator {name!r}")
    if isinstance(ring, RatRing):
        F = igusa_generator(name, prec, ring_from_tag("int"))
        return SiegelFormSeries(ring, k, prec, ring.from_integers(F.coeffs, 1))
    lift = maass_lift(ring, k, index1_columns(k, prec * prec, ring), prec)
    if name.startswith("E"):
        lift = SiegelFormSeries.constant(ring, k, prec, 1) \
            + lift.scale(ring.from_rational(Fraction(-2 * k) / bernoulli(k)))
    return lift


def igusa_generators(prec, ring):
    """The four generators by name (igusa_generator)."""
    return {name: igusa_generator(name, prec, ring) for name in GENERATOR_WEIGHTS}


# -- products -------------------------------------------------------------------------

# Bytes of spectra in one chunk of slices of _mul_fft, forward or inverse; a
# chunk's transforms hold about three times that while they run.
_BATCH_BYTES = 1 << 18


def _qmax(prec):
    """The FFT bound ring.fft_qmax(T) of box N = prec, T = (N+1)^2 (2N+1)."""
    return fft_qmax((prec + 1) ** 2 * (2 * prec + 1))


def siegel_mul(F, G):
    """Three-variable Cauchy product, exact on the shared box N and prefix K.

    Semipositivity of the support forces both q- and q'-degrees of the
    factors below those of the output, so no out-of-box terms are lost, and
    an output with n <= K reads only keys with min(n, m) <= K.

    The one kernel is a float64 FFT product modulo an odd prime q
    (_mul_fft: each factor transformed once to half spectra, real-even in
    r and Hermitian in m, each output slice inverted once), exact for
    q <= _qmax(N) = ring.fft_qmax(T), T = (N+1)^2 (2N+1): T bounds the
    terms of an output coefficient ((n+1)(m+1) pairs (n1, m1), each meeting
    in at most 2N+1 values of r1) and the full support of one factor, which
    is what fft_qmax asks (with Percival's error bound; measured at the
    bound with all-h factors, boxes 4 to 40, K = N, 2N/3 and N/3: at most
    3.1e-4 from an integer).  q >= 5 keeps N below 5200 and the transform
    sizes below 2^29.

    The ring decides only the moduli (ring.exact_product with T terms and
    q <= _qmax(N)): p itself over small F_p, else a few primes joined by CRT.
    """
    if F.ring != G.ring:
        raise RingMismatchError(f"{F.ring.tag} vs {G.ring.tag}")
    ring, prec, nmax = F.ring, min(F.prec, G.prec), min(F.nmax, G.nmax)
    w = F.weight + G.weight if F.weight is not None and G.weight is not None else None
    f = F.at_box(prec, nmax)
    g = f if G is F else G.at_box(prec, nmax)
    vec = exact_product(ring, f, g, lambda x, y, q: _mul_fft(x, y, q, prec),
                        (prec + 1) ** 2 * (2 * prec + 1), _qmax(prec))
    return SiegelFormSeries(ring, w, prec, vec)


def _mul_fft(f, g, q, prec):
    """The product of the half vectors f and g, residues mod q at box prec,
    as residues in [0, q); exact when q <= _qmax(prec).  g may be f itself.

    f, g and the product hold the slices n <= K.  Plane n of a factor is
    (N+1) x L_r with A(n, r, m) at (m, +-r mod L_r), the rows m < n read from
    the stored keys (m, n) (four scatters per chunk of planes); L_m, L_r are
    the least 5-smooth sizes >= 2N+1 and >= 2R+1, R = isqrt(4KN).
    m1 + m2 <= 2N never wraps, and in rows m <= N, |r1 + r2| <=
    2 sqrt(n1 m1) + 2 sqrt(n2 m2) <= 2 sqrt(nm) <= R (Cauchy-Schwarz), so the
    cyclic wrap in r misses every stored coefficient.  A row is real and even
    in r, so its rfft along r is real (.real drops only rounding), and the
    rfft of that along m is Hermitian: a slice's spectrum is the
    (L_m/2+1) x (L_r/2+1) half.  Each factor is transformed once, a square
    once in all, into one array; output slice d is sum_i F_i G_(d-i), one
    einsum, and each chunk of output slices is inverted once (irfft along m,
    irfft along r of the rows m >= its first slice, one gather at
    r mod L_r).  Chunks hold at most _BATCH_BYTES of spectra.  The two real
    passes are the stages of a 2-D transform, so Percival's bound covers
    each term with |f_i| |g_(d-i)| (2-norms), and sum_i |f_i| |g_(d-i)| <=
    |f| |g| (Cauchy-Schwarz) keeps the whole sum inside the bound siegel_mul
    quotes (measured: 3.1e-4 from an integer); ring.rint_residues refuses
    each chunk's outputs when they show a slip of it.
    """
    idx = box_index(prec)
    top = int(np.searchsorted(idx.nstart, len(f))) - 1           # K
    lm, lr = fft_len(2 * prec + 1), fft_len(2 * isqrt(4 * top * prec) + 1)
    n, m, r = idx.n[:len(f)], idx.m[:len(f)], idx.r[:len(f)]
    step = max(1, _BATCH_BYTES // (16 * (lm // 2 + 1) * (lr // 2 + 1)))
    chunks = [(b, min(b + step, top + 1)) for b in range(0, top + 1, step)]

    def spectra(vals):
        """The half spectra of slices 0..K of the full support."""
        out = np.empty((top + 1, lm // 2 + 1, lr // 2 + 1), dtype=complex)
        # keys by m: those with m <= K all lie in the prefix, since n <= m
        by_m = np.argsort(m, kind="stable")
        mstart = np.searchsorted(m[by_m], np.arange(top + 2))
        for lo, hi in chunks:
            planes = np.zeros((hi - lo, prec + 1, lr))
            own, mirror = slice(idx.nstart[lo], idx.nstart[hi]), by_m[mstart[lo]:mstart[hi]]
            for plane, row, keys in ((n, m, own), (m, n, mirror)):
                planes[plane[keys] - lo, row[keys], r[keys]] = vals[keys]
                planes[plane[keys] - lo, row[keys], -r[keys]] = vals[keys]
            out[lo:hi] = np.fft.rfft(np.fft.rfft(planes, axis=2).real, n=lm, axis=1)
        return out

    fs = spectra(centred(f, q).astype(float))
    gs = fs if g is f else spectra(centred(g, q).astype(float))
    out, acc = np.empty(len(f), dtype=np.int64), np.empty((step,) + fs.shape[1:], dtype=complex)
    for b0, b1 in chunks:
        for d in range(b0, b1):
            np.einsum("ijk,ijk->jk", fs[:d + 1], gs[d::-1], out=acc[d - b0])
        vals = np.fft.irfft(np.fft.irfft(acc[:b1 - b0], n=lm, axis=1)[:, b0:prec + 1], n=lr, axis=2)
        keys = slice(idx.nstart[b0], idx.nstart[b1])
        out[keys] = rint_residues(vals[n[keys] - b0, m[keys] - b0, r[keys]], q)
        del vals                        # before the next chunk's transforms
    return out


# -- the Sturm-type verifier and congruence certificates --------------------------------

class SturmReport(Record):
    __slots__ = ("is_zero", "bound", "classes_checked", "witness")    # witness: tuple | None

    def __init__(self, is_zero, bound, classes_checked, witness):
        self.is_zero, self.bound, self.classes_checked, self.witness = (
            is_zero, bound, classes_checked, witness)


def _sturm_bound(weight, prec):
    """The dyadic-trace Sturm bound weight // 3; PrecisionError unless box
    prec covers it (never silently narrowed)."""
    bound = weight // 3
    if prec < bound // 2:
        raise PrecisionError(f"Sturm bound {bound} of weight {weight} needs box precision "
                             f"{bound // 2}", required=bound // 2, available=prec)
    return bound


def sturm_zero(F, weight, eps=None):
    """The zero test mod p behind every verdict: A(T) at the reduced classes
    T with dyadic trace within the Sturm bound weight // 3 (only those with
    legendre(det T, p) == eps when eps is given), and the first (n, r, m)
    where it does not vanish."""
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


class CongruenceCertificate(Record):
    """Machine-checkable verdict for one Ramanujan-type congruence; verdict is
    "holds" | "fails" and method "theta-criterion" | "sieve-identity"."""
    __slots__ = ("form", "p", "b", "verdict", "G_weight", "sturm_bound", "classes_checked",
                 "witness", "method")

    def __init__(self, form, p, b, verdict, G_weight, sturm_bound, classes_checked, witness,
                 method):
        self.form, self.p, self.b, self.verdict, self.G_weight = form, p, b, verdict, G_weight
        self.sturm_bound, self.classes_checked, self.witness, self.method = (
            sturm_bound, classes_checked, witness, method)

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
    the sieve identity).  F must already live over F_p.  PAPER.md, "Theta
    criterion" and "Sieve identity".
    """
    if not isinstance(F.ring, FpRing) or F.ring.p != p:
        raise InvalidArgumentError(f"siegel_congruence needs a form over fp:{p}")
    if F.weight is None:
        raise InvalidArgumentError("form needs a weight annotation")
    b %= p
    g_weight = criterion_weight(F.weight, p, b)
    rep = sturm_zero(F, g_weight, legendre(b, p))
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
    parts sum back to F coefficientwise over any ring (PAPER.md, "Sieve
    identity").
    """
    if s not in (0, 1, -1):
        raise InvalidArgumentError(f"sieve class must be 0, +1 or -1, got {s}")
    F.need(F.prec)
    ring = F.ring
    fp = isinstance(ring, FpRing)
    if fp and ring.p != p:
        raise InvalidArgumentError(f"form lives over {ring.tag}, sieve asked for p={p}")
    dets, inverse = np.unique(box_index(F.prec).det, return_inverse=True)
    full = ring.powers(dets.tolist(), p - 1)
    mult = (ring.divexact_vector(full + s * ring.powers(dets.tolist(), (p - 1) // 2), 2) if s
            else 1 - full)
    w = F.weight
    if w is not None and fp:
        w = criterion_weight(w, p, 0)
    return F._derived(F.coeffs * mult[inverse], w)


# -- monomial evaluation and mod-p decompositions ---------------------------------------

class GeneratorContext:
    """Shared generator tables at one (ring, box) plus memoized monomials.

    Each generator is built on first use, one at a time: read from the
    optional cache object (see siegelcong.cache) when it holds it, else
    built by igusa_generator and stored there, so a command that reads only
    chi12 builds and stores only chi12.  Products are only memoized
    in-process.  The coefficient vectors of generators and monomials are
    read-only.  A box whose index and columns could not fit in physical
    memory is refused before anything is allocated (require_box_memory).
    Given the trace bound B its caller reads, generators (built and stored
    on the square box) and their products are served as prefixes K = B // 3.
    """

    def __init__(self, ring, prec, cache=None, bound=None):
        require_box_memory(prec, ring)
        self.ring = ring
        self.prec = prec
        self.nmax = prec if bound is None else min(prec, bound // 3)
        self.cache = cache
        self._gens = {}
        self._mono = {}

    def generator(self, name):
        form = self._gens.get(name)
        if form is None:
            if self.cache is not None:
                form = self.cache.load(name, self.ring, self.prec)
            if form is None:
                form = igusa_generator(name, self.prec, self.ring)
                if self.cache is not None:
                    self.cache.store(name, form)
            form.coeffs.flags.writeable = False
            form = self._gens[name] = SiegelFormSeries(
                self.ring, form.weight, self.prec, form.at_box(self.prec, self.nmax))
        return form

    def evaluate(self, poly, weight):
        """sum of coef * monomial(*e) over poly {e: coef}, a form of the given
        weight (every monomial must have it)."""
        out = SiegelFormSeries.zero(self.ring, weight, self.prec)
        for e, coef in poly.items():
            if sum(x * w for x, w in zip(e, GENERATOR_WEIGHTS.values())) != weight:
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
            for i, name in enumerate(GENERATOR_WEIGHTS):
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
    """Exponent tuples (a, b, c, d) with 4a + 6b + 10c + 12d = k, by (d, c, b)."""
    weights = GENERATOR_WEIGHTS.values()
    box = itertools.product(*(range(k // w + 1) for w in weights))
    return sorted((e for e in box if sum(x * w for x, w in zip(e, weights)) == k),
                  key=lambda e: e[::-1])


def _class_matrix(forms, wmax, mask=None):
    """Column j holds class_values(forms[j], wmax), restricted to mask."""
    cols = [class_values(f, wmax) for f in forms]
    return np.stack(cols if mask is None else [c[mask] for c in cols], axis=1)


def monomial_text(e, coef=None):
    parts = [] if coef is None or coef == 1 else [str(coef)]
    parts += [name if x == 1 else f"{name}^{x}" for name, x in zip(GENERATOR_WEIGHTS, e) if x]
    return "*".join(parts) or "1"


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
        ctx = contexts[(p, box)] = GeneratorContext(ring, box, cache, 2 * box + 1)
    cols = [ctx.monomial(*e) for e in monos]
    out = []
    full_ctx = None
    for eps in (1, -1):
        cell = {"weight": k, "p": p, "legendre_class": eps,
                "holds_b": sorted(b for b in range(1, p) if legendre(b, p) == eps)}
        mask = _legendre_mask(reduced_classes(small_bound)[3], p, eps)
        if not linalg.kernel_basis(linalg.FpMatrix(p, _class_matrix(cols, small_bound, mask))):
            cell.update(status="none")
            out.append(cell)
            continue
        if full_ctx is None:
            full_ctx = GeneratorContext(ring, max(full_bound // 2, 2), cache, full_bound)
            full_cols = [full_ctx.monomial(*e) for e in monos]
            ident = _class_matrix(full_cols, k // 3)
        mask = _legendre_mask(reduced_classes(full_bound)[3], p, eps)
        kern = linalg.kernel_basis(linalg.FpMatrix(p, _class_matrix(full_cols, full_bound, mask)))
        forms = []
        for vec in kern:
            # for p >= 5 the weight-k monomials are independent mod p (Nagaoka,
            # Math. Z. 2000: the kernel of reduction mod p is generated by
            # E_{p-1} - 1), so no nonzero combination vanishes on the weight-k window
            if not np.any(ident.dot(vec) % p):
                raise InconsistentVerdictError(
                    f"a weight-{k} combination vanishes mod {p} on the weight-{k} window")
            terms = [monomial_text(e, coef=x) for x, e in zip(vec, monos) if x % p]
            forms.append(" + ".join(terms))
        if forms:
            cell.update(status="congruence", dim=len(forms), forms=forms,
                        sturm_bound=full_bound)
        else:
            cell.update(status="none")
        out.append(cell)
    return out
