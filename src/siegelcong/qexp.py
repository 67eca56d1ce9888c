"""Truncated q-expansions of level-1 elliptic modular forms.

Provides the `QSeries` value type, the generators E4, E6, Delta and the
eta-power series used by the Jacobi layer, echelonized monomial bases of the
weight-k spaces, the finite level-1 zero test mod p, and `BoundedMemo`, the
byte-bounded memo that this module and the Jacobi layer keep their results in.

Precision contract: a series of precision N stores coefficients for the
exponents 0..N inclusive; every binary operation returns the minimum of the
operand precisions and never extrapolates.

Storage: the coefficients are one numpy vector of dtype `ring.dtype`, as are
the Jacobi and Siegel coefficient vectors of siegelcong.jacobi and
siegelcong.siegel: int64 over F_p with p < 2^21, holding residues in [0, p),
and object over Z, Q and larger primes, holding Python ints, Fractions or
residues.  Every operation is one numpy expression for both dtypes, reduced
mod p only over F_p (`ring.canonical`).  The series products here
(convolve_trunc, invert_series) serve the Jacobi layer too.  Over F_p they
accumulate unreduced in int64 and reduce once at the end; `FpRing.fits64`
guarantees no overflow for the lengths used in this package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .errors import (ArithmeticDomainError, InvalidArgumentError,
                     PrecisionError, RingMismatchError)
from .ring import FpRing, RatRing, ring_from_tag


class QSeries:
    """One-variable truncated power series over a coefficient ring."""

    __slots__ = ("ring", "prec", "coeffs", "weight")

    def __init__(self, ring, coeffs, weight=None):
        self.ring = ring
        self.coeffs = np.asarray(coeffs, dtype=ring.dtype)
        self.prec = len(coeffs) - 1
        self.weight = weight
        if self.prec < 0:
            raise InvalidArgumentError("a QSeries needs at least its constant term")

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_ints(cls, ring, ints, weight=None):
        return cls(ring, np.array([ring.from_int(x) for x in ints], dtype=ring.dtype),
                   weight=weight)

    @classmethod
    def zero(cls, ring, prec, weight=None):
        return cls(ring, ring.zeros(prec + 1), weight=weight)

    @classmethod
    def const(cls, ring, value, prec, weight=0):
        vec = ring.zeros(prec + 1)
        vec[0] = ring.from_int(value) if isinstance(value, int) else value
        return cls(ring, vec, weight=weight)

    # -- access ---------------------------------------------------------------
    def coeff(self, n):
        if n < 0:
            return self.ring.zero
        if n > self.prec:
            raise PrecisionError(f"coefficient q^{n} beyond precision {self.prec}",
                                 required=n, available=self.prec)
        v = self.coeffs[n]
        return int(v) if isinstance(self.ring, FpRing) else v

    def coeff_list(self):
        return self.coeffs.tolist()

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}",
                                 required=prec, available=self.prec)
        return QSeries(self.ring, self.coeffs[:prec + 1], weight=self.weight)

    def is_zero(self, upto=None):
        upto = self.prec if upto is None else min(upto, self.prec)
        return not np.any(self.ring.canonical(self.coeffs[:upto + 1]))

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.ring == other.ring
                and self.prec == other.prec
                and not np.any(self.ring.canonical(self.coeffs - other.coeffs)))

    def __repr__(self):
        head = ", ".join(str(v) for v in self.coeff_list()[:6])
        return f"QSeries({self.ring.tag}, N={self.prec}, [{head}, ...])"

    # -- arithmetic -------------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        return min(self.prec, other.prec)

    def __add__(self, other):
        n = self._check(other)
        w = self.weight if self.weight == other.weight else None
        return QSeries(self.ring, self.ring.canonical(self.coeffs[:n + 1] + other.coeffs[:n + 1]),
                       weight=w)

    def __sub__(self, other):
        n = self._check(other)
        w = self.weight if self.weight == other.weight else None
        return QSeries(self.ring, self.ring.canonical(self.coeffs[:n + 1] - other.coeffs[:n + 1]),
                       weight=w)

    def __neg__(self):
        return QSeries(self.ring, self.ring.canonical(-self.coeffs), weight=self.weight)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            n = self._check(other)
            w = None
            if self.weight is not None and other.weight is not None:
                w = self.weight + other.weight
            out = convolve_trunc(self.ring, self.coeffs, other.coeffs, n + 1)
            return QSeries(self.ring, out, weight=w)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.ring.from_int(c) if isinstance(c, int) else c
        return QSeries(self.ring, self.ring.canonical(self.coeffs * c), weight=self.weight)

    def inverse(self, prec=None):
        """Multiplicative inverse; the constant term must be a unit."""
        n = self.prec if prec is None else prec
        if n > self.prec:
            raise PrecisionError("cannot invert beyond stored precision",
                                 required=n, available=self.prec)
        out = invert_series(self.ring, self.coeffs, n + 1)
        w = -self.weight if self.weight is not None else None
        return QSeries(self.ring, out, weight=w)

    def pow(self, e):
        if e < 0:
            raise InvalidArgumentError("negative powers: invert first")
        result = QSeries.const(self.ring, 1, self.prec, weight=None if self.weight is None else 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        return QSeries(fp, self.ring.reduce_vector(self.coeffs, fp), weight=self.weight)

    def to_json(self):
        return {"kind": "qseries", "ring": self.ring.tag, "weight": self.weight,
                "prec": self.prec,
                "coeffs": [self.ring.to_token(v) for v in self.coeff_list()]}


# -- series products -------------------------------------------------------------

def convolve_trunc(ring, a, b, n):
    """First n coefficients of the product of two series vectors."""
    a, b = np.asarray(a[:n], dtype=ring.dtype), np.asarray(b[:n], dtype=ring.dtype)
    out = ring.zeros(n)
    if a.dtype == object:
        # Python-object products are the cost: skip a's zeros (theta series
        # are sparse) and every product past q^(n-1)
        for i in np.flatnonzero(a):
            seg = b[:n - i]
            out[i:i + len(seg)] += a[i] * seg
    elif len(a) and len(b):
        full = np.convolve(a, b)[:n]
        out[:len(full)] = full
    return ring.canonical(out)


def invert_series(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit."""
    head = a[:1].tolist()
    if not head or ring.is_zero(head[0]):
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    inv0 = ring.inv(head[0])
    out = ring.zeros(n)
    out[0] = inv0
    arev = ring.canonical(np.asarray(a[1:n], dtype=ring.dtype)[::-1])
    la = len(arev)
    for k in range(1, n):
        lo = max(0, k - la)
        acc = ring.canonical(np.dot(arev[la - k + lo:], out[lo:k]))
        out[k] = ring.neg(ring.mul(inv0, acc))
    return out


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


def _sigma_table(e, n):
    """sigma_e(1..n) by a divisor sieve; index 0 is unused (zero)."""
    table = [0] * (n + 1)
    for d in range(1, n + 1):
        de = d ** e
        for mult in range(d, n + 1, d):
            table[mult] += de
    return table


def eisenstein_q(k, prec, ring):
    """Normalized Eisenstein series of even weight k >= 4.

    E_k = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n; the scaling is integral for
    k = 4 and 6 (240 and -504).
    """
    if k % 2 or k < 4:
        raise InvalidArgumentError(f"Eisenstein weight must be even and >= 4, got {k}")
    scale = Fraction(-2 * k) / bernoulli(k)
    c = ring.from_rational(scale)
    sig = _sigma_table(k - 1, prec)
    return QSeries(ring, [ring.one] + [ring.mul(c, ring.from_int(s)) for s in sig[1:]], weight=k)


def delta_q(prec, ring):
    """The discriminant cusp form Delta = (E4^3 - E6^2)/1728, leading q^1."""
    if prec < 1:
        raise InvalidArgumentError("Delta needs precision >= 1")
    e4 = eisenstein_q(4, prec, ring)
    e6 = eisenstein_q(6, prec, ring)
    num = e4 * e4 * e4 - e6 * e6
    return QSeries(ring, [ring.divexact(v, ring.from_int(1728)) for v in num.coeff_list()],
                   weight=12)


def eta_pow6(prec, ring):
    """eta^6 with the fractional q-power removed (constant term 1).

    Computed as the square of the eta^3 series sum (-1)^j (2j+1) q^{j(j+1)/2}.
    """
    cube = ring.zeros(prec + 1)
    j = 0
    while j * (j + 1) // 2 <= prec:
        cube[j * (j + 1) // 2] = ring.from_int((2 * j + 1) * (-1) ** j)
        j += 1
    six = convolve_trunc(ring, cube, cube, prec + 1)
    return QSeries(ring, six)


# -- weight-k bases ---------------------------------------------------------------

def _triangular_exponents(k):
    """(a, b, c) with 4a + 6b = k - 12c != 2 and a minimal: one triple per c."""
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


_bases = BoundedMemo(MEMO_BYTES, lambda rows: array_bytes(f.coeffs for f in rows))


def mk_basis(k, prec, ring):
    """Echelonized basis of the weight-k level-1 space over `ring`.

    Reduces Delta^c E4^a E6^b, one for each c with 4a + 6b = k - 12c != 2
    and a minimal.  Each has integer coefficients and leading term 1*q^c, so
    the set is a basis of M_k (Serre, A Course in Arithmetic, VII §3.2, Thm 4)
    whose Z-span holds every monomial E4^a E6^b Delta^c of weight k; its
    reduced echelon form is the one of all those monomials, over Q and over
    every F_p.  Unit leading terms make the reduction a back substitution
    without division.  Pivot columns strictly increase and pivots equal 1;
    the length of the result is the dimension of the space.

    Bases are memoized per (ring, k) at the largest precision built, in a
    BoundedMemo, and a smaller precision is served by truncation.  That is
    exact: the back substitution reads and clears only the pivot columns
    c <= k/12 < prec, and row operations commute with truncation.  The
    filtration walk of PAPER.md ("Filtration and heat cycle") asks for the
    same bases at many windows.  The returned coefficient vectors are
    read-only.
    """
    if k % 2:
        raise InvalidArgumentError(f"odd weight {k} not supported")
    if k < 0:
        return []
    if k == 0:
        return [QSeries.const(ring, 1, prec, weight=0)]
    tri = _triangular_exponents(k)
    if not tri:
        return []
    upper = k // 12 + 1
    if prec < upper:
        raise PrecisionError(f"mk_basis({k}) needs precision >= {upper}",
                             required=upper, available=prec)
    key = (ring.tag, k)
    rows = _bases.get(key)
    if rows is None or rows[0].prec < prec:
        pw4, pw6, pwd = _power_chains(ring, prec, (2, max(b for _, b, _ in tri), tri[-1][2]))
        rl = [(pw4[a].truncate(prec) * pw6[b] * pwd[c]).coeffs for a, b, c in tri]
        # clear pivot column c_j above row j, last row first
        for j in range(len(tri) - 1, 0, -1):
            for i in range(j):
                x = rl[i][tri[j][2]]
                if x:
                    rl[i] = ring.canonical(rl[i] - rl[j] * x)
        rows = _bases[key] = [_read_only(QSeries(ring, r, weight=k)) for r in rl]
    return [f.truncate(prec) for f in rows]


_chains = None  # (ring tag, prec, [E4 chain, E6 chain, Delta chain]), or None


def _power_chains(ring, prec, emax):
    """The chains [f^0, ..., f^e] for (f, e) in zip((E4, E6, Delta), emax).

    One entry is kept: the last ring at the largest precision asked of it,
    so a smaller precision is served by the longer series (the caller
    truncates) and a chain grows when a larger power is asked for.  The
    stored series are read-only.
    """
    global _chains
    if _chains is None or _chains[0] != ring.tag or _chains[1] < prec:
        one = _read_only(QSeries.const(ring, 1, prec, weight=0))
        gens = (eisenstein_q(4, prec, ring), eisenstein_q(6, prec, ring), delta_q(prec, ring))
        _chains = (ring.tag, prec, [[one, _read_only(f)] for f in gens])
    chains = _chains[2]
    for chain, e in zip(chains, emax):
        while len(chain) <= e:
            chain.append(_read_only(chain[-1] * chain[1]))
    return chains


def _read_only(f):
    f.coeffs.flags.writeable = False
    return f


def mk_dim(k, p=None):
    """Dimension of the weight-k level-1 space: the size of mk_basis's
    triangular basis, one element per c with k - 12c != 2 (Serre, A Course in
    Arithmetic, VII §3.2, Thm 4).  Its unit leading terms make the count the
    same over Q and over every F_p, so p does not change the result.
    """
    if k < 0 or k % 2:
        return 0
    return len(_triangular_exponents(k))


def elliptic_sturm_zero(f, k):
    """Finite zero test mod p for f in the weight-k level-1 space.

    True iff f == 0 mod p, decided by vanishing of the coefficients
    0..floor(k/12).  Requires f over a prime field and enough precision.
    """
    if not isinstance(f.ring, FpRing):
        raise InvalidArgumentError("elliptic_sturm_zero needs a prime-field series")
    if k < 0 or k % 2:
        raise InvalidArgumentError(f"not a valid level-1 even weight: {k}")
    bound = k // 12
    if f.prec < bound:
        raise PrecisionError(f"Sturm test at weight {k} needs precision >= {bound}",
                             required=bound, available=f.prec)
    return f.is_zero(upto=bound)
