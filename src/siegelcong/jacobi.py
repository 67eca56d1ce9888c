"""Jacobi forms of even weight as truncated two-variable (q, zeta) series.

Covers the weak index-1 generators built from theta quotients, holomorphic
index-1 generators, products, the heat operator, mod-p filtrations and heat
cycles, and the finite congruence criteria.

Index-1 generators: the coefficients of an index-1 form, weak or holomorphic,
depend only on D = 4n - r^2 (Eichler-Zagier, The Theory of Jacobi Forms,
Thm 2.2).  So phi_{-2,1}, phi_{0,1}, E_{4,1}, E_{6,1}, phi_{10,1} and
phi_{12,1} are each computed as two q-series, their zeta^0 and zeta^1
columns, and the coefficient vector is gathered from those once; a runtime
guard requires the zeta^2 and zeta^3 columns to agree with them (see
weak_generators).

Storage: c(n, -r) = c(n, r) for every even-weight form, so a form of index
m and precision N stores only the half support 0 <= n <= N,
0 <= r <= rbound(m, n) = isqrt(4nm + m^2): one flat vector `coeffs`, ordered
by n, then r, which is also the order of to_json.  The vector of a smaller
precision is a prefix of it.  Over F_p with p < 2^21 the vector is int64
with residues in [0, p); over Z, Q and larger primes it has dtype object and
holds Python ints, Fractions or residues.  Every operation is a numpy
expression on that vector, reduced mod p only over F_p, with the index
arrays of each (index, precision) built once and shared by every live form
of that shape (JacobiIndex); the products convolve full rows gathered from
it.  For holomorphic forms
the entries with 4nm - r^2 < 0 are zero.  Forms are immutable values: every
operation returns a new form, and memoized forms are read-only.

The finite zero test mod p routes through the weak-form decomposition and a
level-1 Sturm check on each component.  There is no published Sturm-type
bound at the Jacobi level; this reduction is this library's own construction
(see jac_zero_test and zero_test_required_prec).
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .errors import (ArithmeticDomainError, DecompositionError,
                     InvalidArgumentError, PrecisionError, RingMismatchError)
from .linalg import FpMatrix, kernel_basis, rref
from .qexp import (QSeries, convolve_trunc, delta_q, eisenstein_q, elliptic_sturm_zero,
                   eta_pow6, invert_series, mk_basis, mk_dim)
from .ring import FpRing, IntRing, RatRing, legendre, ring_from_tag

NEG_INF = float("-inf")


def rbound(index, n):
    """Largest |r| a weak form of the given index may carry at q^n."""
    return isqrt(4 * n * index + index * index)


class JacobiIndex:
    """Read-only index arrays of the half support of index m to q^prec, in vector order.

    bound[n] = rbound(m, n) and start[n] is where the keys (n, r),
    0 <= r <= bound[n], of q^n begin (start[prec + 1] is the length), so
    c(n, r) sits at start[n] + |r| and the vector of a precision N <= prec
    is the prefix up to start[N + 1].  n, r and D = 4nm - r^2, one entry
    per key, are built on first use.
    """

    def __init__(self, m, prec):
        self.m = m
        self.bound = np.array([rbound(m, n) for n in range(prec + 1)])
        self.start = np.append(0, np.cumsum(self.bound + 1))
        self.size = int(self.start[-1])
        self.bound.flags.writeable = self.start.flags.writeable = False

    @cached_property
    def n(self):
        return _read_only(np.repeat(np.arange(len(self.bound)), self.bound + 1))

    @cached_property
    def r(self):
        r = np.arange(self.size)
        r -= self.start[self.n]
        return _read_only(r)

    @cached_property
    def D(self):
        # in place: at the lift's q-precision (900 at box 30) a temporary is
        # 0.3 MB, and each one shows in the peak RSS
        D = self.n * (4 * self.m)
        D -= self.r * self.r
        return _read_only(D)

    @cached_property
    def _full(self):
        """The gather index of the full rows and the cuts between them."""
        width = 2 * self.bound + 1
        cuts = np.cumsum(width)
        n = np.repeat(np.arange(len(width)), width)
        r = np.arange(cuts[-1]) - (cuts - width)[n] - self.bound[n]
        return self.start[n] + np.abs(r), cuts[:-1]

    def full_rows(self, vec):
        """The rows c(n, r), r = -bound[n]..bound[n], of the vector vec, one
        array per n: the products convolve these."""
        gather, cuts = self._full
        return np.split(vec[gather], cuts)


def _read_only(a):
    a.flags.writeable = False
    return a


_indexes = weakref.WeakValueDictionary()


def jacobi_index(m, prec):
    """The JacobiIndex of index m and precision prec.  Every form holds its
    own and the memo keeps one only while a form does, so the large index of
    a Maass lift's q-precision goes with the forms that needed it."""
    idx = _indexes.get((m, prec))
    if idx is None:
        idx = _indexes[m, prec] = JacobiIndex(m, prec)
    return idx


class JacobiFormSeries:
    """Truncated expansion sum_{n,r} c(n, r) q^n zeta^r of weight k, index m.

    coeffs is the half-support vector described in the module docstring.
    """

    __slots__ = ("ring", "weight", "index", "prec", "coeffs", "weak", "idx")

    def __init__(self, ring, weight, index, prec, coeffs, weak=False):
        if index < 0:
            raise InvalidArgumentError(f"index must be >= 0, got {index}")
        self.idx = jacobi_index(index, prec)
        if len(coeffs) != self.idx.size:
            raise InvalidArgumentError(
                f"{len(coeffs)} coefficients for index {index} and precision {prec}")
        self.ring = ring
        self.weight = weight
        self.index = index
        self.prec = prec
        self.coeffs = coeffs
        self.weak = weak

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, ring, weight, index, prec, weak=False):
        return cls(ring, weight, index, prec, ring.zeros(jacobi_index(index, prec).size),
                   weak=weak)

    # -- access -------------------------------------------------------------
    def rb(self, n):
        return rbound(self.index, n)

    def c(self, n, r):
        """Coefficient c(n, r); zero outside the admissible range."""
        if n < 0:
            return self.ring.zero
        if n > self.prec:
            raise PrecisionError(f"row q^{n} beyond precision {self.prec}",
                                 required=n, available=self.prec)
        if abs(r) > self.rb(n):
            return self.ring.zero
        v = self.coeffs[self.idx.start[n] + abs(r)]
        return int(v) if isinstance(self.ring, FpRing) else v

    def is_zero_window(self):
        return not np.any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, JacobiFormSeries) and self.ring == other.ring
                and self.index == other.index and self.prec == other.prec
                and not np.any(self.ring.canonical(self.coeffs - other.coeffs)))

    def __repr__(self):
        return (f"JacobiFormSeries({self.ring.tag}, k={self.weight}, m={self.index}, "
                f"N={self.prec}, weak={self.weak})")

    def at_prec(self, prec):
        """The coefficient vector truncated to precision prec <= self.prec: a prefix."""
        return self.coeffs[:self.idx.start[prec + 1]]

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot extend a truncated form",
                                 required=prec, available=self.prec)
        return JacobiFormSeries(self.ring, self.weight, self.index, prec,
                                self.at_prec(prec), weak=self.weak)

    # -- ring-level arithmetic ------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        if self.index != other.index:
            raise InvalidArgumentError(f"index mismatch: {self.index} vs {other.index}")
        return min(self.prec, other.prec)

    def __add__(self, other):
        return _combine(self, other, 1, self.weight if self.weight == other.weight else None)

    def __sub__(self, other):
        return _combine(self, other, -1, self.weight if self.weight == other.weight else None)

    def scale(self, c):
        c = self.ring.from_int(c) if isinstance(c, int) else c
        return JacobiFormSeries(self.ring, self.weight, self.index, self.prec,
                                self.ring.canonical(self.coeffs * c), weak=self.weak)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, JacobiFormSeries):
            return jac_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- specializations --------------------------------------------------------
    def z_restrict(self):
        """The weight-k modular form phi(tau, 0) = sum_r c(n, r): c(n, 0) plus
        twice the c(n, r) with r > 0, as a QSeries."""
        idx = self.idx
        twice = np.where(idx.r > 0, 2, 1).astype(self.ring.dtype)
        vals = np.add.reduceat(self.coeffs * twice, idx.start[:-1])
        return QSeries(self.ring, self.ring.canonical(vals), weight=self.weight)

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        return JacobiFormSeries(fp, self.weight, self.index, self.prec,
                                self.ring.reduce_vector(self.coeffs, fp), weak=self.weak)

    def to_json(self):
        idx = self.idx
        nz = np.flatnonzero(self.coeffs != 0)
        toks = [self.ring.to_token(v) for v in self.coeffs[nz].tolist()]
        coeffs = [[n, r, t] for n, r, t in zip(idx.n[nz].tolist(), idx.r[nz].tolist(), toks)]
        return {"kind": "jacobi", "ring": self.ring.tag, "weight": self.weight,
                "index": self.index, "prec": self.prec, "coeffs": coeffs}

    # -- structural checks (used heavily by the tests) ---------------------------
    def check_transformation_law(self):
        """c(n, r) == c(n + r + m, r + 2m) wherever both keys are stored."""
        m = self.index
        for n in range(self.prec + 1):
            for r in range(-self.rb(n), self.rb(n) + 1):
                n2, r2 = n + r + m, r + 2 * m
                if 0 <= n2 <= self.prec and abs(r2) <= self.rb(n2):
                    if not self.ring.is_zero(self.ring.sub(self.c(n, r), self.c(n2, r2))):
                        return False
        return True

    def check_holomorphic_support(self):
        """c(n, r) == 0 wherever 4nm - r^2 < 0."""
        return not np.any(self.coeffs[self.idx.D < 0])


def _combine(a, b, coef_b, weight):
    """a + coef_b * b with an explicit result weight (mod-p cross-weight sums)."""
    n = a._check(b)
    ring = a.ring
    cb = ring.from_int(coef_b) if isinstance(coef_b, int) else coef_b
    vec = ring.canonical(a.at_prec(n) + b.at_prec(n) * cb)
    return JacobiFormSeries(ring, weight, a.index, n, vec, weak=a.weak or b.weak)


# -- products ---------------------------------------------------------------------

def jac_mul(a, b):
    """Two-variable Cauchy product; weights and indices add, precision is min.

    Row n of the product is the sum over n1 of the convolutions of the full
    rows n1 of a and n - n1 of b, all centred at r = 0; only its r >= 0 half
    is kept.
    """
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring.tag} vs {b.ring.tag}")
    ring = a.ring
    prec = min(a.prec, b.prec)
    m = a.index + b.index
    w = a.weight + b.weight if a.weight is not None and b.weight is not None else None
    arows, brows = a.idx.full_rows(a.coeffs), b.idx.full_rows(b.coeffs)
    out = []
    for n in range(prec + 1):
        bo = rbound(m, n)
        acc = ring.zeros(2 * bo + 1)
        for n1 in range(n + 1):
            conv = ring.canonical(np.convolve(arows[n1], brows[n - n1]))
            off = bo - len(conv) // 2     # rbound(a) + rbound(b) <= rbound(a + b)
            acc[off:off + len(conv)] += conv
        out.append(acc[bo:])
    return JacobiFormSeries(ring, w, m, prec, ring.canonical(np.concatenate(out)),
                            weak=a.weak or b.weak)


def qseries_times_jacobi(f, phi):
    """Multiply a one-variable series into a Jacobi form (q-direction only):
    each zeta-power r >= 0 is one q-convolution."""
    if f.ring != phi.ring:
        raise RingMismatchError(f"{f.ring.tag} vs {phi.ring.tag}")
    ring = phi.ring
    prec = min(f.prec, phi.prec)
    w = None
    if f.weight is not None and phi.weight is not None:
        w = f.weight + phi.weight
    idx = jacobi_index(phi.index, prec)
    dense = ring.zeros((prec + 1, int(idx.bound[-1]) + 1))
    dense[idx.n, idx.r] = phi.at_prec(prec)
    fv = f.coeffs[:prec + 1]
    for c in range(dense.shape[1]):
        col = dense[:, c]
        if np.any(col):
            dense[:, c] = ring.canonical(np.convolve(fv, col)[:prec + 1])
    return JacobiFormSeries(ring, w, phi.index, prec, dense[idx.n, idx.r], weak=phi.weak)


def heat(phi):
    """Apply the index-m heat operator: c(n, r) -> (4nm - r^2) c(n, r).

    Over a prime field the weight annotation increases by p + 1 (the mod-p
    weight of the image); over exact rings the annotation is left unchanged.
    """
    ring = phi.ring
    vec = ring.canonical(phi.coeffs * phi.idx.D.astype(ring.dtype))
    w = phi.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + ring.p + 1
    return JacobiFormSeries(ring, w, phi.index, phi.prec, vec, weak=phi.weak)


def heat_iterate(phi, times):
    for _ in range(times):
        phi = heat(phi)
    return phi


# -- index-1 generators -------------------------------------------------------------
#
# Every division in the theta quotients is by a pure q-series, so a zeta-column of
# a generator needs only the same column of its numerator (see weak_generators).

def _tri(j):
    return j * (j + 1) // 2


def _square(j):
    return j * j


def _theta_square_column(ring, c, n, sign, expo):
    """x^0..x^{n-1} at zeta^c of (sum_{j in Z} sign^j x^{expo(j)} zeta^j)^2.

    The terms j and c - j meet at zeta^c, so this is one sum over j with
    O(sqrt n) terms.
    """
    out = [0] * n
    s = sign ** (c % 2)
    reach = isqrt(2 * n) + 2
    for j in range(-reach, reach + 1):
        e = expo(j) + expo(c - j)
        if e < n:
            out[e] += s
    return np.array([ring.from_int(v) for v in out], dtype=ring.dtype)


def _theta_square_at_one(ring, n, expo):
    """(sum_{j in Z} x^{expo(j)})^2 to n terms: the theta square at zeta = 1."""
    theta = [0] * n
    reach = isqrt(2 * n) + 2
    for j in range(-reach, reach + 1):
        if expo(j) < n:
            theta[expo(j)] += 1
    theta = np.array([ring.from_int(v) for v in theta], dtype=ring.dtype)
    return convolve_trunc(ring, theta, theta, n)


def _column_factors(prec, ring):
    """The q-series that map theta-square columns to generator columns.

    1/eta^6 for weight -2; for weight 0, 1/S2(q, 1) for piece 1 and, per
    zeta-parity, the factor of the folded theta_3^2 column for pieces 2+3.
    """
    n = prec + 1
    inv_eta6 = eta_pow6(prec, ring).inverse().coeffs
    inv_s2 = invert_series(ring, _theta_square_at_one(ring, n, _tri), n)
    # pieces 2+3 combined: 2(Ee - Oo)/(e^2 - o^2) over Q = q^{1/2}, where e and
    # o are the even and odd Q-powers of theta_3(Q)^2 reindexed to integral q;
    # np.append(zero, x)[:n] is q * x
    t3 = _theta_square_at_one(ring, 2 * n, _square)
    e_q, o_q = t3[0::2], t3[1::2]
    zero = ring.zeros(1)
    denom = ring.canonical(convolve_trunc(ring, e_q, e_q, n)
                           - np.append(zero, convolve_trunc(ring, o_q, o_q, n))[:n])
    inv_denom = invert_series(ring, denom, n)
    even = ring.canonical(convolve_trunc(ring, e_q, inv_denom, n) * ring.from_int(2))
    odd = ring.canonical(np.append(zero, convolve_trunc(ring, o_q, inv_denom, n))[:n]
                         * ring.from_int(-2))
    return inv_eta6, inv_s2, (even, odd)


def _weak_column(c, prec, ring, factors):
    """The zeta^c columns of phi_{-2,1} and phi_{0,1}, to q^prec."""
    n = prec + 1
    inv_eta6, inv_s2, folded = factors
    # weight -2: zeta * theta_red^2 / eta^6  (fractional powers cancel)
    wm2 = convolve_trunc(ring, _theta_square_column(ring, c - 1, n, -1, _tri), inv_eta6, n)
    # weight 0, piece 1: zeta * S2 / S2(q, 1) from the even theta pair
    a2 = convolve_trunc(ring, _theta_square_column(ring, c - 1, n, 1, _tri), inv_s2, n)
    # pieces 2+3: odd zeta-powers must sit on odd Q-powers, even on even
    par = c % 2
    t3 = _theta_square_column(ring, c, 2 * n, 1, _square)
    if np.any(t3[1 - par::2]):
        raise ArithmeticDomainError("theta square breaks the parity coupling")
    a34 = convolve_trunc(ring, t3[par::2], folded[par], n)
    return wm2, ring.canonical((a2 + a34) * ring.from_int(4))


@lru_cache(maxsize=1)
def _weak_columns(prec, ring):
    """((h_0, h_1) of phi_{-2,1}, (h_0, h_1) of phi_{0,1}), each of length prec + 1.

    Guard: the zeta^2 and zeta^3 columns are built the same way and must be
    h_0 and h_1 moved down one and two rows with zeros above, since
    c(n, 2) = c(n - 1, 0) and c(n, 3) = c(n - 2, 1); that also checks
    c = 0 at D < -1 in those columns.  Z is computed over Q and cast back,
    which checks integrality.  The last result is kept, so the four
    generators of one box share it; its columns are read-only.
    """
    if isinstance(ring, IntRing):
        gens = tuple(tuple(np.array([ring.from_rational(v) for v in h], dtype=ring.dtype)
                           for h in gen) for gen in _weak_columns(prec, ring_from_tag("rat")))
    else:
        n = prec + 1
        factors = _column_factors(prec, ring)
        cols = [_weak_column(c, prec, ring, factors) for c in range(4)]
        gens = tuple((cols[0][g], cols[1][g]) for g in range(2))
        for g in range(2):
            for k in (1, 2):
                moved = np.append(ring.zeros(k), cols[k - 1][g])[:n]
                if not np.array_equal(cols[k + 1][g], moved):
                    raise ArithmeticDomainError(
                        "zeta^2 and zeta^3 columns break the index-1 discriminant law")
    for gen in gens:
        for h in gen:
            h.flags.writeable = False
    return gens


def _index1_form(ring, weight, cols, weak):
    """The index-1 form with zeta^0 and zeta^1 columns cols: one gather by D.

    The discriminants come from an index of its own, dropped after the
    gather, so that the form's index (which a Maass lift keeps alive while
    it runs) builds no per-key arrays.
    """
    h = np.array(cols, dtype=ring.dtype)
    prec = h.shape[1] - 1
    D = np.arange(-1, 4 * prec + 1)
    C = h[(D % 4 == 3).astype(int), (D + 1) // 4]        # C[D + 1], D = 4n - r^2 >= -1
    return JacobiFormSeries(ring, weight, 1, prec, C[JacobiIndex(1, prec).D + 1], weak=weak)


_weak_cache = {}


def weak_generators(prec, ring):
    """The weak index-1 generators phi_{-2,1} and phi_{0,1} of weights -2 and 0.

    q^0 rows are (zeta - 2 + zeta^{-1}) and (zeta + 10 + zeta^{-1}); all
    coefficients are integral.  An index-1 form has c(n, r) depending only on
    D = 4n - r^2, which also fixes r mod 2 (Eichler-Zagier, The Theory of
    Jacobi Forms, Thm 2.2; the proof uses only the elliptic transformation
    law, so weak forms are covered).  Each generator is therefore built from
    its zeta^0 and zeta^1 theta-quotient columns h_0, h_1 alone, as
    c(n, r) = h_{r mod 2}[n - floor(r^2/4)], the entry with the same D.  A
    runtime guard builds the zeta^2 and zeta^3 columns as well and raises
    ArithmeticDomainError unless they are h_0 and h_1 moved down one and two
    rows.  Exact rings are computed through exact rationals and cast, which
    verifies integrality.  Results are memoized per ring and read-only; a
    precision below one already built is a truncation of it.
    """
    key = (ring.tag, prec)
    hit = _weak_cache.get(key)
    if hit is not None:
        return hit
    # reuse a longer cached expansion when one exists
    for (tag, p2), val in _weak_cache.items():
        if tag == ring.tag and p2 > prec:
            out = (val[0].truncate(prec), val[1].truncate(prec))
            _weak_cache[key] = out
            return out
    wm2, w0 = _weak_columns(prec, ring)
    out = (_index1_form(ring, -2, wm2, weak=True), _index1_form(ring, 0, w0, weak=True))
    for f in out:
        f.coeffs.flags.writeable = False
    _weak_cache[key] = out
    return out


def jacobi_eisenstein(k, prec, ring):
    """Holomorphic index-1 Eisenstein series of weight 4 or 6, c(0,0) = 1.

    E_{4,1} = (E4 phi_{0,1} - E6 phi_{-2,1})/12 and
    E_{6,1} = (E6 phi_{0,1} - E4^2 phi_{-2,1})/12, taken column by column.
    """
    if k not in (4, 6):
        raise InvalidArgumentError(f"jacobi_eisenstein supports k in (4, 6), got {k}")
    wm2, w0 = _weak_columns(prec, ring)
    e4 = eisenstein_q(4, prec, ring)
    e6 = eisenstein_q(6, prec, ring)
    f, g = (e4, e6) if k == 4 else (e6, e4 * e4)
    twelve = ring.from_int(12)
    cols = []
    for h0, hm2 in zip(w0, wm2):
        num = (convolve_trunc(ring, f.coeffs, h0, prec + 1)
               - convolve_trunc(ring, g.coeffs, hm2, prec + 1))
        cols.append([ring.divexact(v, twelve) for v in ring.canonical(num).tolist()])
    return _index1_form(ring, k, cols, weak=False)


def jacobi_cusp(k, prec, ring):
    """The index-1 cusp generators Delta*phi_{-2,1} (k=10), Delta*phi_{0,1} (k=12)."""
    if k not in (10, 12):
        raise InvalidArgumentError(f"jacobi_cusp supports k in (10, 12), got {k}")
    wm2, w0 = _weak_columns(prec, ring)
    d = delta_q(prec, ring).coeffs
    cols = [convolve_trunc(ring, d, h, prec + 1) for h in (wm2 if k == 10 else w0)]
    return _index1_form(ring, k, cols, weak=False)


# -- decomposition over the weak generators ----------------------------------------

def _divide_by_weak_m2(psi, w_m2):
    """Exact division by the weight -2 generator; index drops by one.

    Row-by-row synthetic division by the leading row zeta - 2 + zeta^{-1} =
    zeta^{-1} (zeta - 1)^2, on full rows; any residual, or a quotient row
    wider than the index-(m-1) bound, means the input was not divisible.
    """
    ring = psi.ring
    mu = psi.index
    if mu < 1:
        raise DecompositionError("cannot divide an index-0 form by the weak generator")
    prec = min(psi.prec, w_m2.prec)
    trows, wrows = psi.idx.full_rows(psi.coeffs), w_m2.idx.full_rows(w_m2.coeffs)
    quot = []
    for n in range(prec + 1):
        t = trows[n]
        for i in range(1, n + 1):
            conv = ring.canonical(np.convolve(wrows[i], quot[n - i]))
            off = (len(t) - len(conv)) // 2
            t[off:off + len(conv)] -= conv
        # t spans r in [-bt, bt]; the quotient row u spans [-bt+1, bt-1]
        u = _div_by_sq(ring, ring.canonical(t))
        cut = (len(u) - 1) // 2 - rbound(mu - 1, n)
        if np.any(u[:cut]) or np.any(u[len(u) - cut:]):
            raise DecompositionError(
                f"row q^{n}: quotient support exceeds the index-{mu - 1} bound")
        quot.append(u[cut:len(u) - cut])
    vec = np.concatenate([row[len(row) // 2:] for row in quot])
    return JacobiFormSeries(ring, None if psi.weight is None else psi.weight + 2,
                            mu - 1, prec, vec, weak=True)


def _div_by_sq(ring, t):
    """Divide the centered Laurent row t by [1, -2, 1] = (1 - x)^2, that is,
    take two running sums; error on any remainder."""
    u = ring.canonical(np.cumsum(np.cumsum(t)))
    if np.any(u[-2:]):
        raise DecompositionError("division by the weak generator left a residual")
    return u[:-2]


def weak_decompose(phi, gens=None):
    """Components f_0..f_m with phi = sum f_j w{-2}^j w{0}^{m-j}.

    Uses the z = 0 specialization (the weight -2 generator vanishes there and
    the weight 0 one restricts to the constant 12) followed by exact division,
    so each step strips one power of the weight 0 generator.  Integer input is
    promoted to exact rationals; components of an integral form in the span
    need not be integral, but are always p-integral alongside phi.
    """
    if isinstance(phi.ring, IntRing):
        phi = _cast_form_rat(phi)
    ring = phi.ring
    if not isinstance(ring, (RatRing, FpRing)):
        raise InvalidArgumentError("weak_decompose needs a field-like ring (rat or fp)")
    m = phi.index
    if phi.weight is None:
        raise InvalidArgumentError("weak_decompose needs a weight annotation")
    if m == 0:
        return [QSeries(ring, phi.coeffs, weight=phi.weight)]
    if gens is None:
        gens = weak_generators(phi.prec, ring)
    w_m2 = gens[0]
    if w_m2.prec < phi.prec:
        raise PrecisionError("generator precision below form precision",
                             required=phi.prec, available=w_m2.prec)
    fs = []
    cur = phi
    inv12 = ring.inv(ring.from_int(12))
    for mu in range(m, 0, -1):
        f = cur.z_restrict().scale(ring.pow(inv12, mu))
        fs.append(f)
        rem = cur - qseries_times_jacobi(f, _weak_monomial(gens, 0, mu, phi.prec))
        cur = _divide_by_weak_m2(rem, w_m2.truncate(phi.prec))
    fs.append(QSeries(ring, cur.coeffs, weight=cur.weight))   # index 0: c(n, 0) only
    return fs


def _cast_form_rat(phi):
    vec = np.array([Fraction(v) for v in phi.coeffs.tolist()], dtype=object)
    return JacobiFormSeries(ring_from_tag("rat"), phi.weight, phi.index, phi.prec, vec,
                            weak=phi.weak)


def reconstruct_weak(fs, index, gens):
    """Inverse of weak_decompose: sum f_j w{-2}^j w{0}^{m-j}."""
    w_m2, w_0 = gens
    prec = min(min(f.prec for f in fs), w_m2.prec)
    acc = None
    for j, f in enumerate(fs):
        mono = _weak_monomial(gens, j, index - j, prec)
        term = qseries_times_jacobi(f.truncate(prec), mono)
        acc = term if acc is None else _combine(acc, term, 1, None)
    return acc


_mono_cache = {}


def _weak_monomial(gens, j, i, prec):
    """w_{-2}^j w_0^i to q^prec; memoized per (ring, j, i) at the largest
    precision built, smaller precisions are truncations of it.  The memoized
    vectors are read-only."""
    w_m2, w_0 = gens
    ring = w_m2.ring
    key = (ring.tag, j, i)
    hit = _mono_cache.get(key)
    if hit is not None and hit.prec >= prec:
        return hit.truncate(prec)
    if j + i == 0:
        one = ring.zeros(prec + 1)
        one[0] = ring.one
        out = JacobiFormSeries(ring, 0, 0, prec, one)
    elif j + i == 1:
        out = (w_m2 if j else w_0).truncate(prec)
    elif j > 0:
        out = jac_mul(_weak_monomial(gens, j - 1, i, prec), w_m2.truncate(prec))
    else:
        out = jac_mul(_weak_monomial(gens, j, i - 1, prec), w_0.truncate(prec))
    out.coeffs.flags.writeable = False
    _mono_cache[key] = out
    return out


# -- finite zero test and congruence criteria ---------------------------------------

def zero_test_required_prec(weight, index):
    """Stored rows needed for the finite zero test at the given weight/index."""
    return (weight + 2 * index) // 12 + index + 1


def jac_zero_test(phi, gens=None):
    """True iff phi == 0 mod p, for phi in the weak span at its annotated weight.

    Decomposes over the weak generators and runs the level-1 Sturm test on
    every component at its own weight; components at weights with no forms
    must vanish identically on the window.
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("jac_zero_test needs a prime-field form")
    k, m = phi.weight, phi.index
    need = zero_test_required_prec(k, m)
    if phi.prec < need:
        raise PrecisionError(f"zero test at weight {k}, index {m} needs precision {need}",
                             required=need, available=phi.prec)
    fs = weak_decompose(phi, gens=gens)
    for j, f in enumerate(fs):
        w = k + 2 * j
        if w >= 4 or w == 0:
            if not elliptic_sturm_zero(f, w):
                return False
        elif not f.is_zero():
            return False
    return True


@dataclass
class JacobiCongruence:
    """Outcome of the heat-operator congruence criterion for one (p, b)."""
    p: int
    b: int
    holds: bool
    witness: tuple | None
    criterion_weight: int
    method: str

    def to_json(self):
        return {"p": self.p, "b": self.b,
                "verdict": "holds" if self.holds else "fails",
                "witness": list(self.witness) if self.witness else None,
                "criterion_weight": self.criterion_weight, "method": self.method}


def criterion_weight(k, p, b):
    """Weight of the form whose vanishing mod p decides the congruence of a
    weight-k form at b: k + (p+1)^2/2 for b != 0 mod p (heat and theta
    criteria), k + p^2 - 1 for b = 0 (heat-cycle closure, sieve identity)."""
    return k + (p + 1) * (p + 1) // 2 if b % p else k + p * p - 1


def jac_congruence(phi, b, gens=None):
    """Decide the Ramanujan-type congruence of phi at b mod p.

    For b not divisible by p this tests the (p+1)/2-fold heat iterate against
    the Legendre-signed single iterate; for b == 0 it compares the (p-1)-fold
    iterate with phi itself.
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("jac_congruence needs a prime-field form")
    p = phi.ring.p
    k, m = phi.weight, phi.index
    b %= p
    kz = criterion_weight(k, p, b)
    method = "heat-criterion" if b else "heat-cycle-closure"
    need = zero_test_required_prec(kz, m)
    if phi.prec < need:
        raise PrecisionError(f"congruence test needs precision {need}",
                             required=need, available=phi.prec)
    if b:
        l1 = heat(phi)
        lh = heat_iterate(l1, (p + 1) // 2 - 1)
        combo = _combine(lh, l1, legendre(b, p), kz)
    else:
        lp = heat_iterate(phi, p - 1)
        combo = _combine(lp, phi, p - 1, kz)  # lp - phi
    holds = jac_zero_test(combo, gens=gens)
    witness = None
    if not holds:
        _, witness = jac_direct_scan(phi, p, b)
    return JacobiCongruence(p=p, b=b, holds=holds, witness=witness,
                            criterion_weight=kz, method=method)


def jac_direct_scan(phi, p, b):
    """Necessary-condition scan of the stored window.

    Returns (clean, witness): witness is the first stored (n, r), r >= 0, in
    vector order with discriminant congruent to b and a nonvanishing
    coefficient mod p.
    """
    idx = phi.idx
    keys = np.flatnonzero(idx.D % p == b % p)
    vals = phi.coeffs[keys]
    if isinstance(phi.ring, FpRing):
        vals = vals % p
    else:
        vals = np.array([phi.ring.reduce(v, p) for v in vals.tolist()], dtype=object)
    hit = keys[np.flatnonzero(vals != 0)]
    if not len(hit):
        return True, None
    return False, (int(idx.n[hit[0]]), int(idx.r[hit[0]]))


def nonexistence_applies(k, m, p, b, phi, gens=None):
    """Hypotheses of the non-existence criterion: k >= 4, b != 0, p > k, p ∤ m,
    and the heat image of phi is nonzero mod p.  When true, jac_congruence
    must report a failure."""
    if k < 4 or b % p == 0 or p <= k or m % p == 0:
        return False
    return not jac_zero_test(heat(phi), gens=gens)


# -- holomorphic bases, filtrations, heat cycles --------------------------------------

_holo_cache = {}


def _shift_index(idx):
    """Gather index for q^s times a form, s = 0..prec: entry [s, key] points
    into the form's vector with one zero appended."""
    src = idx.n - np.arange(len(idx.bound))[:, None]       # the q-row n - s a key reads
    ok = (src >= 0) & (idx.r <= idx.bound[src.clip(0)])
    return np.where(ok, idx.start[src.clip(0)] + idx.r, idx.size)


class HoloBasis(Sequence):
    """The echelon basis holo_basis returns: a read-only matrix whose row i is
    the coefficient vector of basis form i, and its pivot columns.  Item i is
    the form on row i."""

    def __init__(self, ring, weight, index, prec, matrix, pivots):
        self.ring, self.weight, self.index, self.prec = ring, weight, index, prec
        self.matrix, self.pivots = matrix, np.array(pivots, dtype=np.intp)
        self.matrix.flags.writeable = self.pivots.flags.writeable = False

    def __len__(self):
        return len(self.pivots)

    def __getitem__(self, i):
        return JacobiFormSeries(self.ring, self.weight, self.index, self.prec, self.matrix[i])


def holo_basis(k, m, prec, p):
    """Echelonized mod-p basis of the holomorphic weight-k, index-m space.

    The candidates f * w_{-2}^j w_0^{m-j}, f in mk_basis(k + 2j), form one
    matrix C over the keys (n, r), r >= 0, of the coefficient vector: for
    each weak monomial, F @ (the monomial moved down s = 0..prec q-rows), F
    the matrix of those f.  The kernel of C's columns with 4nm - r^2 < 0
    gives the holomorphic combinations, whose rows are row reduced.  The
    echelon rows and pivots are memoized per (k, m, prec, p), read-only.

    Exactness: an int64 product of residues with inner length L is exact while
    L (p - 1)^2 < 2^63, which holds for every fits64 prime (p < 2^21) at any
    window below 2^21 rows; larger primes multiply Python ints (dtype=object).
    """
    key = (k, m, prec, p)
    hit = _holo_cache.get(key)
    if hit is not None:
        return hit
    ring = ring_from_tag(f"fp:{p}")
    gens = weak_generators(prec, ring)
    dtype = ring.dtype
    idx = jacobi_index(m, prec)
    shift = _shift_index(idx)
    blocks = []
    for j in range(m + 1):
        w = k + 2 * j
        basis = [] if w % 2 else mk_basis(w, prec, ring)
        if basis:
            f = np.array([b.coeff_list() for b in basis], dtype=dtype)
            mono = np.append(_weak_monomial(gens, j, m - j, prec).coeffs, 0)
            blocks.append(f @ mono[shift] % p)
    out = HoloBasis(ring, k, m, prec, np.zeros((0, idx.size), dtype), [])
    if blocks:
        cand = np.concatenate(blocks)
        combos = kernel_basis(FpMatrix(p, cand[:, idx.D < 0].T))
        if combos:
            red, rank, pivots = rref(FpMatrix(p, np.array(combos, dtype=dtype) @ cand % p))
            out = HoloBasis(ring, k, m, prec, red.data[:rank].astype(dtype), pivots)
    _holo_cache[key] = out
    return out


def _filtration_window(kp, m, p):
    """Rows filtration decides membership on at candidate weight kp: the
    candidate-space dimension bound plus m + 6, or 0 if that bound is 0."""
    udim = sum(mk_dim(kp + 2 * j, p) for j in range(m + 1))
    return udim + m + 1 + 5 if udim else 0


def filtration(phi):
    """The mod-p filtration: least k' = k mod (p-1), 0 <= k' <= k, whose
    holomorphic space contains phi mod p.  Returns -inf for the zero form.

    Membership is decided on a window widened beyond the candidate-space
    dimension to guard against truncation false-positives, by reduction
    against the memoized echelon rows R of holo_basis with pivots piv: the
    vector v is in the span iff (v - v[piv] @ R) % p is zero.  The
    product is exact under the int64 bound stated in holo_basis.
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("filtration needs a prime-field form")
    p = phi.ring.p
    if phi.is_zero_window():
        return NEG_INF
    k, m = phi.weight, phi.index
    base = k % (p - 1)
    cands = list(range(base, k + 1, p - 1))
    if not cands:
        cands = [k]
    for kp in cands:
        win = _filtration_window(kp, m, p)
        if not win:
            continue
        if phi.prec < win:
            raise PrecisionError(f"filtration at candidate weight {kp} needs precision {win}",
                                 required=win, available=phi.prec)
        basis = holo_basis(kp, m, win, p)
        if not basis:
            continue
        v = phi.at_prec(win)
        if not np.any((v - v[basis.pivots] @ basis.matrix) % p):
            return kp
    raise InvalidArgumentError(
        f"form is not in the holomorphic mod-{p} span at any weight <= {k}")


def filtration_required_prec(k, m, p):
    """Precision sufficient for every filtration call on weights <= k."""
    best = 0
    for kp in range(k % (p - 1), k + 1, p - 1):
        best = max(best, _filtration_window(kp, m, p), m + 1 + 5)
    return best


@dataclass
class HeatCycleReport:
    """Filtration walk of the p-1 heat iterates of a form."""
    p: int
    weight: int
    index: int
    status: str                      # "ok" | "degenerate" | "theory-silent"
    filtrations: list = field(default_factory=list)   # Omega(L^i phi), i = 1..p-1
    high_points: list = field(default_factory=list)   # iterate indices i
    low_points: list = field(default_factory=list)
    falls: dict = field(default_factory=dict)         # i -> fall size s

    def to_json(self):
        return {"p": self.p, "weight": self.weight, "index": self.index,
                "status": self.status, "filtrations": self.filtrations,
                "high_points": self.high_points, "low_points": self.low_points,
                "falls": {str(k): v for k, v in self.falls.items()}}


def heat_cycle_required_prec(k, m, p):
    need = zero_test_required_prec(k + p + 1, m)
    for i in range(1, p):
        need = max(need, filtration_required_prec(k + i * (p + 1), m, p))
    return need


def heat_cycle(phi, gens=None):
    """Filtrations, high points, low points and fall sizes of the heat cycle.

    Refuses to interpret the cycle when p divides the index (the filtration
    step law degenerates there): the report is returned with status
    "theory-silent".  A vanishing heat image yields status "degenerate".
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("heat_cycle needs a prime-field form")
    p = phi.ring.p
    k, m = phi.weight, phi.index
    rep = HeatCycleReport(p=p, weight=k, index=m, status="ok")
    if m % p == 0:
        rep.status = "theory-silent"
        return rep
    it = heat(phi)
    if jac_zero_test(it, gens=gens):
        rep.status = "degenerate"
        return rep
    oms = []
    cur = it
    for i in range(1, p):
        oms.append(filtration(cur))
        if i < p - 1:
            cur = heat(cur)
    rep.filtrations = oms
    half = (p + 1) // 2 % p
    for i in range(1, p):
        om = oms[i - 1]
        if om % p == half:
            rep.high_points.append(i)
            nxt = oms[i] if i < p - 1 else oms[0]    # L^p phi == L phi
            s, rem = divmod(om + p + 1 - nxt, p - 1)
            if rem:
                raise InvalidArgumentError(
                    f"heat-cycle step at i={i} violates the fall law: "
                    f"{om} -> {nxt} (mod p={p})")
            rep.falls[i] = s
            rep.low_points.append(i + 1 if i < p - 1 else 1)
    return rep
