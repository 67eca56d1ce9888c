"""Jacobi forms of even weight as truncated two-variable (q, zeta) series.

Covers the index-1 generators, products, the heat operator, the finite
zero test, mod-p filtrations and heat cycles.

Index-1 generators: the coefficients of an index-1 form, weak or holomorphic,
depend only on D = 4n - r^2 (Eichler-Zagier, The Theory of Jacobi Forms,
Thm 2.2).  So phi_{-2,1}, phi_{0,1}, E_{4,1}, E_{6,1}, phi_{10,1} and
phi_{12,1} are each computed as two q-series, their zeta^0 and zeta^1
columns (qexp.index1_columns): phi_{-2,1} from the theta quotient
zeta theta^2 / eta^6, with a runtime guard that its zeta^2 and zeta^3
columns agree with them, phi_{0,1} as the heat image of phi_{-2,1}, and the
holomorphic four from those two (see qexp._weak_columns).  The columns live
in qexp because the Siegel layer reads them too, without loading this
module: the Maass lift reads them directly (siegel.maass_lift).  Here a
form's coefficient vector is gathered from its columns once.

Storage: c(n, -r) = c(n, r) for every even-weight form, so a form of index
m and precision N stores only the half support 0 <= n <= N,
0 <= r <= rbound(m, n) = isqrt(4nm + m^2): one flat vector `coeffs`, ordered
by n, then r, which is also the order of to_json.  The vector of a smaller
precision is a prefix of it.  Its dtype is `ring.dtype` (siegelcong.ring),
and every operation is a numpy expression on it, reduced mod p only over
F_p, with the index arrays of each (index, precision) built once and shared
by every live form of that shape (JacobiIndex).  A product, and the
division by phi_{-2,1}, lay the rows of each full support end to end as one
series and take one series product (jac_mul, _divide_by_weak_m2).
Holomorphic forms are zero at 4nm - r^2 < 0.  Forms are immutable values:
every operation returns a new form, and memoized forms are read-only.

The finite zero test and the filtration mod p route through the weak-form
decomposition: a level-1 Sturm check on each component for the zero test,
the level-1 filtration of each component for the filtration.  There is no
published Sturm-type bound at the Jacobi level; this reduction is this
library's own construction (see jac_zero_test, filtration and
zero_test_required_prec).
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from functools import cached_property
from math import isqrt

import numpy as np

from . import linalg        # lazy module: read its names at call time
from .errors import DecompositionError, InvalidArgumentError, PrecisionError, RingMismatchError
from .expr import Record
from .qexp import (MEMO_BYTES, NEG_INF, BoundedMemo, _read_only, _weak_columns, array_bytes,
                   convolve_trunc, coordinate_matrices, discriminant_series, index1_columns,
                   invert_series, mk_basis, mk_dim, mod_p_filtration)
from .ring import FpRing, exact_product, int64_qmax, ring_from_tag


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
        return _read_only(self.n * (4 * self.m) - self.r * self.r)


_indexes = weakref.WeakValueDictionary()


def jacobi_index(m, prec):
    """The JacobiIndex of index m and precision prec.  Every form holds its
    own and the memo keeps one only while a form does."""
    idx = _indexes.get((m, prec))
    if idx is None:
        idx = _indexes[m, prec] = JacobiIndex(m, prec)
    return idx


class JacobiFormSeries:
    """Truncated expansion sum_{n,r} c(n, r) q^n zeta^r of weight k, index m.

    coeffs is the half-support vector described in the module docstring.
    """

    __slots__ = ("ring", "weight", "index", "prec", "coeffs", "idx", "_parts")

    def __init__(self, ring, weight, index, prec, coeffs):
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
        self._parts = None      # weak_decompose(self), once asked for

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, ring, weight, index, prec):
        return cls(ring, weight, index, prec, ring.zeros(jacobi_index(index, prec).size))

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
                f"N={self.prec})")

    def at_prec(self, prec):
        """The coefficient vector truncated to precision prec <= self.prec: a prefix."""
        return self.coeffs[:self.idx.start[prec + 1]]

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot extend a truncated form",
                                 required=prec, available=self.prec)
        return JacobiFormSeries(self.ring, self.weight, self.index, prec, self.at_prec(prec))

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
                                self.ring.canonical(self.coeffs * c))

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, JacobiFormSeries):
            return jac_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- specializations --------------------------------------------------------
    def z_restrict(self):
        """The coefficient vector of the weight-k modular form
        phi(tau, 0) = sum_r c(n, r): c(n, 0) plus twice the c(n, r) with r > 0."""
        idx = self.idx
        twice = np.where(idx.r > 0, 2, 1).astype(self.ring.dtype)
        return self.ring.canonical(np.add.reduceat(self.coeffs * twice, idx.start[:-1]))

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        return JacobiFormSeries(fp, self.weight, self.index, self.prec,
                                self.ring.reduce_vector(self.coeffs, fp))

    def to_json(self):
        idx = self.idx
        nz = np.flatnonzero(self.coeffs != 0)
        coeffs = [[n, r, t] for n, r, t in zip(idx.n[nz].tolist(), idx.r[nz].tolist(),
                                                self.coeffs[nz].tolist())]
        return {"kind": "jacobi", "ring": self.ring.tag, "weight": self.weight,
                "index": self.index, "prec": self.prec, "coeffs": coeffs}


def _combine(a, b, coef_b, weight):
    """a + coef_b * b with an explicit result weight (mod-p cross-weight sums)."""
    n = a._check(b)
    ring = a.ring
    cb = ring.from_int(coef_b) if isinstance(coef_b, int) else coef_b
    vec = ring.canonical(a.at_prec(n) + b.at_prec(n) * cb)
    return JacobiFormSeries(ring, weight, a.index, n, vec)


# -- products ---------------------------------------------------------------------

def _pack(f, prec, offset, stride):
    """The full support of f to q^prec as one series of (prec + 1) * stride
    terms, c(n, r) at n * stride + offset + r for |r| <= rbound(f.index, n)."""
    idx = jacobi_index(f.index, prec)
    out = f.ring.zeros((prec + 1) * stride)
    at = idx.n * stride + offset
    out[at + idx.r] = out[at - idx.r] = f.at_prec(prec)
    return out


def jac_mul(a, b):
    """Two-variable Cauchy product; weights and indices add, precision is min.

    Kronecker packing: with B_a, B_b the bounds rbound of a and b at the
    precision N and stride S = 2(B_a + B_b) + 1, a is packed at offset B_a
    and b at B_b (_pack), and one convolve_trunc of the two to (N + 1) S
    terms holds c(n, r) of the product at n S + B_a + B_b + r.  Rows never
    meet at stride S, since |r| <= B_a + B_b in a product row, and the
    terms past q^N land at or beyond (N + 1) S, so none is read.
    """
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring.tag} vs {b.ring.tag}")
    ring = a.ring
    prec = min(a.prec, b.prec)
    m = a.index + b.index
    w = a.weight + b.weight if a.weight is not None and b.weight is not None else None
    ba, bb = rbound(a.index, prec), rbound(b.index, prec)
    stride = 2 * (ba + bb) + 1
    prod = convolve_trunc(ring, _pack(a, prec, ba, stride), _pack(b, prec, bb, stride),
                          (prec + 1) * stride)
    idx = jacobi_index(m, prec)
    return JacobiFormSeries(ring, w, m, prec, prod[idx.n * stride + ba + bb + idx.r])


def qseries_times_jacobi(f, k, phi):
    """Multiply the coefficient vector f of an elliptic modular form of
    weight k into a Jacobi form (q-direction only): each zeta-power r >= 0 is
    one q-convolution, all of them one convolve_trunc of f with the columns
    laid end to end, each padded to the 2N + 1 terms of its product.  The
    precision N is the smaller of the two."""
    ring = phi.ring
    if f.dtype != ring.dtype:
        raise RingMismatchError(f"a {f.dtype} vector and a {ring.tag} form")
    prec = min(len(f) - 1, phi.prec)
    w = None if phi.weight is None else k + phi.weight
    idx = jacobi_index(phi.index, prec)
    cols = ring.zeros((int(idx.bound[-1]) + 1, 2 * prec + 1))
    cols[idx.r, idx.n] = phi.at_prec(prec)
    cols = convolve_trunc(ring, f[:prec + 1], cols.reshape(-1), cols.size).reshape(cols.shape)
    return JacobiFormSeries(ring, w, phi.index, prec, cols[idx.r, idx.n])


def heat(phi):
    """Apply the index-m heat operator: c(n, r) -> (4nm - r^2) c(n, r).

    Over a prime field the weight annotation increases by p + 1 (the mod-p
    weight of the image); over exact rings the annotation is left unchanged.
    The operator L of PAPER.md, "Heat criterion".
    """
    ring = phi.ring
    vec = ring.canonical(phi.coeffs * phi.idx.D.astype(ring.dtype))
    w = phi.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + ring.p + 1
    return JacobiFormSeries(ring, w, phi.index, phi.prec, vec)


# -- index-1 generators -------------------------------------------------------------

def _index1_form(ring, weight, cols):
    """The index-1 form with zeta^0 and zeta^1 columns cols: one gather by D."""
    prec = len(cols[0]) - 1
    vec = discriminant_series(cols, 4 * prec)[jacobi_index(1, prec).D + 1]
    return JacobiFormSeries(ring, weight, 1, prec, vec)


def weak_generators(prec, ring):
    """The weak index-1 generators phi_{-2,1} and phi_{0,1} of weights -2 and 0.

    q^0 rows are (zeta - 2 + zeta^{-1}) and (zeta + 10 + zeta^{-1}); all
    coefficients are integral.  An index-1 form has c(n, r) depending only on
    D = 4n - r^2, which also fixes r mod 2 (Eichler-Zagier, The Theory of
    Jacobi Forms, Thm 2.2; the proof uses only the elliptic transformation
    law, so weak forms are covered).  Each generator is therefore built from
    its zeta^0 and zeta^1 columns h_0, h_1 alone (see _weak_columns), as
    c(n, r) = h_{r mod 2}[n - floor(r^2/4)], the entry with the same D: one
    read-only gather from the memoized columns for both.
    """
    D = jacobi_index(1, prec).D
    vecs = _read_only(_weak_columns(prec, ring)[:, (D % 4 == 3).astype(int), (D + 1) // 4])
    return tuple(JacobiFormSeries(ring, k, 1, prec, v) for k, v in zip((-2, 0), vecs))


def jacobi_eisenstein(k, prec, ring):
    """Holomorphic index-1 Eisenstein series of weight 4 or 6, c(0,0) = 1
    (see index1_columns)."""
    if k not in (4, 6):
        raise InvalidArgumentError(f"jacobi_eisenstein supports k in (4, 6), got {k}")
    return _index1_form(ring, k, index1_columns(k, prec, ring))


def jacobi_cusp(k, prec, ring):
    """The index-1 cusp generators Delta*phi_{-2,1} (k=10), Delta*phi_{0,1} (k=12)."""
    if k not in (10, 12):
        raise InvalidArgumentError(f"jacobi_cusp supports k in (10, 12), got {k}")
    return _index1_form(ring, k, index1_columns(k, prec, ring))


# -- decomposition over the weak generators ----------------------------------------

def _divide_by_weak_m2(psi, w_m2):
    """Exact division by the weight -2 generator; index drops by one.

    The packing of jac_mul at every index mu >= 1: with B_w, B_u the bounds
    of indices 1 and mu - 1 at the precision N and S = 2(B_w + B_u) + 1,
    psi = w_m2 u packs psi at offset B_w + B_u, w_m2 at B_w and u at B_u.
    Rows never meet at stride S, and the terms past q^N land at or beyond
    (N + 1) S, so the packed psi is the packed product to that many terms.
    The packed w_m2 starts with the zeta^-1 entry 1 of its row
    zeta - 2 + zeta^-1, at B_w - 1; psi's row q^0 spans |r| <= mu, so its
    first B_w - 1 entries are zero as well.  Without them, the quotient is
    one convolve_trunc with the inverse of w_m2 to L = (N + 1) S - B_w + 1
    terms, which cover the packed u; the bounds of any N' >= N serve, with a
    prefix of the inverse to q^N' (_weak_m2_inverse).  The check is an exact
    divisibility test: psi is w_m2 times a form of index mu - 1 to q^N iff
    the quotient is the packing of its own half support, which tests
    support, symmetry and residual, the last row included.
    """
    ring = psi.ring
    mu = psi.index
    if mu < 1:
        raise DecompositionError("cannot divide an index-0 form by the weak generator")
    prec = min(psi.prec, w_m2.prec)
    weight = None if psi.weight is None else psi.weight + 2
    bw, bu, stride, inv = _weak_m2_inverse(w_m2, mu, prec)
    n = (prec + 1) * stride - bw + 1
    quot = convolve_trunc(ring, _pack(psi, prec, bw + bu, stride)[bw - 1:], inv[:n], n)
    idx = jacobi_index(mu - 1, prec)
    u = JacobiFormSeries(ring, weight, mu - 1, prec, quot[idx.n * stride + bu + idx.r])
    if not np.array_equal(quot, _pack(u, prec, bu, stride)[:n]):
        raise DecompositionError("division by the weak generator left a residual")
    return u


_inverse_memo = BoundedMemo(MEMO_BYTES, lambda hit: array_bytes([hit[-1]]))


def _weak_m2_inverse(w_m2, mu, prec):
    """(B_w, B_u, S, read-only inverse) of _divide_by_weak_m2 at index mu and
    some N' >= prec, memoized per (ring, mu) at the largest N' built: w_m2 is
    always phi_{-2,1}, so the key need not name it."""
    key = (w_m2.ring.tag, mu)
    hit = _inverse_memo.get(key)
    if hit is None or hit[0] < prec:
        bw, bu = rbound(1, prec), rbound(mu - 1, prec)
        stride = 2 * (bw + bu) + 1
        unit = _pack(w_m2, prec, bw, stride)[bw - 1:]
        inv = _read_only(invert_series(w_m2.ring, unit, len(unit)))
        hit = _inverse_memo[key] = (prec, bw, bu, stride, inv)
    return hit[1:]


def weak_decompose(phi):
    """Components f_0..f_m with phi = sum f_j w{-2}^j w{0}^{m-j}: the
    coefficient vectors, of length phi.prec + 1, of elliptic modular forms,
    f_j of weight k + 2j for phi of weight k.

    Uses the z = 0 specialization (the weight -2 generator vanishes there and
    the weight 0 one restricts to the constant 12) followed by exact division,
    so each step strips one power of the weight 0 generator.  phi must lie
    over a prime field fp:<p> (InvalidArgumentError otherwise), since the
    components of an integral form need not be integral (f_0 of E_{4,1} is
    E4/12).  They are computed once per form and kept on it, read-only, so
    the zero test and the filtration of one heat iterate share them.
    """
    if phi._parts is None:
        phi._parts = tuple(_read_only(f.view()) for f in _weak_components(phi))
    return list(phi._parts)


def _weak_components(phi):
    ring = phi.ring
    if not isinstance(ring, FpRing):
        raise InvalidArgumentError(f"weak_decompose needs a prime field fp:<p>, not {ring.tag}")
    m = phi.index
    if phi.weight is None:
        raise InvalidArgumentError("weak_decompose needs a weight annotation")
    if m == 0:
        return [phi.coeffs]
    gens = weak_generators(phi.prec, ring)
    fs = []
    cur = phi
    for mu in range(m, 0, -1):
        f = ring.divexact_vector(cur.z_restrict(), 12 ** mu)
        fs.append(f)
        rem = cur - qseries_times_jacobi(f, cur.weight, _weak_monomial(gens, 0, mu, phi.prec))
        cur = _divide_by_weak_m2(rem, gens[0])
    fs.append(cur.coeffs)   # index 0: c(n, 0) only
    return fs


_mono_cache = BoundedMemo(MEMO_BYTES, lambda f: array_bytes([f.coeffs]))


def _weak_monomial(gens, j, i, prec):
    """w_{-2}^j w_0^i to q^prec; memoized per (ring, j, i) at the largest
    precision built, in a BoundedMemo, smaller precisions are truncations of
    it.  The memoized vectors are read-only."""
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


def jac_zero_test(phi):
    """True iff phi == 0 mod p, for phi in the weak span at its annotated weight.

    Decomposes over the weak generators and runs the level-1 Sturm test on
    every component f_j at its own weight w = k + 2j: a form of M_w is zero
    mod p iff its coefficients of q^0..q^floor(w/12) are (the triangular
    basis of mk_basis has its pivots there).  Components at weights with no
    forms must vanish identically on the window.
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("jac_zero_test needs a prime-field form")
    k, m = phi.weight, phi.index
    need = zero_test_required_prec(k, m)
    if phi.prec < need:
        raise PrecisionError(f"zero test at weight {k}, index {m} needs precision {need}",
                             required=need, available=phi.prec)
    return all(not np.any(f[:_sturm_rows(k + 2 * j, len(f))])
               for j, f in enumerate(weak_decompose(phi)))


def _sturm_rows(w, prec_rows):
    """How many leading coefficients decide if a form of M_w is zero mod p:
    floor(w/12) + 1 (Sturm), or all prec_rows when M_w = 0."""
    return w // 12 + 1 if mk_dim(w) else prec_rows


# -- holomorphic bases, filtrations, heat cycles --------------------------------------

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
    """Echelonized mod-p basis of the holomorphic weight-k, index-m space, a
    test reference: filtration decides membership from weak_decompose, and
    the tests check that decision against membership in these bases.

    The candidates f * w_{-2}^j w_0^{m-j}, f in mk_basis(k + 2j), are the
    rows of one matrix over the keys (n, r) (holo_candidates).  In its
    echelon form with the D < 0 columns first, the rows whose pivot lies past
    them vanish on them and span the holomorphic part; one more rref puts
    them in key order.
    """
    ring = ring_from_tag(f"fp:{p}")
    idx = jacobi_index(m, prec)
    cands = holo_candidates(k, m, prec, ring)
    order = np.argsort(idx.D >= 0, kind="stable")          # the keys with D < 0 first
    red, _, piv = linalg.rref(linalg.FpMatrix(p, cands[:, order]))
    past = [i for i, c in enumerate(piv) if idx.D[order[c]] >= 0]
    red, rank, piv = linalg.rref(linalg.FpMatrix(p, red.data[past][:, np.argsort(order)]))
    return HoloBasis(ring, k, m, prec, red.data[:rank].astype(ring.dtype), piv)


def holo_candidates(k, m, prec, ring):
    """The rows f * w_{-2}^j w_0^(m-j), f in mk_basis(k + 2j), j = 0..m, on the
    keys (n, r) of precision prec: one product mk_basis(k + 2j) @ S_j per
    weak monomial, row n1 of S_j the monomial times q^n1."""
    gens = weak_generators(prec, ring)
    idx = jacobi_index(m, prec)
    below = idx.n - np.arange(prec + 1)[:, None]           # S_j[n1, (n, r)] = c(n - n1, r)
    at = np.where((below >= 0) & (idx.r <= idx.bound[below]), idx.start[below] + idx.r, idx.size)
    return np.concatenate([exact_product(ring, mk_basis(k + 2 * j, prec, ring), np.append(
        _weak_monomial(gens, j, m - j, prec).coeffs, 0)[at], lambda x, y, q: x @ y % q,
        prec + 1, int64_qmax(prec + 1)) for j in range(m + 1)])


def filtration(phi):
    """The mod-p filtration: least k' = k mod (p-1), 0 <= k' <= k, whose
    holomorphic space contains phi mod p.  Returns -inf for the zero form.

    phi is decomposed once, phi = sum_j f_j w_{-2}^j w_0^(m-j), and lies in
    the weight-k' space iff every f_j lies in M_{k'+2j} mod p (PAPER.md,
    "Deciding membership"), that is iff k' + 2j is at least the elliptic
    filtration w(f_j) (qexp.mod_p_filtration, one valuation per component).
    So the filtration is max_j (w(f_j) - 2j), clamped to the least
    candidate weight.

    Raises PrecisionError below zero_test_required_prec(k, m) rows, and
    InvalidArgumentError for a form with a nonzero coefficient at D < 0 or
    in no candidate space (its weight annotation is then wrong).
    """
    if not isinstance(phi.ring, FpRing):
        raise InvalidArgumentError("filtration needs a prime-field form")
    ring, p = phi.ring, phi.ring.p
    k, m = phi.weight, phi.index
    need = zero_test_required_prec(k, m)
    if phi.prec < need:
        raise PrecisionError(f"filtration at weight {k}, index {m} needs precision {need}",
                             required=need, available=phi.prec)
    if phi.is_zero_window():
        return NEG_INF
    if np.any(phi.coeffs[phi.idx.D < 0]):
        raise InvalidArgumentError(f"form has a nonzero coefficient mod {p} at D < 0")
    ws = [mod_p_filtration(f, k + 2 * j, ring) for j, f in enumerate(weak_decompose(phi))]
    if None in ws:
        raise InvalidArgumentError(
            f"form is not in the holomorphic mod-{p} span at any weight <= {k}")
    return max(min(k % (p - 1), k), *(w - 2 * j for j, w in enumerate(ws)))


class HeatCycleReport(Record):
    """Filtration walk of the p-1 heat iterates of a form."""
    __slots__ = ("p", "weight", "index", "status", "filtrations", "high_points", "low_points",
                 "falls")

    def __init__(self, p, weight, index, status):
        self.p, self.weight, self.index = p, weight, index
        self.status = status                 # "ok" | "degenerate" | "theory-silent"
        self.filtrations = []                # Omega(L^i phi), i = 1..p-1
        self.high_points = []                # iterate indices i
        self.low_points = []
        self.falls = {}                      # i -> fall size s

    def to_json(self):
        return {"p": self.p, "weight": self.weight, "index": self.index,
                "status": self.status, "filtrations": self.filtrations,
                "high_points": self.high_points, "low_points": self.low_points,
                "falls": {str(k): v for k, v in self.falls.items()}}


def heat_cycle_required_prec(k, m, p):
    """Rows heat_cycle needs for a form of weight k and index m mod p: the
    zero test's at the last iterate's weight k + (p - 1)(p + 1), enough for
    every zero test and filtration of the walk."""
    return zero_test_required_prec(k + (p - 1) * (p + 1), m)


def form_bytes(m, prec):
    """At least the bytes of one int64 form of index m >= 0 to q^prec: its
    sum_{n <= N} (isqrt(4nm + m^2) + 1) keys are at most
    (N+1)(m+1) + (4/3) sqrt(m) (N+1)^(3/2), as sqrt(4nm + m^2) <= 2 sqrt(nm) + m
    and sum_{n <= N} sqrt(n) <= (2/3)(N+1)^(3/2)."""
    n = prec + 1
    return 8 * (n * (m + 1) + isqrt(16 * m * n ** 3) // 3 + 1)


def _coordinate_rows(k, m, p, prec):
    """Rows of the level-1 coordinate matrices a heat cycle of weight k and
    index m mod p builds for a form to q^prec: the Sturm rows of its top
    component weight k + (p - 1)(p + 1) + 2m, capped at the form's."""
    return min(prec, (k + (p - 1) * (p + 1) + 2 * m) // 12) + 1


def heat_cycle_bytes(k, m, p, prec):
    """At least the bytes a heat cycle of weight k and index m mod p holds for
    a form to q^prec, as (one iterate, coordinates): form_bytes, and the four
    n x n int64 matrices of qexp.coordinate_matrices that heat_cycle builds."""
    return form_bytes(m, prec), 32 * _coordinate_rows(k, m, p, prec) ** 2


def heat_cycle(phi):
    """Filtrations, high points, low points and fall sizes of the heat cycle
    (PAPER.md, "Filtration and heat cycle").

    Each iterate L^i phi is truncated to the zero test's rows at its own
    weight, zero_test_required_prec(k + i(p + 1), m), and its filtration is
    read from that one decomposition; the zero test of L phi shares it (kept
    on the form by weak_decompose).  At each high point the fall law is
    checked: Omega(L^(i+1) phi) = Omega(L^i phi) + p + 1 - s (p - 1) for a
    whole s, the fall.

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
    oms = []
    cur = phi
    # the weak monomials, division inverses and level-1 coordinate matrices of
    # the last iterate (top component weight k + (p - 1)(p + 1) + 2m); each iterate reads a prefix
    top = min(phi.prec, zero_test_required_prec(k + (p - 1) * (p + 1), m))
    gens = weak_generators(top, phi.ring)
    _weak_monomial(gens, 0, m, top)
    for mu in range(1, m + 1):
        _weak_m2_inverse(gens[0], mu, top)
    coordinate_matrices(phi.ring, _coordinate_rows(k, m, p, phi.prec))
    for i in range(1, p):
        cur = heat(cur)
        it = cur.truncate(min(cur.prec, zero_test_required_prec(cur.weight, m)))
        if i == 1 and jac_zero_test(it):
            rep.status = "degenerate"
            return rep
        oms.append(filtration(it))
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
