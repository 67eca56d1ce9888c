"""Jacobi forms of even weight as truncated two-variable (q, zeta) series.

Covers the weak index-1 generators built from theta quotients, holomorphic
index-1 generators, products, the heat operator, mod-p filtrations and heat
cycles, and the finite congruence criteria.

Index-1 generators: the coefficients of an index-1 form, weak or holomorphic,
depend only on D = 4n - r^2 (Eichler-Zagier, The Theory of Jacobi Forms,
Thm 2.2).  So phi_{-2,1}, phi_{0,1}, E_{4,1}, E_{6,1}, phi_{10,1} and
phi_{12,1} are each computed as two q-series, their zeta^0 and zeta^1
columns, and the rows are filled from those once; a runtime guard requires
the zeta^2 and zeta^3 columns to agree with them (see weak_generators).

Storage: a form of index m and precision N keeps a dense row for every
0 <= n <= N over the full admissible range |r| <= isqrt(4nm + m^2); for
holomorphic forms the entries with 4nm - r^2 < 0 are zero.  Forms are
immutable values; every operation returns a new form.

The finite zero test mod p routes through the weak-form decomposition and a
level-1 Sturm check on each component.  There is no published Sturm-type
bound at the Jacobi level; this reduction is this library's own construction
(see jac_zero_test and zero_test_required_prec).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import numpy as np

from . import _rows as rows
from .errors import (ArithmeticDomainError, DecompositionError,
                     InvalidArgumentError, PrecisionError, RingMismatchError)
from .linalg import FpMatrix, kernel_basis, rref
from .qexp import QSeries, delta_q, eisenstein_q, elliptic_sturm_zero, eta_pow6, mk_basis, mk_dim
from .ring import FpRing, IntRing, RatRing, legendre, ring_from_tag

NEG_INF = float("-inf")


def rbound(index, n):
    """Largest |r| a weak form of the given index may carry at q^n."""
    return isqrt(4 * n * index + index * index)


class JacobiFormSeries:
    """Truncated expansion sum_{n,r} c(n, r) q^n zeta^r of weight k, index m."""

    __slots__ = ("ring", "weight", "index", "prec", "weak", "rows")

    def __init__(self, ring, weight, index, row_list, weak=False):
        if index < 0:
            raise InvalidArgumentError(f"index must be >= 0, got {index}")
        self.ring = ring
        self.weight = weight
        self.index = index
        self.rows = row_list
        self.prec = len(row_list) - 1
        self.weak = weak

    # -- construction -----------------------------------------------------
    @classmethod
    def zero(cls, ring, weight, index, prec, weak=False):
        rl = [rows.zeros(ring, 2 * rbound(index, n) + 1) for n in range(prec + 1)]
        return cls(ring, weight, index, rl, weak=weak)

    def copy(self):
        return JacobiFormSeries(self.ring, self.weight, self.index,
                                [r.copy() for r in self.rows],
                                weak=self.weak)

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
        b = self.rb(n)
        if abs(r) > b:
            return self.ring.zero
        v = self.rows[n][b + r]
        return int(v) if isinstance(self.ring, FpRing) else v

    def is_zero_window(self):
        return all(rows.is_zero(self.ring, row) for row in self.rows)

    def __eq__(self, other):
        return (isinstance(other, JacobiFormSeries) and self.ring == other.ring
                and self.index == other.index and self.prec == other.prec
                and all(rows.eq(self.ring, a, b) for a, b in zip(self.rows, other.rows)))

    def __repr__(self):
        return (f"JacobiFormSeries({self.ring.tag}, k={self.weight}, m={self.index}, "
                f"N={self.prec}, weak={self.weak})")

    def truncate(self, prec):
        if prec > self.prec:
            raise PrecisionError("cannot extend a truncated form",
                                 required=prec, available=self.prec)
        return JacobiFormSeries(self.ring, self.weight, self.index,
                                self.rows[:prec + 1], weak=self.weak)

    # -- ring-level arithmetic ------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring.tag} vs {other.ring.tag}")
        if self.index != other.index:
            raise InvalidArgumentError(f"index mismatch: {self.index} vs {other.index}")
        return min(self.prec, other.prec)

    def __add__(self, other):
        n = self._check(other)
        w = self.weight if self.weight == other.weight else None
        rl = [rows.add(self.ring, self.rows[i], other.rows[i]) for i in range(n + 1)]
        return JacobiFormSeries(self.ring, w, self.index, rl,
                                weak=self.weak or other.weak)

    def __sub__(self, other):
        n = self._check(other)
        w = self.weight if self.weight == other.weight else None
        rl = [rows.sub(self.ring, self.rows[i], other.rows[i]) for i in range(n + 1)]
        return JacobiFormSeries(self.ring, w, self.index, rl,
                                weak=self.weak or other.weak)

    def scale(self, c):
        c = self.ring.from_int(c) if isinstance(c, int) else c
        rl = [rows.scale(self.ring, r, c) for r in self.rows]
        return JacobiFormSeries(self.ring, self.weight, self.index, rl, weak=self.weak)

    def __neg__(self):
        rl = [rows.neg(self.ring, r) for r in self.rows]
        return JacobiFormSeries(self.ring, self.weight, self.index, rl, weak=self.weak)

    def __mul__(self, other):
        if isinstance(other, JacobiFormSeries):
            return jac_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- specializations --------------------------------------------------------
    def z_restrict(self):
        """The weight-k modular form phi(tau, 0): row sums as a QSeries."""
        vals = np.array([row.sum() for row in self.rows], dtype=self.ring.dtype)
        return QSeries(self.ring, self.ring.canonical(vals), weight=self.weight)

    def reduce_mod(self, p):
        fp = ring_from_tag(f"fp:{p}")
        rl = [rows.reduce_row(self.ring, r, fp) for r in self.rows]
        return JacobiFormSeries(fp, self.weight, self.index, rl, weak=self.weak)

    def to_json(self):
        coeffs = []
        for n in range(self.prec + 1):
            for r in range(self.rb(n) + 1):
                v = self.c(n, r)
                if not self.ring.is_zero(v):
                    coeffs.append([n, r, self.ring.to_token(v)])
        return {"kind": "jacobi", "ring": self.ring.tag, "weight": self.weight,
                "index": self.index, "prec": self.prec, "coeffs": coeffs}

    # -- structural checks (used heavily by the tests) ---------------------------
    def check_symmetry(self):
        for n in range(self.prec + 1):
            for r in range(1, self.rb(n) + 1):
                if not self.ring.is_zero(self.ring.sub(self.c(n, r), self.c(n, -r))):
                    return False
        return True

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
        m = self.index
        for n in range(self.prec + 1):
            for r in range(isqrt(4 * n * m) + 1, self.rb(n) + 1):
                if 4 * n * m - r * r < 0:
                    if not (self.ring.is_zero(self.c(n, r))
                            and self.ring.is_zero(self.c(n, -r))):
                        return False
        return True


def _combine(a, b, coef_b, weight):
    """a + coef_b * b with an explicit result weight (mod-p cross-weight sums)."""
    n = a._check(b)
    ring = a.ring
    cb = ring.from_int(coef_b) if isinstance(coef_b, int) else coef_b
    rl = [rows.add(ring, a.rows[i], rows.scale(ring, b.rows[i], cb)) for i in range(n + 1)]
    return JacobiFormSeries(ring, weight, a.index, rl, weak=a.weak or b.weak)


# -- products ---------------------------------------------------------------------

def jac_mul(a, b):
    """Two-variable Cauchy product; weights and indices add, precision is min."""
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring.tag} vs {b.ring.tag}")
    ring = a.ring
    prec = min(a.prec, b.prec)
    m = a.index + b.index
    w = a.weight + b.weight if a.weight is not None and b.weight is not None else None
    out = []
    for n in range(prec + 1):
        bo = rbound(m, n)
        acc = rows.zeros(ring, 2 * bo + 1)
        for n1 in range(n + 1):
            r1, r2 = a.rows[n1], b.rows[n - n1]
            conv = rows.convolve(ring, r1, r2)
            # centered alignment: conv center = rb_a(n1) + rb_b(n-n1) <= bo
            off = bo - (a.rb(n1) + b.rb(n - n1))
            rows.add_into(ring, acc, off, conv)
        out.append(ring.canonical(acc))
    return JacobiFormSeries(ring, w, m, out, weak=a.weak or b.weak)


def qseries_times_jacobi(f, phi):
    """Multiply a one-variable series into a Jacobi form (q-direction only)."""
    if f.ring != phi.ring:
        raise RingMismatchError(f"{f.ring.tag} vs {phi.ring.tag}")
    ring = phi.ring
    prec = min(f.prec, phi.prec)
    w = None
    if f.weight is not None and phi.weight is not None:
        w = f.weight + phi.weight
    # column-major: each zeta-power is one q-convolution
    big = rbound(phi.index, prec)
    dense = np.full((prec + 1, 2 * big + 1), ring.zero, dtype=ring.dtype)
    for n in range(prec + 1):
        b = phi.rb(n)
        dense[n, big - b:big + b + 1] = phi.rows[n][:2 * b + 1]
    fv = f.coeffs[:prec + 1]
    for c in range(2 * big + 1):
        col = dense[:, c]
        if not np.any(col):
            continue
        dense[:, c] = ring.canonical(np.convolve(fv, col)[:prec + 1])
    out = [dense[n, big - phi.rb(n):big + phi.rb(n) + 1].copy()
           for n in range(prec + 1)]
    return JacobiFormSeries(ring, w, phi.index, out, weak=phi.weak)


def heat(phi):
    """Apply the index-m heat operator: c(n, r) -> (4nm - r^2) c(n, r).

    Over a prime field the weight annotation increases by p + 1 (the mod-p
    weight of the image); over exact rings the annotation is left unchanged.
    """
    ring = phi.ring
    m = phi.index
    out = []
    for n in range(phi.prec + 1):
        b = phi.rb(n)
        r = np.arange(-b, b + 1)
        out.append(ring.canonical(phi.rows[n] * (4 * n * m - r * r).astype(ring.dtype)))
    w = phi.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + ring.p + 1
    return JacobiFormSeries(ring, w, m, out, weak=phi.weak)


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


def _theta_square_column(c, n, sign, expo):
    """x^0..x^{n-1} at zeta^c of (sum_{j in Z} sign^j x^{expo(j)} zeta^j)^2, as ints.

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
    return out


def _theta_square_at_one(ring, n, expo):
    """(sum_{j in Z} x^{expo(j)})^2 to n terms: the theta square at zeta = 1."""
    theta = [0] * n
    reach = isqrt(2 * n) + 2
    for j in range(-reach, reach + 1):
        if expo(j) < n:
            theta[expo(j)] += 1
    theta = rows.from_ints(ring, theta)
    return rows.convolve_trunc(ring, theta, theta, n)


def _column_factors(prec, ring):
    """The q-series that map theta-square columns to generator columns.

    1/eta^6 for weight -2; for weight 0, 1/S2(q, 1) for piece 1 and, per
    zeta-parity, the factor of the folded theta_3^2 column for pieces 2+3.
    """
    n = prec + 1
    inv_eta6 = eta_pow6(prec, ring).inverse().coeffs
    inv_s2 = rows.invert_series(ring, _theta_square_at_one(ring, n, _tri), n)
    # pieces 2+3 combined: 2(Ee - Oo)/(e^2 - o^2) over Q = q^{1/2}, where e and
    # o are the even and odd Q-powers of theta_3(Q)^2 reindexed to integral q
    t3 = _theta_square_at_one(ring, 2 * n, _square)
    e_q, o_q = t3[0::2], t3[1::2]
    denom = rows.sub(ring, rows.convolve_trunc(ring, e_q, e_q, n),
                     _shift_row(ring, rows.convolve_trunc(ring, o_q, o_q, n), 1, n))
    inv_denom = rows.invert_series(ring, denom, n)
    even = rows.scale(ring, rows.convolve_trunc(ring, e_q, inv_denom, n), ring.from_int(2))
    odd = rows.scale(ring, _shift_row(ring, rows.convolve_trunc(ring, o_q, inv_denom, n), 1, n),
                     ring.from_int(-2))
    return inv_eta6, inv_s2, (even, odd)


def _weak_column(c, prec, ring, factors):
    """The zeta^c columns of phi_{-2,1} and phi_{0,1}, to q^prec."""
    n = prec + 1
    inv_eta6, inv_s2, folded = factors
    # weight -2: zeta * theta_red^2 / eta^6  (fractional powers cancel)
    th2 = rows.from_ints(ring, _theta_square_column(c - 1, n, -1, _tri))
    wm2 = rows.convolve_trunc(ring, th2, inv_eta6, n)
    # weight 0, piece 1: zeta * S2 / S2(q, 1) from the even theta pair
    s2 = rows.from_ints(ring, _theta_square_column(c - 1, n, 1, _tri))
    a2 = rows.convolve_trunc(ring, s2, inv_s2, n)
    # pieces 2+3: odd zeta-powers must sit on odd Q-powers, even on even
    par = c % 2
    t3 = _theta_square_column(c, 2 * n, 1, _square)
    if any(t3[1 - par::2]):
        raise ArithmeticDomainError("theta square breaks the parity coupling")
    a34 = rows.convolve_trunc(ring, rows.from_ints(ring, t3[par::2]), folded[par], n)
    return wm2, rows.scale(ring, rows.add(ring, a2, a34), ring.from_int(4))


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
        return tuple(tuple(rows.read_only(rows.from_ints(ring, [ring.from_rational(v) for v in h]))
                           for h in gen) for gen in _weak_columns(prec, ring_from_tag("rat")))
    n = prec + 1
    factors = _column_factors(prec, ring)
    cols = [_weak_column(c, prec, ring, factors) for c in range(4)]
    gens = []
    for g in range(2):
        h0, h1, h2, h3 = (col[g] for col in cols)
        if not (rows.eq(ring, h2, _shift_row(ring, h0, 1, n))
                and rows.eq(ring, h3, _shift_row(ring, h1, 2, n))):
            raise ArithmeticDomainError(
                "zeta^2 and zeta^3 columns break the index-1 discriminant law")
        gens.append(tuple(rows.read_only(h) for h in (h0, h1)))
    return tuple(gens)


def _shift_row(ring, row, k, n):
    out = rows.zeros(ring, n)
    rows.add_into(ring, out, k, row[:max(0, n - k)])
    return ring.canonical(out)


def _index1_form(ring, weight, cols, weak):
    """The index-1 form with zeta^0 and zeta^1 columns cols, rows filled once."""
    h = np.array(cols, dtype=ring.dtype)
    rl = []
    for n in range(h.shape[1]):
        r = np.arange(-rbound(1, n), rbound(1, n) + 1)
        rl.append(h[r & 1, n - r * r // 4])
    return JacobiFormSeries(ring, weight, 1, rl, weak=weak)


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
    verifies integrality.  Results are memoized per ring; a precision below
    one already built is a truncation of it.
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
        num = rows.sub(ring, rows.convolve_trunc(ring, f.coeffs, h0, prec + 1),
                       rows.convolve_trunc(ring, g.coeffs, hm2, prec + 1))
        cols.append([ring.divexact(v, twelve) for v in rows.aslist(ring, num)])
    return _index1_form(ring, k, cols, weak=False)


def jacobi_cusp(k, prec, ring):
    """The index-1 cusp generators Delta*phi_{-2,1} (k=10), Delta*phi_{0,1} (k=12)."""
    if k not in (10, 12):
        raise InvalidArgumentError(f"jacobi_cusp supports k in (10, 12), got {k}")
    wm2, w0 = _weak_columns(prec, ring)
    d = delta_q(prec, ring).coeffs
    cols = [rows.convolve_trunc(ring, d, h, prec + 1) for h in (wm2 if k == 10 else w0)]
    return _index1_form(ring, k, cols, weak=False)


# -- decomposition over the weak generators ----------------------------------------

def _divide_by_weak_m2(psi, w_m2):
    """Exact division by the weight -2 generator; index drops by one.

    Row-by-row synthetic division by the leading row zeta - 2 + zeta^{-1} =
    zeta^{-1} (zeta - 1)^2; any residual means the input was not divisible.
    """
    ring = psi.ring
    mu = psi.index
    if mu < 1:
        raise DecompositionError("cannot divide an index-0 form by the weak generator")
    prec = min(psi.prec, w_m2.prec)
    out = JacobiFormSeries.zero(ring, None if psi.weight is None else psi.weight + 2,
                                mu - 1, prec, weak=True)
    for n in range(prec + 1):
        bt = psi.rb(n)
        t = psi.rows[n].copy()
        for i in range(1, n + 1):
            conv = rows.convolve(ring, w_m2.rows[i], out.rows[n - i])
            off = bt - (w_m2.rb(i) + rbound(mu - 1, n - i))
            neg = rows.neg(ring, conv)
            rows.add_into(ring, t, off, neg)
        t = ring.canonical(t)
        # t spans r in [-bt, bt]; quotient row spans [-bt+1, bt-1] before clipping
        u = _div_by_sq(ring, t)
        bo = out.rb(n)
        row = rows.zeros(ring, 2 * bo + 1)
        for idx, v in enumerate(rows.aslist(ring, u)):
            r = idx - (bt - 1)
            if ring.is_zero(v):
                continue
            if abs(r) > bo:
                raise DecompositionError(
                    f"row q^{n}: quotient support |r|={abs(r)} exceeds index-{mu-1} bound")
            row[bo + r] = v
        out.rows[n] = ring.canonical(row)
    return out


def _div_by_sq(ring, t):
    """Divide the centered Laurent row t by [1, -2, 1]; error on any remainder."""
    lt = len(t)
    if lt < 3:
        if rows.is_zero(ring, t):
            return rows.zeros(ring, 1)
        raise DecompositionError("row too short to be divisible")
    vals = rows.aslist(ring, t)
    u = [ring.zero] * (lt - 2)
    prev2 = prev = ring.zero
    for i in range(lt - 2):
        v = ring.add(vals[i], ring.sub(ring.mul(ring.from_int(2), prev), prev2))
        u[i] = v
        prev2, prev = prev, v
    # t[lt-2] = -2 u[lt-3] + u[lt-4] and t[lt-1] = u[lt-3] must close exactly
    um1 = u[lt - 3] if lt >= 3 else ring.zero
    um2 = u[lt - 4] if lt >= 4 else ring.zero
    chk1 = ring.sub(vals[lt - 2], ring.sub(um2, ring.mul(ring.from_int(2), um1)))
    chk2 = ring.sub(vals[lt - 1], um1)
    if not (ring.is_zero(chk1) and ring.is_zero(chk2)):
        raise DecompositionError("division by the weak generator left a residual")
    return np.array(u, dtype=ring.dtype)


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
        f = _index0_to_qseries(phi)
        return [f]
    if gens is None:
        gens = weak_generators(phi.prec, ring)
    w_m2, w_0 = gens
    if w_m2.prec < phi.prec:
        raise PrecisionError("generator precision below form precision",
                             required=phi.prec, available=w_m2.prec)
    pow0 = [JacobiFormSeries.zero(ring, 0, 0, phi.prec)]
    pow0[0].rows[0][0] = ring.one
    for _ in range(m):
        pow0.append(jac_mul(pow0[-1], w_0.truncate(phi.prec)))
    fs = []
    cur = phi
    inv12 = ring.inv(ring.from_int(12))
    for mu in range(m, 0, -1):
        f = cur.z_restrict()
        f = f.scale(ring.pow(inv12, mu))
        f.weight = cur.weight
        fs.append(f)
        rem = cur - qseries_times_jacobi(f, pow0[mu])
        rem.weight = cur.weight
        cur = _divide_by_weak_m2(rem, w_m2.truncate(phi.prec))
    fs.append(_index0_to_qseries(cur))
    return fs


def _cast_form_rat(phi):
    rat = ring_from_tag("rat")
    rl = [np.array([Fraction(v) for v in row.tolist()], dtype=object) for row in phi.rows]
    return JacobiFormSeries(rat, phi.weight, phi.index, rl, weak=phi.weak)


def _index0_to_qseries(phi):
    ring = phi.ring
    vals = []
    for n in range(phi.prec + 1):
        row = rows.aslist(ring, phi.rows[n])
        mid = phi.rb(n)
        for idx, v in enumerate(row):
            if idx != mid and not ring.is_zero(v):
                raise DecompositionError("index-0 residue carries zeta-dependence; "
                                         "input not in the weak span")
        vals.append(row[mid])
    return QSeries(ring, np.array(vals, dtype=ring.dtype), weight=phi.weight)


def reconstruct_weak(fs, index, gens):
    """Inverse of weak_decompose: sum f_j w{-2}^j w{0}^{m-j}."""
    w_m2, w_0 = gens
    prec = min(min(f.prec for f in fs), w_m2.prec)
    ring = w_m2.ring
    acc = None
    for j, f in enumerate(fs):
        mono = _weak_monomial(gens, j, index - j, prec)
        term = qseries_times_jacobi(f.truncate(prec), mono)
        acc = term if acc is None else _combine(acc, term, 1, None)
    return acc


_mono_cache = {}


def _weak_monomial(gens, j, i, prec):
    """w_{-2}^j w_0^i to q^prec; memoized per (ring, j, i) at the largest
    precision built, smaller precisions are truncations of it."""
    w_m2, w_0 = gens
    key = (w_m2.ring.tag, j, i)
    hit = _mono_cache.get(key)
    if hit is not None and hit.prec >= prec:
        return hit.truncate(prec)
    if j + i == 0:
        out = JacobiFormSeries.zero(w_m2.ring, 0, 0, prec)
        out.rows[0][0] = w_m2.ring.one
    elif j + i == 1:
        out = (w_m2 if j else w_0).truncate(prec)
    elif j > 0:
        out = jac_mul(_weak_monomial(gens, j - 1, i, prec), w_m2.truncate(prec))
    else:
        out = jac_mul(_weak_monomial(gens, j, i - 1, prec), w_0.truncate(prec))
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
    if b:
        kz = k + (p + 1) * (p + 1) // 2
        method = "heat-criterion"
    else:
        kz = k + p * p - 1
        method = "heat-cycle-closure"
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

    Returns (clean, witness): witness is the first stored (n, r) with
    discriminant congruent to b and a nonvanishing coefficient mod p.
    """
    m = phi.index
    b %= p
    for n in range(phi.prec + 1):
        for r in range(phi.rb(n) + 1):
            if (4 * n * m - r * r) % p != b:
                continue
            v = phi.c(n, r)
            vv = v % p if isinstance(phi.ring, FpRing) else phi.ring.reduce(v, p)
            if vv:
                return False, (n, r)
    return True, None


def nonexistence_applies(k, m, p, b, phi, gens=None):
    """Hypotheses of the non-existence criterion: k >= 4, b != 0, p > k, p ∤ m,
    and the heat image of phi is nonzero mod p.  When true, jac_congruence
    must report a failure."""
    if k < 4 or b % p == 0 or p <= k or m % p == 0:
        return False
    return not jac_zero_test(heat(phi), gens=gens)


# -- holomorphic bases, filtrations, heat cycles --------------------------------------

_holo_cache = {}


def _packed_keys(m, prec):
    """n and r of the keys (n, r), 0 <= r <= rbound(m, n), in _form_vector order."""
    widths = [rbound(m, n) + 1 for n in range(prec + 1)]
    return np.repeat(np.arange(prec + 1), widths), np.concatenate([np.arange(w) for w in widths])


def _form_vector(phi, prec):
    """c(n, r) of phi at the packed keys of _packed_keys(phi.index, prec)."""
    return np.concatenate([row[rbound(phi.index, n):] for n, row in enumerate(phi.rows[:prec + 1])],
                          dtype=phi.ring.dtype)


def _shift_index(ns, rs):
    """Gather index for q^s times a form, s = 0..prec: entry [s, key] points
    into the form's packed vector with one zero appended."""
    width = np.bincount(ns)
    start = np.cumsum(width) - width
    src = ns - np.arange(len(width))[:, None]       # the q-row n - s a key reads
    ok = (src >= 0) & (rs < width[src.clip(0)])
    return np.where(ok, start[src.clip(0)] + rs, len(ns))


class HoloBasis(Sequence):
    """The echelon basis holo_basis returns: read-only rows over the packed keys
    of _packed_keys and their pivot columns.  Item i is built as a form when read."""

    def __init__(self, ring, weight, index, prec, rows, pivots):
        self.ring, self.weight, self.index, self.prec = ring, weight, index, prec
        self.rows, self.pivots = rows, np.array(pivots, dtype=np.intp)
        self.rows.flags.writeable = self.pivots.flags.writeable = False

    def __len__(self):
        return len(self.pivots)

    def __getitem__(self, i):
        return _form_from_vector(self.ring, self.weight, self.index, self.prec, self.rows[i])


def holo_basis(k, m, prec, p):
    """Echelonized mod-p basis of the holomorphic weight-k, index-m space.

    The candidates f * w_{-2}^j w_0^{m-j}, f in mk_basis(k + 2j), form one
    matrix C over the packed keys (n, r), r >= 0: for each weak monomial,
    F @ (the monomial moved down s = 0..prec q-rows), F the matrix of those f.
    The kernel of C's columns with 4nm - r^2 < 0 gives the holomorphic
    combinations, whose rows are row reduced.  The echelon rows and pivots are
    memoized per (k, m, prec, p), read-only; a form is built from a row only
    when the item is read.

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
    ns, rs = _packed_keys(m, prec)
    shift = _shift_index(ns, rs)
    blocks = []
    for j in range(m + 1):
        w = k + 2 * j
        basis = [] if w % 2 else mk_basis(w, prec, ring)
        if basis:
            f = np.array([b.coeff_list() for b in basis], dtype=dtype)
            mono = np.append(_form_vector(_weak_monomial(gens, j, m - j, prec), prec), 0)
            blocks.append(f @ mono[shift] % p)
    out = HoloBasis(ring, k, m, prec, np.zeros((0, len(ns)), dtype), [])
    if blocks:
        cand = np.concatenate(blocks)
        combos = kernel_basis(FpMatrix(p, cand[:, 4 * ns * m < rs * rs].T))
        if combos:
            red, rank, pivots = rref(FpMatrix(p, np.array(combos, dtype=dtype) @ cand % p))
            out = HoloBasis(ring, k, m, prec, red.data[:rank].astype(dtype), pivots)
    _holo_cache[key] = out
    return out


def _form_from_vector(ring, k, m, prec, vec):
    """The form with c(n, r) = c(n, -r) = vec at the packed key (n, r)."""
    rl, start = [], 0
    for n in range(prec + 1):
        half = [int(x) for x in vec[start:start + rbound(m, n) + 1]]
        rl.append(rows.from_ints(ring, half[:0:-1] + half))
        start += len(half)
    return JacobiFormSeries(ring, k, m, rl)


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
    packed vector v is in the span iff (v - v[piv] @ R) % p is zero.  The
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
        v = _form_vector(phi, win) % p
        if not np.any((v - v[basis.pivots] @ basis.rows) % p):
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
