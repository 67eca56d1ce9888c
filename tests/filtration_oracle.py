"""All-monomial level-1 bases, per-form holomorphic Jacobi bases, the
window filtration and the bisection filtration, kept as test oracles.

`mk_basis` row reduces every monomial E4^a E6^b Delta^c of weight k, not only
the triangular set `siegelcong.qexp.mk_basis` uses.  `holo_basis` builds each
candidate f * w_{-2}^j w_0^{m-j} as a form with `qseries_times_jacobi`, reads
every coefficient one by one, imposes the negative-discriminant conditions
and assembles the surviving combinations form by form; `filtration` decides
membership with `linalg.membership` on the first `filtration_window` rows, a
margin beyond the candidate-space dimension that guards against truncation
but is no theorem.  None of them uses the packed-key matrices of
`siegelcong.jacobi` or its weak decomposition.

`bisection_filtration` is the Sturm-row filtration that `siegelcong.jacobi`
computed before the valuation: it shares the weak decomposition and the
triangular bases of `siegelcong.qexp`, and bisects over the candidate
weights for the least one holding every component (`least_member`,
`in_weight`), membership being monotone in the weight since E_{p-1} = 1
mod p.
"""

from fractions import Fraction
from math import isqrt

import numpy as np

from siegelcong import qexp
from siegelcong.errors import InvalidArgumentError, PrecisionError
from siegelcong.jacobi import (NEG_INF, JacobiFormSeries, _sturm_rows, jac_mul,
                               qseries_times_jacobi, rbound, weak_decompose, weak_generators,
                               zero_test_required_prec)
from siegelcong.linalg import FpMatrix, kernel_basis, membership, rref
from siegelcong.qexp import convolve_trunc, mk_dim
from siegelcong.ring import FpRing, exact_product, int64_qmax, ring_from_tag

from jacobi_checks import combine
from qexp_checks import delta_q, eisenstein_q


def weight_monomials(k):
    """Exponent triples (a, b, c) with 4a + 6b + 12c = k."""
    out = []
    for c in range(k // 12 + 1):
        rem = k - 12 * c
        for b in range(rem // 6 + 1):
            rest = rem - 6 * b
            if rest % 4 == 0:
                out.append((rest // 4, b, c))
    return out


def rref_exact(mat):
    """Gauss-Jordan over Q on a list-of-lists of Fractions; returns (rows, pivots)."""
    mat = [list(r) for r in mat]
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        sel = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:len(pivots)], pivots


def power(ring, f, e):
    """f^e for a coefficient vector f, to its precision, one product at a time."""
    out = ring.zeros(len(f))
    out[0] = ring.one
    for _ in range(e):
        out = convolve_trunc(ring, out, f, len(f))
    return out


def mk_basis(k, prec, ring):
    """Reduced echelon basis of the span of every weight-k monomial, as a
    list of coefficient vectors."""
    if k < 0:
        return []
    monos = weight_monomials(k)
    if not monos:
        return []
    e4, e6, dl = eisenstein_q(4, prec, ring), eisenstein_q(6, prec, ring), delta_q(prec, ring)
    n = prec + 1
    series = [convolve_trunc(ring, convolve_trunc(ring, power(ring, e4, a), power(ring, e6, b), n),
                             power(ring, dl, c), n) for a, b, c in monos]
    if isinstance(ring, FpRing):
        red, rank, _ = rref(FpMatrix(ring.p, [s.tolist() for s in series]))
        rows = [[ring.from_int(v) for v in row] for row in red.tolist()[:rank]]
    else:
        red, _ = rref_exact([[Fraction(v) for v in s.tolist()] for s in series])
        rows = [[ring.from_rational(v) for v in row] for row in red]
    return [np.array(row, dtype=ring.dtype) for row in rows]


def _monomial(gens, j, i, prec):
    out = JacobiFormSeries.zero(gens[0].ring, 0, 0, prec)
    out.coeffs[0] = gens[0].ring.one
    for g in [gens[0]] * j + [gens[1]] * i:
        out = jac_mul(out, g.truncate(prec))
    return out


def form_vector(phi, prec):
    return [phi.c(n, r) for n in range(prec + 1) for r in range(rbound(phi.index, n) + 1)]


def holo_basis(k, m, prec, p):
    """The forms of the echelonized holomorphic weight-k, index-m basis mod p."""
    ring = ring_from_tag(f"fp:{p}")
    gens = weak_generators(prec, ring)
    cands = []
    for j in range(m + 1):
        w = k + 2 * j
        if w < 0 or w % 2:
            continue
        mono = _monomial(gens, j, m - j, prec)
        cands += [qseries_times_jacobi(f, w, mono) for f in mk_basis(w, prec, ring)]
    if not cands:
        return []
    neg_keys = [(n, r) for n in range(prec + 1)
                for r in range(isqrt(4 * n * m) + 1, rbound(m, n) + 1) if 4 * n * m < r * r]
    if neg_keys:
        combos = kernel_basis(FpMatrix(p, [[c.c(n, r) for c in cands] for n, r in neg_keys]))
    else:
        combos = [[int(i == j) for i in range(len(cands))] for j in range(len(cands))]
    if not combos:
        return []
    vecs = []
    for combo in combos:
        acc = JacobiFormSeries.zero(ring, k, m, prec)
        for x, cand in zip(combo, cands):
            acc = combine(acc, cand, x)
        vecs.append(form_vector(acc, prec))
    red, rank, _ = rref(FpMatrix(p, vecs))
    # form_vector lists the keys (n, r >= 0) in the order of JacobiFormSeries.coeffs
    return [JacobiFormSeries(ring, k, m, prec, np.array([ring.from_int(v) for v in vec], dtype=ring.dtype))
            for vec in red.tolist()[:rank]]


def filtration_window(kp, m, p):
    """Rows the window test reads at candidate weight kp: the candidate-space
    dimension bound plus m + 6, or 0 if that bound is 0."""
    udim = sum(mk_dim(kp + 2 * j) for j in range(m + 1))
    return udim + m + 6 if udim else 0


def filtration_required_prec(k, m, p):
    """Rows sufficient for the window test at every candidate weight <= k."""
    return max([filtration_window(kp, m, p) for kp in range(k % (p - 1), k + 1, p - 1)] + [m + 6])


def heat_cycle_window_prec(k, m, p):
    """Rows sufficient for the window test on every heat iterate of a form of
    weight k and index m mod p, and for the zero test of its first image."""
    return max([zero_test_required_prec(k + p + 1, m)]
               + [filtration_required_prec(k + i * (p + 1), m, p) for i in range(1, p)])


def filtration(phi):
    """Least k' = k mod (p-1), k' <= k, with phi in the weight-k' basis on its
    window, or None when there is none."""
    p, k, m = phi.ring.p, phi.weight, phi.index
    for kp in range(k % (p - 1), k + 1, p - 1):
        win = filtration_window(kp, m, p)
        if not win:
            continue
        basis = holo_basis(kp, m, win, p)
        if basis and membership(form_vector(phi, win), [form_vector(f, win) for f in basis], p):
            return kp
    return None


def bisection_filtration(phi, hint=None):
    """The least candidate k' = k mod (p-1), 0 <= k' <= k, with every weak
    component f_j of phi in M_{k'+2j} mod p, found by bisection; -inf for
    the zero form.  The candidate at or below `hint` is probed first and
    the one below it second; any hint gives the same result.  Raises as
    `siegelcong.jacobi.filtration` does."""
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
    fs = weak_decompose(phi)
    cands = list(range(k % (p - 1), k + 1, p - 1)) or [k]
    first = least_member(len(cands), lambda i: in_weight(fs, k, cands[i], ring),
                         None if hint is None else sum(kp <= hint for kp in cands) - 1)
    if first is None:
        raise InvalidArgumentError(
            f"form is not in the holomorphic mod-{p} span at any weight <= {k}")
    return cands[first]


def in_weight(fs, k, kp, ring):
    """True iff the weak components fs of a holomorphic form of weight k mod
    p each lie in M_{kp+2j} mod p: f_j less its reduction f_j[piv] @ R
    against the echelon basis R of M_{kp+2j} is a form of M_{k+2j} mod p,
    zero iff its Sturm rows q^0..q^floor((k+2j)/12) are."""
    for j, f in enumerate(fs):
        rows = _sturm_rows(k + 2 * j, len(f))
        basis = qexp.mk_basis(kp + 2 * j, len(f) - 1, ring)
        piv = np.argmax(basis != 0, axis=1)          # unit pivots (mk_basis)
        red = exact_product(ring, f[piv], basis[:, :rows], lambda x, y, q: x @ y % q,
                            len(piv), int64_qmax(len(piv)))
        if np.any(ring.canonical(f[:rows] - red)):
            return False
    return True


def least_member(n, member, hint):
    """Least i < n with member(i), or None, for a monotone predicate member.

    hint, if in range, is probed first and hint - 1 second; then the rest is
    bisected.  Index n - 1 is tested only when every index below it fails.
    """
    lo, hi, known = 0, n - 1, False     # the answer, if any, is in [lo, hi]
    if hint is not None:
        for i in (hint, hint - 1):
            if lo <= i < hi:
                if member(i):
                    hi, known = i, True
                else:
                    lo = i + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if member(mid):
            hi, known = mid, True
        else:
            lo = mid + 1
    return hi if n and (known or member(hi)) else None
