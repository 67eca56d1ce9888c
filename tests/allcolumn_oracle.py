"""All-column construction of the index-1 generators, kept as a test oracle.

Builds phi_{-2,1} from the same theta quotient as `siegelcong.jacobi` and
phi_{0,1} from theta quotients that `siegelcong.jacobi` does not use (it
takes phi_{0,1} as a heat image of phi_{-2,1}).  It materializes every
zeta-column of every theta square and divides each one separately, then
checks the weak support bound coefficient by coefficient.  It does not use
that c(n, r) depends only on 4n - r^2, so it checks the two-column
construction independently of that shortcut.  It keeps every row over the full range -b <= r <= b and checks
that each is symmetric before it stores the r >= 0 half as a form.  The
Eisenstein and cusp generators multiply whole forms with
`qseries_times_jacobi` and divide by 12 coefficient by coefficient.
"""

from fractions import Fraction

import numpy as np

from siegelcong.errors import ArithmeticDomainError
from siegelcong.jacobi import JacobiFormSeries, qseries_times_jacobi, rbound
from siegelcong.qexp import convolve_trunc, eta_pow6, invert_series
from siegelcong.ring import FpRing, IntRing, ring_from_tag

from jacobi_checks import combine
from qexp_checks import delta_q, eisenstein_q


def _theta_pair_columns(prec, sign, ring):
    """Columns of (sum_j s^j q^{j(j+1)/2} zeta^j)^2 with s = -1 or +1."""
    terms = []
    j = 0
    while j * (j + 1) // 2 <= prec:
        t = j * (j + 1) // 2
        # j and -j-1 share the same triangular exponent
        terms.append((t, j, sign ** (j % 2)))
        terms.append((t, -j - 1, sign ** ((j + 1) % 2)))
        j += 1
    cols = {}
    for q1, r1, s1 in terms:
        for q2, r2, s2 in terms:
            q = q1 + q2
            if q > prec:
                continue
            cols.setdefault(r1 + r2, [0] * (prec + 1))[q] += s1 * s2
    return _reduce_columns(ring, cols)


def _theta3_sq_columns(qprec, ring):
    """Columns of (sum_j Q^{j^2} zeta^j)^2 in the half-integral variable Q."""
    terms = [(0, 0)]
    j = 1
    while j * j <= qprec:
        terms.append((j * j, j))
        terms.append((j * j, -j))
        j += 1
    cols = {}
    for q1, r1 in terms:
        for q2, r2 in terms:
            q = q1 + q2
            if q > qprec:
                continue
            cols.setdefault(r1 + r2, [0] * (qprec + 1))[q] += 1
    return _reduce_columns(ring, cols)


def _reduce_columns(ring, cols):
    """Columns of Python ints as vectors over ring, one from_rational each."""
    return {r: np.array([ring.from_rational(v) for v in col], dtype=ring.dtype)
            for r, col in cols.items()}


def _columns_to_form(ring, cols, prec, weight, index):
    """Materialize columns into full rows, checking the weak support bound and
    the symmetry c(n, -r) = c(n, r)."""
    rl = [ring.zeros(2 * rbound(index, n) + 1) for n in range(prec + 1)]
    for r, col in cols.items():
        for n in range(prec + 1):
            v = col[n]
            b = rbound(index, n)
            if abs(r) > b:
                if v:
                    raise ArithmeticDomainError(
                        f"coefficient at (n={n}, r={r}) violates the weak support bound")
                continue
            rl[n][b + r] = v
    for n, row in enumerate(rl):
        assert row.tolist() == row[::-1].tolist(), f"row q^{n} is not symmetric"
    half = np.concatenate([row[rbound(index, n):] for n, row in enumerate(rl)])
    return JacobiFormSeries(ring, weight, index, prec, half)


def _col_convolve(ring, cols, series_row, prec):
    return {r: convolve_trunc(ring, col, series_row, prec + 1)
            for r, col in cols.items()}


def _shift_row(ring, row, k, n):
    out = ring.zeros(n)
    out[k:] = row[:max(0, n - k)]
    return out


def _pack_row(ring, vals):
    if isinstance(ring, FpRing) and ring.fits64:
        return np.array([int(v) % ring.p for v in vals], dtype=np.int64)
    return list(vals)


def _weak_generators_fields(prec, ring):
    # weight -2: zeta * theta_red^2 / eta^6  (fractional powers cancel)
    th2 = _theta_pair_columns(prec, -1, ring)
    eta6_inv = invert_series(ring, eta_pow6(prec, ring), prec + 1)
    cols_m2 = _col_convolve(ring, th2, eta6_inv, prec)
    cols_m2 = {r + 1: col for r, col in cols_m2.items()}
    w_m2 = _columns_to_form(ring, cols_m2, prec, -2, 1)

    # weight 0, piece 1: zeta * S2 / S2(q, 1) from the even theta pair
    s2 = _theta_pair_columns(prec, +1, ring)
    s2_at_1 = ring.zeros(prec + 1)
    for col in s2.values():
        s2_at_1 += col
    s2_at_1 = ring.canonical(s2_at_1)
    inv_s2 = invert_series(ring, s2_at_1, prec + 1)
    a2 = _col_convolve(ring, s2, inv_s2, prec)
    a2 = {r + 1: col for r, col in a2.items()}

    # weight 0, pieces 2+3 combined: 2(Ee - Oo)/(e^2 - o^2) over Q = q^{1/2}
    qprec = 2 * prec + 1
    t3 = _theta3_sq_columns(qprec, ring)
    t3_at_1 = ring.zeros(qprec + 1)
    for col in t3.values():
        t3_at_1 += col
    t3_at_1 = ring.canonical(t3_at_1)
    half = t3_at_1.tolist()
    e_q = _pack_row(ring, [half[2 * t] for t in range(prec + 1)])
    o_q = _pack_row(ring, [half[2 * t + 1] for t in range(prec + 1)])
    ee = convolve_trunc(ring, e_q, e_q, prec + 1)
    oo = convolve_trunc(ring, o_q, o_q, prec + 1)
    denom = ring.canonical(ee - _shift_row(ring, oo, 1, prec + 1))
    inv_denom = invert_series(ring, denom, prec + 1)
    a34 = {}
    for r, col in t3.items():
        par = r % 2
        vals = col.tolist()
        for t, v in enumerate(vals):
            if (t - par) % 2 and v:
                raise ArithmeticDomainError("theta square breaks the parity coupling")
        folded = _pack_row(ring, [vals[2 * t + par] for t in range((qprec - par) // 2 + 1)])
        base = e_q if par == 0 else o_q
        num = convolve_trunc(ring, folded, base, prec + 1)
        if par == 1:
            num = ring.canonical(-_shift_row(ring, num, 1, prec + 1))
        num = ring.canonical(num * ring.from_int(2))
        a34[r] = convolve_trunc(ring, num, inv_denom, prec + 1)

    cols0 = {}
    for src in (a2, a34):
        for r, col in src.items():
            cols0[r] = ring.canonical(cols0[r] + col) if r in cols0 else col.copy()
    cols0 = {r: ring.canonical(col * ring.from_int(4)) for r, col in cols0.items()}
    return w_m2, _columns_to_form(ring, cols0, prec, 0, 1)


# Z is built over F_q for the Mersenne prime q = 2^61 - 1, where the theta
# quotients divide, and lifted back from residues centred in (-q/2, q/2):
# the coefficients the tests reach are far smaller than q/2.
_LIFT = ring_from_tag(f"fp:{2 ** 61 - 1}")


def _lift_form(phi, ring):
    q = _LIFT.p
    vec = np.array([v - q if v > q // 2 else v for v in phi.coeffs.tolist()], dtype=object)
    return JacobiFormSeries(ring, phi.weight, phi.index, phi.prec, vec)


def _scale_divexact(phi, d, weight):
    ring = phi.ring
    vec = np.array([ring.from_rational(Fraction(v, d)) for v in phi.coeffs.tolist()], dtype=ring.dtype)
    return JacobiFormSeries(ring, weight, phi.index, phi.prec, vec)


def weak_generators(prec, ring):
    """(phi_{-2,1}, phi_{0,1}) to q^prec; Z goes through F_q (_LIFT) and back."""
    if isinstance(ring, IntRing):
        a, b = _weak_generators_fields(prec, _LIFT)
        return _lift_form(a, ring), _lift_form(b, ring)
    return _weak_generators_fields(prec, ring)


def jacobi_eisenstein(k, prec, ring):
    w_m2, w_0 = weak_generators(prec, ring)
    e4 = eisenstein_q(4, prec, ring)
    e6 = eisenstein_q(6, prec, ring)
    if k == 4:
        num = combine(qseries_times_jacobi(e4, 4, w_0), qseries_times_jacobi(e6, 6, w_m2), -1)
    else:
        e4sq = convolve_trunc(ring, e4, e4, prec + 1)
        num = combine(qseries_times_jacobi(e6, 6, w_0), qseries_times_jacobi(e4sq, 8, w_m2), -1)
    return _scale_divexact(num, 12, k)


def jacobi_cusp(k, prec, ring):
    w_m2, w_0 = weak_generators(prec, ring)
    out = qseries_times_jacobi(delta_q(prec, ring), 12, w_m2 if k == 10 else w_0)
    return JacobiFormSeries(ring, k, 1, out.prec, out.coeffs)
