"""Structural checks of Jacobi forms and a product by the definition, kept
as test oracles, the inverse of the weak decomposition, and the Jacobi
congruence criteria that only tests call.

The checks, `jac_mul_loop` and `qseries_times_jacobi_loop` read one
coefficient at a time through `JacobiFormSeries.c`, so they share no code
with the vector operations of `siegelcong.jacobi`.  The criteria
(`jac_congruence`, `jac_direct_scan`, `nonexistence_applies`) encode
PAPER.md's "Heat criterion" and "Non-existence criterion" on top of the
package's heat operator and zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import isqrt

import numpy as np

from siegelcong.errors import InvalidArgumentError, PrecisionError
from siegelcong.jacobi import (_combine, heat, jac_mul, jac_zero_test, qseries_times_jacobi,
                               zero_test_required_prec)
from siegelcong.qexp import criterion_weight
from siegelcong.ring import FpRing, legendre, ring_from_tag


def check_transformation_law(phi):
    """c(n, r) == c(n + r + m, r + 2m) wherever both keys are stored."""
    m = phi.index
    for n in range(phi.prec + 1):
        for r in range(-phi.rb(n), phi.rb(n) + 1):
            n2, r2 = n + r + m, r + 2 * m
            if 0 <= n2 <= phi.prec and abs(r2) <= phi.rb(n2):
                if phi.c(n, r) != phi.c(n2, r2):
                    return False
    return True


def check_holomorphic_support(phi):
    """c(n, r) == 0 wherever 4nm - r^2 < 0."""
    m = phi.index
    return all(phi.c(n, r) == 0
               for n in range(phi.prec + 1)
               for r in range(-phi.rb(n), phi.rb(n) + 1) if 4 * n * m - r * r < 0)


def reconstruct_weak(fs, k, gens):
    """Inverse of `jacobi.weak_decompose`: sum_j f_j w_{-2}^j w_0^{m-j},
    m = len(fs) - 1 >= 1, for coefficient vectors f_j of weight k + 2j and
    gens = (w_{-2}, w_0).  The result has weight k and the least precision
    of its inputs."""
    m = len(fs) - 1
    prec = min(min(len(f) for f in fs) - 1, gens[0].prec)
    w_m2, w_0 = (g.truncate(prec) for g in gens)
    terms = [qseries_times_jacobi(f, k + 2 * j, reduce(jac_mul, [w_m2] * j + [w_0] * (m - j)))
             for j, f in enumerate(fs)]
    return sum(terms[1:], terms[0])


def jac_mul_loop(a, b):
    """The product of two Jacobi forms by the definition, one coefficient
    pair at a time through `JacobiFormSeries.c`: the vector of keys
    (n, r >= 0) in the order of `JacobiFormSeries.coeffs`."""
    ring, prec, m = a.ring, min(a.prec, b.prec), a.index + b.index
    out = {}
    for n1 in range(prec + 1):
        for n2 in range(prec + 1 - n1):
            for r1 in range(-a.rb(n1), a.rb(n1) + 1):
                for r2 in range(-b.rb(n2), b.rb(n2) + 1):
                    key = (n1 + n2, r1 + r2)
                    out[key] = out.get(key, 0) + a.c(n1, r1) * b.c(n2, r2)
    return [ring.from_rational(out.get((n, r), 0)) for n in range(prec + 1) for r in range(isqrt(4 * n * m + m * m) + 1)]


def qseries_times_jacobi_loop(f, phi):
    """The q-series f times the Jacobi form phi by the definition,
    c(n, r) = sum_{n1} f[n1] phi.c(n - n1, r), to the smaller precision: the
    vector of keys (n, r >= 0) in the order of `JacobiFormSeries.coeffs`."""
    ring, prec, m = phi.ring, min(len(f) - 1, phi.prec), phi.index
    return [ring.from_rational(sum(f[n1] * phi.c(n - n1, r) for n1 in range(n + 1)))
            for n in range(prec + 1) for r in range(isqrt(4 * n * m + m * m) + 1)]


def heat_iterate(phi, times):
    for _ in range(times):
        phi = heat(phi)
    return phi


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


def jac_congruence(phi, b):
    """Decide the Ramanujan-type congruence of phi at b mod p.

    For b not divisible by p this tests the (p+1)/2-fold heat iterate against
    the Legendre-signed single iterate; for b == 0 it compares the (p-1)-fold
    iterate with phi itself (PAPER.md, "Heat criterion").
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
    holds = jac_zero_test(combo)
    witness = None
    if not holds:
        _, witness = jac_direct_scan(phi, p, b)
    return JacobiCongruence(p=p, b=b, holds=holds, witness=witness,
                            criterion_weight=kz, method=method)


def jac_direct_scan(phi, p, b):
    """Necessary-condition scan of the stored window.

    Returns (clean, witness): witness is the first stored (n, r), r >= 0, in
    vector order with discriminant congruent to b and a nonvanishing
    coefficient mod p.  The coefficients are reduced into F_p by
    Ring.reduce_vector, which refuses p < 5 and a prime-field form of
    another characteristic.
    """
    idx = phi.idx
    keys = np.flatnonzero(idx.D % p == b % p)
    vals = phi.ring.reduce_vector(phi.coeffs[keys], ring_from_tag(f"fp:{p}"))
    hit = keys[np.flatnonzero(vals != 0)]
    if not len(hit):
        return True, None
    return False, (int(idx.n[hit[0]]), int(idx.r[hit[0]]))


def nonexistence_applies(k, m, p, b, phi):
    """Hypotheses of the non-existence criterion: k >= 4, b != 0, p > k, p ∤ m,
    and the heat image of phi is nonzero mod p.  When true, jac_congruence
    must report a failure (PAPER.md, "Non-existence criterion")."""
    if k < 4 or b % p == 0 or p <= k or m % p == 0:
        return False
    return not jac_zero_test(heat(phi))
