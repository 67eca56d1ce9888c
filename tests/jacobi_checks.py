"""Structural checks of Jacobi forms and a product by the definition, kept
as test oracles, and the inverse of the weak decomposition.

The checks, `jac_mul_loop` and `qseries_times_jacobi_loop` read one
coefficient at a time through `JacobiFormSeries.c`, so they share no code
with the vector operations of `siegelcong.jacobi`.
"""

from functools import reduce
from math import isqrt

from siegelcong.jacobi import jac_mul, qseries_times_jacobi


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
