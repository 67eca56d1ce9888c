"""Siegel checks kept as test oracles, and the Siegel helpers only tests use.

The scans read one coefficient at a time through `SiegelFormSeries.a`, so
they share no code with the vector operations of `siegelcong.siegel`;
`maass_lift_loop` is the lift's former per-divisor loop,
`box_index_reference` the former all-int64 build of a box's index, and
`reduced_classes_reference` the former tuple-list build of the reduced
classes.  `combine` sums two forms, which the package itself never needs.  Matrix
reduction (`MatrixIndexT`, `reduce_T`, `dyadic_trace`, `enumerate_reduced`),
the theta operator and the monomial decomposition check the vector code from
the outside.  `fourier_jacobi` takes a Jacobi slice of a Siegel form, so
tests can hold the two halves against each other.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from siegelcong.errors import (InvalidArgumentError, PrecisionError, RingMismatchError,
                               SiegelCongError)
from siegelcong.jacobi import JacobiFormSeries, jacobi_index
from siegelcong.linalg import FpMatrix, solve
from siegelcong.qexp import discriminant_series
from siegelcong.ring import FpRing, reduce_rational
from siegelcong.siegel import (SiegelFormSeries, _class_matrix, _per_det, _sturm_bound,
                               box_index, class_values, reduced_classes, sturm_zero,
                               weight_monomials)


class NotInRingError(SiegelCongError):
    """A coefficient vector is not expressible in the requested monomial span."""


def combine(F, G, c=1):
    """F + c G on the smaller box and prefix, numpy on the coefficient
    vectors; the weight is the common weight of F and G, or None."""
    if F.ring != G.ring:
        raise RingMismatchError(f"{F.ring.tag} vs {G.ring.tag}")
    prec, nmax = min(F.prec, G.prec), min(F.nmax, G.nmax)
    vec = F.at_box(prec, nmax) + G.at_box(prec, nmax) * F.ring.from_int(c)
    return SiegelFormSeries(F.ring, F.weight if F.weight == G.weight else None, prec,
                            F.ring.canonical(vec))


def reduced_classes_reference(wmax):
    """The arrays n, r, m, det of reduced_classes(wmax), built from a list of
    (n, r, m) tuples and sorted by (w, n, r, m)."""
    keys = [(0, 0, m) for m in range(wmax // 2 + 1)]
    keys += [(n, r, m) for n in range(1, wmax // 3 + 1) for r in range(n + 1)
             for m in range(n, (wmax + r - 2 * n) // 2 + 1)]
    n, r, m = np.array(keys, dtype=np.int64).T
    order = np.lexsort((m, r, n, 2 * n + 2 * m - r))
    return tuple(a[order] for a in (n, r, m, 4 * n * m - r * r))


def support_dets(F):
    """Sorted determinants carried by F's nonzero stored coefficients."""
    return np.unique(box_index(F.prec).det[:len(F.coeffs)][F.coeffs != 0]).tolist()


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
                vv = v % p if isinstance(F.ring, FpRing) else reduce_rational(v, p)
                if vv:
                    return False, (n, r, m)
    return True, None


def check_unimodular_moves(F):
    """Spot the translation move A(n,r,m) == A(n, r+2n, m+r+n) inside the window."""
    for n in range(F.prec + 1):
        for m in range(F.prec + 1):
            b = F.rb(n, m)
            for r in range(-b, b + 1):
                n2, r2, m2 = n, r + 2 * n, m + r + n
                if m2 < 0 or m2 > F.prec or abs(r2) > F.rb(n2, m2):
                    continue
                if F.a(n, r, m) != F.a(n2, r2, m2):
                    return False
    return True


def maass_lift_loop(ring, k, cols, prec):
    """The Maass lift A = sum_{d | gcd} d^{k-1} C[det/d^2] as one masked
    gather per d = 1..prec over the whole box; A(0, 0, 0) = 0."""
    C = discriminant_series(np.array([h[:prec * prec + 1] for h in cols], dtype=ring.dtype),
                            4 * prec * prec)[1:]
    idx = box_index(prec)
    gcd = np.gcd(np.gcd(idx.n, idx.r), idx.m)
    out = ring.zeros(idx.size)
    for d in range(1, prec + 1):
        keys = np.flatnonzero((gcd % d == 0) & (gcd > 0))
        out[keys] += ring.from_int(d ** (k - 1)) * C[idx.det[keys] // (d * d)]
    return SiegelFormSeries(ring, k, prec, ring.canonical(out))


def box_index_reference(prec):
    """The arrays of BoxIndex(prec) by name, built the former way, all int64,
    and the by-m order of each prefix top by argsort: {top: (order, mstart)}."""
    lo, hi = np.triu_indices(prec + 1)
    widths = np.array([isqrt(4 * a * b) + 1 for a, b in zip(lo.tolist(), hi.tolist())])
    starts = np.cumsum(widths) - widths
    size = int(widths.sum())
    offset = np.zeros((prec + 1, prec + 1), dtype=np.int64)
    offset[lo, hi] = offset[hi, lo] = starts
    nstart = np.append(np.diagonal(offset), size)
    n, m = np.repeat(lo, widths), np.repeat(hi, widths)
    r = np.arange(size) - np.repeat(starts, widths)
    arrays = {"widths": widths, "offset": offset, "nstart": nstart, "n": n, "m": m, "r": r,
              "det": 4 * n * m - r * r}
    by_m = {}
    for top in range(prec + 1):
        prefix = m[:nstart[top + 1]]
        order = np.argsort(prefix, kind="stable")
        mstart = np.searchsorted(prefix[order], np.arange(top + 2))
        by_m[top] = (order[:mstart[top + 1]], mstart)
    return arrays, by_m


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
    # each step swaps n > m or translates r into (-n, n]; n never grows
    while n and not (-n < r <= n <= m):
        if n > m:
            n, m = m, n
        else:
            t = (n - r) // (2 * n)
            m, r = m + r * t + n * t * t, r + 2 * t * n
    return MatrixIndexT(n, abs(r) if n else 0, m)


def dyadic_trace(T):
    """w(T) = 2n + 2m - |r| for a reduced matrix (2m for rank <= 1, 0 for zero)."""
    if not T.is_reduced:
        raise InvalidArgumentError(f"dyadic_trace needs a reduced matrix, got {T.key()}")
    return 2 * T.n + 2 * T.m - abs(T.r)


def enumerate_reduced(wmax):
    """All reduced classes with dyadic trace <= wmax, rank <= 1 included.

    Sorted by (w, n, r, m); no duplicates.
    """
    n, r, m, _ = reduced_classes(wmax)
    return [MatrixIndexT(*t) for t in zip(n.tolist(), r.tolist(), m.tolist())]


def theta_operator(F, j=1):
    """The generalized theta operator iterated j times: A(T) -> det(T)^j A(T).

    Over a prime field the weight annotation grows by j(p + 1); over exact
    rings it is left unchanged.
    """
    if j < 0:
        raise InvalidArgumentError("iterate count must be >= 0")
    ring = F.ring
    mult = _per_det(box_index(F.prec).det, lambda d: ring.from_int(d ** j), ring.dtype)
    w = F.weight
    if w is not None and isinstance(ring, FpRing):
        w = w + j * (ring.p + 1)
    return SiegelFormSeries(ring, w, F.prec, ring.canonical(F.coeffs * mult))


def fourier_jacobi(F, m):
    """The index-m slice: a Jacobi form with c(n, r) = A(n, r, m), zero where
    4nm - r^2 < 0; one gather from F's vector."""
    if m < 0 or m > F.prec:
        raise PrecisionError(f"slice index {m} outside box {F.prec}",
                             required=m, available=F.prec)
    F.need(m)
    idx = jacobi_index(m, F.prec)
    inside = idx.D >= 0
    vec = F.ring.zeros(idx.size)
    vec[inside] = F.coeffs[box_index(F.prec).offset[idx.n[inside], m] + idx.r[inside]]
    return JacobiFormSeries(F.ring, F.weight, m, F.prec, vec)


@dataclass
class Decomposition:
    solution: dict      # exponent tuple -> coefficient in [0, p)
    kernel_dim: int
    weight: int
    bound: int


def decompose_mod_p(F, k, ctx):
    """One expression of F mod p in the weight-k generator monomials.

    Matches the coefficients on every reduced class within the weight-k
    Sturm bound.  For p >= 5 the weight-k monomials are linearly independent
    mod p (Nagaoka, Math. Z. 2000: the kernel of reduction mod p is
    generated by E_{p-1} - 1, so it holds no nonzero form of a single
    weight), so the solution is unique and kernel_dim is 0; it is reported
    as a check.  Raises NotInRingError when no combination matches.
    """
    if not isinstance(F.ring, FpRing):
        raise InvalidArgumentError("decompose_mod_p needs a prime-field form")
    p = F.ring.p
    monos = weight_monomials(k)
    if not monos:
        raise NotInRingError(f"no generator monomials in weight {k}")
    bound = _sturm_bound(k, min(F.prec, ctx.prec))
    mat = FpMatrix(p, _class_matrix([ctx.monomial(*e) for e in monos], bound))
    sol = solve(mat, class_values(F, bound))
    if sol is None:
        raise NotInRingError(f"form is not a weight-{k} monomial combination mod {p}")
    particular, kernel = sol
    solution = {e: x for e, x in zip(monos, particular) if x % p}
    return Decomposition(solution=solution, kernel_dim=len(kernel), weight=k, bound=bound)


def verify_combination(F, combo, k, ctx):
    """Check a claimed monomial expression of F mod p on the weight-k bound.

    combo maps exponent tuples (a, b, c, d) to integer coefficients.
    """
    return sturm_zero(combine(ctx.evaluate(combo, k), F, -1), k).is_zero
