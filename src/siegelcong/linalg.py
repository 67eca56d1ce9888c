"""Dense linear algebra over prime fields F_p.

Plain Gauss-Jordan elimination on numpy int64 matrices with entries kept in
[0, p).  A product of two residues must fit in int64, so `FpMatrix` refuses
p > MAX_P = isqrt(2^63 - 1).  Matrices here are narrow but may be tall: a
`search` class matrix has one column per weight-k monomial and one row per
reduced class of one Legendre class, and at k = 30, p = 43 its Sturm bound
spans 265,776 reduced classes before the Legendre mask.  Elimination makes
at most one pass over the rows per column.  All functions are pure;
`FpMatrix` values are treated as immutable once built.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .ring import require_odd_prime

MAX_P = 3037000499


class FpMatrix:
    """Row-major matrix over F_p with canonical entries in [0, p)."""

    __slots__ = ("p", "rows", "cols", "data")

    def __init__(self, p, data):
        require_odd_prime(p)
        if p > MAX_P:
            raise InvalidArgumentError(f"F_p matrices need p <= {MAX_P}, got {p}")
        self.p = p
        arr = np.array(data, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise InvalidArgumentError("matrix data must be 2-dimensional")
        self.data = arr % p
        self.rows, self.cols = self.data.shape

    def __repr__(self):
        return f"FpMatrix(p={self.p}, shape={self.rows}x{self.cols})"

    def tolist(self):
        return self.data.tolist()


def _rref_inplace(p, a):
    """Reduce `a` (int64 array, entries in [0,p)) in place; return pivot cols.

    Rows r.. are zero left of column c, so a zero column c is skipped with
    every zero column after it in one scan of the block a[r:, c:], and the
    updates touch only the columns from the pivot on."""
    rows, cols = a.shape
    pivots = []
    r = c = 0
    while r < rows and c < cols:
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            live = np.flatnonzero(a[r:, c:].any(axis=0))
            if not len(live):
                break
            c += int(live[0])
            nz = np.flatnonzero(a[r:, c])
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        mask = np.flatnonzero(col)
        if len(mask):
            sub = a[mask, c:]
            sub -= np.outer(col[mask], a[r, c:])
            sub %= p
            a[mask, c:] = sub
        pivots.append(c)
        r += 1
        c += 1
    return pivots


def rref(mat):
    """Reduced row echelon form: (FpMatrix R, rank, pivot column list)."""
    a = mat.data.copy()
    pivots = _rref_inplace(mat.p, a)
    return FpMatrix(mat.p, a), len(pivots), pivots


def solve(mat, v):
    """Solve M x = v over F_p.

    Returns (particular_solution, kernel_basis) where both are lists of ints
    in [0, p); returns None when the system is inconsistent.  The kernel
    basis is empty exactly when the solution is unique.
    """
    a = mat.data
    rhs = np.asarray(v, dtype=np.int64).reshape(-1) % mat.p
    if len(rhs) != mat.rows:
        raise InvalidArgumentError(f"rhs length {len(rhs)} != rows {mat.rows}")
    aug = np.concatenate([a, rhs[:, None]], axis=1)
    pivots = _rref_inplace(mat.p, aug)
    if pivots and pivots[-1] == mat.cols:
        return None
    x = np.zeros(mat.cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = aug[i, mat.cols]
    kb = _kernel_from_rref(mat.p, aug[:, :mat.cols], pivots, mat.cols)
    return [int(t) for t in x], kb


def _kernel_from_rref(p, r, pivots, cols):
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for f in free:
        vec = np.zeros(cols, dtype=np.int64)
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = (-r[i, f]) % p
        basis.append([int(t) for t in vec])
    return basis


def kernel_basis(mat):
    """Basis of the right kernel {x : M x = 0}."""
    a = mat.data.copy()
    pivots = _rref_inplace(mat.p, a)
    return _kernel_from_rref(mat.p, a, pivots, mat.cols)


def membership(v, basis_rows, p):
    """Is the vector v in the F_p row span of basis_rows?"""
    rows = [list(r) for r in basis_rows]
    if not rows:
        return all(int(x) % p == 0 for x in v)
    mat = FpMatrix(p, np.array(rows, dtype=np.int64).T)
    return solve(mat, list(v)) is not None
