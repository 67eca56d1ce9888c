import random

import pytest

from siegelcong.errors import InvalidArgumentError
from siegelcong.linalg import MAX_P, FpMatrix, kernel_basis, membership, rref, solve


def test_rref_identity():
    m = FpMatrix(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, rk, piv = rref(m)
    assert rk == 3 and piv == [0, 1, 2]
    assert red.tolist() == m.tolist()


def test_rref_pivots_are_canonical():
    m = FpMatrix(7, [[2, 4, 1], [3, 6, 5]])
    red, rk, piv = rref(m)
    rows = red.tolist()
    for i, c in enumerate(piv):
        assert rows[i][c] == 1
        for j in range(rk):
            if j != i:
                assert rows[j][c] == 0


def test_solve_underdetermined():
    m = FpMatrix(5, [[1, 1], [0, 0]])
    particular, kernel = solve(m, [2, 0])
    assert (particular[0] + particular[1]) % 5 == 2
    assert len(kernel) == 1


def test_solve_inconsistent():
    m = FpMatrix(5, [[1, 1], [2, 2]])
    assert solve(m, [1, 3]) is None


def test_solve_reproduces_rhs_randomized():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.choice([5, 7, 11])
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randrange(p) for _ in range(cols)]
        v = [sum(mat[i][j] * x[j] for j in range(cols)) % p for i in range(rows)]
        m = FpMatrix(p, mat)
        sol = solve(m, v)
        assert sol is not None
        part, _ = sol
        for i in range(rows):
            assert sum(mat[i][j] * part[j] for j in range(cols)) % p == v[i]


def test_rank_plus_kernel_dim():
    rng = random.Random(11)
    for _ in range(25):
        p = rng.choice([5, 7, 11])
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        assert rref(m)[1] + len(kernel_basis(m)) == cols
        for vec in kernel_basis(m):
            for i in range(rows):
                assert sum(int(m.data[i][j]) * vec[j] for j in range(cols)) % p == 0


def test_membership():
    rng = random.Random(13)
    p = 7
    basis = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
    coeffs = [rng.randrange(p) for _ in range(3)]
    combo = [sum(coeffs[k] * basis[k][j] for k in range(3)) % p for j in range(6)]
    assert membership(combo, basis, p)
    # a vector outside the span: extend the span by it and compare ranks
    probe = [1, 0, 0, 0, 0, 0]
    in_span = membership(probe, basis, p)
    r1 = rref(FpMatrix(p, basis))[1]
    r2 = rref(FpMatrix(p, basis + [probe]))[1]
    assert in_span == (r1 == r2)


def test_membership_empty_basis():
    assert membership([0, 0], [], 5)
    assert not membership([1, 0], [], 5)


def test_primes_past_the_int64_product_bound_are_refused():
    # row 2 is twice row 1 mod p; int64 residue products used to wrap here
    p = 1099511627791
    with pytest.raises(InvalidArgumentError):
        rref(FpMatrix(p, [[p - 2, 1], [p - 4, 2]]))
    with pytest.raises(InvalidArgumentError):
        membership([2 * (p - 2) % p, 2], [[p - 2, 1]], p)
    p = 3037000493                      # the largest prime <= MAX_P
    assert p <= MAX_P
    assert rref(FpMatrix(p, [[p - 2, 1], [p - 4, 2]]))[1] == 1
    assert membership([2 * (p - 2) % p, 2], [[p - 2, 1]], p)
    assert not membership([1, 1], [[p - 2, 1]], p)
