import random
from fractions import Fraction

import numpy as np
import pytest

import filtration_oracle
from qexp_checks import delta_q, eisenstein_q
from siegelcong import qexp
from siegelcong.errors import (ArithmeticDomainError, InvalidArgumentError,
                               PrecisionError, RingMismatchError)
from siegelcong.jacobi import JacobiFormSeries, jac_zero_test, qseries_times_jacobi, weak_generators
from siegelcong.linalg import FpMatrix, solve
from siegelcong.qexp import (bernoulli, convolve_trunc, eta_pow6, invert_series, mk_basis,
                             mk_dim)
from siegelcong.ring import ring_from_tag

INT = ring_from_tag("int")
FP5 = ring_from_tag("fp:5")
FP7 = ring_from_tag("fp:7")
FP11 = ring_from_tag("fp:11")


def q(ints, ring=INT):
    return np.array([ring.from_int(x) for x in ints], dtype=ring.dtype)


# -- arithmetic ---------------------------------------------------------------

def test_mul_truncates():
    assert convolve_trunc(INT, q([1, 1]), q([1, -1]), 2).tolist() == [1, 0]  # N = 1 window
    f = q([1, 1, 0])
    g = q([1, -1, 0])
    assert convolve_trunc(INT, f, g, 3).tolist() == [1, 0, -1]


def test_invert_geometric():
    f = q([1, -1, 0, 0])
    assert invert_series(INT, f, 4).tolist() == [1, 1, 1, 1]
    assert convolve_trunc(INT, f, invert_series(INT, f, 4), 4).tolist() == [1, 0, 0, 0]


def test_mul_precision_is_min():
    """An elliptic factor times a Jacobi form keeps the smaller precision."""
    w2 = weak_generators(5, INT)[0]
    assert qseries_times_jacobi(q([1, 2, 3, 4]), 0, w2).prec == 3
    assert qseries_times_jacobi(q(range(9)), 0, w2).prec == 5


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        qseries_times_jacobi(eisenstein_q(4, 4, INT), 4, weak_generators(4, FP5)[0])


def test_invert_needs_unit():
    with pytest.raises(ArithmeticDomainError):
        invert_series(INT, q([0, 1]), 2)
    with pytest.raises(ArithmeticDomainError):
        invert_series(INT, q([2, 1]), 2)  # 2 is not a unit in Z


# -- generators ----------------------------------------------------------------

def _sigma(e, n):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def test_bernoulli_values():
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("k,b_k", [(4, Fraction(-1, 30)), (6, Fraction(1, 42))])
def test_eisenstein_coefficients(k, b_k):
    # oracle: -2k/B_k * sigma_{k-1}(n) with the Bernoulli number frozen
    e = eisenstein_q(k, 6, INT)
    scale = Fraction(-2 * k) / b_k
    assert len(e) == 7 and e[0] == 1
    for n in range(1, 7):
        assert e[n] == scale * _sigma(k - 1, n)


def test_eisenstein_q1_values():
    assert eisenstein_q(4, 2, INT)[1] == 240
    assert eisenstein_q(6, 2, INT)[1] == -504


def test_eisenstein_rejects_bad_weight():
    for k in (3, 2, 0, 5):
        with pytest.raises(InvalidArgumentError):
            eisenstein_q(k, 4, INT)


def _delta_oracle(n):
    """(E4^3 - E6^2)/1728 via raw Fraction convolution, no convolve_trunc."""
    e4 = [Fraction(1)] + [240 * Fraction(_sigma(3, i)) for i in range(1, n + 1)]
    e6 = [Fraction(1)] + [-504 * Fraction(_sigma(5, i)) for i in range(1, n + 1)]

    def conv(a, b):
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b[:n + 1 - i]):
                out[i + j] += x * y
        return out

    e43 = conv(conv(e4, e4), e4)
    e62 = conv(e6, e6)
    return [(x - y) / 1728 for x, y in zip(e43, e62)]


def test_delta_against_oracle():
    oracle = _delta_oracle(8)
    assert oracle[0] == 0 and oracle[1] == 1 and oracle[2] == -24
    d = delta_q(8, INT)
    assert d.tolist() == [int(v) for v in oracle]


def test_e4_cubed_minus_e6_squared():
    e4 = eisenstein_q(4, 5, INT)
    e6 = eisenstein_q(6, 5, INT)
    f = convolve_trunc(INT, convolve_trunc(INT, e4, e4, 6), e4, 6) - convolve_trunc(INT, e6, e6, 6)
    assert f[0] == 0
    assert f[1] == 1728


@pytest.mark.parametrize("tag", ["int", "fp:7"])
def test_sigma_sieve_and_the_discriminant(tag):
    """sigma_e against divisor sums; E4^3 - E6^2 = 1728 Delta, and Delta = q eta^24
    from the eta^3 series, which shares no code with the sieve."""
    ring = ring_from_tag(tag)
    for e in (0, 1, 3, 5, 11):
        got = ring.canonical(qexp._sigma(e, 60, ring))
        assert got.tolist() == [0] + [ring.from_int(_sigma(e, n)) for n in range(1, 61)], e
    e2, e4, e6, delta = qexp.level1_series(60, ring)
    assert e2.tolist() == [1] + [ring.from_int(-24 * _sigma(1, n)) for n in range(1, 61)]
    n = 61
    lhs = convolve_trunc(ring, convolve_trunc(ring, e4, e4, n), e4, n) \
        - convolve_trunc(ring, e6, e6, n)
    assert ring.canonical(lhs).tolist() == ring.canonical(delta * ring.from_int(1728)).tolist()
    eta12 = convolve_trunc(ring, eta_pow6(59, ring), eta_pow6(59, ring), 60)
    eta24 = convolve_trunc(ring, eta12, eta12, 60)
    assert delta.tolist() == [0] + eta24.tolist()


def test_eta_pow6():
    eta6 = eta_pow6(10, INT)
    assert len(eta6) == 11 and eta6[0] == 1
    inv = invert_series(FP5, eta_pow6(10, FP5), 11)
    assert inv[0] == 1
    prod = convolve_trunc(FP5, eta_pow6(10, FP5), inv, 11)
    assert prod.tolist() == [1] + [0] * 10


# -- monomial bases --------------------------------------------------------------

def test_mk_basis_weight_0():
    basis = mk_basis(0, 3, INT)
    assert basis.tolist() == [[1, 0, 0, 0]]


def test_mk_basis_weight_10():
    basis = mk_basis(10, 4, INT)
    assert len(basis) == 1
    assert basis[0][0] == 1  # normalized E4*E6


def test_mk_basis_weight_24():
    # the echelonization oracle gives dimension 3: pivots at q^0, q^1, q^2
    basis = mk_basis(24, 6, FP5)
    assert len(basis) == 3
    for i, f in enumerate(basis):
        assert f[i] == 1
        for j in range(i):
            assert f[j] == 0


def test_mk_dim_matches_classical_formula():
    for k in range(0, 42, 2):
        want = 0 if k < 0 else k // 12 + (0 if k % 12 == 2 else 1)
        assert mk_dim(k) == want


@pytest.mark.parametrize("tag", ["fp:5", "fp:7", "fp:17", "fp:2097169", "int"])
def test_mk_basis_matches_all_monomial_oracle(tag):
    ring = ring_from_tag(tag)
    for k in range(-3, 41):                      # odd weights have the empty basis
        for prec in (k // 12 + 1, k // 12 + 6):
            got = mk_basis(k, prec, ring)
            want = filtration_oracle.mk_basis(k, prec, ring)
            assert got.tolist() == [f.tolist() for f in want], (k, prec)
            assert [type(v) for f in got.tolist() for v in f] == \
                [type(v) for f in want for v in f.tolist()]
            assert got.dtype == ring.dtype and got.shape == (mk_dim(k), prec + 1)


def test_mk_basis_memoizes_power_chains(monkeypatch):
    weights = range(4, 61, 2)
    want = {(k, prec): [f.tolist() for f in filtration_oracle.mk_basis(k, prec, FP7)]
            for prec in (20, 13, 5) for k in weights if prec > k // 12}
    calls = []
    build = qexp._level1_rows
    monkeypatch.setattr(qexp, "_level1_rows",
                        lambda prec, ring: calls.append((ring.tag, prec)) or build(prec, ring))
    monkeypatch.setattr(qexp, "_level1", {})
    monkeypatch.setattr(qexp, "_chains", None)
    monkeypatch.setattr(qexp, "_bases", {})
    for k in weights:
        mk_basis(k, 20, FP7)
    assert calls == [("fp:7", 20)]
    # every weight at a smaller precision is a truncation of the bases at q^20,
    # and a caller cannot write into the memoized basis it is handed
    with pytest.raises(ValueError):
        mk_basis(24, 20, FP7)[0][:] = 0
    for (k, prec), rows in want.items():
        assert mk_basis(k, prec, FP7).tolist() == rows, (k, prec)
    assert calls == [("fp:7", 20)]
    # a larger precision or another ring replaces the single entry once
    mk_basis(12, 21, FP7)
    mk_basis(40, 21, FP7)
    assert calls == [("fp:7", 20), ("fp:7", 21)]
    mk_basis(12, 21, FP11)
    assert calls[-1] == ("fp:11", 21) and len(calls) == 3
    tag, prec, chains = qexp._chains
    assert (tag, prec) == ("fp:11", 21) and not any(f.flags.writeable for c in chains for f in c)
    # the chains start from the rows of the level-1 memo, not from copies
    assert all(np.shares_memory(c[1], qexp._level1["fp:11"]) for c in chains)


def _fresh_basis(monkeypatch, k, prec, ring):
    with monkeypatch.context() as mp:
        mp.setattr(qexp, "_bases", {})
        mp.setattr(qexp, "_chains", None)
        return mk_basis(k, prec, ring)


@pytest.mark.parametrize("tag", ["fp:7", "fp:2097169", "int"])
@pytest.mark.parametrize("order", ["rising", "falling"])
def test_memoized_mk_basis_equals_a_fresh_build(monkeypatch, tag, order):
    ring = ring_from_tag(tag)
    precs = [4, 9, 20] if order == "rising" else [20, 9, 4]
    monkeypatch.setattr(qexp, "_bases", qexp.BoundedMemo(qexp.MEMO_BYTES, qexp._bases.size))
    for prec in precs + precs[::-1]:
        for k in range(4, 41, 2):
            got = mk_basis(k, prec, ring)
            want = _fresh_basis(monkeypatch, k, prec, ring)
            assert got.tolist() == want.tolist(), (k, prec)
            assert [type(v) for f in got.tolist() for v in f] == \
                [type(v) for f in want.tolist() for v in f]
            assert got.shape == (mk_dim(k), prec + 1) and not got.flags.writeable
            # a smaller precision is a view of the memoized matrix, not a copy
            assert np.shares_memory(got, qexp._bases.get((tag, k)))
    # one entry per weight, at the largest precision asked
    assert {key: qexp._bases.get(key).shape[1] - 1 for key in list(qexp._bases)} \
        == {(tag, k): 20 for k in range(4, 41, 2)}


def test_mk_basis_memo_evicts_to_its_bound(monkeypatch):
    row = 8 * 21                                  # one int64 row at q^20
    memo = qexp.BoundedMemo(4 * row, qexp._bases.size)
    monkeypatch.setattr(qexp, "_bases", memo)
    # dim M_k = 2, 2, 3, 3, 1 and 1
    for k, kept in ((12, [12]), (16, [12, 16]), (24, [24]), (28, [28]), (4, [28, 4])):
        mk_basis(k, 20, FP7)
        assert list(memo) == [("fp:7", w) for w in kept] and memo.nbytes <= memo.limit
    mk_basis(28, 10, FP7)                         # a hit makes 28 the most recent
    mk_basis(6, 20, FP7)
    assert list(memo) == [("fp:7", 28), ("fp:7", 6)] and memo.nbytes == 4 * row
    assert mk_basis(4, 20, FP7).tolist() == _fresh_basis(monkeypatch, 4, 20, FP7).tolist()


def test_bounded_memo_keeps_recent_entries_within_the_limit():
    memo = qexp.BoundedMemo(10, len)
    memo["a"] = "xxxx"
    memo["b"] = "xxxx"
    assert memo.get("a") == "xxxx"                 # "a" is now the most recent
    memo["c"] = "xxxx"
    assert list(memo) == ["a", "c"] and memo.nbytes == 8 and "b" not in memo
    memo["a"] = "x"                                # replacing an entry resizes it
    assert memo.nbytes == 5 and list(memo) == ["c", "a"]
    memo["d"] = "x" * 20                           # alone over the limit: kept alone
    assert list(memo) == ["d"] and memo.nbytes == 20 and len(memo) == 1
    assert memo.get("a") is None and memo.get("a", 0) == 0


def test_mk_basis_insufficient_precision():
    with pytest.raises(PrecisionError):
        mk_basis(24, 1, FP5)


def test_products_stay_in_span():
    rng = random.Random(3)
    prec = 9
    for _ in range(6):
        k1 = rng.choice([4, 6, 8, 10, 12])
        k2 = rng.choice([4, 6, 8, 12])
        b1 = mk_basis(k1, prec, FP11)
        b2 = mk_basis(k2, prec, FP11)
        target = mk_basis(k1 + k2, prec, FP11)
        f = convolve_trunc(FP11, b1[rng.randrange(len(b1))], b2[rng.randrange(len(b2))], prec + 1)
        mat = FpMatrix(11, target.tolist()).data.T
        assert solve(FpMatrix(11, mat), f.tolist()) is not None


# -- the level-1 Sturm test (jac_zero_test on index-0 forms) --------------------------

def _sturm_zero(f, k, ring):
    """jac_zero_test of the elliptic form f of weight k, as an index-0 Jacobi form."""
    return jac_zero_test(JacobiFormSeries(ring, k, 0, len(f) - 1, f))


def test_sturm_nonzero():
    assert not _sturm_zero(eisenstein_q(4, 4, FP5), 4, FP5)


def test_sturm_zero_difference():
    d = delta_q(6, FP7)
    assert _sturm_zero(FP7.canonical(d - d), 12, FP7)
    # weight 12 reads q^0 and q^1 only
    assert _sturm_zero(q([0, 0, 1, 1], FP7), 12, FP7) and not _sturm_zero(q([0, 1, 0, 0], FP7), 12, FP7)


def test_sturm_forced_proportionality():
    # dim M_10 = 1 forces E4*E6 to be the normalized basis element
    e4e6 = convolve_trunc(FP11, eisenstein_q(4, 6, FP11), eisenstein_q(6, 6, FP11), 7)
    basis = mk_basis(10, 6, FP11)[0]
    assert _sturm_zero(FP11.canonical(e4e6 - basis), 10, FP11)


def test_sturm_needs_precision():
    with pytest.raises(PrecisionError):
        _sturm_zero(q([0], FP5), 24, FP5)


# -- the mod-p filtration as a valuation -----------------------------------------------

PRIMES_TO_43 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def _poly_mod(a, b, p):
    """The remainder of a by b over F_p; coefficient lists, constant term first."""
    a, inv = list(a), pow(b[-1], -1, p)
    while len(a) >= len(b) and any(a):
        c, shift = a[-1] * inv % p, len(a) - len(b)
        a = [(x - c * b[i - shift]) % p if i >= shift else x for i, x in enumerate(a)][:-1]
        while a and not a[-1]:
            a.pop()
    return a


def _poly_gcd_degree(a, b, p):
    while any(b):
        a, b = b, _poly_mod(a, b, p)
        while b and not b[-1]:
            b.pop()
    return len(a) - 1


def _expand(ring, a, b, core, rows):
    """E4^a E6^b sum_i core[i] E4^(3(g - i)) E6^(2i), g = len(core) - 1, to q^(rows-1)."""
    e4, e6 = eisenstein_q(4, rows - 1, ring), eisenstein_q(6, rows - 1, ring)
    g = len(core) - 1
    out = ring.zeros(rows)
    for i, c in enumerate(core.tolist()):
        mono = convolve_trunc(ring, filtration_oracle.power(ring, e4, a + 3 * (g - i)),
                              filtration_oracle.power(ring, e6, b + 2 * i), rows)
        out = ring.canonical(out + mono * c)
    return out


@pytest.mark.parametrize("p", PRIMES_TO_43)
def test_hasse_invariant(p):
    """A~, the polynomial of E_{p-1} mod p, expands to 1 on the Sturm rows of
    weight p - 1 (as E_{p-1} does), its core has no repeated factor, and E4
    (E6) divides it exactly when p = 2 mod 3 (p = 3 mod 4): the supersingular
    j = 0 and 1728."""
    ring = ring_from_tag(f"fp:{p}")
    alpha, beta, core = qexp.hasse_invariant(ring)
    rows = (p - 1) // 12 + 1
    assert 4 * alpha + 6 * beta + 12 * (len(core) - 1) == p - 1
    assert eisenstein_q(p - 1, rows - 1, ring).tolist() == [1] + [0] * (rows - 1)
    assert _expand(ring, alpha, beta, core, rows).tolist() == [1] + [0] * (rows - 1)
    assert (alpha, beta) == (int(p % 3 == 2), int(p % 4 == 3))
    assert core[0] and core[-1]                    # no factor E4^3 or E6^2 left in the core
    deriv = [i * c % p for i, c in enumerate(core.tolist())][1:]
    assert len(core) == 1 or _poly_gcd_degree(core.tolist(), deriv, p) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_mod_p_filtration_is_the_least_weight_holding_the_form(p):
    """Random forms of M_K times E_{p-1}^s: the valuation equals the least
    K' = K mod (p - 1) with the form in M_K' on its Sturm rows, decided
    with the echelon bases (the bisection oracle's membership test), and
    isobaric reproduces the form."""
    ring = ring_from_tag(f"fp:{p}")
    rng = random.Random(p)
    prec = 40
    ep = eisenstein_q(p - 1, prec, ring)
    for _ in range(12):
        k = rng.choice([0, 4, 6, 8, 10, 12, 14, 16, 18, 22, 26])
        basis = mk_basis(k, prec, ring)
        f = ring.canonical(np.array([rng.randrange(p) for _ in basis], dtype=np.int64) @ basis)
        for s in range(4):
            kk = k + s * (p - 1)
            g = convolve_trunc(ring, f, filtration_oracle.power(ring, ep, s), prec + 1)
            want = next((kp for kp in range(kk % (p - 1), kk + 1, p - 1)
                         if filtration_oracle.in_weight([g], kk, kp, ring)), None)
            got = qexp.mod_p_filtration(g, kk, ring)
            if not np.any(g[:kk // 12 + 1]):
                assert got == qexp.NEG_INF
                continue
            assert got == want and got <= k, (k, s, got, want)
            a, b, core = qexp.isobaric(g, kk, ring)
            assert _expand(ring, a, b, core, kk // 12 + 1).tolist() == g[:kk // 12 + 1].tolist()


def test_mod_p_filtration_refusals():
    """None for a vector that is no form of its weight on its Sturm rows
    (weight 14: two rows, one basis form) and for a nonzero vector at a
    weight with no forms; -inf for zero vectors.  E4^2 E6 keeps weight 14
    mod 13, where 14 - 12 = 2 has no forms, and falls to E4 mod 11."""
    fp13 = ring_from_tag("fp:13")
    basis = mk_basis(14, 10, fp13)
    assert len(basis) == 1 and qexp.mod_p_filtration(basis[0], 14, fp13) == 14
    assert qexp.mod_p_filtration(mk_basis(14, 10, FP11)[0], 14, FP11) == 4
    bad = basis[0].copy()
    bad[1] = (bad[1] + 1) % 13
    assert qexp.isobaric(bad, 14, fp13) is None and qexp.mod_p_filtration(bad, 14, fp13) is None
    for k in (2, -4, 7):
        assert qexp.mod_p_filtration(q([0, 1, 0], fp13), k, fp13) is None
        assert qexp.mod_p_filtration(q([0, 0, 0], fp13), k, fp13) == qexp.NEG_INF
    assert qexp.mod_p_filtration(fp13.zeros(11), 24, fp13) == qexp.NEG_INF
    with pytest.raises(PrecisionError):
        qexp.isobaric(basis[0][:1], 14, fp13)
