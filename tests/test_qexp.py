import random
from fractions import Fraction

import pytest

import filtration_oracle
from siegelcong import qexp
from siegelcong.errors import (ArithmeticDomainError, InvalidArgumentError,
                               PrecisionError, RingMismatchError)
from siegelcong.linalg import FpMatrix, solve
from siegelcong.qexp import (QSeries, bernoulli, delta_q, eisenstein_q,
                             elliptic_sturm_zero, eta_pow6, mk_basis, mk_dim)
from siegelcong.ring import ring_from_tag

INT = ring_from_tag("int")
RAT = ring_from_tag("rat")
FP5 = ring_from_tag("fp:5")
FP7 = ring_from_tag("fp:7")
FP11 = ring_from_tag("fp:11")


def q(ints, ring=INT):
    return QSeries.from_ints(ring, ints)


# -- arithmetic ---------------------------------------------------------------

def test_mul_truncates():
    assert (q([1, 1]) * q([1, -1])).coeff_list() == [1, 0]  # N = 1 window
    f = q([1, 1, 0])
    g = q([1, -1, 0])
    assert (f * g).coeff_list() == [1, 0, -1]


def test_invert_geometric():
    f = q([1, -1, 0, 0])
    assert f.inverse().coeff_list() == [1, 1, 1, 1]
    assert (f * f.inverse()).coeff_list() == [1, 0, 0, 0]


def test_mul_precision_is_min():
    f = q(list(range(6)))   # N = 5
    g = q([1, 2, 3, 4])     # N = 3
    assert (f * g).prec == 3
    assert (f + g).prec == 3


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        q([1]) * q([1], ring=FP5)


def test_invert_needs_unit():
    with pytest.raises(ArithmeticDomainError):
        q([0, 1]).inverse()
    with pytest.raises(ArithmeticDomainError):
        q([2, 1]).inverse()  # 2 is not a unit in Z


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
    e = eisenstein_q(k, 6, RAT)
    scale = Fraction(-2 * k) / b_k
    assert e.coeff(0) == 1
    for n in range(1, 7):
        assert e.coeff(n) == scale * _sigma(k - 1, n)


def test_eisenstein_q1_values():
    assert eisenstein_q(4, 2, INT).coeff(1) == 240
    assert eisenstein_q(6, 2, INT).coeff(1) == -504


def test_eisenstein_rejects_bad_weight():
    for k in (3, 2, 0, 5):
        with pytest.raises(InvalidArgumentError):
            eisenstein_q(k, 4, INT)


def _delta_oracle(n):
    """(E4^3 - E6^2)/1728 via raw Fraction convolution, no QSeries."""
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
    assert d.coeff_list() == [int(v) for v in oracle]


def test_e4_cubed_minus_e6_squared():
    e4 = eisenstein_q(4, 5, RAT)
    e6 = eisenstein_q(6, 5, RAT)
    f = e4 * e4 * e4 - e6 * e6
    assert f.coeff(0) == 0
    assert f.coeff(1) == 1728


def test_eta_pow6():
    eta6 = eta_pow6(10, INT)
    assert eta6.coeff(0) == 1
    inv = eta_pow6(10, FP5).inverse()
    assert inv.coeff(0) == 1
    prod = eta_pow6(10, FP5) * inv
    assert prod.coeff_list() == [1] + [0] * 10


# -- monomial bases --------------------------------------------------------------

def test_mk_basis_weight_0():
    basis = mk_basis(0, 3, RAT)
    assert len(basis) == 1 and basis[0].coeff(0) == 1


def test_mk_basis_weight_10():
    basis = mk_basis(10, 4, INT)
    assert len(basis) == 1
    assert basis[0].coeff(0) == 1  # normalized E4*E6


def test_mk_basis_weight_24():
    # the echelonization oracle gives dimension 3: pivots at q^0, q^1, q^2
    basis = mk_basis(24, 6, FP5)
    assert len(basis) == 3
    for i, f in enumerate(basis):
        assert f.coeff(i) == 1
        for j in range(i):
            assert f.coeff(j) == 0


def test_mk_dim_matches_classical_formula():
    for k in range(0, 42, 2):
        want = 0 if k < 0 else k // 12 + (0 if k % 12 == 2 else 1)
        assert mk_dim(k) == want
        assert mk_dim(k, 7) == want


@pytest.mark.parametrize("tag", ["fp:5", "fp:7", "fp:17", "fp:2097169", "int", "rat"])
def test_mk_basis_matches_all_monomial_oracle(tag):
    ring = ring_from_tag(tag)
    for k in range(-2, 41, 2):
        for prec in (k // 12 + 1, k // 12 + 6):
            got = mk_basis(k, prec, ring)
            want = filtration_oracle.mk_basis(k, prec, ring)
            assert [f.coeff_list() for f in got] == [f.coeff_list() for f in want], (k, prec)
            assert [type(v) for f in got for v in f.coeff_list()] == \
                [type(v) for f in want for v in f.coeff_list()]
            assert all(f.weight == k for f in got)
            assert len(got) == mk_dim(k) == mk_dim(k, 7)


def test_mk_basis_memoizes_power_chains(monkeypatch):
    weights = range(4, 61, 2)
    want = {(k, prec): [f.coeff_list() for f in filtration_oracle.mk_basis(k, prec, FP7)]
            for prec in (20, 13, 5) for k in weights if prec > k // 12}
    calls = []
    for name in ("eisenstein_q", "delta_q"):
        def counted(*args, _fn=getattr(qexp, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(qexp, name, counted)
    monkeypatch.setattr(qexp, "_chains", None)
    monkeypatch.setattr(qexp, "_bases", {})
    for k in weights:
        mk_basis(k, 20, FP7)
    built = len(calls)
    assert calls.count("delta_q") == 1 and built > 1
    # every weight at a smaller precision is a truncation of the bases at q^20,
    # and a caller cannot write into the memoized basis it is handed
    with pytest.raises(ValueError):
        mk_basis(24, 20, FP7)[0].coeffs[:] = 0
    for (k, prec), rows in want.items():
        assert [f.coeff_list() for f in mk_basis(k, prec, FP7)] == rows, (k, prec)
    assert len(calls) == built
    # a larger precision or another ring replaces the single entry once
    mk_basis(12, 21, FP7)
    mk_basis(40, 21, FP7)
    assert len(calls) == 2 * built and calls.count("delta_q") == 2
    mk_basis(12, 21, FP11)
    assert calls.count("delta_q") == 3
    tag, prec, chains = qexp._chains
    assert (tag, prec) == ("fp:11", 21) and not any(f.coeffs.flags.writeable for c in chains for f in c)


def _fresh_basis(monkeypatch, k, prec, ring):
    with monkeypatch.context() as mp:
        mp.setattr(qexp, "_bases", {})
        mp.setattr(qexp, "_chains", None)
        return mk_basis(k, prec, ring)


@pytest.mark.parametrize("tag", ["fp:7", "fp:2097169", "int", "rat"])
@pytest.mark.parametrize("order", ["rising", "falling"])
def test_memoized_mk_basis_equals_a_fresh_build(monkeypatch, tag, order):
    ring = ring_from_tag(tag)
    precs = [4, 9, 20] if order == "rising" else [20, 9, 4]
    monkeypatch.setattr(qexp, "_bases", qexp.BoundedMemo(qexp.MEMO_BYTES, qexp._bases.size))
    for prec in precs + precs[::-1]:
        for k in range(4, 41, 2):
            got = mk_basis(k, prec, ring)
            want = _fresh_basis(monkeypatch, k, prec, ring)
            assert [f.coeff_list() for f in got] == [f.coeff_list() for f in want], (k, prec)
            assert [type(v) for f in got for v in f.coeff_list()] == \
                [type(v) for f in want for v in f.coeff_list()]
            assert all(f.prec == prec and f.weight == k for f in got)
            assert not any(f.coeffs.flags.writeable for f in got)
    # one entry per weight, at the largest precision asked
    assert {key: qexp._bases.get(key)[0].prec for key in list(qexp._bases)} \
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
    assert mk_basis(4, 20, FP7)[0].coeff_list() == _fresh_basis(monkeypatch, 4, 20, FP7)[0].coeff_list()


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
        f = b1[rng.randrange(len(b1))] * b2[rng.randrange(len(b2))]
        mat = FpMatrix(11, [list(t.coeff_list()) for t in target]).data.T
        assert solve(FpMatrix(11, mat), f.coeff_list()) is not None


# -- the level-1 Sturm test -------------------------------------------------------

def test_sturm_nonzero():
    assert not elliptic_sturm_zero(eisenstein_q(4, 4, FP5), 4)


def test_sturm_zero_difference():
    d = delta_q(6, FP7)
    assert elliptic_sturm_zero(d - d, 12)


def test_sturm_forced_proportionality():
    # dim M_10 = 1 forces E4*E6 to be the normalized basis element
    e4e6 = eisenstein_q(4, 6, FP11) * eisenstein_q(6, 6, FP11)
    basis = mk_basis(10, 6, FP11)[0]
    assert elliptic_sturm_zero(e4e6 - basis, 10)


def test_sturm_needs_precision():
    f = QSeries.from_ints(FP5, [0])
    with pytest.raises(PrecisionError):
        elliptic_sturm_zero(f, 24)
