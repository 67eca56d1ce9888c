import json
import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import pytest

import allcolumn_oracle
import filtration_oracle
from qexp_checks import delta_q, eisenstein_q
from jacobi_checks import (check_holomorphic_support, check_transformation_law, heat_iterate,
                           jac_congruence, jac_direct_scan, jac_mul_loop, nonexistence_applies,
                           qseries_times_jacobi_loop, reconstruct_weak)
import numpy as np

from siegelcong import jacobi, qexp
from siegelcong.errors import (ArithmeticDomainError, DecompositionError,
                               InvalidArgumentError, PrecisionError, RingMismatchError)
from siegelcong.jacobi import (NEG_INF, JacobiFormSeries, filtration, form_bytes, heat,
                               heat_cycle, heat_cycle_bytes, heat_cycle_required_prec,
                               holo_basis, jac_mul, jac_zero_test, jacobi_cusp,
                               jacobi_eisenstein, qseries_times_jacobi, weak_decompose,
                               weak_generators, zero_test_required_prec)
from siegelcong.qexp import BoundedMemo, mk_basis
from siegelcong.linalg import FpMatrix, rref
from siegelcong.ring import ring_from_tag

INT = ring_from_tag("int")
RAT = ring_from_tag("rat")
FP5 = ring_from_tag("fp:5")
FP7 = ring_from_tag("fp:7")


# -- independent theta-quotient oracle (naive dict arithmetic over Q) ------------

def _oracle_weak_generators(nmax):
    """Brute-force expansions of the weight -2 and weight 0 generators.

    Returns two dicts (n, r) -> Fraction.  Works coefficient-by-coefficient
    with naive series arithmetic, including separate A3 and A4 quotients in
    the half-integral variable, so it shares no code path with production.
    """
    def inv1(series, n):
        out = [Fraction(0)] * (n + 1)
        out[0] = 1 / series[0]
        for i in range(1, n + 1):
            out[i] = -out[0] * sum(series[j] * out[i - j]
                                   for j in range(1, min(i, len(series) - 1) + 1))
        return out

    def mul_q(cols, series, n):
        out = {}
        for (a, r), v in cols.items():
            for i, s in enumerate(series[:n + 1 - a]):
                if s:
                    out[(a + i, r)] = out.get((a + i, r), Fraction(0)) + v * s
        return out

    # eta^6 and theta_red^2
    eta3 = [Fraction(0)] * (nmax + 1)
    j = 0
    while j * (j + 1) // 2 <= nmax:
        eta3[j * (j + 1) // 2] = Fraction((-1) ** j * (2 * j + 1))
        j += 1
    eta6 = [sum(eta3[i] * eta3[n - i] for i in range(n + 1)) for n in range(nmax + 1)]
    theta = {}
    for jj in range(-3 - isqrt(2 * nmax), 3 + isqrt(2 * nmax)):
        t = jj * (jj + 1) // 2
        if t <= nmax:
            theta[(t, jj)] = theta.get((t, jj), Fraction(0)) + (-1) ** (jj % 2)
    thsq = {}
    for (a1, r1), v1 in theta.items():
        for (a2, r2), v2 in theta.items():
            if a1 + a2 <= nmax:
                key = (a1 + a2, r1 + r2)
                thsq[key] = thsq.get(key, Fraction(0)) + v1 * v2
    wm2 = {(n, r + 1): v for (n, r), v in mul_q(thsq, inv1(eta6, nmax), nmax).items()}

    # A2 from the unsigned theta pair
    th2 = {}
    for jj in range(-3 - isqrt(2 * nmax), 3 + isqrt(2 * nmax)):
        t = jj * (jj + 1) // 2
        if t <= nmax:
            th2[(t, jj)] = th2.get((t, jj), Fraction(0)) + 1
    s2 = {}
    for (a1, r1), v1 in th2.items():
        for (a2, r2), v2 in th2.items():
            if a1 + a2 <= nmax:
                key = (a1 + a2, r1 + r2)
                s2[key] = s2.get(key, Fraction(0)) + v1 * v2
    s2_1 = [Fraction(0)] * (nmax + 1)
    for (a, _), v in s2.items():
        s2_1[a] += v
    a2 = {(n, r + 1): v for (n, r), v in mul_q(s2, inv1(s2_1, nmax), nmax).items()}

    # A3 and A4 separately over Q = q^(1/2)
    qmax = 2 * nmax + 1
    out0 = dict(a2)
    for sign in (1, -1):
        th3 = {}
        for jj in range(-isqrt(qmax) - 1, isqrt(qmax) + 2):
            if jj * jj <= qmax:
                th3[(jj * jj, jj)] = th3.get((jj * jj, jj), Fraction(0)) + sign ** (jj % 2)
        sq = {}
        for (a1, r1), v1 in th3.items():
            for (a2_, r2), v2 in th3.items():
                if a1 + a2_ <= qmax:
                    key = (a1 + a2_, r1 + r2)
                    sq[key] = sq.get(key, Fraction(0)) + v1 * v2
        denom = [Fraction(0)] * (qmax + 1)
        for (a, _), v in sq.items():
            denom[a] += v
        quot = mul_q(sq, inv1(denom, qmax), qmax)
        for (a, r), v in quot.items():
            if v == 0:
                continue
            if a % 2:   # half-integral powers must cancel between A3 and A4
                out0[("half", a, r)] = out0.get(("half", a, r), Fraction(0)) + v
            else:
                out0[(a // 2, r)] = out0.get((a // 2, r), Fraction(0)) + v
    for key in [k for k in out0 if isinstance(k[0], str)]:
        assert out0[key] == 0, "A3 + A4 should cancel half-integral powers"
        del out0[key]
    w0 = {k: 4 * v for k, v in out0.items() if k[0] <= nmax}
    return wm2, w0


def test_weak_generators_match_oracle():
    nmax = 8
    om2, o0 = _oracle_weak_generators(nmax)
    w2, w0 = weak_generators(nmax, RAT)
    for n in range(nmax + 1):
        for r in range(-w2.rb(n), w2.rb(n) + 1):
            assert w2.c(n, r) == om2.get((n, r), 0), (n, r)
            assert w0.c(n, r) == o0.get((n, r), 0), (n, r)


# -- the two-column construction against the all-column oracle ---------------------

def _assert_same_form(got, want):
    assert (got.weight, got.index, got.prec) == (want.weight, want.index, want.prec)
    assert got.coeffs.tolist() == want.coeffs.tolist()


@pytest.mark.parametrize("tag,prec", [(tag, prec)
                                      for tag in ("fp:5", "fp:7", "fp:2097143", "fp:2097169")
                                      for prec in (1, 2, 5, 40)]
                         + [(tag, prec) for tag in ("int", "rat") for prec in (1, 2, 5, 12)])
def test_generators_match_all_column_oracle(monkeypatch, tag, prec):
    ring = ring_from_tag(tag)
    monkeypatch.setattr(qexp, "_weak_memo", {})
    for got, want in zip(weak_generators(prec, ring),
                         allcolumn_oracle.weak_generators(prec, ring)):
        _assert_same_form(got, want)
    for k in (4, 6):
        _assert_same_form(jacobi_eisenstein(k, prec, ring),
                          allcolumn_oracle.jacobi_eisenstein(k, prec, ring))
    for k in (10, 12):
        _assert_same_form(jacobi_cusp(k, prec, ring),
                          allcolumn_oracle.jacobi_cusp(k, prec, ring))


# gen 0 is phi_{-2,1}, the one generator whose zeta^2 column is built (phi_{0,1}
# is its heat image); the parameter keeps the ids of the cases
@pytest.mark.parametrize("tag", ["fp:7", "rat"])
@pytest.mark.parametrize("gen", [0])
@pytest.mark.parametrize("row", [0, 6])
def test_corrupt_zeta2_column_is_rejected(monkeypatch, tag, gen, row):
    ring = ring_from_tag(tag)
    build = qexp._theta_square_column

    def corrupt(ring, c, n):
        col = build(ring, c, n)
        if c == 1:                             # the zeta^2 column of zeta * theta^2
            bump = np.array([ring.from_int(i == row) for i in range(n)], dtype=ring.dtype)
            col = ring.canonical(col + bump)
        return col

    monkeypatch.setattr(qexp, "_theta_square_column", corrupt)
    monkeypatch.setattr(qexp, "_weak_memo", {})
    with pytest.raises(ArithmeticDomainError):
        weak_generators(6, ring)
    with pytest.raises(ArithmeticDomainError):
        jacobi_cusp(12, 6, ring)


def test_weak_generator_rows():
    w2, w0 = weak_generators(6, INT)
    assert [w2.c(0, r) for r in (-1, 0, 1)] == [1, -2, 1]
    assert [w0.c(0, r) for r in (-1, 0, 1)] == [1, 10, 1]
    assert [w2.c(1, r) for r in (-2, -1, 0, 1, 2)] == [-2, 8, -12, 8, -2]
    assert [w0.c(1, r) for r in (-2, -1, 0, 1, 2)] == [10, -64, 108, -64, 10]
    for r in (2, -2, 3, -3):
        assert w2.c(0, r) == 0 and w0.c(0, r) == 0


def test_rat_weak_generators_are_the_int_ones_cast(monkeypatch):
    """Over Q the weak columns are built over Z and cast once."""
    monkeypatch.setattr(qexp, "_weak_memo", {})
    inverted = []
    invert = qexp.invert_series
    monkeypatch.setattr(qexp, "invert_series",
                        lambda ring, a, n: inverted.append(ring.tag) or invert(ring, a, n))
    got = weak_generators(30, RAT)
    assert inverted == ["int"]
    for f, g in zip(got, weak_generators(30, INT)):
        assert f.coeffs.tolist() == g.coeffs.tolist() and not f.coeffs.flags.writeable
        assert {type(v) for v in f.coeffs.tolist()} == {Fraction}


def test_weak_generator_invariants():
    for phi in weak_generators(10, INT):
        assert check_transformation_law(phi)
    w2, w0 = weak_generators(10, INT)
    assert not check_holomorphic_support(w2) and not check_holomorphic_support(w0)
    assert not np.any(w2.z_restrict())
    z0 = w0.z_restrict()
    assert len(z0) == 11 and z0[0] == 12 and all(z0[n] == 0 for n in range(1, 11))


# -- products ---------------------------------------------------------------------

def test_jac_mul_examples():
    w2, w0 = weak_generators(6, INT)
    prod = jac_mul(w2, w0)
    assert prod.c(0, 2) == 1 and prod.c(0, -2) == 1
    assert prod.weight == -2 and prod.index == 2
    sq = jac_mul(w2, w2)
    assert sq.c(0, 0) == 6  # (z - 2 + 1/z)^2 constant term
    one = JacobiFormSeries.zero(INT, 0, 0, 6)
    one.coeffs[0] = 1
    assert jac_mul(w2, one) == w2


def _random_form(rng, ring, m, prec, bound=50):
    f = JacobiFormSeries.zero(ring, 0, m, prec)
    vals = [ring.from_int(rng.randrange(-bound, bound)) for _ in range(f.idx.size)]
    return JacobiFormSeries(ring, 0, m, prec, ring.canonical(np.array(vals, dtype=ring.dtype)))


@pytest.mark.parametrize("tag", ["fp:7", "fp:2097143", "fp:2097169", "int", "rat"])
def test_jac_mul_and_division_match_the_definition(tag):
    """jac_mul's packed series and qseries_times_jacobi's packed columns
    equal the products by the definition, and dividing w_{-2} * psi by
    w_{-2} gives psi back (one packed series division at every index), on
    int64 and object residues, Z and Q, at indices 0..3 and unequal
    precisions.  At precision 20 an index-2 by index-1 product packs to
    stride 43 and 903 terms, past qexp._FFT_MIN: the FFT over fp:7 and
    the CRT over Z.  A residual in the last stored row alone is refused."""
    ring = ring_from_tag(tag)
    rng = random.Random(tag)
    w_m2 = weak_generators(7, ring)[0]
    for ma, mb, pa, pb in ((1, 1, 6, 6), (2, 1, 7, 5), (0, 3, 4, 6), (3, 2, 5, 5), (1, 0, 5, 7)):
        a, b = _random_form(rng, ring, ma, pa), _random_form(rng, ring, mb, pb)
        prod = jac_mul(a, b)
        assert (prod.index, prod.prec) == (ma + mb, min(pa, pb))
        assert prod.coeffs.tolist() == jac_mul_loop(a, b), (ma, mb)
        f = a.coeffs[a.idx.start[:-1]]                        # the q-series c(n, 0) of a
        assert qseries_times_jacobi(f, 0, b).coeffs.tolist() == qseries_times_jacobi_loop(f, b)
        assert jacobi._divide_by_weak_m2(jac_mul(w_m2, b), w_m2) == b
    for m in (1, 2):
        with pytest.raises(DecompositionError):
            jacobi._divide_by_weak_m2(_random_form(rng, ring, m, 5), w_m2)
        bump = JacobiFormSeries.zero(ring, 0, m, 5)
        bump.coeffs[bump.idx.start[5]] = ring.one           # c(5, 0): the last row only
        with pytest.raises(DecompositionError):
            jacobi._divide_by_weak_m2(jac_mul(w_m2, _random_form(rng, ring, m - 1, 5)) + bump,
                                      w_m2)
    w_m2 = weak_generators(20, ring)[0]
    a, b = _random_form(rng, ring, 2, 20), _random_form(rng, ring, 1, 20)
    if tag in ("fp:7", "int"):
        assert jac_mul(a, b).coeffs.tolist() == jac_mul_loop(a, b)
    for f in (a, b):
        assert jacobi._divide_by_weak_m2(jac_mul(w_m2, f), w_m2) == f


def test_qseries_times_jacobi():
    w2, w0 = weak_generators(8, INT)
    d = delta_q(8, INT)
    f = qseries_times_jacobi(d, 12, w2)
    assert f.c(1, 1) == 1 and f.c(1, -1) == 1 and f.weight == 10
    g = qseries_times_jacobi(d, 12, w0)
    assert g.c(1, 1) == 1 and g.c(1, -1) == 1 and g.weight == 12
    one = INT.zeros(9)
    one[0] = 1
    assert qseries_times_jacobi(one, 0, w2) == w2


def test_qseries_times_jacobi_fp_path_matches_exact():
    w2, _ = weak_generators(8, INT)
    d = delta_q(8, INT)
    exact = qseries_times_jacobi(d, 12, w2).reduce_mod(7)
    modp = qseries_times_jacobi(delta_q(8, FP7), 12, weak_generators(8, FP7)[0])
    assert exact == modp


# -- holomorphic index-1 generators --------------------------------------------------

def test_jacobi_eisenstein_rows():
    e41 = jacobi_eisenstein(4, 6, INT)
    assert e41.c(0, 0) == 1 and e41.c(0, 1) == 0 and e41.c(0, -1) == 0
    assert [e41.c(1, r) for r in (0, 1, 2)] == [126, 56, 1]
    e61 = jacobi_eisenstein(6, 6, INT)
    assert e61.c(0, 0) == 1
    assert [e61.c(1, r) for r in (0, 1, 2)] == [-330, -88, 1]
    for f in (e41, e61):
        assert check_holomorphic_support(f)
        assert check_transformation_law(f)


@pytest.mark.parametrize("build,k", [(jacobi_eisenstein, 10), (jacobi_cusp, 4),
                                     (jacobi.index1_columns, 8)])
def test_index1_builders_refuse_other_weights(build, k):
    with pytest.raises(InvalidArgumentError):
        build(k, 4, INT)


def test_jacobi_cusp_rows():
    p10 = jacobi_cusp(10, 6, INT)
    p12 = jacobi_cusp(12, 6, INT)
    assert p10.c(1, 0) == -2 and p10.c(1, 1) == 1
    assert p12.c(1, 0) == 10 and p12.c(1, 1) == 1
    assert all(p10.c(0, r) == 0 for r in (-1, 0, 1))
    assert check_holomorphic_support(p10) and check_holomorphic_support(p12)


# -- heat operator ---------------------------------------------------------------------

def test_heat_multipliers():
    w2, w0 = weak_generators(4, INT)
    h = heat(w2)
    assert h.c(1, 1) == 3 * w2.c(1, 1)          # 4*1*1 - 1 = 3
    assert h.c(0, 1) == -1 * w2.c(0, 1)
    prod = jac_mul(w2, w2)                       # index 2
    hp = heat(prod)
    assert hp.c(1, 2) == 4 * prod.c(1, 2)        # 8 - 4 = 4
    # singular keys are annihilated
    e41 = jacobi_eisenstein(4, 6, INT)
    he = heat(e41)
    assert he.c(1, 2) == 0 and he.c(0, 0) == 0


def test_heat_weight_annotation():
    e41 = jacobi_eisenstein(4, 6, FP5)
    assert heat(e41).weight == 4 + 6
    assert heat(jacobi_eisenstein(4, 6, INT)).weight == 4


# -- decomposition over the weak generators ----------------------------------------------

def test_weak_decompose_cusp():
    p10 = jacobi_cusp(10, 8, FP7)
    f0, f1 = weak_decompose(p10)
    assert not np.any(f0)
    assert f1.tolist() == delta_q(8, FP7).tolist()


def test_weak_decompose_eisenstein_rat():
    e41 = jacobi_eisenstein(4, 8, RAT)
    f0, f1 = weak_decompose(e41)
    e4 = eisenstein_q(4, 8, RAT)
    e6 = eisenstein_q(6, 8, RAT)
    assert f0.tolist() == [v / 12 for v in e4.tolist()]
    assert f1.tolist() == [-v / 12 for v in e6.tolist()]


def test_weak_decompose_identity():
    _, w0 = weak_generators(8, RAT)
    f0, f1 = weak_decompose(w0)
    assert f0.tolist() == [1] + [0] * 8
    assert not np.any(f1)


def test_weak_decompose_round_trip():
    rng = random.Random(5)
    prec = 9
    gens = weak_generators(prec, FP5)
    for _ in range(10):
        k = rng.choice([4, 6, 8, 10])
        fs = []
        for j in range(3):
            basis = mk_basis(k + 2 * j, prec, FP5)
            coeffs = [rng.randrange(5) for _ in basis]
            fs.append(FP5.canonical(np.array(coeffs, dtype=np.int64) @ basis))
        phi = reconstruct_weak(fs, k, gens)
        assert phi.weight == k
        back = weak_decompose(phi)
        assert len(back) == 3
        for want, got in zip(fs, back):
            assert want.tolist() == got.tolist()


def test_weak_monomials_are_memoized_at_the_largest_precision(monkeypatch):
    gens = weak_generators(12, FP7)
    monkeypatch.setattr(jacobi, "_mono_cache", {})
    calls = []
    real = jacobi.jac_mul
    monkeypatch.setattr(jacobi, "jac_mul", lambda a, b: calls.append(1) or real(a, b))
    assert jacobi._weak_monomial(gens, 1, 0, 12) == gens[0] and not calls
    assert jacobi._weak_monomial(gens, 0, 1, 12) == gens[1] and not calls
    big = jacobi._weak_monomial(gens, 1, 2, 12)
    assert big == real(real(gens[0], gens[1]), gens[1]) and len(calls) == 2
    assert jacobi._weak_monomial(gens, 1, 2, 12) == big and len(calls) == 2
    assert jacobi._weak_monomial(gens, 1, 2, 6) == big.truncate(6) and len(calls) == 2
    assert set(jacobi._mono_cache) == {("fp:7", 1, 0), ("fp:7", 0, 1), ("fp:7", 0, 2), ("fp:7", 1, 2)}


def test_memoized_forms_are_read_only():
    gens = weak_generators(12, FP7)
    with pytest.raises(ValueError):
        gens[0].coeffs[0] = 1
    with pytest.raises(ValueError):
        jacobi._weak_monomial(gens, 1, 2, 6).coeffs[0] = 1
    with pytest.raises(ValueError):
        holo_basis(10, 1, 14, 7)[0].coeffs[0] = 1


def test_weak_decompose_rejects_garbage():
    for n, r in ((2, 1), (2, 2), (2, 0), (1, 1), (3, 3)):
        p10 = jacobi_cusp(10, 8, FP7)
        p10.coeffs[p10.idx.start[n] + r] += 1   # break the pair c(n, +-r)
        p10.coeffs %= 7
        with pytest.raises(DecompositionError):
            weak_decompose(p10)


# -- zero test -----------------------------------------------------------------------------

def test_jac_zero_test():
    prec = zero_test_required_prec(10, 1)
    p10 = jacobi_cusp(10, prec, FP7)
    w2, _ = weak_generators(prec, FP7)
    diff = p10 - qseries_times_jacobi(delta_q(prec, FP7), 12, w2)
    assert diff.weight == 10
    assert jac_zero_test(diff)
    assert not jac_zero_test(jacobi_eisenstein(4, zero_test_required_prec(4, 1), FP5))
    z = JacobiFormSeries.zero(FP5, 12, 1, zero_test_required_prec(12, 1))
    assert jac_zero_test(z)


def test_jac_zero_test_needs_precision():
    with pytest.raises(PrecisionError):
        jac_zero_test(jacobi_cusp(12, 1, FP5))


# -- holomorphic bases and filtrations ------------------------------------------------------

def test_holo_basis_dims():
    assert len(holo_basis(-2, 1, 12, 5)) == 0
    assert len(holo_basis(0, 1, 12, 5)) == 0
    assert len(holo_basis(4, 1, 12, 5)) == 1
    assert len(holo_basis(6, 1, 12, 5)) == 1
    assert len(holo_basis(10, 1, 14, 5)) == 2
    assert len(holo_basis(4, 2, 12, 5)) == 1


def test_holo_basis_weight4_is_eisenstein():
    basis = holo_basis(4, 1, 12, 5)[0]
    e41 = jacobi_eisenstein(4, 12, FP5)
    assert basis == e41


def test_filtration_examples():
    e41 = jacobi_eisenstein(4, 40, FP5)
    assert filtration(e41) == 4
    # equality case of the filtration step law: 5 does not divide (2*4-1)*1
    assert filtration(heat(e41)) == 10
    assert filtration(JacobiFormSeries.zero(FP5, 4, 1, 10)) == NEG_INF


def test_filtration_drop_detects_lower_weight():
    # E4 * E_{4,1} has weight 8 but E4 = 1 mod 5 drops it to 4
    e41 = jacobi_eisenstein(4, 40, FP5)
    f = qseries_times_jacobi(eisenstein_q(4, 40, FP5), 4, e41)
    assert f.weight == 8
    assert filtration(f) == 4


@pytest.mark.parametrize("p", [5, 7, 17, 2097169])
def test_holo_basis_matches_per_form_oracle(p):
    for m in (1, 2):
        for k in range(-2, 41):
            win = filtration_oracle.filtration_window(k, m, p) or m + 6
            got = holo_basis(k, m, win, p)
            want = filtration_oracle.holo_basis(k, m, win, p)
            assert len(got) == len(want), (k, m, p)
            for f, g in zip(got, want):
                assert f == g and f.weight == g.weight == k


def _oracle_filtration_memoized(monkeypatch):
    """filtration_oracle.filtration with its per-form bases built once per key."""
    monkeypatch.setattr(filtration_oracle, "holo_basis", lru_cache(None)(filtration_oracle.holo_basis))
    monkeypatch.setattr(filtration_oracle, "mk_basis", lru_cache(None)(filtration_oracle.mk_basis))
    return filtration_oracle.filtration


@pytest.fixture()
def window_spans():
    """_window_span memoizes for one test only."""
    yield
    _window_span.cache_clear()


@lru_cache(None)
def _window_span(k, m, prec, p):
    """(R, pivots): the echelon form of jacobi.holo_candidates(k, m, prec)."""
    red, rank, piv = rref(FpMatrix(p, jacobi.holo_candidates(k, m, prec, ring_from_tag(f"fp:{p}"))))
    return red.data[:rank], np.array(piv, dtype=np.intp)


def _window_member(phi, kp):
    """phi lies in the weight-kp holomorphic space on the window of
    filtration_oracle: the membership test the window filtration used.

    phi vanishes at every key with D < 0 (asserted), so it lies in the span
    of holo_basis(kp, m, window, p), the candidate combinations that vanish
    there, iff it lies in the span of the candidates themselves: one
    echelon form per window instead of holo_basis's two."""
    p = phi.ring.p
    win = filtration_oracle.filtration_window(kp, phi.index, p)
    if not win:
        return False
    v = phi.at_prec(win)
    assert not np.any(v[jacobi.jacobi_index(phi.index, win).D < 0])
    red, piv = _window_span(kp, phi.index, win, p)
    return bool(len(piv)) and not np.any((v - v[piv] @ red) % p)


def _assert_memberships_agree(phi):
    """At every candidate weight kp, the valuation (filtration(phi) <= kp),
    the bisection oracle's Sturm-row membership and window membership
    agree, and the valuation equals the bisection oracle's filtration."""
    p, k = phi.ring.p, phi.weight
    fs = weak_decompose(phi)
    om = filtration(phi)
    assert om == filtration_oracle.bisection_filtration(phi), (k, p)
    for kp in range(k % (p - 1), k + 1, p - 1):
        member = filtration_oracle.in_weight(fs, k, kp, phi.ring)
        assert member == _window_member(phi, kp) == (om <= kp), (k, kp, p, om)


@pytest.mark.parametrize("p", [5, 7, 17])
def test_filtration_matches_oracle_on_random_span_elements(monkeypatch, window_spans, p):
    """Span elements raised by E_{p-1}^s, s = 0..3, sit s candidates above
    their filtration; the valuation finds it, the bisection oracle finds it
    whatever hint it is given, and the valuation, decomposition membership
    and window membership agree at every candidate."""
    oracle = _oracle_filtration_memoized(monkeypatch)
    rng = random.Random(p)
    ring = ring_from_tag(f"fp:{p}")
    for m in (1, 2):
        for k in rng.sample(range(4, 41, 2), 3):
            prec = filtration_oracle.filtration_required_prec(k + 3 * (p - 1), m, p)
            basis = filtration_oracle.holo_basis(k, m, prec, p)
            phi = JacobiFormSeries.zero(ring, k, m, prec)
            while phi.is_zero_window():
                for f in basis:
                    phi = phi + f.scale(rng.randrange(p))
            ep = eisenstein_q(p - 1, prec, ring)
            for s in range(4):
                form = qseries_times_jacobi(filtration_oracle.power(ring, ep, s), s * (p - 1), phi)
                _assert_memberships_agree(form)
                want = oracle(form)
                assert form.weight == k + s * (p - 1)
                assert filtration(form) == want, (k, m, s)
                for hint in (None, want, want - 2 * (p - 1), -10, want + p - 1,
                             form.weight + 5 * (p - 1), want + 1, want - 1, NEG_INF):
                    assert filtration_oracle.bisection_filtration(form, hint) == want, (k, m, s, hint)


def test_least_member_never_tests_the_top_unless_it_is_the_answer():
    for n in range(9):
        for first in range(n + 1):               # first == n: no member
            for hint in [None, *range(-2, n + 2)]:
                tested = []
                got = filtration_oracle.least_member(n, lambda i: tested.append(i) or i >= first,
                                                     hint)
                assert got == (first if first < n else None), (n, first, hint)
                assert len(set(tested)) == len(tested)
                if first < n - 1:
                    assert n - 1 not in tested, (n, first, hint)


def test_filtration_keeps_the_scan_errors():
    """Precision below the zero test's at phi's weight, a form with a
    coefficient at D < 0 and a form in no candidate space are refused, by
    the valuation and by the bisection oracle alike; a form of weight 34 is
    decided on
    zero_test_required_prec(34, 1) = 5 rows, below every candidate window."""
    e41 = jacobi_eisenstein(4, 40, FP5)
    raised = qseries_times_jacobi(filtration_oracle.power(FP5, eisenstein_q(4, 40, FP5), 6), 24, heat(e41))
    assert raised.weight == 34 and zero_test_required_prec(34, 1) == 5
    assert [filtration_oracle.filtration_window(kp, 1, 5) for kp in (2, 6, 10)] == [8, 9, 10]
    bisection = filtration_oracle.bisection_filtration
    assert filtration(raised.truncate(9)) == filtration(raised.truncate(5)) == 10
    for hint in (None, raised.weight):
        assert bisection(raised.truncate(9), hint) == bisection(raised.truncate(5), hint) == 10
    weak = weak_generators(40, FP5)[1]       # phi_{0,1}: not holomorphic
    for filt in (filtration, bisection):
        with pytest.raises(PrecisionError) as err:
            filt(raised.truncate(4))
        assert (err.value.required, err.value.available) == (5, 4)
        with pytest.raises(InvalidArgumentError, match="D < 0"):
            filt(JacobiFormSeries(FP5, 8, 1, 40, weak.coeffs))
        with pytest.raises(InvalidArgumentError, match="at any weight <= 0"):
            filt(JacobiFormSeries(FP5, 0, 1, 40, e41.coeffs))    # E_{4,1} called weight 0


@pytest.mark.parametrize("k,m,p,form", [(14, 2, 11, "E4_1*phi10_1"), (16, 1, 13, "E4*phi12_1"),
                                        (22, 2, 7, "phi10_1*phi12_1"), (12, 1, 23, "phi12_1"),
                                        (14, 2, 13, "E4_1*phi10_1"), (12, 1, 5, "phi12_1"),
                                        (12, 1, 17, "phi12_1")])
def test_decomposition_membership_matches_the_window_bases(window_spans, k, m, p, form):
    """Every heat iterate of five golden heat-cycle forms and of phi_{12,1}
    at p = 5 and 17 (the benchmark's cycle), at every candidate weight: the
    valuation, the bisection oracle and the window agree.  The window spans
    are built once per key: iterates i and i + p - 1 share candidates."""
    from siegelcong.cli import build_named_jacobi
    phi = build_named_jacobi(form, filtration_oracle.heat_cycle_window_prec(k, m, p),
                             ring_from_tag(f"fp:{p}"))
    for _ in range(1, p):
        phi = heat(phi)
        _assert_memberships_agree(phi)


@pytest.mark.parametrize("k,m,p,form", [(12, 1, 17, "phi12_1"), (14, 2, 11, "E4_1*phi10_1")])
def test_heat_cycle_filtrations_match_the_oracle(monkeypatch, k, m, p, form):
    from siegelcong.cli import build_named_jacobi
    oracle = _oracle_filtration_memoized(monkeypatch)
    ring = ring_from_tag(f"fp:{p}")
    phi = build_named_jacobi(form, filtration_oracle.heat_cycle_window_prec(k, m, p), ring)
    rep = heat_cycle(phi)
    assert rep.status == "ok" and len(rep.filtrations) == p - 1
    for om in rep.filtrations:
        phi = heat(phi)
        assert om == oracle(phi)


GOLDEN_CYCLES = [(14, 2, 11, "E4_1*phi10_1"), (16, 1, 13, "E4*phi12_1"), (22, 2, 7, "phi10_1*phi12_1"),
                 (12, 1, 23, "phi12_1"), (14, 2, 13, "E4_1*phi10_1"), (14, 2, 23, "E4_1*phi10_1"),
                 (12, 1, 5, "phi12_1"), (12, 1, 17, "phi12_1")]


@pytest.mark.parametrize("k,m,p,form", GOLDEN_CYCLES)
def test_heat_cycle_filtrations_match_the_bisection(k, m, p, form):
    """heat_cycle's valuations equal the bisection oracle's filtrations, led
    by the step-law hint as the bisection was, on every heat iterate of the
    six golden heat-cycle forms and of phi_{12,1} at p = 5 and 17."""
    from siegelcong.cli import build_named_jacobi
    phi = build_named_jacobi(form, heat_cycle_required_prec(k, m, p), ring_from_tag(f"fp:{p}"))
    got, want = heat_cycle(phi).filtrations, []
    for _ in range(1, p):
        phi = heat(phi)
        want.append(filtration_oracle.bisection_filtration(phi, want[-1] + p + 1 if want else None))
    assert got == want


def test_heat_cycle_builds_each_basis_once(monkeypatch):
    """On the (12, 1, 17) heat cycle: no holomorphic basis and no level-1
    basis at all, since each filtration is a valuation; E_16 mod 17 is
    solved for once, and the coordinate matrices shared by every weight are
    rebuilt only at at least twice their size."""
    built = {}

    class Recording(BoundedMemo):
        def __setitem__(self, key, value):
            built.setdefault(self.name, []).append(value)
            super().__setitem__(key, value)

    for name in ("_bases", "_hasse", "_coordinate_memo"):
        memo = Recording(qexp.MEMO_BYTES, getattr(qexp, name).size)
        memo.name = name
        monkeypatch.setattr(qexp, name, memo)
    calls = []
    real = jacobi.holo_basis
    monkeypatch.setattr(jacobi, "holo_basis", lambda k, m, prec, p: calls.append((k, m, prec, p))
                        or real(k, m, prec, p))
    phi = jacobi_cusp(12, heat_cycle_required_prec(12, 1, 17), ring_from_tag("fp:17"))
    assert heat_cycle(phi).filtrations[:3] == [30, 48, 66]
    assert not calls
    assert "_bases" not in built and len(built["_hasse"]) == 1
    sizes = [len(mats[0]) for mats in built["_coordinate_memo"]]
    assert all(2 * a <= b for a, b in zip(sizes, sizes[1:]))


def test_heat_cycle_bytes_bound_an_iterate_and_the_coordinates():
    """The estimates behind the heat-cycle refusal: form_bytes is at least
    the bytes of an int64 form of index m to q^N and at most twice them, and
    the coordinate term is at most what the matrices of the p = 23 cycle
    (46 rows) hold."""
    for m in range(6):
        for prec in [*range(40), 200, 787, 3000]:
            have = 8 * jacobi.jacobi_index(m, prec).size
            assert have <= form_bytes(m, prec) <= 2 * have
    prec = heat_cycle_required_prec(12, 1, 23)
    assert heat_cycle_bytes(12, 1, 23, prec) == (form_bytes(1, prec), 32 * 46 ** 2)
    held = sum(a.nbytes for a in qexp.coordinate_matrices(ring_from_tag("fp:23"), 46))
    assert 32 * 46 ** 2 <= held


def test_heat_cycle_builds_the_coordinates_once(monkeypatch):
    """phi_{12,1} at p = 23 runs to weight 540 (46 Sturm rows, past the 32
    that a first build covers): from a cold memo the level-1 coordinate
    matrices are built once, at the last iterate's rows, and the
    filtrations are the golden file's."""
    builds, build = [], qexp._coordinates
    monkeypatch.setattr(qexp, "_coordinate_memo",
                        BoundedMemo(qexp.MEMO_BYTES, qexp._coordinate_memo.size))
    monkeypatch.setattr(qexp, "_coordinates", lambda ring, n: builds.append(n) or build(ring, n))
    phi = jacobi_cusp(12, heat_cycle_required_prec(12, 1, 23), ring_from_tag("fp:23"))
    golden = Path(__file__).parent / "data" / "golden" / "heat_cycle_w12_m1_p23.json"
    assert heat_cycle(phi).filtrations == json.loads(golden.read_text())["filtrations"]
    assert builds == [46]


def test_heat_cycle_decomposes_each_iterate_once(monkeypatch):
    """The zero test of L phi and its filtration share one decomposition:
    16 decompositions for the 16 filtrations of the (12, 1, 17) cycle."""
    weights = []
    real = jacobi._weak_components
    monkeypatch.setattr(jacobi, "_weak_components",
                        lambda phi: weights.append(phi.weight) or real(phi))
    phi = jacobi_cusp(12, heat_cycle_required_prec(12, 1, 17), ring_from_tag("fp:17"))
    assert len(heat_cycle(phi).filtrations) == 16
    assert weights == [12 + 18 * i for i in range(1, 17)]
    it = heat(phi)
    fs = weak_decompose(it)
    assert all(a is b for a, b in zip(weak_decompose(it), fs)) and len(weights) == 17
    assert all(not f.flags.writeable for f in fs)
    assert weak_decompose(it.truncate(it.prec - 1))[0].tolist() == fs[0][:-1].tolist()


def _divide_with_a_fresh_inverse(psi, w_m2):
    """The coefficients of psi / w_m2 packed at psi's own bounds and stride,
    with the packed w_m2 inverted at that stride."""
    ring, prec = psi.ring, min(psi.prec, w_m2.prec)
    bw, bu = jacobi.rbound(1, prec), jacobi.rbound(psi.index - 1, prec)
    stride = 2 * (bw + bu) + 1
    unit = jacobi._pack(w_m2, prec, bw, stride)[bw - 1:]
    quot = qexp.convolve_trunc(ring, jacobi._pack(psi, prec, bw + bu, stride)[bw - 1:],
                               qexp.invert_series(ring, unit, len(unit)), len(unit))
    idx = jacobi.jacobi_index(psi.index - 1, prec)
    return quot[idx.n * stride + bu + idx.r]


@pytest.mark.parametrize("k,m,p,form", GOLDEN_CYCLES + [
    (14, 2, 43, "E4_1*phi10_1"), (22, 3, 13, "E4_1*E6_1*phi12_1"), (14, 2, 5, "E4_1*phi10_1")])
def test_heat_cycle_shares_one_inverse_per_index(monkeypatch, k, m, p, form):
    """Every heat iterate of the golden heat-cycle forms, of phi_{12,1} at
    p = 5 and 17, and of an index-2 form at p = 5: each division by
    phi_{-2,1} reads a prefix of one inverse per index, built at the cycle's
    largest precision, and gives the quotient of a fresh inverse at the
    iterate's own precision and stride.  The inverses are read-only and
    held in a BoundedMemo under MEMO_BYTES."""
    from siegelcong.cli import build_named_jacobi
    assert isinstance(jacobi._inverse_memo, BoundedMemo)
    assert jacobi._inverse_memo.limit == qexp.MEMO_BYTES
    memo = BoundedMemo(qexp.MEMO_BYTES, jacobi._inverse_memo.size)
    monkeypatch.setattr(jacobi, "_inverse_memo", memo)
    ring = ring_from_tag(f"fp:{p}")
    phi = build_named_jacobi(form, heat_cycle_required_prec(k, m, p), ring)
    divisions, inverses = [], []
    divide, invert = jacobi._divide_by_weak_m2, jacobi.invert_series
    monkeypatch.setattr(jacobi, "_divide_by_weak_m2",
                        lambda psi, w: divisions.append((psi, w, divide(psi, w))) or divisions[-1][2])
    monkeypatch.setattr(jacobi, "invert_series", lambda *a: inverses.append(a) or invert(*a))
    assert heat_cycle(phi).status == "ok"
    assert len(inverses) == m and len(divisions) == m * (p - 1)
    assert len({psi.prec for psi, _, _ in divisions}) > 1
    for psi, w, u in divisions:
        assert u.coeffs.tolist() == _divide_with_a_fresh_inverse(psi, w).tolist()
    assert sorted(memo) == [(ring.tag, mu) for mu in range(1, m + 1)]
    assert memo.nbytes <= memo.limit
    assert all(not memo.get(key)[-1].flags.writeable for key in list(memo))


@pytest.mark.parametrize("k,m,p,form,short,weight,need", [
    (12, 1, 17, "phi12_1", 1, 300, 27), (12, 1, 17, "phi12_1", 6, 246, 22),
    (12, 1, 17, "phi12_1", 20, 84, 9), (14, 2, 11, "E4_1*phi10_1", 1, 134, 14),
    (14, 2, 11, "E4_1*phi10_1", 4, 98, 11), (12, 1, 5, "phi12_1", 1, 36, 5)])
def test_heat_cycle_refuses_a_short_form_at_the_same_iterate(k, m, p, form, short, weight, need):
    """A form `short` rows below heat_cycle_required_prec is refused by the
    filtration of the first iterate whose zero test needs more rows, with
    the message, required and available precision the bisection had; the
    per-iterate truncation never asks for rows the form lacks."""
    from siegelcong.cli import build_named_jacobi
    prec = heat_cycle_required_prec(k, m, p) - short
    phi = build_named_jacobi(form, prec, ring_from_tag(f"fp:{p}"))
    with pytest.raises(PrecisionError) as err:
        heat_cycle(phi)
    assert str(err.value) == f"filtration at weight {weight}, index {m} needs precision {need}"
    assert (err.value.required, err.value.available) == (need, prec)


def test_jacobi_memos_are_bounded():
    for memo in (jacobi._mono_cache, qexp._weak_memo, qexp._bases, qexp._level1, qexp._hasse,
                 qexp._hasse_inverse, qexp._coordinate_memo):
        assert isinstance(memo, BoundedMemo) and memo.limit == qexp.MEMO_BYTES


def test_weak_memos_evict_and_rebuild_the_same_forms(monkeypatch):
    gens = weak_generators(12, FP7)
    want = [jacobi._weak_monomial(gens, j, 3 - j, 12) for j in range(4)]
    small = BoundedMemo(2 * want[0].coeffs.nbytes, jacobi._mono_cache.size)
    monkeypatch.setattr(jacobi, "_mono_cache", small)
    for _ in range(2):
        for j in range(4):
            assert jacobi._weak_monomial(gens, j, 3 - j, 12) == want[j]
            assert small.nbytes <= small.limit and len(small) <= 2
    monkeypatch.setattr(qexp, "_weak_memo", BoundedMemo(1, qexp._weak_memo.size))
    for tag in ("fp:7", "fp:5", "fp:7"):
        w = weak_generators(10, ring_from_tag(tag))
        assert list(qexp._weak_memo) == [tag] and w[0].prec == 10
        assert not w[0].coeffs.flags.writeable
    assert all(f == g.truncate(10) for f, g in zip(w, gens))


@pytest.mark.parametrize("p", [2097169, 3037000493])
def test_dense_filtration_at_a_list_row_prime(monkeypatch, p):
    """Object-dtype primes, where M_{p-1} is far too large to build: every
    component weight is below p - 1, so the filtration never asks for
    E_{p-1}'s polynomial."""
    def refuse(ring):
        raise AssertionError(f"E_{p - 1} built at {ring.tag}")

    monkeypatch.setattr(qexp, "hasse_invariant", refuse)
    ring = ring_from_tag(f"fp:{p}")
    assert len(holo_basis(10, 1, 14, p)) == 2
    assert filtration(jacobi_cusp(12, 20, ring)) == 12
    assert filtration(jacobi_eisenstein(4, 20, ring)) == 4


@pytest.mark.parametrize("p", [5, 7])
def test_heat_cycle_filtrations_hold_at_the_original_weight(p):
    """phi == E_{p-1}^s psi at phi's weight k for each heat iterate phi of
    phi_{12,1}, where psi is rebuilt from the reduction coordinates v[piv]
    that put phi in the weight-k' span and s = (k - k')/(p - 1)."""
    ring = ring_from_tag(f"fp:{p}")
    phi = jacobi_cusp(12, filtration_oracle.heat_cycle_window_prec(12, 1, p), ring)
    for _ in range(1, p):
        phi = heat(phi)
        k, kp = phi.weight, filtration(phi)
        win = filtration_oracle.filtration_window(kp, 1, p)
        basis = holo_basis(kp, 1, win, p)
        psi = JacobiFormSeries.zero(ring, kp, 1, win)
        for f, c in zip(basis, phi.at_prec(win)[basis.pivots]):
            psi = psi + f.scale(int(c))
        assert not psi.is_zero_window()
        ep = eisenstein_q(p - 1, win, ring)
        lift = qseries_times_jacobi(filtration_oracle.power(ring, ep, (k - kp) // (p - 1)), k - kp, psi)
        assert lift.weight == k
        assert jac_zero_test(phi.truncate(win) - lift)


# -- heat cycles -----------------------------------------------------------------------------

def test_heat_cycle_phi12_mod5():
    prec = heat_cycle_required_prec(12, 1, 5)
    rep = heat_cycle(jacobi_cusp(12, prec, FP5))
    assert rep.status == "ok"
    assert rep.filtrations == [18, 12, 18, 12]
    assert rep.high_points == [1, 3]
    assert sorted(rep.low_points) == [2, 4]
    assert sum(rep.falls.values()) == 6  # p + 1


def test_heat_cycle_reports_share_no_list_or_dict():
    a, b = jacobi.HeatCycleReport(5, 12, 1, "ok"), jacobi.HeatCycleReport(5, 12, 1, "ok")
    assert a == b
    for name in ("filtrations", "high_points", "low_points", "falls"):
        assert getattr(a, name) is not getattr(b, name)
    a.filtrations.append(18)
    a.high_points.append(1)
    a.low_points.append(2)
    a.falls[1] = 3
    assert a != b and b.to_json() == {"p": 5, "weight": 12, "index": 1, "status": "ok",
                                      "filtrations": [], "high_points": [], "low_points": [],
                                      "falls": {}}


def test_heat_cycle_fermat_closure():
    prec = heat_cycle_required_prec(12, 1, 5)
    phi = jacobi_cusp(12, prec, FP5)
    l1 = heat(phi)
    lp = heat_iterate(phi, 5)
    assert np.array_equal(lp.coeffs, l1.coeffs)


def test_heat_cycle_degenerate():
    # the heat image of the weight-4 Eisenstein slice vanishes mod 7
    e41 = jacobi_eisenstein(4, 30, FP7)
    rep = heat_cycle(e41)
    assert rep.status == "degenerate"


def test_heat_cycle_theory_silent():
    z = JacobiFormSeries.zero(FP5, 10, 5, 8)   # p | m
    assert heat_cycle(z).status == "theory-silent"


# -- congruence criteria -----------------------------------------------------------------------

def test_jac_congruence_phi12_mod5():
    prec = zero_test_required_prec(12 + 24, 1)
    p12 = jacobi_cusp(12, prec, FP5)
    assert jac_congruence(p12, 1).holds
    assert jac_congruence(p12, 4).holds
    v = jac_congruence(p12, 2)
    assert not v.holds and v.witness is not None
    n, r = v.witness
    assert (4 * n - r * r) % 5 == 2
    assert p12.c(n, r) % 5 != 0


def test_jac_congruence_eisenstein_mod7():
    prec = zero_test_required_prec(4 + 32, 1)
    e41 = jacobi_eisenstein(4, prec, FP7)
    assert jac_congruence(e41, 3).holds


def test_jac_congruence_needs_precision():
    with pytest.raises(PrecisionError):
        jac_congruence(jacobi_cusp(12, 3, FP5), 1)


def test_jac_direct_scan():
    p12 = jacobi_cusp(12, 20, FP5)
    clean, _ = jac_direct_scan(p12, 5, 1)
    assert clean
    clean, wit = jac_direct_scan(p12, 5, 2)
    assert not clean
    n, r = wit
    assert (4 * n - r * r) % 5 == 2 and p12.c(n, r) % 5
    z = JacobiFormSeries.zero(FP5, 12, 1, 8)
    assert jac_direct_scan(z, 5, 3) == (True, None)


@pytest.mark.parametrize("p,error", [(7, RingMismatchError), (3, InvalidArgumentError)])
def test_jac_direct_scan_refuses_another_characteristic(p, error):
    """Residues mod 5 read mod 7 or mod 3 would give witnesses of nothing."""
    with pytest.raises(error):
        jac_direct_scan(jacobi_cusp(12, 20, FP5), p, 1)
    assert jac_direct_scan(jacobi_cusp(12, 20, INT), 7, 1) == jac_direct_scan(
        jacobi_cusp(12, 20, FP7), 7, 1)


def test_direct_scan_consistent_with_criterion_b0():
    prec = zero_test_required_prec(12 + 24, 1)
    p12 = jacobi_cusp(12, prec, FP5)
    v0 = jac_congruence(p12, 0)
    clean, _ = jac_direct_scan(p12, 5, 0)
    assert v0.holds == clean


def test_nonexistence_applies():
    e41 = jacobi_eisenstein(4, 30, FP5)
    assert nonexistence_applies(4, 1, 5, 1, e41)
    # hypotheses true: the congruence must fail
    assert not jac_congruence(jacobi_eisenstein(4, zero_test_required_prec(4 + 18, 1), FP5), 1).holds
    p12 = jacobi_cusp(12, 30, FP5)
    assert not nonexistence_applies(12, 1, 5, 1, p12)   # p < k
    z = JacobiFormSeries.zero(FP5, 4, 5, 8)
    assert not nonexistence_applies(4, 5, 5, 1, z)      # p | m


def test_json_dump_shape():
    e41 = jacobi_eisenstein(4, 4, INT)
    doc = e41.to_json()
    assert doc["kind"] == "jacobi" and doc["weight"] == 4 and doc["index"] == 1
    assert all(r >= 0 for _, r, _ in doc["coeffs"])
    assert [0, 0, 1] in doc["coeffs"]
