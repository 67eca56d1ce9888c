import random
import time
import tracemalloc
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelcong import ring as ringmod, siegel
from siegelcong.errors import (InconsistentVerdictError, InvalidArgumentError, PrecisionError,
                               SiegelCongError)
from siegelcong import jacobi, qexp
from siegelcong.jacobi import jacobi_cusp, jacobi_eisenstein
from siegelcong.qexp import index1_columns
from siegelcong.ring import FpRing, is_prime, legendre, ring_from_tag
from siegelcong.siegel import (BoxIndex, CongruenceCertificate, GeneratorContext,
                               SiegelFormSeries, box_bytes, congruence_scan,
                               igusa_generator, igusa_generators,
                               maass_lift, siegel_congruence, siegel_mul, sieve, sturm_zero,
                               weight_monomials)
from mul_loop_oracle import mul_loop
from qexp_checks import eisenstein_q
from siegel_checks import (MatrixIndexT, NotInRingError, check_unimodular_moves, decompose_mod_p,
                           dyadic_trace, enumerate_reduced, fourier_jacobi, maass_lift_loop,
                           reduce_T, siegel_direct_scan, support_dets, theta_operator,
                           verify_combination)
from targeted_oracle import targeted_mul

INT = ring_from_tag("int")
FP5 = ring_from_tag("fp:5")
FP7 = ring_from_tag("fp:7")


# -- reduction: brute-force oracle over small unimodular transforms -----------------

def _orbit_reduced(n, r, m, cap=400):
    """Minimal reduced representative found by BFS over the basic moves."""
    seen = {(n, r, m)}
    frontier = [(n, r, m)]
    best = None
    while frontier and len(seen) < cap:
        nxt = []
        for (a, b, c) in frontier:
            cands = [(c, b, a), (a, -b, c),
                     (a, b + 2 * a, c + b + a), (a, b - 2 * a, c - b + a)]
            for t in cands:
                if t in seen or min(t[0], t[2]) < 0 or abs(t[1]) > 4 * max(t[0], t[2], 1):
                    continue
                seen.add(t)
                nxt.append(t)
        frontier = nxt
    for (a, b, c) in seen:
        if a == 0 and b == 0 or (0 <= b <= a <= c):
            key = (a, abs(b), c) if a else (0, 0, c)
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("raw,expect", [
    ((1, 2, 1), (0, 0, 1)),
    ((1, 1, 1), (1, 1, 1)),
    ((1, -1, 1), (1, 1, 1)),
])
def test_reduce_examples(raw, expect):
    assert reduce_T(raw).key() == expect


def test_reduce_matches_bruteforce_orbit():
    for n in range(5):
        for m in range(5):
            top = isqrt(4 * n * m)
            for r in range(-top, top + 1):
                got = reduce_T((n, r, m))
                assert got.det == 4 * n * m - r * r
                assert got.is_reduced
                assert got.key() == _orbit_reduced(n, r, m)


def test_reduce_rejects_indefinite():
    with pytest.raises(InvalidArgumentError):
        reduce_T((1, 3, 1))


def test_dyadic_trace():
    assert dyadic_trace(MatrixIndexT(1, 1, 1)) == 3
    assert dyadic_trace(MatrixIndexT(1, 0, 1)) == 4
    assert dyadic_trace(MatrixIndexT(2, 2, 3)) == 8
    assert dyadic_trace(MatrixIndexT(0, 0, 3)) == 6
    assert dyadic_trace(MatrixIndexT(0, 0, 0)) == 0
    with pytest.raises(InvalidArgumentError):
        dyadic_trace(MatrixIndexT(2, 1, 1))


def _enumerate_oracle(wmax):
    found = set()
    box = wmax + 2
    for n in range(box):
        for m in range(box):
            for r in range(-2 * box, 2 * box + 1):
                if 4 * n * m - r * r < 0:
                    continue
                t = reduce_T((n, r, m))
                if dyadic_trace(t) <= wmax:
                    found.add(t.key())
    return sorted(found)


@pytest.mark.parametrize("wmax,expect", [
    (0, [(0, 0, 0)]),
    (3, [(0, 0, 0), (0, 0, 1), (1, 1, 1)]),
    (4, [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 1), (1, 1, 1)]),
])
def test_enumerate_reduced_small(wmax, expect):
    assert sorted(t.key() for t in enumerate_reduced(wmax)) == expect


def test_enumerate_reduced_vs_oracle():
    for wmax in (5, 6, 8):
        assert sorted(t.key() for t in enumerate_reduced(wmax)) == _enumerate_oracle(wmax)


# -- the Maass lift ------------------------------------------------------------------

def test_maass_lift_formula():
    phi = jacobi_cusp(10, 16, INT)
    F = maass_lift(INT, 10, index1_columns(10, 16, INT), 4)
    assert F.a(1, 1, 1) == phi.c(1, 1)
    assert F.a(2, 0, 2) == phi.c(4, 0) + 2 ** 9 * phi.c(1, 0)
    assert F.a(1, 0, 1) == -2
    assert F.a(0, 0, 0) == 0


def test_maass_lift_needs_precision():
    with pytest.raises(PrecisionError):
        maass_lift(INT, 10, index1_columns(10, 15, INT), 4)
    h0, h1 = index1_columns(10, 16, INT)
    with pytest.raises(PrecisionError):
        maass_lift(INT, 10, (h0, h1[:16]), 4)
    assert maass_lift(INT, 10, (h0, h1), 4) == maass_lift(INT, 10, index1_columns(10, 20, INT), 4)


@pytest.mark.parametrize("tag", ["fp:5", "fp:7", "fp:2097169", "int", "rat"])
def test_one_pass_lift_equals_the_per_divisor_loop(tag):
    """Boxes 0 to 12, and over F_7 and Z boxes 13 to 30, where one scatter
    serves several d."""
    ring = ring_from_tag(tag)
    boxes = list(range(13)) + ([13, 17, 24, 30] if tag in ("fp:7", "int") else [])
    for k in (4, 6, 10, 12):
        cols = index1_columns(k, boxes[-1] ** 2, ring)
        for box in boxes:
            got, want = maass_lift(ring, k, cols, box), maass_lift_loop(ring, k, cols, box)
            assert got == want and got.weight == k, (k, box)
            assert [type(v) for v in got.coeffs.tolist()] == [type(v) for v in want.coeffs.tolist()]


def test_the_lift_peaks_at_a_few_output_vectors():
    """One lift at box 60 over F_7 allocates under four times its output
    vector (2.7 times measured): no table of (key, d) pairs."""
    cols = index1_columns(12, 3600, FP7)
    siegel.box_index.cache_clear()
    siegel.box_index(60)
    tracemalloc.start()
    try:
        F = maass_lift(FP7, 12, cols, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * F.coeffs.nbytes, (peak, F.coeffs.nbytes)


@pytest.mark.parametrize("tag", ["fp:7", "fp:2097169", "int", "rat"])
def test_each_generator_alone_equals_a_fresh_build_of_all_four(monkeypatch, tag):
    """A context builds only the generator asked for, and reading the
    level-1 series as a prefix of a longer memo changes nothing."""
    ring = ring_from_tag(tag)
    monkeypatch.setattr(qexp, "_level1", {})
    monkeypatch.setattr(qexp, "_weak_memo", {})
    want = igusa_generators(3, ring)
    igusa_generator("chi10", 5, ring)            # the memo now reaches q^25
    for name in ("chi12", "E6", "chi10", "E4"):
        ctx = GeneratorContext(ring, 3)
        got = ctx.generator(name)
        assert got == want[name] and got.weight == want[name].weight, name
        assert list(ctx._gens) == [name] and not got.coeffs.flags.writeable
    with pytest.raises(InvalidArgumentError):
        GeneratorContext(ring, 3).generator("chi8")


def test_box_bytes_bounds_the_index():
    """The closed form is an upper bound on four int64 arrays per key, and
    tight: within 7.5% at box 30."""
    for box in range(41):
        index, cols = box_bytes(box)
        size = BoxIndex(box).size
        assert 32 * size <= index and cols == 0, box
    assert box_bytes(30)[0] <= 1.075 * 32 * siegel.box_index(30).size
    # an object entry counts 64 bytes, as in qexp.array_bytes
    assert box_bytes(30, INT)[1] == 8 * box_bytes(30, FP7)[1] > 0


def test_an_impossible_box_is_refused_before_allocating(monkeypatch):
    def boom(*args):
        raise AssertionError("allocated")
    monkeypatch.setattr(siegel, "BoxIndex", boom)
    for make in (lambda: siegel.box_index(100000), lambda: GeneratorContext(FP5, 100000)):
        with pytest.raises(InvalidArgumentError, match="box 100000 needs about .* GiB"):
            make()


def test_igusa_generators_build_no_jacobi_form(monkeypatch):
    built = []
    init = jacobi.JacobiFormSeries.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[:4])
        init(self, *args, **kwargs)

    monkeypatch.setattr(jacobi.JacobiFormSeries, "__init__", counting_init)
    for tag in ("int", "fp:7"):
        gens = igusa_generators(4, ring_from_tag(tag))
        assert gens["chi10"].a(1, 1, 1) == 1
    assert built == []
    jacobi_cusp(10, 4, INT)                    # the counter does see a form
    assert built == [(INT, 10, 1, 4)]


def test_igusa_generators(int_gens):
    E4, E6 = int_gens["E4"], int_gens["E6"]
    c10, c12 = int_gens["chi10"], int_gens["chi12"]
    assert E4.a(0, 0, 0) == 1 and E4.a(1, 0, 0) == 240
    assert E4.a(1, 1, 1) == 13440 and E4.a(1, 0, 1) == 30240
    assert E6.a(0, 0, 0) == 1 and E6.a(1, 0, 0) == -504
    assert c12.a(1, 1, 1) == 1 and c10.a(1, 1, 1) == 1
    assert c10.a(1, 0, 1) == -2
    for g in int_gens.values():
        assert check_unimodular_moves(g)


def test_fourier_jacobi_slices(int_gens):
    c12 = int_gens["chi12"]
    slice1 = fourier_jacobi(c12, 1)
    p12 = jacobi_cusp(12, 16, INT)
    for n in range(5):
        for r in range(-slice1.rb(n), slice1.rb(n) + 1):
            assert slice1.c(n, r) == p12.c(n, r)
    e4_slice = fourier_jacobi(int_gens["E4"], 0)
    ell = eisenstein_q(4, 4, INT)
    assert [e4_slice.c(n, 0) for n in range(5)] == ell.tolist()
    assert fourier_jacobi(int_gens["chi10"], 0).is_zero_window()


def test_lift_slice_round_trip(int_gens):
    for name, k in (("E4", 4), ("E6", 6), ("chi10", 10), ("chi12", 12)):
        builder = jacobi_eisenstein if k in (4, 6) else jacobi_cusp
        phi = builder(k, 16, INT)
        F = maass_lift(INT, k, index1_columns(k, 16, INT), 4)
        got = fourier_jacobi(F, 1)
        for n in range(5):
            for r in range(-got.rb(n), got.rb(n) + 1):
                assert got.c(n, r) == phi.c(n, r)


# -- products ----------------------------------------------------------------------------

def _product_oracle(F, G, n, r, m):
    acc = 0
    for n1 in range(n + 1):
        for m1 in range(m + 1):
            b1 = isqrt(4 * n1 * m1)
            for r1 in range(-b1, b1 + 1):
                acc += F.a(n1, r1, m1) * G.a(n - n1, r - r1, m - m1) \
                    if abs(r - r1) <= isqrt(4 * (n - n1) * (m - m1)) else 0
    return acc


def test_siegel_mul_against_bruteforce(int_gens):
    E4, c12 = int_gens["E4"], int_gens["chi12"]
    prod = siegel_mul(E4, c12)
    assert prod.weight == 16
    assert prod.a(1, 1, 1) == _product_oracle(E4, c12, 1, 1, 1) == 1
    rng = random.Random(2)
    for _ in range(12):
        n, m = rng.randrange(4), rng.randrange(4)
        r = rng.randrange(-isqrt(4 * n * m), isqrt(4 * n * m) + 1) if n * m else 0
        assert prod.a(n, r, m) == _product_oracle(E4, c12, n, r, m)


def test_chi10_squared_low_terms(int_gens):
    sq = siegel_mul(int_gens["chi10"], int_gens["chi10"])
    for n in range(3):
        for m in range(3):
            if n + m < 2:
                b = isqrt(4 * n * m)
                assert all(sq.a(n, r, m) == 0 for r in range(-b, b + 1))


def test_e4_squared_constant(int_gens):
    sq = siegel_mul(int_gens["E4"], int_gens["E4"])
    assert sq.a(0, 0, 0) == 1


# -- the product kernel against the direct loop -----------------------------------------

# fp:2097143 is inside the exactness bound only at box 0, fp:2097169 at no box,
# and "outside" is the least prime past the bound at the drawn box
KERNEL_RINGS = ["fp:5", "fp:7", "fp:23", "fp:2097143", "fp:2097169", "int", "rat", "outside"]


def _kernel_ring(tag, prec):
    if tag != "outside":
        return ring_from_tag(tag)
    p = siegel._qmax(prec) + 2
    while not is_prime(p):
        p += 2
    return ring_from_tag(f"fp:{p}")


def _random_form(ring, prec, seed, density, extreme):
    """Random coefficients on the stored half support, some (n, m) rows zero:
    residues over F_p, integers up to 2^80 in absolute value over Z, and
    such integers over random denominators over Q."""
    rng = random.Random(seed)
    size = siegel.box_index(prec).size
    if isinstance(ring, FpRing):
        p = ring.p
        lo, hi, pool = 0, p - 1, [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1]
    else:
        big = 1 << 80
        lo, hi, pool = -big, big, [0, 1, -1, big, -big]
    vals = [rng.choice(pool) if extreme else rng.randint(lo, hi) for _ in range(size)]
    if ring.tag == "rat":
        vals = [Fraction(v, rng.randint(1, 60)) for v in vals]
    # one draw per (n, m) row
    widths = siegel.box_index(prec).widths
    keep = np.repeat([rng.random() < density for _ in widths], widths)
    vec = np.where(keep, np.array(vals, dtype=object), ring.zero)
    return SiegelFormSeries(ring, None, prec, vec.astype(ring.dtype))


def _constant_form(ring, prec, v):
    return SiegelFormSeries(ring, None, prec, np.full(siegel.box_index(prec).size, v))


def _assert_same_vector(got, want, ring):
    assert got.dtype == want.dtype == ring.dtype
    assert np.array_equal(got, want)
    assert [type(v) for v in got.tolist()] == [type(v) for v in want.tolist()]


def _largest_fft_prime(prec):
    """The largest prime whose products at this box take the single-modulus kernel."""
    p = siegel._qmax(prec)
    while not is_prime(p):
        p -= 2
    return p


@pytest.fixture()
def fft_calls(monkeypatch):
    calls = []

    def spy(f, g, q, prec):
        calls.append((q, prec))
        return kernel(f, g, q, prec)
    kernel = siegel._mul_fft
    monkeypatch.setattr(siegel, "_mul_fft", spy)
    return calls


@settings(max_examples=80, deadline=None)
@given(tag=st.sampled_from(KERNEL_RINGS), fprec=st.integers(0, 10),
       gprec=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.3, 1.0]), extreme=st.booleans(),
       square=st.booleans())
def test_siegel_mul_kernel_matches_loop(tag, fprec, gprec, seed, density, extreme, square):
    prec = fprec if square else min(fprec, gprec)
    ring = _kernel_ring(tag, prec)
    F = _random_form(ring, fprec, seed, density, extreme)
    G = F if square else _random_form(ring, gprec, seed + 1, density, extreme)
    single = isinstance(ring, FpRing) and ring.p <= siegel._qmax(prec)
    assert single == (tag in ("fp:5", "fp:7", "fp:23") or (tag == "fp:2097143" and prec == 0))
    got = siegel_mul(F, G)
    assert got.prec == prec
    _assert_same_vector(got.coeffs, mul_loop(F, G, prec), ring)


@pytest.mark.parametrize("prec", [0, 10])
def test_siegel_mul_kernel_at_exactness_bound(prec, fft_calls):
    p = _largest_fft_prime(prec)
    assert p == (2097143 if prec == 0 else 41603)
    ring = ring_from_tag(f"fp:{p}")
    F = _constant_form(ring, prec, (p - 1) // 2)
    G = _constant_form(ring, prec, (p - 1) // 2)
    want = mul_loop(F, G, prec)
    _assert_same_vector(siegel_mul(F, F).coeffs, want, ring)
    _assert_same_vector(siegel_mul(F, G).coeffs, want, ring)
    assert fft_calls == [(p, prec)] * 2


def test_siegel_mul_outside_bound_lifts_to_integers(fft_calls):
    p, prec = _largest_fft_prime(10), 11
    ring = ring_from_tag(f"fp:{p}")
    assert p > siegel._qmax(prec)
    h = (p - 1) // 2
    F = _constant_form(ring, prec, h)
    prod = siegel_mul(F, F)
    primes = ringmod.moduli(siegel._qmax(prec), 2 * h * h * (prec + 1) ** 2 * (2 * prec + 1))
    assert len(primes) == 3 and fft_calls == [(q, prec) for q in primes]
    assert all(5 <= q <= siegel._qmax(prec) and is_prime(q) for q in primes)
    _assert_same_vector(prod.coeffs, mul_loop(F, F, prec), ring)
    rng = random.Random(5)
    for _ in range(15):
        n, m = rng.randrange(prec + 1), rng.randrange(prec + 1)
        b = isqrt(4 * n * m)
        r = rng.randrange(-b, b + 1)
        assert prod.a(n, r, m) == _product_oracle(F, F, n, r, m) % p


@pytest.mark.parametrize("short", [False, True])
def test_siegel_mul_at_the_crt_bound(monkeypatch, short):
    """At box 0, T = 1 and the one output is max|f| max|g| T itself: the
    moduli exceed twice it, and a CRT one prime short gets it wrong."""
    if short:
        moduli = ringmod.moduli
        monkeypatch.setattr(ringmod, "moduli", lambda qmax, bound: moduli(qmax, bound)[:-1])
    F = SiegelFormSeries.constant(INT, 4, 0, 1 << 100)
    G = SiegelFormSeries.constant(INT, 6, 0, -(1 << 100))
    assert (siegel_mul(F, G).a(0, 0, 0) == -(1 << 200)) != short


def test_siegel_mul_takes_moduli_past_twice_the_output():
    """An output -v^2 with M/2 < v^2 < M, M the product of the ten largest
    primes at box 0, needs an eleventh: residues mod M centre it wrongly."""
    primes, q = [], siegel._qmax(0)
    while len(primes) < 10:
        if is_prime(q):
            primes.append(q)
        q -= 2
    v = isqrt(3 * prod(primes) // 4)
    F = SiegelFormSeries.constant(INT, 4, 0, v)
    assert ringmod.moduli(siegel._qmax(0), 2 * v * v)[:10] == primes
    assert siegel_mul(F, -F).a(0, 0, 0) == -v * v


def test_siegel_mul_refuses_past_the_prime_supply(monkeypatch):
    monkeypatch.setattr(ringmod, "_FFT_LIMIT", 9 * 45)    # box 2 has T = 45, so q <= 7
    assert siegel._qmax(2) == 7
    F = SiegelFormSeries.constant(INT, 4, 2, 1 << 10)
    with pytest.raises(InvalidArgumentError, match=r"needs 26 bits.* 2 primes from 5 to 7 give 5$"):
        siegel_mul(F, F)
    small = SiegelFormSeries.constant(FP5, 4, 2, 3)
    assert siegel_mul(small, small).a(0, 0, 0) == 4


@pytest.mark.parametrize("prec,count,bits", [(30, 1075, 12270), (160, 127, 997)])
def test_prime_supply(prec, count, bits):
    with pytest.raises(InvalidArgumentError, match=fr" {count} primes .* give {bits}$"):
        ringmod.moduli(siegel._qmax(prec), 1 << 20000)


def test_targeted_mul_matches_full(int_gens):
    E4, c12 = int_gens["E4"], int_gens["chi12"]
    full = siegel_mul(E4, c12)
    targets = [(1, 1, 1), (2, 0, 2), (3, 2, 2), (0, 0, 3)]
    got = targeted_mul(E4, c12, targets)
    for t in targets:
        assert got[t] == full.a(*t)
    with pytest.raises(PrecisionError):
        targeted_mul(E4, c12, [(9, 0, 1)])


# -- theta operator and Sturm verifier ------------------------------------------------------

def test_theta_operator(int_gens):
    c12 = int_gens["chi12"]
    d1 = theta_operator(c12, 1)
    assert d1.a(1, 1, 1) == 3 * c12.a(1, 1, 1)
    assert d1.a(1, 2, 1) == 0        # singular T killed
    assert d1.a(0, 0, 0) == 0
    d2 = theta_operator(c12, 2)
    assert d2.a(1, 0, 1) == 16 * c12.a(1, 0, 1)


def test_theta_operator_e4_mod7(ctx7):
    d = theta_operator(ctx7.generator("E4"), 1)
    assert d.is_zero_window()
    assert d.weight == 4 + 8


def test_sturm_zero_bounds(ctx5):
    z = SiegelFormSeries.zero(FP5, 84, 7)
    with pytest.raises(PrecisionError):
        sturm_zero(z, 84)           # bound 28 needs box 14
    rep = sturm_zero(SiegelFormSeries.zero(FP5, 30, 7), 30)
    assert rep.is_zero and rep.bound == 10
    assert sturm_zero(ctx5.generator("chi12"), 12).is_zero is False
    assert (84 // 3, 220 // 3) == (28, 73)


# -- congruence certificates ------------------------------------------------------------------

def test_siegel_congruence_chi12_mod5(ctx5):
    c12 = ctx5.generator("chi12")
    certs = congruence_scan(c12, 5, label="chi12", include_zero=True)
    assert sorted(b for b in range(1, 5) if certs[b].holds) == [1, 4]
    assert certs[0].holds and certs[0].method == "sieve-identity"
    cert = certs[2]
    assert cert.verdict == "fails" and cert.witness is not None
    t = MatrixIndexT(*cert.witness)
    assert legendre(t.det, 5) == legendre(2, 5)
    assert c12.a(t.n, t.r, t.m) % 5 != 0
    assert cert.G_weight == 12 + 18 and cert.sturm_bound == 10


def test_certificate_json_schema(ctx5):
    cert = siegel_congruence(ctx5.generator("chi12"), 5, 1, label="chi12")
    doc = cert.to_json()
    assert set(doc) == {"form", "p", "b", "verdict", "G_weight", "sturm_bound",
                        "classes_checked", "witness", "method"}
    assert doc["verdict"] == "holds" and doc["witness"] is None


def test_scan_constant_on_legendre_classes(ctx7):
    F = siegel_mul(ctx7.generator("E4"), ctx7.generator("chi12")) \
        - siegel_mul(ctx7.generator("E6"), ctx7.generator("chi10"))
    F.weight = 16
    certs = congruence_scan(F, 7, include_zero=False)
    for b1 in range(1, 7):
        for b2 in range(1, 7):
            if legendre(b1, 7) == legendre(b2, 7):
                assert certs[b1].verdict == certs[b2].verdict


def test_scan_rejects_split_legendre_class(monkeypatch):
    def stub(F, p, b, label=""):
        fails = b == 4          # 1 and 4 are both squares mod 5
        return CongruenceCertificate(form=label, p=p, b=b,
                                     verdict="fails" if fails else "holds",
                                     G_weight=0, sturm_bound=0, classes_checked=0,
                                     witness=(1, 1, 1) if fails else None,
                                     method="stub")
    monkeypatch.setattr(siegel, "siegel_congruence", stub)
    with pytest.raises(InconsistentVerdictError, match="b=1,4") as info:
        congruence_scan(None, 5, include_zero=False)
    assert isinstance(info.value, SiegelCongError)


def test_certificates_compare_by_value(ctx5):
    c12 = ctx5.generator("chi12")
    a, b = siegel_congruence(c12, 5, 1, label="chi12"), siegel_congruence(c12, 5, 1, label="chi12")
    assert a is not b and a == b and a.to_json() == b.to_json()
    assert a != siegel_congruence(c12, 5, 2, label="chi12")
    assert a != siegel_congruence(c12, 5, 1, label="x")
    assert sturm_zero(c12, 30, 1) == sturm_zero(c12, 30, 1)
    with pytest.raises(TypeError):
        hash(a)


def test_criterion_agrees_with_direct_scan(ctx5):
    c12 = ctx5.generator("chi12")
    for b in range(5):
        cert = siegel_congruence(c12, 5, b)
        clean, _ = siegel_direct_scan(c12, 5, b)
        assert cert.holds == clean


# -- sieve ---------------------------------------------------------------------------------------

def test_sieve_partition_and_support(ctx5):
    from siegelcong.siegel import sieve
    F = ctx5.monomial(0, 0, 2, 0)
    F.weight = 20
    parts = {s: sieve(F, 5, s) for s in (0, 1, -1)}
    total = parts[0] + parts[1]
    total = total + parts[-1]
    for n in range(8):
        for m in range(8):
            b = isqrt(4 * n * m)
            for r in range(-b, b + 1):
                assert (total.a(n, r, m) - F.a(n, r, m)) % 5 == 0
    for s, form in parts.items():
        for det in support_dets(form):
            assert legendre(det, 5) == s
    # supports are disjoint and their union is the support of F
    union = set()
    for form in parts.values():
        dets = set(support_dets(form))
        assert not (union & dets)
        union |= dets
    assert union == set(support_dets(F))


def test_sieve_exact_ring_partition(int_gens):
    F = siegel_mul(int_gens["chi10"], int_gens["chi10"])
    from siegelcong.siegel import sieve
    parts = [sieve(F, 5, s) for s in (0, 1, -1)]
    total = parts[0] + parts[1]
    total = total + parts[2]
    assert total == F


@pytest.mark.parametrize("tag,p,name", [("rat", 7, "chi12"), ("fp:2097169", 2097169, "E4")])
def test_sieve_partition_over_rat_and_object_fp(tag, p, name):
    """F0 + F+1 + F-1 = F, and mod p each part keeps only its Legendre class
    of det T, none of them empty.  fp:2097169 has object vectors; each power
    det^e is taken mod p there, so the three sieves take milliseconds (exact
    powers of the determinants took 30 s at box 4)."""
    F = GeneratorContext(ring_from_tag(tag), 4).generator(name)
    start = time.perf_counter()
    parts = {s: sieve(F, p, s) for s in (0, 1, -1)}
    assert time.perf_counter() - start < 1
    assert parts[0] + parts[1] + parts[-1] == F
    for s, form in parts.items():
        dets = support_dets(form.reduce_mod(p) if tag == "rat" else form)
        assert dets and all(legendre(d, p) == s for d in dets), s


# -- mod-p decompositions --------------------------------------------------------------------------

def test_weight_monomials():
    assert set(weight_monomials(8)) == {(2, 0, 0, 0)}
    assert set(weight_monomials(10)) == {(1, 1, 0, 0), (0, 0, 1, 0)}
    assert set(weight_monomials(20)) >= {(0, 0, 2, 0), (2, 0, 0, 1), (1, 1, 1, 0)}


def test_decompose_e4_squared():
    ctx = GeneratorContext(FP7, 2)
    sq = siegel_mul(ctx.generator("E4"), ctx.generator("E4"))
    sq.weight = 8
    dec = decompose_mod_p(sq, 8, ctx)
    assert dec.solution == {(2, 0, 0, 0): 1}
    assert dec.kernel_dim == 0
    assert verify_combination(sq, {(2, 0, 0, 0): 1}, 8, ctx)


def test_decompose_rejects_foreign_vector():
    ctx = GeneratorContext(FP7, 2)
    # A(0,0,0) = 0 forces the zero combination, but A(0,0,1) = 1 contradicts it
    vec = np.zeros(siegel.box_index(2).size, dtype=np.int64)
    vec[siegel.box_index(2).offset[0, 1]] = 1
    bogus = SiegelFormSeries(FP7, 8, 2, vec)
    with pytest.raises(NotInRingError):
        decompose_mod_p(bogus, 8, ctx)


def test_json_dump_shape(int_gens):
    doc = int_gens["chi12"].to_json()
    assert doc["kind"] == "siegel" and doc["weight"] == 12
    assert all(r >= 0 and n <= m for n, r, m, _ in doc["coeffs"])
    assert [1, 1, 1, 1] in doc["coeffs"]


def test_search_shares_small_windows_per_prime(monkeypatch):
    made = []
    init = GeneratorContext.__init__

    def counting_init(self, ring, prec, cache=None, bound=None):
        made.append((ring.p, prec))
        init(self, ring, prec, cache, bound)

    monkeypatch.setattr(GeneratorContext, "__init__", counting_init)
    shared = siegel.search_congruences(16, 7)
    n_shared = len(made)
    cell = siegel._search_cell
    monkeypatch.setattr(siegel, "_search_cell",
                        lambda k, p, monos, cache, contexts: cell(k, p, monos, cache, {}))
    made.clear()
    assert shared == siegel.search_congruences(16, 7)
    assert n_shared < len(made)
    hit = [c for c in shared if c["p"] == 7 and c["status"] == "congruence"]
    assert [(c["weight"], c["holds_b"]) for c in hit] == [(16, [3, 5, 6])]


def test_nonexistence_cells_have_an_empty_small_window_kernel(monkeypatch):
    """Every cell that `search --max-weight 30 --max-prime 43` excludes by the
    non-existence criterion (PAPER.md; p > k, p != 2k - 1) has an empty
    small-window kernel on both Legendre classes, so the search itself would
    report "none" there without building a full-bound context."""
    cell = siegel._search_cell
    monkeypatch.setattr(siegel, "_search_cell", lambda *args: [])
    marked = siegel.search_congruences(30, 43)
    assert len(marked) == 69 and {c["status"] for c in marked} == {"excluded-by-nonexistence"}
    excluded = [(c["weight"], c["p"]) for c in marked]
    made = []
    init = GeneratorContext.__init__

    def counting_init(self, ring, prec, cache=None, bound=None):
        made.append((ring.p, prec))
        init(self, ring, prec, cache, bound)

    monkeypatch.setattr(GeneratorContext, "__init__", counting_init)
    contexts = {}
    for k, p in excluded:
        monos = [e for e in weight_monomials(k) if e[2] + e[3] >= 1]
        cells = cell(k, p, monos, None, contexts)
        assert [(c["legendre_class"], c["status"]) for c in cells] == [(1, "none"), (-1, "none")], (k, p)
    assert sorted(made) == sorted((p, box) for p, box in contexts)


def test_search_refuses_a_combination_vanishing_on_the_weight_window(monkeypatch):
    cells = siegel.search_congruences(12, 5)
    assert [c["forms"] for c in cells if c["status"] == "congruence"] == [["chi12"]]
    assert all("degenerate_directions" not in c for c in cells)
    matrix = siegel._class_matrix

    def vanishing_on_weight_window(forms, wmax, mask=None):
        out = matrix(forms, wmax, mask)
        return out * 0 if wmax == 12 // 3 else out

    monkeypatch.setattr(siegel, "_class_matrix", vanishing_on_weight_window)
    with pytest.raises(InconsistentVerdictError, match="weight-12 window"):
        siegel.search_congruences(12, 5)


def test_monomial_of_one_generator_is_the_generator(monkeypatch):
    ctx = GeneratorContext(FP7, 2)
    calls = []
    mul = siegel.siegel_mul
    monkeypatch.setattr(siegel, "siegel_mul", lambda F, G: calls.append(1) or mul(F, G))
    for i, name in enumerate(("E4", "E6", "chi10", "chi12")):
        assert ctx.monomial(*(int(j == i) for j in range(4))) is ctx.generator(name)
    assert calls == []


def test_memoized_forms_are_read_only():
    ctx = GeneratorContext(FP7, 2)
    for form in (ctx.generator("E4"), ctx.monomial(0, 0, 0, 0), ctx.monomial(2, 0, 0, 0)):
        with pytest.raises(ValueError):
            form.coeffs[0] = 3


# -- prefix forms: the keys with n <= K, a prefix of the box vector ---------------------

def _prefix(form, nmax):
    """form cut to the keys with n <= nmax: a view of the first nstart[nmax + 1] entries."""
    cut = siegel.box_index(form.prec).nstart[nmax + 1]
    return SiegelFormSeries(form.ring, form.weight, form.prec, form.coeffs[:cut])


def _junk_tail(form, nmax, seed):
    """A copy of form whose keys with n > nmax hold random ring values."""
    junk = _random_form(form.ring, form.prec, seed, 1.0, False).coeffs
    cut = siegel.box_index(form.prec).nstart[nmax + 1]
    return SiegelFormSeries(form.ring, form.weight, form.prec,
                            np.concatenate([form.coeffs[:cut], junk[cut:]]))


# "at-bound" is the largest single-modulus prime of the box with all-h factors;
# "outside" (past _qmax), int and rat take the CRT path
PREFIX_RINGS = ["fp:5", "fp:23", "at-bound", "outside", "int", "rat"]


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(PREFIX_RINGS), prec=st.integers(0, 10), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1), density=st.sampled_from([0.3, 1.0]),
       extreme=st.booleans())
def test_prefix_product_is_the_square_product_cut(tag, prec, data, seed, density, extreme):
    """The product of prefix forms at K is the square-box product's first
    nstart[K + 1] entries, whatever the factors hold past them."""
    nmax = data.draw(st.integers(0, prec), label="nmax")
    if tag == "at-bound":
        ring = ring_from_tag(f"fp:{_largest_fft_prime(prec)}")
        F = G = _constant_form(ring, prec, (ring.p - 1) // 2)
    else:
        ring = _kernel_ring(tag, prec)
        F = _random_form(ring, prec, seed, density, extreme)
        G = _random_form(ring, prec, seed + 1, density, extreme)
    single = isinstance(ring, FpRing) and ring.p <= siegel._qmax(prec)
    assert single == (tag in ("fp:5", "fp:23", "at-bound"))
    cut = siegel.box_index(prec).nstart[nmax + 1]
    want = mul_loop(F, G, prec)[:cut]
    _assert_same_vector(siegel_mul(F, G).coeffs[:cut], want, ring)
    junk_f, junk_g = _junk_tail(F, nmax, seed + 2), _junk_tail(G, nmax, seed + 3)
    short = _prefix(junk_f, nmax)
    square = mul_loop(F, F, prec)[:cut]
    for got, expect in ((siegel_mul(short, junk_g), want), (siegel_mul(junk_g, short), want),
                        (siegel_mul(short, _prefix(junk_g, nmax)), want),
                        (siegel_mul(short, short), square)):
        assert got.prec == prec and got.nmax == nmax
        _assert_same_vector(got.coeffs, expect, ring)


def test_prefix_product_across_boxes():
    """A prefix at box 8 times a whole box-5 form: the product lives on box 5
    and the shorter prefix."""
    F = _random_form(FP7, 8, 11, 1.0, False)
    G = _random_form(FP7, 5, 12, 1.0, False)
    got = siegel_mul(_prefix(_junk_tail(F, 3, 13), 3), G)
    assert got.prec == 5 and got.nmax == 3
    want = mul_loop(F, G, 5)[:siegel.box_index(5).nstart[4]]
    _assert_same_vector(got.coeffs, want, FP7)
    total = _prefix(F, 3) + G
    assert total.prec == 5 and total.nmax == 3
    assert np.array_equal(total.coeffs, (F + G).coeffs[:siegel.box_index(5).nstart[4]])


def test_prefix_forms_refuse_reads_past_their_slices(tmp_path):
    """A bounded context serves prefix forms: reads of keys with n <= K agree
    with the square box, and every read past K raises PrecisionError naming K."""
    from siegelcong.cache import DiskCache
    F = GeneratorContext(FP7, 6, bound=8).monomial(1, 0, 0, 1)          # K = 2
    full = GeneratorContext(FP7, 6).monomial(1, 0, 0, 1)
    assert F.nmax == 2 and len(F.coeffs) == siegel.box_index(6).nstart[3]
    assert [F.a(2, 1, 5), F.a(6, 3, 1)] == [full.a(2, 1, 5), full.a(6, 3, 1)]
    assert np.array_equal(siegel.class_values(F, 8), siegel.class_values(full, 8))
    assert fourier_jacobi(F, 2).coeffs.tolist() == fourier_jacobi(full, 2).coeffs.tolist()
    assert F.coeff_rows(2) == full.coeff_rows(2)
    reads = [lambda: F.a(3, 0, 3), lambda: F.a(6, 0, 4), lambda: siegel.class_values(F, 9),
             lambda: sturm_zero(F, 27), lambda: siegel._class_matrix([full, F], 9),
             lambda: F.at_box(6, 3), lambda: F.at_box(4, 4), lambda: fourier_jacobi(F, 3),
             lambda: F.coeff_rows(3), F.to_json, lambda: siegel.sieve(F, 7, 1),
             lambda: DiskCache(tmp_path).store("E4chi12", F)]
    for read in reads:
        with pytest.raises(PrecisionError, match=r"prefix n <= 2$") as err:
            read()
        assert err.value.available == 2
    assert list(tmp_path.iterdir()) == []
