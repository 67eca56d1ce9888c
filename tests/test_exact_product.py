"""`ring.exact_product` with each of its three kernels against direct products.

The kernels are the 1-D series convolution (`qexp.convolve_trunc`), the row
matmul of the Jacobi products (`jacobi._row_products`) and the Siegel FFT
(`siegel._mul_fft`).  Each is compared with the same product computed on the
ring's own elements in object arrays, over Z, Q, fp:2097169 (object residues)
and the least prime past the kernel's bound, where the lifts and the CRT run;
fp:7 runs the single-modulus path.  "Extreme" draws put -1 everywhere they can,
so every residue is q - 1: each modulus meets its bound exactly.
"""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from mul_loop_oracle import mul_loop
from siegelcong import jacobi, siegel
from siegelcong.qexp import convolve_trunc
from siegelcong.ring import FpRing, exact_product, int64_qmax, is_prime, ring_from_tag
from siegelcong.siegel import SiegelFormSeries

TAGS = ["int", "rat", "fp:7", "fp:2097169", "past"]


def _ring(tag, qmax):
    if tag != "past":
        return ring_from_tag(tag)
    p = qmax + 1
    while not is_prime(p):
        p += 1
    return ring_from_tag(f"fp:{p}")


def _values(ring, shape, seed, extreme):
    """Ring elements of the given shape: residues over F_p, integers up to
    2^80 in absolute value over Z, over small denominators over Q."""
    rng = random.Random(seed)
    size = int(np.prod(shape))
    if isinstance(ring, FpRing):
        vals = [ring.p - 1 if extreme else rng.randrange(ring.p) for _ in range(size)]
    else:
        big = 1 << 80
        vals = [-1 if extreme else rng.randint(-big, big) for _ in range(size)]
        if ring.tag == "rat":
            vals = [Fraction(v, 1 if extreme else rng.randint(1, 40)) for v in vals]
    return np.array(vals, dtype=object).reshape(shape).astype(ring.dtype)


def _canonical(ring, vec):
    return vec % ring.p if isinstance(ring, FpRing) else vec


def _same(got, want, ring):
    assert got.dtype == ring.dtype
    assert got.tolist() == want.tolist()


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(TAGS), la=st.integers(1, 12), lb=st.integers(1, 12),
       n=st.integers(1, 26), seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans())
def test_convolution_kernel_matches_object_product(tag, la, lb, n, seed, extreme):
    ring = _ring(tag, int64_qmax(min(la, lb, n)))
    a, b = _values(ring, (la,), seed, extreme), _values(ring, (lb,), seed + 1, extreme)
    want = ring.zeros(n)
    full = np.convolve(a.astype(object), b.astype(object))[:n]
    want[:len(full)] = _canonical(ring, full)
    _same(convolve_trunc(ring, a, b, n), want, ring)


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(TAGS), rows=st.integers(1, 8), wa=st.integers(0, 3),
       wb=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans())
def test_row_matmul_kernel_matches_object_product(tag, rows, wa, wb, seed, extreme):
    ring = _ring(tag, int64_qmax(rows))
    a = _values(ring, (rows, 2 * wa + 1), seed, extreme)
    b = _values(ring, (rows, 2 * wb + 1), seed + 1, extreme)
    want = sum(np.convolve(x, y) for x, y in zip(a.astype(object), b.astype(object)))
    _same(jacobi._row_products(ring, a, b), _canonical(ring, want), ring)


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(TAGS), prec=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       extreme=st.booleans(), square=st.booleans())
def test_siegel_fft_kernel_matches_object_product(tag, prec, seed, extreme, square):
    ring = _ring(tag, siegel._qmax(prec))
    shape = (siegel.box_index(prec).size,)
    F = SiegelFormSeries(ring, None, prec, _values(ring, shape, seed, extreme))
    G = F if square else SiegelFormSeries(ring, None, prec, _values(ring, shape, seed + 1, extreme))
    got = exact_product(ring, F.coeffs, G.coeffs, lambda x, y, q: siegel._mul_fft(x, y, q, prec),
                        (prec + 1) ** 2 * (2 * prec + 1), siegel._qmax(prec))
    _same(got, mul_loop(F, G, prec), ring)


def test_small_prime_fields_pass_their_arrays_to_one_kernel_call():
    calls = []

    def kernel(x, y, q):
        calls.append((x, y, q))
        return np.convolve(x, y) % q

    fp7, f, g = ring_from_tag("fp:7"), np.array([1, 6, 3]), np.array([2, 5])
    assert exact_product(fp7, f, g, kernel, 2, int64_qmax(2)).tolist() == [2, 3, 1, 1]
    assert exact_product(fp7, f, f, kernel, 3, int64_qmax(3)).tolist() == [1, 5, 0, 1, 2]
    assert len(calls) == 2
    assert calls[0][0] is f and calls[0][1] is g and calls[0][2] == 7
    assert calls[1][0] is f and calls[1][1] is f
    # past the bound a prime field takes the lifts, one square per modulus
    calls.clear()
    assert exact_product(ring_from_tag("fp:17"), f, f, kernel, 3, 13).tolist() == [1, 12, 8, 2, 9]
    assert [q for _, _, q in calls] == [13, 11, 7]
    assert all(x is y and x is not f for x, y, _ in calls)


def test_object_residue_fields_within_the_bound_take_one_kernel_call(monkeypatch):
    """F_p with p >= 2^21 (object residues) but p <= qmax: one kernel call
    modulo p on the residues cast to int64, no lifts and no CRT."""
    ring, convolve, calls = ring_from_tag("fp:2097169"), np.convolve, []

    def spy(x, y):
        calls.append((x.dtype, y.dtype))
        return convolve(x, y)

    a, b = _values(ring, (12,), 1, False), _values(ring, (9,), 2, False)
    want = convolve(a, b)[:15] % ring.p
    monkeypatch.setattr(np, "convolve", spy)
    _same(convolve_trunc(ring, a, b, 15), want, ring)
    assert calls == [(np.int64, np.int64)]
