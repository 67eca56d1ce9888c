"""`ring.exact_product` with each of its kernels against direct products.

The kernels are the 1-D series convolutions (`qexp.convolve_trunc`: int64
`np.convolve` for short series, the float64 FFT `qexp._convolve_fft` for long
ones) and the Siegel FFT (`siegel._mul_fft`).  Each is compared with the same
product computed on the ring's own elements in object arrays, over Z,
fp:2097169 (object residues) and the least prime past the kernel's bound, where
the lifts and the CRT run; fp:7 runs the single-modulus path.  "Extreme" draws put -1
everywhere they can, so every residue is q - 1: each modulus of an int64
kernel meets its bound exactly.  The FFT kernels' bound is on centred
residues, so their extreme draws put h = (p - 1)/2 everywhere over the
largest prime p within the bound.  Newton inversion (`qexp.invert_series`) is
compared with the coefficient loop it replaced.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invert_loop_oracle import invert_loop
from mul_loop_oracle import mul_loop
from siegelcong import qexp, siegel
from siegelcong.errors import InexactProductError
from siegelcong.qexp import convolve_trunc, invert_series
from siegelcong.ring import FpRing, exact_product, fft_qmax, int64_qmax, is_prime, ring_from_tag
from siegelcong.siegel import SiegelFormSeries, siegel_mul

TAGS = ["int", "fp:7", "fp:2097169", "past"]


def _ring(tag, qmax):
    if tag != "past":
        return ring_from_tag(tag)
    p = qmax + 1
    while not is_prime(p):
        p += 1
    return ring_from_tag(f"fp:{p}")


def _values(ring, shape, seed, extreme):
    """Ring elements of the given shape: residues over F_p, integers up to
    2^80 in absolute value over Z."""
    rng = random.Random(seed)
    size = int(np.prod(shape))
    if isinstance(ring, FpRing):
        vals = [ring.p - 1 if extreme else rng.randrange(ring.p) for _ in range(size)]
    else:
        big = 1 << 80
        vals = [-1 if extreme else rng.randint(-big, big) for _ in range(size)]
    return np.array(vals, dtype=object).reshape(shape).astype(ring.dtype)


def _canonical(ring, vec):
    return vec % ring.p if isinstance(ring, FpRing) else vec


def _prime_at_most(q):
    while not is_prime(q):
        q -= 1
    return q


def _object_convolve(ring, a, b, n):
    """The first n terms of a * b by an object-dtype np.convolve of the
    ring's elements (no ring.to_integers)."""
    want = ring.zeros(n)
    full = np.convolve(a.astype(object), b.astype(object))[:n]
    want[:len(full)] = _canonical(ring, full)
    return want


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


# lengths on both sides of the FFT crossover qexp._FFT_MIN
LENGTHS = st.one_of(st.integers(1, 40), st.integers(200, 700))


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(TAGS + ["at-bound"]), la=LENGTHS, lb=LENGTHS, n=LENGTHS,
       seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans())
def test_series_fft_kernel_matches_object_product(tag, la, lb, n, seed, extreme):
    """convolve_trunc on long and short series, whichever kernel it picks:
    the FFT only over fp:7 and "at-bound", the largest prime within the FFT
    bound of the longer factor, whose extreme draws, all h = (p - 1)/2, meet
    that bound.  "past" is the least prime past both single-modulus bounds,
    so np.convolve runs with CRT."""
    t, longer = min(la, lb, n), max(min(la, n), min(lb, n))
    if tag == "at-bound":
        ring = ring_from_tag(f"fp:{_prime_at_most(fft_qmax(longer))}")
    else:
        ring = _ring(tag, max(int64_qmax(t), fft_qmax(longer)))
    if extreme and tag == "at-bound":
        a, b = (np.full(size, (ring.p - 1) // 2, dtype=np.int64) for size in (la, lb))
    else:
        a, b = _values(ring, (la,), seed, extreme), _values(ring, (lb,), seed + 1, extreme)
    calls = []
    kernel = qexp._convolve_fft
    with mock.patch.object(qexp, "_convolve_fft", lambda *args: calls.append(1) or kernel(*args)):
        got = convolve_trunc(ring, a, b, n)
    _same(got, _object_convolve(ring, a, b, n), ring)
    assert bool(calls) == (tag in ("fp:7", "at-bound") and t >= qexp._FFT_MIN)


@pytest.mark.parametrize("tag,n", [(tag, n) for tag in ("int", "fp:7", "fp:2097169")
                                   for n in (1, 2, 3, 37, 256, 600)])
def test_newton_inverse_matches_the_coefficient_loop(tag, n):
    """invert_series against the loop it replaced, on a unit-led random
    series, on 1/eta^6 (the inverse the generators read) and on a series
    shorter than n."""
    ring, rng = ring_from_tag(tag), random.Random(n)
    a = [rng.randint(-99, 99) for _ in range(n)]
    a[0] = -1
    for series in (np.array(a, dtype=object).astype(ring.dtype), qexp.eta_pow6(n - 1, ring)):
        series = _canonical(ring, series)
        _same(invert_series(ring, series, n), invert_loop(ring, series, n), ring)
    short = _canonical(ring, np.array(a[:n // 3 + 1], dtype=object).astype(ring.dtype))
    _same(invert_series(ring, short, n), invert_loop(ring, short, n), ring)


@pytest.mark.parametrize("terms", [1, 2, 901, 26245, (31 ** 2) * 61])
def test_fft_qmax_is_the_largest_odd_modulus_within_2_to_the_40(terms):
    q = fft_qmax(terms)
    assert q % 2 == 1 and ((q - 1) // 2) ** 2 * terms <= 1 << 40 < ((q + 1) // 2) ** 2 * terms
    assert siegel._qmax(30) == fft_qmax(31 ** 2 * 61)


@pytest.mark.parametrize("tag,length,fft", [
    ("fp:7", qexp._FFT_MIN - 1, False), ("fp:7", qexp._FFT_MIN, True),
    ("at-bound", 700, True), ("past-fft", 700, False), ("fp:2097169", 700, False),
    ("int", 700, False), ("fp:1000000007", 700, False)])
def test_series_kernel_choice(monkeypatch, tag, length, fft):
    """FFT from _FFT_MIN terms over F_p up to the FFT bound of the longer
    factor ("at-bound"); never past it ("past-fft", the least prime past the
    bound, and fp:2097169) nor over Z, where the CRT runs np.convolve."""
    longer = length + 3
    if tag == "at-bound":
        ring = ring_from_tag(f"fp:{_prime_at_most(fft_qmax(longer))}")
    else:
        ring = _ring("past", fft_qmax(longer)) if tag == "past-fft" else ring_from_tag(tag)
    kernel, calls = qexp._convolve_fft, []
    monkeypatch.setattr(qexp, "_convolve_fft", lambda *args: calls.append(1) or kernel(*args))
    a, b = _values(ring, (length,), 5, False), _values(ring, (longer,), 6, False)
    _same(convolve_trunc(ring, a, b, longer), _object_convolve(ring, a, b, longer), ring)
    assert bool(calls) == fft


def test_short_series_make_one_np_convolve_call(monkeypatch):
    """Below the crossover a product over F_p is one np.convolve call, as
    before the FFT kernel; at it, none."""
    ring, convolve, calls = ring_from_tag("fp:17"), np.convolve, []
    b = _values(ring, (900,), 4, False)
    for length, count in ((qexp._FFT_MIN - 1, 1), (qexp._FFT_MIN, 0)):
        a = _values(ring, (length,), 3, False)
        want = _object_convolve(ring, a, b, 900)
        with monkeypatch.context() as patch:
            patch.setattr(np, "convolve", lambda x, y: calls.append(len(x)) or convolve(x, y))
            _same(convolve_trunc(ring, a, b, 900), want, ring)
        assert calls == [length] * count
        calls.clear()


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(TAGS), prec=st.integers(0, 9), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1), extreme=st.booleans(), square=st.booleans(),
       batch=st.sampled_from([None, 1]))
def test_siegel_fft_kernel_matches_object_product(tag, prec, data, seed, extreme, square, batch):
    """Whole boxes and prefixes (the slices n <= K < N), with the module's
    batch cap and with a cap that inverts every output slice on its own."""
    nmax = data.draw(st.integers(0, prec), label="nmax")
    ring = _ring(tag, siegel._qmax(prec))
    cut = siegel.box_index(prec).nstart[nmax + 1]
    F = SiegelFormSeries(ring, None, prec, _values(ring, (cut,), seed, extreme))
    G = F if square else SiegelFormSeries(ring, None, prec, _values(ring, (cut,), seed + 1, extreme))
    with mock.patch.object(siegel, "_BATCH_BYTES", batch or siegel._BATCH_BYTES):
        got = exact_product(ring, F.coeffs, G.coeffs, lambda x, y, q: siegel._mul_fft(x, y, q, prec),
                            (prec + 1) ** 2 * (2 * prec + 1), siegel._qmax(prec))
    _same(got, _siegel_loop(F, G, prec, cut), ring)


def _siegel_loop(F, G, prec, cut):
    """mul_loop of the factors zero-padded to the whole box, cut to the prefix."""
    def whole(form):
        vec = form.ring.zeros(siegel.box_index(prec).size)
        vec[:cut] = form.coeffs
        return SiegelFormSeries(form.ring, None, prec, vec)
    return mul_loop(whole(F), whole(G), prec)[:cut]


def test_siegel_batches_split_at_the_byte_cap(monkeypatch):
    """At box 20 every factor's 21 slices are transformed along m once (a
    square's once in all) and each of the 21 output slices is inverted once,
    both in two or more chunks of at most _BATCH_BYTES of spectra; the
    product and the square are mul_loop's."""
    ring, prec = ring_from_tag("fp:13"), 20
    size = siegel.box_index(prec).size
    F, G = (SiegelFormSeries(ring, None, prec, _values(ring, (size,), seed, False)) for seed in (8, 9))
    forward, inverse, rfft, irfft = [], [], np.fft.rfft, np.fft.irfft

    def spy(calls, fft, x, n=None, axis=-1):
        y = fft(x, n=n, axis=axis)
        if axis == 1:                   # along m, to or from the spectra of one chunk
            calls.append((len(x), (y if fft is rfft else x).nbytes))
        return y

    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: spy(forward, rfft, *a, **k))
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: spy(inverse, irfft, *a, **k))
    for A, B, builds in ((F, F, 1), (F, G, 2)):
        forward.clear()
        inverse.clear()
        got = siegel._mul_fft(A.coeffs, B.coeffs, ring.p, prec)
        assert sum(c for c, _ in forward) == 21 * builds and len(forward) >= 2 * builds
        assert sum(c for c, _ in inverse) == 21 and len(inverse) >= 2
        assert all(nbytes <= siegel._BATCH_BYTES for _, nbytes in forward + inverse)
        _same(got, mul_loop(A, B, prec), ring)


@pytest.mark.parametrize("prec", [4, 12, 24, 40])
def test_siegel_fft_rounding_margin_at_the_bound(monkeypatch, prec):
    """All-h and all-(-h) factors, h = (q - 1)/2, at the largest prime q <=
    _qmax(N), whole boxes and prefixes K = 2N/3 and N/3, products and
    squares: every float the kernel rounds is within 0.05 of an integer,
    the margin ring.fft_qmax promises."""
    q = _prime_at_most(siegel._qmax(prec))
    h, worst, rint = (q - 1) // 2, [], np.rint
    monkeypatch.setattr(np, "rint", lambda x: worst.append(np.max(np.abs(x - rint(x)))) or rint(x))
    for nmax in (prec, 2 * prec // 3, prec // 3):
        cut = siegel.box_index(prec).nstart[nmax + 1]
        plus, minus = np.full(cut, h), np.full(cut, q - h)
        for f, g in ((plus, plus), (minus, minus), (plus, plus.copy()), (plus, minus),
                     (minus, minus.copy())):
            siegel._mul_fft(f, g, q, prec)
    assert worst and max(worst) < 0.05


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


@pytest.mark.parametrize("slip", [2, 64, 1 << 20])
def test_fft_kernels_refuse_a_modulus_past_their_bound(monkeypatch, slip):
    """With siegel._qmax and the series FFT bound patched past their limit,
    all-h factors at the largest prime <= slip times the true bound make
    both float kernels raise InexactProductError instead of returning
    residues.  At 64 times the bound the outputs stray from the integers; at
    2 and 2^20 times only their size shows the slip (past 2^52 every float
    is whole)."""
    monkeypatch.setattr(siegel, "_qmax", lambda prec: 1 << 62)
    monkeypatch.setattr(qexp, "fft_qmax", lambda terms: 1 << 62)
    prec, n = 8, 300
    for bound, size, product in (
            (fft_qmax((prec + 1) ** 2 * (2 * prec + 1)), siegel.box_index(prec).size,
             lambda ring, x: siegel_mul(*[SiegelFormSeries(ring, 10, prec, x)] * 2)),
            (fft_qmax(n), n, lambda ring, x: convolve_trunc(ring, x, x, n))):
        ring = ring_from_tag(f"fp:{_prime_at_most(slip * bound)}")
        with pytest.raises(InexactProductError, match="past the kernel's exactness bound"):
            product(ring, np.full(size, (ring.p - 1) // 2))
