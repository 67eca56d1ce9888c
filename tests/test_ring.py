from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siegelcong.errors import ArithmeticDomainError, InvalidArgumentError, RingMismatchError
from siegelcong.ring import (MR_BOUND, FpRing, is_prime, legendre, reduce_rational,
                             require_odd_prime, ring_from_tag)

PRIMES = [5, 7, 11, 13, 17, 19, 23]


def test_legendre_examples():
    assert legendre(1, 5) == 1
    assert legendre(2, 5) == -1
    assert legendre(0, 7) == 0


def test_legendre_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(InvalidArgumentError):
            legendre(3, bad)


@given(st.sampled_from(PRIMES), st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_legendre_multiplicative(p, a, b):
    if a % p and b % p:
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


@pytest.mark.parametrize("p", PRIMES)
def test_legendre_half_are_squares(p):
    vals = [legendre(b, p) for b in range(1, p)]
    assert vals.count(1) == (p - 1) // 2
    assert vals.count(-1) == (p - 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_legendre_euler_criterion(p):
    for a in range(p):
        e = pow(a, (p - 1) // 2, p)
        assert legendre(a, p) % p == e


def test_reduce_examples():
    assert reduce_rational(Fraction(1, 12), 5) == 3
    with pytest.raises(ArithmeticDomainError):
        reduce_rational(Fraction(1, 5), 5)


@given(st.sampled_from(PRIMES),
       st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
       st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
def test_reduce_is_ring_homomorphism(p, x, y):
    if x.denominator % p == 0 or y.denominator % p == 0:
        return
    # sums and products of p-integral rationals stay p-integral
    assert reduce_rational(x + y, p) == (reduce_rational(x, p) + reduce_rational(y, p)) % p
    assert reduce_rational(x * y, p) == reduce_rational(x, p) * reduce_rational(y, p) % p


@pytest.mark.parametrize("tag", ["int", "fp:7", "fp:2097169"])
def test_reduce_vector_is_reduce_rational_entrywise(tag):
    ring, fp = ring_from_tag(tag), ring_from_tag("fp:7")
    vals = [0, 1, -8, 10 ** 30 + 3]
    vec = np.array([ring.from_rational(v) for v in vals], dtype=ring.dtype)
    if tag == "fp:2097169":
        with pytest.raises(RingMismatchError):
            ring.reduce_vector(vec, fp)
        return
    got = ring.reduce_vector(vec, fp)
    assert got.dtype == fp.dtype
    assert got.tolist() == [reduce_rational(v, 7) for v in vals]
    assert (got is vec) == (ring == fp)         # canonical already: no copy into its own field


def test_ring_from_tag():
    assert ring_from_tag("int").tag == "int"
    assert isinstance(ring_from_tag("fp:11"), FpRing)
    for bad in ("fp:6", "fp:3", "fp:9"):
        with pytest.raises(InvalidArgumentError):
            ring_from_tag(bad)
    # two rings only: Q has no tag, and the refusal names the two there are
    for bad in ("rat", "gf2"):
        with pytest.raises(InvalidArgumentError, match=r"expected int or fp:<p>"):
            ring_from_tag(bad)


def test_fp_ring_ops():
    r = ring_from_tag("fp:7")
    assert r.inv(3) == 5
    assert r.from_rational(Fraction(1, 12)) == pow(12 % 7, 5, 7)
    with pytest.raises(ArithmeticDomainError):
        r.inv(0)
    with pytest.raises(ArithmeticDomainError):
        ring_from_tag("fp:5").from_rational(Fraction(2, 5))


@pytest.mark.parametrize("tag", ["int", "fp:7", "fp:2097169"])
def test_divexact_vector_matches_divexact(tag):
    r = ring_from_tag(tag)
    ints = (0, 12, -24, 1728 * 5)
    vec = np.array([r.from_int(v) for v in ints], dtype=r.dtype)
    got = r.divexact_vector(vec, 12)
    assert got.dtype == r.dtype
    assert got.tolist() == [r.from_rational(Fraction(v, 12)) for v in ints]
    if tag == "int":
        with pytest.raises(ArithmeticDomainError):
            r.divexact_vector(np.array([12, 13], dtype=object), 12)
    if tag == "fp:7":
        with pytest.raises(ArithmeticDomainError):
            r.divexact_vector(vec, 14)


@pytest.mark.parametrize("tag", ["int", "fp:7", "fp:2097169"])
def test_powers_are_integer_powers_in_the_ring(tag):
    r = ring_from_tag(tag)
    xs = [0, 1, 2, -3, 12, 10**6 + 3]
    for e in (0, 1, 5, 11):
        got = r.powers(xs, e)
        want = [r.from_rational(x ** e) for x in xs]
        assert got.dtype == r.dtype
        assert got.tolist() == want and list(map(type, got.tolist())) == list(map(type, want))
    if isinstance(r, FpRing):       # Fermat: each power is taken mod p, never exactly
        assert r.powers(xs, r.p - 1).tolist() == [0 if x % r.p == 0 else 1 for x in xs]


def test_is_prime_spot_checks():
    assert all(is_prime(p) for p in PRIMES)
    assert not any(is_prime(n) for n in (0, 1, 4, 21, 91, 561, 1105))
    assert is_prime(2 ** 31 - 1)


def _strong_probable_prime(n, a):
    """Whether odd n passes one Miller-Rabin round to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    for _ in range(s):
        if x in (1, n - 1):
            return True
        x = x * x % n
    return False


def test_is_prime_is_a_proof_below_its_bound_and_refuses_past_it():
    """399165290221 * 798330580441 passes the bases 2..37 and fails 41;
    MR_BOUND = 1287836182261 * 2575672364521 passes 2..41 and is refused."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    c = 399165290221 * 798330580441
    assert all(_strong_probable_prime(c, a) for a in bases) and not _strong_probable_prime(c, 41)
    assert not is_prime(c)
    assert MR_BOUND == 1287836182261 * 2575672364521
    assert all(_strong_probable_prime(MR_BOUND, a) for a in bases + (41,))
    assert is_prime(2 ** 63 + 29) and is_prime(2 ** 64 - 59)
    for bad in (MR_BOUND, MR_BOUND + 2):
        for check in (is_prime, require_odd_prime):
            with pytest.raises(InvalidArgumentError, match=f"only below {MR_BOUND}"):
                check(bad)
    with pytest.raises(InvalidArgumentError, match="expected an odd prime"):
        ring_from_tag(f"fp:{c}")


def test_a_field_past_int64_reduces_integers_as_python_ints():
    p = 2 ** 63 + 29
    fp = ring_from_tag(f"fp:{p}")
    got = fp.from_integers(np.array([-1, 0, 5, 2 ** 62], dtype=np.int64))
    assert got.dtype == object and got.tolist() == [p - 1, 0, 5, 2 ** 62]
    assert all(type(v) is int for v in got.tolist())
