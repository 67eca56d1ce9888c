"""Coefficient rings: prime fields F_p and the exact integers.

A ring is a protocol on coefficient vectors (`Ring`).  Series code holds
coefficients in numpy arrays of dtype `Ring.dtype` and does its arithmetic
as numpy expressions on them; the ring supplies only the steps that differ
between rings: `canonical` (reduction into ``[0, p)`` over F_p, nothing
over Z), `divexact_vector`, `powers`, and the integer lifts
`to_integers`/`from_integers`, which need no denominator: every generator
of the package is integral.  Entries are Python ``int`` values in object
arrays, or int64 residues over F_p with p < 2^21.  Rings are stateless,
hashable, and compare by tag, so they are safe to share between
concurrent readers.

Every exact product of the package (series, Jacobi rows, Siegel boxes) is
one `exact_product`: a kernel modulo p itself over F_p with p within the
kernel's bound, else modulo a few word-size primes joined by CRT.  The
kernels are int64 sums (bound `int64_qmax`) or float64 FFT products of
centred residues (bound `fft_qmax`, transform lengths `fft_len`), rounded
back by `rint_residues`, which refuses outputs that show a slip of the bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, log2, prod

import numpy as np

from .errors import (ArithmeticDomainError, InexactProductError, InvalidArgumentError,
                     RingMismatchError)

# Witness set sufficient for deterministic Miller-Rabin below 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin primality test (valid for n < 3.3e24)."""
    if not isinstance(n, int) or n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p, minimum=3):
    if not isinstance(p, int) or p < minimum or p % 2 == 0 or not is_prime(p):
        raise InvalidArgumentError(f"expected an odd prime >= {minimum}, got {p!r}")


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, +1}, by Euler's criterion.

    Requires p an odd prime.  Returns 0 iff p | a, +1 iff a is a nonzero
    square mod p, and -1 otherwise.
    """
    require_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def reduce_rational(x, p):
    """Reduce a p-integral rational (or integer) to its residue in [0, p).

    Raises `ArithmeticDomainError` when p divides the denominator.
    """
    require_odd_prime(p)
    if isinstance(x, int):
        return x % p
    num, den = x.numerator, x.denominator
    if den % p == 0:
        raise ArithmeticDomainError(f"{x} is not p-integral for p = {p}")
    return num * pow(den % p, p - 2, p) % p


class Ring:
    """The vector protocol of a coefficient ring.

    Coefficient vectors are numpy arrays of dtype `dtype`: object here,
    int64 over F_p with p < 2^21.  Sums, differences and products by scalars
    are numpy expressions followed by `canonical`; the methods below build
    vectors, divide them exactly, and lift them to integers and back.  The
    only scalar operations are the constructors and `inv`.  Subclasses are
    immutable and hashable, equality is by tag.
    """

    tag = "?"
    dtype = object

    def __eq__(self, other):
        return isinstance(other, Ring) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"{type(self).__name__}({self.tag!r})"

    # -- elements ------------------------------------------------------------
    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, a):
        raise NotImplementedError

    def from_rational(self, x):
        """Image of a rational number, when it exists in this ring."""
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- vectors ---------------------------------------------------------------
    def divexact_vector(self, vec, c):
        """vec / c for a nonzero integer c, as one vector operation: vec times
        the inverse of c; domain error when c has none."""
        return self.canonical(vec * self.inv(self.from_int(c)))

    def canonical(self, vec):
        """A numpy vector of elements in canonical form: vec itself here,
        a new array reduced into [0, p) over F_p."""
        return vec

    def zeros(self, shape):
        """A new array of zeros of dtype `dtype`."""
        return np.full(shape, self.zero, dtype=self.dtype)

    def powers(self, xs, e):
        """The vector of x^e, e >= 0, for each Python int x in xs."""
        return self.from_integers(np.array([x ** e for x in xs], dtype=object))

    # -- reduction into a prime field ---------------------------------------
    def reduce_vector(self, vec, fp):
        """The entries of vec reduced into the prime field fp: the integer lift mod p."""
        return fp.from_integers(self.to_integers(vec))

    # -- integer lifts of arrays (the lifts of exact_product) -----------------
    def to_integers(self, vec):
        """Integers of vec's shape that represent vec's entries."""
        return vec

    def from_integers(self, ints):
        """The array of the integers ints in this ring, of dtype `dtype`."""
        return np.asarray(ints, dtype=self.dtype)


class IntRing(Ring):
    tag = "int"

    def from_int(self, a):
        return int(a)

    def from_rational(self, x):
        x = Fraction(x)
        if x.denominator != 1:
            raise ArithmeticDomainError(f"{x} is not an integer")
        return x.numerator

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ArithmeticDomainError(f"{a} is not a unit in Z")

    def divexact_vector(self, vec, c):
        if np.any(vec % c):
            raise ArithmeticDomainError(f"a coefficient is not divisible by {c}")
        return vec // c


class FpRing(Ring):
    """The prime field F_p for an odd prime p >= 5, residues in [0, p)."""

    def __init__(self, p):
        require_odd_prime(p, minimum=5)
        self.p = p
        self.tag = f"fp:{p}"
        self.fits64 = p < (1 << 21)      # int64 vectors; each product checks its own bound
        self.dtype = np.int64 if self.fits64 else object

    def from_int(self, a):
        return int(a) % self.p

    def from_rational(self, x):
        return reduce_rational(Fraction(x), self.p)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ArithmeticDomainError(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def canonical(self, vec):
        return vec % self.p

    def powers(self, xs, e):
        """Each power mod p (three-argument pow), never the exact integer."""
        return self.from_integers(np.array([pow(x, e, self.p) for x in xs], dtype=self.dtype))

    def to_integers(self, vec):
        return centred(vec, self.p)

    def from_integers(self, ints):
        return (ints % self.p).astype(self.dtype)

    def reduce_vector(self, vec, fp):
        if fp.p != self.p:
            raise RingMismatchError(f"cannot reduce {self.tag} coefficients mod {fp.p}")
        return self.canonical(vec)


# -- exact products ------------------------------------------------------------------

def exact_product(ring, f, g, kernel, terms, qmax):
    """The product of the arrays f and g over `ring`, for a bilinear
    kernel(x, y, q) that multiplies int64 residue arrays into [0, q), exact
    for every prime q <= qmax when an output entry sums <= `terms` products.

    Over F_p with p <= qmax the kernel runs once, modulo p: on f and g as
    given when they are int64, else on their residues cast to int64.
    Otherwise the integer lifts a, b (Ring.to_integers) are multiplied
    modulo the largest primes q <= qmax whose product M exceeds
    2 terms max|a| max|b| (moduli); CRT joins the residues into the centred
    integers in (-M/2, M/2), the exact products, which Ring.from_integers
    maps back.  If g is f the kernel sees one array twice.
    """
    if isinstance(ring, FpRing) and ring.p <= qmax:
        if ring.fits64:
            return kernel(f, g, ring.p)
        x = f.astype(np.int64)
        return kernel(x, x if g is f else g.astype(np.int64), ring.p).astype(object)
    a = ring.to_integers(f)
    b = a if g is f else ring.to_integers(g)
    primes = moduli(qmax, 2 * terms * int(abs(a).max(initial=0)) * int(abs(b).max(initial=0)))
    m, x = prod(primes), 0
    for q in primes:
        y = (a % q).astype(np.int64)
        r = kernel(y, y if b is a else (b % q).astype(np.int64), q)
        x = x + r.astype(object) * (m // q * pow(m // q, -1, q))
    x %= m
    return ring.from_integers(np.where(x > m // 2, x - m, x))


def int64_qmax(terms):
    """The largest q with terms * q^2 < 2^63: sums of that many residue products fit int64."""
    return isqrt(((1 << 63) - 1) // max(terms, 1))


# Bound on h^2 T under which a float64 FFT product of residues in [-h, h] is
# exact, T bounding ||x||_2 ||y||_2 / h^2 (see fft_qmax).
_FFT_LIMIT = 1 << 40


def fft_qmax(terms):
    """The largest odd q with ((q-1)/2)^2 terms <= 2^40: the bound of a float64
    FFT product of residues centred in [-h, h], h = (q-1)/2, whose factors
    have at most `terms` entries each.

    Then ||x||_2 ||y||_2 <= h^2 terms <= 2^40 bounds every exact output, and
    the rounding error of the FFT convolution is at most about
    13 log2(L) 2^-53 ||x||_2 ||y||_2, L the transform size (Percival, Math.
    Comp. 72, 2003): below 13 * 29 / 2^13 < 0.05 for L < 2^29, a tenth of
    what rounding to the nearest integer allows.
    """
    return 2 * isqrt(_FFT_LIMIT // max(terms, 1)) + 1


def centred(vec, q):
    """Residues mod an odd q from [0, q) to [-h, h], h = (q-1)/2: the lifts
    that the FFT bound fft_qmax counts."""
    return np.where(vec > q // 2, vec - q, vec)


def rint_residues(vals, q):
    """The float64 outputs of an FFT product as residues mod q in [0, q).

    Refused (InexactProductError) when the floats show that q was past the
    kernel's fft_qmax bound: an output lies 0.25 or more from an integer
    (five times the margin fft_qmax promises), or exceeds the 2^40 that
    bounds every exact output (past 2^52 every float is whole, so only the
    size can show a slip there)."""
    ints = np.rint(vals)
    off = vals - ints
    err, top = (max(-x.min(initial=0), x.max(initial=0)) for x in (off, ints))
    if err >= 0.25 or top > _FFT_LIMIT:
        raise InexactProductError(f"a float64 FFT product mod {q} has outputs up to {top:.3g}, "
                                  f"up to {err:.3g} from an integer: {q} is past the "
                                  f"kernel's exactness bound")
    return ints.astype(np.int64) % q


def fft_len(n):
    """The least 5-smooth length >= n, a fast size for numpy.fft."""
    while True:
        k = n
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        if k == 1:
            return n
        n += 1


def moduli(qmax, bound):
    """The largest primes 5 <= q <= qmax, descending, until there is one and
    their product exceeds bound; InvalidArgumentError if all fall short."""
    primes, q = [], qmax
    while prod(primes) <= max(bound, 1):
        q = _prime_at_most(q)
        if q < 5:
            raise InvalidArgumentError(
                f"an exact product needs {log2(bound):.0f} bits of moduli; the "
                f"{len(primes)} primes from 5 to {qmax} give {log2(prod(primes)):.0f}")
        primes.append(q)
        q -= 1
    return primes


@lru_cache(maxsize=4096)
def _prime_at_most(q):
    """The largest prime <= q, or a number below 5 when there is none >= 5."""
    while q >= 5 and not is_prime(q):
        q -= 1
    return q


_INT = IntRing()


def ring_from_tag(tag):
    """Resolve a CLI ring selector: 'int' or 'fp:<p>'."""
    if tag == "int":
        return _INT
    if tag.startswith("fp:"):
        try:
            p = int(tag[3:])
        except ValueError:
            raise InvalidArgumentError(f"bad ring tag {tag!r}") from None
        return FpRing(p)
    raise InvalidArgumentError(f"unknown ring tag {tag!r} (expected int or fp:<p>)")
