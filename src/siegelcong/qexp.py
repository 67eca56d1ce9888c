"""Truncated q-expansions of level-1 elliptic modular forms.

Provides the generators E4, E6, Delta and the eta-power series, the
zeta^0 and zeta^1 columns of the index-1 Jacobi generators, echelonized
monomial bases of the weight-k spaces, and `BoundedMemo`, the byte-bounded
memo that this module and the Jacobi layer keep their results in.  E2, E4,
E6 and Delta come from one memoized, read-only source, `level1_series`: one
BoundedMemo entry per ring at the largest q-precision asked, served to
smaller precisions as a prefix view, from which the index-1 columns, the
weak columns, mk_basis and the CLI's elliptic factors all read.

The index-1 columns (index1_columns, _weak_columns) are q-series, and both
halves read them: the Jacobi layer gathers its index-1 forms from them and
the Siegel layer lifts them (siegel.maass_lift).  They live here, with
criterion_weight, so the Siegel layer never loads the Jacobi layer (see the
siegelcong docstring).  sigma_e comes from a numpy divisor sieve, and
the exact divisions by 12 and 1728 are one vector operation each
(`Ring.divexact_vector`).

Storage: a series of precision N is the 1-D vector of its N + 1
coefficients, of dtype `ring.dtype` like every coefficient vector (see
siegelcong.ring); every operation is one numpy expression for both dtypes,
reduced mod p only over F_p (`ring.canonical`).  The series product
convolve_trunc, which the Jacobi layer shares, is one ring.exact_product of
either an int64 np.convolve or, for long series over small F_p, a float64
FFT product; invert_series is Newton iteration over convolve_trunc.

The mod-p filtration of a level-1 form (mod_p_filtration) is a valuation:
the power of E_{p-1}'s polynomial in E4 and E6 that divides the form's.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .errors import ArithmeticDomainError, InvalidArgumentError, PrecisionError
from .ring import (FpRing, RatRing, centred, exact_product, fft_len, fft_qmax, int64_qmax,
                   ring_from_tag, rint_residues)

_INT = ring_from_tag("int")


# -- series products -------------------------------------------------------------

# Shorter-factor length from which convolve_trunc multiplies by FFT over
# F_p with p <= fft_qmax, the measured crossover with np.convolve.  Rings
# that need CRT (Z, Q, F_p past fft_qmax) keep np.convolve at every length.
_FFT_MIN = 250


def convolve_trunc(ring, a, b, n):
    """First n coefficients of the product of two series vectors: one
    ring.exact_product with T = min(len(a), len(b), n) terms per
    coefficient, of np.convolve (int64_qmax(T)), or of _convolve_fft
    (fft_qmax of the longer length) from _FFT_MIN terms on over F_p with p
    within that bound."""
    square = b is a
    a = np.asarray(a[:n], dtype=ring.dtype)
    b = a if square else np.asarray(b[:n], dtype=ring.dtype)
    out, t = ring.zeros(n), min(len(a), len(b))
    kernel, qmax = (lambda x, y, q: np.convolve(x, y)[:n] % q), int64_qmax(t)
    if t >= _FFT_MIN and isinstance(ring, FpRing):
        fq = fft_qmax(max(len(a), len(b)))
        if ring.p <= fq:
            kernel, qmax = (lambda x, y, q: _convolve_fft(x, y, q, n)), fq
    if t:
        full = exact_product(ring, a, b, kernel, t, qmax)
        out[:len(full)] = full
    return out


def _convolve_fft(x, y, q, n):
    """x * y to n terms, residues mod q in [0, q), by one float64 rfft product
    of the centred residues; exact for q <= fft_qmax(max(len(x), len(y))),
    refused past it as far as the floats show (ring.rint_residues).  The
    transform length covers the whole product, so nothing wraps."""
    size = fft_len(len(x) + len(y) - 1)
    spec = np.fft.rfft(centred(x, q).astype(float), size)
    spec = spec * (spec if y is x else np.fft.rfft(centred(y, q).astype(float), size))
    return rint_residues(np.fft.irfft(spec, size)[:n], q)


def invert_series(ring, a, n):
    """First n coefficients of 1/a; a[0] must be a unit.

    Newton iteration: if a g = 1 + O(q^k), then g' = g (2 - a g) = g - g e,
    e = a g - 1 = O(q^k), has a g' = 1 + O(q^2k), so g' extends g by the
    terms k..2k-1 of -g e.  Each step is two convolve_trunc calls, of a by g
    and of g by the terms e_k.. of e."""
    head = ring.canonical(a[:1]).tolist()
    if not head or not head[0]:
        raise ArithmeticDomainError("constant term of series is zero; cannot invert")
    g = ring.zeros(1)
    g[0] = ring.inv(head[0])
    a = ring.canonical(np.asarray(a[:n], dtype=ring.dtype))
    while len(g) < n:
        k = len(g)
        e = convolve_trunc(ring, a, g, min(2 * k, n))[k:]
        g = np.concatenate([g, ring.canonical(-convolve_trunc(ring, g, e, len(e)))])
    return g[:n]


# -- standard generators -------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(k):
    """Exact Bernoulli number B_k (B_1 = -1/2 convention)."""
    if k == 4:
        return Fraction(-1, 30)
    if k == 6:
        return Fraction(1, 42)
    b = [Fraction(1)]
    for m in range(1, k + 1):
        acc = sum(Fraction(comb(m + 1, j)) * b[j] for j in range(m))
        b.append(-acc / (m + 1))
    return b[k]


def _sigma(e, n, ring):
    """sigma_e(0..n) (entry 0 is zero) by a numpy divisor sieve: one term
    d^e per pair (d, multiple of d), the powers from ring.powers (mod p over
    F_p), summed with one np.add.at; not reduced."""
    d = np.arange(1, n + 1)
    count = n // d
    div = np.repeat(d, count)
    mult = div * (np.arange(len(div)) - np.repeat(np.cumsum(count) - count, count) + 1)
    out = np.zeros(n + 1, dtype=ring.dtype)
    np.add.at(out, mult, ring.powers(d.tolist(), e)[div - 1])
    return out


def _eisenstein(k, prec, ring):
    """1 - (2k/B_k) * sum sigma_{k-1}(n) q^n for an even k >= 2."""
    out = ring.canonical(ring.canonical(_sigma(k - 1, prec, ring))
                         * ring.from_rational(Fraction(-2 * k) / bernoulli(k)))
    out[0] = ring.one
    return out


def eta_pow6(prec, ring):
    """eta^6 with the fractional q-power removed (constant term 1).

    Computed as the square of the eta^3 series sum (-1)^j (2j+1) q^{j(j+1)/2}.
    """
    j = np.arange(isqrt(2 * prec) + 1)
    j = j[j * (j + 1) // 2 <= prec]
    cube = np.zeros(prec + 1, dtype=np.int64)
    cube[j * (j + 1) // 2] = np.where(j % 2, -1, 1) * (2 * j + 1)
    cube = ring.from_integers(cube, 1)
    return convolve_trunc(ring, cube, cube, prec + 1)


# -- weight-k bases ---------------------------------------------------------------

def _triangular_exponents(k):
    """(a, b, c) with 4a + 6b = k - 12c != 2 and a minimal: one triple per c,
    none for odd or negative k."""
    if k % 2:
        return []
    out = []
    for c in range(k // 12 + 1):
        rem = k - 12 * c
        if rem != 2:
            a = {0: 0, 4: 1, 2: 2}[rem % 6]
            out.append((a, (rem - 4 * a) // 6, c))
    return out


class BoundedMemo:
    """A least-recently-used memo holding at most `limit` bytes of values.

    size(value) gives the bytes a value holds (see array_bytes).  Inserting
    evicts the least recently used entries until the total is within the
    limit again; the entry just inserted always stays, even when it alone is
    larger.  Lookups use `get` and inserts item assignment, so a plain dict
    can stand in for a memo, unbounded (tests do).  Every memo of the
    Jacobi layer is one of these, with the same MEMO_BYTES bound.
    """

    def __init__(self, limit, size):
        self.limit, self.size = limit, size
        self.nbytes = 0
        self._items = {}          # key -> (value, bytes), least recently used first

    def get(self, key, default=None):
        hit = self._items.pop(key, None)
        if hit is None:
            return default
        self._items[key] = hit
        return hit[0]

    def __setitem__(self, key, value):
        old = self._items.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        nbytes = self.size(value)
        self._items[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.limit and len(self._items) > 1:
            self.nbytes -= self._items.pop(next(iter(self._items)))[1]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


# per memo; in the index-2, p = 31 heat cycle a 64 MiB bound added no hits
# and raised peak RSS from 134 to 199 MB
MEMO_BYTES = 16 << 20


def array_bytes(arrays):
    """Bytes held by numpy arrays, counting an object entry as 64 bytes (its
    pointer and a small Python number), so bounds over Z and Q are rough."""
    return sum(a.size * 64 if a.dtype == object else a.nbytes for a in arrays)


def require_memory(what, need, parts=""):
    """Refuse (InvalidArgumentError) what, estimated at `need` bytes (parts
    names the estimate's terms), when that exceeds the host's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise InvalidArgumentError(f"{what} needs about {need / 2 ** 30:.3g} GiB{parts}, more "
                                   f"than the {have / 2 ** 30:.3g} GiB of physical memory")


def integral_memo(memo, build, prec, ring):
    """build(prec, ring), an array of integral series along its last axis,
    memoized per ring at the largest precision asked, read-only; a smaller
    precision is a prefix view.  Q casts the entry of Z once (Fraction
    arithmetic would be the cost)."""
    rows = memo.get(ring.tag)
    if rows is None or rows.shape[-1] <= prec:
        if isinstance(ring, RatRing):
            ints = integral_memo(memo, build, prec, _INT)
            rows = ring.from_integers(ints, 1)
        else:
            rows = build(prec, ring)
        rows = memo[ring.tag] = _read_only(rows)
    return rows[..., :prec + 1]


_level1 = BoundedMemo(MEMO_BYTES, lambda rows: array_bytes([rows]))


def level1_series(prec, ring):
    """The read-only 4 x (prec + 1) matrix of E2, E4, E6 and Delta to q^prec,
    built once per ring (integral_memo).  Delta is (E4^3 - E6^2)/1728,
    divided as one vector operation."""
    return integral_memo(_level1, _level1_rows, prec, ring)


def _level1_rows(prec, ring):
    n = prec + 1
    e2, e4, e6 = (_eisenstein(k, prec, ring) for k in (2, 4, 6))
    e4_cubed = convolve_trunc(ring, convolve_trunc(ring, e4, e4, n), e4, n)
    delta = ring.divexact_vector(ring.canonical(e4_cubed - convolve_trunc(ring, e6, e6, n)), 1728)
    return np.stack([e2, e4, e6, delta])


# -- index-1 columns --------------------------------------------------------------

def _theta_square_column(ring, c, n):
    """x^0..x^{n-1} at zeta^c of (sum_{j in Z} (-1)^j x^{j(j+1)/2} zeta^j)^2.

    The terms j and c - j meet at zeta^c, so this is one sum over j with
    O(sqrt n) terms.
    """
    reach = isqrt(2 * n) + 2
    j = np.arange(-reach, reach + 1)
    e = (j * (j + 1) + (c - j) * (c - j + 1)) // 2
    return ring.from_integers(np.bincount(e[e < n], minlength=n) * (-1) ** (c % 2), 1)


_weak_memo = BoundedMemo(MEMO_BYTES, lambda cols: array_bytes([cols]))


def _weak_columns(prec, ring):
    """The read-only 2 x 2 x (prec + 1) array: (h_0, h_1) of phi_{-2,1} and
    (h_0, h_1) of phi_{0,1}, built once per ring (integral_memo).

    phi_{-2,1} = zeta theta^2 / eta^6, theta = sum_j (-1)^j q^{j(j+1)/2}
    zeta^j (the fractional q-powers cancel), so its zeta^c column is the
    zeta^(c-1) column of theta^2 over eta^6.  Guard: the zeta^2 and zeta^3
    columns are built the same way and must be h_0 and h_1 moved down one
    and two rows with zeros above, since c(n, 2) = c(n - 1, 0) and
    c(n, 3) = c(n - 2, 1); that also checks c = 0 at D < -1 there.

    phi_{0,1} is the heat image -6 L phi_{-2,1} - 5 E_2 phi_{-2,1}, with L
    the heat operator of `jacobi.heat` and E_2 = 1 - 24 sum sigma_1(n) q^n:
    the modified heat operator maps J^weak_{-2,1} into J^weak_{0,1}, which
    phi_{0,1} spans (M_2 = 0; Eichler-Zagier, The Theory of Jacobi Forms,
    Sec. 9), and the q^0 rows fix the constants.  Column by column,
    h_r -> -6 (4n - r) h_r - 5 E_2 h_r.  Every coefficient is integral.
    """
    return integral_memo(_weak_memo, _build_weak_columns, prec, ring)


def _build_weak_columns(prec, ring):
    n = prec + 1
    inv_eta6 = invert_series(ring, eta_pow6(prec, ring), n)
    cols = [convolve_trunc(ring, _theta_square_column(ring, c - 1, n), inv_eta6, n)
            for c in range(4)]
    for k in (1, 2):
        if not np.array_equal(cols[k + 1], np.append(ring.zeros(k), cols[k - 1])[:n]):
            raise ArithmeticDomainError(
                "zeta^2 and zeta^3 columns break the index-1 discriminant law")
    e2 = level1_series(prec, ring)[0]
    w0 = [ring.canonical(h * (-6 * (4 * np.arange(n) - r)).astype(ring.dtype)
                         - convolve_trunc(ring, e2, h, n) * ring.from_int(5))
          for r, h in enumerate(cols[:2])]
    return np.array([cols[:2], w0], dtype=ring.dtype)


def index1_columns(k, prec, ring):
    """The zeta^0 and zeta^1 columns (h_0, h_1), each of length prec + 1, of
    the index-1 generator of weight k: phi_{-2,1} (k = -2), phi_{0,1} (0),
    E_{4,1} (4), E_{6,1} (6), phi_{10,1} (10) or phi_{12,1} (12).

    E_{4,1} = (E4 phi_{0,1} - E6 phi_{-2,1})/12,
    E_{6,1} = (E6 phi_{0,1} - E4^2 phi_{-2,1})/12, phi_{10,1} = Delta
    phi_{-2,1} and phi_{12,1} = Delta phi_{0,1}, each taken column by
    column.  The weak columns are read-only.  PAPER.md, "Index-1 generators
    and the lift".
    """
    if k not in (-2, 0, 4, 6, 10, 12):
        raise InvalidArgumentError(f"no index-1 generator of weight {k}")
    wm2, w0 = _weak_columns(prec, ring)
    n = prec + 1
    if k in (-2, 0):
        return wm2 if k == -2 else w0
    _, e4, e6, delta = level1_series(prec, ring)
    if k in (4, 6):
        f, g = (e4, e6) if k == 4 else (e6, convolve_trunc(ring, e4, e4, n))
        return tuple(ring.divexact_vector(ring.canonical(convolve_trunc(ring, f, h0, n)
                                                         - convolve_trunc(ring, g, hm2, n)), 12)
                     for h0, hm2 in zip(w0, wm2))
    return tuple(convolve_trunc(ring, delta, h, n) for h in (wm2 if k == 10 else w0))


def discriminant_series(cols, dmax):
    """C[D + 1] for D = -1..dmax, where C[D] is the coefficient at
    discriminant D = 4n - r^2 of the index-1 form with zeta^0 and zeta^1
    columns cols: c(n, r) with r in {0, 1}, one gather.  Entries at
    D = 1, 2 mod 4, which no key has, are junk."""
    D = np.arange(-1, dmax + 1)
    return np.asarray(cols)[(D % 4 == 3).astype(int), (D + 1) // 4]


def criterion_weight(k, p, b):
    """Weight of the form whose vanishing mod p decides the congruence of a
    weight-k form at b: k + (p+1)^2/2 for b != 0 mod p (heat and theta
    criteria), k + p^2 - 1 for b = 0 (heat-cycle closure, sieve identity).
    PAPER.md, "One criterion weight"."""
    return k + (p + 1) * (p + 1) // 2 if b % p else k + p * p - 1


_bases = BoundedMemo(MEMO_BYTES, lambda rows: array_bytes([rows]))


def mk_basis(k, prec, ring):
    """Echelonized basis of the weight-k level-1 space over `ring`: a
    read-only matrix of dtype `ring.dtype` with prec + 1 columns, one row
    per basis form.

    Reduces Delta^c E4^a E6^b, one for each c with 4a + 6b = k - 12c != 2
    and a minimal.  Each has integer coefficients and leading term 1*q^c, so
    the set is a basis of M_k (Serre, A Course in Arithmetic, VII §3.2, Thm 4)
    whose Z-span holds every monomial E4^a E6^b Delta^c of weight k; its
    reduced echelon form is the one of all those monomials, over Q and over
    every F_p.  Unit leading terms make the reduction a back substitution
    without division.  Pivot columns strictly increase and pivots equal 1;
    the number of rows is the dimension of the space, 0 at odd, negative
    and weight 2.

    Bases are memoized per (ring, k) at the largest precision built, in a
    BoundedMemo, and a smaller precision is served as a column slice (a
    view) of the stored matrix.  That is exact: the back substitution reads
    and clears only the pivot columns c <= k/12 < prec, and row operations
    commute with truncation.
    """
    tri = _triangular_exponents(k)
    if not tri:
        return _read_only(ring.zeros((0, prec + 1)))
    upper = k // 12 + 1
    if prec < upper:
        raise PrecisionError(f"mk_basis({k}) needs precision >= {upper}",
                             required=upper, available=prec)
    key = (ring.tag, k)
    rows = _bases.get(key)
    if rows is None or rows.shape[1] <= prec:
        n = prec + 1
        pw4, pw6, pwd = _power_chains(ring, prec, (2, max(b for _, b, _ in tri), tri[-1][2]))
        rows = np.stack([convolve_trunc(ring, convolve_trunc(ring, pw4[a], pw6[b], n), pwd[c], n)
                         for a, b, c in tri])
        # clear pivot column c_j above row j, last row first
        for j in range(len(tri) - 1, 0, -1):
            for i in range(j):
                x = rows[i, tri[j][2]]
                if x:
                    rows[i] = ring.canonical(rows[i] - rows[j] * x)
        rows = _bases[key] = _read_only(rows)
    return rows[:, :prec + 1]


_chains = None  # (ring tag, prec, [E4 chain, E6 chain, Delta chain]), or None


def _power_chains(ring, prec, emax):
    """The chains [f^0, ..., f^e] for (f, e) in zip((E4, E6, Delta), emax).

    One entry is kept: the last ring at the largest precision asked of it,
    so a smaller precision is served by the longer series (the caller
    truncates) and a chain grows when a larger power is asked for.  The
    stored vectors are read-only.
    """
    global _chains
    if _chains is None or _chains[0] != ring.tag or _chains[1] < prec:
        one = ring.zeros(prec + 1)
        one[0] = ring.one
        _chains = (ring.tag, prec, [[_read_only(one), f] for f in level1_series(prec, ring)[1:]])
    chains = _chains[2]
    for chain, e in zip(chains, emax):
        while len(chain) <= e:
            chain.append(_read_only(convolve_trunc(ring, chain[-1], chain[1], len(chain[1]))))
    return chains


def _read_only(a):
    a.flags.writeable = False
    return a


def mk_dim(k):
    """Dimension of the weight-k level-1 space: the size of mk_basis's
    triangular basis, one element per c with k - 12c != 2 (Serre, A Course in
    Arithmetic, VII §3.2, Thm 4).  Its unit leading terms make the count the
    same over Q and over every F_p.
    """
    return len(_triangular_exponents(k))


# -- the mod-p filtration of a level-1 form ------------------------------------------

NEG_INF = float("-inf")


def mod_p_filtration(f, k, ring):
    """The mod-p filtration w(f) of the coefficient vector f of a level-1 form
    of weight k over F_p: the least weight k' = k mod (p - 1) whose space
    holds f mod p.  -inf when f is zero on its Sturm rows q^0..q^floor(k/12);
    None when f is no form of weight k on them, or, at a weight with no
    forms, when any entry of f is nonzero.

    With f~ = E4^a E6^b G(E4^3, E6^2) the isobaric polynomial of f
    (isobaric) and A~ that of E_{p-1} (hasse_invariant), w(f) = k - (p - 1) v
    for v the largest power of A~ dividing f~: A~ - 1 generates the kernel
    of the map from F_p[E4, E6] to q-expansions mod p, and A~ has no
    repeated factor (Swinnerton-Dyer, "On l-adic representations and
    congruences for coefficients of modular forms", §3; Serre,
    "Formes modulaires et fonctions zêta p-adiques", §1).  A~ is built only
    at k >= p - 1, where a division is possible.  Its core A divides G as
    power series (A(0) != 0): the quotient is G/A to deg G - deg A + 1 terms,
    exact iff it times A is G.
    """
    iso = isobaric(f, k, ring)
    if iso is None:
        return None if np.any(f) else NEG_INF
    a, b, core = iso
    if not len(core):
        return NEG_INF
    if k < ring.p - 1:
        return k
    alpha, beta, hasse = hasse_invariant(ring)
    # A~^v divides f~ only if alpha v <= a, beta v <= b and v deg A <= deg G
    caps = [e // t for e, t in ((a, alpha), (b, beta)) if t]
    if len(hasse) == 1:
        return k - (ring.p - 1) * min(caps)
    top, v = min(caps + [(len(core) - 1) // (len(hasse) - 1)]), 0
    while v < top:
        inv = _grown(_hasse_inverse, ring.tag, len(core),
                     lambda n: (invert_series(ring, hasse, n),))[0]
        quot = convolve_trunc(ring, core, inv, len(core) - len(hasse) + 1)
        if np.any(ring.canonical(core - convolve_trunc(ring, quot, hasse, len(core)))):
            break
        core, v = quot, v + 1
    return k - (ring.p - 1) * v


def isobaric(f, k, ring):
    """(a, b, core) with f~ = E4^a E6^b G(E4^3, E6^2) the polynomial over
    F_p whose q-expansion is f on its Sturm rows, k = 4a + 6b + 12 deg G,
    and G(X, Y) = sum_i core[i] X^(deg G - i) Y^i divisible by neither X nor
    Y; core is empty when f is zero there.  None at weights with no forms
    and when f is no form of weight k on its Sturm rows.

    Write k = 4 a0 + 6 b0 + 12 s with a0 <= 2, b0 <= 1, so the d = s + 1
    forms E4^(a0 + 3s) E6^b0 u^c, u = Delta/E4^3 = q + O(q^2), c <= s, are a
    basis of M_k.  The coordinates x of f in it solve
    h = f E4^-(a0 + 3s) E6^-b0 = sum_c x_c u^c on q^0..q^(d-1), one product
    with the inverse of the powers of u (_coordinates); the Sturm row past
    d, when k = 2 mod 12, is checked against them.  Then
    Delta = (E4^3 - E6^2)/1728 expands f~ into the coefficients of
    X^(s-i) Y^i, X = E4^3, Y = E6^2, and the powers of X and Y are split off.
    """
    split = _weight_split(k)
    if split is None:
        return None
    a0, b0, s = split
    d, rows = s + 1, k // 12 + 1
    if len(f) < rows:
        raise PrecisionError(f"the filtration at weight {k} needs precision {rows - 1}",
                             required=rows - 1, available=len(f) - 1)
    inv4, inv6, inv4_cubes, upow, uinv, expand = coordinate_matrices(ring, rows)
    h = convolve_trunc(ring, f, inv4_cubes[s], rows)
    for g in [inv4] * a0 + [inv6] * b0:
        h = convolve_trunc(ring, h, g, rows)
    x = _vec_mat(ring, h[:d], uinv[:d, :d])
    if rows > d and np.any(ring.canonical(h[d:] - _vec_mat(ring, x, upow[:d, d:rows]))):
        return None
    y = _vec_mat(ring, x, expand[:d, :d])
    nz = np.flatnonzero(y).tolist()
    if not nz:
        return a0, b0, y[:0]
    return a0 + 3 * (s - nz[-1]), b0 + 2 * nz[0], y[nz[0]:nz[-1] + 1]


def hasse_invariant(ring):
    """isobaric of E_{p-1} over F_p: (alpha, beta, A) with
    A~ = E4^alpha E6^beta A(E4^3, E6^2).  The q-expansion of E_{p-1} is 1
    mod p, since p divides 2(p - 1)/B_{p-1} (von Staudt-Clausen); its
    polynomial is not 1."""
    hit = _hasse.get(ring.tag)
    if hit is None:
        k = ring.p - 1
        one = ring.zeros(k // 12 + 1)
        one[0] = ring.one
        alpha, beta, core = isobaric(one, k, ring)
        hit = _hasse[ring.tag] = (alpha, beta, _read_only(core))
    return hit


_hasse = BoundedMemo(MEMO_BYTES, lambda iso: array_bytes([iso[2]]))
_hasse_inverse = BoundedMemo(MEMO_BYTES, array_bytes)
_coordinate_memo = BoundedMemo(MEMO_BYTES, array_bytes)


def _weight_split(k):
    """(a0, b0, s) with k = 4 a0 + 6 b0 + 12 s, a0 <= 2 and b0 <= 1, or None
    when M_k = 0 (odd, negative and weight 2)."""
    if k < 0 or k % 2:
        return None
    a0, b0 = {0: (0, 0), 4: (1, 0), 8: (2, 0), 6: (0, 1), 10: (1, 1), 2: (2, 1)}[k % 12]
    s = (k - 4 * a0 - 6 * b0) // 12
    return (a0, b0, s) if s >= 0 else None


def _vec_mat(ring, v, mat):
    """v @ mat over ring: one exact_product of len(v) terms per entry."""
    return exact_product(ring, v, mat, lambda x, y, q: x @ y % q, len(v), int64_qmax(len(v)))


def _grown(memo, key, n, build):
    """memo[key], a tuple of read-only arrays whose first has length >= n;
    when it is shorter or missing, build(size) makes it at
    size = max(n, twice the old length, _MIN_GROWN)."""
    hit = memo.get(key)
    if hit is None or len(hit[0]) < n:
        size = max(n, 2 * len(hit[0]) if hit else 0, _MIN_GROWN)
        hit = memo[key] = tuple(map(_read_only, build(size)))
    return hit


# Least size _grown builds: per-call overhead makes a build of 32 rows cost
# about what one of 4 does, and 32 rows reach weight 383, past the p = 17
# heat cycle of phi_{12,1} (weight 300)
_MIN_GROWN = 32


def coordinate_matrices(ring, rows):
    """_coordinates to at least `rows` terms, kept in _coordinate_memo."""
    return _grown(_coordinate_memo, ring.tag, rows, lambda n: _coordinates(ring, n))


def _coordinates(ring, n):
    """(1/E4, 1/E6, T, U, V, B) over F_p, to n terms and n x n, shared by
    every weight (isobaric keeps them in _coordinate_memo): T[s] = E4^(-3s);
    row c of U is u^c, u = Delta/E4^3; V = U^-1; and
    B[c, i] = (-1)^i binom(c, i) / 1728^c takes coordinates in the
    u^c = (X - Y)^c / (1728^c X^c), X = E4^3, Y = E6^2, to those in the
    Y^i/X^i.  U and V are unit upper triangular, so their leading blocks
    are each other's inverses."""
    _, e4, e6, delta = level1_series(n - 1, ring)
    inv4, inv6 = (invert_series(ring, g, n) for g in (e4, e6))
    inv4_cubes = _powers(ring, convolve_trunc(ring, convolve_trunc(ring, inv4, inv4, n), inv4, n), n)
    upow = _powers(ring, convolve_trunc(ring, delta, inv4_cubes[1], n), n)
    # row e of V is w^e for w the compositional inverse of u, u(w(t)) = t;
    # w is row 1 of V, so w @ U = e_1, solved one column of U at a time
    w = ring.zeros(n)
    w[1] = ring.one
    for c in range(2, n):
        w[c] = ring.canonical(-_vec_mat(ring, w[:c], upow[:c, c:c + 1]))[0]
    uinv = _powers(ring, w, n)
    expand = ring.zeros((n, n))
    expand[0, 0] = ring.one
    r = ring.inv(1728)
    for c in range(1, n):
        expand[c, 1:] = -expand[c - 1, :-1]
        expand[c] = ring.canonical((expand[c] + expand[c - 1]) * r)
    return inv4, inv6, inv4_cubes, upow, uinv, expand


def _powers(ring, f, n):
    """The n x n matrix whose row e is f^e to n terms."""
    out = ring.zeros((n, n))
    out[0, 0] = ring.one
    for e in range(1, n):
        out[e] = convolve_trunc(ring, out[e - 1], f, n)
    return out
