"""End-to-end acceptance suite.

Runs one test per criterion and prints a `[criterion N] PASS ...` line
(visible with `pytest -s tests/test_acceptance.py`).  The two large rows
(p = 17 and p = 19) are genuine recomputations at their full Sturm bounds;
their wall-clock times are measured and printed.
"""

import random
import time
from math import isqrt

import numpy as np
import pytest

from jacobi_checks import reconstruct_weak
from siegel_checks import support_dets, theta_operator, verify_combination
from siegelcong.expr import evaluate, parse
from siegelcong.jacobi import (filtration, heat, heat_cycle,
                               heat_cycle_required_prec, heat_iterate,
                               holo_basis, jac_congruence, jac_direct_scan,
                               jac_zero_test, jacobi_cusp, jacobi_eisenstein,
                               weak_decompose, weak_generators,
                               zero_test_required_prec)
from siegelcong.qexp import mk_basis
from siegelcong.ring import legendre, ring_from_tag
from siegelcong.siegel import (GeneratorContext, SiegelFormSeries,
                               congruence_required_prec, congruence_scan,
                               fourier_jacobi, sieve)

FP5 = ring_from_tag("fp:5")
FP7 = ring_from_tag("fp:7")


def _holds(certs):
    return sorted(b for b, c in certs.items() if b and c.holds)


def _build_row(text, p, include_zero):
    e = parse(text)
    prec = congruence_required_prec(e.weight, p, 0 if include_zero else 1)
    ctx = GeneratorContext(ring_from_tag(f"fp:{p}"), prec)
    form = evaluate(e, ctx)
    certs = congruence_scan(form, p, label=text, include_zero=include_zero)
    return form, certs


@pytest.fixture(scope="session")
def rows_small():
    rows = {}
    for text, p in [("chi12", 5), ("E4*chi12", 5), ("E6*chi12", 5),
                    ("E4^2*chi12", 5), ("E4*chi12 - E6*chi10", 7),
                    ("chi12", 11)]:
        rows[(text, p)] = _build_row(text, p, include_zero=True)
    return rows


@pytest.fixture(scope="session")
def row17():
    t0 = time.perf_counter()
    form, certs = _build_row("E4^2*chi10 + 7*E6*chi12", 17, include_zero=False)
    return form, certs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def row19():
    t0 = time.perf_counter()
    form, certs = _build_row("chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10", 19,
                             include_zero=False)
    return form, certs, time.perf_counter() - t0


def test_criterion_1_table_p5_rows(rows_small):
    for text in ("chi12", "E4*chi12", "E6*chi12", "E4^2*chi12"):
        form, certs = rows_small[(text, 5)]
        assert _holds(certs) == [1, 4], text
        for b in (2, 3):
            cert = certs[b]
            assert cert.verdict == "fails" and cert.witness is not None
            n, r, m = cert.witness
            assert legendre(4 * n * m - r * r, 5) == legendre(b, 5)
            assert form.a(n, r, m) % 5 != 0
    print("\n[criterion 1] PASS: p=5 rows hold at b=1,4 and refute with witness at b=2,3")


def test_criterion_2_table_p11(rows_small):
    _, certs = rows_small[("chi12", 11)]
    assert _holds(certs) == [2, 6, 7, 8, 10]
    print("\n[criterion 2] PASS: chi12 holds mod 11 exactly at b=2,6,7,8,10 (bound 28)")


def test_criterion_3_table_p7(rows_small):
    _, certs = rows_small[("E4*chi12 - E6*chi10", 7)]
    assert _holds(certs) == [3, 5, 6]
    print("\n[criterion 3] PASS: E4*chi12 - E6*chi10 holds mod 7 exactly at b=3,5,6 (bound 16)")


def test_criterion_4_extended_rows(row17, row19):
    _, certs17, t17 = row17
    assert _holds(certs17) == [1, 2, 4, 8, 9, 13, 15, 16]
    assert certs17[1].G_weight == 180 and certs17[1].sturm_bound == 60
    _, certs19, t19 = row19
    assert _holds(certs19) == [2, 3, 8, 10, 12, 13, 14, 15, 18]
    assert certs19[2].G_weight == 220 and certs19[2].sturm_bound == 73
    assert t17 < 1800 and t19 < 1800
    print(f"\n[criterion 4] PASS: p=17 row in {t17:.1f}s, p=19 row in {t19:.1f}s "
          f"(bounds 60 and 73)")


def test_criterion_5_weight4_eisenstein_mod7():
    ctx = GeneratorContext(FP7, congruence_required_prec(4, 7, 1))
    e4 = ctx.generator("E4")
    assert theta_operator(e4, 1).is_zero_window()
    certs = congruence_scan(e4, 7, label="E4", include_zero=False)
    assert all(certs[b].holds for b in range(1, 7))
    print("\n[criterion 5] PASS: D(E4) = 0 mod 7 on the window; E4 holds at every b=1..6")


def test_criterion_6_nagaoka_instances():
    e4 = GeneratorContext(FP5, 10).generator("E4")
    assert (e4 - _const_one(FP5, 4, 10)).is_zero_window()
    e6 = GeneratorContext(FP7, 10).generator("E6")
    assert (e6 - _const_one(FP7, 6, 10)).is_zero_window()
    print("\n[criterion 6] PASS: E4 = 1 mod 5 and E6 = 1 mod 7 through box N=10")


def _const_one(ring, weight, prec):
    return SiegelFormSeries.constant(ring, weight, prec, 1)


def test_criterion_7_sieve_suite(ctx5):
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
    union = set()
    for s, form in parts.items():
        dets = set(support_dets(form))
        assert all(legendre(d, 5) == s for d in dets)
        assert not (union & dets)
        union |= dets
    assert union == set(support_dets(F))
    assert verify_combination(parts[0], {(5, 0, 0, 2): 3, (4, 1, 1, 1): 2}, 44, ctx5)
    assert verify_combination(parts[1], {(6, 0, 2, 0): 1, (3, 0, 2, 1): 4,
                                         (5, 0, 0, 2): 4, (4, 1, 1, 1): 2,
                                         (3, 2, 2, 0): 3}, 44, ctx5)
    assert verify_combination(parts[-1], {(3, 0, 2, 1): 1, (5, 0, 0, 2): 3,
                                          (4, 1, 1, 1): 1, (3, 2, 2, 0): 2}, 44, ctx5)
    print("\n[criterion 7] PASS: sieve partition, Legendre supports, and all three "
          "weight-44 decompositions verified through the Sturm bound")


def _residue_witnesses(F, p):
    """First stored raw triple with a nonvanishing coefficient, per residue."""
    hits = {}
    for n in range(F.prec + 1):
        for m in range(F.prec + 1):
            bb = isqrt(4 * n * m)
            for r in range(-bb, bb + 1):
                if F.a(n, r, m) % p:
                    hits.setdefault((4 * n * m - r * r) % p, (n, r, m))
    return hits


def test_criterion_8_criterion_vs_exhaustive_scan(rows_small, row17, row19):
    checked = 0
    jobs = [(form, certs, p) for (text, p), (form, certs) in rows_small.items()]
    jobs.append((row17[0], row17[1], 17))
    jobs.append((row19[0], row19[1], 19))
    for form, certs, p in jobs:
        hits = _residue_witnesses(form, p)
        for b, cert in certs.items():
            assert cert.holds == (b not in hits), (p, b)
            checked += 1
    print(f"\n[criterion 8] PASS: verdicts match the exhaustive stored-coefficient "
          f"scan in all {checked} (form, b) cases")


def _random_phi(rng, basis, p, k):
    phi = None
    for f in basis:
        c = rng.randrange(p)
        term = f.scale(c)
        phi = term if phi is None else phi + term
    phi.weight = k
    return phi


def test_criterion_9_heat_cycle_property_suite():
    rng = random.Random(20260809)
    cases = 0
    violations = []
    for p in (5, 7, 11):
        ring = ring_from_tag(f"fp:{p}")
        for k in (4, 6, 8, 10, 12, 14, 16):
            prec = max(heat_cycle_required_prec(k, 1, p),
                       zero_test_required_prec(k + (p + 1) * (p + 1) // 2, 1))
            basis = holo_basis(k, 1, prec, p)
            if not basis:
                continue
            for _ in range(10):
                phi = _random_phi(rng, basis, p, k)
                while phi.is_zero_window():
                    phi = _random_phi(rng, basis, p, k)
                _run_heat_case(phi, p, k)
                cases += 1
    # a targeted case with a known congruence exercises the two-low-point law
    prec = max(heat_cycle_required_prec(12, 1, 5),
               zero_test_required_prec(12 + 18, 1))
    _run_heat_case(jacobi_cusp(12, prec, FP5), 5, 12)
    cases += 1
    assert cases >= 200
    print(f"\n[criterion 9] PASS: {cases} randomized heat-cycle cases, zero violations")


def _run_heat_case(phi, p, k):
    # Fermat closure on the full window
    l1 = heat(phi)
    lp = heat_iterate(phi, p)
    assert np.array_equal(lp.coeffs, l1.coeffs)
    # filtration weight-class consistency
    om = filtration(phi)
    assert om % (p - 1) == k % (p - 1) and om <= k
    l_zero = jac_zero_test(l1)
    om1 = filtration(l1) if not l_zero else None
    # step law with its equality condition (index m = 1)
    if not l_zero:
        assert om1 <= om + p + 1
        assert (om1 == om + p + 1) == ((2 * om - 1) % p != 0)
        assert om1 % (p - 1) == (k + p + 1) % (p - 1)
    else:
        assert (2 * om - 1) % p == 0
    if l_zero:
        assert heat_cycle(phi).status == "degenerate"
        return
    rep = heat_cycle(phi)
    assert rep.status == "ok"
    oms = rep.filtrations
    for i, omj in enumerate(oms, start=1):
        # Sofer consistency: the i-th iterate lives in weight k + i(p+1)
        assert omj % (p - 1) == (k + i * (p + 1)) % (p - 1)
        assert omj % p != (p + 3) // 2 % p              # no (p+3)/2 class
    # no step of exactly +2, including the wrap-around
    for j in range(p - 1):
        cur = oms[j]
        nxt = oms[j + 1] if j + 1 < p - 1 else oms[0]
        assert nxt != cur + 2
    assert len(rep.high_points) in (1, 2)
    assert sum(rep.falls.values()) == p + 1
    # single low point iff some filtration is (p+5)/2 mod p, and it is the low point
    specials = [i + 1 for i, omj in enumerate(oms) if omj % p == (p + 5) // 2 % p]
    if len(rep.low_points) == 1:
        assert specials == rep.low_points
    else:
        assert not specials
    # congruence behaviour per Legendre class
    nonres = next(b for b in range(2, p) if legendre(b, p) == -1)
    for b in (1, nonres):
        verdict = jac_congruence(phi, b)
        if verdict.holds:
            lows = rep.low_points
            assert len(lows) == 2
            for i in lows:
                assert oms[i - 1] % p == 2 % p
        if k >= 4 and p > k:
            # non-existence hypotheses hold: the verdict must refute
            assert not verdict.holds
            clean, wit = jac_direct_scan(phi, p, b)
            assert not clean and wit is not None


def test_criterion_10_round_trips(ctx5):
    rng = random.Random(99)
    # 1. weak decomposition round trip on 100 random span elements
    prec = 9
    done = 0
    for p in (5, 7):
        ring = ring_from_tag(f"fp:{p}")
        gens = weak_generators(prec, ring)
        while done < (50 if p == 5 else 100):
            k = rng.choice([4, 6, 8, 10])
            m = rng.choice([1, 2])
            fs = []
            for j in range(m + 1):
                basis = mk_basis(k + 2 * j, prec, ring)
                coeffs = [rng.randrange(p) for _ in basis]
                fs.append(ring.canonical(np.array(coeffs, dtype=np.int64) @ basis))
            phi = reconstruct_weak(fs, k, gens)
            assert phi.weight == k
            back = weak_decompose(phi)
            assert [g.tolist() for g in back] == [f.tolist() for f in fs]
            done += 1
    # 2. slice-of-lift identity at m = 1 for all four index-1 generators
    from siegelcong.jacobi import index1_columns
    from siegelcong.siegel import maass_lift
    for k, builder in ((4, jacobi_eisenstein), (6, jacobi_eisenstein),
                       (10, jacobi_cusp), (12, jacobi_cusp)):
        ring = ring_from_tag("int")
        phi = builder(k, 16, ring)
        got = fourier_jacobi(maass_lift(ring, k, index1_columns(k, 16, ring), 4), 1)
        for n in range(5):
            for r in range(-got.rb(n), got.rb(n) + 1):
                assert got.c(n, r) == phi.c(n, r)
    # 3. theta/heat slice compatibility for every m <= N on all generators
    for name in ("E4", "E6", "chi10", "chi12"):
        F = ctx5.generator(name)
        dF = theta_operator(F, 1)
        for m in range(F.prec + 1):
            lhs = fourier_jacobi(dF, m)
            rhs = heat(fourier_jacobi(F, m))
            assert np.array_equal(lhs.coeffs, rhs.coeffs)
    print("\n[criterion 10] PASS: 100 decomposition round trips, lift/slice identity, "
          "theta/heat slice compatibility on the full box")
