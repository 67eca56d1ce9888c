"""CLI outputs and Jacobi expansions compared byte for byte with recorded golden files.

The files under tests/data/golden cover every coefficient dtype: fp:7 runs
on int64 vectors, while int, rat and fp:2097169 run on object vectors.  A
golden file changes only when an output is meant to change.  Regenerate the
Jacobi files with `python tests/test_golden.py` from the repository root,
with src on PYTHONPATH.
"""

import json
from pathlib import Path

import pytest

from siegelcong.cli import main
from siegelcong.jacobi import jacobi_eisenstein, weak_generators
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import fourier_jacobi, igusa_generators

GOLDEN = Path(__file__).parent / "data" / "golden"
RINGS = ["int", "rat", "fp:7", "fp:2097169"]


@pytest.mark.parametrize("argv,name", [
    (["sieve", "chi10", "--p", "7", "--s", "-1", "--ring", "fp:7"],
     "sieve_chi10_p7_minus1_fp7.json"),
    (["sieve", "chi10", "--p", "5", "--s", "+1", "--ring", "int"],
     "sieve_chi10_p5_plus1_int.json"),
    # certificates and a sieve check, over int64 (fp) and object (int, rat) vectors
    (["sieve", "chi10", "--p", "5", "--s", "0", "--verify-against", "chi10*E4^6",
      "--ring", "rat"], "sieve_chi10_p5_s0_verify_rat.json"),
    (["scan", "E4*chi12 - E6*chi10", "--p", "7"], "scan_e4chi12_minus_e6chi10_p7.json"),
    (["check", "E4*chi12", "--p", "5", "--b", "2", "--ring", "rat"],
     "check_e4chi12_p5_b2_rat.json"),
    (["check", "(E4^3 - E6^2)*chi10", "--p", "5", "--b", "1", "--ring", "int"],
     "check_delta_chi10_p5_b1_int.json"),
])
def test_sieve_stdout(capsys, tmp_path, argv, name):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


# jac_mul, qseries_times_jacobi, and a product of two cusp generators
@pytest.mark.parametrize("argv,name", [
    (["heat-cycle", "--weight", "14", "--index", "2", "--p", "11", "--form", "E4_1*phi10_1"],
     "heat_cycle_w14_m2_p11.json"),
    (["heat-cycle", "--weight", "16", "--index", "1", "--p", "13", "--form", "E4*phi12_1"],
     "heat_cycle_w16_m1_p13.json"),
    (["heat-cycle", "--weight", "22", "--index", "2", "--p", "7", "--form", "phi10_1*phi12_1"],
     "heat_cycle_w22_m2_p7.json"),
])
def test_heat_cycle_stdout(capsys, tmp_path, argv, name):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("tag", RINGS)
def test_gens_cache_files(capsys, tmp_path, tag):
    assert main(["gens", "--ring", tag, "--prec", "3", "--cache-dir", str(tmp_path)]) == 0
    want = GOLDEN / f"gens_prec3_{tag.replace(':', '_')}"
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in want.iterdir()) and len(got) == 4
    for name in got:
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name


def jacobi_text(tag):
    """to_json() of E_{4,1}, phi_{-2,1} and the index-2 Fourier-Jacobi slice
    of chi10 over the ring tag, as one JSON text."""
    ring = ring_from_tag(tag)
    docs = {"E4_1": jacobi_eisenstein(4, 12, ring).to_json(),
            "phi_m2_1": weak_generators(12, ring)[0].to_json(),
            "chi10_fj2": fourier_jacobi(igusa_generators(4, ring)["chi10"], 2).to_json()}
    return json.dumps(docs) + "\n"


def _jacobi_file(tag):
    return GOLDEN / f"jacobi_{tag.replace(':', '_')}.json"


@pytest.mark.parametrize("tag", RINGS)
def test_jacobi_expansions(tag):
    assert jacobi_text(tag) == _jacobi_file(tag).read_text()


if __name__ == "__main__":
    for t in RINGS:
        _jacobi_file(t).write_text(jacobi_text(t))
