"""CLI outputs and Jacobi expansions compared byte for byte with recorded golden files.

The files under tests/data/golden cover every coefficient dtype: fp:7 runs
on int64 vectors, while int, rat and fp:2097169 run on object vectors.  A
golden file changes only when an output is meant to change.  The golden
generator cache files are of cache format 2, read by tests/cache_v2_oracle.py:
the files the cache writes must load to their coefficients and weights.
Regenerate the Jacobi files with `python tests/test_golden.py` from the
repository root, with src on PYTHONPATH.
"""

import json
from pathlib import Path

import pytest

from cache_v2_oracle import read_v2
from siegel_checks import fourier_jacobi
from siegelcong.cache import _FORMAT, DiskCache
from siegelcong.cli import main
from siegelcong.jacobi import jacobi_eisenstein, weak_generators
from siegelcong.ring import ring_from_tag
from siegelcong.siegel import igusa_generators

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
    # exact products lifted to integers and joined by CRT: box 30 over Z, box 8 over Q
    (["check", "E4^2*chi10 + 7*E6*chi12", "--p", "17", "--b", "3", "--ring", "int"],
     "check_e4sq_chi10_7e6chi12_p17_b3_int.json"),
    (["check", "E4^2*chi10 + 7*E6*chi12", "--p", "7", "--b", "1", "--ring", "rat"],
     "check_e4sq_chi10_7e6chi12_p7_b1_rat.json"),
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
    # longer filtration walks: 22 iterates at index 1, and index 2 at p = 13
    (["heat-cycle", "--weight", "12", "--index", "1", "--p", "23", "--form", "phi12_1"],
     "heat_cycle_w12_m1_p23.json"),
    (["heat-cycle", "--weight", "14", "--index", "2", "--p", "13", "--form", "E4_1*phi10_1"],
     "heat_cycle_w14_m2_p13.json"),
    (["heat-cycle", "--weight", "14", "--index", "2", "--p", "23", "--form", "E4_1*phi10_1"],
     "heat_cycle_w14_m2_p23.json"),
    # the 42-iterate walk at index 2, and a walk at index 3
    (["heat-cycle", "--weight", "14", "--index", "2", "--p", "43", "--form", "E4_1*phi10_1"],
     "heat_cycle_w14_m2_p43.json"),
    (["heat-cycle", "--weight", "22", "--index", "3", "--p", "13", "--form",
      "E4_1*E6_1*phi12_1"], "heat_cycle_w22_m3_p13.json"),
])
def test_heat_cycle_stdout(capsys, tmp_path, argv, name):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def _cold_runs(tmp_path, argv):
    """The cache directories of two cold runs of the CLI argv, after checking
    that they hold the same files, byte for byte."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(argv + ["--cache-dir", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    return dirs[0]


def _assert_decodes_to_golden(got, want):
    """got holds one file for each format-2 golden file in want, named by the
    current format, that loads to the golden file's coefficients and weight."""
    goldens = sorted(want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == \
        sorted(p.name.replace(".v2.json.gz", f".v{_FORMAT}.npy") for p in goldens)
    for path in goldens:
        name, form = read_v2(path)
        loaded = DiskCache(got).load(name, form.ring, form.prec)
        assert loaded == form and loaded.weight == form.weight, path.name


# box 3 over every ring; the exact rings again at q-precision 100 and 36
@pytest.mark.parametrize("tag,prec", [pytest.param(tag, 3, id=tag) for tag in RINGS]
                         + [pytest.param("int", 10, id="int-prec10"),
                            pytest.param("rat", 6, id="rat-prec6")])
def test_gens_cache_files(capsys, tmp_path, tag, prec):
    got = _cold_runs(tmp_path, ["gens", "--ring", tag, "--prec", str(prec)])
    want = GOLDEN / f"gens_prec{prec}_{tag.replace(':', '_')}"
    assert len(list(want.iterdir())) == 4
    _assert_decodes_to_golden(got, want)


def test_check_writes_only_the_generator_it_reads(capsys, tmp_path):
    """Generators are built on first use: chi12 alone, with the coefficients
    of the file the four-generator build wrote."""
    got = _cold_runs(tmp_path, ["check", "chi12", "--p", "5", "--b", "1"])
    assert [p.name for p in got.iterdir()] == [f"chi12__fp_5__N5.v{_FORMAT}.npy"]
    _assert_decodes_to_golden(got, GOLDEN / "check_chi12_p5_b1_cache")


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
