"""CLI outputs compared byte for byte with recorded golden files.

The files under tests/data/golden cover every coefficient dtype: fp:7 runs
on int64 vectors, while int, rat and fp:2097169 run on object vectors.  A
golden file changes only when an output is meant to change.
"""

from pathlib import Path

import pytest

from siegelcong.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("argv,name", [
    (["sieve", "chi10", "--p", "7", "--s", "-1", "--ring", "fp:7"],
     "sieve_chi10_p7_minus1_fp7.json"),
    (["sieve", "chi10", "--p", "5", "--s", "+1", "--ring", "int"],
     "sieve_chi10_p5_plus1_int.json"),
])
def test_sieve_stdout(capsys, tmp_path, argv, name):
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("tag", ["int", "rat", "fp:7", "fp:2097169"])
def test_gens_cache_files(capsys, tmp_path, tag):
    assert main(["gens", "--ring", tag, "--prec", "3", "--cache-dir", str(tmp_path)]) == 0
    want = GOLDEN / f"gens_prec3_{tag.replace(':', '_')}"
    got = sorted(p.name for p in tmp_path.iterdir())
    assert got == sorted(p.name for p in want.iterdir()) and len(got) == 4
    for name in got:
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
