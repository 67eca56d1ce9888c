import json
import os

import pytest

from siegelcong import siegel
from siegelcong.cli import main

pytestmark = pytest.mark.usefixtures("tmp_cache")


@pytest.fixture()
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("CONGRUENCE_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "holds" and doc["witness"] is None
    assert doc["G_weight"] == 30 and doc["sturm_bound"] == 10


def test_check_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "fails" and doc["witness"] is not None


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "E4*chi12 - E6*chi10", "--p", "7",
                       "--skip-zero", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,verdict,witness"
    verdicts = {int(l.split(",")[0]): l.split(",")[1] for l in lines[1:]}
    assert sorted(b for b, v in verdicts.items() if v == "holds") == [3, 5, 6]


def test_table_small(capsys):
    code, out, err = run(capsys, "table", "--max-prime", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] and len(doc["rows"]) == 4
    assert "MATCH" in err


def test_table_mismatch_exit_code(capsys, monkeypatch):
    from siegelcong import cli
    doc = cli._expected_table()
    for row in doc["rows"]:
        if row["form"] == "chi12":
            for c in row["congruences"]:
                if c["p"] == 5:
                    c["holds"] = [1]
    monkeypatch.setattr(cli, "_expected_table", lambda: doc)
    code, out, err = run(capsys, "table", "--max-prime", "5")
    assert code == cli.TABLE_MISMATCH == 4
    doc = json.loads(out)
    assert doc["all_match"] is False
    rows = doc["rows"]
    assert [r["status"] for r in rows].count("MISMATCH") == 1
    assert rows[0]["form"] == "chi12" and rows[0]["status"] == "MISMATCH"
    assert "MISMATCH" in err


def test_sieve_verify_against(capsys):
    code, out, _ = run(capsys, "sieve", "chi10^2", "--p", "5", "--s", "0",
                       "--verify-against",
                       "3*E4^5*chi12^2 + 2*E4^4*E6*chi10*chi12")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True and doc["weight"] == 44


def test_sieve_verify_against_reads_the_odd_bound(capsys, monkeypatch):
    windows = []
    real = siegel.class_values
    monkeypatch.setattr(siegel, "class_values", lambda F, w: windows.append(w) or real(F, w))
    code, out, _ = run(capsys, "sieve", "chi10", "--p", "5", "--s", "0",
                       "--verify-against", "chi10*E4^6")
    assert code == 0 and json.loads(out)["bound"] == 11
    assert windows == [11]          # one read of the difference of the two forms


def test_sieve_verify_against_needs_the_box_of_its_bound(capsys):
    code, _, err = run(capsys, "sieve", "chi10", "--p", "5", "--s", "0",
                       "--verify-against", "chi10*E4^6", "--prec", "2")
    assert code == 2 and "insufficient precision" in err


@pytest.mark.parametrize("argv", [
    ["check", "E4 - E4", "--p", "5", "--b", "1"],
    ["check", "5*E4*chi12", "--p", "5", "--b", "1"],
    ["scan", "5*E4*chi12", "--p", "5"],
    ["scan", "E4 - E4", "--p", "7", "--skip-zero"],
])
def test_zero_form_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "is zero mod" in err


def test_ring_of_another_prime_is_refused(capsys):
    code, out, err = run(capsys, "check", "7*chi12", "--p", "5", "--b", "1", "--ring", "fp:7")
    assert code == 1 and out == "" and "does not match p = 5" in err


def test_form_zero_mod_another_prime_gets_a_certificate(capsys):
    code, out, _ = run(capsys, "check", "5*E4*chi12", "--p", "7", "--b", "1")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "fails" and doc["witness"] == [1, 0, 1]


def test_no_table_row_is_zero_mod_its_primes():
    from siegelcong.cli import TABLE_ROWS
    from siegelcong.expr import evaluate, parse
    from siegelcong.ring import ring_from_tag
    for text, primes in TABLE_ROWS:
        e = parse(text)
        for p in primes:
            ctx = siegel.GeneratorContext(ring_from_tag(f"fp:{p}"), e.weight // 3 // 2)
            assert not siegel.sturm_zero(evaluate(e, ctx), e.weight).is_zero, (text, p)


def test_sieve_dump(capsys):
    code, out, _ = run(capsys, "sieve", "chi12", "--p", "5", "--s", "-1", "--prec", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "siegel" and doc["sieve_class"] == -1


def test_heat_cycle_command(capsys):
    code, out, _ = run(capsys, "heat-cycle", "--weight", "12", "--index", "1",
                       "--p", "5", "--form", "phi12_1")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok" and doc["high_points"] == [1, 3]
    assert doc["filtrations"] == [18, 12, 18, 12]


def test_heat_cycle_product_form(capsys):
    code, out, _ = run(capsys, "heat-cycle", "--weight", "16", "--index", "1",
                       "--p", "5", "--form", "Delta*E4_1")
    assert code == 0
    assert json.loads(out)["status"] in ("ok", "degenerate")


def test_heat_cycle_flag_mismatch(capsys):
    code, _, err = run(capsys, "heat-cycle", "--weight", "10", "--index", "1",
                       "--p", "5", "--form", "phi12_1")
    assert code == 1 and "weight" in err


def test_gens_summary(capsys, tmp_cache):
    code, out, _ = run(capsys, "gens", "--prec", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"E4", "E6", "chi10", "chi12"}
    assert doc["E4"]["weight"] == 4
    assert any(f.name.startswith("E4__int__N2") for f in tmp_cache.iterdir())


def test_search_small(capsys):
    code, out, _ = run(capsys, "search", "--max-weight", "12", "--max-prime", "7",
                       "--quiet")
    assert code == 0
    doc = json.loads(out)
    hits = doc["congruences"]
    assert len(hits) == 1
    assert hits[0]["weight"] == 12 and hits[0]["p"] == 5
    assert hits[0]["legendre_class"] == 1 and hits[0]["forms"] == ["chi12"]
    assert hits[0]["holds_b"] == [1, 4]


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "check", "E4 + E6", "--p", "5", "--b", "1")
    assert code == 1 and "weight mismatch" in err
    code, _, err = run(capsys, "check", "E4chi12", "--p", "5", "--b", "1")
    assert code == 1
    code, _, err = run(capsys, "check", "chi12", "--p", "6", "--b", "1")
    assert code == 1


def test_exit_code_usage_error(capsys):
    code, _, err = run(capsys, "check", "chi12", "--p", "5")
    assert code == 1 and "usage" in err.lower()


def test_exit_code_precision(capsys):
    code, _, err = run(capsys, "check", "chi12", "--p", "5", "--b", "1", "--prec", "1")
    assert code == 2 and "precision" in err.lower()


def test_exit_code_cache_io(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, _, err = run(capsys, "check", "chi12", "--p", "5", "--b", "1",
                       "--cache-dir", str(blocker / "sub"))
    assert code == 3 and "cache" in err.lower()


def test_cache_determinism_and_hits(capsys, tmp_path, monkeypatch):
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    code1, out1, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "1",
                         "--cache-dir", str(d1))
    code2, out2, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "1",
                         "--cache-dir", str(d2))
    assert code1 == code2 == 0 and out1 == out2
    files1 = sorted(f.name for f in d1.iterdir())
    assert files1 == sorted(f.name for f in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # warm run reads every generator from the cache and gives the same answer
    def rebuild(*args):
        raise AssertionError("generators rebuilt on a warm cache")
    monkeypatch.setattr(siegel, "igusa_generators", rebuild)
    code3, out3, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "1",
                         "--cache-dir", str(d1))
    assert code3 == 0 and out3 == out1


def test_truncated_cache_file_exit_code(capsys, tmp_path):
    d = tmp_path / "c"
    argv = ("check", "chi12", "--p", "5", "--b", "1", "--cache-dir", str(d))
    assert run(capsys, *argv)[0] == 0
    for f in d.iterdir():
        data = f.read_bytes()
        f.write_bytes(data[:len(data) // 2])
    code, _, err = run(capsys, *argv)
    assert code == 3 and "cache" in err.lower()


def test_import_builds_nothing_heavy():
    """Importing the CLI (setup_s in the benchmark) loads no numpy.fft and
    builds no per-box index arrays."""
    import subprocess
    import sys
    code = ("import sys, siegelcong.cli\n"
            "from siegelcong import siegel\n"
            "print('numpy.fft' in sys.modules, siegel.box_index.cache_info().currsize,"
            " siegel.reduced_classes.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "0", "0"]
