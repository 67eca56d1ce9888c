import gc
import json
import os
import subprocess
import sys
import time

import pytest

from siegelcong import cli, siegel
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


@pytest.mark.parametrize("argv", [
    ["gens", "--prec", "2"],
    ["check", "chi12", "--p", "5", "--b", "1"],
    ["table", "--max-prime", "5"],
    ["sieve", "chi12", "--p", "5", "--s", "+1"],
    ["heat-cycle", "--weight", "10", "--index", "1", "--p", "5", "--form", "phi10_1"],
])
def test_out_csv_is_refused_where_there_is_no_csv_form(capsys, argv):
    code, out, err = run(capsys, *argv, "--out", "csv")
    assert code == 1 and out == "" and err.startswith("usage error: ") and "'csv'" in err
    code, out, _ = run(capsys, *argv, "--out", "json")
    assert code == 0 and isinstance(json.loads(out), dict)


@pytest.mark.parametrize("argv", [
    ["gens", "--prec", "2"],
    ["check", "chi12", "--p", "5", "--b", "1"],
    ["scan", "chi12", "--p", "5"],
    ["table", "--max-prime", "5"],
    ["sieve", "chi12", "--p", "5", "--s", "+1"],
])
def test_ring_rat_is_refused(capsys, tmp_cache, argv):
    """Two rings are left, int and fp:<p>: --ring rat exits 1 naming them,
    before anything is printed or cached."""
    code, out, err = run(capsys, *argv, "--ring", "rat")
    assert code == 1 and out == ""
    assert err == "error: unknown ring tag 'rat' (expected int or fp:<p>)\n"
    assert not tmp_cache.exists() or not any(tmp_cache.iterdir())


@pytest.mark.parametrize("flag", [["--ring", "int"], ["--ring", "rat"], ["--prec", "1"]])
def test_search_offers_neither_ring_nor_prec(capsys, flag):
    """search always runs mod p at the boxes its cells need, so --ring and
    --prec are usage errors there rather than flags it would ignore."""
    code, out, err = run(capsys, "search", "--max-weight", "12", "--max-prime", "7", "--quiet",
                         *flag)
    assert code == 1 and out == ""
    assert err == f"usage error: unrecognized arguments: {' '.join(flag)}\n"


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--max-weight", "12", "--max-prime", "7", "--quiet",
                       "--out", "csv")
    assert code == 0 and out.splitlines() == ["weight,p,class,forms", "12,5,1,chi12"]


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


def test_a_huge_form_exponent_is_refused_before_any_work(capsys, monkeypatch):
    """Weight and index are summed from the exponents, never expanded: a
    mismatch is refused by the flag check and a match by the memory estimate."""
    def boom(*args):
        raise AssertionError("built")
    monkeypatch.setattr(cli, "build_named_jacobi", boom)
    start = time.perf_counter()
    code, out, err = run(capsys, "heat-cycle", "--weight", "12", "--index", "1",
                         "--p", "17", "--form", "phi12_1^1000000000000")
    assert code == 1 and out == ""
    assert err == ("error: form 'phi12_1^1000000000000' has weight 12000000000000, "
                   "index 1000000000000; flags said 12, 1\n")
    code, out, err = run(capsys, "heat-cycle", "--weight", "12000000000000",
                         "--index", "1000000000000", "--p", "17",
                         "--form", "phi12_1^1000000000000")
    assert code == 1 and out == "" and err.startswith("error: heat cycle to q^")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("form", [
    pytest.param("phi11_1*E4_1", id="unknown-factor"),
    pytest.param("E4_1^x*phi10_1", id="bad-exponent"),
    pytest.param("E4_1^-1*phi10_1", id="negative-exponent"),
    pytest.param("", id="empty"),
    pytest.param("E4*Delta", id="no-index-1-factor"),
    pytest.param("E4_1 phi10_1", id="adjacency"),
])
def test_heat_cycle_form_errors(capsys, form):
    code, out, err = run(capsys, "heat-cycle", "--weight", "14", "--index", "2",
                         "--p", "5", "--form", form)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_heat_cycle_form_grammar():
    """A factor's '^e' repeats it e times, e = 0 drops it, and spaces around
    '*' do not matter."""
    from siegelcong.cli import build_named_jacobi
    from siegelcong.ring import ring_from_tag
    fp5 = ring_from_tag("fp:5")
    want = build_named_jacobi("E4*E4*E4_1*phi10_1", 6, fp5)
    for form in ("E4^2*E4_1*phi10_1", " E4^2 * E4_1 *phi10_1 ", "E4^2*E6^0*E4_1^1*phi10_1"):
        got = build_named_jacobi(form, 6, fp5)
        assert got == want and (got.weight, got.index) == (22, 2), form


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


@pytest.mark.parametrize("argv", [
    ["gens", "--prec", "-1"],
    ["sieve", "chi10", "--p", "5", "--s", "0", "--prec", "-1"],
    ["check", "chi12", "--p", "13", "--b", "0", "--prec", "-3"],
    ["heat-cycle", "--weight", "12", "--index", "1", "--p", "17", "--form", "phi12_1",
     "--prec", "-2"],
    ["gens", "--prec", "0"],
])
def test_prec_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"usage error: argument --prec: expected an integer >= 1, got {argv[-1]!r}\n"


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
    monkeypatch.setattr(siegel, "igusa_generator", rebuild)
    code3, out3, _ = run(capsys, "check", "chi12", "--p", "5", "--b", "1",
                         "--cache-dir", str(d1))
    assert code3 == 0 and out3 == out1


def test_an_impossible_box_is_refused_with_its_estimate(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("allocated")
    monkeypatch.setattr(siegel, "BoxIndex", boom)
    code, out, err = run(capsys, "scan", "chi12", "--p", "5", "--prec", "100000", "--no-cache")
    assert code == 1 and out == ""
    assert err.startswith("error: box 100000 needs about ") and "GiB of physical memory" in err


def test_a_heat_cycle_that_cannot_fit_is_refused_up_front(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("allocated")
    monkeypatch.setattr(cli, "build_named_jacobi", boom)
    start = time.perf_counter()
    code, out, err = run(capsys, "heat-cycle", "--weight", "12", "--index", "1",
                         "--p", "2097169", "--form", "phi12_1")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: heat cycle to q^366509817883 needs about ")
    assert "GiB of physical memory" in err


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


def test_certificate_products_cover_only_the_slices_the_bound_reads(capsys, monkeypatch):
    """Every product behind `check` and `table` holds the slices n <= B // 3
    of its trace bound B, fewer than the box holds, and the output
    (classes_checked included) is the one square-box products give; `sieve`
    keeps square-box products."""
    from siegelcong.cli import TABLE_ROWS
    from siegelcong.expr import parse
    from siegelcong.qexp import criterion_weight
    made = []
    kernel = siegel._mul_fft
    monkeypatch.setattr(siegel, "_mul_fft",
                        lambda f, g, q, prec: made.append((prec, len(f))) or kernel(f, g, q, prec))
    init = siegel.GeneratorContext.__init__

    def square_box(self, ring, prec, cache=None, bound=None):
        init(self, ring, prec, cache)

    table = [criterion_weight(parse(text).weight, p, 1) // 3
             for text, primes in TABLE_ROWS for p in primes if p <= 17]
    for argv, bounds in [(["check", "E4^2*chi10 + 7*E6*chi12", "--p", "17", "--b", "1"],
                          [criterion_weight(18, 17, 1) // 3]),
                         (["table", "--max-prime", "17"], table)]:
        made.clear()
        code, out, _ = run(capsys, *argv, "--no-cache")
        cuts = {(b // 2, siegel.box_index(b // 2).nstart[b // 3 + 1]) for b in bounds}
        assert made and set(made) <= cuts
        assert all(n < siegel.box_index(prec).size for prec, n in made)
        with monkeypatch.context() as m:
            m.setattr(siegel.GeneratorContext, "__init__", square_box)
            assert run(capsys, *argv, "--no-cache")[:2] == (code, out)
    assert (30, siegel.box_index(30).nstart[21]) in made
    assert json.loads(run(capsys, "check", "E4^2*chi10 + 7*E6*chi12", "--p", "17", "--b", "1",
                          "--no-cache")[1])["classes_checked"] == 899
    made.clear()
    assert run(capsys, "sieve", "E4*chi12", "--p", "5", "--s", "+1", "--no-cache")[0] == 0
    assert made and all(n == siegel.box_index(prec).size for prec, n in made)


def test_the_module_entry_keeps_exit_codes_stdout_and_the_cache(capsys, tmp_path):
    """`python -m siegelcong.cli` (entry(), which freezes the heap after
    main()) exits with main()'s code, writes the whole of its stdout, and
    leaves a successful check's cache file complete, with no temporary."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cases = [(0, ["check", "chi12", "--p", "13", "--b", "0", "--cache-dir", str(tmp_path / "c")]),
             (1, ["check", "chi12", "--b", "0"]),
             (2, ["check", "chi12", "--p", "5", "--b", "1", "--prec", "1"]),
             (3, ["check", "chi12", "--p", "5", "--b", "1", "--cache-dir", str(blocker / "c")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for code, argv in cases:
        done = subprocess.run([sys.executable, "-m", "siegelcong.cli", *argv], env=env,
                              capture_output=True, text=True)
        assert done.returncode == code
        if code:
            assert done.stdout == "" and done.stderr
        else:
            assert done.stdout == run(capsys, *argv[:-2], "--no-cache")[1]
    assert [f.name for f in (tmp_path / "c").iterdir()] == ["chi12__fp_13__N30.v3.npy"]


def test_only_entry_freezes_the_heap(capsys, monkeypatch):
    assert gc.get_freeze_count() == 0                 # after `import siegelcong.cli`
    assert run(capsys, "check", "chi12", "--p", "5", "--b", "1")[0] == 0
    assert gc.get_freeze_count() == 0
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3 and calls == ["freeze", "main", "freeze"]
