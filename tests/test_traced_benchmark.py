"""The traced benchmark still wraps the entry points it names.

perfbench/spans.py replaces functions by module and name, and its hooks read
some of their parameters by name (prec, k, m, prec, p, F, G, mat), so a
rename breaks `perfbench/run.py --trace 1`.  This runs spans.py on small
commands on each side of the engine, one of them with an elliptic factor,
and on a small search, whose kernels mod p are read from the lazy `linalg`
module, and compares it with the plain CLI.  No command calls jacobi.holo_basis or
linalg.membership, so the parameter names their hooks read are checked
directly.  No command builds a level-1 basis (qexp.mk_basis) either: the
heat cycle's filtrations are valuations, which read no basis.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siegelcong import jacobi, linalg

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,layer", [
    (["check", "E4*chi12", "--p", "5", "--b", "1"], "siegel.siegel_mul"),
    (["heat-cycle", "--weight", "10", "--index", "1", "--p", "5", "--form", "phi10_1"],
     "jacobi.filtration"),
    (["check", "chi12", "--p", "5", "--b", "1"], "siegel.maass_lift"),
    (["heat-cycle", "--weight", "14", "--index", "1", "--p", "5", "--form", "E4*phi10_1"],
     "jacobi.qseries_times_jacobi"),
    (["search", "--max-weight", "12", "--max-prime", "7", "--quiet"], "linalg.kernel_basis"),
])
def test_traced_run_matches_the_cli(tmp_path, argv, layer):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*cmd, cache):
        return subprocess.run([sys.executable, *cmd, *argv, "--cache-dir", str(tmp_path / cache)],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)

    plain = run("-m", "siegelcong.cli", cache="plain")
    spans = tmp_path / "spans.json"
    traced = run(str(ROOT / "perfbench" / "spans.py"), str(spans), "--", cache="traced")
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    times = json.loads(spans.read_text())["times"]
    assert times[layer]["calls"] > 0
    if argv[0] == "heat-cycle":
        assert times["jacobi.filtration"]["calls"] > 0 and "qexp.mk_basis" not in times


def test_hooked_parameters_keep_their_names():
    assert list(inspect.signature(jacobi.holo_basis).parameters) == ["k", "m", "prec", "p"]
    assert list(inspect.signature(linalg.membership).parameters) == ["v", "basis_rows", "p"]
