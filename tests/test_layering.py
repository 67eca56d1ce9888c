"""The package's layers and public names.

`jacobi`, `siegel`, `cache` and `linalg` are lazy modules (see the
siegelcong docstring), present in sys.modules but executed on first use: a
heat cycle runs only the Jacobi layer, a Siegel command never runs it, and
only `search` runs `linalg`.  Every name the package exports (EXPORTS)
resolves to its submodule's object, the lazy modules' names included.
"""

import importlib
import os
import subprocess
import sys

import pytest

import siegelcong

# every name `siegelcong` exports, by the submodule it is read from; index1_columns
# is defined in qexp, and the check holds jacobi's name for it to the same object
EXPORTS = {
    "errors": ["ArithmeticDomainError", "CacheIOError", "DecompositionError",
               "InvalidArgumentError", "PrecisionError", "RingMismatchError", "SiegelCongError"],
    "ring": ["FpRing", "IntRing", "RatRing", "is_prime", "legendre", "reduce_rational",
             "ring_from_tag"],
    "qexp": ["bernoulli", "eta_pow6", "mk_basis", "mk_dim"],
    "jacobi": ["HeatCycleReport", "JacobiFormSeries", "filtration", "heat", "heat_cycle",
               "heat_cycle_required_prec", "holo_basis", "index1_columns", "jac_mul",
               "jac_zero_test", "jacobi_cusp", "jacobi_eisenstein", "qseries_times_jacobi",
               "weak_decompose", "weak_generators"],
    "siegel": ["CongruenceCertificate", "GeneratorContext", "SiegelFormSeries",
               "congruence_scan", "igusa_generator", "igusa_generators",
               "maass_lift", "search_congruences", "siegel_congruence", "siegel_mul", "sieve",
               "sturm_zero", "weight_monomials"],
    "expr": ["Expr", "evaluate", "parse"],
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_exported_names_resolve_to_their_submodule_objects(module, name):
    namespace = {}
    exec(f"from siegelcong import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"siegelcong.{module}"), name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        siegelcong.no_such_name
    assert not hasattr(siegelcong, "box_index")       # a siegel name the package never exported
    with pytest.raises(ImportError):
        exec("from siegelcong import no_such_name", {})


def test_a_heat_cycle_runs_no_siegel_code(tmp_path):
    """In a fresh interpreter, `import siegelcong.cli` registers the Siegel
    layer's module objects without running their code, a heat cycle leaves
    them unrun, and `check` runs both.  A module's own __dict__ is read with
    object.__getattribute__, which does not trigger a lazy load."""
    code = f"""
import contextlib, io, sys
import siegelcong.cli as cli

def ran():
    return [name in object.__getattribute__(sys.modules["siegelcong." + mod], "__dict__")
            for mod, name in (("siegel", "box_index"), ("cache", "DiskCache"))]

print(ran())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["heat-cycle", "--weight", "10", "--index", "1", "--p", "5",
                     "--form", "phi10_1", "--cache-dir", {str(tmp_path)!r}])
print(code, ran())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", "chi12", "--p", "5", "--b", "1", "--cache-dir", {str(tmp_path)!r}])
print(code, ran())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[False, False]", "0 [False, False]", "0 [True, True]"]


def test_siegel_commands_run_no_jacobi_code(tmp_path):
    """The mirror of the test above: in a fresh interpreter, `check`, `table`
    and a small `search` leave the Jacobi layer's module unrun, since the
    Siegel layer reads the index-1 columns from qexp, and a heat cycle then
    runs it."""
    code = f"""
import contextlib, io, sys
import siegelcong.cli as cli

def ran():
    return "heat_cycle" in object.__getattribute__(sys.modules["siegelcong.jacobi"], "__dict__")

cache = ["--cache-dir", {str(tmp_path)!r}]
codes = []
for argv in (["check", "chi12", "--p", "5", "--b", "1"], ["table", "--max-prime", "5"],
             ["search", "--max-weight", "12", "--max-prime", "7", "--quiet"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv + cache))
print(codes, ran())
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["heat-cycle", "--weight", "10", "--index", "1", "--p", "5",
                     "--form", "phi10_1"] + cache)
print(code, ran())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[0, 0, 0] False", "0 True"]


def test_each_command_loads_only_what_it_uses(tmp_path):
    """In a fresh interpreter: `check`, `table` and a heat cycle leave
    `linalg` unrun and `search` runs it; no command imports `dataclasses`;
    and `csv` is imported by the first `--out csv` run, not before."""
    code = f"""
import contextlib, io, sys
import siegelcong.cli as cli

def state():
    linalg = object.__getattribute__(sys.modules["siegelcong.linalg"], "__dict__")
    return ["kernel_basis" in linalg, "dataclasses" in sys.modules, "csv" in sys.modules]

cache = ["--cache-dir", {str(tmp_path)!r}]
for argv in (["check", "chi12", "--p", "5", "--b", "1"], ["table", "--max-prime", "5"],
             ["heat-cycle", "--weight", "10", "--index", "1", "--p", "5", "--form", "phi10_1"],
             ["search", "--max-weight", "12", "--max-prime", "7", "--quiet"],
             ["scan", "chi12", "--p", "5", "--out", "csv"]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + cache)
    print(argv[0], code, state())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["check 0 [False, False, False]", "table 0 [False, False, False]",
                                "heat-cycle 0 [False, False, False]",
                                "search 0 [True, False, False]", "scan 0 [True, False, True]"]
