"""The package's layers and public names.

A Jacobi-only command loads only the Jacobi layer: `siegel` and `cache`
are lazy modules (see the siegelcong docstring), present in sys.modules
but executed on first use.  Every name the package exports (EXPORTS)
resolves to its submodule's object, the Siegel names included.
"""

import importlib
import os
import subprocess
import sys

import pytest

import siegelcong

# every name `siegelcong` exports, by defining module
EXPORTS = {
    "errors": ["ArithmeticDomainError", "CacheIOError", "DecompositionError",
               "InvalidArgumentError", "PrecisionError", "RingMismatchError", "SiegelCongError"],
    "ring": ["FpRing", "IntRing", "RatRing", "is_prime", "legendre", "reduce_rational",
             "ring_from_tag"],
    "qexp": ["bernoulli", "eta_pow6", "mk_basis", "mk_dim"],
    "jacobi": ["HeatCycleReport", "JacobiCongruence", "JacobiFormSeries", "filtration", "heat",
               "heat_cycle", "heat_cycle_required_prec", "holo_basis", "index1_columns",
               "jac_congruence", "jac_direct_scan", "jac_mul", "jac_zero_test", "jacobi_cusp",
               "jacobi_eisenstein", "nonexistence_applies", "qseries_times_jacobi",
               "weak_decompose", "weak_generators"],
    "siegel": ["CongruenceCertificate", "GeneratorContext", "SiegelFormSeries",
               "congruence_scan", "fourier_jacobi", "igusa_generator", "igusa_generators",
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
