"""Exact truncated expansions of Jacobi and degree-2 Siegel modular forms,
with decision procedures for Ramanujan-type congruences mod p >= 5.

Layering: the package loads the Jacobi layer and expr.  `siegel` and
`cache` are lazy modules (importlib.util.LazyLoader) whose code runs on
first attribute access, so a Jacobi-only command never runs them; callers
read their names at call time (`siegel.sturm_zero(...)`).  Their module
objects exist once `import siegelcong.cli` returns, because a tool that
wraps functions by identity in the modules loaded then (perfbench/spans.py)
must wrap the Siegel functions the CLI calls.
"""

import importlib.util
import sys

from .errors import (ArithmeticDomainError, CacheIOError, DecompositionError,
                     InvalidArgumentError, PrecisionError, RingMismatchError,
                     SiegelCongError)
from .ring import (FpRing, IntRing, RatRing, is_prime, legendre, reduce_rational,
                   ring_from_tag)
from .qexp import bernoulli, eta_pow6, mk_basis, mk_dim
from .jacobi import (HeatCycleReport, JacobiCongruence, JacobiFormSeries,
                     filtration, heat, heat_cycle, heat_cycle_required_prec,
                     holo_basis, jac_congruence, jac_direct_scan, jac_mul,
                     index1_columns, jac_zero_test, jacobi_cusp, jacobi_eisenstein,
                     nonexistence_applies, qseries_times_jacobi,
                     weak_decompose, weak_generators)
from .expr import Expr, evaluate, parse

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


siegel, cache = _lazy("siegel"), _lazy("cache")
_SIEGEL_NAMES = set("""CongruenceCertificate GeneratorContext SiegelFormSeries congruence_scan
    fourier_jacobi igusa_generator igusa_generators maass_lift search_congruences
    siegel_congruence siegel_mul sieve sturm_zero weight_monomials""".split())


def __getattr__(name):
    if name in _SIEGEL_NAMES:
        return getattr(siegel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
