"""Exact truncated expansions of Jacobi and degree-2 Siegel modular forms,
with decision procedures for Ramanujan-type congruences mod p >= 5.

Layering: the package loads errors, ring, qexp and expr.  `jacobi`,
`siegel`, `cache` and `linalg` are lazy modules (importlib.util.LazyLoader)
whose code runs on first attribute access.  The paper's two halves load
disjoint layers: a heat cycle runs `jacobi` and never `siegel` or `cache`,
and the Siegel commands (check, scan, table, sieve, search, gens) run
`siegel` and `cache` and never `jacobi`, because what both halves read, the
index-1 columns and criterion_weight, lives in qexp.  Of the CLI's commands
only `search` runs `linalg`, for its kernels mod p.  So a process compiles
and runs only the layers its command uses.  Callers read a lazy module's
names at call time (`siegel.sturm_zero(...)`, `linalg.kernel_basis(...)`),
and the package's exports from them resolve on first use (__getattr__).
The module objects exist once `import siegelcong.cli` returns, because a
tool that wraps functions by identity in the modules loaded then
(perfbench/spans.py) must wrap the functions the CLI calls.
"""

import importlib.util
import sys

from .errors import (ArithmeticDomainError, CacheIOError, DecompositionError,
                     InvalidArgumentError, PrecisionError, RingMismatchError,
                     SiegelCongError)
from .ring import (FpRing, IntRing, RatRing, is_prime, legendre, reduce_rational,
                   ring_from_tag)
from .qexp import bernoulli, eta_pow6, index1_columns, mk_basis, mk_dim
from .expr import Expr, evaluate, parse

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


jacobi, siegel, cache, linalg = _lazy("jacobi"), _lazy("siegel"), _lazy("cache"), _lazy("linalg")
_LAZY_NAMES = {
    **dict.fromkeys("""HeatCycleReport JacobiFormSeries filtration heat heat_cycle
        heat_cycle_required_prec holo_basis jac_mul jac_zero_test jacobi_cusp
        jacobi_eisenstein qseries_times_jacobi weak_decompose weak_generators""".split(), jacobi),
    **dict.fromkeys("""CongruenceCertificate GeneratorContext SiegelFormSeries congruence_scan
        igusa_generator igusa_generators maass_lift search_congruences siegel_congruence
        siegel_mul sieve sturm_zero weight_monomials""".split(), siegel),
}


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(_LAZY_NAMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
