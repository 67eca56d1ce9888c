"""Exact truncated expansions of Jacobi and degree-2 Siegel modular forms,
with decision procedures for Ramanujan-type congruences mod p >= 5."""

from .errors import (ArithmeticDomainError, CacheIOError, DecompositionError,
                     InvalidArgumentError, NotInRingError, PrecisionError,
                     RingMismatchError, SiegelCongError)
from .ring import (FpRing, IntRing, RatRing, is_prime, legendre, reduce_rational,
                   ring_from_tag)
from .qexp import bernoulli, delta_q, eisenstein_q, eta_pow6, mk_basis, mk_dim
from .jacobi import (HeatCycleReport, JacobiCongruence, JacobiFormSeries,
                     filtration, heat, heat_cycle, heat_cycle_required_prec,
                     holo_basis, jac_congruence, jac_direct_scan, jac_mul,
                     index1_columns, jac_zero_test, jacobi_cusp, jacobi_eisenstein,
                     nonexistence_applies, qseries_times_jacobi,
                     weak_decompose, weak_generators)
from .siegel import (CongruenceCertificate, GeneratorContext, SiegelFormSeries,
                     congruence_scan, fourier_jacobi, igusa_generator, igusa_generators,
                     maass_lift, search_congruences, siegel_congruence, siegel_mul,
                     sieve, sturm_zero, weight_monomials)
from .expr import Expr, evaluate, parse

__version__ = "0.1.0"
