"""Exact truncated expansions of Jacobi and degree-2 Siegel modular forms,
with decision procedures for Ramanujan-type congruences mod p >= 5."""

from .errors import (ArithmeticDomainError, CacheIOError, DecompositionError,
                     InvalidArgumentError, NotInRingError, PrecisionError,
                     RingMismatchError, SiegelCongError)
from .ring import (FpRing, IntRing, RatRing, is_prime, legendre, reduce_rational,
                   ring_from_tag)
from .qexp import (QSeries, bernoulli, delta_q, eisenstein_q,
                   elliptic_sturm_zero, eta_pow6, mk_basis, mk_dim)
from .jacobi import (HeatCycleReport, JacobiCongruence, JacobiFormSeries,
                     filtration, heat, heat_cycle, heat_cycle_required_prec,
                     holo_basis, jac_congruence, jac_direct_scan, jac_mul,
                     jac_zero_test, jacobi_cusp, jacobi_eisenstein,
                     nonexistence_applies, qseries_times_jacobi,
                     reconstruct_weak, weak_decompose, weak_generators)
from .siegel import (CongruenceCertificate, GeneratorContext, MatrixIndexT,
                     SiegelFormSeries, congruence_scan, decompose_mod_p,
                     dyadic_trace, enumerate_reduced, fourier_jacobi,
                     igusa_generators, maass_lift, reduce_T,
                     search_congruences, siegel_congruence, siegel_mul,
                     sieve, sturm_zero, theta_operator,
                     verify_combination, weight_monomials)
from .expr import Expr, evaluate, parse

__version__ = "0.1.0"
