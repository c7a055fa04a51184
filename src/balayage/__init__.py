"""Balayage of charges and subharmonic potentials onto closed systems of rays
in the complex plane: exact harmonic-measure kernels, growth-scale
diagnostics, convergence-condition checkers, boundary-identity verification,
and regular-growth analysis of zero distributions."""

from .charges import (AtomicCharge, BalayageCharge, CheckResult,
                      LipschitzReport, RayTestFunction,
                      balayage_halfplane, balayage_system, blaschke_halfplane,
                      blaschke_outside_system, check_fubini,
                      check_ges_bound, check_ges_bound_system,
                      check_lindelof_preservation, check_lipschitz,
                      check_thcup_bound, counting_around, distribution_on_R,
                      divergence_verdict, fit_slope_vs_log, lindelof_sum,
                      variation_radial)
from .errors import (AtomOnCircle, BadGauge, BadInput, BalayageError,
                     CoincidentPoints, EndpointSingularity, HypothesisViolated,
                     NotInUpperHalfPlane, NumericFailure, PowerMapUnderflow,
                     QuadratureFailure, SupportOffAxis, SupportTouchesInterval,
                     TailTooLarge, ZeroCenter, ZeroPoint)
from .growth_scales import (ConvergenceReport, GrowthReport, ZeroReport,
                            convergence_integral_inf, convergence_integral_zero,
                            growth_report, order_at_infinity, type_at)
from .harmonic_measure import (BoundarySegment, BoundEntry, BoundReport,
                               Interval, hm_bounds, hm_interval,
                               hm_interval_quad, hm_sector_disk,
                               hm_sector_disk_bounds, hm_sector_segment,
                               hm_system, hm_system_quad, poisson_kernel)
from .numerics import ANGULAR_TOL
from .ray_geometry import (REAL_AXIS, RaySystem, Sector, complementary_sectors,
                           normalize_angle, reduce_to_halfplane, relative_angle)
from .regular_growth import (CRGReport, RayLimitRecord, angular_density,
                             crg_on_rays, exgr2_functionals,
                             indicator_estimate, pv_kernel_integral)
from .stepfn import StepFunction
from .subharmonic import (CanonicalPotential, ClassAResult, GenusSchedule,
                          carleman_check, class_A_functionals,
                          edge_radii, kernel_Kq, kernel_Kq_radial_derivative,
                          potential_eval, subharmonic_balayage_eval,
                          sweep_potential_eval)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
