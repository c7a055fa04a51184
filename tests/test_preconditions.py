"""Library preconditions reject NaN and out-of-range arguments with BadInput."""

import cmath
import math

import pytest

from balayage import (AtomicCharge, BadInput, BoundarySegment, CanonicalPotential,
                      RaySystem, Sector, StepFunction, angular_density,
                      balayage_halfplane, blaschke_halfplane, blaschke_outside_system,
                      check_ges_bound, check_ges_bound_system, check_lipschitz,
                      crg_on_rays, distribution_on_R, hm_sector_disk_bounds,
                      hm_system, hm_system_quad, variation_radial)
from balayage.growth_scales import convergence_integral_zero, type_at

NAN = math.nan
NU = AtomicCharge([(2j, 1.0), (-1 + 0.5j, 0.5)])
S3 = RaySystem([0.0, 2.0, 4.0])
F = StepFunction.from_events([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])
BAL = balayage_halfplane(NU)
SIXTH, Z_SIXTH = Sector(0.0, math.pi / 3.0), cmath.rect(3.0, 0.5)


def gauge(s):
    return 2.0 * s


CALLS = {
    "blaschke_halfplane r0 nan": lambda: blaschke_halfplane(NU, NAN),
    "blaschke_outside_system r0 nan": lambda: blaschke_outside_system(NU, S3, NAN),
    "check_ges_bound r nan": lambda: check_ges_bound(NU, gauge, NAN),
    "check_ges_bound_system r nan": lambda: check_ges_bound_system(NU, S3, gauge, NAN),
    "check_lipschitz n_grid 0": lambda: check_lipschitz(NU, 1.0, 2.0, n_grid=0),
    "check_lipschitz n_grid -1": lambda: check_lipschitz(NU, 1.0, 2.0, n_grid=-1),
    "type_at p nan": lambda: type_at(F, NAN, 1.0, 8.0),
    # an infinite window end used to reach np.polyfit, whose SVD did not converge
    "type_at r_hi inf": lambda: type_at(F, 1.0, 1.0, math.inf),
    "convergence_integral_zero r0 nan": lambda: convergence_integral_zero(F, 1.0, NAN),
    "convergence_integral_zero p nan": lambda: convergence_integral_zero(F, NAN, 1.0),
    # a radius out of range used to give a value: an upper bound of -0.0307
    # on a harmonic measure at r = -1, a mass or a variation of 0.0 at nan
    "hm_sector_disk_bounds r -1": lambda: hm_sector_disk_bounds(SIXTH, Z_SIXTH, -1.0, 0.5),
    "hm_sector_disk_bounds r nan": lambda: hm_sector_disk_bounds(SIXTH, Z_SIXTH, NAN, 0.5),
    "variation_radial r nan": lambda: variation_radial(BAL, NAN),
    "variation_radial r -1": lambda: variation_radial(BAL, -1.0),
    "distribution_on_R x nan": lambda: distribution_on_R(BAL, NAN),
    "distribution_on_R atoms x nan": lambda: distribution_on_R(AtomicCharge([(1.0, 1.0)]), NAN),
    "ray_distribution x nan": lambda: BAL.ray_distribution(0, NAN),
    "ray_distribution x -1": lambda: BAL.ray_distribution(0, [1.0, -1.0]),
    "crg_on_rays p nan": lambda: crg_on_rays([F, F], [0.0, math.pi], NAN, radii=[1.5, 3.0]),
    "crg_on_rays radii nan": lambda: crg_on_rays([F, F], [0.0, math.pi], 1.0, radii=[NAN]),
    "angular_density p nan": lambda: angular_density(NU, 0.0, 1.0, NAN),
    "CanonicalPotential genus -2": lambda: CanonicalPotential(AtomicCharge([]), genus=-2),
    # a NaN jump used to give f = nan past it, and pv_kernel_integral nan at 1j
    "StepFunction jump nan": lambda: StepFunction([1.0, 2.0], [NAN, 1.0]),
    "StepFunction jump inf": lambda: StepFunction([1.0, 2.0], [1.0, -math.inf]),
    "StepFunction offset nan": lambda: StepFunction([1.0], [1.0], NAN),
    "StepFunction offset inf": lambda: StepFunction([1.0], [1.0], math.inf),
    "StepFunction.from_events jump nan": lambda: StepFunction.from_events([(1.0, NAN)]),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_precondition_raises_bad_input(name):
    with pytest.raises(BadInput):
        CALLS[name]()


@pytest.mark.parametrize("z", [1j, 1.0, 0j])
@pytest.mark.parametrize("route", [hm_system, hm_system_quad])
def test_hm_system_checks_its_boundary_set_wherever_z_is(route, z):
    S = RaySystem([0.0, math.pi])
    with pytest.raises(BadInput, match="no ray 5"):
        route(S, z, segments=[BoundarySegment(5, 0.5, 2.0)])
    for disk in (0.0, -1.0, NAN):
        with pytest.raises(BadInput, match="disk"):
            route(S, z, disk=disk)
    assert route(S, z, segments=[BoundarySegment(1, 0.5, 2.0)], disk=0.25) >= 0.0
