"""Library preconditions reject NaN and out-of-range arguments with BadInput."""

import math

import pytest

from balayage import (AtomicCharge, BadInput, BoundarySegment, CanonicalPotential,
                      RaySystem, StepFunction, angular_density, blaschke_halfplane,
                      blaschke_outside_system, check_ges_bound,
                      check_ges_bound_system, check_lipschitz, crg_on_rays,
                      hm_system, hm_system_quad)
from balayage.growth_scales import convergence_integral_zero, type_at
from balayage.regular_growth import indicator_estimate

NAN = math.nan
NU = AtomicCharge([(2j, 1.0), (-1 + 0.5j, 0.5)])
S3 = RaySystem([0.0, 2.0, 4.0])
F = StepFunction.from_events([(1.0, 1.0), (2.0, 1.0), (4.0, 1.0)])


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
    "indicator_estimate p nan": lambda: indicator_estimate(lambda z: 0.0, 0.0, NAN, (1.0, 8.0)),
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
