import cmath
import math

import numpy as np
import pytest

from balayage import (BOTTOM, AtomicCharge, BadInput, CanonicalPotential,
                      CoincidentPoints, GenusSchedule, RaySystem, ZeroCenter,
                      carleman_check, circle_mean, class_A_functionals,
                      is_bottom, kernel_Kq, kernel_Kq_radial_derivative,
                      potential_eval, subharmonic_balayage_eval,
                      sweep_potential_eval, balayage_system)

PI = math.pi


def test_kernel_values():
    assert kernel_Kq(2.0, 1.0, -1) == 0.0
    assert kernel_Kq(2.0, 1.0, 0) == pytest.approx(-math.log(2.0), abs=1e-15)
    assert kernel_Kq(2.0, 1.0, 1) == pytest.approx(-math.log(2.0) + 0.5, abs=1e-15)
    with pytest.raises(CoincidentPoints):
        kernel_Kq(1.0, 1.0, 0)
    with pytest.raises(ZeroCenter):
        kernel_Kq(0.0, 1.0, 0)
    with pytest.raises(BadInput):
        kernel_Kq(2.0, 1.0, 0.5)


def test_kernel_radial_derivative_closed_form():
    # q = 0, z = i, t = 1: Re((i/1) / (1 - i)) = Re(i (1 + i) / 2) = -1/2
    assert kernel_Kq_radial_derivative(1j, 1.0, 0) == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(BadInput):
        kernel_Kq_radial_derivative(1j, -1.0, 0)


def test_kernel_radial_derivative_vs_fd():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(40):
        q = int(rng.integers(0, 4))
        t = rng.uniform(0.5, 3.0)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z - t) < 0.3 or abs(z) < 0.1:
            continue
        exact = kernel_Kq_radial_derivative(z, t, q)
        fd = (kernel_Kq(t + h, z, q) - kernel_Kq(t - h, z, q)) / (2.0 * h)
        assert exact == pytest.approx(fd, abs=1e-6)


def test_genus_schedule():
    sch = GenusSchedule((0.0, 10.0), (-1, 1))
    assert sch.genus_at(0.5) == -1 and sch.genus_at(9.99) == -1
    assert sch.genus_at(10.0) == 1 and sch.genus_at(100.0) == 1
    with pytest.raises(BadInput):
        GenusSchedule((1.0, 10.0), (-1, 1))  # must start at 0
    with pytest.raises(BadInput):
        GenusSchedule((0.0, 10.0, 5.0), (-1, 1, 2))  # radii must increase
    with pytest.raises(BadInput):
        GenusSchedule((0.0, 4.0), (-1, -2))  # genera bounded below
    with pytest.raises(BadInput):
        GenusSchedule((0.0, 8.0), (1, 2))  # unit disk stays at genus -1
    assert GenusSchedule.from_json(sch.to_json()) == sch
    # convergence sum weights each atom by (x0/|z|)^(q+1)
    nu = AtomicCharge([(2j, 1.0), (20.0, 2.0)])
    # atom at 2j sits in the genus -1 band: weight (1/2)^0 = 1
    got = sch.convergence_sum(nu, 1.0)
    assert got == pytest.approx(1.0 + 2.0 / 400.0, abs=1e-15)


def test_potential_values():
    P = CanonicalPotential(AtomicCharge([(2.0, 1.0)]), genus=0)
    assert potential_eval(P, 0.0) == 0.0  # log|1 - 0/2| = 0
    assert is_bottom(potential_eval(P, 2.0))
    neg = CanonicalPotential(AtomicCharge([(2.0, -1.0)]), genus=0)
    assert potential_eval(neg, 2.0) == math.inf
    with pytest.raises(BadInput):
        CanonicalPotential(AtomicCharge([]), genus=0, schedule=GenusSchedule((1.0,), (0,)))


def test_potential_sine_product():
    # genus-1 potential of +-k*pi matches log|sin(z)/z|; the truncation at
    # K atoms per ray leaves a tail of roughly 2|z|^2 / (pi^2 K)
    K = 20000
    atoms = [(k * PI, 1.0) for k in range(1, K + 1)]
    atoms += [(-k * PI, 1.0) for k in range(1, K + 1)]
    P = CanonicalPotential(AtomicCharge(atoms), genus=1)
    for z in (1.0 + 1j, 2j, 5.0 + 0.3j):
        want = math.log(abs(cmath.sin(z) / z))
        tail = 4.0 * abs(z) ** 2 / (PI * PI * K)
        assert potential_eval(P, z) == pytest.approx(want, abs=tail)


def test_potential_harmonic_shift():
    base = CanonicalPotential(AtomicCharge([(1j, 1.0)]), genus=0)
    shifted = CanonicalPotential(AtomicCharge([(1j, 1.0)]), genus=0,
                                 harmonic_coeffs=[0.5, 0.0, 2.0])
    z = 3.0 - 1j
    harm = (0.5 + 2.0 * z * z).real
    assert potential_eval(shifted, z) == potential_eval(base, z) + harm


def test_circle_mean_log_kernel():
    v = lambda z: math.log(abs(z - 1.0))
    # mean of log|z - a| over |z| = r is log max(r, |a|)
    assert circle_mean(v, 0.5) == pytest.approx(0.0, abs=1e-8)
    assert circle_mean(v, 2.0) == pytest.approx(math.log(2.0), abs=1e-8)


def test_circle_mean_monotone_in_r():
    # subharmonic means grow with the radius
    P = CanonicalPotential(AtomicCharge([(1.0, 1.0), (1j, 0.5)]), genus=0)
    v = lambda z: potential_eval(P, z)
    m1 = circle_mean(v, 1.5)
    m2 = circle_mean(v, 3.0)
    m3 = circle_mean(v, 6.0)
    assert m1 <= m2 + 1e-10 <= m3 + 2e-10


def test_eight_point_submean():
    # discrete submean property at off-atom points
    P = CanonicalPotential(AtomicCharge([(1.0 + 1j, 1.0), (-2j, 2.0)]), genus=-1)
    v = lambda z: potential_eval(P, z)
    rng = np.random.default_rng(7)
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(z - 1 - 1j), abs(z + 2j)) < 0.2:
            continue
        rho = 0.05
        ring = [v(z + rho * cmath.exp(2j * PI * k / 64)) for k in range(64)]
        assert v(z) <= math.fsum(ring) / 64.0 + 1e-9


def test_class_A_route_consistency():
    v = lambda z: math.log(abs(z - 1.5j)) if z != 1.5j else 0.0
    res = class_A_functionals(v, 0.0, PI, 1.0, 20.0)
    assert res.residual_J <= 1e-6
    assert res.residual_double <= 1e-6


def test_class_A_zero_function():
    res = class_A_functionals(lambda z: 0.0, 0.0, PI, 1.0, 8.0)
    assert res.A == res.B == res.J == 0.0


def test_carleman_analytic_example():
    nu = AtomicCharge([(2j, 1.0)])
    v = lambda z: math.log(abs(z - 2j)) if z != 2j else 0.0
    res = carleman_check(nu, v, 1.0, 10.0)
    assert res.holds
    assert res.lhs == pytest.approx(0.48, abs=1e-12)
    assert res.detail["residual"] <= 1e-9


def test_carleman_harmonic_function():
    # harmonic v with no atoms: both sides are zero up to quadrature
    res = carleman_check(AtomicCharge([]), lambda z: z.real, 1.0, 8.0)
    assert res.holds
    assert abs(res.lhs) <= 1e-12 and abs(res.rhs) <= 1e-8


def test_carleman_scaling_linearity():
    nu = AtomicCharge([(1 + 2j, 1.0)])
    v = lambda z: math.log(abs(z - (1 + 2j))) if z != 1 + 2j else 0.0
    r1 = carleman_check(nu, v, 1.0, 8.0)
    nu3 = AtomicCharge([(1 + 2j, 3.0)])
    v3 = lambda z: 3.0 * v(z)
    r3 = carleman_check(nu3, v3, 1.0, 8.0)
    assert r3.lhs == pytest.approx(3.0 * r1.lhs, rel=1e-12)
    assert r3.rhs == pytest.approx(3.0 * r1.rhs, rel=1e-8)
    assert r3.holds


def test_carleman_atom_on_circle():
    from balayage import AtomOnCircle
    nu = AtomicCharge([(1j, 1.0)])
    with pytest.raises(AtomOnCircle):
        carleman_check(nu, lambda z: 0.0, 1.0, 4.0)


def test_sweep_reflection_value():
    # log|z - i| swept onto R equals log|z - i| off the axis replaced by its
    # harmonic extension from boundary values: at z = 2i the swept value is
    # the Poisson average of log|t - i|, which equals log|2i - (-i)| = log 3
    v = lambda z: math.log(abs(z - 1j)) if z != 1j else 0.0
    S = RaySystem([0.0, PI])
    got = subharmonic_balayage_eval(v, S, 2j, R_max=1e10, tol=1e-7)
    assert got == pytest.approx(math.log(3.0), abs=1e-6)


def test_sweep_on_system_exact():
    v = lambda z: math.log(abs(z - 1j)) if z != 1j else 0.0
    S = RaySystem([0.0, PI])
    assert subharmonic_balayage_eval(v, S, 3.0) == v(3.0)


def test_sweep_matches_charge_route():
    nu = AtomicCharge([(2j, 1.0)])
    S = RaySystem([0.0, PI])
    v = lambda z: math.log(abs(z - 2j)) if z != 2j else 0.0
    z = 5.0 + 2j
    via_v = subharmonic_balayage_eval(v, S, z, R_max=1e10, tol=1e-7)
    via_nu = sweep_potential_eval(balayage_system(nu, S), z, genus=-1)
    assert via_v == pytest.approx(via_nu, abs=1e-6)


def test_sweep_harmonic_stencil():
    # swept function is harmonic off the system: 5-point stencil residual
    v = lambda z: math.log(abs(z - 1j)) if z != 1j else 0.0
    S = RaySystem([0.0, PI])
    h = 1e-2
    z0 = 1.0 + 2j
    vals = {}
    for dz in (0, h, -h, 1j * h, -1j * h):
        vals[dz] = subharmonic_balayage_eval(v, S, z0 + dz, R_max=1e12, tol=1e-8)
    lap = (vals[h] + vals[-h] + vals[1j * h] + vals[-1j * h] - 4.0 * vals[0])
    # truncation O(h^4) plus five evaluations at 1e-8 certified accuracy
    assert abs(lap) <= 1e-7


def test_bottom_semantics():
    assert is_bottom(BOTTOM)
    assert not is_bottom(-math.inf)
    assert BOTTOM < -1e308
    assert (BOTTOM + 5.0) is BOTTOM
    assert max(BOTTOM, 0.0) == 0.0


def test_riesz_mass_recovery():
    # circle-mean growth of the potential recovers the enclosed mass:
    # mean(r2) - mean(r1) = m * (log r2 - log r1) for atoms inside r1
    P = CanonicalPotential(AtomicCharge([(0.5, 2.0), (-0.3j, 1.0)]), genus=-1)
    v = lambda z: potential_eval(P, z)
    m1 = circle_mean(v, 2.0)
    m2 = circle_mean(v, 4.0)
    mass = (m2 - m1) / math.log(2.0)
    assert mass == pytest.approx(3.0, rel=1e-2)


def test_carleman_ignores_atoms_below_the_axis():
    # log|z + 2i| is harmonic in the upper half-disk: both sides vanish
    nu = AtomicCharge([(-2j, 1.0)])
    P = CanonicalPotential(nu, genus=-1)
    res = carleman_check(nu, lambda z: potential_eval(P, z), 1.0, 10.0)
    assert res.lhs == 0.0
    assert abs(res.rhs) <= 1e-12
    assert res.holds
