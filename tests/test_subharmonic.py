import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from balayage import numerics
from balayage import (AtomicCharge, BadInput, CanonicalPotential,
                      CoincidentPoints, GenusSchedule, QuadratureFailure, RaySystem,
                      ZeroCenter, carleman_check, class_A_functionals,
                      edge_radii, kernel_Kq, kernel_Kq_radial_derivative, potential_eval,
                      subharmonic_balayage_eval, sweep_potential_eval,
                      balayage_system)

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
    assert potential_eval(P, 2.0) == -math.inf
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


# ---------------------------------------------------------------------------
# Circle means: the periodic trapezoid rule, a test-side oracle (the library
# integrates only through numerics.integrate)


_JITTER = 0.5 * (math.sqrt(5.0) - 1.0)  # irrational phase offset, fixed


def circle_mean(v, r):
    """Mean of v over the circle |z| = r by the periodic trapezoid rule,
    doubling nodes from 64 until two refinements agree within 1e-8 (at most
    2^19 nodes).  Nodes carry a fixed irrational phase jitter so atoms at
    rational angles are missed."""
    if r <= 0.0:
        raise BadInput(f"need r > 0, got {r}")
    n = 64
    prev = None
    while n <= 1 << 19:
        h = 2.0 * math.pi / n
        vals = []
        for k in range(n):
            th = (k + _JITTER) * h
            val = v(cmath.rect(r, th))
            if val == -math.inf:
                raise QuadratureFailure(
                    f"evaluation hit an atom on |z| = {r} despite jitter")
            vals.append(val)
        cur = math.fsum(vals) / n
        if prev is not None and abs(cur - prev) <= 1e-8:
            return cur
        prev = cur
        n *= 2
    raise QuadratureFailure("circle mean did not stabilize to 1e-08 by 524288 nodes")


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
    res = class_A_functionals(v, 0.0, PI, 1.0, 20.0, ())
    assert res.residual_J <= 1e-6
    assert res.residual_double <= 1e-6


def test_class_A_zero_function():
    res = class_A_functionals(lambda z: 0.0, 0.0, PI, 1.0, 8.0, ())
    assert res.A == res.B == res.J == 0.0


def test_class_A_takes_the_sector_aperture_rule():
    # beta - alpha rounds to 2*pi although beta lies past alpha + 2*pi: the
    # functionals once read their aperture from the difference and accepted it
    alpha, beta = 0.129, 6.412185307179587
    assert beta - alpha == 2.0 * PI and beta > alpha + 2.0 * PI
    with pytest.raises(BadInput):
        class_A_functionals(lambda z: 0.0, alpha, beta, 1.0, 8.0, ())
    with pytest.raises(BadInput):
        edge_radii(AtomicCharge([(1j, 1.0)]), alpha, beta)
    assert class_A_functionals(lambda z: 0.0, alpha, alpha + 2.0 * PI, 1.0, 8.0, ()).A == 0.0


def test_edge_radii_are_the_atoms_on_either_edge():
    nu = AtomicCharge([(cmath.rect(3.0, 2.0), 1.0), (cmath.rect(1.5, 0.3), -1.0),
                       (cmath.rect(1.5, 2.3), 1.0), (1j, 1.0), (0, 1.0)])
    assert edge_radii(nu, 0.3, 2.0) == [1.5, 3.0]
    # a full aperture: both edges are the ray at 0.3
    assert edge_radii(nu, 0.3, 0.3 + 2.0 * PI) == [1.5]
    assert edge_radii(nu, 0.0, PI) == []


def test_carleman_analytic_example():
    nu = AtomicCharge([(2j, 1.0)])
    v = lambda z: math.log(abs(z - 2j)) if z != 2j else 0.0
    res = carleman_check(nu, v, 1.0, 10.0)
    assert res.holds
    assert res.lhs == pytest.approx(0.48, abs=1e-12)
    assert res.detail["residual"] <= 1e-9


def test_carleman_sums_an_atom_inside_r0_by_its_imaginary_part():
    # an atom at 0 < |z| < r0 adds (1/r0^2 - 1/r^2) m Im z = 0.99 * 0.4 to the
    # left side, which the inner corrections of the right side match
    nu = AtomicCharge([(0.3 + 0.4j, 1.0)])
    P = CanonicalPotential(nu, genus=-1)
    res = carleman_check(nu, lambda z: potential_eval(P, z), 1.0, 10.0)
    assert res.lhs == pytest.approx(0.396, abs=1e-15)
    assert res.holds and res.detail["residual"] <= 1e-12


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


# ---------------------------------------------------------------------------
# Class-A functionals and the half-disk identity: one quadrature per functional


def _nested_A(v, alpha, beta, r0, r):
    """A as the nested double integral
    pi / (gamma^2 r^2p) int_r0^r t^(2p-1) int_r0^t edges(s) s^(-p-1) ds dt,
    the route class_A_functionals used before the order was exchanged."""
    gamma = beta - alpha
    p = PI / gamma
    edges = lambda t: v(cmath.rect(t, alpha)) + v(cmath.rect(t, beta))
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=400)

    def inner(t):
        val, err = quad(lambda s: edges(s) / s ** (p + 1.0), r0, t, **opts)
        assert err <= 1e-8
        return val

    val, err = quad(lambda t: inner(t) * t ** (2.0 * p - 1.0), r0, r, **opts)
    assert err <= 1e-8 * r ** (2.0 * p)
    return PI / (gamma * gamma * r ** (2.0 * p)) * val


def _canonical(atoms):
    P = CanonicalPotential(AtomicCharge(atoms), genus=-1)
    return lambda z: potential_eval(P, z)


# potential_quad.45.1 of the benchmark catalogue: five atoms, r = 8
FIVE_ATOMS = [(-0.4773723245774813 + 1.2380570046663448j, 1.8436592226159714),
              (1.811889040682205 + 0.7144650357536505j, -1.8685243418089936),
              (2.140404690932563 + 3.3110479119745397j, -0.6013313691329238),
              (-5.484054038337229 + 2.0631345535909675j, 1.0579677338556899),
              (4.539109414243376 + 1.7736066509930641j, 1.9503932046565038)]


@pytest.mark.parametrize("v,r", [
    (lambda z: math.log(abs(z - 1.5j)) if z != 1.5j else 0.0, 20.0),
    (_canonical(FIVE_ATOMS), 8.0),
])
def test_class_A_exchanged_order_matches_the_nested_integral(v, r):
    res = class_A_functionals(v, 0.0, PI, 1.0, r, ())
    nested = _nested_A(v, 0.0, PI, 1.0, r)
    assert abs(nested - res.A_via_double) <= 1e-8
    assert abs(nested - res.A) <= 1e-8


@pytest.fixture
def quad_log(monkeypatch):
    """Counts numerics.quad calls, and those made inside another quad call."""
    log = {"calls": 0, "nested": 0, "depth": 0}
    real = numerics.quad

    def counting(*args, **kwargs):
        log["calls"] += 1
        log["nested"] += log["depth"] > 0
        log["depth"] += 1
        try:
            return real(*args, **kwargs)
        finally:
            log["depth"] -= 1
    monkeypatch.setattr(numerics, "quad", counting)
    return log


def test_carleman_makes_four_quadratures(quad_log):
    # A, B and the diameter and arc corrections
    nu = AtomicCharge(FIVE_ATOMS)
    assert carleman_check(nu, _canonical(FIVE_ATOMS), 1.0, 8.0).holds
    assert (quad_log["calls"], quad_log["nested"]) == (4, 0)


def test_class_A_makes_five_quadratures(quad_log):
    # A, B, J, the outer-weight part of A_via_J and A_via_double
    class_A_functionals(_canonical(FIVE_ATOMS), 0.0, PI, 1.0, 8.0, ())
    assert (quad_log["calls"], quad_log["nested"]) == (5, 0)


# potential_quad.49.0 of the benchmark catalogue: 25 atoms, r0 = 1, r = 32.
# The nested route's outer quadrature missed its 1e-6 budget here (1.11e-6).
ATOMS_49 = [
    (2.5944553406125825 + 2.568978389905095j, 1.8627384062885457),
    (-0.21765496921194433 + 1.2631478723802343j, 1.1305386994265205),
    (-8.830980873929414 + 22.789939497516226j, 1.8216365484331654),
    (-27.846917159390728 + 5.727247240962199j, 1.5406624333020476),
    (-16.765128382648843 + 2.7599310781977295j, -1.9639443024811196),
    (-0.12792899880739228 + 3.0758063670904736j, 1.8466594705687744),
    (-3.0773352421186035 + 16.295753523094156j, 1.6681347167958382),
    (-16.478583277982338 + 14.434714498259204j, 0.3042967749757168),
    (25.56854259923719 + 10.92056767167277j, 0.35871274892015725),
    (3.8550971171702835 + 15.31935976242471j, -0.8271841166589902),
    (-3.6698728265195224 + 4.197145634457051j, -1.7490053471148486),
    (-5.734247967053536 + 26.813671660714895j, 1.0324877324825816),
    (-3.6708169516285354 + 6.49541028255004j, 1.9044982578804734),
    (-2.289546333246061 + 20.75250557685227j, 1.0764280230058418),
    (0.6206423160888591 + 5.2772068689060205j, 1.5240222061653816),
    (-0.3950831697807332 + 9.523860276717741j, -0.3907382101947644),
    (-0.16815388861436179 + 24.907014932775798j, -1.0110258860896797),
    (1.2713434196851083 + 3.4847653146955593j, 0.4785847295589346),
    (-13.455313828812658 + 15.546368717545816j, 1.6756052318380674),
    (8.88180915724684 + 22.72123998639158j, -0.508041699396793),
    (8.006891106284868 + 3.5800767729890657j, 1.4565988032122417),
    (2.6891051477048427 + 11.988420601371917j, -1.3383198786105546),
    (1.2853148904036764 + 0.8719070924039566j, 0.4842355333233238),
    (-3.803500208535684 + 5.1292951842819345j, -1.2189985961520093),
    (-1.2733452831137937 + 18.04274596627251j, 1.958079121563784),
]


def test_class_A_and_carleman_on_the_25_atom_charge():
    v = _canonical(ATOMS_49)
    res = class_A_functionals(v, 0.0, PI, 1.0, 32.0, ())
    assert res.residual_J <= 1e-6
    assert res.residual_double <= 1e-6
    assert carleman_check(AtomicCharge(ATOMS_49), v, 1.0, 32.0).holds
