import cmath
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from balayage import (REAL_AXIS, AtomicCharge, BadInput, BalayageCharge,
                      HypothesisViolated, Interval, NotInUpperHalfPlane,
                      RaySystem, RayTestFunction, SupportOffAxis,
                      SupportTouchesInterval, balayage_halfplane,
                      balayage_system, blaschke_halfplane,
                      blaschke_outside_system,
                      check_fubini, check_ges_bound, check_ges_bound_system,
                      check_lindelof_preservation, check_lipschitz,
                      check_thcup_bound, complementary_sectors, counting_around,
                      distribution_on_R, divergence_verdict, hm_interval,
                      lindelof_sum, poisson_kernel, variation_radial,
                      ray_geometry)
from balayage.charges import _poisson_pairings
from balayage.cli import main
from balayage.errors import NumericFailure
from balayage.numerics import PAIRING_TOL, QUAD_TOL, SAMPLE_BLOCK_ELEMENTS
from conftest import random_charge

PI = math.pi


def test_charge_validation():
    nu = AtomicCharge([(1j, 1.0), (2.0, 0.0)])
    assert nu.z.tolist() == [1j] and nu.m.tolist() == [1.0]  # zero masses dropped
    assert nu.total_mass == 1.0
    with pytest.raises(BadInput):
        AtomicCharge([(1j, math.inf)])


def test_radial_counting_examples():
    f = counting_around(AtomicCharge([(1j, 1.0)]), 0.0, variation=False)
    assert f(0.5) == 0.0 and f(1.0) == 1.0 and f(2.0) == 1.0
    sym = AtomicCharge([(1j, 1.0), (-1j, -1.0)])
    assert counting_around(sym, 0.0, variation=False)(5.0) == 0.0
    assert counting_around(sym, 0.0, variation=True)(5.0) == 2.0
    stair = counting_around(AtomicCharge([(1.0, 1.0), (2j, 1.0), (-3.0, 1.0)]), 0.0,
                            variation=False)
    assert [stair(r) for r in (1, 2, 3)] == [1.0, 2.0, 3.0]


def test_distribution_on_R_atoms():
    nu = AtomicCharge([(2.0, 1.0)])
    assert distribution_on_R(nu, 3.0) == 1.0
    assert distribution_on_R(nu, 1.0) == 0.0
    with pytest.raises(SupportOffAxis):
        distribution_on_R(AtomicCharge([(1j, 1.0)]), 1.0)


def test_distribution_on_R_left_of_0_is_minus_the_mass_of_x_to_0():
    nu = AtomicCharge([(-2.0, 0.5), (-0.5, 1.25), (1.0, 2.0), (0.0, 3.0)])
    assert distribution_on_R(nu, -1.0) == -1.25
    assert distribution_on_R(nu, -2.5) == -1.75
    assert distribution_on_R(nu, 0.0) == 3.0


def test_fubini_reads_the_test_function_at_the_origin_at_a_kept_atom_there():
    # F is 1/2 at the origin on both rays, so the kept atom of mass 2 there
    # adds 1 to each side; a tent off the origin is 0 there
    S = RaySystem([0.0, 2.0])
    at_0 = RayTestFunction(S, {0: [(0.0, 0.5), (1.0, 0.0)], 1: [(0.0, 0.5), (2.0, 0.0)]})
    off_0 = RayTestFunction(S, {0: [(0.5, 0.0), (1.0, 1.0), (2.0, 0.0)]})
    assert (at_0(0), off_0(0)) == (0.5, 0.0)
    res = check_fubini(AtomicCharge([(0, 2.0)]), S, at_0)
    assert (res.lhs, res.rhs, res.holds) == (1.0, 1.0, True)
    res = check_fubini(AtomicCharge([(0, 2.0)]), S, off_0)
    assert (res.lhs, res.rhs, res.holds) == (0.0, 0.0, True)
    res = check_fubini(AtomicCharge([(0, 2.0), (1 + 1j, 1.0)]), S, at_0)
    assert res.holds and res.detail["difference"] <= PAIRING_TOL


def test_distribution_balayage_2i():
    bal = balayage_halfplane(AtomicCharge([(2j, 1.0)]))
    assert distribution_on_R(bal, 2.0) == 0.25


def test_a_radius_of_inf_reads_the_whole_ray():
    # each atom of the half-plane sweep puts all its mass on R; a radius of
    # +inf and x = +-inf raised NumericFailure ("not finite")
    bal = balayage_halfplane(AtomicCharge([(2j, 1.0), (-1 + 0.5j, 0.5)]))
    rays = [bal.ray_distribution(j, math.inf) for j in (0, 1)]
    assert sum(rays) == pytest.approx(1.5, rel=1e-15)
    assert bal.ray_distribution(0, np.array([1.0, math.inf])).tolist() == [
        bal.ray_distribution(0, 1.0), rays[0]]
    assert bal.ray_segment_mass(0, 1.0, math.inf) == pytest.approx(
        rays[0] - bal.ray_distribution(0, 1.0), rel=1e-14)
    assert distribution_on_R(bal, math.inf) == rays[0]
    assert distribution_on_R(bal, -math.inf) == -rays[1]
    assert variation_radial(bal, math.inf) == pytest.approx(1.5, rel=1e-15)
    # a quarter-plane sweep (p = 2): both edges' images reach +inf
    bal = balayage_system(AtomicCharge([(1 + 2j, -0.7)]), RaySystem([0.0, PI / 2]))
    assert bal.ray_distribution(0, math.inf) + bal.ray_distribution(1, math.inf) == (
        pytest.approx(-0.7, rel=1e-15))
    # a finite end whose power passes the float range has no mass to report,
    # and halving a mixed-sign ray needs a finite segment
    with pytest.raises(NumericFailure, match="not finite"):
        bal.ray_segment_mass(0, 1e200, math.inf)
    mixed = balayage_halfplane(AtomicCharge([(2j, 1.0), (-1 + 0.5j, -0.5)]))
    with pytest.raises(NumericFailure, match="finite segment"):
        variation_radial(mixed, math.inf)


def test_distribution_antisymmetric_pair_vanishes():
    nu = AtomicCharge([(1j, 1.0), (-1j, -1.0)])
    bal = balayage_system(nu, RaySystem([0.0, PI]))
    for x in np.linspace(-5.0, 5.0, 11):
        assert distribution_on_R(bal, float(x)) == 0.0


def test_variation_density_antisymmetric_pair():
    var = AtomicCharge([(1j, 1.0), (-1j, 1.0)])
    bal = balayage_system(var, RaySystem([0.0, PI]))
    for t in np.linspace(0.3, 4.0, 10):
        want = 2.0 / (PI * (1.0 + t * t))
        assert bal.ray_density(0, float(t)) == pytest.approx(want, abs=1e-12)
        assert bal.ray_density(1, float(t)) == pytest.approx(want, abs=1e-12)


def test_blaschke_halfplane_trends():
    # purely imaginary atoms: partial sums grow like log N
    radii, sums = [], []
    for N in (8, 32, 128, 512, 2048):
        nu = AtomicCharge([(1j * k, 1.0) for k in range(1, N + 1)])
        radii.append(float(N))
        sums.append(blaschke_halfplane(nu, 0.5))
    slope, growing = divergence_verdict(radii, sums)
    assert growing
    # horizontal line atoms: bounded by the closed form
    nu = AtomicCharge([(k + 1j, 1.0) for k in range(1, 4000)])
    total = blaschke_halfplane(nu, 0.5)
    limit = (PI / math.tanh(PI) - 1.0) / 2.0
    assert total < limit
    assert total == pytest.approx(limit, abs=5e-4)
    # lower half-plane only
    assert blaschke_halfplane(AtomicCharge([(1 - 2j, 3.0)]), 1.0) == 0.0


def test_blaschke_sector_reduction():
    nu = AtomicCharge([(2 * cmath.exp(1j * PI / 4), 1.0)])
    sums = blaschke_outside_system(nu, RaySystem([0.0, PI / 2, PI, 3 * PI / 2]), 1.0)
    assert sums[0] == pytest.approx(0.25, abs=1e-13)
    assert sums[1] == 0.0
    up = AtomicCharge([(0.3 + 2j, 1.0), (-1 + 1j, 0.5)])
    assert blaschke_outside_system(up, RaySystem([0.0, PI]), 0.9)[0] == pytest.approx(
        blaschke_halfplane(up, 0.9), abs=1e-13)


def test_blaschke_sums_map_only_the_far_atoms(charge_file, system_file, capsys):
    # in the sector (0, pi/10), p = 10: the atom at 1e-40 lies inside r0 = 1,
    # and its image |w| = 1e-400 underflows.  The Blaschke sums never map it;
    # the sweep maps every atom off S and fails on it
    charge = charge_file([(cmath.rect(1e-40, 0.05), 1.0), (cmath.rect(3.0, 0.05), 2.0)])
    system = system_file([0.0, PI / 10])
    assert main(["check", "blaschke", "--charge", charge, "--system", system, "--r0", "1"]) == 0
    total = json.loads(capsys.readouterr().out)["sectors"][0]["sum"]
    assert total == 1.623822718773232e-05
    assert total == pytest.approx(2.0 * math.sin(0.5) / 3.0 ** 10, rel=1e-14)  # 2 Im w / |w|^2
    assert main(["balayage", "--charge", charge, "--system", system]) == 3
    assert "power map underflows" in capsys.readouterr().err


def test_blaschke_outside_system_per_sector():
    S = RaySystem([0.0, PI])
    nu = AtomicCharge([(2j, 1.0), (-3j, 2.0)])
    sums = blaschke_outside_system(nu, S, 1.0)
    assert sums[0] == pytest.approx(0.5, abs=1e-13)
    assert sums[1] == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_lindelof_sum_examples():
    sine = AtomicCharge([(k * PI, 1.0) for k in range(1, 50)]
                        + [(-k * PI, 1.0) for k in range(1, 50)])
    assert abs(lindelof_sum(sine, 1, 0.5, 200.0)) <= 1e-14
    one = AtomicCharge([(2.0, 1.0)])
    assert lindelof_sum(one, 1, 1.0, 3.0) == 0.5
    # harmonic partial sums along the imaginary axis are unbounded
    vals = []
    for r in (8.0, 64.0, 512.0):
        nu = AtomicCharge([(1j * k, 1.0) for k in range(1, int(r) + 1)])
        vals.append(abs(lindelof_sum(nu, 1, 0.5, r)))
    assert vals[0] < vals[1] < vals[2]


def test_balayage_halfplane_density_and_mass():
    bal = balayage_halfplane(AtomicCharge([(1j, 1.0)]))
    assert not bal.kept.m.size
    for t in (0.0, 0.7, -2.0):
        want = 1.0 / (PI * (1.0 + t * t))
        got = bal.ray_density(0, abs(t)) if t >= 0 else bal.ray_density(1, abs(t))
        if t == 0.0:
            got = bal.ray_density(0, 1e-300)
        assert got == pytest.approx(want, rel=1e-12)
    total, _ = quad(lambda t: bal.ray_density(0, t), 0.0, np.inf)
    total2, _ = quad(lambda t: bal.ray_density(1, t), 0.0, np.inf)
    assert total + total2 == pytest.approx(1.0, abs=1e-10)


def test_balayage_halfplane_keeps_lower_atoms():
    bal = balayage_halfplane(AtomicCharge([(-3j, 2.0)]))
    assert bal.kept.z.tolist() == [-3j] and bal.kept.m.tolist() == [2.0]
    assert not bal.swept.m.size and not bal.sector.size


def test_balayage_system_halfplane_consistency():
    nu = AtomicCharge([(2j, 1.0), (1 - 1j, 0.5)])
    S = RaySystem([0.0, PI])
    bal = balayage_system(nu, S)
    half_up = balayage_halfplane(nu[nu.z.imag > 0])
    for x in (0.5, 1.5, -2.0):
        lhs = distribution_on_R(bal, x)
        # mirror the lower atom into the upper half-plane by hand
        low = balayage_halfplane(AtomicCharge([(1 + 1j, 0.5)]))
        rhs = distribution_on_R(half_up, x)
        rhs += (low.ray_segment_mass(0, 0.0, x) if x >= 0
                else -low.ray_segment_mass(1, 0.0, -x))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_balayage_system_cross_example():
    nu = AtomicCharge([(2 * cmath.exp(1j * PI / 4), 1.0)])
    S = RaySystem([0.0, PI / 2, PI, 3 * PI / 2])
    bal = balayage_system(nu, S)
    assert bal.ray_segment_mass(0, 0.0, 1.0) == pytest.approx(
        math.atan(1 / 4) / PI, abs=1e-13)
    # positivity of every segment mass for positive input
    rng = np.random.default_rng(3)
    for _ in range(20):
        j = int(rng.integers(0, 4))
        a = rng.uniform(0.0, 3.0)
        b = a + rng.uniform(0.01, 3.0)
        assert bal.ray_segment_mass(j, a, b) >= 0.0


def test_balayage_on_system_kept():
    S = RaySystem([0.0, PI / 2])
    nu = AtomicCharge([(3j, 1.0), (2.0, 1.0), (0.0, 4.0)])
    bal = balayage_system(nu, S)
    kept = sorted(zip(bal.kept.z.tolist(), bal.kept.m.tolist()),
                  key=lambda zm: (zm[0].real, zm[0].imag))
    assert kept == [(0.0 + 0j, 4.0), (3j, 1.0), (2.0 + 0j, 1.0)]
    assert not bal.swept.m.size and not bal.sector.size


def test_balayage_linearity_exact():
    nu1 = AtomicCharge([(1 + 2j, 1.0)])
    nu2 = AtomicCharge([(-2 + 1j, -0.5)])
    S = RaySystem([0.0, 2.0, 4.0])
    b1 = balayage_system(nu1, S)
    b2 = balayage_system(nu2, S)
    b12 = balayage_system(nu1 + nu2, S)
    for j in range(3):
        for x in (0.5, 2.0, 7.0):
            assert b12.ray_segment_mass(j, 0.0, x) == pytest.approx(
                b1.ray_segment_mass(j, 0.0, x) + b2.ray_segment_mass(j, 0.0, x),
                abs=1e-15)


def test_variation_dominance_on_segments():
    rng = np.random.default_rng(17)
    S = RaySystem([0.0, PI])
    for _ in range(25):
        nu = random_charge(rng, 6)
        bal = balayage_system(nu, S)
        bal_var = balayage_system(
            AtomicCharge(zip(nu.z, np.abs(nu.m))), S)
        for j in (0, 1):
            a = rng.uniform(0.0, 4.0)
            b = a + rng.uniform(0.1, 4.0)
            signed = abs(bal.ray_segment_mass(j, a, b))
            upper = bal_var.ray_segment_mass(j, a, b)
            assert signed <= upper + 1e-12


def seq_balayage_distribution(Z, x):
    """Distribution function of the full-plane sweep of a point sequence onto R.

    Z is a sequence of points or (point, mass) pairs; each off-axis point is
    swept within its half-plane (lower points mirror through the power map),
    real points stay."""
    nu = AtomicCharge(item if isinstance(item, tuple) else (item, 1.0) for item in Z)
    return distribution_on_R(balayage_system(nu, REAL_AXIS), x)


def test_seq_balayage_distribution():
    assert seq_balayage_distribution([2j], 2.0) == 0.25
    assert seq_balayage_distribution([2j], 1e9) == pytest.approx(0.5, abs=1e-8)
    assert seq_balayage_distribution([1.0, 2.0], 1.5) == 1.0


def test_check_thcup_examples():
    res = check_thcup_bound(AtomicCharge([(10j, 1.0)]), 1.0, 2.0, 0.5)
    assert res.holds
    on_axis = AtomicCharge([(1.5, 1.0), (5.0, 2.0)])
    res = check_thcup_bound(on_axis, 1.0, 2.0, 0.5)
    assert res.holds and res.lhs == 1.0
    with pytest.raises(HypothesisViolated):
        check_thcup_bound(on_axis, -1.0, 2.0, 0.5)


def test_check_thcup_random_suite():
    rng = np.random.default_rng(23)
    for _ in range(60):
        nu = random_charge(rng, int(rng.integers(1, 9)), positive=True)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        t1 = sign * rng.uniform(0.2, 5.0)
        t2 = t1 + rng.uniform(0.05, 3.0)
        if t1 * t2 < 0.0:
            t2 = -t1 / 2.0 if t1 < 0 else t1 + 0.01
        if not t1 < t2:
            t1, t2 = min(t1, t2), max(t1, t2)
        if t1 * t2 < 0:
            continue
        res = check_thcup_bound(nu, t1, t2, rng.uniform(0.15, 0.85))
        assert res.holds, (nu.z, nu.m, t1, t2)


def test_check_ges_examples():
    res = check_ges_bound(AtomicCharge([(2j, 1.0)]), lambda r: 2.0 * r, 1.0)
    assert res.lhs == pytest.approx(math.atan(4 / 3) / PI, abs=1e-13)
    assert res.rhs == pytest.approx(4.0 / PI, rel=1e-13)
    assert res.holds
    on_axis = AtomicCharge([(1.0, 1.0), (-2.0, 1.0)])
    res = check_ges_bound(on_axis, lambda r: 2.0 * r, 3.0)
    assert res.holds and res.detail["tail_integral"] == 0.0


def test_check_ges_system_suite():
    rng = np.random.default_rng(5)
    S = RaySystem([0.0, 2 * PI / 3, 4 * PI / 3])
    for _ in range(25):
        nu = random_charge(rng, 8, positive=True)
        r = rng.uniform(0.5, 5.0)
        res = check_ges_bound_system(nu, S, lambda s: 2.5 * s, r)
        assert res.holds


def test_check_lipschitz():
    rep = check_lipschitz(AtomicCharge([(1j, 1.0)]), 1.0, 2.0)
    assert rep.modulus == pytest.approx(1.0 / (2.0 * PI), rel=2e-2)
    assert check_lipschitz(AtomicCharge([]), 1.0, 2.0).modulus == 0.0
    with pytest.raises(SupportTouchesInterval):
        check_lipschitz(AtomicCharge([(1.5, 1.0)]), 1.0, 2.0)


def test_check_fubini_examples():
    S = RaySystem([0.0, PI])
    F = RayTestFunction(S, {0: [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]})
    res = check_fubini(AtomicCharge([(2j, 1.0)]), S, F)
    assert res.holds and abs(res.lhs - res.rhs) <= 1e-8
    # charge already on the system: both sides are the exact pairing
    on_s = AtomicCharge([(0.5, 2.0), (-1.5, 1.0)])
    res = check_fubini(on_s, S, F)
    assert res.lhs == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert res.holds


def test_check_fubini_linearity():
    S = RaySystem([0.0, PI])
    F = RayTestFunction(S, {0: [(0.0, 0.0), (1.0, 1.0), (3.0, 0.0)],
                            1: [(0.5, 0.0), (1.0, 2.0), (2.0, 0.0)]})
    nu1 = AtomicCharge([(1 + 1j, 1.0)])
    nu2 = AtomicCharge([(0.5 - 1j, -0.5)])
    r1 = check_fubini(nu1, S, F)
    r2 = check_fubini(nu2, S, F)
    r12 = check_fubini(nu1 + nu2, S, F)
    assert r12.rhs == pytest.approx(r1.rhs + r2.rhs, abs=1e-12)
    assert r12.holds


def test_lindelof_preservation_symmetric():
    S = RaySystem([0.0, PI])
    nu = AtomicCharge([(2j, 1.0), (-2j, 1.0)])
    rep = check_lindelof_preservation(nu, S, 1, radii=(4, 8, 16, 32))
    assert rep["bounded"]
    nu2 = AtomicCharge([(2j, 1.0)])
    rep2 = check_lindelof_preservation(nu2, S, 1, radii=(4, 8, 16, 32, 64))
    assert rep2["bounded"]


def test_check_ges_system_closed_at_the_gauge():
    # g(r) = 2: the atom at |1.2 + 1.6i| = 2 counts in c_plus (closed at the
    # gauge), which blaschke_outside_system at r0 = 2 would drop; atoms on a ray
    # (sector edges) are kept by the sweep and add nothing
    S = RaySystem([0.0, PI / 2, PI, 3 * PI / 2])
    nu = AtomicCharge([(complex(1.2, 1.6), 1.5), (3.0, 2.0), (cmath.rect(3.0, PI / 2), 0.7),
                       (complex(-2.5, 3.0), -0.5), (complex(0.3, 0.4), 1.0)])
    assert abs(nu.z[0].item()) == 2.0
    res = check_ges_bound_system(nu, S, 2.0, 1.0)
    assert res.detail["c_plus"] == 0.3922493953238377
    open_sum = math.fsum(blaschke_outside_system(nu, S, 2.0).values())
    assert res.detail["c_plus"] == pytest.approx(open_sum + 1.5 * 0.24, rel=1e-15)


# ---------------------------------------------------------------------------
# The swept charge's array kernels against the per-record scalar kernels


def _contributions(bal, j):
    """Ray j's swept contributions, one (mass, w, p, edge) of Python numbers each."""
    return list(zip(*(c.tolist() for c in bal.ray_contributions(j))))


def _density_terms(bal, j, t):
    return [m * p * t ** (p - 1.0) * poisson_kernel(e * t ** p, w)
            for m, w, p, e in _contributions(bal, j)]


def _mass_terms(bal, j, x1, x2, variation):
    # the endpoints by the library's np.power over the contributions' exponents:
    # ** can differ from it by an ulp, which b - a amplifies by a / (b - a)
    ps = bal.ray_contributions(j)[2]
    terms = []
    for (m, w, p, e), a, b in zip(_contributions(bal, j), np.power(x1, ps).tolist(),
                                  np.power(x2, ps).tolist()):
        om = hm_interval(w, Interval(a, b) if e > 0 else Interval(-b, -a))
        terms.append((abs(m) if variation else m) * om)
    return terms


def _assert_sums_to(got, terms):
    # relative to the terms' magnitude: signed sums may cancel to near 0
    assert abs(got - math.fsum(terms)) <= 1e-12 * math.fsum(abs(v) for v in terms)


TARGETS = [None, (0.0,), (0.0, PI), (0.0, 2 * PI / 3, 4 * PI / 3),
           (0.3, 1.1, 2.0, 3.7, 5.5)]


@settings(max_examples=80, deadline=None)
@given(target=st.sampled_from(TARGETS),
       atoms=st.lists(st.tuples(st.floats(0.05, 50.0), st.floats(0.0, 2 * PI),
                                st.floats(-2.0, 2.0).filter(lambda m: abs(m) > 1e-3)),
                      min_size=1, max_size=12),
       ray=st.integers(0, 4), t=st.floats(1e-3, 1e3),
       x1=st.sampled_from([0.0]) | st.floats(1e-3, 100.0), dx=st.floats(1e-6, 100.0))
# a one-ulp gap between ** and np.power at 75 ** 0.5, amplified 1e4 times
@example(target=(0.0,), atoms=[(1.0, 1.0, 1.0)], ray=0, t=1.0, x1=75.0, dx=0.015625)
def test_array_kernels_match_scalar_sums(target, atoms, ray, t, x1, dx):
    """target None is the half-plane sweep (rays 0 = R+, 1 = R-); (0.0,) is the
    one-ray system, whose sector has p = 1/2."""
    nu = AtomicCharge([(cmath.rect(r, th), m) for r, th, m in atoms])
    bal = balayage_halfplane(nu) if target is None else balayage_system(nu, RaySystem(target))
    j = ray % len(bal.rays)
    _assert_sums_to(bal.ray_density(j, t), _density_terms(bal, j, t))
    x2 = x1 + dx
    for variation in (False, True):
        _assert_sums_to(bal.ray_segment_mass(j, x1, x2, variation=variation),
                        _mass_terms(bal, j, x1, x2, variation))


MASS = st.floats(-2.0, 2.0).filter(lambda m: abs(m) > 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(target=st.sampled_from(TARGETS),
       atoms=st.lists(st.tuples(st.floats(0.05, 50.0), st.floats(0.0, 2 * PI), MASS),
                      min_size=1, max_size=8),
       kept=st.lists(st.tuples(st.integers(0, 4), st.floats(0.05, 50.0), MASS), max_size=3),
       far=st.booleans(), ray=st.integers(0, 4),
       radii=st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 200.0), min_size=1,
                      max_size=30),
       x1=st.sampled_from([0.0]) | st.floats(1e-3, 100.0), blocks=st.booleans())
def test_array_radii_match_one_radius_calls(target, atoms, kept, far, ray, radii, x1,
                                            blocks):
    """One call on an array of radii gives, bit for bit, the floats of one call
    per radius: signed charges, kept atoms and their radii, radius 0, a far
    image (Q past the float range, the far form) and more than one block."""
    thetas = (0.0, PI) if target is None else target
    nu = [(cmath.rect(r, th), m) for r, th, m in atoms]
    nu += [(cmath.rect(r, thetas[k % len(thetas)]), m) for k, r, m in kept]
    system = REAL_AXIS if target is None else RaySystem(target)
    home = system.sector_index(cmath.rect(1.0, atoms[0][1]))
    if far and home >= 0:  # |w| = 1e200: (Im w)^2 overflows
        r = 10.0 ** min(300.0, 200.0 / system.sectors[home].exponent)  # p = 1/2: |w| = 1e150
        nu.append((cmath.rect(r, atoms[0][1]), 1.0))
    nu = AtomicCharge(nu)
    bal = balayage_halfplane(nu) if target is None else balayage_system(nu, RaySystem(target))
    j = ray % len(bal.rays)
    radii += [r for k, r, _ in kept if k % len(thetas) == j]
    if blocks:  # repeat the radii past one block of contributions x radii
        n = SAMPLE_BLOCK_ELEMENTS // max(1, bal.ray_contributions(j)[0].size) + 2
        radii = np.resize(radii, n).tolist()
    ends = [x1 + d for d in radii if d > 0.0]
    for variation in (False, True):
        for call, xs in ((lambda x: bal.ray_distribution(j, x, variation), radii),
                         (lambda x: bal.ray_segment_mass(j, x1, x, variation), ends)):
            one = {x: call(x) for x in set(xs)}
            assert all(type(v) is float for v in one.values())
            got = call(np.array(xs))
            assert type(got) is np.ndarray and got.shape == (len(xs),)
            assert got.tolist() == [one[x] for x in xs]


def test_array_radii_past_the_float_range_are_a_numeric_failure():
    # on the p = 2 rays [0, pi/2], 1e200^2 overflows: the message names that radius
    bal = balayage_system(AtomicCharge([(2 + 1j, 1.0)]), RaySystem([0.0, PI / 2]))
    xs = np.array([1.0, 2.0, 1e200])
    with pytest.raises(NumericFailure, match=r"over \[0\.0, 1e\+200\] is not finite"):
        bal.ray_segment_mass(0, 0.0, xs)
    with pytest.raises(NumericFailure, match=r"over \[0\.0, 1e\+200\] is not finite"):
        bal.ray_distribution(0, xs)
    with pytest.raises(BadInput, match=r"got \[1\.0, 1\.0\]"):
        bal.ray_segment_mass(0, 1.0, np.array([3.0, 1.0, 2.0]))


def test_short_segment_mass_against_mpmath():
    # one ray, p = 1/2: both edges of the sector carry the atom's image; an
    # ulp of a = 75^(1/2) or b moves the mass by a / (b - a) = 9.6e3 ulps
    x1, x2 = 75.0, 75.015625
    z = cmath.rect(1.0, 1.0)
    got = balayage_system(AtomicCharge([(z, 1.0)]), RaySystem([0.0])).ray_segment_mass(0, x1, x2)
    with mpmath.workdps(50):
        w = mpmath.sqrt(mpmath.mpc(z))
        a, b = mpmath.sqrt(x1), mpmath.sqrt(x2)
        arc = lambda lo, hi: (mpmath.atan((hi - w.real) / w.imag)
                              - mpmath.atan((lo - w.real) / w.imag)) / mpmath.pi
        want = float(arc(a, b) + arc(-b, -a))
        cond = float(a / (b - a))
    assert abs(got - want) <= 2.0 * sys.float_info.epsilon * cond * abs(want)


@pytest.mark.parametrize("z, x1, x2, q_sign", [
    (1 + 1j, 0.0, 2.0, 0),      # w on the semicircle over [0, 2]: exactly 1/2
    (1 + 0.5j, 0.0, 2.0, -1),   # inside the semidisk
    (1 + 0.5j, 0.0, 0.5, +1),   # outside it
])
def test_segment_mass_branches(z, x1, x2, q_sign):
    q = (z.real - x1) * (z.real - x2) + z.imag * z.imag
    assert (q > 0) - (q < 0) == q_sign
    bal = balayage_halfplane(AtomicCharge([(z, -1.5)]))
    want = -1.5 * hm_interval(z, Interval(x1, x2))
    assert bal.ray_segment_mass(0, x1, x2) == pytest.approx(want, rel=1e-15)
    assert bal.ray_segment_mass(0, x1, x2, variation=True) == pytest.approx(-want, rel=1e-15)
    if q_sign == 0:
        assert bal.ray_segment_mass(0, x1, x2) == -0.75


@pytest.mark.parametrize("z, x1, x2", [
    (cmath.rect(1e200, 1.0), 1.0, 2.0),      # far point: Q overflows, the far form
    (2 + 1j, 3.0, 3.0 * (1.0 + 1e-12)),      # short segment: b - a = 1e-12 * a
    (1 + 1j, 0.0, 2.0),                      # on the semicircle: Q = 0, exactly 1/2
    (1 + 0.5j, 0.0, 2.0),                    # inside the semidisk: Q < 0
])
def test_interval_measure_against_mpmath(z, x1, x2):
    """hm_interval and the one-atom half-plane sweep's ray_segment_mass share
    interval_form; both against the Poisson kernel integrated to 50 digits."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        kernel = lambda t: y / ((t - x) ** 2 + y * y)
        # mpmath's tolerance is absolute: integrate the kernel over its value at x1
        scale = kernel(x1)
        split = [x] if x1 < z.real < x2 else []
        want = float(mpmath.quad(lambda t: kernel(t) / scale, [x1, *split, x2])
                     * scale / mpmath.pi)
    got = (hm_interval(z, Interval(x1, x2)),
           balayage_halfplane(AtomicCharge([(z, 1.0)])).ray_segment_mass(0, x1, x2))
    assert all(type(g) is float for g in got)
    if z == 1 + 1j:
        assert got == (0.5, 0.5)
    for g in got:
        assert g == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("z, x2, scale", [
    (1 + 1j, 1e50, 1e-200),       # the products in Q and N underflowed to 0:
    (1 + 1j, 1e50, 1e-250),       # omega read 0
    (1 + 1j, 1e50, 1e-300),
    (0.999 + 0.1j, 1.0, 1e155),   # N overflowed while Q stayed finite: omega read 1/2
])
def test_interval_measure_is_scale_invariant_at_the_float_range_ends(z, x2, scale):
    """omega(scale z, scale I) = omega(z, I), for hm_interval and for the
    one-atom half-plane sweep's ray_segment_mass."""
    want = hm_interval(z, Interval(0.0, x2))
    got = (hm_interval(scale * z, Interval(0.0, scale * x2)),
           balayage_halfplane(AtomicCharge([(scale * z, 1.0)])).ray_segment_mass(
               0, 0.0, scale * x2))
    for g in got:
        assert g == pytest.approx(want, rel=1e-14, abs=0.0)


def test_far_point_tiny_interval_mass_against_mpmath():
    with mpmath.workdps(50):
        # half-plane sweep: ray 1 carries the image interval [-x2, -x1]
        z, x1, x2 = 3e4 + 2e4j, 1.0, 1.0 + 2.0 ** -30
        bal = balayage_halfplane(AtomicCharge([(z, 1.0)]))
        wr, wi = mpmath.mpf(z.real), mpmath.mpf(z.imag)
        want = (mpmath.atan((-x1 - wr) / wi) - mpmath.atan((-x2 - wr) / wi)) / mpmath.pi
        assert bal.ray_segment_mass(1, x1, x2) == pytest.approx(float(want), rel=1e-13)
        # three rays, p = 3/2: ray 0 is the lower edge of the atom's sector
        z, x2 = cmath.rect(1e3, 1.0), 1e-3
        bal = balayage_system(AtomicCharge([(z, 1.0)]), RaySystem(TARGETS[3]))
        p = mpmath.mpf(3) / 2
        w = abs(mpmath.mpc(z.real, z.imag)) ** p * mpmath.expj(p * mpmath.atan2(z.imag, z.real))
        want = (mpmath.atan((mpmath.mpf(x2) ** p - w.real) / w.imag)
                - mpmath.atan(-w.real / w.imag)) / mpmath.pi
        assert bal.ray_segment_mass(0, 0.0, x2) == pytest.approx(float(want), rel=1e-13)


def _mp_ray_density(z, sec, e, t):
    """Density of a unit atom z on the edge e of its sector, 50 digits: the
    power map and the Poisson kernel written out from the exact arg z.  A
    beta past 2*pi is its ray's angle plus the exact 2*pi, as arg z - alpha
    is reduced by the exact 2*pi."""
    beta = mpmath.mpf(sec.beta)
    if sec.beta >= 2 * PI:
        beta = mpmath.mpf(sec.beta - 2 * PI) + 2 * mpmath.pi
    p = mpmath.pi / (beta - mpmath.mpf(sec.alpha))
    zz = mpmath.mpc(z.real, z.imag)
    phi = (mpmath.arg(zz) - sec.alpha) % (2 * mpmath.pi)
    w = abs(zz) ** p * mpmath.expj(p * phi)
    t = mpmath.mpf(t)
    return p * t ** (p - 1) * w.imag / (mpmath.pi * ((e * t ** p - w.real) ** 2 + w.imag ** 2))


@pytest.mark.parametrize("z,rel", [
    (cmath.rect(1.0, 1e-7), 1e-14),        # next to the lower edge, p = 10.47
    (cmath.rect(3.0, 0.15), 1e-14),        # mid-sector, p = 10.47
    (cmath.rect(1.0, 0.3 - 1e-7), 1e-9),   # next to the upper edge, see below
    (cmath.rect(2.0, 0.3 + 1e-7), 1e-9),   # next to the wide sector's lower edge
    (cmath.rect(2.0, -1e-7), 1e-14),       # next to its upper edge, at 2*pi
])
def test_narrow_sector_density_matches_mpmath(z, rel):
    # Next to the edge at 0.3 the angle to it, 1e-7, comes from arg z - 0.3,
    # and arg z is rounded to about 3e-17: the density keeps about 3e-10
    # relative there, as hm_system does.  Next to the edge at 2*pi the angle
    # is 0 - arg z, with no 2*pi in it; formed as the aperture minus
    # 2*pi + (arg z - 0.3), it cost about 3e-9 relative.
    S = RaySystem([0.0, 0.3])
    bal = balayage_system(AtomicCharge([(z, 1.0)]), S)
    sec = S.sectors[bal.sector[0]]
    with mpmath.workdps(50):
        for j, e in ((S.thetas.index(sec.alpha), 1), (S.thetas.index(sec.beta % (2 * PI)), -1)):
            for t in (0.5, 1.0, 1.01, 3.0):
                want = _mp_ray_density(z, sec, e, t)
                got = bal.ray_density(j, t)
                assert abs(got - want) <= rel * abs(want), (j, t, got, want)


def test_sweep_arrays_are_built_once(monkeypatch):
    calls = Counter()
    for name in ("complementary_sectors", "reduce_to_halfplane"):
        original = getattr(ray_geometry, name)

        def counted(*args, _f=original, _name=name):
            calls[_name] += 1
            return _f(*args)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "balayage"]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    bal = balayage_system(random_charge(np.random.default_rng(50), 50),
                          RaySystem([0.3, 1.1, 2.0, 3.7, 5.5]))
    built = Counter(calls)
    assert built["complementary_sectors"] > 0  # the counters see the sweep itself
    for i in range(100):
        bal.ray_density(i % 5, 0.1 + 0.37 * i)
        bal.ray_segment_mass(i % 5, 0.0, 0.1 + 0.37 * i, variation=i % 2 == 1)
    assert calls == built


def test_sweep_reads_the_systems_sectors(monkeypatch):
    S = RaySystem([0.3, 1.1, 2.0, 3.7, 5.5])
    calls = Counter()
    original = ray_geometry.complementary_sectors

    def counted(*args):
        calls["complementary_sectors"] += 1
        return original(*args)
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "balayage"]:
        if vars(mod).get("complementary_sectors") is original:
            monkeypatch.setattr(mod, "complementary_sectors", counted)
    bal = balayage_system(random_charge(np.random.default_rng(50), 50), S)
    assert bal.swept.m.size > 0
    assert calls["complementary_sectors"] == 0
    assert S.sectors == tuple(original(S))


def test_swept_images_are_checked_when_the_sweep_is_built():
    # a lower atom given the upper half-plane as its host: its image w = z
    with pytest.raises(NotInUpperHalfPlane):
        BalayageCharge(None, AtomicCharge([]), AtomicCharge([(-1j, 1.0)]), [0])
    for sector in ([], [1, 0], [2], [-1]):  # one index per atom, into rays.sectors
        with pytest.raises(BadInput, match="per swept atom"):
            BalayageCharge(None, AtomicCharge([]), AtomicCharge([(1j, 1.0)]), sector)
    # |w| = |z|^2 underflows to 0 in the quarter plane's power map
    with pytest.raises(NotInUpperHalfPlane):
        balayage_system(AtomicCharge([(cmath.rect(1e-200, 0.5), 1.0)]),
                        RaySystem([0.0, PI / 2]))
    bal = balayage_halfplane(AtomicCharge([(1j, 1.0)]))
    assert isinstance(bal.swept, AtomicCharge)
    with pytest.raises(FrozenInstanceError):
        bal.swept = AtomicCharge([])


def test_the_swept_arrays_are_read_only():
    bal = balayage_system(AtomicCharge([(1 + 1j, 1.0), (-2 - 1j, -0.5)]),
                          RaySystem([0.0, PI / 2, PI]))
    assert bal.sector.tolist() == [0, 2]
    assert np.allclose(bal.w, [2j, 2 + 1j], rtol=0.0, atol=1e-15)
    for arr in (bal.swept.z, bal.swept.m, bal.sector, bal.w, *bal.ray_contributions(0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_a_sweeps_total_mass_is_one_correctly_rounded_sum():
    # kept 1e16, swept 1 and -1e16: two rounded sums gave 1e16 - 1e16 = 0
    bal = balayage_halfplane(AtomicCharge([(1, 1e16), (1j, 1), (2j, -1e16)]))
    assert bal.kept.m.tolist() == [1e16] and bal.swept.m.tolist() == [1.0, -1e16]
    assert bal.total_mass == 1.0


def test_the_halfplane_sweep_report_has_no_sector_and_no_system(charge_file, tmp_path):
    out = tmp_path / "bal.json"
    charge = charge_file([(0.5 + 1j, 1.0), (3.0, -0.25), (-1 - 2j, 0.5)])
    assert main(["balayage", "--charge", charge, "--samples", "2", "--out", str(out)]) == 0
    assert ('"balayage": {"kept": {"atoms": [{"im": 0.0, "mass": -0.25, "re": 3.0}, '
            '{"im": -2.0, "mass": 0.5, "re": -1.0}]}, "swept": [{"sector": null, '
            '"source": {"im": 1.0, "mass": 1.0, "re": 0.5}}]}, "charge": ') in out.read_text()


# ---------------------------------------------------------------------------
# The quadrature checks against their former routes, kept here as oracles


def _lindelof_differences_per_radius(nu, S, q, r0, radii):
    """check_lindelof_preservation's differences by the former route: the
    swept part integrated afresh over [r0, r] for every radius r."""
    bal = balayage_system(nu, S)
    diffs = []
    for r in radii:
        lb = lindelof_sum(bal.kept, q, r0, r) if bal.kept.m.size else 0.0 + 0.0j
        for j, th in enumerate(S.thetas):
            if bal.ray_contributions(j)[0].size:
                val, _ = quad(lambda t: t ** (-q) * bal.ray_density(j, t), r0, r,
                              epsabs=1e-10, limit=400)
                lb += cmath.exp(-1j * q * th) * val
        diffs.append(abs(lindelof_sum(nu, q, r0, r) - lb))
    return diffs


@pytest.mark.parametrize("seed, n, thetas, q, r0, radii", [
    (7, 25, (0.4, 3.0), 1, 1.0, (4, 8, 16, 32)),
    (8, 40, (0.3, 2.0, 4.0), 2, 1.0, (4, 8, 16, 32, 64, 128, 256)),
    (9, 30, (0.0, 1.0, 2.5, 4.5), 1, 0.5, (2, 3, 10, 40)),
])
def test_lindelof_shells_equal_the_integrals_from_r0(seed, n, thetas, q, r0, radii):
    nu = random_charge(np.random.default_rng(seed), n)
    S = RaySystem(thetas)
    rep = check_lindelof_preservation(nu, S, q, r0=r0, radii=radii)
    oracle = _lindelof_differences_per_radius(nu, S, q, r0, radii)
    for got, want in zip(rep["differences"], oracle, strict=True):
        assert abs(got - want) <= 1e-12


def _on_ray_by_scan(pts, t):
    """RayTestFunction.on_ray by its former linear scan over the sorted knots."""
    if not pts or t < pts[0][0] or t > pts[-1][0]:
        return 0.0
    for (ta, va), (tb, vb) in zip(pts, pts[1:]):
        if ta <= t <= tb:
            if tb == ta:
                return va
            return va + (vb - va) * (t - ta) / (tb - ta)
    return pts[-1][1]


KNOT = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.25]) | st.floats(0.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(knots=st.lists(st.tuples(KNOT, st.floats(0.0, 3.0)), min_size=1, max_size=9),
       probes=st.lists(st.floats(-1.0, 12.0), max_size=6))
def test_on_ray_bisection_equals_the_linear_scan(knots, probes):
    # values >= 0: a 0 at the first knot sorts first and keeps F continuous;
    # every value at the last knot is 0, so F returns to 0 there
    pts = sorted(knots)
    t0, t_end = pts[0][0], pts[-1][0]
    pts = [(t, 0.0 if t == t_end or (t, v) == pts[0] and t0 > 0.0 else v)
           for t, v in pts]
    F = RayTestFunction(RaySystem([0.0]), {0: pts})
    ts = [t for t, _ in F.breakpoints[0]]
    radii = ts + [math.nextafter(t, -1.0) for t in ts] + [
        math.nextafter(t, math.inf) for t in ts] + probes
    for t in radii:
        assert F.on_ray(0, t) == _on_ray_by_scan(F.breakpoints[0], t), t
    # the array form, on this ray and on a ray with no knots
    assert F.on_ray_array(0, np.array(radii)).tolist() == [F.on_ray(0, t) for t in radii]
    assert not F.on_ray_array(1, np.array(radii)).any()


def _pairing_from_zero(F, S, z):
    """_poisson_pairings by its former route: each edge integral over [0, hi]
    with its scale hints all through that range."""
    idx = S.sector_index(z)
    sec = S.sectors[idx]
    w, p = ray_geometry.reduce_to_halfplane(sec, z), sec.exponent
    total = 0.0
    for edge_ray, sign in ((idx, +1), ((idx + 1) % len(S), -1)):
        knots = F.ray_knots(edge_ray)
        if not knots:
            continue
        hi = max(knots) ** p
        pts = {min(t ** p, hi) for t in knots if t > 0.0}
        pts.update(abs(w) * 2.0 ** j for j in range(-3, 40) if 0.0 < abs(w) * 2.0 ** j < hi)
        val, _ = quad(lambda s: F.on_ray(edge_ray, s ** (1.0 / p)) * poisson_kernel(sign * s, w),
                      0.0, hi, epsabs=QUAD_TOL, limit=600,
                      points=sorted(q for q in pts if q < hi))
        total += val
    return total


@pytest.mark.parametrize("z", [cmath.rect(0.05, 1.0), cmath.rect(1.2, 0.7),
                               cmath.rect(7.0, 3.0), cmath.rect(0.3, 5.0),
                               cmath.rect(40.0, 2.2)])
def test_pairing_over_the_support_equals_the_integral_from_zero(z):
    S = RaySystem([0.3, 2.0, 4.0])
    F = RayTestFunction(S, {0: [(0.5, 0.0), (1.0, 1.0), (2.0, 0.0)],
                            1: [(5.0, 0.0), (6.0, -2.0), (9.0, 0.0)],
                            2: [(0.01, 0.0), (0.02, 0.5), (0.5, 0.5), (3.0, 0.0)]})
    idx = S.sector_index(z)
    w = ray_geometry.reduce_to_halfplane(S.sectors[idx], z)
    assert abs(_poisson_pairings(F, S, [idx], [w])[0] - _pairing_from_zero(F, S, z)) <= QUAD_TOL


@pytest.mark.parametrize("target, far", [
    (None, 1e200j),                              # the half-plane sweep: w = z
    ((0.0, PI / 2), cmath.rect(1e100, PI / 4)),  # p = 2: w = 1e200 i
])
def test_far_image_density_builds_without_warnings(target, far):
    nu = AtomicCharge([(far, 1.0), (cmath.rect(1.5, 0.6), -0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bal = balayage_halfplane(nu) if target is None else balayage_system(nu, RaySystem(target))
        m, w, p, e = bal.ray_contributions(0)  # the per-ray arrays are built here
    assert w.imag.max() >= 1e199
    # the former expression, in which (Im w)^2 overflows and the far term is 0
    dx = e * 0.7 ** p - w.real
    with np.errstate(over="ignore"):
        got = bal.ray_density(0, 0.7)  # (Re w)^2 of the p = 2 image overflows too
        want = float(np.sum(m * p * 0.7 ** (p - 1.0) * w.imag
                            / (math.pi * (dx * dx + w.imag * w.imag))))
    assert want != 0.0 and got == pytest.approx(want, rel=1e-14)
