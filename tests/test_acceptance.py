"""End-to-end acceptance runs, one test per numbered criterion.

Each test prints one "criterion N: PASS ..." line (visible with -s or on
failure) and enforces its runtime budget.  Seeds are fixed; every expected
number is either computed in place from an independent route or frozen from
a closed form stated in the assertion's comment.
"""

import cmath
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from balayage import (AtomicCharge, CanonicalPotential, RaySystem,
                      RayTestFunction, Sector, StepFunction, angular_density,
                      balayage_halfplane, balayage_system, carleman_check,
                      check_fubini, check_ges_bound, check_ges_bound_system,
                      check_lindelof_preservation, check_lipschitz,
                      check_thcup_bound, class_A_functionals,
                      complementary_sectors, convergence_integral_inf,
                      convergence_integral_zero, crg_on_rays,
                      distribution_on_R, hm_bounds, hm_interval,
                      hm_interval_quad, hm_sector_disk, hm_sector_disk_bounds,
                      indicator_estimate, kernel_Kq,
                      kernel_Kq_radial_derivative, potential_eval)

PI = math.pi


def _finish(num, t0, budget, detail):
    elapsed = time.monotonic() - t0
    assert elapsed <= budget, f"criterion {num}: {elapsed:.1f}s over budget {budget}s"
    print(f"criterion {num}: PASS {detail} [{elapsed:.2f}s]")


def _random_z(rng):
    return complex(rng.uniform(-50.0, 50.0),
                   math.exp(rng.uniform(math.log(0.01), math.log(100.0))))


def _random_interval(rng):
    t1 = rng.uniform(-60.0, 60.0)
    t2 = t1 + rng.uniform(1e-3, 40.0)
    return (t1, t2)


def test_criterion_01_closed_form_vs_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10000):
        z = _random_z(rng)
        I = _random_interval(rng)
        worst = max(worst, abs(hm_interval(z, I) - hm_interval_quad(z, I)))
    assert worst <= 1e-8
    # three-case boundary: points on the semicircle over I carry measure 1/2
    semi_worst = 0.0
    for _ in range(100):
        t1, t2 = _random_interval(rng)
        c, r = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
        th = rng.uniform(0.05, PI - 0.05)
        z = complex(c + r * math.cos(th), r * math.sin(th))
        semi_worst = max(semi_worst, abs(hm_interval(z, (t1, t2)) - 0.5))
    assert semi_worst <= 1e-10
    _finish(1, t0, 10.0,
            f"worst |closed-quad| {worst:.2e}, semicircle dev {semi_worst:.2e}")


def test_criterion_02_bound_dominance():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    slack = 1e-12
    violations = 0
    checked = 0
    for _ in range(8000):
        z = _random_z(rng)
        I = _random_interval(rng)
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(1.05, 5.0)
        exact = hm_interval(z, I)
        rep = hm_bounds(z, I, a=a, b=b)
        for e in rep.entries:
            checked += 1
            if e.side == "upper" and exact > e.value + slack:
                violations += 1
            if e.side == "lower" and e.value > exact + slack:
                violations += 1
    for _ in range(2000):
        alpha = rng.uniform(0.0, 2.0 * PI)
        gamma = rng.uniform(0.3, 2.0 * PI)
        sec = Sector(alpha, alpha + gamma)
        az = math.exp(rng.uniform(math.log(0.1), math.log(50.0)))
        z = cmath.rect(az, alpha + gamma * rng.uniform(0.05, 0.95))
        a = rng.uniform(0.1, 0.9)
        if rng.random() < 0.5:
            r = a * az * rng.uniform(0.2, 1.0)
        else:
            r = az / (a * rng.uniform(0.2, 1.0))
        disk_exact = hm_sector_disk(sec, z, r)
        tail_exact = 1.0 - disk_exact
        for name, bound in hm_sector_disk_bounds(sec, z, r, a).items():
            checked += 1
            exact = disk_exact if name == "disk_upper" else tail_exact
            if exact > bound + slack:
                violations += 1
    assert violations == 0
    _finish(2, t0, 20.0, f"{checked} bound evaluations, 0 violations")


def test_criterion_03_balayage_exactness():
    t0 = time.monotonic()
    bal = balayage_halfplane(AtomicCharge([(2j, 1.0)]))
    val = distribution_on_R(bal, 2.0)
    assert val == 0.25  # arctan(2/2)/pi = (pi/4)/pi exactly in floats
    S = RaySystem([0.0, PI])
    signed = balayage_system(AtomicCharge([(1j, 1.0), (-1j, -1.0)]), S)
    pts = [0.3 * k for k in range(1, 11)]
    for t in pts:
        assert distribution_on_R(signed, t) == 0.0
        assert distribution_on_R(signed, -t) == 0.0
    var = balayage_system(AtomicCharge([(1j, 1.0), (-1j, 1.0)]), S)
    for t in pts:
        want = 2.0 / (PI * (1.0 + t * t))
        assert var.ray_density(0, t) == pytest.approx(want, abs=1e-12)
        assert var.ray_density(1, t) == pytest.approx(want, abs=1e-12)
    _finish(3, t0, 1.0, "1/4 exact, signed sweep identically 0, density 2/(pi(1+t^2))")


def _halfline_mass(w, edge):
    # omega(w, (0, inf)) = 1/2 + arctan(Re w / Im w)/pi; the edge sign flips
    # the half-line to (-inf, 0)
    return 0.5 + edge * math.atan2(w.real, w.imag) / PI


def test_criterion_04_mass_conservation():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    systems = [RaySystem([0.0]),
               RaySystem([0.0, PI]),
               RaySystem([0.0, 2.0 * PI / 3.0, 4.0 * PI / 3.0]),
               RaySystem([0.0, PI / 2.0, PI, 3.0 * PI / 2.0]),
               RaySystem([0.3, 1.1, 2.0, 3.7, 5.5])]
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        atoms = []
        for _ in range(n):
            az = math.exp(rng.uniform(math.log(0.1), math.log(100.0)))
            atoms.append((cmath.rect(az, rng.uniform(0.0, 2.0 * PI)),
                          rng.uniform(0.05, 2.0)))
        nu = AtomicCharge(atoms)
        for S in systems:
            bal = balayage_system(nu, S)
            total = math.fsum(bal.kept.m.tolist())
            for j in range(len(S.thetas)):
                m, w, _, e = bal.ray_contributions(j)
                total += math.fsum(
                    mk * _halfline_mass(wk, ek)
                    for mk, wk, ek in zip(m.tolist(), w.tolist(), e.tolist()))
            worst = max(worst, abs(total - nu.total_mass))
    assert worst <= 1e-10
    _finish(4, t0, 10.0, f"500 sweeps, worst mass defect {worst:.2e}")


def test_criterion_05_fubini_pairing():
    t0 = time.monotonic()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        thetas = np.sort(rng.uniform(0.0, 2.0 * PI, size=k))
        while np.min(np.diff(thetas, append=thetas[0] + 2.0 * PI)) < 0.2:
            thetas = np.sort(rng.uniform(0.0, 2.0 * PI, size=k))
        S = RaySystem([float(t) for t in thetas])
        n = int(rng.integers(1, 9))
        atoms = []
        for _ in range(n):
            az = math.exp(rng.uniform(math.log(0.3), math.log(20.0)))
            m = rng.uniform(0.05, 2.0) * (1.0 if rng.random() < 0.6 else -1.0)
            atoms.append((cmath.rect(az, rng.uniform(0.0, 2.0 * PI)), m))
        nu = AtomicCharge(atoms)
        breakpoints = {}
        for j in sorted(rng.choice(k, size=int(rng.integers(1, 4)))):
            lo = rng.uniform(0.0, 3.0)
            mid = lo + rng.uniform(0.2, 3.0)
            hi = mid + rng.uniform(0.2, 3.0)
            breakpoints[int(j)] = [(lo, 0.0), (mid, rng.uniform(0.2, 2.0)),
                                   (hi, 0.0)]
        F = RayTestFunction(S, breakpoints)
        res = check_fubini(nu, S, F)
        worst = max(worst, abs(res.lhs - res.rhs))
    assert worst <= 1e-8
    _finish(5, t0, 30.0, f"50 pairings, worst |lhs-rhs| {worst:.2e}")


def test_criterion_06_carleman_identity():
    t0 = time.monotonic()
    nu0 = AtomicCharge([(2j, 1.0)])
    v0 = lambda z: math.log(abs(z - 2j)) if z != 2j else 0.0
    res0 = carleman_check(nu0, v0, 1.0, 10.0)
    assert res0.holds
    assert res0.lhs == pytest.approx(0.48, abs=1e-12)
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(70):
        r = 8.0 if i % 2 == 0 else 32.0
        n = int(rng.integers(1, 7))
        atoms = []
        for _ in range(n):
            az = rng.uniform(1.2, 0.9 * r)
            ph = rng.uniform(0.15, PI - 0.15)
            m = rng.uniform(0.1, 2.0) * (1.0 if rng.random() < 0.7 else -1.0)
            atoms.append((cmath.rect(az, ph), m))
        nu = AtomicCharge(atoms)
        P = CanonicalPotential(nu, genus=-1)
        v = lambda z: potential_eval(P, z)
        res = carleman_check(nu, v, 1.0, r, tol=1e-6)
        assert res.holds, (atoms, r, res.detail)
        worst = max(worst, res.detail["residual"])
    _finish(6, t0, 60.0, f"70 charges + analytic 0.48 case, worst residual {worst:.2e}")


def test_criterion_07_theorem_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(707)
    # interval-mass bound, both interval signs
    for _ in range(100):
        n = int(rng.integers(1, 9))
        atoms = []
        for _ in range(n):
            az = math.exp(rng.uniform(math.log(0.2), math.log(50.0)))
            atoms.append((cmath.rect(az, rng.uniform(0.0, 2.0 * PI)),
                          rng.uniform(0.05, 2.0)))
        nu = AtomicCharge(atoms)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        lo = rng.uniform(0.2, 5.0)
        hi = lo + rng.uniform(0.05, 3.0)
        t1, t2 = (lo, hi) if sign > 0 else (-hi, -lo)
        res = check_thcup_bound(nu, t1, t2, rng.uniform(0.15, 0.85))
        assert res.holds, (atoms, t1, t2)
    # gauge-disk bound, half-plane and system variants
    S3 = RaySystem([0.0, 2.0 * PI / 3.0, 4.0 * PI / 3.0])
    for i in range(100):
        n = int(rng.integers(1, 9))
        atoms = []
        for _ in range(n):
            az = math.exp(rng.uniform(math.log(0.2), math.log(30.0)))
            atoms.append((cmath.rect(az, rng.uniform(0.0, 2.0 * PI)),
                          rng.uniform(0.05, 2.0)))
        nu = AtomicCharge(atoms)
        scale = rng.uniform(1.5, 3.0)
        r = rng.uniform(0.5, 5.0)
        if i % 2 == 0:
            res = check_ges_bound(nu, lambda s: scale * s, r)
        else:
            res = check_ges_bound_system(nu, S3, lambda s: scale * s, r)
        assert res.holds, (atoms, scale, r)
    # Lipschitz modulus on a separated family (Im z/|z| >= 1/2), order p = 2:
    # fit b on an inner window, verify the b|x0|^(p-1) form farther out
    p = 2.0
    sep_atoms = [(cmath.rect(math.sqrt(k), rng.uniform(PI / 6.0, 5.0 * PI / 6.0)),
                  1.0) for k in range(1, 301)]
    sep = AtomicCharge(sep_atoms)
    fit = check_lipschitz(sep, 1.0, 4.0, p=p)
    assert math.isfinite(fit.modulus) and fit.fitted_b is not None
    for x1, x2 in ((4.0, 8.0), (8.0, 16.0), (-16.0, -4.0)):
        rep = check_lipschitz(sep, x1, x2)
        assert math.isfinite(rep.modulus)
        x_hi = max(abs(x1), abs(x2))
        assert rep.modulus <= 1.25 * fit.fitted_b * x_hi ** (p - 1.0)
    _finish(7, t0, 30.0, "200 bound cases, 0 violations; Lipschitz form verified")


def test_criterion_08_kernel_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    h = 1e-5
    done = 0
    while done < 200:
        q = int(rng.integers(0, 4))
        t = rng.uniform(0.5, 3.0)
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(z - t) < 0.3 or abs(z) < 0.1:
            continue
        exact = kernel_Kq_radial_derivative(z, t, q)
        fd = (kernel_Kq(t + h, z, q) - kernel_Kq(t - h, z, q)) / (2.0 * h)
        assert abs(exact - fd) <= 1e-6
        done += 1
    # parts identities on random step functions, exact to 1e-12
    for _ in range(60):
        n = int(rng.integers(1, 9))
        pts = np.sort(rng.uniform(0.05, 9.0, size=n))
        jumps = rng.uniform(0.05, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        f = StepFunction.from_events(list(zip(map(float, pts), map(float, jumps))))
        p = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        rep = convergence_integral_inf(f, p, 0.01, 20.0)
        assert rep.parts_residual <= 1e-12
        zrep = convergence_integral_zero(f, p, 10.0)
        assert zrep.log_residual <= 1e-12
        if p > 0.0:
            assert zrep.poch_residual <= 1e-12
    # class-A identity: both alternative routes to the edge functional
    for center in (1.5j, -0.7 + 2.0j):
        v = lambda z: math.log(abs(z - center)) if z != center else 0.0
        res = class_A_functionals(v, 0.0, PI, 1.0, 12.0, ())
        assert res.residual_J <= 1e-6
        assert res.residual_double <= 1e-6
    _finish(8, t0, 10.0, "200 derivative checks, 60 parts identities, class-A routes")


def test_criterion_09_lindelof_preservation():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    S = RaySystem([0.0, PI])
    radii = (4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        atoms = []
        for _ in range(n):
            z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0))
            m = rng.uniform(0.1, 1.5)
            atoms += [(z, m), (complex(-z.real, z.imag), m)]
        rep = check_lindelof_preservation(AtomicCharge(atoms), S, 1, radii=radii)
        assert rep["bounded"], rep
    _finish(9, t0, 20.0, "20 symmetric families, difference trace bounded")


def test_criterion_10_crg_diagnostics():
    t0 = time.monotonic()
    # arithmetic progression: stable limits, small exceptional density
    M = 20000
    n = StepFunction.from_events([(float(k), 1.0) for k in range(1, M + 1)])
    rep = crg_on_rays([n, n], [0.0, PI], 1.0, truncation=float(M))
    assert rep.stable
    assert rep.exceptional_density <= 0.05
    # designed irregular charge: lacunary gaps keep the kernel sums drifting
    pts = []
    k = 1.0
    while k <= 141.0:
        pts.append(k)
        k = math.ceil(k * 1.6)
    lac = StepFunction.from_events([(q, 1.0) for q in pts])
    bad = crg_on_rays([lac, lac], [0.0, PI], 1.0, truncation=20000.0)
    assert not bad.stable
    # sine zeros: angular density 2/pi and indicator ~ 1 at pi/2
    N = 2000
    nu = AtomicCharge([(k * PI, 1.0) for k in range(1, N + 1)]
                      + [(-k * PI, 1.0) for k in range(1, N + 1)])
    dens = angular_density(nu, -0.2, PI + 0.2, 1.0)
    assert dens["limit"] == pytest.approx(2.0 / PI, abs=0.02)
    Ni = 5000
    atoms = [(k * PI, 1.0) for k in range(1, Ni + 1)]
    atoms += [(-k * PI, 1.0) for k in range(1, Ni + 1)]
    P = CanonicalPotential(AtomicCharge(atoms), genus=1)
    ind = indicator_estimate(lambda z: potential_eval(P, z), PI / 2.0, 1.0,
                             (10.0, Ni * PI / 4.0))
    assert ind == pytest.approx(1.0, abs=0.05)
    _finish(10, t0, 60.0,
            f"stable progression, flagged irregular, density {dens['limit']:.4f}, "
            f"indicator {ind:.4f}")
