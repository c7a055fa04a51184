"""The potential of a swept charge (sweep_potential_eval) as a Green sum,
checked against the kernel integrated over each ray's swept density: by scipy
quadrature on random charges, and by 50-digit mpmath quadrature at pinned
points."""

import cmath
import math
import warnings

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from balayage import (AtomicCharge, BadInput, NumericFailure, RaySystem,
                      balayage_halfplane, balayage_system, kernel_Kq,
                      sweep_potential_eval)

PI = math.pi
FIVE_RAYS = [0.1, 1.3, 2.5, 3.9, 5.0]  # sector exponents 2.24 ... 2.86


def _vertex_exponent(p, q):
    """a with the ray integrand ~ t^(a-1) at the vertex: the density behaves
    like t^(p-1) for each exponent of p, the kernel like t^(-q) for q >= 1
    and like log t for q = 0."""
    return min(p.tolist()) - max(q, 0)


def _ray_breakpoints(w, p, z):
    """Ascending radii: first the end c of the vertex piece, half the least of
    |z| and the images' radii, then |z| and the radii where the images w peak."""
    wp = list(zip(w.tolist(), p.tolist()))
    c = 0.5 * min([abs(z)] + [abs(wk) ** (1.0 / pk) for wk, pk in wp])
    peaks = {abs(z)} | {abs(wk.real) ** (1.0 / pk) for wk, pk in wp}
    return [c] + sorted(t for t in peaks if t > c)


def kernel_quadrature(bal, z, q):
    """The kernel integrated against each ray's swept density, plus the kept
    atoms' kernels: the swept potential by its definition.  scipy's quad
    integrates each ray piece by piece, with t = u^(1/a) on the first piece
    to remove the vertex singularity t^(a-1)."""
    z = complex(z)
    total = math.fsum(m * kernel_Kq(zeta, z, q)
                      for zeta, m in zip(bal.kept.z.tolist(), bal.kept.m.tolist()))
    spent = scale = 0.0
    for j, th in enumerate(bal.rays.thetas):
        _, w, p, _ = bal.ray_contributions(j)
        if not p.size:
            continue

        def f(t, j=j, th=th):
            return 0.0 if t == 0.0 else kernel_Kq(cmath.rect(t, th), z, q) * bal.ray_density(j, t)

        a = _vertex_exponent(p, q)
        pts = _ray_breakpoints(w, p, z)
        with warnings.catch_warnings():  # the error estimates are checked below
            warnings.simplefilter("ignore", IntegrationWarning)
            pieces = [quad(lambda u: f(u ** (1.0 / a)) * u ** (1.0 / a - 1.0) / a,
                           0.0, pts[0] ** a, epsabs=1e-12, epsrel=1e-12, limit=400)]
            pieces += [quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
                       for lo, hi in zip(pts, pts[1:])]
            pieces.append(quad(f, pts[-1], math.inf, epsabs=1e-12, epsrel=1e-12, limit=400))
        total += math.fsum(v for v, _ in pieces)
        spent += sum(e for _, e in pieces)
        scale += sum(abs(v) for v, _ in pieces)
    # half the tolerance the tests compare at, or quad's epsrel of the pieces
    assert spent <= 5e-10 + 1e-12 * scale, spent
    return total


def mp_kernel_quadrature(bal, z, q):
    """kernel_quadrature in 50-digit mpmath (tanh-sinh on the same pieces)."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)

        def K(zeta):
            if q == -1:
                return mpmath.log(abs(zeta - zm))
            w = zm / zeta
            return mpmath.log(abs(1 - w)) + mpmath.fsum(
                mpmath.re(w ** j) / j for j in range(1, q + 1))

        total = mpmath.fsum(m * K(mpmath.mpc(zeta))
                            for zeta, m in zip(bal.kept.z.tolist(), bal.kept.m.tolist()))
        for j, th in enumerate(bal.rays.thetas):
            m, w, p, edge = bal.ray_contributions(j)
            if not m.size:
                continue
            recs = list(zip(m.tolist(), w.tolist(), p.tolist(), edge.tolist()))
            e = mpmath.expj(mpmath.mpf(th))

            def f(t):
                dens = mpmath.fsum(
                    m * p * t ** (p - 1) * w.imag
                    / (mpmath.pi * ((edge * t ** p - w.real) ** 2 + w.imag ** 2))
                    for m, w, p, edge in recs)
                return K(t * e) * dens

            a = mpmath.mpf(_vertex_exponent(p, q))
            pts = [mpmath.mpf(t) for t in _ray_breakpoints(w, p, z)]
            total += mpmath.quad(lambda u: f(u ** (1 / a)) * u ** (1 / a - 1) / a,
                                 [0, pts[0] ** a])
            total += mpmath.quad(f, pts + [mpmath.inf])
        return total


# ---------------------------------------------------------------------------
# The Green sum against the kernel quadrature


@st.composite
def charges(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    return AtomicCharge([
        (cmath.rect(math.exp(draw(st.floats(-1.0, 3.0))), draw(st.floats(0.0, 2.0 * PI))),
         draw(st.floats(0.1, 2.0)) * draw(st.sampled_from((1.0, -1.0))))
        for _ in range(n)])


def _off_rays(thetas, phi, gap=0.02):
    return all(abs(math.remainder(phi - t, 2.0 * PI)) >= gap for t in thetas)


@pytest.mark.parametrize("thetas,q", [
    ([0.0, PI], -1), ([0.0, PI], 0),
    ([0.3, 2.0, 4.0], -1), ([0.3, 2.0, 4.0], 0),
    (FIVE_RAYS, -1), (FIVE_RAYS, 0), (FIVE_RAYS, 1), (FIVE_RAYS, 2),
    ([1.0], -1), ([1.0], 0),
    (None, -1), (None, 0),  # the half-plane sweep onto R
])
@settings(max_examples=8, deadline=None)
@given(nu=charges(), r=st.floats(-1.0, 3.0), phi=st.floats(0.0, 2.0 * PI))
def test_green_sum_matches_the_kernel_quadrature(thetas, q, nu, r, phi):
    bal = balayage_halfplane(nu) if thetas is None else balayage_system(nu, RaySystem(thetas))
    # the oracle's quadrature needs the peaks of the integrands resolved
    assume(_off_rays(bal.rays.thetas, phi))
    assume(all(_off_rays(bal.rays.thetas, cmath.phase(zeta)) for zeta in nu.z.tolist()))
    assume(all(abs(abs(zeta) - math.exp(r)) > 1e-3 for zeta in nu.z.tolist()))
    z = cmath.rect(math.exp(r), phi)
    assert sweep_potential_eval(bal, z, genus=q) == pytest.approx(
        kernel_quadrature(bal, z, q), abs=1e-9)


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_green_sum_at_a_swept_atom_is_its_limit(q):
    S = RaySystem([0.3, 2.0, 4.0])
    zeta = cmath.rect(2.0, 1.0)
    bal = balayage_system(AtomicCharge([(zeta, 1.0), (cmath.rect(3.0, 3.0), -0.5)]), S)
    got = sweep_potential_eval(bal, zeta, genus=q)
    assert got == pytest.approx(kernel_quadrature(bal, zeta, q), abs=1e-9)
    # the limit is continuous: a point 1e-7 away moves it by O(1e-7)
    assert sweep_potential_eval(bal, zeta * (1.0 + 1e-7j), genus=q) == pytest.approx(got, abs=1e-6)


@pytest.mark.parametrize("system,atoms,z,q", [
    # z and zeta 1e-4 rad inside the same edge of the sector (0.3, 2)
    ([0.3, 2.0, 4.0], [(cmath.rect(2.0, 0.3 + 1e-4), 1.0), (cmath.rect(5.0, 3.0), -0.7)],
     cmath.rect(3.0, 0.3 + 1e-4), 0),
    ([0.3, 2.0, 4.0], [(cmath.rect(2.0, 2.0 - 1e-4), 1.0)], cmath.rect(1.5, 2.0 - 2e-4), -1),
    # |z| >> |zeta|, in the same sector and in another one
    ([0.3, 2.0, 4.0], [(cmath.rect(0.7, 1.0), 1.0), (cmath.rect(1.2, 5.0), 0.4)],
     cmath.rect(1e6, 1.2), 0),
    (FIVE_RAYS, [(cmath.rect(0.5, 0.7), -1.0)], cmath.rect(1e5, 0.6), 2),
    # z equal to a swept atom
    ([0.3, 2.0, 4.0], [(cmath.rect(2.0, 1.0), 1.0), (cmath.rect(3.0, 3.0), -0.5)],
     cmath.rect(2.0, 1.0), 1),
    (None, [(1.0 + 2.0j, 0.8)], 1.0 + 2.0j, 0),
])
def test_green_sum_matches_mpmath(system, atoms, z, q):
    nu = AtomicCharge(atoms)
    bal = balayage_halfplane(nu) if system is None else balayage_system(nu, RaySystem(system))
    want = float(mp_kernel_quadrature(bal, z, q))
    assert sweep_potential_eval(bal, z, genus=q) == pytest.approx(
        want, rel=1e-13)


# ---------------------------------------------------------------------------
# Where the sum has no value


def test_divergent_genus_is_bad_input():
    # sector (0, 2) has p = pi/2 <= 2: the ray-1 integral from eps to 1 reads
    # -35, -289, -2122, -15350 for eps = 1e-2 ... 1e-8
    bal = balayage_system(AtomicCharge([(cmath.rect(2.0, 1.0), 1.0)]), RaySystem([0.0, 2.0, 4.0]))
    with pytest.raises(BadInput, match="diverges"):
        sweep_potential_eval(bal, 5.0 + 2.0j, genus=2)
    assert math.isfinite(sweep_potential_eval(bal, 5.0 + 2.0j, genus=1))
    # the half-plane has p = 1, so genus 1 already diverges
    with pytest.raises(BadInput, match="diverges"):
        sweep_potential_eval(balayage_halfplane(AtomicCharge([(2.0j, 1.0)])), 5.0 + 2.0j, genus=1)


def test_non_finite_value_is_a_numeric_failure():
    bal = balayage_system(AtomicCharge([(2.0j, 1e308), (-3.0 + 1.0j, 1e308)]), RaySystem([0.0, PI]))
    with pytest.raises(NumericFailure):
        sweep_potential_eval(bal, 1e6 + 1.0j)
