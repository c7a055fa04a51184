import cmath
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from balayage import (AtomicCharge, BadInput, StepFunction, angular_density,
                      crg_on_rays, exgr2_functionals, indicator_estimate,
                      kernel_Kq, pv_kernel_integral)
from balayage.numerics import ANGULAR_TOL
from balayage.regular_growth import _check_convergence_class
from balayage.ray_geometry import TWO_PI, RaySystem, normalize_angle

PI = math.pi


def counting_arith(step, count):
    return StepFunction.from_events([(step * k, 1.0) for k in range(1, count + 1)])


def test_indicator_examples():
    assert indicator_estimate(lambda z: abs(z), 0.7, 1.0, (4.0, 256.0)) == \
        pytest.approx(1.0, abs=1e-12)
    pos = lambda z: max(z.real, 0.0)
    assert indicator_estimate(pos, 0.0, 1.0, (4.0, 256.0)) == pytest.approx(1.0)
    assert indicator_estimate(pos, PI, 1.0, (4.0, 256.0)) == 0.0
    with pytest.raises(BadInput):
        indicator_estimate(pos, 0.0, 0.0, (4.0, 256.0))


def test_indicator_sine_zero_potential():
    # genus-1 potential of the sine zeros has indicator ~ |sin theta|
    from balayage import CanonicalPotential, potential_eval
    N = 5000
    atoms = [(k * PI, 1.0) for k in range(1, N + 1)]
    atoms += [(-k * PI, 1.0) for k in range(1, N + 1)]
    P = CanonicalPotential(AtomicCharge(atoms), genus=1)
    v = lambda z: potential_eval(P, z)
    got = indicator_estimate(v, PI / 2.0, 1.0, (10.0, N * PI / 4.0))
    assert got == pytest.approx(1.0, abs=0.05)


# ---------------------------------------------------------------------------
# The principal value by quadrature: the oracle for the library's jump sum


def _pv_kernel(z, t, q):
    """Re(z^{q+1} / (t^{q+1} (z - t))), the density paired with n(t)."""
    return ((z / t) ** (q + 1) / (z - t)).real


def _level_integral(z, q, a, b):
    val, err = quad(lambda t: _pv_kernel(z, t, q), a, b, epsabs=1e-10, epsrel=1e-10,
                    limit=200)
    assert err <= 1e-8
    return val


def _plain_integral(n, q, z):
    """Improper integral for z off the positive axis: piecewise quadrature
    plus the exact constant-tail term."""
    bounds = list(n.points)
    total = sum(n(0.5 * (a + b)) * _level_integral(z, q, a, b)
                for a, b in zip(bounds, bounds[1:]))
    return total + n(bounds[-1]) * kernel_Kq(bounds[-1], z, q)


def _excision_values(n, q, x, eps=1e-2):
    """Symmetric-excision integrals at real x > 0 for eps, eps/2, eps/4, eps/8."""
    pts = list(n.points)
    eps0 = min(eps, 0.45 * min(abs(p - x) for p in pts), 0.45 * x)

    def value_at(e):
        T = 2.0 * max(pts[-1], x + 1.0)
        cuts = sorted(set(c for c in pts + [x - e, x + e, T] if pts[0] <= c <= T))
        total = sum(n(0.5 * (a + b)) * _level_integral(x, q, a, b)
                    for a, b in zip(cuts, cuts[1:]) if not x - e <= 0.5 * (a + b) <= x + e)
        return total + n(T) * kernel_Kq(T, complex(x), q)

    return [value_at(eps0 / 2 ** k) for k in range(4)]


def pv_quadrature(n, q, z):
    """The principal value by quadrature: plain off the positive axis; at real
    x > 0 symmetric excision, Richardson-extrapolated in eps (the pole's odd
    part cancels, and two sweeps clear the eps and eps^3 terms)."""
    z = complex(z)
    if not (z.imag == 0.0 and z.real > 0.0):
        return _plain_integral(n, q, z)
    vals = _excision_values(n, q, z.real)
    r1 = [2.0 * b - a for a, b in zip(vals, vals[1:])]
    r2 = [(8.0 * b - a) / 7.0 for a, b in zip(r1, r1[1:])]
    assert abs(r2[-1] - r2[-2]) <= 1e-6
    return r2[-1]


def test_pv_zero_function():
    assert pv_kernel_integral(StepFunction.from_events([]), 0, 2.0) == 0.0


def test_pv_unit_step_routes_agree():
    n = StepFunction.from_events([(1.0, 1.0)])
    # off-axis point: both routes equal log|1 - z| ... for q = 0 the kernel
    # integral of a unit jump at 1 evaluated at z = 2i is log sqrt(5)
    want = math.log(math.sqrt(5.0))
    exc = pv_quadrature(n, 0, 2j)
    stj = pv_kernel_integral(n, 0, 2j)
    assert exc == pytest.approx(want, abs=1e-8)
    assert stj == pytest.approx(want, abs=1e-12)
    # positive-axis point: principal value with the singular factor
    exc = pv_quadrature(n, 0, 2.0)
    stj = pv_kernel_integral(n, 0, 2.0)
    assert stj == 0.0
    assert exc == pytest.approx(0.0, abs=1e-8)


def test_pv_refinement_trace_stabilizes():
    # raw excision values converge linearly in eps: halving the excision
    # width halves the successive differences
    n = StepFunction.from_events([(1.0, 1.0), (3.0, 2.0)])
    vals = _excision_values(n, 1, 2.0)
    assert len(vals) == 4
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert diffs[1] <= 0.7 * diffs[0]
    assert diffs[2] <= 0.7 * diffs[1]
    # two-point Richardson from the last pair reproduces the extrapolated value
    extrap = 2.0 * vals[-1] - vals[-2]
    final = pv_kernel_integral(n, 1, 2.0)
    assert extrap == pytest.approx(final, abs=5e-5)


def test_pv_singular_jump_rejected():
    n = StepFunction.from_events([(2.0, 1.0)])
    with pytest.raises(BadInput):
        pv_kernel_integral(n, 0, 2.0)


@given(st.floats(min_value=0.3, max_value=4.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=40, deadline=None)
def test_pv_single_jump_routes_agree(pos, mass, q):
    n = StepFunction.from_events([(pos, mass)])
    z = complex(1.1 * pos, 0.8)
    exc = pv_quadrature(n, q, z)
    stj = pv_kernel_integral(n, q, z)
    assert exc == pytest.approx(stj, abs=1e-7)


def _mp_jump_sum(jumps, q, z):
    """50-digit sum_i J_i K_q(p_i, z) over the jumps (p_i, J_i)."""
    z = mpmath.mpc(z)
    return mpmath.fsum(J * (mpmath.log(abs(1 - z / p)) + mpmath.fsum(
        mpmath.re((z / p) ** j) / j for j in range(1, q + 1))) for p, J in jumps)


def _mp_pv_quadrature(jumps, q, z):
    """50-digit int n(t) Re(z^{q+1} / (t^{q+1} (z - t))) dt for z off the axis,
    level by level from the first jump to infinity."""
    z = mpmath.mpc(z)
    f = lambda t: mpmath.re(z ** (q + 1) / (t ** (q + 1) * (z - t)))
    pts = sorted(jumps)
    ends = [p for p, _ in pts[1:]] + [mpmath.inf]
    return mpmath.fsum(sum(J for _, J in pts[:i + 1]) * mpmath.quad(f, [p, b])
                       for i, ((p, _), b) in enumerate(zip(pts, ends)))


@pytest.mark.parametrize("jumps,q,z", [
    ([(3.0, 1.0), (5.0, -0.5)], 0, 3.0 * (1.0 + 1e-6)),    # real z next to a jump
    ([(3.0, 1.0), (5.0, -0.5)], 1, 3.0 + 3e-7j),           # off the axis, next to it
    ([(1.0, 1.0), (2.0, 2.0), (5.0, -0.5)], 12, cmath.rect(3.0, 0.7)),   # large q
    ([(1.0, 1.0), (2.0, 2.0), (5.0, -0.5)], 12, cmath.rect(0.5, 0.7)),   # only the tail left
    ([(1.0, 1.0), (2.0, 2.0), (5.0, -0.5)], 30, cmath.rect(30.0, 0.7)),
])
def test_pv_jump_sum_matches_mpmath(jumps, q, z):
    got = pv_kernel_integral(StepFunction.from_events(jumps), q, z)
    # the float sum is exact for inputs within a few ulps: its terms carry
    # |z| / |z - p| (the log) and |z / p|^j (the powers) ulps each
    cond = sum(abs(J) * (abs(z) / abs(z - p) + sum(abs(z / p) ** j for j in range(1, q + 1)))
               for p, J in jumps)
    with mpmath.workdps(50):
        want = _mp_jump_sum(jumps, q, z)
        if complex(z).imag != 0.0:
            assert abs(_mp_pv_quadrature(jumps, q, z) - want) <= mpmath.mpf(10) ** -40
    assert abs(got - float(want)) <= 1e-15 * cond



@pytest.mark.parametrize("q", [0, 1])
def test_pv_next_to_a_jump_is_accurate_to_the_last_bits(q):
    # log|p - z| - log p: p - z is exact here, where 1 - z/p lost about
    # |z| / |z - p| = 1e6 ulps (1.5e-10 off the 50-digit value)
    z = 3.0 * (1.0 + 1e-6)
    got = pv_kernel_integral(StepFunction.from_events([(3.0, 1.0)]), q, z)
    with mpmath.workdps(50):
        want = _mp_jump_sum([(3.0, 1.0)], q, z)
    assert abs(got - float(want)) <= 1e-15 * abs(float(want))


@pytest.mark.parametrize("p, z, q", [(1e4, 2 + 1j, 2), (1e12, 3 + 0.5j, 1)])
def test_pv_far_jump_is_accurate_to_the_last_bits(p, z, q):
    # log|p - z| - log p cancels to about eps |log p| on a jump far past z
    # (4.2e-16 on a term of -6.7e-13; 1.5e-15 on -4.4e-24); the log1p form
    # of log|1 - z/p| is accurate to about eps |z/p|
    got = pv_kernel_integral(StepFunction.from_events([(p, 1.0)]), q, z)
    with mpmath.workdps(50):
        want = _mp_jump_sum([(p, 1.0)], q, z)
    cond = abs(z) / abs(z - p) + sum(abs(z / p) ** j for j in range(1, q + 1))
    assert abs(got - float(want)) <= 1e-15 * cond


def _stieltjes_per_call(n, q, z):
    """The jump sum as one call per radius formed it: arrays from the lists,
    log p_i again, one formula for the near jumps and one for p > 2|z|."""
    pts = np.asarray(list(n.points))
    jmp = np.asarray(list(n.jumps))
    if z == 0:
        return 0.0
    if np.any(pts == z):
        raise BadInput(f"kernel is singular at the jump point {z}")
    far = pts > 2.0 * abs(z)
    wp = z / pts
    val = np.log(np.abs(pts - z)) - np.log(pts)
    val[far] = 0.5 * np.log1p(wp.real[far] * wp.real[far] + wp.imag[far] * wp.imag[far]
                              - 2.0 * wp.real[far])
    pw = wp
    for j in range(1, q + 1):
        val = val + pw.real / j
        pw = pw * wp
    return float(np.dot(jmp, val))


def _crg_values_per_radius(n_by_ray, thetas, p, radii):
    """crg's scaled kernel sums, one jump sum per (ray, radius, ray'), after
    crg's own check that each count converges at order q."""
    q = int(math.floor(p))
    for n in n_by_ray:
        _check_convergence_class(n, q)
    out = []
    for theta_j in thetas:
        values = []
        for r in radii:
            total = 0.0
            for n, theta_jp in zip(n_by_ray, thetas):
                delta = normalize_angle(theta_j - theta_jp)
                if delta < ANGULAR_TOL or TWO_PI - delta < ANGULAR_TOL:
                    w = complex(r)
                elif abs(delta - math.pi) < ANGULAR_TOL:
                    w = complex(-r)
                else:
                    w = cmath.rect(r, delta)
                total += _stieltjes_per_call(n, q, w)
            values.append(total / r ** p)
        out.append(values)
    return out


@st.composite
def ray_counts(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    thetas = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=6.2),
                                  min_size=k, max_size=k, unique=True)))
    # equal points merge and cancelling jumps drop out
    pool = st.sampled_from([0.5, 1.0, 2.0, 3.5, 8.0, 8.0, 40.0, 300.0, 1e4])
    counts = [StepFunction.from_events(draw(st.lists(st.tuples(
        st.one_of(pool, st.floats(min_value=0.1, max_value=2e4)),
        st.sampled_from([-1.0, 1.0, 0.5, 2.0])), max_size=12))) for _ in thetas]
    return counts, thetas


@given(ray_counts(), st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       st.lists(st.floats(min_value=0.3, max_value=5e3), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
# growth 1.95 between the jumps at 3687 and 1e4: outside the class at q = 1
@example(data=([StepFunction.from_events([(3687.0, 0.5), (1e4, 3.0)])], [0.0]),
         p=1.0, radii=[1.0])
def test_crg_rows_equal_one_jump_sum_per_radius(data, p, radii):
    counts, thetas = data
    try:
        want = _crg_values_per_radius(counts, thetas, p, sorted(radii))
    except BadInput as exc:  # a radius on a jump point, or a divergent count: the same error
        with pytest.raises(BadInput, match=re.escape(str(exc))):
            crg_on_rays(counts, thetas, p, radii=radii)
        return
    rep = crg_on_rays(counts, thetas, p, radii=radii)
    assert [rec.values for rec in rep.per_ray] == want


def test_crg_forms_each_turn_between_rays_once(monkeypatch):
    # the k^2 turns e^{i(theta_j - theta_j')} are snapped in one on-ray call,
    # before the radius loop
    calls = []
    ray_index = RaySystem.ray_index
    monkeypatch.setattr(RaySystem, "ray_index", lambda self, z, tol=ANGULAR_TOL: (
        calls.append(np.shape(z)) or ray_index(self, z, tol)))
    n = counting_arith(1.0, 50)
    crg_on_rays([n, n, n], [0.0, 2.0, PI], 1.0, radii=[3.5, 7.5, 12.5])
    assert calls == [(3, 3)]


def test_crg_kernel_sums_take_memory_linear_in_the_jumps():
    # one row per (ray pair, radius) needs a few arrays of 1e4 jumps, under
    # 1 MB; a radius-by-jump matrix of 17 radii holds 2.7 MB per complex
    # temporary alone
    n = counting_arith(1.0, 10_000)
    crg_on_rays([n, n], [0.0, PI], 1.0, truncation=1e4)
    tracemalloc.start()
    try:
        crg_on_rays([n, n], [0.0, PI], 1.0, truncation=1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_crg_arithmetic_progression_stable():
    M = 20000
    n = counting_arith(1.0, M)
    rep = crg_on_rays([n, n], [0.0, PI], 1.0, truncation=float(M))
    assert rep.stable
    assert rep.exceptional_density <= 0.05
    for rec in rep.per_ray:
        assert abs(rec.limit) <= 0.1


def test_crg_small_support_p_half():
    # p = 1/2 route uses the scaled counting function directly
    n = StepFunction.from_events([(float(k * k), 1.0) for k in range(1, 71)])
    rep = crg_on_rays([n], [0.0], 0.5, truncation=4900.0)
    assert rep.stable
    assert rep.per_ray[0].limit == pytest.approx(1.0, abs=0.05)


def test_crg_irregular_flagged():
    # lacunary-style support: long gaps force drifting kernel sums
    pts = []
    k = 1.0
    while k <= 141.0:
        pts.append(k)
        k = math.ceil(k * 1.6)
    n = StepFunction.from_events([(p, 1.0) for p in pts])
    rep = crg_on_rays([n, n], [0.0, PI], 1.0, truncation=20000.0)
    assert not rep.stable


def test_crg_linearity_exact():
    n1 = counting_arith(2.0, 400)
    n2 = StepFunction.from_events([(3.0 * k, 0.5) for k in range(1, 260)])
    # radii off the jump support: an exact hit makes the kernel singular
    radii = [40.5, 81.5, 163.5]
    r1 = crg_on_rays([n1], [0.0], 1.0, radii=radii)
    r2 = crg_on_rays([n2], [0.0], 1.0, radii=radii)
    r12 = crg_on_rays([n1 + n2], [0.0], 1.0, radii=radii)
    for v1, v2, v12 in zip(r1.per_ray[0].values, r2.per_ray[0].values,
                           r12.per_ray[0].values):
        assert v12 == pytest.approx(v1 + v2, abs=1e-10)


def test_crg_validation():
    n = counting_arith(1.0, 10)
    with pytest.raises(BadInput):
        crg_on_rays([n], [0.0, PI], 1.0)
    with pytest.raises(BadInput):
        crg_on_rays([n], [0.0], -1.0)


def test_exgr2_zero_counts():
    zero = StepFunction.from_events([])
    out = exgr2_functionals([zero] * 4, t_grid=(4.0, 16.0, 64.0),
                            r_grid=(2.0, 8.0, 32.0))
    assert all(b == [0.0] * 4 for _, b in out["b_values"])
    assert out["L_limit"] == 0.0


def test_exgr2_symmetric_trace_vanishes():
    # equal counting functions on all four bisectors: the alternating sum
    # i^(k+1) (b_k / 2) cancels exactly
    n = counting_arith(1.0, 300)
    out = exgr2_functionals([n] * 4, t_grid=(4.0, 16.0, 64.0),
                            r_grid=(2.0, 8.0, 32.0))
    assert abs(out["L_limit"]) <= 1e-10
    # raw b_k decay while sqrt(t)-scaled values stay of one magnitude
    (t0, b0), (_, _), (t2, b2) = out["b_values"]
    assert b2[0] < b0[0]
    s0 = math.sqrt(t0) * b0[0]
    s2 = math.sqrt(t2) * b2[0]
    assert s2 == pytest.approx(s0, rel=0.35)


def test_exgr2_scaled_limit_linear_counts():
    # n(s) ~ lam * s on each bisector: b(t) ~ 4 lam int s^2/(s^4+t^2) ds and
    # int_0^inf u^2/(u^4+1) du = pi/(2 sqrt(2)), so sqrt(t) b -> sqrt(2) pi lam
    lam = 4.0
    n = counting_arith(1.0 / lam, 16000)
    out = exgr2_functionals([n] * 4, t_grid=(100.0, 400.0, 1600.0),
                            r_grid=(2.0, 8.0))
    want = math.sqrt(2.0) * PI * lam
    for k in range(4):
        assert out["b_scaled_limits"][k] == pytest.approx(want, rel=0.05)


def _bisector_integral_by_levels(n, t):
    """int n(s) s ds / (s^4 + t^2) level by level, with the antiderivative
    atan(s^2/t) / (2t): the summation-by-parts twin of the library's jump sum."""
    pts = n.points
    if not len(pts):
        return 0.0
    anti = [math.atan2(p * p, t) / (2.0 * t) for p in pts] + [math.pi / (4.0 * t)]
    return sum(n(pts[i]) * (anti[i + 1] - anti[i]) for i in range(len(pts)))


def test_exgr2_trace_matches_nested_quadrature():
    rng = np.random.default_rng(7)
    counts = [StepFunction.from_events(
        [(float(rng.uniform(0.1, 40.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)))
         for _ in range(m)]) for m in (3, 9, 6, 12)]
    r_grid = (2.0, 8.0, 32.0)
    out = exgr2_functionals(counts, r_grid=r_grid)

    def integrand(t):
        bs = [2.0 * (_bisector_integral_by_levels(counts[k], t)
                     + _bisector_integral_by_levels(counts[(k + 1) % 4], t))
              for k in range(4)]
        return sum(1j ** (k + 1) * (bs[k] / 2.0) for k in range(4)) / t

    want, lo = 0j, 1.0
    for (r, got) in out["L_trace"]:
        want += complex(quad(lambda t: integrand(t).real, lo, r, epsabs=1e-10, limit=200)[0],
                        quad(lambda t: integrand(t).imag, lo, r, epsabs=1e-10, limit=200)[0])
        lo = r
        assert abs(got - want) <= 1e-9
    assert [r for r, _ in out["L_trace"]] == list(r_grid)
    assert abs(out["L_trace"][-1][1]) > 0.01  # the counts are asymmetric


def _mp_bisector(jumps, t):
    """50-digit int n(s) s ds / (s^4 + t^2) for a count with these (p, J)."""
    return mpmath.fsum(J * (mpmath.pi / 2 - mpmath.atan(mpmath.mpf(p) ** 2 / t)) / (2 * t)
                       for p, J in jumps)


FAR, NEAR = [(1e4, 1.0)], [(1e-3, -0.5)]


@pytest.mark.parametrize("regime", [
    [FAR, [], [], []],                   # p^2 >> t: the tail cancels in pi/4 - atan(p^2/t)
    [NEAR, [], [], []],                  # p^2 << t
    [[], [], [], []],                    # empty counts
    [FAR, NEAR, [], FAR + [(3.0, 2.0)]],  # all three at once, asymmetric
])
def test_exgr2_jump_sums_match_mpmath(regime):
    counts = [StepFunction.from_events(j) for j in regime]
    t_grid, r_grid = (10.0, 1e3), (2.0, 64.0)
    out = exgr2_functionals(counts, t_grid=t_grid, r_grid=r_grid)
    with mpmath.workdps(50):
        for t, got in out["b_values"]:
            B = [_mp_bisector(j, mpmath.mpf(t)) for j in regime]
            for k in range(4):
                assert got[k] == pytest.approx(float(2 * (B[k] + B[(k + 1) % 4])),
                                               rel=1e-13, abs=0.0)

        def integrand(t):
            return (1 + 1j) * mpmath.fsum(ik * _mp_bisector(j, t)
                                          for ik, j in zip((1, 1j, -1, -1j), regime)) / t

        for r, got in out["L_trace"]:
            want = complex(mpmath.quad(integrand, [1, 10, r]) if r > 10
                           else mpmath.quad(integrand, [1, r]))
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("kwargs", [dict(t_grid=(0.0, 10.0)), dict(r_grid=(-1.0, 2.0)),
                                    dict(r_grid=(0.0,))])
def test_exgr2_rejects_nonpositive_grids(kwargs):
    zero = StepFunction.from_events([])
    with pytest.raises(BadInput):
        exgr2_functionals([zero] * 4, **kwargs)


def test_exgr2_input_checks():
    n = counting_arith(1.0, 5)
    with pytest.raises(BadInput):
        exgr2_functionals([n] * 3)
    with pytest.raises(BadInput):
        exgr2_functionals([n] * 5)
    with pytest.raises(BadInput):
        exgr2_functionals([n, n, n, [1.0]])
    with pytest.raises(BadInput):
        exgr2_functionals([n, n, n, StepFunction([1.0], [1.0], offset=1.0)])


def test_angular_density_on_ray():
    nu = AtomicCharge([(float(k), 1.0) for k in range(1, 400)])
    out = angular_density(nu, -0.1, 0.1, 1.0)
    assert out["limit"] == pytest.approx(1.0, abs=0.05)
    off = angular_density(nu, PI / 2.0 - 0.3, PI / 2.0 + 0.3, 1.0)
    assert off["limit"] == 0.0


def test_angular_density_sine_zeros():
    N = 2000
    nu = AtomicCharge([(k * PI, 1.0) for k in range(1, N + 1)]
                      + [(-k * PI, 1.0) for k in range(1, N + 1)])
    out = angular_density(nu, -0.2, 0.2, 1.0)
    assert out["limit"] == pytest.approx(1.0 / PI, abs=0.02)
    both = angular_density(nu, -0.2, PI + 0.2, 1.0)
    assert both["limit"] == pytest.approx(2.0 / PI, abs=0.02)
    assert "lindelof_trace" in both


def _in_closed_sector(z, alpha, width):
    """The closed-sector rule angular_density kept before it asked RaySystem."""
    if z == 0:
        return True
    rel = normalize_angle(cmath.phase(z) - alpha)
    return rel <= width + ANGULAR_TOL or rel >= TWO_PI - ANGULAR_TOL


def _off_edges(phi, alpha, beta):
    return min(abs(math.remainder(phi - e, TWO_PI)) for e in (alpha, beta)) > 1e-10


tiny = st.floats(-15.0, -3.0).map(lambda e: 10.0 ** e)


@given(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
       st.one_of(tiny, tiny.map(lambda e: PI - e), tiny.map(lambda e: PI + e),
                 tiny.map(lambda e: TWO_PI - e), st.just(TWO_PI), st.floats(1e-3, TWO_PI)),
       st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-10.0, 10.0)), max_size=30),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_sector_mask_is_the_closed_sector_rule(alpha, width, polar, origin):
    # points at least 1e-10 off the edges (the on-ray band is 1e-12 wide), the
    # edge rays themselves where they are two rays, and the origin; the masses
    # 2^i name the points inside, so the last ratio, the sector's whole mass
    # over R^p, is the mask
    beta = alpha + width
    zs = [cmath.rect(r, phi) for r, phi in polar if _off_edges(phi, alpha, beta)]
    if 1e-9 < width < TWO_PI - 1e-9:
        zs += [cmath.rect(1.5, alpha), cmath.rect(0.7, beta)]
    far = next(a for a in (alpha + 2.0, alpha + 4.0) if _off_edges(a, alpha, beta))
    zs += [0j] * origin + [cmath.rect(2.5, far)]
    nu = AtomicCharge([(z, 2.0 ** i) for i, z in enumerate(zs)])
    out = angular_density(nu, alpha, beta, 0.5)
    R = out["radii"][-1]
    want = math.fsum(m for m, z in zip(nu.m.tolist(), zs) if _in_closed_sector(z, alpha, width))
    assert out["ratios"][-1] == want / R ** 0.5


def test_angular_density_validation():
    nu = AtomicCharge([(1.0, 1.0)])
    with pytest.raises(BadInput):
        angular_density(nu, 0.0, 0.0, 1.0)
    with pytest.raises(BadInput):
        angular_density(nu, 0.0, 1.0, 0.0)
