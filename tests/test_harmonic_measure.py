import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from balayage import (AtomicCharge, BadInput, BoundarySegment, EndpointSingularity, Interval,
                      NotInUpperHalfPlane, NumericFailure, RaySystem, Sector,
                      balayage_system, hm_bounds, hm_interval, hm_interval_quad,
                      hm_sector_disk_bounds, hm_system, hm_system_quad, poisson_kernel)
from balayage.cli import main
from balayage.numerics import ORACLE_BUDGET

PI = math.pi


def test_poisson_kernel_values():
    assert poisson_kernel(0.0, 1j) == pytest.approx(1 / PI, abs=1e-15)
    assert poisson_kernel(1.0, 1j) == pytest.approx(1 / (2 * PI), abs=1e-15)
    with pytest.raises(NotInUpperHalfPlane):
        poisson_kernel(0.0, 1.0 - 0.5j)


def test_poisson_kernel_total_mass():
    z = 0.3 + 1.7j
    val, _ = quad(lambda t: poisson_kernel(t, z), -np.inf, np.inf,
                  epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_hm_interval_closed_forms():
    I = Interval(-1.0, 1.0)
    assert hm_interval(1j, I) == pytest.approx(0.5, abs=1e-15)
    assert hm_interval(1j * math.sqrt(3.0), I) == pytest.approx(1 / 3, abs=1e-14)
    assert hm_interval(2j, I) == pytest.approx(math.atan(4 / 3) / PI, abs=1e-15)
    # outside-semidisk single-arctan arithmetic
    assert hm_interval(10j, I) == pytest.approx(math.atan(20 / 99) / PI,
                                                abs=1e-15)


def test_hm_interval_real_axis_dirac():
    I = Interval(-1.0, 1.0)
    assert hm_interval(0.5, I) == 1.0
    assert hm_interval(2.0, I) == 0.0
    with pytest.raises(EndpointSingularity):
        hm_interval(1.0, I)


def test_hm_interval_semicircle_half():
    I = Interval(-2.0, 4.0)
    x0, r = I.center, I.radius
    for th in np.linspace(0.05, PI - 0.05, 9):
        z = x0 + r * complex(math.cos(th), math.sin(th))
        assert hm_interval(z, I) == pytest.approx(0.5, abs=1e-10)


def test_hm_interval_quad_oracle():
    I = Interval(-1.0, 1.0)
    assert hm_interval_quad(1j, I) == pytest.approx(0.5, abs=1e-8)
    z = 0.5 + 0.5j
    J = Interval(0.0, 1.0)
    assert hm_interval_quad(z, J) == pytest.approx(hm_interval(z, J), abs=1e-8)
    assert hm_interval_quad(10j, I) == pytest.approx(math.atan(20 / 99) / PI,
                                                     abs=1e-8)


def test_hm_interval_probability():
    big = Interval(-1e6, 1e6)
    for z in (0.1j, 3 + 0.5j, -9 + 10j):
        assert hm_interval(z, big) >= 1.0 - 1e-5


@given(a=st.floats(-20.0, 20.0), gap1=st.floats(0.05, 10.0),
       gap2=st.floats(0.05, 10.0), re=st.floats(-30.0, 30.0),
       im=st.floats(0.01, 50.0))
def test_hm_interval_additivity(a, gap1, gap2, re, im):
    b, c = a + gap1, a + gap1 + gap2
    z = complex(re, im)
    whole = hm_interval(z, Interval(a, c))
    parts = hm_interval(z, Interval(a, b)) + hm_interval(z, Interval(b, c))
    assert abs(whole - parts) <= 1e-12


def test_hm_bounds_far_point():
    I = Interval(-1.0, 1.0)
    rep = hm_bounds(10j, I, a=0.1)
    exact = hm_interval(10j, I)
    assert rep.exact == pytest.approx(exact, abs=1e-15)
    by_name = {e.name: e for e in rep.entries}
    up = by_name["far_upper"]
    assert up.side == "upper"
    assert up.value == pytest.approx(2 / (PI * 0.81 * 10), rel=1e-12)
    assert up.value >= exact
    lo = by_name["far_lower"]
    assert lo.side == "lower"
    assert lo.value == pytest.approx(2 * 0.9 / (80 * PI), rel=1e-12)
    assert lo.value <= exact
    assert rep.all_hold


def test_hm_bounds_semicircle_omits_semidisk_pair():
    I = Interval(-1.0, 1.0)
    z = 1j  # apex of the semicircle: the on-circle case is float-exact here
    rep = hm_bounds(z, I)
    names = {e.name for e in rep.entries}
    assert "outside_semidisk_upper" not in names
    assert "inside_semidisk_lower" not in names
    assert any(s[0] == "semidisk_linearization" for s in rep.skipped)
    assert rep.all_hold


def test_hm_bounds_random_bracketing():
    rng = np.random.default_rng(7)
    for _ in range(400):
        z = complex(rng.uniform(-20, 20), rng.uniform(0.01, 40.0))
        t1 = rng.uniform(-20, 20)
        t2 = t1 + rng.uniform(0.05, 20.0)
        rep = hm_bounds(z, Interval(t1, t2), a=rng.uniform(0.1, 0.9),
                        b=rng.uniform(1.2, 4.0))
        assert rep.all_hold, (z, t1, t2, [(e.name, e.value) for e in rep.entries])


def edge_segment(sec, edge, a, b):
    """The radial piece [a, b] of the sector's lower (edge 0) or upper (edge 1)
    edge, as a BoundarySegment of the edges' system sec.edges."""
    theta = (sec.alpha, sec.beta)[edge]
    return BoundarySegment(sec.edges.ray_index(cmath.rect(1.0, theta)), a, b)


def test_sector_segment_identity_reduction():
    sec = Sector(0.0, PI)
    val = hm_system(sec.edges, 1j, [edge_segment(sec, 0, 0.0, 1.0)])
    assert val == pytest.approx(0.25, abs=1e-14)


def test_sector_segment_quarter():
    sec = Sector(0.0, PI / 2)
    z = 2 * cmath.exp(1j * PI / 4)
    val = hm_system(sec.edges, z, [edge_segment(sec, 0, 0.0, 1.0)])
    assert val == pytest.approx(math.atan(1 / 4) / PI, abs=1e-13)


def test_one_ray_segment_is_measured_from_both_sides():
    # the complement of one ray is the slit plane: z = -1 maps to w = i, and
    # [0, 1] on the ray is both [0, 1] and [-1, 0] of R, each of measure 1/4
    val = hm_system(RaySystem([0.0]), -1.0, [BoundarySegment(0, 0.0, 1.0)])
    assert abs(val - 0.5) <= 1e-15


def test_sector_disk_values():
    sec = Sector(0.0, PI / 2)
    z = 2 * cmath.exp(1j * PI / 4)
    assert hm_system(sec.edges, z, disk=1.0) == pytest.approx(
        math.atan(8 / 15) / PI, abs=1e-14)
    half = Sector(0.0, PI)
    for b in (1.5, 2.0, 7.0):
        assert hm_system(half.edges, 1j * b, disk=1.0) == pytest.approx(
            math.atan(2 * b / (b * b - 1)) / PI, abs=1e-13)


def test_sector_disk_bound_dominance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha = rng.uniform(0, 2 * PI)
        aperture = rng.uniform(0.3, 2 * PI)
        sec = Sector(alpha, alpha + aperture)
        a = rng.uniform(0.1, 0.9)
        r = rng.uniform(0.1, 5.0)
        zr = r / a * rng.uniform(1.0, 4.0)
        z = zr * cmath.exp(1j * (alpha + rng.uniform(0.05, 0.95) * aperture))
        bounds = hm_sector_disk_bounds(sec, z, r, a)
        assert "disk_upper" in bounds
        assert hm_system(sec.edges, z, disk=r) <= bounds["disk_upper"] + 1e-12



@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.0, 2 * PI, exclude_max=True), aperture=st.floats(0.3, 2 * PI - 0.3),
       r=st.floats(0.01, 100.0))
def test_the_sector_measures_keep_the_one_edge_rule(alpha, aperture, r):
    # hm_system on sec.edges and hm_sector_disk_bounds classify z once on
    # sec.edges: a point on an edge, or 4e-13 rad to either side of it, has
    # the Dirac measure there, and its image on R gives each bound 0; one
    # 5e-12 rad inside is in the sector, its image off R, and one 5e-12 rad
    # outside is no point of the closed sector.
    for sec in RaySystem([alpha, alpha + aperture]).sectors:
        E = sec.edges
        for theta, inward in ((sec.alpha, 1.0), (sec.beta, -1.0)):
            j = E.ray_index(cmath.rect(1.0, theta))
            for d in (0.0, 4e-13, -4e-13, 5e-12):
                z = cmath.rect(r, theta + inward * d)
                on_edge = d != 5e-12
                for s, key in ((0.25, "disk_upper"), (4.0, "tail_upper")):  # off the disk circle
                    bound = hm_sector_disk_bounds(sec, z, s * r, 0.5)
                    assert list(bound) == [key]
                    assert (bound[key] == 0.0) if on_edge else (bound[key] > 0.0)
                    if on_edge:
                        assert hm_system(E, z, disk=s * r) == (s > 1.0)
                if not on_edge:
                    continue
                for ray in (j, 1 - j):
                    # ends off |z|: below it, from 0 or not, around it and above it
                    for a, b in ((0.0, r / 2), (r / 4, r / 2), (r / 2, 2 * r), (2 * r, 4 * r)):
                        assert (hm_system(E, z, segments=[BoundarySegment(ray, a, b)])
                                == (ray == j and a < r < b))
            out = cmath.rect(r, theta - inward * 5e-12)
            with pytest.raises(BadInput, match="not in the closed sector"):
                hm_sector_disk_bounds(sec, out, r, 0.5)


# The sector (0, 0.3): p = pi / 0.3 = 10.47, so |z|^p spans many decades.
NARROW = Sector(0.0, 0.3)


def _mp_sector_hm(z, t1, t2):
    """50-digit half-plane measure of [t1, t2] (in the reduced variable) seen
    from the power-map image of z in NARROW."""
    w = mpmath.mpc(z) ** (mpmath.pi / mpmath.mpf(0.3))
    return (mpmath.atan((t2 - w.real) / w.imag) - mpmath.atan((t1 - w.real) / w.imag)) / mpmath.pi


@pytest.mark.parametrize("z,rel", [
    (cmath.rect(1.0, 1e-7), 1e-14),        # next to the lower edge
    (cmath.rect(1.0, 0.3 - 1e-7), 1e-8),   # next to the upper edge, see below
    (cmath.rect(3.0, 0.15), 1e-14),        # moderate |z|, mid-sector
])
def test_narrow_sector_measures_match_mpmath(z, rel):
    # Next to the upper edge the angle to it, 1e-7, is arg z - 0.3, and arg z
    # is rounded to about 1e-16: the measure keeps about 1e-9 relative there.
    E = NARROW.edges
    with mpmath.workdps(50):
        rp = lambda t: mpmath.mpf(t) ** (mpmath.pi / mpmath.mpf(0.3))
        cases = [
            (hm_system(E, z, [edge_segment(NARROW, 0, 1.5, 3.0)]),
             _mp_sector_hm(z, rp(1.5), rp(3.0))),
            (hm_system(E, z, [edge_segment(NARROW, 1, 0.5, 2.0)]),
             _mp_sector_hm(z, -rp(2.0), -rp(0.5))),
            (hm_system(E, z, disk=0.9), _mp_sector_hm(z, -rp(0.9), rp(0.9))),
            (hm_system(E, z, disk=2.0), _mp_sector_hm(z, -rp(2.0), rp(2.0))),
        ]
        for got, want in cases:
            assert abs(got - want) <= rel * abs(want), (got, want)


def test_narrow_sector_power_overflow_is_a_numeric_failure():
    # 1e40 ** 10.47 passes the float range
    z = complex(1.0, 0.1)
    with pytest.raises(NumericFailure, match="overflows"):
        hm_system(NARROW.edges, z, disk=1e40)
    with pytest.raises(NumericFailure, match="overflows"):
        hm_system(NARROW.edges, z, [edge_segment(NARROW, 0, 1.0, 1e40)])
    with pytest.raises(NumericFailure, match="overflows"):
        hm_system_quad(RaySystem([0.0, 0.3]), z, disk=1e40)


def test_narrow_sector_power_underflow_is_a_numeric_failure():
    # (1e-40)**10.47 underflows to 0: the point landed on the boundary, where
    # a segment from the vertex has an endpoint and the oracle needs Im w > 0
    z = complex(1e-40, 1e-41)
    with pytest.raises(NumericFailure, match="underflows"):
        hm_system(RaySystem([0.0, 0.3]), z, segments=[BoundarySegment(0, 0.0, 1.0)])
    with pytest.raises(NumericFailure, match="underflows"):
        hm_system_quad(RaySystem([0.0, 0.3]), z, disk=1.0)


def test_sector_disk_bounds_power_overflow_is_a_numeric_failure():
    # r**(-p) passes the float range for a small radius in a narrow sector
    with pytest.raises(NumericFailure):
        hm_sector_disk_bounds(NARROW, 1e-41 + 1e-42j, 1e-40, 0.5)
    # here only r**(-p) does: |z|**p = 1e-314 is still a float
    with pytest.raises(NumericFailure, match="overflows"):
        hm_sector_disk_bounds(NARROW, 1e-30 + 1e-31j, 3e-30, 0.5)
    # on an edge the bounds are the Dirac mass's 0, with no |z|**p to form:
    # 1e-40 maps to 0, whose Im(1/conj w) raised ZeroDivisionError, and
    # 1e40 past the float range, a NumericFailure for a bound that is 0
    assert hm_sector_disk_bounds(NARROW, 1e-40, 1e-41, 0.5) == {"disk_upper": 0.0}
    assert hm_sector_disk_bounds(NARROW, cmath.rect(1e40, 0.3), 1e20, 0.5) == {"disk_upper": 0.0}

def test_hm_system_half_plane_segment():
    S = RaySystem([0.0, PI])
    val = hm_system(S, 1j, segments=(BoundarySegment(0, 0.0, 1.0),
                                     BoundarySegment(1, 0.0, 1.0)))
    assert val == pytest.approx(0.5, abs=1e-14)


def test_hm_system_dirac_on_system():
    S = RaySystem([0.0, PI])
    assert hm_system(S, 2.0, segments=(BoundarySegment(0, 0.0, 3.0),)) == 1.0
    assert hm_system(S, 5.0, segments=(BoundarySegment(0, 0.0, 3.0),)) == 0.0


def test_hm_system_cross_disk():
    S = RaySystem([0.0, PI / 2, PI, 3 * PI / 2])
    z = 2 * cmath.exp(1j * PI / 4)
    assert hm_system(S, z, disk=1.0) == pytest.approx(
        math.atan(8 / 15) / PI, abs=1e-14)


@st.composite
def system_point_segment(draw):
    """A system of 1-5 rays (its sectors at least 0.69 rad wide, so p <= 4.5),
    a point at least 0.069 rad off its rays, a segment [a, b] of any ray (a
    may be 0) and a disk radius, all within the oracle's reach."""
    gaps = np.array(draw(st.lists(st.floats(1.0, 2.0), min_size=1, max_size=5)))
    width = 2 * PI * gaps / gaps.sum()  # the ray after ends[i] lies width[i + 1] past it
    ends = draw(st.floats(0.0, 2 * PI)) + np.cumsum(width)
    k = draw(st.integers(0, len(gaps) - 1))
    arg = ends[k] + draw(st.floats(0.1, 0.9)) * width[(k + 1) % len(gaps)]
    z = cmath.rect(math.exp(draw(st.floats(-0.5, 0.5))), arg)
    a = draw(st.one_of(st.just(0.0), st.floats(0.1, 1.5)))
    seg = BoundarySegment(draw(st.integers(0, len(gaps) - 1)), a, a + draw(st.floats(0.1, 1.5)))
    return RaySystem([math.remainder(t, 2 * PI) for t in ends]), z, seg, draw(st.floats(0.1, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=system_point_segment())
def test_hm_system_is_the_sweep_of_a_unit_atom(case):
    # the harmonic measure at z is the balayage of the unit atom at z: the
    # scalar dispatch, its oracle and the array sweep agree, one-ray systems included
    S, z, seg, r = case
    bal = balayage_system(AtomicCharge([(z, 1.0)]), S)
    i = bal.sector[0]
    on_seg = bal.ray_segment_mass(seg.ray_index, seg.a, seg.b)
    in_disk = sum(bal.ray_segment_mass(j, 0.0, r) for j in {i, (i + 1) % len(S)})
    assert abs(hm_system(S, z, [seg]) - on_seg) <= 1e-13
    assert abs(hm_system(S, z, disk=r) - in_disk) <= 1e-13
    assert abs(hm_system_quad(S, z, [seg]) - on_seg) <= ORACLE_BUDGET
    assert abs(hm_system_quad(S, z, disk=r) - in_disk) <= ORACLE_BUDGET


def test_hm_system_quad_classifies_its_point_once(monkeypatch):
    calls = []
    classify = RaySystem.sector_index
    monkeypatch.setattr(RaySystem, "sector_index",
                        lambda self, z: calls.append(z) or classify(self, z))
    S = RaySystem([0.0, PI])
    assert hm_system_quad(S, 2.0, segments=[BoundarySegment(0, 0.0, 3.0)]) == 1.0
    assert calls == [2.0]


def test_far_point_bounds_bracket_the_exact_value(tmp_path):
    # |z|^2 overflows at z = 1e300 i: a form through it raises OverflowError
    # or gives an upper bound of 0, below the exact value 3.2e-301
    out = tmp_path / "hm.json"
    assert main(["hm", "--z", "0,1e300", "--interval=1,2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    exact = hm_interval(1e300j, Interval(1.0, 2.0))
    with mpmath.workdps(50):
        y = mpmath.mpf(1e300)
        want = float(mpmath.atan(y / (2 + y * y)) / mpmath.pi)
    assert exact == pytest.approx(want, rel=1e-15) and report["exact"] == exact
    entries = report["bounds"]["entries"]
    assert {e["name"] for e in entries} >= {"off_axis_upper", "far_upper", "disk_exterior_upper"}
    for e in entries:
        assert (e["value"] >= exact) if e["side"] == "upper" else (e["value"] <= exact), e


def test_overflowing_q_near_a_long_interval_keeps_its_measure():
    # Q = -1e600 overflows while w sits 1e-10 above the centre of a 2e300-long
    # interval: the far form scales by the half length, not by d = 1e-10 (whose
    # h/d overflows to a NaN measure), nor by d = 0 for a real w at the centre
    assert hm_interval(1e-10j, Interval(-1e300, 1e300)) == 1.0
    for z in (1e-10j, 0j):
        rep = hm_bounds(z, Interval(-1e200, 1e200))
        assert rep.exact == 1.0 and rep.all_hold
        assert [e.name for e in rep.entries] == ["inside_semidisk_lower"]
