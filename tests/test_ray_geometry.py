import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from balayage import (ANGULAR_TOL, REAL_AXIS, BadInput, NotInUpperHalfPlane, NumericFailure,
                      RaySystem, Sector, ZeroPoint, complementary_sectors, normalize_angle,
                      reduce_to_halfplane)

PI = math.pi


def test_normalize_angle_range():
    for t in (-7.0, -PI, 0.0, PI, 2 * PI, 9.42, 100.0):
        nt = normalize_angle(t)
        assert 0.0 <= nt < 2 * PI
        assert abs(cmath.exp(1j * nt) - cmath.exp(1j * t)) < 1e-9


def test_system_validation():
    with pytest.raises(BadInput):
        RaySystem([])
    with pytest.raises(BadInput):
        RaySystem([0.1, 0.1])
    S = RaySystem([3 * PI / 2, 0.0, PI / 2])
    assert S.thetas == (0.0, PI / 2, 3 * PI / 2)


@pytest.mark.parametrize("thetas", [[0.0, 1e-13], [0.0, -1e-13], [0.0, 2 * PI - 1e-13],
                                    [1.0, 2.0, -1e-13, 1e-13]])
def test_duplicate_rays_across_angle_zero_are_rejected(thetas):
    # after sorting, the last ray neighbours the first one across the angle 0
    with pytest.raises(BadInput):
        RaySystem(thetas)


def test_complementary_sectors_half_planes():
    secs = complementary_sectors(RaySystem([0.0, PI]))
    assert len(secs) == 2
    assert (secs[0].alpha, secs[0].beta) == (0.0, PI)
    assert (secs[1].alpha, secs[1].beta) == (PI, 2 * PI)


def test_complementary_sectors_single_ray():
    secs = complementary_sectors(RaySystem([PI / 2]))
    assert len(secs) == 1
    assert secs[0].alpha == PI / 2
    assert secs[0].beta - secs[0].alpha == pytest.approx(2 * PI, abs=1e-15)


def test_complementary_sectors_cross():
    secs = complementary_sectors(RaySystem([0.0, PI / 2, PI, 3 * PI / 2]))
    assert len(secs) == 4
    for sec in secs:
        assert sec.beta - sec.alpha == pytest.approx(PI / 2, abs=1e-15)


def test_apertures_sum_to_two_pi():
    for thetas in ([0.3], [0.1, 2.0, 4.0], [0.0, 0.7, 1.1, 3.0, 5.9]):
        secs = complementary_sectors(RaySystem(thetas))
        total = math.fsum(s.beta - s.alpha for s in secs)
        assert total == pytest.approx(2 * PI, abs=1e-12)


def test_sector_index():
    S = RaySystem([0.0, PI])
    assert S.sector_index(3.0) == -1
    assert S.sector_index(0.0) == -1
    sec = S.sectors[S.sector_index(1 + 1j)]
    assert (sec.alpha, sec.beta) == (0.0, PI)
    T = RaySystem([PI / 2])
    assert T.sectors[T.sector_index(-1.0)].alpha == PI / 2


def _sector_oracle(S, z):
    """The sector of S that holds the point z off S, from arg z in 50 digits:
    the first sector whose alpha is within its aperture below arg z."""
    with mpmath.workdps(50):
        arg = mpmath.arg(mpmath.mpc(z.real, z.imag))
        for i, sec in enumerate(S.sectors):
            if (arg - sec.alpha) % (2 * mpmath.pi) < mpmath.mpf(sec.beta) - sec.alpha:
                return i
    return None


# rays at 0, pi and either side of 2 pi, where arg z wraps, or anywhere
RAY_ANGLES = st.sampled_from([0.0, PI, math.nextafter(2 * PI, 0.0), 2 * PI - 3 * ANGULAR_TOL,
                              0.5 * ANGULAR_TOL]) | st.floats(0.0, 2 * PI, exclude_max=True)
# 1e-320 is subnormal: its components round, and arg z with them
RADII = st.sampled_from([1e-300, 1e-320, 1e-10, 1.0, 1e10, 1e300]) | st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(thetas=st.lists(RAY_ANGLES, min_size=1, max_size=6) | st.just(None),
       near=st.lists(st.tuples(st.integers(0, 5),
                               st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                               st.sampled_from([1.0, -1.0]), RADII), max_size=12),
       free=st.lists(st.tuples(st.floats(-4 * PI, 4 * PI), RADII), max_size=6),
       axis=st.lists(st.tuples(RADII, st.sampled_from([1.0, -1.0]),
                               st.sampled_from([0.0, -0.0])), max_size=4))
def test_sector_index_is_the_sector_that_holds_arg_z(thetas, near, free, axis):
    """Points {0, 0.5, 1, 1.5, 2, 3} ANGULAR_TOL either side of each ray, across
    the 0/2 pi wrap, on the real and imaginary axes with +-0.0 parts, at the
    origin and at radii 1e+-300: on S (-1) exactly where ray_index says so,
    else the sector of the 50-digit arg z; each point's 0-d call is its entry
    of the array call."""
    if thetas is None:
        S = REAL_AXIS
    else:
        try:
            S = RaySystem(thetas)
        except BadInput:  # duplicate rays
            assume(False)
    points = [0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
    points += [cmath.rect(r, S.thetas[j % len(S)] + sign * k * ANGULAR_TOL)
               for j, k, sign, r in near]
    points += [cmath.rect(r, th) for th, r in free]
    points += [z for r, sign, zero in axis
               for z in (complex(sign * r, zero), complex(zero, sign * r))]
    index = S.sector_index(np.array(points))
    assert index.shape == (len(points),) and index.dtype.kind == "i"
    for z, i in zip(points, index.tolist()):
        assert S.sector_index(z) == i, z
        assert (i < 0) == (z == 0 or S.ray_index(z) is not None), z
        if i >= 0:
            assert i == _sector_oracle(S, z), z


def test_reduce_identity_on_half_plane():
    sec = Sector(0.0, PI)
    assert reduce_to_halfplane(sec, 1 + 1j) == pytest.approx(1 + 1j, abs=1e-14)


def test_reduce_quarter_sector():
    sec = Sector(0.0, PI / 2)
    z = 2 * cmath.exp(1j * PI / 4)
    assert reduce_to_halfplane(sec, z) == pytest.approx(4j, abs=1e-13)
    # lower edge lands on the positive axis
    w = reduce_to_halfplane(sec, 3.0)
    assert w == pytest.approx(9.0, abs=1e-13)
    assert w.imag == 0.0


def test_reduce_keeps_no_edge_rule():
    # an exact edge point maps exactly onto R: arg 2i = pi/2 is the quarter
    # plane's upper edge.  A point 5e-12 rad outside a sector, the half-plane
    # (p = 1) included, is no point of it; the map snapped it onto the edge.
    assert reduce_to_halfplane(Sector(0.0, PI / 2), 2j) == complex(-4.0, 0.0)
    for sec, z in ((Sector(0.0, PI / 2), cmath.rect(1.0, -5e-12)),
                   (Sector(0.0, PI / 2), cmath.rect(1.0, PI / 2 + 5e-12)),
                   (Sector(0.0, PI), complex(1.0, -5e-12)),
                   (Sector(PI / 2, 1.5 * PI), complex(5e-12, 1.0))):
        with pytest.raises(NotInUpperHalfPlane, match="not in the closed sector"):
            reduce_to_halfplane(sec, z)


def test_reduce_zero_point():
    with pytest.raises(ZeroPoint):
        reduce_to_halfplane(Sector(0.0, PI), 0.0)


def test_reduce_overflow_is_a_numeric_failure():
    # p = pi/0.3 = 10.47: |z|**p passes the float range at |z| = 1e40, where
    # Python's float power used to raise an uncaught OverflowError
    sec = Sector(0.0, 0.3)
    z = complex(9.887710779360423e+39, 1.4943813247359922e+39)
    with pytest.raises(NumericFailure, match="overflows"):
        reduce_to_halfplane(sec, z)
    w = reduce_to_halfplane(sec, z * 1e-20)
    assert abs(w) == pytest.approx(abs(z * 1e-20) ** sec.exponent, rel=1e-12)


def test_reduce_underflow_is_a_numeric_failure():
    # |z|**p underflows to 0 at |z| = 1e-40 in the sector (0, 0.3), which put
    # a point of the open sector on its boundary
    sec = Sector(0.0, 0.3)
    z = complex(1e-40, 1e-41)
    with pytest.raises(NumericFailure, match="underflows"):
        reduce_to_halfplane(sec, z)
    # at |z| = 1e-30, |z|**p = 1e-314 is a subnormal float, still above 0
    assert reduce_to_halfplane(sec, z * 1e10).imag > 0.0


@given(alpha=st.floats(0.0, 2 * PI - 1e-6),
       aperture=st.floats(0.05, 2 * PI),
       frac=st.floats(0.02, 0.98),
       r=st.floats(0.01, 100.0))
def test_reduce_interior_properties(alpha, aperture, frac, r):
    sec = Sector(alpha, alpha + aperture)
    z = r * cmath.exp(1j * (alpha + frac * aperture))
    w = reduce_to_halfplane(sec, z)
    assert w.imag > 0.0
    expected = r ** sec.exponent
    assert abs(abs(w) - expected) <= 1e-12 * max(expected, 1.0)
