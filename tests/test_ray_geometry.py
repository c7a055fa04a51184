import cmath
import math

import pytest
from hypothesis import given, strategies as st

from balayage import (ANGULAR_TOL, BadInput, InSector, NumericFailure,
                      OnSystem, RaySystem, Sector, ZeroPoint, classify_point,
                      complementary_sectors, normalize_angle,
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


def test_classify_point():
    S = RaySystem([0.0, PI])
    assert classify_point(S, 3.0) == OnSystem()
    assert classify_point(S, 0.0) == OnSystem()
    res = classify_point(S, 1 + 1j)
    assert isinstance(res, InSector)
    assert (res.sector.alpha, res.sector.beta) == (0.0, PI)
    res = classify_point(RaySystem([PI / 2]), -1.0)
    assert isinstance(res, InSector)
    assert res.sector.alpha == PI / 2


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
