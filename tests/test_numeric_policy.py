"""The numeric policy shared by every module: one on-ray predicate
(RaySystem.ray_index), one checked quadrature (numerics.integrate), no
library option that no caller sets, and no library function that nothing
calls."""

import ast
import cmath
import importlib
import inspect
import json
import math
import pathlib
import pkgutil
import re
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings, strategies as st

import balayage
from balayage import (AtomicCharge, BoundarySegment, CanonicalPotential, Interval,
                      QuadratureFailure, RaySystem, RayTestFunction, StepFunction,
                      balayage_halfplane, balayage_system, blaschke_halfplane,
                      check_lindelof_preservation, class_A_functionals,
                      complementary_sectors, distribution_on_R, edge_radii,
                      exgr2_functionals, hm_interval, hm_system,
                      poisson_kernel, potential_eval, pv_kernel_integral,
                      sweep_potential_eval, variation_radial)
from balayage import charges, numerics
from balayage.charges import _variation_interval_halfplane
from balayage.subharmonic import _edge_arc_functionals
from balayage.cli import _counts_by_ray, main
from balayage.errors import NumericFailure
from balayage.numerics import (ANGULAR_TOL, IDENTITY_TOL, INPUT_ANGULAR_TOL, PAIRING_TOL,
                               VARIATION_TOL, decade_breakpoints, integrate)
from conftest import random_charge

PI = math.pi


# ---------------------------------------------------------------------------
# On-ray predicate


def test_atom_at_rect_pi_is_kept_on_the_axis():
    bal = balayage_system(AtomicCharge([(cmath.rect(2, PI), 1.0)]), RaySystem([0, PI]))
    assert distribution_on_R(bal, -3.0) == -1.0


def test_atom_at_rect_pi_has_no_blaschke_weight():
    # the half-plane Blaschke sum is the upper sector's: the atom the sweep
    # keeps on the axis is not interior to it
    nu = AtomicCharge([(cmath.rect(2, PI), 1.0)])
    assert not balayage_halfplane(nu).swept.m.size
    assert blaschke_halfplane(nu, 1.0) == 0.0


# an atom on the negative axis three ways: exactly, and as cmath.rect forms it
# at +pi and at -pi, with an Im z of +2.4e-16 and -2.4e-16
ON_AXIS = [-2.0 + 0j, cmath.rect(2, PI), cmath.rect(2, -PI)]


def _reports(argv, atoms, charge_file, tmp_path):
    out = tmp_path / "check.json"
    for z in ON_AXIS:
        assert main([*argv, "--charge", charge_file([(z, 1.0), *atoms]),
                     "--out", str(out)]) == 0
        yield json.loads(out.read_text())


def test_thcup_reads_an_atom_on_the_axis_as_on_it(charge_file, tmp_path):
    # the sweep keeps the atom on R and counts it on the left; the right side's
    # closed upper half holds it too, and its Blaschke term, the upper
    # sector's, gets 0 from it: one report, where the atom at -pi read
    # lhs 1.03 > rhs 1.0 and the atom at +pi a Blaschke term of 2.4e-16
    a, b, c = _reports(["check", "thcup", "--t1=-3", "--t2=-1"], [(1 + 1j, 0.5)],
                       charge_file, tmp_path)
    assert a == b == c and a["rhs"] == 4.0 and a["terms"]["blaschke"] == 0.0


def test_carleman_sums_only_the_atoms_above_the_axis(charge_file, tmp_path):
    # the atom on R is harmonic in the half-disk: it adds nothing to the left
    # side (at +pi it added 5e-17); the right side's quadratures see the
    # three atoms as three points and may differ in their last bits
    lhs = [rep["lhs"] for rep in _reports(["check", "carleman", "--r0", "1", "--r", "10"],
                                          [(1 + 1j, 0.5)], charge_file, tmp_path)]
    assert lhs[0] == lhs[1] == lhs[2]


def test_axis_ray_just_below_two_pi_is_the_positive_axis():
    nu = AtomicCharge([(2j, 1.0)])
    near = balayage_system(nu, RaySystem([-1e-13, PI]))
    exact = balayage_system(nu, RaySystem([0, PI]))
    for x in (-7.0, -3.0, -1.0, 0.5, 2.0, 7.0):
        assert distribution_on_R(near, x) == pytest.approx(
            distribution_on_R(exact, x), rel=1e-12)


def test_cli_balayage_counts_a_kept_atom_on_one_ray(charge_file, system_file, tmp_path):
    out = tmp_path / "bal.json"
    rc = main(["balayage", "--charge", charge_file([(2.0, 1.0)]), "--system",
               system_file([0.0, 5e-10]), "--samples", "4", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    xmax = max(s["x"] for s in report["samples"])
    at_xmax = [s["mass"] for s in report["samples"] if s["x"] == xmax]
    assert len(at_xmax) == 2
    assert math.fsum(at_xmax) == report["total_mass"] == 1.0


@st.composite
def systems(draw):
    """Ray systems, sometimes with two rays closer than the crg input
    tolerance (possibly across the angle 0)."""
    thetas = draw(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4))
    if draw(st.booleans()):
        gap = draw(st.floats(3e-12, 1e-9)) * draw(st.sampled_from((1.0, -1.0)))
        thetas.append(thetas[0] + gap)
    try:
        S = RaySystem(thetas)
    except balayage.BadInput:
        assume(False)
    ts = S.thetas
    assume(len(ts) == 1 or 2.0 * PI - ts[-1] + ts[0] > 2e-12)
    return S


@settings(max_examples=150, deadline=None)
@given(S=systems(), r=st.floats(0.01, 1e4), data=st.data())
def test_atoms_built_on_a_ray_are_on_that_ray_everywhere(S, r, data):
    j = data.draw(st.integers(0, len(S) - 1))
    z = cmath.rect(r, S.thetas[j])
    assert S.ray_index(z) == j

    bal = balayage_system(AtomicCharge([(z, 1.0)]), S)
    assert bal.kept.z.tolist() == [z] and bal.kept.m.tolist() == [1.0]
    assert not bal.swept.m.size

    F = RayTestFunction(S, {j: [(0.5 * r, 0.0), (0.9 * r, 1.0), (1.1 * r, 1.0),
                                (2.0 * r, 0.0)]})
    assert F(z) == 1.0

    for k in range(len(S)):
        seg = BoundarySegment(k, 0.5 * r, 2.0 * r)
        assert hm_system(S, z, segments=[seg]) == (1.0 if k == j else 0.0)

    counts = _counts_by_ray(AtomicCharge([(z, 1.0)]), S)
    assert [n(2.0 * r) for n in counts] == [1.0 if k == j else 0.0
                                            for k in range(len(S))]


def test_ray_index_rejects_the_origin_and_points_off_the_rays():
    S = RaySystem([0.0, 2.0])
    with pytest.raises(balayage.ZeroPoint):
        S.ray_index(0j)
    assert S.ray_index(cmath.rect(1.0, 1.0)) is None
    assert S.ray_index(cmath.rect(1.0, 2.0 + 1e-10)) is None
    assert S.ray_index(cmath.rect(1.0, 2.0 + 1e-10), tol=1e-9) == 1
    assert S.ray_index(np.array([1.0, 1j, cmath.rect(3.0, 2.0)])).tolist() == [0, -1, 1]
    with pytest.raises(balayage.ZeroPoint):
        S.ray_index(np.array([1.0, 0j]))


def _ray_index_by_remainder(S, z, tol):
    """The former scalar on-ray test: |remainder(arg z - theta, 2 pi)| ray by
    ray, the last nearest ray within tol winning."""
    best, best_d = None, tol
    for j, t in enumerate(S.thetas):
        d = abs(math.remainder(cmath.phase(z) - t, 2.0 * PI))
        if d <= best_d:
            best, best_d = j, d
    return best


@settings(max_examples=200, derandomize=True, deadline=None)
@given(S=systems(), tol=st.sampled_from([ANGULAR_TOL, INPUT_ANGULAR_TOL]),
       r=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), data=st.data())
def test_ray_index_of_an_array_is_the_index_of_each_point(S, tol, r, data):
    ts = S.thetas
    # on each ray, at +-tol from it and an ulp either side of that, at the
    # midpoints between neighbouring rays (ties where two rays are within tol),
    # and on the negative axis as cmath.rect forms it
    angles = [t + s * d for t in ts for s in (1.0, -1.0)
              for d in (0.0, tol, math.nextafter(tol, 0.0), math.nextafter(tol, 1.0))]
    angles += [0.5 * (a + b) for a, b in zip(ts, ts[1:] + (ts[0] + 2.0 * PI,))]
    angles += [PI, data.draw(st.floats(-7.0, 7.0))]
    z = [cmath.rect(r, a) for a in angles]
    got = S.ray_index(np.array(z), tol=tol)
    assert got.shape == (len(z),)
    for zk, jk in zip(z, got.tolist()):
        assert S.ray_index(zk, tol=tol) == (None if jk < 0 else jk) \
            == _ray_index_by_remainder(S, zk, tol)


# ---------------------------------------------------------------------------
# The Blaschke weight Im z / |z|^2 is formed without |z|^2


FAR_AND_NEAR = [(1e200 * (1 + 1j), 1.0), (2 + 1j, -0.5)]


# thcup at its defaults [t1, t2] = [1, 2], a = 1/2 scales the weights by
# r / (1 - a)^2 = 0.5 / 0.25; ges's tail holds only the far atom
@pytest.mark.parametrize("check, term, want", [
    ("thcup", ("terms", "blaschke"), 0.5 / 0.25 * (0.5 / 5 + 0.5e-200)),
    ("ges", ("detail", "tail_integral"), 0.5e-200),
])
def test_blaschke_weight_of_a_far_atom_does_not_overflow(check, term, want,
                                                        charge_file, tmp_path):
    out = tmp_path / "check.json"
    rc = main(["check", check, "--charge", charge_file(FAR_AND_NEAR), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["holds"] is True
    assert report[term[0]][term[1]] == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# Magnitudes at the ends of the float range exit cleanly (0, or 3)


TINY_AND_NEAR = [(1e-200 * (1 + 1j), 1.0), (2 + 1j, 1.0)]


def test_fubini_with_an_underflowing_poisson_kernel_exits_cleanly(charge_file,
                                                                  system_file, tmp_path):
    # |t - w|^2 of the tiny atom's image underflows to 0; |t - w| does not
    assert poisson_kernel(0.0, 1e-200 + 1e-200j) == pytest.approx(0.5e200 / PI, rel=1e-15)
    out = tmp_path / "fubini.json"
    rc = main(["check", "fubini", "--charge", charge_file(TINY_AND_NEAR),
               "--system", system_file([0.0, 2.0, 4.0]), "--out", str(out)])
    assert rc in (0, 3)
    if rc == 0:
        assert json.loads(out.read_text())["holds"] is True


def test_swept_potential_next_to_a_tiny_atom_exits_cleanly(charge_file, system_file,
                                                           capsys):
    # z and the atom are 1e-200 apart: d.real^2 + d.imag^2 of their reduced
    # coordinates underflowed to 0 in the Green term
    rc = main(["potential", "--charge", charge_file(TINY_AND_NEAR), "--system",
               system_file([0.0, 2.0, 4.0]), "--z=1e-200,2e-200", "--sweep"])
    assert rc in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_variation_of_a_far_atom_is_finite_without_warnings(charge_file, system_file,
                                                           tmp_path):
    # the p = 2 image of 1e100 e^(i pi/4) is w = 6e183 + 1e200 i: over [0, 1e200]
    # Q = (Re w)(Re w - 1e200) + (Im w)^2 was -inf + inf = nan
    far = cmath.rect(1e100, PI / 4)
    out = tmp_path / "balayage.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["balayage", "--charge", charge_file([(far, 1.0), (1 + 1j, -0.5)]),
                   "--system", system_file([0.0, PI / 2]), "--variation",
                   "--samples", "4", "--out", str(out)])
        assert hm_interval(6e183 + 1e200j, Interval(0.0, 1e200)) == pytest.approx(0.25, rel=1e-15)
        # main silences numpy's overflow warnings; the library call itself raises none
        bal = balayage_system(AtomicCharge([(far, 1.0)]), RaySystem([0.0, PI / 2]))
        assert bal.ray_segment_mass(1, 0.0, 1e100) == pytest.approx(0.25, rel=1e-15)
    assert rc == 0
    samples = json.loads(out.read_text())["samples"]
    for j in (0, 1):
        first = next(s for s in samples if s["ray"] == j)
        # a quarter of the far atom's mass and half of the near one's |mass|
        assert first["x"] == 1e100 and first["mass"] == pytest.approx(0.25 + 0.5 * 0.5, rel=1e-12)


def test_segment_end_past_the_float_range_is_a_numeric_failure(charge_file, system_file,
                                                               tmp_path, capsys):
    # on the p = 2 rays [0, pi/2] the sample ends x reach 1e200, and x^2 overflows:
    # far form or not, a segment end past the float range has no mass to report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["balayage", "--charge", charge_file([(2 + 1j, 1.0)]),
                   "--system", system_file([0.0, PI / 2]), "--xmax", "1e200",
                   "--out", str(tmp_path / "balayage.json")])
    assert rc == 3 and "swept mass on ray 0" in capsys.readouterr().err
    bal = balayage_system(AtomicCharge([(2 + 1j, 1.0)]), RaySystem([0.0, PI / 2]))
    with pytest.raises(NumericFailure, match="is not finite"):
        bal.ray_segment_mass(0, 0.0, 1e200)


def test_overflowing_potential_exits_without_warnings(charge_file, capsys):
    # the kernel sum of two masses of 1e308 overflows to inf, the value reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["potential", "--charge", charge_file([(2j, 1e308), (3j, 1e308)]),
                   "--genus", "-1", "--z", "1e6,0"])
    out = capsys.readouterr()
    assert rc == 0 and not out.err and json.loads(out.out)["values"][0]["value"] == "inf"


def test_growth_with_a_tiny_atom_is_a_numeric_failure(charge_file, capsys):
    # at p = 2, r^p underflows in the type and t^(-p) overflows in the integrals
    charge = charge_file([(1e-200 * (1 + 1j), 1.0), (2.0, 1.0)])
    for window in ([], ["--r-lo", "1"]):
        rc = main(["growth", "--charge", charge, "--p", "2", "--zero-side", *window])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err


def test_fubini_tent_past_the_float_range_is_a_numeric_failure(charge_file, system_file,
                                                               capsys):
    # p = pi/2 on the sectors of [0, 2, 4]: the reduced end (3e213)^p of the
    # tent on ray 1 overflows in the Poisson pairing
    rc = main(["check", "fubini", "--charge", charge_file([(2 + 1j, 1.0)]),
               "--system", system_file([0.0, 2.0, 4.0]), "--tent", "1,2e42,3e161,3e213"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("numeric failure:") and "past the float range" in err


def _assert_weights_fail(check, r0, r, charge_file, capsys):
    rc = main(["check", check, "--charge", charge_file([(2 + 1j, 1.0)]),
               "--r0", r0, "--r", r])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("numeric failure:") and "float range" in err


@pytest.mark.parametrize("r0, r", [("1e69", "1e169"),      # r^(2p) overflows at p = 1
                                   ("1e-230", "1e-174")])  # r^(2p) underflows to 0
def test_classa_weights_past_the_float_range_are_a_numeric_failure(r0, r, charge_file,
                                                                   capsys):
    _assert_weights_fail("classa", r0, r, charge_file, capsys)


@pytest.mark.parametrize("r0, r", [("1e-152", "1e280"),    # r^2 overflows
                                   ("1e-239", "1e-67")])   # r0^2 underflows to 0
def test_carleman_weights_past_the_float_range_are_a_numeric_failure(r0, r, charge_file,
                                                                     capsys):
    _assert_weights_fail("carleman", r0, r, charge_file, capsys)


# ---------------------------------------------------------------------------
# A potential is -inf at an atom of positive mass (+inf at a negative one): an
# atom on a sector edge is a breakpoint of the edge integrals, which then never
# sample it; a tail fit that meets such a value exits 3


@mpmath.workdps(30)
def _edge_functional_A(atoms, r0, r, split):
    """A of class_A_functionals on the upper half-plane (p = 1) for the genus -1
    potential of atoms, by mpmath quadrature split at the given radii."""
    v = lambda t: mpmath.fsum(m * mpmath.log(abs(t - mpmath.mpc(z))) for z, m in atoms)
    weighted = lambda t: (1 / t - t / mpmath.mpf(r) ** 2) * (v(t) + v(-t)) / t
    return float(mpmath.quad(weighted, [r0, *split, r]) / (2 * mpmath.pi))


@pytest.mark.parametrize("check", ["carleman", "classa"])
def test_atom_on_an_edge_is_a_breakpoint_of_the_edge_integrals(check, charge_file, tmp_path):
    # the atom at 2 sits on the centre Kronrod node of the edge integrals over [1, 3],
    # where the potential is -inf
    atoms = [(2.0, 1.0), (1.5 + 1j, 1.0)]
    out = tmp_path / "check.json"
    rc = main(["check", check, "--charge", charge_file(atoms), "--r0", "1", "--r", "3",
               "--out", str(out)])
    assert rc == 0 and json.loads(out.read_text())["holds"] is True
    nu = AtomicCharge(atoms)
    P = CanonicalPotential(nu, genus=-1)
    assert potential_eval(P, 2.0) == -math.inf
    assert edge_radii(nu, 0.0, PI) == [2.0]
    res = class_A_functionals(lambda z: potential_eval(P, z), 0.0, PI, 1.0, 3.0,
                              edge_radii(nu, 0.0, PI))
    A = _edge_functional_A(atoms, 1, 3, [2])
    for route in (res.A, res.A_via_J, res.A_via_double):
        assert abs(route - A) <= 1e-12


def test_edge_integrals_over_many_decades_split_at_each_power_of_ten(charge_file, tmp_path):
    # over [0.01, 1e8], split at no decade, QUADPACK's first rules missed the
    # mass near r0: A came out -1.2e-7 where 25.7 is due, and the check
    # failed with residual 25.7
    atoms = [(2 + 1j, 1.0)]
    out = tmp_path / "check.json"
    rc = main(["check", "carleman", "--charge", charge_file(atoms), "--r0", "0.01",
               "--r", "1e8", "--out", str(out)])
    assert rc == 0 and json.loads(out.read_text())["residual"] <= 1e-12
    P = CanonicalPotential(AtomicCharge(atoms), genus=-1)
    A, _ = _edge_arc_functionals(lambda z: potential_eval(P, z), 0.0, PI, 0.01, 1e8, [])
    want = _edge_functional_A(atoms, 0.01, 1e8, [10.0 ** k for k in range(-1, 8)])
    assert want == pytest.approx(25.7, abs=0.05) and abs(A - want) <= 1e-12 * want


def test_classa_over_many_decades_holds_the_outer_integral_of_A_via_J_to_its_budget(
        charge_file, tmp_path):
    # over [0.01, 1e8] the outer-weight integral of A_via_J is about 3.5e9, with
    # error about 0.34; only its quotient by r^2 = 1e16 enters A_via_J, so the
    # quotient is what FUNCTIONAL_BUDGET has to hold
    atoms = [(2 + 1j, 1.0)]
    out = tmp_path / "check.json"
    rc = main(["check", "classa", "--charge", charge_file(atoms), "--r0", "0.01",
               "--r", "1e8", "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0 and report["holds"] is True
    assert max(report["residual_J"], report["residual_double"]) <= IDENTITY_TOL
    want = _edge_functional_A(atoms, 0.01, 1e8, [10.0 ** k for k in range(-1, 8)])
    assert abs(report["A_via_J"] - want) <= 1e-12 * want


def test_the_decade_split_is_the_points_and_the_powers_of_ten_inside():
    assert decade_breakpoints(0.5, 2.0, [0.5, 1.0, 1.0, 2.0]) == [1.0]
    assert decade_breakpoints(0.5, 0.9, [0.5, 0.9]) is None
    # from 0, the decades start at the least positive point's
    assert decade_breakpoints(0.0, 1e3, [0.0, 0.02, 1e3]) == [0.01, 0.02, 0.1, 1.0, 10.0, 100.0]
    # no power of ten past the float range is formed
    assert decade_breakpoints(1e306, 1.7e308, []) == [1e307, 1e308]


@pytest.mark.parametrize("tent", ["0,0,1,1e100", "1,0,2,1e80"])
def test_fubini_over_many_decades_splits_the_density_at_each_power_of_ten(
        tent, charge_file, system_file, tmp_path):
    # split at F's knots alone, quad's first rules missed the swept density's
    # peaks near radius 1: the left side read 0.2574 against the right side's
    # 0.6561 on ray 0, and 0.0254 against -0.0586 on ray 1
    out = tmp_path / "check.json"
    rc = main(["check", "fubini", "--charge", charge_file([(0.9 + 0.45j, 1.0), (-3 - 1j, -0.6)]),
               "--system", system_file([0.0, 2.2, 4.1]), "--tent", tent, "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0 and report["holds"] is True and report["difference"] <= PAIRING_TOL


def test_lindelof_shells_over_many_decades_split_at_each_power_of_ten(charge_file,
                                                                    system_file, tmp_path):
    # unsplit, the shell (1e6, 1e12] missed its budget (exit 3), and the shell
    # (10, 1e12] missed the mass near 30 and read 0.0555 (exit 0); past 1e6
    # the sweep of these atoms adds under 1e-12 to the difference
    charge = charge_file([(30 + 0.5j, 1.0), (-2 + 3j, -0.7)])
    system = system_file([0.0, 2.0, 4.0])
    diffs = []
    for radii in ("10,1e6,1e12", "10,1e12"):
        out = tmp_path / "check.json"
        assert main(["check", "lindelof", "--charge", charge, "--system", system,
                     "--radii", radii, "--out", str(out)]) == 0
        diffs.append(json.loads(out.read_text())["differences"])
    assert max(diffs[0][1:] + diffs[1][1:]) - min(diffs[0][1:] + diffs[1][1:]) <= 1e-12


def test_fubini_with_a_density_past_the_float_range_gives_no_verdict(charge_file,
                                                                    system_file, capsys):
    # split at F's knots alone, the left side missed half the swept mass,
    # -2.36e276 against the right side's -5.06e276, and the check exited 1;
    # split at the decades it meets a density past the float range
    charge = charge_file([(-1 + 1.2246e-16j, -5.407e276), (7.55e262 - 1.85e263j, 6.6e-42)])
    rc = main(["check", "fubini", "--charge", charge, "--system",
               system_file([3.2036869995536175]),
               "--tent", "0,1.2160085212297948e-113,1.0,2.7052141583690414e+137"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("numeric failure:") and "is not finite" in err


# (rays, atoms, tent) of check fubini: in the first ten the pairing side's
# sigma range passes 2^49, beyond which it was one quad piece however many
# decades it spans, and it missed a third, a half or all of the mass; in the
# last two a far image's density underflowed (Im w ~ 1e140) or squared Im w
# past the float range on the left side, which read -1.46e-98 against
# -0.043152, and 0 against 17.889.  sigma-sign's left side exits 3 where the
# density forms coef / h / h (2e337) before the product with t^(p-1)
FAR_PAIRINGS = {
    "sigma-half": ([3.803173759768906],
                   [(-3.133875230410606e-169 + 3.837890269849523e-185j, -1.0),
                    (1.6200870009255738e-141 - 1.8357331842635394e-156j, 1.2453437012385366e72),
                    (1.084322656630551e183 - 6.650177468726255e182j, -5.204806149842411e-35)],
                   "0,4.6705194715064995e-136,259693.1131186135,5.618035206282039e+58"),
    "sigma-sign": ([1.2793818350474953, 2.2250738585072014e-308, 2.8610918762353927],
                   [(-1 + 1.2246467991473532e-16j, -1.0),
                    (1.7733751436817962e-67 + 1.7733751436823874e-73j, 9.99999999999869e299),
                    (-5.722620883766515e218 + 7.00818934803846e202j, -100.0)],
                   "0,3.3341633427090274e-43,0.31622776601683794,1.0"),
    **{f"sigma-four-rays-{i}": (
        [2.536809287625006, 6.025527485939762e-171, 0.6788860653887586, 2.3562484079950194],
        [(-1.647799554213479e-79 + 2.0179724497039726e-95j, m),
         (0.21508647495054262 + 0.9765950073051518j, -1.0)],
        "0,1.0000000000001308e-300,1.0,2.0847342255674952e+131")
       for i, m in enumerate([6.17097183786658e100, -1.8622577593312773e-16])},
    "sigma-upper-edge": ([0.24823333510733847, 3.2519479276750944],
                         [(-4.037061401452063e278 + 4.943974323249597e262j, -1.0),
                          (-0.07943282347242814 + 9.727715301274586e-18j, -1.0),
                          (-6.0774022420044e-74 + 7.442671202801636e-90j, -4.037061401452063e278)],
                         "1,0.07943282347242814,1.0,2.7502412316901435e+111"),
    **{f"sigma-zero-{i}": (
        [4.476607567005688, 2.225073858507203e-309, 2.170648189437465, 2.3603191550742406],
        [(-1 + 1.2246467991473532e-16j, m),
         (3.885586107987432e-125 + 4.391772191618133e-124j, 6.309152669188983e-65)],
        "2,8.098250031896944e+64,7.412486248339514e+156,6.876985791020001e+183")
       for i, m in enumerate([1e8, 1e299])},
    **{f"sigma-one-ray-{i}": (
        [2.2250738585072014e-308],
        [(2.64532665221491e-75 + 4.119852162394993e-75j, 6.745876773007996e241)], tent)
       for i, tent in enumerate(["0,1.0000010701044262,7.974466865549451e+36,4.193612730660464e+60",
                                 "0,1.0,1.0000010701044262,4.193612730660464e+60"])},
    "sigma-two-rays": ([1.8098577725338547, 1.5012661134732583],
                       [(-1000 + 1.2246467991473532e-13j, -1.0),
                        (-1.5499403761743627e-100 + 1.898129520551178e-116j, 3.4148237178675283e168)],
                       "0,1.0,7138192362.163713,1.6634868767695657e+177"),
    "far-image-underflow": ([1e-06],
                            [(-9.874785683855122e279 + 1.2093124679999282e264j, -0.04315201751469349),
                             (-30.842434124928452 - 6.981708762863771j, 2.1967087966646275e-142)],
                            "0,6.652183063799779e-220,1.0,1e+299"),
    "far-image-square": ([0.8358248965526507, 4.450045242563985],
                         [(4.378130570745164e146 - 3.497368528484421e146j, 31.622776601683793)],
                         "1,1.2746319430708628e-43,1.0,2.719722657800225e+200"),
}


@pytest.mark.parametrize("rays, atoms, tent", FAR_PAIRINGS.values(), ids=FAR_PAIRINGS)
def test_the_fubini_sides_agree_past_2_to_the_49_in_sigma_and_at_far_images(
        rays, atoms, tent, charge_file, system_file, tmp_path):
    # PAIRING_TOL is absolute, so past about 1e8 the check exits 1 on sides
    # that agree to rounding: the test reads their relative difference
    out = tmp_path / "check.json"
    rc = main(["check", "fubini", "--charge", charge_file(atoms), "--system",
               system_file(rays), "--tent", tent, "--out", str(out)])
    report = json.loads(out.read_text())
    lhs, rhs = report["lhs"], report["rhs"]
    assert rc in (0, 1) and abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_more_decades_than_the_subinterval_limit_still_integrate(charge_file, system_file,
                                                                tmp_path, capsys):
    # quad refuses as many breakpoints as its subinterval limit with a
    # ValueError, which escaped main; the limit now counts the pieces quad may
    # add to the split.  The 500 decades of this tent read the right side to
    # 1e-15, where split at F's knots alone the left side read 0.2574
    out = tmp_path / "check.json"
    rc = main(["check", "fubini", "--charge", charge_file([(0.9 + 0.45j, 1.0), (-3 - 1j, -0.6)]),
               "--system", system_file([0.0, 2.2, 4.1]), "--tent", "0,1e-300,1,1e200",
               "--out", str(out)])
    report = json.loads(out.read_text())
    assert rc == 0 and report["holds"] is True and report["difference"] <= PAIRING_TOL
    # 405 decades inside (1e-203, 1e203): the functionals miss their budget
    rc = main(["check", "classa", "--charge", charge_file([(2 + 1j, 1.0)]), "--alpha", "0",
               "--beta", repr(2 * PI), "--r0", "1e-203", "--r", "1e203"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("numeric failure: functional quadrature error")


@pytest.mark.parametrize("mass", [1.0, -1.0])
def test_atom_at_a_tail_fit_radius_is_a_numeric_failure(mass, charge_file, system_file,
                                                        capsys):
    # the edge growth is fitted at R_max / 10 = 1e7 and R_max = 1e8 on ray 0, an
    # edge of the sector of 1 + i, where this atom makes |v| infinite
    rc = main(["potential", "--charge", charge_file([(1e7, mass)]), "--system",
               system_file([0.0, 2.0, 4.0]), "--z", "1,1", "--sweep"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("numeric failure:") and "tail-fit" in err


# ---------------------------------------------------------------------------
# Mixed-sign variation: |mass| over certified sign-constant pieces, no
# quadrature, against an mpmath oracle that splits the integral of |density|
# at the density's sign changes.


@mpmath.workdps(30)
def _abs_integral(f, a, b, n=2000):
    pts = [mpmath.mpf(a)]
    prev_t, prev_v = a, f(a)
    for i in range(1, n + 1):
        t = a + (b - a) * i / n
        v = f(t)
        if prev_v * v < 0:
            pts.append(mpmath.findroot(f, (prev_t, t), solver="illinois"))
        prev_t, prev_v = t, v
    pts.append(mpmath.mpf(b))
    return float(mpmath.quad(lambda t: abs(f(t)), pts))


def _halfplane_density(atoms):
    return lambda t: mpmath.fsum(
        m * z.imag / (mpmath.pi * ((t - z.real) ** 2 + z.imag ** 2)) for z, m in atoms)


def _ray_density(S, atoms, j):
    """Swept density on ray j, from the power map written out in mpmath."""
    k = len(S)
    terms = []
    for z, m in atoms:
        for i, sec in enumerate(complementary_sectors(S)):
            phi = (cmath.phase(z) - sec.alpha) % (2.0 * PI)
            if ANGULAR_TOL < phi < sec.aperture - ANGULAR_TOL:  # z inside the open sector
                p = mpmath.pi / (mpmath.mpf(sec.beta) - sec.alpha)
                w = mpmath.mpf(abs(z)) ** p * mpmath.expj(p * phi)
                terms += [(m, w, p, e) for e, hit in ((1, i == j), (-1, (i + 1) % k == j))
                          if hit]
    return lambda t: mpmath.fsum(
        m * p * t ** (p - 1) * w.imag / (mpmath.pi * ((e * t ** p - w.real) ** 2 + w.imag ** 2))
        for m, w, p, e in terms)


def _close(value, oracle):
    # the accuracy the replaced quadrature was asked for: epsabs 1e-11, quad's epsrel
    return abs(value - oracle) <= max(1e-11, 1.49e-8 * abs(oracle))


@pytest.fixture
def quad_calls(monkeypatch):
    calls = []
    real = numerics.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)
    monkeypatch.setattr(numerics, "quad", counting)
    return calls


HALF_PLANE_ATOMS = [(1 + 1j, 1.0), (-2 + 0.5j, -0.7), (3 + 2j, 0.4)]


@pytest.mark.parametrize("r", [1.5, 5.0, 20.0])
def test_variation_radial_mixed_signs_halfplane(r, quad_calls):
    bal = balayage_halfplane(AtomicCharge(HALF_PLANE_ATOMS))
    value = variation_radial(bal, r)
    assert quad_calls == []
    assert _close(value, _abs_integral(_halfplane_density(HALF_PLANE_ATOMS), -r, r))


@pytest.mark.parametrize("t1,t2", [(0.5, 4.0), (-3.0, -0.5), (-4.0, 4.0)])
def test_variation_interval_mixed_signs_halfplane(t1, t2, quad_calls):
    bal = balayage_halfplane(AtomicCharge(HALF_PLANE_ATOMS))
    value = _variation_interval_halfplane(bal, t1, t2)
    assert quad_calls == []
    assert _close(value, _abs_integral(_halfplane_density(HALF_PLANE_ATOMS), t1, t2))


@pytest.mark.parametrize("r", [1.0, 3.0, 10.0])
def test_variation_radial_mixed_signs_system(r, quad_calls):
    S = RaySystem([0.3, 2.0, 4.0])
    # the two atoms of opposite sign share ray 1 as a sector edge
    atoms = [(cmath.rect(1.5, 1.2), 1.0), (cmath.rect(2.5, 2.9), -0.6),
             (cmath.rect(0.8, 5.0), 0.5)]
    value = variation_radial(balayage_system(AtomicCharge(atoms), S), r)
    assert quad_calls == []
    oracle = math.fsum(_abs_integral(_ray_density(S, atoms, j), 0.0, r)
                       for j in range(len(S)))
    assert _close(value, oracle)


@mpmath.workdps(40)
def _two_atom_variation(atoms, a, b):
    """|nu^bal| of [a, b] for two half-plane atoms: the density's numerator
    m1 y1 |t - z2|^2 + m2 y2 |t - z1|^2 is a quadratic in t; the sum of |delta|
    of the arctangent antiderivative between its real roots in (a, b)."""
    (z1, m1), (z2, m2) = [(mpmath.mpc(z.real, z.imag), mpmath.mpf(m)) for z, m in atoms]
    c2 = m1 * z1.imag + m2 * z2.imag
    c1 = -2 * (m1 * z1.imag * z2.real + m2 * z2.imag * z1.real)
    c0 = m1 * z1.imag * abs(z2) ** 2 + m2 * z2.imag * abs(z1) ** 2
    disc = c1 * c1 - 4 * c2 * c0
    roots = [] if disc <= 0 else [(-c1 + s * mpmath.sqrt(disc)) / (2 * c2) for s in (-1, 1)]
    pts = [mpmath.mpf(a), *sorted(t for t in roots if a < t < b), mpmath.mpf(b)]
    F = lambda t: mpmath.fsum(m * mpmath.atan((t - z.real) / z.imag) for z, m in
                              ((z1, m1), (z2, m2))) / mpmath.pi
    return float(mpmath.fsum(abs(F(t) - F(s)) for s, t in zip(pts, pts[1:])))


# a unit atom 1e-11 above the axis (its density's spike at 2 is 1e-11 wide),
# and one at 1e-170 (1 + i) or 1e170 (1 + i), each with a -1 atom at 3 + i;
# the quadrature route missed the near atom's mass and read lhs 0.8128...
SPIKE_LHS = 1.81282726409017  # between the roots 1.99999552785404, 2.00000447212596


@pytest.mark.parametrize("z0", [2 + 1e-11j, 1e-170 * (1 + 1j), 1e170 * (1 + 1j)])
def test_check_ges_sees_every_atom_of_a_mixed_sign_sweep(z0, charge_file, tmp_path):
    atoms = [(z0, 1.0), (3 + 1j, -1.0)]
    oracle = _two_atom_variation(atoms, -5.0, 5.0)
    out = tmp_path / "ges.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = variation_radial(balayage_halfplane(AtomicCharge(atoms)), 5.0)
        rc = main(["check", "ges", "--charge", charge_file(atoms), "--r", "5",
                   "--out", str(out)])
    assert rc == 0 and json.loads(out.read_text())["lhs"] == value
    # the pieces of each of the two rays whose sign is not proved miss at most
    # VARIATION_TOL
    assert abs(value - oracle) <= 2 * VARIATION_TOL
    if z0 == 2 + 1e-11j:
        assert abs(value - SPIKE_LHS) <= 1e-11


def test_variation_of_images_near_the_float_range_bottom():
    # ray 0 of the rays 0 and pi/2 takes p = 2 from the sector (0, pi/2) and
    # p = 2/3 from the other: the tiny atom's term coef * t^(4/3) underflowed
    # before the division by the distance squared, its bound read 0, and a
    # piece where the density changes sign passed as positive (0.45 for 0.7);
    # the segment masses near 0 underflowed too
    S = RaySystem([0.0, PI / 2])
    bal = balayage_system(AtomicCharge([(cmath.rect(1e-32, -0.3), 0.5),
                                        (cmath.rect(1e-141, 0.8), -0.2)]), S)
    r = 0.5
    value = variation_radial(bal, r)
    grid = np.unique(np.concatenate((np.geomspace(1e-300, r, 4000), np.linspace(0.0, r, 2000))))
    lb = math.fsum(np.abs(np.diff(bal.ray_distribution(j, grid))).sum() for j in range(2))
    ub = math.fsum(bal.ray_distribution(j, r, variation=True) for j in range(2))
    assert lb - 2 * VARIATION_TOL - 1e-12 <= value <= ub + 1e-12


def test_the_halving_cap_is_a_numeric_failure(monkeypatch, charge_file, capsys):
    monkeypatch.setattr(charges, "VARIATION_HALVINGS", 1)
    with pytest.raises(NumericFailure, match="halvings"):
        variation_radial(balayage_halfplane(AtomicCharge(HALF_PLANE_ATOMS)), 5.0)
    rc = main(["check", "ges", "--charge", charge_file(HALF_PLANE_ATOMS), "--r", "5"])
    assert rc == 3 and capsys.readouterr().err.startswith("numeric failure:")


@st.composite
def _targets(draw):
    """None (the half-plane sweep), the one-ray system, or 1-5 rays whose
    sectors are at least 2 pi / 17 wide (p <= 8.5)."""
    kind = draw(st.sampled_from(["halfplane", "one ray", "random"]))
    if kind != "random":
        return None if kind == "halfplane" else RaySystem([0.0])
    widths = draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=5))
    start = draw(st.floats(0.0, 2 * PI))
    return RaySystem([start + 2 * PI * w / sum(widths)
                      for w in np.cumsum([0.0, *widths[:-1]])])


MASS = st.floats(0.01, 2.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(S=_targets(), atoms=st.lists(st.tuples(st.floats(0.05, 20.0), st.floats(0.0, 2 * PI),
                                            MASS), min_size=2, max_size=8),
       kept=st.lists(st.tuples(st.integers(0, 4), st.floats(0.05, 20.0), MASS), max_size=2),
       r=st.floats(0.1, 20.0))
def test_mixed_sign_variation_lies_between_a_partition_and_the_variation(S, atoms, kept, r):
    """A partition's sum of |delta| of the distribution bounds the variation
    from below, and the sweep of |nu| from above; each ray's certified pieces
    miss at most VARIATION_TOL."""
    thetas = (0.0, PI) if S is None else S.thetas
    # the first atom positive, the second negative; half-plane atoms in the upper half
    nu = [(cmath.rect(rad, th / 2 if S is None else th), m * (-1) ** (i == 1))
          for i, (rad, th, m) in enumerate(atoms)]
    nu += [(cmath.rect(rad, thetas[k % len(thetas)]), -m) for k, rad, m in kept]
    nu = AtomicCharge(nu)
    bal = balayage_halfplane(nu) if S is None else balayage_system(nu, S)
    value = variation_radial(bal, r)
    grid = np.linspace(0.0, r, 2000)
    lb = math.fsum(np.abs(np.diff(bal.ray_distribution(j, grid))).sum()
                   for j in range(len(bal.rays)))
    ub = math.fsum(bal.ray_distribution(j, r, variation=True) for j in range(len(bal.rays)))
    slack = len(bal.rays) * VARIATION_TOL + 1e-12  # and rounding
    assert lb - slack <= value <= ub + slack


# ---------------------------------------------------------------------------
# Checked quadrature


def test_integrate_raises_when_the_error_misses_its_budget():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="probe"):
            # sin(1/x) oscillates past what QUAD_LIMIT pieces resolve
            integrate(lambda x: math.sin(1.0 / x), 1e-6, 1.0, "probe")
        with pytest.raises(QuadratureFailure, match="probe"):
            integrate(math.exp, 0.0, 1.0, "probe", budget=1e-20)
    value, spent = integrate(math.exp, 0.0, 1.0, "probe", budget=1e-6)
    assert value == pytest.approx(math.e - 1.0, rel=1e-14) and 0.0 < spent <= 1e-6
    # calls that share a budget: the earlier error counts against it
    with pytest.raises(QuadratureFailure):
        integrate(math.exp, 0.0, 1.0, "probe", budget=1e-6, spent=1e-6)
    # a NaN integrand gives a NaN error estimate, which no budget accepts
    for budget in (None, 1e-8):
        with pytest.raises(QuadratureFailure, match="probe"):
            integrate(lambda t: float("nan"), 0.0, 1.0, "probe", budget=budget)


# check_lindelof_preservation on this input made 3150 integrand evaluations
# when it integrated every radius afresh from r0
LINDELOF_EVALS_PER_RADIUS = 3150


def test_lindelof_shells_at_most_halve_the_integrand_evaluations(monkeypatch):
    evals = 0
    real = numerics.quad

    def counting(fn, *args, **kwargs):
        def counted(t):
            nonlocal evals
            evals += 1
            return fn(t)
        return real(counted, *args, **kwargs)
    monkeypatch.setattr(numerics, "quad", counting)
    nu = random_charge(np.random.default_rng(12), 40)
    rep = check_lindelof_preservation(nu, RaySystem([0.3, 2.0, 4.0]), 1,
                                      radii=(4, 8, 16, 32))
    assert len(rep["differences"]) == 4
    assert 0 < evals <= LINDELOF_EVALS_PER_RADIUS // 2


def test_exgr2_functionals_make_no_quad_call(quad_calls):
    counts = [StepFunction.from_events([(0.5 + k, 1.0), (3.0 * k + 2.0, -0.5)])
              for k in range(4)]
    out = exgr2_functionals(counts)
    assert quad_calls == []
    assert len(out["L_trace"]) == 9  # the default grid 2, 4, ..., 512


def test_swept_potential_and_principal_values_make_no_quad_call(quad_calls):
    S = RaySystem([0.3, 2.0, 4.0])
    atoms = [(cmath.rect(1.5, 1.2), 1.0), (cmath.rect(2.5, 2.9), -0.6),
             (cmath.rect(0.8, 5.0), 0.5), (cmath.rect(2.0, 0.3), 0.7)]
    bal = balayage_system(AtomicCharge(atoms), S)
    for z in (3.0 + 1.0j, cmath.rect(2.5, 2.9), -1.0 - 4.0j, 0.0):
        for genus in (-1, 0):
            assert math.isfinite(sweep_potential_eval(bal, z, genus=genus))
    n = StepFunction.from_events([(1.0, 1.0), (3.0, 2.0), (7.5, -0.5)])
    for z in (2.0, 2.0j, -4.0 + 1.0j):
        assert math.isfinite(pv_kernel_integral(n, 1, z))
    assert quad_calls == []


def test_quad_is_bound_in_one_module_only():
    modules = [importlib.import_module(f"balayage.{m.name}")
               for m in pkgutil.iter_modules(balayage.__path__)]
    numerics.quad  # bound on first use; this test may run before any quadrature
    owners = [mod.__name__ for mod in modules
              if any(v is scipy.integrate.quad for v in vars(mod).values())]
    assert owners == ["balayage.numerics"]
    for mod in modules:
        if mod.__name__ != "balayage.numerics":
            assert "IntegrationWarning" not in inspect.getsource(mod), mod.__name__


def test_integrate_alone_sets_the_accuracy_and_the_subdivision_limit():
    # one subdivision limit, QUAD_LIMIT, and one absolute accuracy, QUAD_TOL:
    # no route passes limit to integrate or poisson_integral, and only the
    # Lindelof shells pass epsabs, their share of QUAD_TOL; a ** argument may
    # set any key its file writes into a dict
    setters = {"limit": set(), "epsabs": set()}
    for stem, tree in _package_trees():
        if stem == "numerics":
            continue
        spread = _dict_keys(tree)
        for top in tree.body:
            for call in ast.walk(top):
                if getattr(getattr(call, "func", None), "id", None) not in (
                        "integrate", "poisson_integral"):
                    continue
                keys = {kw.arg for kw in call.keywords}
                for key in setters.keys() & (keys | (spread if None in keys else set())):
                    setters[key].add(f"{stem}.{getattr(top, 'name', '<module>')}")
    assert setters == {"limit": set(), "epsabs": {"charges.check_lindelof_preservation"}}
    # poisson_integral splits by decade_breakpoints, not by a 2^k loop of its own
    pi = next(node for _, tree in _package_trees() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "poisson_integral")
    assert not [node for node in ast.walk(pi) if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow) and getattr(node.left, "value", None) == 2]


def _package_trees():
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def test_the_angular_tolerance_is_read_in_ray_geometry_only():
    # every other module asks RaySystem whether a point is on a ray;
    # __init__ only re-exports the name
    readers = {stem for stem, tree in _package_trees() for node in ast.walk(tree)
               if "ANGULAR_TOL" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))}
    assert readers - {"__init__"} == {"numerics", "ray_geometry"}


def test_the_power_antiderivative_is_read_in_stepfn_only():
    # stepfn's one Stieltjes pass sums a step function against dt/t^(p+1)
    readers = {stem for stem, tree in _package_trees() for node in ast.walk(tree)
               if "power_antiderivative" in (getattr(node, "id", None),
                                             getattr(node, "attr", None),
                                             getattr(node, "name", None))}
    assert readers == {"stepfn"}


def test_upper_half_masks_read_the_point_classification():
    # a bare <charge>.z.imag against a constant misreads the atoms that
    # cmath.rect puts an ulp off the axis; sector_index reads them on it
    def bare_imag(node):
        return (isinstance(node, ast.Attribute) and node.attr == "imag"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "z")
    found = [f"{stem}:{node.lineno}" for stem, tree in _package_trees()
             if stem != "ray_geometry" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(map(bare_imag, [node.left, *node.comparators]))
             and any(isinstance(op, ast.Constant) for op in [node.left, *node.comparators])]
    assert not found, found


def _owners(match):
    """module.function of every package function with a node that match
    accepts: a method as Class.method, a nested def as the def that holds it,
    and code outside any def as <module> (or the class)."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                units = [(f"{top.name}.{n.name}" if isinstance(n, ast.FunctionDef)
                          else top.name, n) for n in top.body]
            else:
                units = [(getattr(top, "name", "<module>"), top)]
            found |= {f"{path.stem}.{owner}" for owner, unit in units
                      for c in ast.walk(unit) if match(c)}
    return found


def _callers(callee):
    """_owners of the calls of callee by name."""
    return _owners(lambda c: isinstance(c, ast.Call) and callee in (
        getattr(c.func, "id", None), getattr(c.func, "attr", None)))


def test_sector_images_are_formed_once_per_object():
    # a sweep's images are formed in BalayageCharge, and the Blaschke sums
    # read them; hm_system and its oracle share one dispatch
    assert _callers("reduce_to_halfplane") == {
        "charges.BalayageCharge.__post_init__", "harmonic_measure._hm_system",
        "harmonic_measure.hm_sector_disk_bounds", "subharmonic.subharmonic_balayage_eval",
        "subharmonic.sweep_potential_eval"}
    # a boundary segment is input, not an edge tag: only the CLI builds one
    owners = _callers("BoundarySegment")
    assert owners and {o.split(".")[0] for o in owners} == {"cli"}, owners


def _is_mirror(node):
    """-conj(w) formed as complex(-w.real, w.imag) or as -w.conjugate()."""
    neg = lambda n: isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "complex":
        return (len(node.args) == 2 and neg(node.args[0])
                and getattr(node.args[0].operand, "attr", None) == "real"
                and getattr(node.args[1], "attr", None) == "imag")
    return (neg(node) and isinstance(node.operand, ast.Call)
            and getattr(node.operand.func, "attr", None) == "conjugate")


def test_the_edges_of_a_sector_are_formed_once():
    # sector i's edges are rays i and i + 1, the upper one seen from the
    # mirror -conj(w): RaySystem.edge_views forms them, and the measures of a
    # ray system's complement, the Fubini pairing and the potential sweep read it
    assert _owners(_is_mirror) == {"ray_geometry.RaySystem.edge_views"}
    assert _callers("edge_views") == {
        "harmonic_measure._hm_system", "charges._poisson_pairing",
        "subharmonic.subharmonic_balayage_eval"}


def test_the_angular_tolerances_are_the_on_ray_and_input_rules():
    # the power map keeps no edge tolerance of its own: which points lie on an
    # edge is sector_index's (ray_index's) one rule
    angular = sorted(n for n in vars(numerics)
                     if n.isupper() and any(k in n for k in ("ANGLE", "ANGULAR", "SNAP")))
    assert angular == ["ANGULAR_TOL", "INPUT_ANGULAR_TOL"]


def test_the_poisson_kernel_is_integrated_once():
    # the hm oracle, the Fubini pairing and the potential sweep are all
    # poisson_integral's callers; none integrates the kernel itself
    assert _callers("poisson_kernel") == {"harmonic_measure.poisson_integral"}
    assert _callers("poisson_integral") == {
        "harmonic_measure.hm_interval_quad", "charges._poisson_pairing",
        "subharmonic.subharmonic_balayage_eval"}


COLD_START = """
import sys
import {module}
assert "scipy.integrate" not in sys.modules, "imported with {module}"
from balayage import numerics
assert "quad" not in vars(numerics)
value, _ = numerics.integrate(lambda t: t * t, 0.0, 3.0, "cold start")
assert abs(value - 9.0) < 1e-12, value
import scipy.integrate
assert numerics.quad is scipy.integrate.quad
assert vars(numerics)["quad"] is scipy.integrate.quad
"""


@pytest.mark.parametrize("module", ["balayage", "balayage.cli"])
def test_scipy_integrate_loads_on_the_first_quadrature(module):
    # a fresh interpreter: this one imported scipy.integrate long ago
    proc = subprocess.run([sys.executable, "-c", COLD_START.format(module=module)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Library options: a defaulted parameter that no call sets is a constant.


PACKAGE = pathlib.Path(balayage.__file__).parent
CALLERS = [PACKAGE, pathlib.Path(__file__).parent]


def _library_defs():
    """{callee name: [(qualified name, positional parameters, defaulted
    parameters)]} for every def of the package.  A method's positional list
    drops self or cls, and a class's __init__ is also listed under the class."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            a = f.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            cls = methods.get(id(f))
            if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in f.decorator_list):
                positional = positional[1:]
            entry = (f"{path.stem}.{cls + '.' if cls else ''}{f.name}", positional, defaulted)
            defs.setdefault(f.name, []).append(entry)
            if f.name == "__init__":
                defs.setdefault(cls, []).append(entry)
    return defs


def _dict_keys(tree):
    """Every key the file writes into a dict: dict(k=...), {"k": ...} and
    d["k"] = ...; a ** argument in that file may set any of them."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "dict":
            keys.update(k.arg for k in node.keywords if k.arg)
        elif isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) \
                and isinstance(node.slice, ast.Constant):
            keys.add(node.slice.value)
    return keys


def test_every_library_option_has_a_caller():
    defs = _library_defs()
    unset = {(name, p) for entries in defs.values() for name, _, defaulted in entries
             for p in defaulted}
    for path in sorted(p for d in CALLERS for p in d.glob("*.py")):
        tree = ast.parse(path.read_text())
        spread = None
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for name, positional, _ in defs.get(callee, ()):
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        unset -= {(name, p) for p in positional[i:]}
                        break
                    if i < len(positional):
                        unset.discard((name, positional[i]))
                for kw in call.keywords:
                    if kw.arg is None:
                        spread = _dict_keys(tree) if spread is None else spread
                        unset -= {(name, k) for k in spread}
                    else:
                        unset.discard((name, kw.arg))
    assert not unset, "options that no call sets: " + ", ".join(
        f"{name}({p})" for name, p in sorted(unset))


# The public entry points that no other function of the package calls.
# README's library section names them, and the tests call them.
ENTRY_POINTS = {"charges.distribution_on_R", "harmonic_measure.hm_sector_disk_bounds",
                "regular_growth.pv_kernel_integral", "subharmonic.kernel_Kq"}
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title):
    return README.read_text().split(f"\n## {title}\n")[1].split("\n## ")[0]


def test_every_library_function_has_a_caller():
    """A function, method or class of the package that nothing in the package
    reads outside its own definition is test code or dead code, unless it is
    one of the ENTRY_POINTS.  A method must be read as an attribute, anything
    else as a name or an attribute (so a local variable that shares a
    method's name does not keep the method alive); a name stored in a table
    such as cli.COMMANDS is read there.  __init__ only re-exports."""
    defs, reads = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue

        def visit(node, cls, within):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((node.name, f"{path.stem}.{cls}{node.name}", bool(cls),
                                 id(node)))
                within = within | {id(node)}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                attr = isinstance(node, ast.Attribute)
                reads.setdefault(node.attr if attr else node.id, []).append((attr, within))
            for child in ast.iter_child_nodes(node):
                visit(child, f"{node.name}." if isinstance(node, ast.ClassDef) else
                      "" if isinstance(node, ast.FunctionDef) else cls, within)

        visit(ast.parse(path.read_text()), "", frozenset())
    uncalled = {q for name, q, method, node in defs
                if not any((attr or not method) and node not in within
                           for attr, within in reads.get(name, ()))}
    assert uncalled == ENTRY_POINTS, (
        f"called nowhere in the package: {sorted(uncalled - ENTRY_POINTS)}; "
        f"listed, but called: {sorted(ENTRY_POINTS - uncalled)}")
    names = {node.id for path in pathlib.Path(__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Name)}
    entry = {q.rsplit(".", 1)[1] for q in ENTRY_POINTS}
    assert entry <= names, f"no test calls {sorted(entry - names)}"
    [paragraph] = [p for p in _readme_section("Library example").split("\n\n")
                   if "no caller inside the package" in p]
    assert set(re.findall(r"`(\w+)`", paragraph)) == entry, paragraph


def test_the_package_exports_no_module():
    # `from balayage import *` binds exactly __all__: the library names, no submodule
    modules = [name for name in balayage.__all__ if inspect.ismodule(getattr(balayage, name))]
    assert not modules and "hm_system" in balayage.__all__, modules


def _commented_value(comment):
    """The Python literal a README comment starts with ("0.25, exactly"
    reads 0.25), or None for a comment in words."""
    for text in (comment, comment.split(",")[0]):
        try:
            return ast.literal_eval(text.strip())
        except (ValueError, SyntaxError):
            pass
    return None


def test_the_readme_library_examples_read_their_comments():
    namespace, checked = {}, []
    for block in re.findall(r"```python\n(.*?)```", _readme_section("Library example"), re.S):
        exec(block, namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            value = _commented_value(comment) if comment else None
            if value is not None and isinstance(ast.parse(code.strip()).body[0], ast.Expr):
                assert eval(code, namespace) == value, line
                checked.append(code.strip())
    assert checked == ["distribution_on_R(bal, 2.0)", "res.lhs, res.holds"]
