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
                      check_lindelof_preservation, complementary_sectors,
                      distribution_on_R, exgr2_functionals, hm_interval, hm_system,
                      poisson_kernel, potential_eval, pv_kernel_integral,
                      sweep_potential_eval, variation_radial)
from balayage import numerics
from balayage.charges import _variation_interval_halfplane
from balayage.cli import _counts_by_ray, main
from balayage.errors import NumericFailure
from balayage.numerics import integrate
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
    assert balayage_halfplane(nu).swept == ()
    assert blaschke_halfplane(nu, 1.0) == 0.0


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
    assert bal.kept.atoms == [(z, 1.0)] and bal.swept == ()

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


# ---------------------------------------------------------------------------
# A potential is -inf at an atom of positive mass (+inf at a negative one): a
# quadrature or a tail fit that meets such a value exits 3


@pytest.mark.parametrize("check", ["carleman", "classa"])
def test_potential_at_an_atom_on_a_quadrature_node_is_a_numeric_failure(check, charge_file,
                                                                        capsys):
    # the atom at 2 sits on the centre Kronrod node of the edge integral over [1, 3],
    # where the potential is -inf
    rc = main(["check", check, "--charge", charge_file([(2.0, 1.0), (1.5 + 1j, 1.0)]),
               "--r0", "1", "--r", "3"])
    assert rc == 3 and capsys.readouterr().err.startswith("numeric failure:")
    assert potential_eval(CanonicalPotential(AtomicCharge([(2.0, 1.0)]), genus=-1),
                          2.0) == -math.inf


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
# Mixed-sign variation: quadrature of |density| against an mpmath oracle
# that splits the integral at the density's sign changes.


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
            if sec.contains(z):
                p = mpmath.pi / (mpmath.mpf(sec.beta) - sec.alpha)
                phi = (cmath.phase(z) - sec.alpha) % (2.0 * PI)
                w = mpmath.mpf(abs(z)) ** p * mpmath.expj(p * phi)
                terms += [(m, w, p, e) for e, hit in ((1, i == j), (-1, (i + 1) % k == j))
                          if hit]
    return lambda t: mpmath.fsum(
        m * p * t ** (p - 1) * w.imag / (mpmath.pi * ((e * t ** p - w.real) ** 2 + w.imag ** 2))
        for m, w, p, e in terms)


def _close(value, oracle):
    # the accuracy the quadrature is asked for: epsabs 1e-11, quad's epsrel
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
    assert quad_calls
    assert _close(value, _abs_integral(_halfplane_density(HALF_PLANE_ATOMS), -r, r))


@pytest.mark.parametrize("t1,t2", [(0.5, 4.0), (-3.0, -0.5), (-4.0, 4.0)])
def test_variation_interval_mixed_signs_halfplane(t1, t2, quad_calls):
    bal = balayage_halfplane(AtomicCharge(HALF_PLANE_ATOMS))
    value = _variation_interval_halfplane(bal, t1, t2)
    assert quad_calls
    assert _close(value, _abs_integral(_halfplane_density(HALF_PLANE_ATOMS), t1, t2))


@pytest.mark.parametrize("r", [1.0, 3.0, 10.0])
def test_variation_radial_mixed_signs_system(r, quad_calls):
    S = RaySystem([0.3, 2.0, 4.0])
    # the two atoms of opposite sign share ray 1 as a sector edge
    atoms = [(cmath.rect(1.5, 1.2), 1.0), (cmath.rect(2.5, 2.9), -0.6),
             (cmath.rect(0.8, 5.0), 0.5)]
    value = variation_radial(balayage_system(AtomicCharge(atoms), S), r)
    assert quad_calls
    oracle = math.fsum(_abs_integral(_ray_density(S, atoms, j), 0.0, r)
                       for j in range(len(S)))
    assert _close(value, oracle)


# ---------------------------------------------------------------------------
# Checked quadrature


def test_integrate_raises_when_the_error_misses_its_budget():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure, match="probe"):
            integrate(lambda x: math.sin(1.0 / x), 1e-6, 1.0, "probe", limit=3)
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


def test_every_library_function_has_a_caller():
    """A function, method or class of the package whose name nothing in the
    package or the tests reads is dead code: a method must be read as an
    attribute, anything else as a name or an attribute (so a local variable
    that shares a method's name does not keep the method alive); a name
    stored in a table such as cli.COMMANDS is read there."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        defs += [(node.name, f"{path.stem}.{node.name}", id(node) in methods)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    names, attrs = set(), set()
    for path in sorted(p for d in CALLERS for p in d.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
    dead = [q for name, q, method in defs
            if name not in attrs and (method or name not in names)]
    assert not dead, "functions that nothing calls: " + ", ".join(sorted(dead))
