"""One genus-q kernel: potentials, swept potentials and principal values all
reach K_q through kernel_sum, and each agrees with the per-atom scalar series
it replaced, kept here as the oracle."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import balayage
from balayage import (AtomicCharge, BadInput, CanonicalPotential,
                      CoincidentPoints, GenusSchedule, NumericFailure, RaySystem,
                      StepFunction, ZeroCenter, balayage_system, crg_on_rays, kernel_Kq,
                      potential_eval, pv_kernel_integral, sweep_potential_eval)
from balayage import regular_growth, subharmonic
from balayage.numerics import SAMPLE_BLOCK_ELEMENTS
from balayage.subharmonic import kernel_atoms, kernel_sum

PI = math.pi
EPS = 2.0 ** -52


def _mp_kernel(zeta, z, q):
    """K_q(zeta, z) at 50 digits, from the float inputs taken exactly."""
    with mpmath.workdps(50):
        zeta, z = mpmath.mpc(zeta), mpmath.mpc(z)
        if q < 0:
            return mpmath.log(abs(zeta - z))
        w = z / zeta
        return mpmath.log(abs(1 - w)) + sum((w ** j).real / j for j in range(1, q + 1))


@pytest.mark.parametrize("zeta, z, q", [
    (3.0, 3.0 * (1.0 + 1e-6), 0),  # next to an atom: 1 - z/zeta lost 1e6 ulps
    (3.0, 3.0 * (1.0 + 1e-6), 1),
    (1e8, 1.0, 0),                 # far from one: log1p, not log of 1 - 1e-8
])
def test_kernel_against_mpmath(zeta, z, q):
    want = float(_mp_kernel(zeta, z, q))
    assert abs(kernel_Kq(zeta, z, q) - want) <= 1e-15 * abs(want)


def test_far_genus_2_kernel_against_mpmath():
    # log|1 - w| + Re w + Re w^2 / 2 = -Re w^3 / 3 + ... = 6.7e-25: the three
    # terms cancel, so the pin is absolute, at about 1e4 ulps of |w| = 1.4e-8
    want = float(_mp_kernel(1e8, 1 + 1j, 2))
    assert want == pytest.approx(2.0 / 3.0 * 1e-24, rel=1e-7)
    assert abs(kernel_Kq(1e8, 1 + 1j, 2) - want) <= 1e-20


# ---------------------------------------------------------------------------
# The scalar series the array sum replaced


def _scalar_kernel(zeta, z, q):
    """The former kernel_Kq: log|1 - w| plus the powers of w = z/zeta."""
    if q == -1:
        return math.log(abs(zeta - z))
    w = z / zeta
    val = math.log(abs(1.0 - w))
    pw = 1.0 + 0.0j
    for j in range(1, q + 1):
        pw *= w
        val += pw.real / j
    return val


def _genus_for(P, zeta):
    return P.genus if P.genus is not None else P.schedule.genus_at(abs(zeta))


def _per_atom_potential(P, z):
    """The former potential_eval: one scalar kernel call per atom, and the
    first atom at z decides the value there."""
    total = 0.0
    for zeta, m in zip(P.charge.z.tolist(), P.charge.m.tolist()):
        if zeta == z:
            return -math.inf if m > 0.0 else math.inf
        total += m * _scalar_kernel(zeta, z, _genus_for(P, zeta))
    return total + P.harmonic_part(z)


def _term_scale(P, z):
    """Sum over atoms of |m| times the size of what each route rounds: the
    logs of |zeta - z| and |zeta|, the powers of w and the condition
    |w| / |1 - w| of the scalar route's 1 - w."""
    total = 0.0
    for zeta, m in zip(P.charge.z.tolist(), P.charge.m.tolist()):
        q = _genus_for(P, zeta)
        w = z / zeta
        size = 1.0 + abs(math.log(abs(zeta - z))) + abs(math.log(abs(zeta)))
        if q >= 0:
            size += abs(w) / abs(1.0 - w) + sum(abs(w) ** j for j in range(1, q + 1))
        total += abs(m) * size
    return total


SCHEDULE = GenusSchedule((0.0, 2.0, 8.0), (-1, 0, 1))
polar = st.tuples(st.floats(0.05, 50.0), st.floats(0.0, 2 * PI))


@settings(max_examples=120, deadline=None)
@given(atoms=st.lists(st.tuples(polar, st.floats(-2.0, 2.0).filter(lambda m: abs(m) > 1e-3)),
                      min_size=1, max_size=15),
       genus=st.sampled_from([-1, 0, 1, 2, None]), at=polar,
       harmonic=st.sampled_from([[], [0.5, 0.0, -1.0]]))
def test_potential_equals_the_per_atom_series(atoms, genus, at, harmonic):
    nu = AtomicCharge([(cmath.rect(*rt), m) for rt, m in atoms])
    P = (CanonicalPotential(nu, schedule=SCHEDULE, harmonic_coeffs=harmonic) if genus is None
         else CanonicalPotential(nu, genus=genus, harmonic_coeffs=harmonic))
    for z in (cmath.rect(*at), nu.z[0].item(), 0.0):
        got, want = potential_eval(P, z), _per_atom_potential(P, z)
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 64 * EPS * (_term_scale(P, z) + abs(want))


# ---------------------------------------------------------------------------
# The array call is the point calls


def _term_sizes(P, z):
    """Sum over atoms of |m| times the size of the term kernel_sum adds for it:
    |log|zeta - z|| at genus -1, else |log|1 - w|| plus each |w|^j / j.  The
    array and point calls form the same terms, so only their sum's rounding,
    a few ulps of this, may differ."""
    total = 0.0
    for zeta, m in zip(P.charge.z.tolist(), P.charge.m.tolist()):
        q = _genus_for(P, zeta)
        if q < 0:
            size = abs(math.log(abs(zeta - z)))
        else:
            w = z / zeta
            size = abs(math.log(abs(1.0 - w))) + sum(abs(w) ** j / j for j in range(1, q + 1))
        total += abs(m) * size
    return total


def _point_calls(fn, zs):
    """fn at each point alone: its value, or the type of what it raised."""
    out = []
    for z in zs:
        try:
            out.append(fn(z))
        except (CoincidentPoints, ZeroCenter) as exc:
            out.append(type(exc))
    return out


# a pick maps an atom onto a point: the atom itself, a point next to it, where
# only the near form keeps log|1 - w|, or a point of half its modulus, for which
# the atom sits on the near/far boundary |zeta| = 2|z|
PICKS = (lambda a: a, lambda a: a * (1.0 + 1e-9), lambda a: a / 2.0, lambda a: -a / 2.0,
         lambda a: 0.5j * a, lambda a: a.conjugate() / 2.0)


@settings(max_examples=120, deadline=None)
@given(atoms=st.lists(st.tuples(polar, st.floats(-2.0, 2.0).filter(lambda m: abs(m) > 1e-3)),
                      min_size=1, max_size=12),
       genus=st.integers(-1, 3), scheduled=st.booleans(), at_zero=st.booleans(),
       free=st.lists(polar, max_size=6),
       picks=st.lists(st.tuples(st.integers(0, 12), st.sampled_from(range(len(PICKS)))),
                      max_size=8),
       harmonic=st.sampled_from([[], [0.5, 0.0, -1.0]]), blocks=st.booleans())
def test_the_array_call_is_the_point_calls(atoms, genus, scheduled, at_zero, free, picks,
                                           harmonic, blocks):
    """kernel_sum and potential_eval over an array of points against one call per
    point, within 1e-13 of the size of the terms summed: points on the near/far
    boundary, at atoms, at 0 (with and without an atom there) and elsewhere,
    in one block and, repeated, in several."""
    nu = AtomicCharge([(cmath.rect(*rt), m) for rt, m in atoms] + [(0j, 1.0)] * at_zero)
    zs = ([cmath.rect(*rt) for rt in free] + [0j]
          + [PICKS[f](nu.z[k % len(nu.z)].item()) for k, f in picks])
    reps = SAMPLE_BLOCK_ELEMENTS // (len(zs) * len(nu.z)) + 2 if blocks else 1
    za = np.tile(np.array(zs), reps)
    atoms_q = kernel_atoms(nu)
    P = (CanonicalPotential(nu, schedule=SCHEDULE, harmonic_coeffs=harmonic) if scheduled
         else CanonicalPotential(nu, genus=genus, harmonic_coeffs=harmonic))
    for fn, scale_of in ((lambda z: kernel_sum(atoms_q, z, genus),
                          CanonicalPotential(nu, genus=genus)),
                         (lambda z: potential_eval(P, z), P)):
        want = _point_calls(fn, zs)
        raised = tuple({w for w in want if isinstance(w, type)})
        if raised:  # the array call raises what a point call raises
            with pytest.raises(raised):
                fn(za)
            continue
        got = fn(za).reshape(reps, len(zs))
        for z, g, w in zip(zs, got.T.tolist(), want):
            if math.isinf(w):
                assert g == [w] * reps
            else:
                assert max(abs(x - w) for x in g) <= 1e-13 * _term_sizes(scale_of, z)


def test_an_inf_minus_inf_potential_is_a_numeric_failure():
    # w^2 overflows at both atoms, with opposite masses: the sum is inf - inf
    nu = AtomicCharge([(81.62257703906704 + 1.1884740215660785e-07j, 1.0),
                       (-0.8726486224011847 + 0.5116084083144479j, -1.0)])
    P = CanonicalPotential(nu, genus=2)
    z = 8.672957794169844e+254 - 7.652948606001044e+289j
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailure, match="inf - inf"):
            potential_eval(P, z)
        with pytest.raises(NumericFailure, match="inf - inf"):
            potential_eval(P, np.array([1 + 1j, z]))
    assert math.isfinite(potential_eval(P, 1 + 1j))


# ---------------------------------------------------------------------------
# No caller takes the kernel one atom at a time


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of kernel_Kq and kernel_sum calls, by every name they are bound to."""
    calls = {"kernel_Kq": 0, "kernel_sum": 0}

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted
    spies = {name: spy(name, getattr(subharmonic, name)) for name in calls}
    for mod in (balayage, subharmonic, regular_growth):
        for name in calls:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, spies[name])
    return calls


def test_no_caller_takes_the_kernel_per_atom(kernel_calls):
    atoms = [(cmath.rect(1.5 + k, 0.7 * k), (-1.0) ** k) for k in range(12)]
    nu = AtomicCharge(atoms)
    # the schedule puts the atoms in three genus bands: one kernel sum each
    P = CanonicalPotential(nu, schedule=SCHEDULE)
    assert {SCHEDULE.genus_at(abs(z)) for z, _ in atoms} == {-1, 0, 1}
    for z in (0.3 + 2j, -4.0 + 1j):
        potential_eval(P, z)
    assert kernel_calls == {"kernel_Kq": 0, "kernel_sum": 6}
    # an array of points takes one sum per band too, in one block or in several
    for size in (1, 100, 2 * SAMPLE_BLOCK_ELEMENTS):
        potential_eval(P, np.linspace(0.1, 30.0, size) * np.exp(0.3j))
    assert kernel_calls == {"kernel_Kq": 0, "kernel_sum": 6 + 3 * 3}
    bal = balayage_system(nu, RaySystem([0.3, 2.0, 4.0]))
    sweep_potential_eval(bal, 3.0 + 1j, genus=0)
    assert kernel_calls == {"kernel_Kq": 0, "kernel_sum": 16}
    n = StepFunction.from_events([(k + 0.5, 1.0) for k in range(40)])
    crg_on_rays([n, n], [0.0, PI], 1.5, radii=[3.3, 7.1, 12.9])
    # one sum per (ray, ray', radius): one call over the 17 radii of a ray pair's
    # default grid measured 1.1-2.3 times slower at 10^3-10^4 jumps (CHANGES.md)
    assert kernel_calls == {"kernel_Kq": 0, "kernel_sum": 16 + 2 * 2 * 3}


def test_a_potential_groups_its_atoms_once(monkeypatch):
    atoms = [(cmath.rect(0.5 + 0.9 * k, 0.7 * k), 1.0) for k in range(12)]
    looked_up = []
    genus_at = GenusSchedule.genus_at
    monkeypatch.setattr(GenusSchedule, "genus_at",
                        lambda self, t: looked_up.append(t) or genus_at(self, t))
    P = CanonicalPotential(AtomicCharge(atoms), schedule=SCHEDULE)
    # one lookup: the genera of all the atoms from their radii at once
    assert len(looked_up) == 1 and looked_up[0].shape == (len(atoms),)
    assert [q for q, _ in P._groups] == [-1, 0, 1]
    # the groups are fixed at construction, so the fields that set them are too
    for name, value in (("genus", 2), ("schedule", None), ("charge", AtomicCharge([]))):
        with pytest.raises(AttributeError):
            setattr(P, name, value)


# ---------------------------------------------------------------------------
# What the kernel does at an atom


def test_the_first_atom_at_z_decides():
    for genus in (-1, 0, 2):
        # 2j has the same radius as the two atoms at 2, so sorts among them
        down = CanonicalPotential(AtomicCharge([(2j, 1.0), (2.0, -1.0), (2.0, 3.0)]), genus=genus)
        up = CanonicalPotential(AtomicCharge([(2.0, 3.0), (2j, 1.0), (2.0, -1.0)]), genus=genus)
        assert potential_eval(down, 2.0) == math.inf
        assert potential_eval(up, 2.0) == -math.inf
    scheduled = CanonicalPotential(AtomicCharge([(9.0, -0.5), (0.5, 1.0), (9.0, 2.0)]),
                                   schedule=SCHEDULE)
    assert potential_eval(scheduled, 9.0) == math.inf
    assert potential_eval(scheduled, 0.5) == -math.inf


def test_kernel_sum_is_singular_at_an_atom():
    atoms = kernel_atoms(AtomicCharge([(1.0, 1.0), (1j, -2.0), (4.0, 0.5)]))
    for q in (-1, 0, 3):
        with pytest.raises(CoincidentPoints):
            kernel_sum(atoms, 1j, q)
        assert math.isfinite(kernel_sum(atoms, 1j + 1e-9, q))


def test_swept_potential_at_a_kept_atom_is_coincident():
    # at the kept atom on ray 0 the swept potential is not -inf: it raises
    bal = balayage_system(AtomicCharge([(2.0, 1.0), (1 + 1j, -0.5)]), RaySystem([0.0, PI / 2]))
    assert bal.kept.z.tolist() == [2.0] and bal.kept.m.tolist() == [1.0]
    for genus in (-1, 0, 1):
        with pytest.raises(CoincidentPoints):
            sweep_potential_eval(bal, 2.0, genus=genus)
        # at the swept atom itself the kernel and the Green term have a limit
        assert math.isfinite(sweep_potential_eval(bal, 1 + 1j, genus=genus))


def test_genus_zero_and_up_needs_no_atom_at_the_origin():
    nu = AtomicCharge([(1j, 1.0), (0.0, 2.0)])
    for genus in (0, 1):
        with pytest.raises(ZeroCenter):
            potential_eval(CanonicalPotential(nu, genus=genus), 3.0 + 1j)
        with pytest.raises(ZeroCenter):
            kernel_Kq(0.0, 3.0 + 1j, genus)
        # at the origin itself the atom there makes the potential -inf
        assert potential_eval(CanonicalPotential(nu, genus=genus), 0.0) == -math.inf
    assert math.isfinite(potential_eval(CanonicalPotential(nu, genus=-1), 3.0 + 1j))


def test_principal_values_reject_a_jump_point():
    n = StepFunction.from_events([(1.0, 1.0), (3.0, 2.0), (7.5, -0.5)])
    with pytest.raises(BadInput, match=r"kernel is singular at the jump point \(3\+0j\)"):
        crg_on_rays([n, n], [0.0, PI], 1.0, radii=[2.0, 3.0])
    with pytest.raises(BadInput, match="jumps at the singular point 3.0"):
        pv_kernel_integral(n, 1, 3.0)
    # seen from the opposite ray the jump point is at w = -3
    assert math.isfinite(pv_kernel_integral(n, 1, -3.0))
