"""Atomic charges, their counting functions, and balayage onto the real axis
or onto a closed system of rays.

A charge is a finite list of weighted atoms.  Sweeping replaces each atom off
the target set by its harmonic-measure image; the result is kept symbolic as
(source atom, host sector) records, so the distribution function along any
ray is a finite sum of closed-form arctangent terms and never needs the
density to be discretized.  All the quantitative checks (interval mass,
radial growth, Lipschitz modulus, test-function pairing, power-sum
preservation) compare an exact or closed-form left side against the bound's
literal right side.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BadGauge,
    BadInput,
    HypothesisViolated,
    NotInUpperHalfPlane,
    NumericFailure,
    SupportOffAxis,
    SupportTouchesInterval,
)
from .harmonic_measure import Interval, hm_interval, imag_inv_conj, poisson_kernel
from .numerics import BOUND_SLACK, PAIRING_TOL, QUAD_TOL, VARIATION_TOL, integrate
from .ray_geometry import (
    REAL_AXIS,
    InSector,
    OnSystem,
    RaySystem,
    Sector,
    classify_point,
    reduce_to_halfplane,
)
from .stepfn import StepFunction

_SLOPE_DIVERGENT = 0.1  # fitted growth vs log r above this flags divergence


@dataclass
class AtomicCharge:
    """Finite signed atomic charge: atoms as (location, mass) pairs."""

    atoms: list[tuple[complex, float]] = field(default_factory=list)

    def __post_init__(self):
        cleaned = []
        for z, m in self.atoms:
            z = complex(z)
            m = float(m)
            if not (math.isfinite(m) and math.isfinite(z.real) and math.isfinite(z.imag)):
                raise BadInput(f"non-finite atom ({z}, {m})")
            if m == 0.0:
                continue
            cleaned.append((z, m))
        self.atoms = cleaned

    @property
    def total_mass(self):
        return math.fsum(m for _, m in self.atoms)

    def __add__(self, other):
        return AtomicCharge(self.atoms + other.atoms)

    def restricted(self, pred):
        return AtomicCharge([(z, m) for z, m in self.atoms if pred(z)])

    def to_json(self):
        return {"atoms": [{"re": z.real, "im": z.imag, "mass": m} for z, m in self.atoms]}

    @classmethod
    def from_json(cls, data):
        return cls([(complex(a["re"], a["im"]), a["mass"]) for a in data["atoms"]])


def radial_counting(nu, variation=False):
    """Step function r -> nu(closed disk of radius r), or its variation version."""
    ev = [(abs(z), abs(m) if variation else m) for z, m in nu.atoms]
    return StepFunction.from_events(ev)


def counting_around(nu, x0, variation=True):
    """Step function t -> mass in the closed disk centered x0 of radius t."""
    ev = [(abs(z - x0), abs(m) if variation else m) for z, m in nu.atoms]
    return StepFunction.from_events(ev)


# ---------------------------------------------------------------------------
# Blaschke and power-sum diagnostics


def blaschke_halfplane(nu, r0):
    """Sum of |m| * Im(1/conj z) over upper-half atoms outside the closed disk r0:
    the Blaschke sum of REAL_AXIS's upper sector."""
    return blaschke_sector(nu, REAL_AXIS.sectors[0], r0)


def blaschke_sector(nu, sec, r0):
    """Reduced-coordinate Blaschke sum over atoms strictly inside the sector,
    outside the closed disk r0 (in original coordinates)."""
    if not r0 > 0.0:
        raise BadInput(f"need r0 > 0, got {r0}")
    return _reduced_blaschke(sec, [(z, m) for z, m in nu.atoms if abs(z) > r0])


def _reduced_blaschke(sec, atoms):
    """Sum of |m| * Im(w) / |w|^2 over the atoms strictly inside the sector,
    w their images under the sector's power map."""
    total = 0.0
    for z, m in atoms:
        if z == 0 or not sec.contains(z):
            continue
        w = reduce_to_halfplane(sec, z)
        if w.imag <= 0.0:
            continue  # on an edge: not interior to the sector
        total += abs(m) * imag_inv_conj(w)
    return total


def blaschke_outside_system(nu, S, r0):
    """Per-sector Blaschke sums for the complement of the ray system."""
    return {i: blaschke_sector(nu, sec, r0)
            for i, sec in enumerate(S.sectors)}


def fit_slope_vs_log(radii, values):
    """Least-squares slope of values against log radii."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(radii) < 2:
        raise BadInput("need at least two samples for a slope")
    return float(np.polyfit(np.log(radii), values, 1)[0])


def divergence_verdict(radii, partial_sums):
    """(slope, divergent?) for a truncation family's partial sums.

    The sums are sampled at increasing truncation radii; growth faster than
    _SLOPE_DIVERGENT per log-radius unit over the window flags divergence.
    """
    slope = fit_slope_vs_log(radii, partial_sums)
    return slope, slope > _SLOPE_DIVERGENT


def lindelof_sum(nu, q, r0, r):
    """Sum of m / z^q over atoms with r0 < |z| <= r (principal power)."""
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got r0={r0}, r={r}")
    if not (isinstance(q, int) and q >= 1):
        raise BadInput(f"need a positive integer exponent, got {q}")
    total = 0.0 + 0.0j
    for z, m in nu.atoms:
        az = abs(z)
        if r0 < az <= r:
            total += m / z ** q
    return total


# ---------------------------------------------------------------------------
# Balayage


@dataclass(frozen=True)
class SweptAtom:
    """Source atom swept inside its host sector; the half-plane sweep's host
    is REAL_AXIS.sectors[0], whose power map is the identity.  Its image w
    under the sector's power map is formed once, here, and checked to lie in
    the open upper half-plane: the kernels divide by Im w."""

    z: complex
    mass: float
    sector: Sector
    w: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = reduce_to_halfplane(self.sector, self.z)
        if not w.imag > 0.0:
            raise NotInUpperHalfPlane(f"need Im w > 0 for every swept image, got w = {w}")
        object.__setattr__(self, "w", w)


class _RayArrays(NamedTuple):
    """What a sweep puts on one ray, built once with the sweep.

    records are the swept contributions (mass, w, p, edge): w is the source
    atom's image under its sector's power map, p the map's exponent, edge +1
    when the ray is the sector's lower edge (image in R+), -1 when it is the
    upper edge (R-).  The arrays hold, per record, the mass, ewr = edge * Re w
    (the image seen from the ray's side: (edge*s - Re w)^2 = (s - ewr)^2
    exactly), Im w and p, and the density's factors coef = mass * p * Im w / pi,
    wi2 = (Im w)^2 and pm1 = p - 1; kept_r and kept_m are the kept atoms on
    the ray, sorted by radius."""

    records: tuple
    mass: np.ndarray
    ewr: np.ndarray
    wi: np.ndarray
    p: np.ndarray
    coef: np.ndarray
    wi2: np.ndarray
    pm1: np.ndarray
    kept_r: np.ndarray
    kept_m: np.ndarray


def _ray_arrays(records, kept):
    """_RayArrays from one ray's swept records and its kept (radius, mass) pairs.

    The factors are formed in float arithmetic, where the (Im w)^2 of a far
    image becomes inf without a warning, and its density term 0."""
    m, w, p, e = zip(*records) if records else ((),) * 4
    wi = [z.imag for z in w]
    kr, km = zip(*sorted(kept, key=lambda a: a[0])) if kept else ((),) * 2
    return _RayArrays(tuple(records), *(np.array(c, dtype=float) for c in (
        m, [ek * z.real for ek, z in zip(e, w)], wi, p,
        [mk * pk * y / math.pi for mk, pk, y in zip(m, p, wi)],
        [y * y for y in wi], [pk - 1.0 for pk in p], kr, km)))


@dataclass(frozen=True)
class BalayageCharge:
    """Result of sweeping: atoms already on the target set plus symbolic
    swept records whose densities are evaluated in closed form.

    Immutable: the per-ray arrays the queries read are built once, here."""

    system: RaySystem | None  # None: swept onto R out of the upper half-plane
    kept: AtomicCharge
    swept: tuple[SweptAtom, ...]
    _arrays: tuple[_RayArrays, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "swept", tuple(self.swept))
        k = len(self.rays.thetas)
        # sector i runs from ray i to ray i+1
        index = {sec: i for i, sec in enumerate(self.rays.sectors)}
        records = [[] for _ in range(k)]
        for s in self.swept:
            i = index[s.sector]
            p = s.sector.exponent
            records[i].append((s.mass, s.w, p, +1))
            records[(i + 1) % k].append((s.mass, s.w, p, -1))
        kept = [[] for _ in range(k)]
        for z, m in self.kept.atoms:
            j = None if z == 0 else self.rays.ray_index(z)
            if j is not None:
                kept[j].append((abs(z), m))
        object.__setattr__(self, "_arrays",
                           tuple(_ray_arrays(r, a) for r, a in zip(records, kept)))

    @property
    def total_mass(self):
        return self.kept.total_mass + math.fsum(s.mass for s in self.swept)

    @property
    def rays(self):
        """The target ray system; REAL_AXIS for the half-plane sweep."""
        return REAL_AXIS if self.system is None else self.system

    def to_json(self):
        out = {"kept": self.kept.to_json(),
               "swept": [{"source": {"re": s.z.real, "im": s.z.imag, "mass": s.mass},
                          "sector": None if self.system is None
                          else [s.sector.alpha, s.sector.beta]}
                         for s in self.swept]}
        if self.system is not None:
            out["system"] = self.system.to_json()
        return out

    # -- per-ray structure ---------------------------------------------------

    def _ray(self, j):
        if not 0 <= j < len(self._arrays):
            raise BadInput(f"no ray {j} in a {len(self._arrays)}-ray target")
        return self._arrays[j]

    def ray_contributions(self, j):
        """Swept contributions to ray j as (mass, w, p, edge) with edge +1 if
        the ray is the sector's lower edge (image in R+), -1 if upper (R-)."""
        return self._ray(j).records

    def ray_segment_mass(self, j, x1, x2, variation=False):
        """Swept mass landing on ray j between radii x1 < x2 (closed form).

        Each record contributes its harmonic measure at w of the image
        interval e*[x1^p, x2^p], in hm_interval's arctangent form, far form
        included: where Q overflows, Q and N are divided by d^2, d the
        distance from w to the interval's center.  An end x2^p past the
        float range is a NumericFailure."""
        if not 0.0 <= x1 < x2:
            raise BadInput(f"need 0 <= x1 < x2, got [{x1}, {x2}]")
        r = self._ray(j)
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = np.power(x1, r.p), np.power(x2, r.p)
            q = (r.ewr - a) * (r.ewr - b) + r.wi2
            n = (b - a) * r.wi
        if not np.isfinite(q).all():
            if not np.isfinite(b).all():  # x2^p past the float range
                raise NumericFailure(f"swept mass on ray {j} over [{x1}, {x2}] is not finite")
            far = ~np.isfinite(q)
            x, y, h = r.ewr[far], r.wi[far], 0.5 * (b - a)[far]
            d = np.hypot(x - (a[far] + h), y)
            q[far] = (1.0 - h / d) * (1.0 + h / d)
            n[far] = 2.0 * h / d * (y / d)
        ang = np.arctan(n / np.where(q == 0.0, 1.0, q)) / np.pi
        om = np.where(q > 0.0, ang, np.where(q < 0.0, 1.0 + ang, 0.5))
        total = float(np.sum((np.abs(r.mass) if variation else r.mass) * om))
        if not math.isfinite(total):
            raise NumericFailure(f"swept mass on ray {j} over [{x1}, {x2}] is not finite")
        return total

    def ray_density(self, j, t):
        """Total signed swept density on ray j at radius t > 0."""
        r = self._ray(j)
        dx = np.power(t, r.p) - r.ewr
        total = float(np.dot(r.coef, np.power(t, r.pm1) / (dx * dx + r.wi2)))
        if not math.isfinite(total):
            raise NumericFailure(f"swept density on ray {j} at t = {t} is not finite")
        return total

    def ray_distribution(self, j, x, variation=False):
        """Mass (or variation) of the closed segment of ray j out to radius x:
        the swept part plus the kept atoms at 0 < |z| <= x."""
        r = self._ray(j)
        total = self.ray_segment_mass(j, 0.0, x, variation=variation) if x > 0.0 else 0.0
        m = r.kept_m[:np.searchsorted(r.kept_r, x, side="right")]
        return total + float(np.sum(np.abs(m) if variation else m))


def balayage_halfplane(nu):
    """Sweep the open-upper-half part of nu onto R; the closed lower half stays."""
    kept, swept = [], []
    for z, m in nu.atoms:
        if z.imag > 0.0 and REAL_AXIS.ray_index(z) is None:
            swept.append(SweptAtom(z, m, REAL_AXIS.sectors[0]))
        else:
            kept.append((z, m))
    return BalayageCharge(system=None, kept=AtomicCharge(kept), swept=swept)


def balayage_system(nu, S):
    """Sweep nu onto the closed ray system S; atoms on S (origin included) stay."""
    kept, swept = [], []
    for z, m in nu.atoms:
        cls = classify_point(S, z)
        if isinstance(cls, OnSystem):
            kept.append((z, m))
        else:
            assert isinstance(cls, InSector)
            swept.append(SweptAtom(z, m, cls.sector))
    return BalayageCharge(system=S, kept=AtomicCharge(kept), swept=swept)


# ---------------------------------------------------------------------------
# Distribution functions on R


def _on_axis(z):
    return z == 0 or REAL_AXIS.ray_index(z) is not None


def _require_real_support(bal):
    for th in bal.rays.thetas:
        if not _on_axis(cmath.rect(1.0, th)):
            raise SupportOffAxis(f"system ray at angle {th} is off the real axis")
    for z, m in bal.kept.atoms:
        if not _on_axis(z):
            raise SupportOffAxis(f"kept atom at {z} is off the real axis")


def distribution_on_R(nu, x):
    """Signed distribution function on R: mass of [0, x] for x >= 0, minus the
    mass of [x, 0) for x < 0.  Accepts a real-supported AtomicCharge or a
    BalayageCharge whose target lies in R."""
    x = float(x)
    if isinstance(nu, AtomicCharge):
        for z, _ in nu.atoms:
            if not _on_axis(z):
                raise SupportOffAxis(f"atom at {z} is off the real axis")
        if x >= 0.0:
            return math.fsum(m for z, m in nu.atoms if 0.0 <= z.real <= x)
        return -math.fsum(m for z, m in nu.atoms if x <= z.real < 0.0)

    bal = nu
    _require_real_support(bal)
    j = bal.rays.ray_index(1.0 if x >= 0.0 else -1.0)
    total = 0.0 if j is None else bal.ray_distribution(j, abs(x))
    if x < 0.0:
        return -total
    return total + math.fsum(m for z, m in bal.kept.atoms if z == 0)


def seq_balayage_distribution(Z, x):
    """Distribution function of the full-plane sweep of a point sequence onto R.

    Z is a sequence of points or (point, mass) pairs; each off-axis point is
    swept within its half-plane (lower points mirror through the power map),
    real points stay."""
    atoms = []
    for item in Z:
        if isinstance(item, tuple):
            atoms.append((complex(item[0]), float(item[1])))
        else:
            atoms.append((complex(item), 1.0))
    bal = balayage_system(AtomicCharge(atoms), REAL_AXIS)
    return distribution_on_R(bal, x)


# ---------------------------------------------------------------------------
# Variation masses of a sweep (exact when signs allow, quadrature otherwise)


def _swept_variation_on_R(swept, t1, t2):
    """Variation the half-plane sweep puts on [t1, t2]: the harmonic-measure
    sum when the swept masses share a sign, else the checked quadrature of
    the density's absolute value."""
    if not swept:
        return 0.0
    if len({math.copysign(1.0, s.mass) for s in swept}) == 1:
        return math.fsum(abs(s.mass) * hm_interval(s.z, Interval(t1, t2)) for s in swept)
    dens = lambda t: abs(math.fsum(s.mass * poisson_kernel(t, s.z) for s in swept))
    val, _ = integrate(dens, t1, t2, "variation", epsabs=VARIATION_TOL, limit=400)
    return val


def _variation_interval_halfplane(bal, t1, t2):
    """Variation of the swept-onto-R part plus kept real atoms on the half-open
    interval matching the distribution-function difference conventions."""
    if t2 <= 0.0:
        atom_in = lambda v: t1 <= v < t2
    else:
        atom_in = lambda v: t1 < v <= t2
    total = math.fsum(abs(m) for z, m in bal.kept.atoms
                      if _on_axis(z) and atom_in(z.real))
    return total + _swept_variation_on_R(bal.swept, t1, t2)


def variation_radial(bal, r):
    """|nu^bal| mass of the closed disk of radius r, exact when each ray's
    swept contributions share a sign."""
    total = math.fsum(abs(m) for z, m in bal.kept.atoms if abs(z) <= r)
    if bal.system is None:
        return total + _swept_variation_on_R(bal.swept, -r, r)
    for j in range(len(bal.system.thetas)):
        contribs = bal.ray_contributions(j)
        if not contribs:
            continue
        signs = {math.copysign(1.0, m) for m, *_ in contribs}
        if len(signs) == 1:
            total += abs(bal.ray_segment_mass(j, 0.0, r))
        else:
            dens = lambda t, jj=j: abs(bal.ray_density(jj, t))
            val, _ = integrate(dens, 0.0, r, "variation", epsabs=VARIATION_TOL, limit=400)
            total += val
    return total


# ---------------------------------------------------------------------------
# Quantitative checks


@dataclass
class CheckResult:
    lhs: float
    rhs: float
    holds: bool
    detail: dict = field(default_factory=dict)


def check_thcup_bound(nu, t1, t2, a):
    """Interval-mass bound for the half-plane sweep: the variation the sweep
    puts on [t1, t2] (with t1*t2 >= 0) against the four-term right side built
    from the closed-upper-half part of nu alone."""
    if not t1 < t2:
        raise BadInput(f"need t1 < t2, got [{t1}, {t2}]")
    if t1 * t2 < 0.0:
        raise HypothesisViolated("interval must not straddle 0 (t1*t2 >= 0)")
    if not 0.0 < a < 1.0:
        raise BadInput(f"need a in (0,1), got {a}")
    x0 = 0.5 * (t1 + t2)
    r = 0.5 * (t2 - t1)
    upper = nu.restricted(lambda z: z.imag >= 0.0)
    bal = balayage_halfplane(nu)

    lhs = _variation_interval_halfplane(bal, t1, t2)

    t_disk = math.fsum(abs(m) for z, m in upper.atoms if abs(z - x0) <= r)
    t_rad = (2.0 * r / (a * abs(x0))) * math.fsum(
        abs(m) for z, m in upper.atoms if abs(z) <= (3.0 / a) * abs(x0))
    t_bl = (r / (1.0 - a) ** 2) * math.fsum(
        abs(m * imag_inv_conj(z)) for z, m in upper.atoms if abs(z) >= abs(x0))
    hi = a * abs(x0)
    if hi > r:
        f = counting_around(upper, x0, variation=True)
        t_tail = r * max(0.0, f.integral_f_power(1.0, r, hi))
    else:
        t_tail = 0.0
    rhs = t_disk + t_rad + t_bl + t_tail
    return CheckResult(lhs, rhs, lhs <= rhs + BOUND_SLACK,
                       {"disk": t_disk, "radial": t_rad, "blaschke": t_bl, "tail": t_tail})


def _gauge_value(g, r):
    gr = g(r) if callable(g) else float(g)
    if not gr > r:
        raise BadGauge(f"gauge must exceed r: g({r}) = {gr}")
    return gr


def check_ges_bound(nu, g, r):
    """Radial growth of the half-plane sweep against the gauge bound
    |nu|^rad(g(r)) + (2 r g^2 / (pi (g-r)^2)) * tail Blaschke integral."""
    if not r > 0.0:
        raise BadInput(f"need r > 0, got {r}")
    gr = _gauge_value(g, r)
    bal = balayage_halfplane(nu)
    lhs = variation_radial(bal, r)
    tail = math.fsum(abs(m * imag_inv_conj(z)) for z, m in nu.atoms if abs(z) >= gr)
    # open gauge disk: an atom exactly at |z| = g(r) is covered by the tail term
    rhs = (math.fsum(abs(m) for z, m in nu.atoms if abs(z) < gr)
           + 2.0 * r * gr * gr / (math.pi * (gr - r) ** 2) * tail)
    return CheckResult(lhs, rhs, lhs <= rhs + BOUND_SLACK, {"tail_integral": tail})


def check_ges_bound_system(nu, S, g, r):
    """System version: the tail constant sums, sector by sector, the reduced
    Blaschke weights of atoms outside the gauge disk, scaled by r^(pi/aperture)."""
    if not r > 0.0:
        raise BadInput(f"need r > 0, got {r}")
    gr = _gauge_value(g, r)
    bal = balayage_system(nu, S)
    lhs = variation_radial(bal, r)
    # closed at the gauge: an atom at |z| = g(r) counts here, not in the disk term
    far = [(z, m) for z, m in nu.atoms if abs(z) >= gr]
    c_plus = 0.0
    for sec in S.sectors:
        c_plus += r ** sec.exponent * _reduced_blaschke(sec, far)
    rhs = (math.fsum(abs(m) for z, m in nu.atoms if abs(z) < gr)
           + 8.0 * gr * gr / (math.pi * (gr - r) ** 2) * c_plus)
    return CheckResult(lhs, rhs, lhs <= rhs + BOUND_SLACK, {"c_plus": c_plus})


@dataclass
class LipschitzReport:
    modulus: float
    grid_step: float
    fitted_b: float | None = None


def check_lipschitz(nu, x1, x2, n_grid=200, p=None):
    """Empirical Lipschitz modulus of the sweep's distribution function on
    [x1, x2] (an interval off 0, away from the support).  With p given, also
    fits the constant b in |dF| <= b |dt| |x0|^{p-1} over sampled pairs."""
    if not x1 < x2:
        raise BadInput(f"need x1 < x2, got [{x1}, {x2}]")
    if not n_grid >= 1:
        raise BadInput(f"need n_grid >= 1, got {n_grid}")
    if x1 <= 0.0 <= x2:
        raise BadInput("interval must avoid 0")
    for z, _ in nu.atoms:
        if _on_axis(z) and x1 <= z.real <= x2:
            raise SupportTouchesInterval(f"atom at {z.real} lies in [{x1}, {x2}]")
    bal = balayage_halfplane(nu)
    xs = np.linspace(x1, x2, n_grid + 1).tolist()
    vals = [distribution_on_R(bal, x) for x in xs]
    h = (x2 - x1) / n_grid
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    modulus = max(diffs) / h if diffs else 0.0
    fitted_b = None
    if p is not None:
        fitted_b = 0.0
        for (xa, fa), (xb, fb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
            x0 = 0.5 * (xa + xb)
            fitted_b = max(fitted_b, abs(fb - fa) / (h * abs(x0) ** (p - 1.0)))
    return LipschitzReport(modulus=modulus, grid_step=h, fitted_b=fitted_b)


# ---------------------------------------------------------------------------
# Test functions on a ray system and the pairing identity


class RayTestFunction:
    """Continuous, compactly supported function on a ray system, piecewise
    linear along each ray: breakpoints[j] = [(t, value), ...] with t
    increasing; zero outside the listed range and on unlisted rays."""

    def __init__(self, S, breakpoints):
        self.S = S
        self.breakpoints = {}
        self._knots = {}  # ray -> (knot radii, values), for on_ray's bisection
        origin_values = []
        for j, pts in breakpoints.items():
            if not 0 <= j < len(S.thetas):
                raise BadInput(f"no ray {j} in the system")
            pts = sorted((float(t), float(v)) for t, v in pts)
            if not pts:
                continue
            if pts[0][0] < 0.0:
                raise BadInput("breakpoints need t >= 0")
            # continuity at the junction with the zero extension
            if pts[0][0] > 0.0 and pts[0][1] != 0.0:
                raise BadInput(f"ray {j} jumps to {pts[0][1]} at t={pts[0][0]}")
            if pts[-1][1] != 0.0:
                raise BadInput(f"ray {j} does not return to 0 at the support edge")
            self.breakpoints[j] = pts
            self._knots[j] = tuple(map(list, zip(*pts)))
            origin_values.append(pts[0][1] if pts[0][0] == 0.0 else 0.0)
        distinct = {v for v in origin_values}
        if len(distinct) > 1 or (distinct and distinct != {0.0}
                                 and len(self.breakpoints) < len(S.thetas)):
            raise BadInput("rays disagree at the origin; function not continuous")

    def on_ray(self, j, t):
        """F at radius t on ray j: linear between the knots of the first
        piece [t_i, t_(i+1)] that holds t, the value at t_i on a repeated knot."""
        ts, vs = self._knots.get(j, ((), ()))
        if not ts or t < ts[0] or t > ts[-1]:
            return 0.0
        i = bisect_left(ts, t, 1)  # t_(i-1) < t <= t_i, or t = t_0 and i = 1
        if i == len(ts):
            return vs[-1]  # a single knot
        ta, tb, va, vb = ts[i - 1], ts[i], vs[i - 1], vs[i]
        if tb == ta:
            return va
        return va + (vb - va) * (t - ta) / (tb - ta)

    def __call__(self, z):
        z = complex(z)
        if z == 0:
            for j in self.breakpoints:
                v = self.on_ray(j, 0.0)
                if v != 0.0:
                    return v
            return 0.0
        j = self.S.ray_index(z)
        if j is None:
            raise BadInput(f"point {z} is not on the system")
        return self.on_ray(j, abs(z))

    def ray_knots(self, j):
        return [t for t, _ in self.breakpoints.get(j, [])]


def _poisson_pairing(F, S, z):
    """Value at z of the harmonic extension of F to the complement of S."""
    cls = classify_point(S, z)
    if isinstance(cls, OnSystem):
        return F(z)
    sec, idx = cls.sector, cls.index
    k = len(S.thetas)
    w = reduce_to_halfplane(sec, z)
    p = sec.exponent
    total = 0.0
    for edge_ray, sign in ((idx, +1), ((idx + 1) % k, -1)):
        knots = F.ray_knots(edge_ray)
        if not knots:
            continue
        # F vanishes below its first knot, so the integral starts there
        lo, hi = knots[0] ** p, knots[-1] ** p
        if hi == 0.0:
            continue
        pts = {min(t ** p, hi) for t in knots if t > 0.0}
        # the kernel concentrates its mass near s ~ |w|; without these scale
        # hints quad can miss the spike entirely when hi >> |w|
        aw = abs(w)
        pts.update(aw * 2.0 ** j for j in range(-3, 40)
                   if lo < aw * 2.0 ** j < hi)
        fn = lambda s, er=edge_ray, sg=sign: (
            F.on_ray(er, s ** (1.0 / p)) * poisson_kernel(sg * s, w))
        val, _ = integrate(fn, lo, hi, "pairing", epsabs=QUAD_TOL, limit=600,
                           points=sorted(q for q in pts if lo < q < hi))
        total += val
    return total


def check_fubini(nu, S, F, tol=PAIRING_TOL):
    """Pairing identity: integrating F against the sweep equals integrating
    the harmonic extension of F against the source charge.

    The left side groups by ray (closed-form densities in the original radial
    variable); the right side groups by atom (Poisson integrals in the reduced
    variable), two genuinely independent computations."""
    bal = balayage_system(nu, S)
    lhs = math.fsum(m * F(z) for z, m in bal.kept.atoms)
    for j in range(len(S.thetas)):
        contribs = bal.ray_contributions(j)
        knots = F.ray_knots(j)
        if not contribs or not knots:
            continue
        lo, hi = knots[0], knots[-1]  # F's support on the ray
        if hi == 0.0:
            continue
        fn = lambda t, jj=j: F.on_ray(jj, t) * bal.ray_density(jj, t)
        val, _ = integrate(fn, lo, hi, "fubini", epsabs=QUAD_TOL, limit=400,
                           points=[t for t in knots if lo < t < hi])
        lhs += val
    rhs = math.fsum(m * _poisson_pairing(F, S, z) for z, m in nu.atoms)
    return CheckResult(lhs, rhs, abs(lhs - rhs) <= tol, {"difference": abs(lhs - rhs)})


def check_lindelof_preservation(nu, S, q, r0=1.0, radii=(4, 8, 16, 32, 64, 128, 256)):
    """Compare the power sums of nu and of its sweep over growing radii; the
    sweep preserves the bounded-sum property when their difference stays flat."""
    bal = balayage_system(nu, S)
    power_sums = [(lindelof_sum(nu, q, r0, r),
                   lindelof_sum(bal.kept, q, r0, r) if bal.kept.atoms else 0.0 + 0.0j)
                  for r in radii]
    # t^(-q) rho_j over the shells [r0, r_1], [r_1, r_2], ...: the running
    # sums are the integrals from r0, and the shells' errors add up to at
    # most QUAD_TOL
    swept = []
    for j, th in enumerate(S.thetas):
        if not bal.ray_contributions(j):
            continue
        total, cumulative = 0.0, []
        for a, b in zip((r0, *radii), radii):
            shell, _ = integrate(lambda t, jj=j: t ** (-q) * bal.ray_density(jj, t),
                                 a, b, "lindelof", epsabs=QUAD_TOL / len(radii), limit=400)
            total += shell
            cumulative.append(total)
        swept.append((cmath.exp(-1j * q * th), cumulative))
    diffs = []
    for i, (lv, lb) in enumerate(power_sums):
        for phase, cumulative in swept:
            lb += phase * cumulative[i]
        diffs.append(abs(lv - lb))
    slope, growing = divergence_verdict(radii, diffs)
    return {"radii": list(radii), "differences": diffs,
            "slope": slope, "bounded": not growing}
