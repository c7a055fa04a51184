"""Atomic charges, their counting functions, and balayage onto the real axis
or onto a closed system of rays.

A charge is a finite list of weighted atoms.  Sweeping replaces each atom off
the target set by its harmonic-measure image; the result is kept symbolic as
source atoms and their host sectors, so the distribution function along any
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
from functools import cached_property
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
from .harmonic_measure import interval_form, poisson_integral
from .numerics import (BOUND_SLACK, PAIRING_TOL, QUAD_TOL, SAMPLE_BLOCK_ELEMENTS,
                       VARIATION_HALVINGS, VARIATION_TOL, decade_breakpoints, integrate)
from .ray_geometry import REAL_AXIS, RaySystem, modulus, radial_power, reduce_to_halfplane
from .stepfn import StepFunction

_SLOPE_DIVERGENT = 0.1  # fitted growth vs log r above this flags divergence


def _freeze(obj, **arrays):
    """Set the arrays, read-only, as attributes of the frozen dataclass obj."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)
    return obj


@dataclass(frozen=True, eq=False, init=False)
class AtomicCharge:
    """Finite signed atomic charge: read-only arrays z (complex) and m (float)
    of its atoms' locations and masses, in input order.  Built and checked in
    one place, from (location, mass) pairs: every atom finite, atoms of zero
    mass dropped; a part or a sum of charges is built from their arrays."""

    z: np.ndarray
    m: np.ndarray

    def __init__(self, atoms):
        atoms = list(atoms)
        z = np.array([complex(z) for z, _ in atoms], dtype=complex)
        m = np.array([float(m) for _, m in atoms], dtype=float)
        bad = ~(np.isfinite(z) & np.isfinite(m))
        if bad.any():
            i = bad.argmax()
            raise BadInput(f"non-finite atom ({complex(z[i])}, {float(m[i])})")
        _freeze(self, z=z[m != 0.0], m=m[m != 0.0])

    @classmethod
    def _of(cls, z, m):
        return _freeze(cls.__new__(cls), z=z, m=m)

    @property
    def total_mass(self):
        return math.fsum(self.m.tolist())

    def __getitem__(self, mask):
        """The atoms that the boolean mask selects."""
        return AtomicCharge._of(self.z[mask], self.m[mask])

    def __add__(self, other):
        return AtomicCharge._of(np.concatenate((self.z, other.z)),
                                np.concatenate((self.m, other.m)))

    def to_json(self):
        return {"atoms": [{"re": x, "im": y, "mass": m} for x, y, m in zip(
            self.z.real.tolist(), self.z.imag.tolist(), self.m.tolist())]}

    @classmethod
    def from_json(cls, data):
        return cls((complex(a["re"], a["im"]), a["mass"]) for a in data["atoms"])


def counting_around(nu, x0, variation=True):
    """Step function t -> mass in the closed disk centered x0 of radius t."""
    return StepFunction.from_events(zip(modulus(nu.z - x0).tolist(),
                                        (np.abs(nu.m) if variation else nu.m).tolist()))


# ---------------------------------------------------------------------------
# Blaschke and power-sum diagnostics


def blaschke_halfplane(nu, r0):
    """Sum of |m| * Im(1/conj z) over upper-half atoms outside the closed disk r0:
    the Blaschke sum of REAL_AXIS's upper sector (the lower one's is not formed)."""
    return blaschke_outside_system(nu[REAL_AXIS.sector_index(nu.z) == 0], REAL_AXIS, r0)[0]


def blaschke_outside_system(nu, S, r0):
    """Per-sector Blaschke sums for the complement of the ray system, by
    sector index: of |m| * Im(w) / |w|^2, w the image under the sector's power
    map, over the atoms strictly inside the sector and outside the closed disk
    r0 (in original coordinates).  Only those atoms are swept; a sum past the
    float range is a NumericFailure."""
    if not r0 > 0.0:
        raise BadInput(f"need r0 > 0, got {r0}")
    bal = balayage_system(nu[modulus(nu.z) > r0], S)
    sums = _sector_sums(bal.sector, bal.swept.m, bal.w, len(S))
    if not all(map(math.isfinite, sums)):
        raise NumericFailure(f"the Blaschke sum outside r0 = {r0!r} passes the float range")
    return dict(enumerate(sums))


def _sector_sums(sector, m, w, k):
    """Per sector 0..k-1, the sum of |m| * Im w / |w| / |w| = |m| * Im(1 / conj w)
    (no |w|^2 to overflow) in the atoms' order; inf past the float range."""
    aw = modulus(w)
    with np.errstate(over="ignore"):
        return np.bincount(sector, np.abs(m) * (w.imag / aw / aw), minlength=k).tolist()


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
    """Sum of m / z^q over atoms with r0 < |z| <= r (principal power); a sum
    past the float range is a NumericFailure."""
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got r0={r0}, r={r}")
    if not (isinstance(q, int) and q >= 1):
        raise BadInput(f"need a positive integer exponent, got {q}")
    az = modulus(nu.z)
    inside = (r0 < az) & (az <= r)
    total = 0.0 + 0.0j
    try:
        for z, m in zip(nu.z[inside].tolist(), nu.m[inside].tolist()):
            total += m / z ** q
    except ZeroDivisionError:  # z^q underflowed to 0
        total = complex(math.inf)
    if not cmath.isfinite(total):
        raise NumericFailure(f"the power sum over ({r0!r}, {r!r}] passes the float range")
    return total


# ---------------------------------------------------------------------------
# Balayage


class _RayArrays(NamedTuple):
    """What a sweep puts on one ray, built once, on the first ray query: for
    each swept atom whose sector has the ray as an edge, in the atoms' order,
    its mass, its image w under the sector's power map, the map's exponent p,
    and edge +1 when the ray is the sector's lower edge (image in R+), -1 when
    it is the upper edge (R-); and the kernels' factors ewr = edge * Re w (the
    image seen from the ray's side: (edge*s - Re w)^2 = (s - ewr)^2 exactly),
    coef = mass * p * Im w / pi and pm1 = p - 1."""

    mass: np.ndarray
    w: np.ndarray
    p: np.ndarray
    edge: np.ndarray
    ewr: np.ndarray
    coef: np.ndarray
    pm1: np.ndarray


@dataclass(frozen=True, eq=False)
class BalayageCharge:
    """Result of sweeping: the atoms already on the target set, and the swept
    atoms, whose densities are evaluated in closed form.

    swept holds the source atoms and sector, read-only, the index into
    rays.sectors of each one's host sector.  The images w of the swept atoms
    under their sectors' power maps are formed and checked once, here; the
    per-ray arrays and the kept atoms by ray are built on the first query
    that reads them (the variation reads the arrays of every ray, REAL_AXIS's
    two for the half-plane sweep)."""

    system: RaySystem | None  # None: swept onto R out of the upper half-plane
    kept: AtomicCharge
    swept: AtomicCharge
    sector: np.ndarray
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        secs = self.rays.sectors
        sector = np.array(self.sector, dtype=np.intp)
        if sector.shape != self.swept.m.shape or sector.size and not (
                0 <= sector.min() and sector.max() < len(secs)):
            raise BadInput(f"need a sector in [0, {len(secs)}) per swept atom, got {sector}")
        w = np.array([reduce_to_halfplane(secs[i], z) for i, z in
                      zip(sector.tolist(), self.swept.z.tolist())], dtype=complex)
        if not (w.imag > 0.0).all():  # the kernels divide by Im w
            raise NotInUpperHalfPlane("need Im w > 0 for every swept image, got "
                                      f"w = {_first(w, ~(w.imag > 0.0))}")
        _freeze(self, sector=sector, w=w)

    @cached_property
    def _arrays(self):
        """The _RayArrays of each ray."""
        k = len(self.rays)
        # sector i runs from ray i, its lower edge, to ray i+1, its upper edge;
        # sorted by ray, stably, each ray's (atom, edge) pairs keep the atoms' order
        ray = (self.sector[:, None] + (0, 1)) % k
        atom, upper = np.divmod(np.argsort(ray, axis=None, kind="stable"), 2)
        m, w = self.swept.m[atom], self.w[atom]
        p = np.array([sec.exponent for sec in self.rays.sectors])[self.sector[atom]]
        edge = 1.0 - 2.0 * upper
        with np.errstate(over="ignore"):  # a coef past the float range: ray_density fails
            cols = (m, w, p, edge, edge * w.real, m * p * w.imag / np.pi, p - 1.0)
        for c in cols:
            c.flags.writeable = False
        ends = [0, *np.bincount(ray.ravel(), minlength=k).cumsum().tolist()]
        return tuple(_RayArrays(*(c[a:b] for c in cols)) for a, b in zip(ends, ends[1:]))

    @cached_property
    def _kept_on_rays(self):
        """(radii, masses) of the kept atoms on each ray, by radius."""
        kept = self.kept[self.kept.z != 0]
        r = modulus(kept.z)
        order = np.argsort(r, kind="stable")
        j, r, m = self.rays.ray_index(kept.z[order]), r[order], kept.m[order]
        return tuple((r[j == i], m[j == i]) for i in range(len(self.rays)))

    @property
    def total_mass(self):
        return (self.kept + self.swept).total_mass

    @property
    def rays(self):
        """The target ray system; REAL_AXIS for the half-plane sweep."""
        return REAL_AXIS if self.system is None else self.system

    def to_json(self):
        secs = self.rays.sectors
        out = {"kept": self.kept.to_json(),
               "swept": [{"source": a, "sector": None if self.system is None
                          else [secs[i].alpha, secs[i].beta]}
                         for a, i in zip(self.swept.to_json()["atoms"], self.sector.tolist())]}
        if self.system is not None:
            out["system"] = self.system.to_json()
        return out

    # -- per-ray structure ---------------------------------------------------

    def _ray(self, j):
        if not 0 <= j < len(self._arrays):
            raise BadInput(f"no ray {j} in a {len(self._arrays)}-ray target")
        return self._arrays[j]

    def ray_contributions(self, j):
        """Swept contributions to ray j: the read-only arrays (mass, w, p, edge),
        edge +1 where the ray is the sector's lower edge (image in R+), -1 where
        it is the upper edge (R-)."""
        return self._ray(j)[:4]

    def ray_segment_mass(self, j, x1, x2, variation=False):
        """Swept mass landing on ray j between radii x1 < x2 (closed form); x2
        a radius, or an array of radii with an array of masses returned.

        Each contribution is the harmonic measure, at its image point w, of
        the image interval e*[x1^p, x2^p]: interval_form at (e*Re w, Im w)
        over [x1^p, x2^p], the one closed form that hm_interval evaluates at
        one point.  An end x2^p past the float range gives a NaN mass, a
        NumericFailure.  The radii x contributions terms are formed
        SAMPLE_BLOCK_ELEMENTS at a time."""
        x2 = np.asarray(x2, dtype=float)
        radii = x2.ravel()
        if not (0.0 <= x1 and (x1 < radii).all()):
            bad = ~(x1 < radii) | (not 0.0 <= x1)
            raise BadInput(f"need 0 <= x1 < x2, got [{x1}, {_first(radii, bad)}]")
        r = self._ray(j)
        weight = np.abs(r.mass) if variation else r.mass
        total = np.empty(radii.shape)
        step = max(1, SAMPLE_BLOCK_ELEMENTS // max(1, len(r.mass)))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, radii.size, step):
                om = interval_form(r.ewr, r.w.imag, np.power(x1, r.p),
                                   np.power(radii[i:i + step, None], r.p))[0]
                total[i:i + step] = np.sum(weight * om, axis=-1)
        if not np.isfinite(total).all():
            raise NumericFailure(f"swept mass on ray {j} over "
                                 f"[{x1}, {_first(radii, ~np.isfinite(total))}] is not finite")
        return float(total[0]) if x2.ndim == 0 else total.reshape(x2.shape)

    def ray_density(self, j, t):
        """Total signed swept density on ray j at radius t > 0, each term
        coef / h * (t^(p-1) / h), h = |t^p - e w|: no square to leave the float range."""
        r = self._ray(j)
        h = np.hypot(np.power(t, r.p) - r.ewr, r.w.imag)
        total = float(np.dot(r.coef / h, np.power(t, r.pm1) / h))
        if not math.isfinite(total):
            raise NumericFailure(f"swept density on ray {j} at t = {t} is not finite")
        return total

    def ray_distribution(self, j, x, variation=False):
        """Mass (or variation) of the closed segment of ray j out to radius x,
        or out to each radius of an array x: the swept part, 0 at x = 0, plus
        the kept atoms at 0 < |z| <= x."""
        self._ray(j)  # BadInput for a ray the target lacks
        kept_r, kept_m = self._kept_on_rays[j]
        x = np.asarray(x, dtype=float)
        ok = x >= 0.0
        if not ok.all():
            raise BadInput(f"need radii x >= 0, got {_first(x.ravel(), ~ok.ravel())}")
        total = np.zeros(x.shape)
        pos = x > 0.0
        if pos.any():
            total[pos] = self.ray_segment_mass(j, 0.0, x[pos], variation=variation)
        kept = np.cumsum(np.abs(kept_m) if variation else kept_m)
        total = total + np.concatenate(([0.0], kept))[
            np.searchsorted(kept_r, x, side="right")]
        return float(total) if x.ndim == 0 else total


def _first(values, bad):
    """The first of the values that bad flags, a Python number, for a message."""
    return values[np.argmax(bad)].item()


def balayage_halfplane(nu):
    """Sweep the open-upper-half part of nu onto R, each swept atom in
    REAL_AXIS.sectors[0]; the closed lower half stays."""
    swept = REAL_AXIS.sector_index(nu.z) == 0
    return BalayageCharge(None, nu[~swept], nu[swept],
                          np.zeros(np.count_nonzero(swept), dtype=np.intp))


def balayage_system(nu, S):
    """Sweep nu onto the closed ray system S; atoms on S (origin included) stay."""
    sector = S.sector_index(nu.z)
    on = sector < 0
    return BalayageCharge(S, nu[on], nu[~on], sector[~on])


# ---------------------------------------------------------------------------
# Distribution functions on R


def _require_real_support(bal):
    off = REAL_AXIS.sector_index([cmath.rect(1.0, th) for th in bal.rays.thetas]) >= 0
    if off.any():
        raise SupportOffAxis(f"system ray at angle {_first(np.array(bal.rays.thetas), off)} "
                             "is off the real axis")
    off = REAL_AXIS.sector_index(bal.kept.z) >= 0
    if off.any():
        raise SupportOffAxis(f"kept atom at {_first(bal.kept.z, off)} is off the real axis")


def distribution_on_R(nu, x):
    """Signed distribution function on R: mass of [0, x] for x >= 0, minus the
    mass of [x, 0) for x < 0.  Accepts a real-supported AtomicCharge or a
    BalayageCharge whose target lies in R."""
    x = float(x)
    if math.isnan(x):
        raise BadInput("need a real x, got nan")
    if isinstance(nu, AtomicCharge):
        off = REAL_AXIS.sector_index(nu.z) >= 0
        if off.any():
            raise SupportOffAxis(f"atom at {_first(nu.z, off)} is off the real axis")
        t = nu.z.real
        if x >= 0.0:
            return math.fsum(nu.m[(0.0 <= t) & (t <= x)].tolist())
        return -math.fsum(nu.m[(x <= t) & (t < 0.0)].tolist())

    return _swept_distribution_on_R(nu, x, x >= 0.0)


def _swept_distribution_on_R(bal, x, right):
    """distribution_on_R of a sweep at x, a point or an array of points all
    >= 0 (right) or all < 0: one ray_distribution call."""
    _require_real_support(bal)
    j = bal.rays.ray_index(1.0 if right else -1.0)
    total = 0.0 if j is None else bal.ray_distribution(j, abs(x))
    if not right:
        return -total
    return total + math.fsum(bal.kept.m[bal.kept.z == 0].tolist())


# ---------------------------------------------------------------------------
# Variation masses of a sweep


def _one_sign(m):
    """True when the nonzero masses m share a sign (or there are none)."""
    neg = np.signbit(m)
    return neg.all() or not neg.any()


def _hidden_variation(terms, u, v):
    """Per piece [u, v] of a ray whose density has the terms (coef, ewr, Im w,
    p), a bound on what |mass| of the piece misses of its variation, 0 where
    the density keeps its sign.  Term by term, t^(1-q) rho(t), q the least p,
    lies in [lo, hi]: t^(p-q) at u or v, and the Lorentzian in s = t^p at the
    farthest or nearest s in [u^p, v^p], formed as poisson_kernel forms it,
    Im w / h / h.  |mass| misses at most 2 max(0, min(hi, -lo)) (v^q - u^q) / q."""
    coef, ewr, y, p = terms
    q = p.min()
    du, dv = np.power(u[:, None], p) - ewr, np.power(v[:, None], p) - ewr
    near = np.hypot(np.maximum(np.maximum(du, -dv), 0.0), y)
    far = np.hypot(np.maximum(-du, dv), y)
    # the Lorentzian first: coef * t^(p-q) can underflow where the bound does not
    at_near = coef / near / near * np.power(v[:, None], p - q)
    at_far = coef / far / far * np.power(u[:, None], p - q)
    lo = np.minimum(at_near, at_far).sum(axis=1)
    hi = np.maximum(at_near, at_far).sum(axis=1)
    return 2.0 * np.maximum(0.0, np.minimum(hi, -lo)) * (v ** q - u ** q) / q


def _ray_variation(bal, j, a, b):
    """Variation the sweep puts on the segment [a, b] of ray j: |mass| of the
    segment when the ray's masses share a sign, else the fsum of |mass| over
    pieces, halving [a, b] (a level's open pieces at once) until each keeps
    its sign or the open ones miss at most VARIATION_TOL in all.  Atoms with
    one image are one term, so opposite masses there cancel exactly; halving
    more than VARIATION_HALVINGS pieces is a NumericFailure."""
    if not a < b:
        return 0.0
    r = bal._ray(j)
    if _one_sign(r.mass):
        return abs(bal.ray_segment_mass(j, a, b))
    (ewr, y, p), one = np.unique(np.stack((r.ewr, r.w.imag, r.p)), axis=1, return_inverse=True)
    terms = (np.bincount(one.ravel(), weights=r.coef), ewr, y, p)
    step = max(1, SAMPLE_BLOCK_ELEMENTS // p.size)
    u, v, cuts, halvings = np.array([a]), np.array([b]), [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while u.size:
            hidden = np.concatenate([_hidden_variation(terms, u[i:i + step], v[i:i + step])
                                     for i in range(0, u.size, step)])
            # a NaN bound neither proves a sign nor fits the tolerance
            whole = (hidden <= 0.0) | (hidden.sum() <= VARIATION_TOL)
            cuts.append(v[whole])
            u, v = u[~whole], v[~whole]
            halvings += u.size
            if halvings > VARIATION_HALVINGS:
                raise NumericFailure(f"the sign of the swept density on ray {j} over "
                                     f"[{a}, {b}] is not settled in {VARIATION_HALVINGS} halvings")
            mid = 0.5 * (u + v)
            u, v = np.concatenate((u, mid)), np.concatenate((mid, v))
    mass = bal.ray_segment_mass(j, a, np.sort(np.concatenate(cuts)))
    return math.fsum(np.abs(np.diff(mass, prepend=0.0)).tolist())


def _variation_interval_halfplane(bal, t1, t2):
    """Variation of the swept-onto-R part plus kept real atoms on the half-open
    interval matching the distribution-function difference conventions: the
    swept part on [t1, t2] split at 0 onto REAL_AXIS's rays at 0 and pi."""
    t = bal.kept.z.real
    atom_in = (t1 <= t) & (t < t2) if t2 <= 0.0 else (t1 < t) & (t <= t2)
    atom_in &= REAL_AXIS.sector_index(bal.kept.z) < 0
    total = math.fsum(np.abs(bal.kept.m[atom_in]).tolist())
    return total + _ray_variation(bal, 0, max(t1, 0.0), t2) + _ray_variation(
        bal, 1, max(-t2, 0.0), -t1)


def variation_radial(bal, r):
    """|nu^bal| mass of the closed disk of radius r: the kept atoms in it and
    the swept variation on [0, r] of every ray (REAL_AXIS's two for the
    half-plane sweep)."""
    if not r >= 0.0:
        raise BadInput(f"need r >= 0, got {r}")
    total = math.fsum(np.abs(bal.kept.m[modulus(bal.kept.z) <= r]).tolist())
    return total + math.fsum(_ray_variation(bal, j, 0.0, r) for j in range(len(bal.rays)))


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
    sec = REAL_AXIS.sector_index(nu.z)  # 0 above R, -1 on it
    upper = nu[sec <= 0]
    bal = balayage_halfplane(nu)

    lhs = _variation_interval_halfplane(bal, t1, t2)

    az, mass = modulus(upper.z), np.abs(upper.m)
    t_disk = math.fsum(mass[modulus(upper.z - x0) <= r].tolist())
    t_rad = (2.0 * r / (a * abs(x0))) * math.fsum(mass[az <= (3.0 / a) * abs(x0)].tolist())
    # the upper sector's Blaschke term: an atom on R adds 0, whatever its Im z
    far = (az >= abs(x0)) & (sec[sec <= 0] == 0)
    t_bl = (r / (1.0 - a) ** 2) * _blaschke_weight(upper[far])
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


def _blaschke_weight(nu):
    """fsum of |m| * Im(1 / conj z) over the atoms of nu, all off the origin."""
    az = modulus(nu.z)
    return math.fsum(np.abs(nu.m * (nu.z.imag / az / az)).tolist())


def _gauge_bound(nu, r, gr, tail):
    """|nu| of the open gauge disk plus tail (g / (g - r))^2, the ges bounds'
    right side, or NumericFailure.  The factor is a ratio: g^2 and (g - r)^2
    leave the float range long before it does; the scaled tail is at most |nu|."""
    q = gr / (gr - r)
    rhs = math.fsum(np.abs(nu.m[modulus(nu.z) < gr]).tolist()) + tail * q * q
    if not math.isfinite(rhs):
        raise NumericFailure(f"the gauge bound at r = {r}, g(r) = {gr} is not finite")
    return rhs


def check_ges_bound(nu, g, r):
    """Radial growth of the half-plane sweep against the gauge bound
    |nu|^rad(g(r)) + (2 r g^2 / (pi (g-r)^2)) * tail Blaschke integral."""
    if not r > 0.0:
        raise BadInput(f"need r > 0, got {r}")
    gr = _gauge_value(g, r)
    bal = balayage_halfplane(nu)
    lhs = variation_radial(bal, r)
    # open gauge disk: an atom exactly at |z| = g(r) is covered by the tail term
    tail = _blaschke_weight(nu[modulus(nu.z) >= gr])
    rhs = _gauge_bound(nu, r, gr, 2.0 * r / math.pi * tail)
    return CheckResult(lhs, rhs, lhs <= rhs + BOUND_SLACK, {"tail_integral": tail})


def check_ges_bound_system(nu, S, g, r):
    """System version: the tail constant sums, sector by sector, the reduced
    Blaschke weights of atoms outside the gauge disk, scaled by r^(pi/aperture)."""
    if not r > 0.0:
        raise BadInput(f"need r > 0, got {r}")
    gr = _gauge_value(g, r)
    bal = balayage_system(nu, S)
    lhs = variation_radial(bal, r)
    # closed at the gauge: an atom at |z| = g(r) counts here, not in the disk term;
    # far atoms on S are kept, so the reduced weights are the swept ones' sector sums
    far = modulus(bal.swept.z) >= gr
    b = _sector_sums(bal.sector[far], bal.swept.m[far], bal.w[far], len(S))
    c_plus = 0.0
    for sec, bi in zip(S.sectors, b):
        if bi:  # a sector without far atoms adds 0, however large r^p is
            c_plus += radial_power(r, sec.exponent) * bi
    rhs = _gauge_bound(nu, r, gr, 8.0 / math.pi * c_plus)
    return CheckResult(lhs, rhs, lhs <= rhs + BOUND_SLACK, {"c_plus": c_plus})


@dataclass
class LipschitzReport:
    modulus: float
    grid_step: float
    fitted_b: float | None = None


def check_lipschitz(nu, x1, x2, n_grid=200, p=None):
    """Empirical Lipschitz modulus of the sweep's distribution function on
    [x1, x2] (an interval off 0, away from the support).  With p given, also
    fits the constant b in |dF| <= b |dt| |x0|^{p-1} over sampled pairs.
    The modulus is +inf where a difference over the grid step has no float."""
    if not x1 < x2:
        raise BadInput(f"need x1 < x2, got [{x1}, {x2}]")
    if not n_grid >= 1:
        raise BadInput(f"need n_grid >= 1, got {n_grid}")
    if x1 <= 0.0 <= x2:
        raise BadInput("interval must avoid 0")
    t = nu.z.real
    touch = (REAL_AXIS.sector_index(nu.z) < 0) & (x1 <= t) & (t <= x2)
    if touch.any():
        raise SupportTouchesInterval(f"atom at {_first(t, touch)} lies in [{x1}, {x2}]")
    bal = balayage_halfplane(nu)
    xs = np.linspace(x1, x2, n_grid + 1)
    # the grid avoids 0, so it lies on one side
    vals = _swept_distribution_on_R(bal, xs, x1 > 0.0).tolist()
    xs = xs.tolist()
    h = (x2 - x1) / n_grid
    diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
    modulus = max(diffs) / h if diffs else 0.0
    fitted_b = None if p is None else max(0.0, *(
        d / (h * abs(0.5 * (xa + xb)) ** (p - 1.0)) for d, xa, xb in zip(diffs, xs, xs[1:])))
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


def _poisson_pairing(F, S, i, w):
    """Value at a point of sector i of S, w its image under the sector's
    power map, of the harmonic extension of F to the complement of S: one
    poisson_integral per edge in the reduced variable s = t^p, split at F's
    knots, each edge seen from its point of S.edge_views."""
    p = S.sectors[i].exponent
    total = 0.0
    for edge_ray, seen_from in S.edge_views(i, w):
        knots = F.ray_knots(edge_ray)
        if not knots:
            continue
        # F vanishes below its first knot, so the integral starts there
        try:
            lo, hi = knots[0] ** p, knots[-1] ** p
        except OverflowError:
            raise NumericFailure(f"pairing on ray {edge_ray}: the reduced end "
                                 f"{knots[-1]}^{p} is past the float range") from None
        if hi == 0.0:
            continue
        total += poisson_integral(lambda s, er=edge_ray: F.on_ray(er, s ** (1.0 / p)),
                                  seen_from, lo, hi, [t ** p for t in knots], "pairing")[0]
    return total


def check_fubini(nu, S, F, tol=PAIRING_TOL):
    """Pairing identity: integrating F against the sweep equals integrating
    the harmonic extension of F against the source charge.

    The left side groups by ray (closed-form densities in the original radial
    variable); the right side groups by atom (Poisson integrals in the reduced
    variable), two genuinely independent computations."""
    bal = balayage_system(nu, S)
    # F itself at the kept atoms, on S
    kept = [m * F(z) for z, m in zip(bal.kept.z.tolist(), bal.kept.m.tolist())]
    lhs = math.fsum(kept)
    for j in range(len(S.thetas)):
        knots = F.ray_knots(j)
        m, w, p, _ = bal.ray_contributions(j)
        if not m.size or not knots:
            continue
        lo, hi = knots[0], knots[-1]  # F's support on the ray
        if hi == 0.0:
            continue
        # decades from lo, or for lo = 0 from F's first positive knot or the least |w|^(1/p)
        scale = [] if lo else [float(np.min(modulus(w) ** (1.0 / p)))]
        fn = lambda t, jj=j: F.on_ray(jj, t) * bal.ray_density(jj, t)
        val, _ = integrate(fn, lo, hi, "fubini", points=decade_breakpoints(lo, hi, knots + scale))
        lhs += val
    # the sweep classified the atoms once: F's extension is F on S
    rhs = math.fsum(kept + [m * _poisson_pairing(F, S, i, w) for m, i, w in zip(
        bal.swept.m.tolist(), bal.sector.tolist(), bal.w.tolist())])
    return CheckResult(lhs, rhs, abs(lhs - rhs) <= tol, {"difference": abs(lhs - rhs)})


def check_lindelof_preservation(nu, S, q, r0=1.0, radii=(4, 8, 16, 32, 64, 128, 256)):
    """Compare the power sums of nu and of its sweep over growing radii; the
    sweep preserves the bounded-sum property when their difference stays flat."""
    bal = balayage_system(nu, S)
    power_sums = [(lindelof_sum(nu, q, r0, r),
                   lindelof_sum(bal.kept, q, r0, r))
                  for r in radii]
    # t^(-q) rho_j over the shells [r0, r_1], [r_1, r_2], ..., each split at
    # its decades: the running sums are the integrals from r0, and the shells'
    # errors add up to at most QUAD_TOL
    swept = []
    for j, th in enumerate(S.thetas):
        if not bal.ray_contributions(j)[0].size:
            continue
        total, cumulative = 0.0, []
        for a, b in zip((r0, *radii), radii):
            shell, _ = integrate(lambda t, jj=j: t ** (-q) * bal.ray_density(jj, t),
                                 a, b, "lindelof", epsabs=QUAD_TOL / len(radii),
                                 points=decade_breakpoints(a, b, ()))
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
