"""Indicator estimation, principal-value kernel integrals against radial
counting functions, completely-regular-growth diagnostics on rays, the
four-bisector functionals, and angular densities.

"Limit outside a set of zero relative density" is operationalized on a finite
radius grid: fit a limit candidate, count the radii whose relative residual
exceeds the tolerance, and report that fraction as the exceptional-set density
estimate.  The exceptional set itself is never materialized.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .charges import lindelof_sum
from .errors import BadInput, CoincidentPoints, NumericFailure
from .growth_scales import exact_ratios, radius_grid
from .ray_geometry import REAL_AXIS, Sector, modulus, normalize_angle, radial_power
from .stepfn import StepFunction
from .subharmonic import kernel_sum


# ---------------------------------------------------------------------------
# Indicator estimation


def indicator_estimate(v, theta, p, window):
    """Max of v(r e^{i theta}) / r^p over a grid in the window, eight steps
    per octave.

    Estimator semantics: a grid maximum is a lower estimate of the limsup;
    callers choose windows wide enough for their data.
    """
    if not p > 0.0:
        raise BadInput(f"need p > 0, got {p}")
    r_lo, r_hi = window
    best = -math.inf
    for r in radius_grid(r_lo, r_hi, 8):
        best = max(best, v(cmath.rect(r, theta)) / r ** p)
    return best


# ---------------------------------------------------------------------------
# Principal-value kernel integrals


def _check_convergence_class(n, q):
    """Reject counting data whose fitted growth reaches order q+1 at infinity.

    Near zero the class at order q is automatic for step data starting at a
    positive first jump with zero offset; that much is enforced exactly.
    """
    if n.offset != 0.0:
        raise BadInput("counting function must vanish near 0 (offset 0)")
    if not len(n):
        return
    hi = float(n.points[-1])
    lo = max(float(n.points[0]), hi / 10.0)
    if hi <= lo * 1.5:
        return
    vlo = abs(n(lo))
    vhi = abs(n(hi))
    if vlo <= 0.0 or vhi <= 0.0:
        return
    est = math.log(vhi / vlo) / math.log(hi / lo)
    if est >= q + 1 - 0.05:
        raise BadInput(
            f"fitted growth {est:.3g} reaches the convergence bound {q + 1} at infinity")


def _jump_atoms(n):
    """kernel_sum's arrays for the jumps of n: mass J_i at the point p_i."""
    return n.points, n.points, np.log(n.points), n.jumps


def pv_kernel_integral(n, q, z):
    """Principal value of int n(t) Re(z^{q+1} / (t^{q+1} (z - t))) dt over
    t > 0, in closed form: the antiderivative -K_q(t, z) of the PV density
    telescopes over n's pieces to sum_i J_i K_q(p_i, z), J_i the jump at p_i.
    At real positive z it is the symmetric-excision PV; n may not jump at z.
    """
    if not (isinstance(q, int) and q >= 0):
        raise BadInput(f"need integer q >= 0, got {q}")
    if not isinstance(n, StepFunction):
        raise BadInput("n must be a StepFunction")
    z = complex(z)
    _check_convergence_class(n, q)
    if z.imag == 0.0 and z.real > 0.0 and np.any(
            np.abs(n.points - z.real) <= 1e-12 * max(1.0, z.real)):
        raise BadInput(f"counting function jumps at the singular point {z.real}")
    return kernel_sum(_jump_atoms(n), z, q)


# ---------------------------------------------------------------------------
# Completely-regular-growth diagnostics


@dataclass
class RayLimitRecord:
    theta: float
    limit: float
    window: tuple
    spread: float
    exceptional_fraction: float
    stable: bool
    radii: list = field(default_factory=list)
    values: list = field(default_factory=list)

    def to_json(self):
        return {**asdict(self), "window": list(self.window)}


@dataclass
class CRGReport:
    per_ray: list
    exceptional_density: float

    def __post_init__(self):
        if not (0.0 <= self.exceptional_density <= 1.0):
            raise BadInput("exceptional density must lie in [0, 1]")

    @property
    def stable(self):
        return all(rec.stable for rec in self.per_ray)

    def to_json(self):
        return {
            "rays": [rec.to_json() for rec in self.per_ray],
            "stable": self.stable,
            "exceptional_density": self.exceptional_density,
        }


# irrational phase inside the octave keeps grid radii off integer atoms
_GRID_PHASE = 2.0 ** (0.5 * (math.sqrt(5.0) - 1.0) / 4.0)


def _default_crg_radii(n_by_ray, truncation=None):
    """Two octaves around sqrt(T log T), phase-shifted off integer breakpoints.

    T is the declared truncation radius of the data (max support by default).
    The kernel sums drift like log(r)/r from below and like r/T from data
    truncation above; the geometric middle balances the two error sources.
    """
    supports = [float(n.points[-1]) for n in n_by_ray if len(n)]
    if not supports:
        raise BadInput("all counting functions are empty")
    T = float(truncation) if truncation is not None else max(supports)
    if T <= 1.0:
        raise BadInput(f"truncation radius {T} is too small to analyze")
    r_star = math.sqrt(T * max(math.log(T), 1.0))
    r_lo = max(2.0, 0.5 * r_star)
    r_hi = min(2.0 * r_star, 0.9 * T)
    if r_lo >= r_hi:
        r_lo = r_hi / 4.0
    return [r * _GRID_PHASE for r in radius_grid(r_lo, r_hi, 8)]


def _fit_limit(radii, values, tol, drop_fraction):
    vals = np.asarray(values, dtype=float)
    tail = vals[len(vals) // 2:]
    med = float(np.median(tail))
    scale = max(1.0, abs(med))
    resid = np.abs(vals - med) / scale
    order = np.argsort(resid)
    n_keep = max(1, int(math.ceil(len(vals) * (1.0 - drop_fraction))))
    kept = order[:n_keep]
    exceptional = float(np.mean(resid > tol))
    spread = float(resid[kept].max())
    limit = float(np.median(vals[kept]))
    stable = exceptional <= drop_fraction + 1e-12 and spread <= tol
    return limit, spread, exceptional, stable


def crg_on_rays(n_by_ray, thetas, p, radii=None, tol=0.05, drop_fraction=0.05,
                truncation=None):
    """Regular-growth diagnostics: per-ray scaled kernel sums over a radius
    grid, limit candidates with the worst residuals dropped, and the dropped
    fraction as the exceptional-set density estimate.

    For p >= 1 the value at radius r on ray j is
    r^{-p} * sum over rays j' of the PV integral of
    Re(w^{q+1} / (t^{q+1} (w - t))) against n_{j'}, with q = floor(p) and
    w = r e^{i(theta_j - theta_j')} (each ray is rotated to the positive axis
    before the kernel is applied).  For p < 1 the scaled counting function
    n_j(r)/r^p itself carries the diagnostic.  A scaled value past the float
    range is a NumericFailure.
    """
    if len(n_by_ray) != len(thetas) or not thetas:
        raise BadInput("one counting function per ray angle is required")
    if not p > 0.0:
        raise BadInput(f"need p > 0, got {p}")
    if radii is None:
        radii = _default_crg_radii(n_by_ray, truncation)
    radii = sorted(float(r) for r in radii)
    if not all(r > 0.0 for r in radii):
        raise BadInput("radii must be positive")
    # the values are scaled by r^p, which must be a positive float at every radius
    if not 0.0 < radial_power(radii[0], p) <= radial_power(radii[-1], p):
        raise NumericFailure(f"r^{p:g} underflows at the radius {radii[0]}")
    q = int(math.floor(p))
    use_kernel = p >= 1.0
    if use_kernel:
        for n in n_by_ray:
            _check_convergence_class(n, q)
        atoms = [_jump_atoms(n) for n in n_by_ray]
        # turns[j][j'] = e^{i(theta_j - theta_j')}, snapped to +-1 on the real axis
        turns = np.array([[cmath.rect(1.0, normalize_angle(tj - tjp)) for tjp in thetas]
                          for tj in thetas])
        axis = REAL_AXIS.ray_index(turns)
        turns[axis == 0], turns[axis == 1] = 1.0, -1.0
        turns = turns.tolist()

    records = []
    for j, theta_j in enumerate(thetas):
        values = []
        for r in radii:
            if use_kernel:
                total = 0.0
                for jp, turn in enumerate(turns[j]):
                    w = r * turn
                    try:
                        total += kernel_sum(atoms[jp], w, q)
                    except CoincidentPoints:  # w = r, a jump point of ray jp
                        raise BadInput(f"kernel is singular at the jump point {w}") from None
                values.append(total / r ** p)
            else:
                values.append(n_by_ray[j](r) / r ** p)
        if not all(map(math.isfinite, values)):
            raise NumericFailure(f"a scaled value on the ray at {theta_j:g} passes the "
                                 "float range")
        limit, spread, exceptional, stable = _fit_limit(
            radii, values, tol, drop_fraction)
        records.append(RayLimitRecord(
            theta=float(theta_j), limit=limit, window=(radii[0], radii[-1]),
            spread=spread, exceptional_fraction=exceptional, stable=stable,
            radii=list(radii), values=values))
    density = max(rec.exceptional_fraction for rec in records)
    return CRGReport(per_ray=records, exceptional_density=density)


# ---------------------------------------------------------------------------
# Four-bisector functionals


def _bisector_jumps(n):
    """Squared jump points a_i = p_i^2 and jumps J_i of a counting function,
    as columns against a grid."""
    if not isinstance(n, StepFunction):
        raise BadInput("counting functions must be StepFunctions")
    if n.offset != 0.0:
        raise BadInput("counting function must vanish near 0")
    with np.errstate(over="ignore"):  # a = inf past p ~ 1e154: its terms vanish
        a = np.square(np.asarray(n.points, dtype=float))
    return a[:, None], np.asarray(n.jumps, dtype=float)[:, None]


def _jump_sum(J, terms):
    """Correctly rounded sum_i J_i * terms_i, one per grid column."""
    return np.array([math.fsum(col) for col in (J * terms).T])


def _log1p_sq_over(x):
    """log1p(x^2) / x for x >= 0, continued by its limit 0 at 0 and at inf;
    for x > 1 it is computed from 1/x, so x^2 never overflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.minimum(x, 1.0 / x)
        l = np.log1p(s * s)
        g = np.where(x <= 1.0, l / s, s * (l - 2.0 * np.log(s)))
    return np.where(s > 0.0, g, 0.0)


def _positive_grid(values, name):
    grid = np.sort(np.asarray(list(values), dtype=float))
    if not grid.size or grid[0] <= 0.0:
        raise BadInput(f"need a nonempty grid of {name} > 0, got {grid.tolist()}")
    return grid


def exgr2_functionals(counts, t_grid=(10.0, 100.0, 1000.0), r_grid=None):
    """Four-bisector diagnostics: the pair integrals
    b_k(t) = 2 * int (n_k + n_{k+1})(s) s ds / (s^4 + t^2), their
    sqrt(t)-scaled limit candidates, and the alternating log-averaged trace
    L(r) = int_1^r (1/t) sum_k i^{k+1} (b_k(t)/2) dt.

    The raw b_k(t) decay like 1/sqrt(t) for counting functions of linear
    growth; sqrt(t) * b_k(t) is the quantity with a finite limit, and its
    pairwise sums match indicator sums of the underlying potentials.

    Both are jump sums.  With a_i = p_i^2 for the jumps J_i of n,
    B(n, t) = int n(s) s ds / (s^4 + t^2) = sum J_i atan(t / a_i) / (2t) and
    b_k = 2 (B(n_k, t) + B(n_{k+1}, t)).  The trace integrand is
    (1 + i) sum_k i^k B(n_k, t) / t, and atan(t/a) / (2t^2) has the
    antiderivative H(t; a) = -atan(t/a) / (2t) - log1p(a^2/t^2) / (4a).
    """
    if len(counts) != 4:
        raise BadInput("exactly four bisector counting functions are required")
    jumps = [_bisector_jumps(n) for n in counts]
    t = _positive_grid(t_grid, "t")
    r = _positive_grid(radius_grid(2.0, 512.0, 1) if r_grid is None else r_grid, "r")

    B = [_jump_sum(J, np.arctan2(t, a)) / (2.0 * t) for a, J in jumps]
    b = np.stack([2.0 * (B[k] + B[(k + 1) % 4]) for k in range(4)], axis=1)
    scaled = np.sqrt(t)[:, None] * b
    b_limits = np.median(scaled[len(scaled) // 2:], axis=0).tolist()

    def H(a, u):
        return -(2.0 * np.arctan2(u, a) + _log1p_sq_over(a / u)) / (4.0 * u)

    L = (1 + 1j) * sum(ik * _jump_sum(J, H(a, r) - H(a, 1.0))
                       for ik, (a, J) in zip((1, 1j, -1, -1j), jumps))
    trace = [(rv, complex(Lv)) for rv, Lv in zip(r.tolist(), L)]
    tail = L[len(L) // 2:]
    L_limit = complex(float(np.median(tail.real)), float(np.median(tail.imag)))
    return {
        "b_values": list(zip(t.tolist(), b.tolist())),
        "b_scaled_limits": b_limits,
        "L_trace": trace,
        "L_limit": L_limit,
    }


# ---------------------------------------------------------------------------
# Angular density


def angular_density(nu, alpha, beta, p):
    """Mass of the closed sector [alpha, beta] in the closed disk of radius r,
    scaled by r^p, over a grid from max(1, R/2^8) to the farthest atom's
    radius R, four steps per octave; fitted limit candidate; for integer p
    also the Lindelof sum trace with exponent p."""
    if not p > 0.0:
        raise BadInput(f"need p > 0, got {p}")
    sec = Sector(alpha, beta)
    az = modulus(nu.z)
    r_hi = az.max().item() if az.size else 1.0
    r_lo = max(1.0, r_hi / 2.0 ** 8)
    if r_lo >= r_hi:
        r_lo = 0.5 * r_hi
    radii = radius_grid(r_lo, r_hi, 4)

    # the closed sector: its edges, the origin and the open sector that holds the
    # bisector, which lies on the edge where an aperture near 0 left one ray
    bisector = cmath.rect(1.0, alpha + 0.5 * sec.aperture)
    where = sec.edges.sector_index(np.append(nu.z, bisector))
    inside = (where[:-1] < 0) | (where[:-1] == where[-1])
    az, m = az[inside], nu.m[inside]
    ratios = exact_ratios([math.fsum(m[az <= r].tolist()) for r in radii], radii, p, 1.0,
                          f"the sector's mass over r^{p:g} on [{radii[0]}, {r_hi}] "
                          f"is not representable")
    tail = ratios[len(ratios) // 2:]
    limit = float(np.median(tail))
    out = {"radii": radii, "ratios": ratios, "limit": limit}
    if abs(p - round(p)) < 1e-12:
        q = int(round(p))
        r0 = radii[0]
        out["lindelof_trace"] = [
            (r, lindelof_sum(nu, q, r0, r)) for r in radii[1:]]
    return out
