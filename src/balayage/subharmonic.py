"""Genus-q kernels, canonical potentials, class-A functionals, the half-disk
boundary identity, and sweeping a potential onto a ray system.

The kernel of genus q >= 0 is log|E(z/zeta; q)|, with the Weierstrass primary
factor E(w; q) = (1 - w) exp(w + ... + w^q/q); genus -1 is log|zeta - z|.  A
genus schedule assigns a genus per radius annulus (always -1 on [0,1)).
Potentials are -inf at positive-mass atoms and +inf at negative-mass ones.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomOnCircle,
    BadInput,
    CoincidentPoints,
    NumericFailure,
    TailTooLarge,
    ZeroCenter,
)
from .charges import AtomicCharge, CheckResult
from .harmonic_measure import poisson_integral
from .numerics import (EDGE_BUDGET_FLOOR, EDGE_BUDGET_SHARE, FUNCTIONAL_BUDGET,
                       IDENTITY_TOL, POTENTIAL_BUDGET, QUAD_TOL, SAMPLE_BLOCK_ELEMENTS,
                       SWEEP_TOL, decade_breakpoints, integrate)
from .ray_geometry import REAL_AXIS, Sector, modulus, radial_power, reduce_to_halfplane


# ---------------------------------------------------------------------------
# Kernels


def kernel_atoms(nu):
    """kernel_sum's arrays zeta, r = |zeta|, log r, m of the charge nu's atoms, by r."""
    order = np.argsort(np.abs(nu.z))
    zeta = nu.z[order]
    r = np.abs(zeta)
    with np.errstate(divide="ignore"):  # log 0 = -inf: only genus -1 reads an atom at 0
        return zeta, r, np.log(r), nu.m[order]


def kernel_sum(atoms, z, q):
    """sum_i m_i K_q(zeta_i, z) over kernel_atoms' arrays at the complex point z,
    or the array of those sums at the points of the 1-d array z,
    SAMPLE_BLOCK_ELEMENTS points x atoms at a time.  CoincidentPoints where a
    point is an atom; ZeroCenter for an atom at 0 at genus >= 0."""
    if isinstance(z, complex):
        return float(_kernel_block(atoms, z, q))
    out = np.empty(z.shape)
    step = max(1, SAMPLE_BLOCK_ELEMENTS // max(1, atoms[0].size))
    for i in range(0, z.size, step):
        out[i:i + step] = _kernel_block(atoms, z[i:i + step, None], q)
    return out


def _kernel_block(atoms, z, q):
    """kernel_sum at the point z, or at each point of the column z.  With w = z/zeta,
    log|1 - w| is log|zeta - z| - log|zeta| where |zeta| <= 2|z| (near), else
    log1p(|w|^2 - 2 Re w) / 2 (far).  The atoms are sorted by |zeta|, so a point's
    near atoms are the prefix [:far].  Over a column every point's prefix holds
    [:min far] and none holds [max far:]: only the band between takes a
    per-element mask, so each element meets one form, and a point has no band."""
    zeta, r, logr, m = atoms
    point = isinstance(z, complex)
    if q < 0:
        d = np.abs(zeta - z)
    else:
        far = r.searchsorted(2.0 * abs(z), "right")
        hi = far if point else far.max()
        d = np.abs(zeta[:hi] - z)  # a band atom off the prefix has |zeta| > 2|z|, so d > 0
    if np.count_nonzero(d) < d.size:
        at = z if point else z[(d == 0).any(axis=1), 0][0].item()
        raise CoincidentPoints(f"kernel is singular at zeta = z = {at}")
    # vecdot: one BLAS dot per point, so a point's sum, its rounding and its
    # overflow do not depend on the points beside it
    if q < 0:
        return np.dot(np.log(d), m) if point else np.vecdot(np.log(d), m)
    if hi and r[0] == 0.0:
        raise ZeroCenter("genus >= 0 kernel needs zeta != 0")
    w = z / zeta
    if point:
        val = np.concatenate((np.log(d) - logr[:far], _log_far(w[far:])))
    else:
        lo = far.min()
        near = np.arange(lo, hi) < far
        band = np.empty(near.shape)
        band[near] = np.log(d[:, lo:][near]) - np.broadcast_to(logr[lo:hi], near.shape)[near]
        band[~near] = _log_far(w[:, lo:hi][~near])
        val = np.concatenate((np.log(d[:, :lo]) - logr[:lo], band, _log_far(w[:, hi:])), axis=1)
    pw = w
    for j in range(1, q + 1):
        val = val + pw.real / j
        pw = pw * w
    return np.dot(val, m) if point else np.vecdot(val, m)


def _log_far(w):
    """log|1 - w| = log1p(|w|^2 - 2 Re w) / 2, which does not cancel for |w| < 1/2."""
    return 0.5 * np.log1p(w.real * w.real + w.imag * w.imag - 2.0 * w.real)


def kernel_Kq(zeta, z, q):
    """Genus-q kernel of one atom: kernel_sum of a unit mass at zeta."""
    if not (isinstance(q, int) and q >= -1):
        raise BadInput(f"genus must be an integer >= -1, got {q}")
    return kernel_sum(kernel_atoms(AtomicCharge([(zeta, 1.0)])), complex(z), q)


def kernel_Kq_radial_derivative(z, t, q):
    """d/dt of kernel_Kq(t, z, q) for t > 0: Re(z^{q+1} / (t^{q+1} (t - z)))."""
    if t <= 0.0:
        raise BadInput(f"need t > 0, got {t}")
    if not (isinstance(q, int) and q >= 0):
        raise BadInput(f"need integer genus >= 0, got {q}")
    z = complex(z)
    if z == t:
        raise CoincidentPoints(f"derivative is singular at t = z = {t}")
    return ((z / t) ** (q + 1) / (t - z)).real


# ---------------------------------------------------------------------------
# Genus schedules and canonical potentials


@dataclass(frozen=True)
class GenusSchedule:
    """Right-continuous genus step function: genus genera[n] on [radii[n], radii[n+1])."""

    radii: tuple
    genera: tuple

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        genera = tuple(int(q) for q in self.genera)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "genera", genera)
        if len(radii) != len(genera) or not radii:
            raise BadInput("radii and genera must pair up, nonempty")
        if radii[0] != 0.0:
            raise BadInput("schedule must start at radius 0")
        if genera[0] != -1:
            raise BadInput("genus must be -1 on [0,1)")
        if len(radii) > 1 and radii[1] < 1.0:
            raise BadInput("second schedule radius must be >= 1")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise BadInput("schedule radii must increase")
        if any(q2 < q1 for q1, q2 in zip(genera, genera[1:])):
            raise BadInput("genera must not decrease")

    def genus_at(self, t):
        """The genus at radius t, or the array of genera at an array of radii."""
        if np.any(np.less(t, 0.0)):
            raise BadInput(f"need t >= 0, got {t}")
        q = np.array(self.genera)[np.searchsorted(self.radii, t, side="right") - 1]
        return int(q) if np.ndim(q) == 0 else q

    def convergence_sum(self, nu, x0):
        """Exact sum of |m| (x0/|zeta|)^{q(|zeta|)+1} over atoms off the origin."""
        az = modulus(nu.z)
        off = az != 0.0
        az = az[off]
        return math.fsum((np.abs(nu.m[off]) * (x0 / az) ** (self.genus_at(az) + 1.0)).tolist())

    def to_json(self):
        return {"radii": list(self.radii), "genera": list(self.genera)}

    @classmethod
    def from_json(cls, data):
        return cls(tuple(data["radii"]), tuple(data["genera"]))


@dataclass(frozen=True)
class CanonicalPotential:
    """Finite-sum potential of an atomic Riesz charge, genus fixed or scheduled,
    plus an optional harmonic polynomial Re(sum c_j z^j).

    Immutable: the atoms are grouped by genus once, here, into one kernel_sum
    array set per genus."""

    charge: AtomicCharge
    genus: int | None = None
    schedule: GenusSchedule | None = None
    harmonic_coeffs: list = field(default_factory=list)
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.genus is None) == (self.schedule is None):
            raise BadInput("give exactly one of genus or schedule")
        if self.genus is not None and not (isinstance(self.genus, int) and self.genus >= -1):
            raise BadInput(f"genus must be an integer >= -1, got {self.genus}")
        genera = (np.full(self.charge.m.shape, self.genus) if self.genus is not None
                  else self.schedule.genus_at(modulus(self.charge.z)))
        object.__setattr__(self, "_groups", tuple(
            (int(q), kernel_atoms(self.charge[genera == q])) for q in np.unique(genera)))

    def harmonic_part(self, z):
        """Re(sum c_j z^j) at the point z, or at each point of the array z.  Each
        point takes Python's complex power, whose OverflowError past the float
        range the CLI reports as a numeric failure."""
        if not self.harmonic_coeffs:
            return 0.0
        if isinstance(z, np.ndarray):
            return np.array([self.harmonic_part(x) for x in z.tolist()])
        return sum(c * z ** j for j, c in enumerate(self.harmonic_coeffs)).real


def potential_eval(P, z):
    """Value of the canonical potential at the point z, or the array of its values
    at the points of the 1-d array z, one kernel_sum per genus group.  At an atom
    it is -inf for a positive mass and +inf for a negative one, the first atom
    there in list order deciding, and the other points keep their values.  A sum
    that overflows to inf - inf is a NumericFailure."""
    if isinstance(z, np.ndarray):
        at = np.isin(z, P.charge.z)
        off = z[~at]
        total = np.empty(z.shape)
        total[~at] = (sum(kernel_sum(atoms, off, q) for q, atoms in P._groups)
                      + P.harmonic_part(off))
        total[at] = [_atom_value(P, x) for x in z[at].tolist()]
        nan = np.isnan(total)
        if nan.any():
            raise NumericFailure(f"potential at z = {z[nan][0].item()} overflows to inf - inf")
        return total
    z = complex(z)
    total = 0.0
    try:
        for q, atoms in P._groups:
            total += kernel_sum(atoms, z, q)
    except CoincidentPoints:
        return _atom_value(P, z)
    total += P.harmonic_part(z)
    if math.isnan(total):
        raise NumericFailure(f"potential at z = {z} overflows to inf - inf")
    return total


def _atom_value(P, z):
    """The potential at an atom z: the first atom there in list order decides."""
    return -math.inf if P.charge.m[P.charge.z == z][0] > 0.0 else math.inf


# ---------------------------------------------------------------------------
# Class-A functionals on a sector


@dataclass
class ClassAResult:
    A: float
    B: float
    J: float
    A_via_J: float
    A_via_double: float

    @property
    def residual_J(self):
        return abs(self.A - self.A_via_J)

    @property
    def residual_double(self):
        return abs(self.A - self.A_via_double)


_LOG_NORMAL = -math.log(sys.float_info.min)  # |log x| of the normal floats x
_FUNCTIONAL = dict(route="functional", budget=FUNCTIONAL_BUDGET, epsabs=QUAD_TOL,
                   epsrel=1e-10, limit=400)


def edge_radii(nu, alpha, beta):
    """Radii of the atoms of nu on the rays alpha and beta, ascending: where the
    edge integrals of a sector see a log singularity of nu's potential."""
    z = nu.z[nu.z != 0]
    on = Sector(alpha, beta).edges.ray_index(z) >= 0
    return np.unique(modulus(z[on])).tolist()


def _edge_arc_functionals(v, alpha, beta, r0, r, radii):
    """A and B of class_A_functionals, by one checked quadrature each."""
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got ({r0}, {r})")
    sec = Sector(alpha, beta)  # the one aperture rule: alpha < beta <= alpha + 2*pi
    gamma, p = sec.aperture, sec.exponent
    # every power weight of the functionals and of carleman_check's sums,
    # t^(-p), t^p, t^(p - 1), t^(p + 1) and t^(2p) for r0 <= t <= r, is a normal
    # float when the largest exponent times the largest |log t| is within the
    # normal floats' |log x|
    if max(p + 1.0, 2.0 * p) * max(-math.log(r0), math.log(r)) > _LOG_NORMAL:
        raise NumericFailure(f"the power weights of exponent {p} leave the float "
                             f"range on [{r0}, {r}]")
    edges = lambda t: v(cmath.rect(t, alpha)) + v(cmath.rect(t, beta))
    A = 0.5 / gamma * integrate(lambda t: (t ** (-p) - t ** p / r ** (2.0 * p)) * edges(t) / t,
                                r0, r, points=decade_breakpoints(r0, r, radii), **_FUNCTIONAL)[0]
    B = integrate(lambda th: v(cmath.rect(r, th)) * math.sin(p * (th - alpha)),
                  alpha, beta, **_FUNCTIONAL)[0] / (gamma * r ** p)
    return A, B


def class_A_functionals(v, alpha, beta, r0, r, radii):
    """The three edge/arc functionals of a sector (alpha, beta) at radii (r0, r),
    with the two alternative routes to A as consistency data.  radii, the
    edge_radii of v's charge, and the powers of ten are the edge integrals'
    breakpoints.

    A: weighted edge integral with the inner/outer power weight
    B: arc integral against the aperture sine
    J: plain edge integral against t^{-p-1}, p = pi/(beta - alpha)
    A_via_J: (J minus the outer-weight edge integral) / (2 gamma)
    A_via_double: the double integral pi/(gamma^2 r^2p) int_r0^r t^(2p-1) int_r0^t
      edges(s) s^(-p-1) ds dt with its order exchanged, one quadrature in log t
    """
    A, B = _edge_arc_functionals(v, alpha, beta, r0, r, radii)
    sec = Sector(alpha, beta)
    gamma, p = sec.aperture, sec.exponent
    edges = lambda t: v(cmath.rect(t, alpha)) + v(cmath.rect(t, beta))
    pts = decade_breakpoints(r0, r, radii)
    J, _ = integrate(lambda t: edges(t) / t ** (p + 1.0), r0, r, points=pts, **_FUNCTIONAL)
    # r^-2p inside the integral: the budget holds the term that enters A_via_J
    r2p = r ** (2.0 * p)
    A_via_J = 0.5 / gamma * (J - integrate(lambda t: edges(t) * t ** (p - 1.0) / r2p,
                                           r0, r, points=pts, **_FUNCTIONAL)[0])
    # int_s^r t^(2p-1) dt = (r^2p - s^2p) / 2p, and pi / (2p gamma^2) = 1 / (2 gamma)
    A_via_double = 0.5 / gamma * integrate(
        lambda u: (math.exp(-p * u) - math.exp(p * (u - 2.0 * math.log(r))))
        * edges(math.exp(u)), math.log(r0), math.log(r),
        points=pts and [math.log(t) for t in pts], **_FUNCTIONAL)[0]
    return ClassAResult(A=A, B=B, J=J, A_via_J=A_via_J, A_via_double=A_via_double)


# ---------------------------------------------------------------------------
# Half-disk boundary identity


def carleman_check(nu, v, r0, r, tol=IDENTITY_TOL):
    """Exact atom sums against the boundary quadratures for the upper half-disk.

    Left: sum over atoms in r0 < |z| <= r of m * Im(1/conj z - z/r^2), plus
    (1/r0^2 - 1/r^2) * sum over |z| <= r0 of m * Im z, both over the atoms
    in the open upper half-plane, REAL_AXIS's sector 0 (the others, those on R
    among them, are harmonic in the half-disk).  Right: the
    sector functionals A + B for (0, pi) plus the two inner-radius corrections.
    """
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got ({r0}, {r})")
    az = modulus(nu.z)
    on = (np.abs(az - r0) <= 1e-13 * max(1.0, r0)) | (np.abs(az - r) <= 1e-13 * r)
    if on.any():
        raise AtomOnCircle(f"atom at |z| = {az[on][0]} sits on an integration circle")

    # first: it checks that r^2 and r0^2 are normal floats
    A, B = _edge_arc_functionals(v, 0.0, math.pi, r0, r, edge_radii(nu, 0.0, math.pi))
    lhs = 0.0
    inner = 0.0
    upper = nu[REAL_AXIS.sector_index(nu.z) == 0]
    for z, m in zip(upper.z.tolist(), upper.m.tolist()):
        if r0 < abs(z) <= r:
            lhs += m * ((1.0 / z.conjugate()).imag - (z / r ** 2).imag)
        elif 0.0 < abs(z) < r0:
            inner += m * z.imag
    lhs += (1.0 / r0 ** 2 - 1.0 / r ** 2) * inner

    # atoms near the contours make the integrands peaked; their projections
    # guide the subdivision
    x, ph = np.abs(nu.z.real), np.array([cmath.phase(z) for z in nu.z.tolist()])
    diam_pts = np.unique(x[(np.abs(nu.z.imag) < r0) & (0.0 < x) & (x < r0)]).tolist()
    arc_pts = np.unique(ph[(r0 / 4.0 < az) & (az < 4.0 * r0)
                           & (0.0 < ph) & (ph < math.pi)]).tolist()
    opts = dict(route="inner correction", budget=POTENTIAL_BUDGET,
                epsabs=QUAD_TOL, limit=400)
    diam, _ = integrate(lambda t: v(-t) + v(t), 0.0, r0,
                        points=diam_pts or None, **opts)
    arc, _ = integrate(lambda th: v(cmath.rect(r0, th)) * math.sin(th), 0.0,
                       math.pi, points=arc_pts or None, **opts)
    # The diameter correction carries the same 1/(2*pi) weight as the edge
    # functional; without it the identity fails by exactly (1 - 1/(2*pi))
    # times the diameter integral (checked by a Green-identity derivation).
    rhs = (A + B
           + (1.0 / r0 ** 2 - 1.0 / r ** 2) * diam / (2.0 * math.pi)
           - arc / (math.pi * r0))
    residual = abs(lhs - rhs)
    return CheckResult(lhs, rhs, residual <= tol, {"residual": residual})


# ---------------------------------------------------------------------------
# Sweeping a potential onto a ray system


def _edge_growth_exponent(v, theta, radii):
    """Fitted power-growth exponent of |v| along one ray over the given radii."""
    lo, hi = radii
    vlo = max(abs(v(cmath.rect(lo, theta))), 1e-12)
    vhi = max(abs(v(cmath.rect(hi, theta))), 1e-12)
    if not math.isfinite(vlo + vhi):  # an atom at a fit radius
        raise TailTooLarge(f"|v| is not finite at a tail-fit radius {lo:g} or {hi:g}")
    return math.log(vhi / vlo) / math.log(hi / lo), vhi


def subharmonic_balayage_eval(v, S, z, R_max=1e6, tol=SWEEP_TOL):
    """Value at z of the sweep of v onto S: v itself on S, otherwise the
    Poisson integral of v over the containing sector's edges in the reduced
    coordinate s = t^p, truncated at R_max with a fitted-tail certificate.
    Each edge is a poisson_integral over [0, cut] and one over the far piece
    in u = 1/s, whose kernel is seen from 1/conj(w), each edge seen from its
    point of S.edge_views.

    The certificate assumes a power-growth envelope along the edges fitted on
    the outer decade (exact for powers, dominating beyond the window for
    slower-than-power growth); it fails loudly when the fitted growth reaches
    the sector exponent or the bound exceeds tol.
    """
    z = complex(z)
    idx = S.sector_index(z)
    if idx < 0:
        return v(z)
    sec = S.sectors[idx]
    p = sec.exponent
    w = reduce_to_halfplane(sec, z)
    s_max = radial_power(R_max, p)
    if s_max < 2.0 * abs(w):
        raise TailTooLarge(f"truncation R_max = {R_max} is inside the near zone of {z}")

    total = 0.0
    tail_bound = 0.0
    opts = dict(route=f"edge (z = {z})", epsabs=QUAD_TOL, epsrel=1e-11, limit=400,
                budget=EDGE_BUDGET_SHARE * max(tol, EDGE_BUDGET_FLOOR))
    cut = min(max(4.0 * abs(w), 4.0), s_max)
    for j, seen_from in S.edge_views(idx, w):
        fn = lambda s, th=S.thetas[j]: v(cmath.rect(s ** (1.0 / p), th))
        near, spent = poisson_integral(fn, seen_from, 0.0, cut, (), **opts)
        total += near
        if cut < s_max:  # the far piece in u = 1/s, its kernel seen from 1/conj(seen_from)
            total += poisson_integral(lambda u: fn(1.0 / u), 1.0 / seen_from.conjugate(),
                                      1.0 / s_max, 1.0 / cut, (), spent=spent, **opts)[0]
        kappa, vhi = _edge_growth_exponent(v, S.thetas[j], (R_max / 10.0, R_max))
        kq = max(kappa, 0.0) / p
        if kq >= 1.0:
            raise TailTooLarge(
                f"edge growth exponent {kappa:.3g} reaches the sector exponent {p:.3g}")
        # |v(s^(1/p))| <= vhi (s/s_max)^kq beyond the cut; Poi <= 4 Im w/(pi s^2)
        tail_bound += vhi * 4.0 * w.imag / math.pi / s_max * (1.0 / (1.0 - kq))
    if tail_bound > tol:
        raise TailTooLarge(f"tail bound {tail_bound:.2e} exceeds tolerance {tol}")
    return total


def _coincident_limit(zeta, o, p, q):
    """K_q(zeta, z) + g_D(z, zeta) as z -> zeta: |w - conj o| -> 2 Im o, and
    |w - o| ~ p |zeta|^(p-1) |z - zeta|."""
    r = abs(zeta)
    val = math.log(2.0 * o.imag / p) - (p - 1.0) * math.log(r)
    return val if q < 0 else val + math.fsum(1.0 / j for j in range(1, q + 1)) - math.log(r)


def sweep_potential_eval(bal, z, genus=-1):
    """Potential of a swept charge at z: a kernel sum plus the Green terms.

    Sweeping an atom zeta out of its sector D adds the Green function
    g_D(z, zeta) = log(|w - conj o| / |w - o|) = log1p(4 Im w Im o / |w - o|^2) / 2
    to its potential at z in D, w and o the reduced coordinates of z and zeta,
    and nothing on S or in the other sectors.  The kernel integral this sum
    equals converges only where p_D > q: the swept density behaves like
    t^(p_D - 1) at the vertex and the kernel like t^(-q).
    """
    z = complex(z)
    p = min((bal.rays.sectors[i].exponent for i in set(bal.sector.tolist())), default=math.inf)
    if p <= genus:
        raise BadInput(f"kernel integral diverges: genus q = {genus} >= p_D = {p:.6g}")
    idx = bal.rays.sector_index(z)
    total = 0.0
    keep = np.ones(bal.sector.shape, dtype=bool)  # the sources of the kernel sum
    if idx in bal.sector:  # never for z on S (-1)
        sec = bal.rays.sectors[idx]
        w, p = reduce_to_halfplane(sec, z), sec.exponent
        for i in np.flatnonzero(bal.sector == idx).tolist():
            zeta, m, o = bal.swept.z[i].item(), bal.swept.m[i].item(), bal.w[i].item()
            d = abs(w - o)  # not its square, which underflows next to a tiny atom
            if d == 0:  # z = zeta, or closer to it than the power map resolves
                total += m * _coincident_limit(zeta, o, p, genus)
                keep[i] = False  # the limit holds the kernel term too
            else:
                total += 0.5 * m * math.log1p(4.0 * (w.imag / d) * (o.imag / d))
    with np.errstate(over="ignore"):  # an overflowing sum is the failure below
        total += kernel_sum(kernel_atoms(bal.kept + bal.swept[keep]), z, genus)
    if not math.isfinite(total):
        raise NumericFailure(f"swept potential at z = {z} is not finite")
    return total
