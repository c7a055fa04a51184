"""Genus-q kernels, canonical potentials, circle means, class-A functionals,
the half-disk boundary identity, and sweeping a potential onto a ray system.

The kernel of genus q >= 0 is log|E(z/zeta; q)|, with the Weierstrass primary
factor E(w; q) = (1 - w) exp(w + ... + w^q/q); genus -1 is log|zeta - z|.  A
genus schedule assigns a genus per radius annulus (always -1 on [0,1)).
Potentials are -inf at positive-mass atoms and +inf at negative-mass ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AtomOnCircle,
    BadInput,
    CoincidentPoints,
    NumericFailure,
    QuadratureFailure,
    TailTooLarge,
    ZeroCenter,
)
from .charges import AtomicCharge, CheckResult
from .harmonic_measure import poisson_kernel
from .numerics import (EDGE_BUDGET_FLOOR, EDGE_BUDGET_SHARE, FUNCTIONAL_BUDGET,
                       IDENTITY_TOL, POTENTIAL_BUDGET, QUAD_TOL, SWEEP_TOL,
                       integrate)
from .ray_geometry import OnSystem, classify_point, reduce_to_halfplane


# ---------------------------------------------------------------------------
# Kernels


def kernel_atoms(atoms):
    """kernel_sum's arrays zeta, r = |zeta|, log r, m of (zeta, m) pairs, by r."""
    zeta, m = np.array([z for z, _ in atoms], dtype=complex), np.array([m for _, m in atoms])
    order = np.argsort(np.abs(zeta))
    r = np.abs(zeta[order])
    with np.errstate(divide="ignore"):  # log 0 = -inf: only genus -1 reads an atom at 0
        return zeta[order], r, np.log(r), m[order]


def kernel_sum(atoms, z, q):
    """sum_i m_i K_q(zeta_i, z) over kernel_atoms' arrays.  With w = z/zeta, log|1 - w|
    is log|zeta - z| - log|zeta| for |zeta| <= 2|z|, else log1p(|w|^2 - 2 Re w) / 2."""
    zeta, r, logr, m = atoms
    far = r.size if q < 0 else r.searchsorted(2.0 * abs(z), "right")
    d = np.abs(zeta[:far] - z)
    if np.count_nonzero(d) < far:
        raise CoincidentPoints(f"kernel is singular at zeta = z = {z}")
    if q < 0:
        return float(np.dot(m, np.log(d)))
    if far and r[0] == 0.0:
        raise ZeroCenter("genus >= 0 kernel needs zeta != 0")
    w = z / zeta
    wf = w[far:]
    val = np.concatenate((np.log(d) - logr[:far], 0.5 * np.log1p(
        wf.real * wf.real + wf.imag * wf.imag - 2.0 * wf.real)))
    pw = w
    for j in range(1, q + 1):
        val = val + pw.real / j
        pw = pw * w
    return float(np.dot(m, val))


def kernel_Kq(zeta, z, q):
    """Genus-q kernel of one atom: kernel_sum of a unit mass at zeta."""
    if not (isinstance(q, int) and q >= -1):
        raise BadInput(f"genus must be an integer >= -1, got {q}")
    return kernel_sum(kernel_atoms([(zeta, 1.0)]), complex(z), q)


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
        if any(q < -1 for q in genera):
            raise BadInput("genera must be >= -1")

    def genus_at(self, t):
        if t < 0.0:
            raise BadInput(f"need t >= 0, got {t}")
        g = self.genera[0]
        for r, q in zip(self.radii, self.genera):
            if r <= t:
                g = q
            else:
                break
        return g

    def convergence_sum(self, nu, x0):
        """Exact sum of |m| (x0/|zeta|)^{q(|zeta|)+1} over atoms off the origin."""
        total = 0.0
        for zch, m in nu.atoms:
            az = abs(zch)
            if az == 0.0:
                continue
            total += abs(m) * (x0 / az) ** (self.genus_at(az) + 1)
        return total

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
        by_genus = {}
        for a in self.charge.atoms:
            by_genus.setdefault(self.genus_for(a[0]), []).append(a)
        object.__setattr__(self, "_groups", tuple(
            (q, kernel_atoms(by_genus[q])) for q in sorted(by_genus)))

    def genus_for(self, zeta):
        return self.genus if self.genus is not None else self.schedule.genus_at(abs(zeta))

    def harmonic_part(self, z):
        if not self.harmonic_coeffs:
            return 0.0
        return sum(c * z ** j for j, c in enumerate(self.harmonic_coeffs)).real


def potential_eval(P, z):
    """Value of the canonical potential at z; -inf at positive-mass atoms,
    +inf at negative-mass atoms."""
    z = complex(z)
    total = 0.0
    try:
        for q, atoms in P._groups:
            total += kernel_sum(atoms, z, q)
    except CoincidentPoints:  # the first atom at z decides
        return -math.inf if next(m for zeta, m in P.charge.atoms if zeta == z) > 0.0 else math.inf
    return total + P.harmonic_part(z)


# ---------------------------------------------------------------------------
# Circle means


_JITTER = 0.5 * (math.sqrt(5.0) - 1.0)  # irrational phase offset, fixed


def circle_mean(v, r):
    """Mean of v over the circle |z| = r by the periodic trapezoid rule,
    doubling nodes from 64 until two refinements agree within 1e-8 (at most
    2^19 nodes).  Nodes carry a fixed irrational phase jitter so atoms at
    rational angles are missed."""
    if r <= 0.0:
        raise BadInput(f"need r > 0, got {r}")
    n = 64
    prev = None
    while n <= 1 << 19:
        h = 2.0 * math.pi / n
        vals = []
        for k in range(n):
            th = (k + _JITTER) * h
            val = v(cmath.rect(r, th))
            if val == -math.inf:
                raise QuadratureFailure(
                    f"evaluation hit an atom on |z| = {r} despite jitter")
            vals.append(val)
        cur = math.fsum(vals) / n
        if prev is not None and abs(cur - prev) <= 1e-8:
            return cur
        prev = cur
        n *= 2
    raise QuadratureFailure("circle mean did not stabilize to 1e-08 by 524288 nodes")


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


_FUNCTIONAL = dict(route="functional", budget=FUNCTIONAL_BUDGET, epsabs=QUAD_TOL,
                   epsrel=1e-10, limit=400)


def _edge_arc_functionals(v, alpha, beta, r0, r):
    """A and B of class_A_functionals, by one checked quadrature each."""
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got ({r0}, {r})")
    gamma = beta - alpha
    if not (0.0 < gamma <= 2.0 * math.pi):
        raise BadInput(f"need aperture in (0, 2*pi], got {gamma}")
    p = math.pi / gamma
    edges = lambda t: v(cmath.rect(t, alpha)) + v(cmath.rect(t, beta))
    A = 0.5 / gamma * integrate(lambda t: (t ** (-p) - t ** p / r ** (2.0 * p)) * edges(t) / t,
                                r0, r, **_FUNCTIONAL)[0]
    B = integrate(lambda th: v(cmath.rect(r, th)) * math.sin(p * (th - alpha)),
                  alpha, beta, **_FUNCTIONAL)[0] / (gamma * r ** p)
    return A, B


def class_A_functionals(v, alpha, beta, r0, r):
    """The three edge/arc functionals of a sector (alpha, beta) at radii (r0, r),
    with the two alternative routes to A as consistency data.

    A: weighted edge integral with the inner/outer power weight
    B: arc integral against the aperture sine
    J: plain edge integral against t^{-p-1}, p = pi/(beta - alpha)
    A_via_J: (J minus the outer-weight edge integral) / (2 gamma)
    A_via_double: the double integral pi/(gamma^2 r^2p) int_r0^r t^(2p-1) int_r0^t
      edges(s) s^(-p-1) ds dt with its order exchanged, one quadrature in log t
    """
    A, B = _edge_arc_functionals(v, alpha, beta, r0, r)
    gamma = beta - alpha
    p = math.pi / gamma
    edges = lambda t: v(cmath.rect(t, alpha)) + v(cmath.rect(t, beta))
    J, _ = integrate(lambda t: edges(t) / t ** (p + 1.0), r0, r, **_FUNCTIONAL)
    A_via_J = 0.5 / gamma * (J - integrate(
        lambda t: edges(t) * t ** (p - 1.0), r0, r, **_FUNCTIONAL)[0] / r ** (2.0 * p))
    # int_s^r t^(2p-1) dt = (r^2p - s^2p) / 2p, and pi / (2p gamma^2) = 1 / (2 gamma)
    A_via_double = 0.5 / gamma * integrate(
        lambda u: (math.exp(-p * u) - math.exp(p * (u - 2.0 * math.log(r))))
        * edges(math.exp(u)), math.log(r0), math.log(r), **_FUNCTIONAL)[0]
    return ClassAResult(A=A, B=B, J=J, A_via_J=A_via_J, A_via_double=A_via_double)


# ---------------------------------------------------------------------------
# Half-disk boundary identity


def carleman_check(nu, v, r0, r, tol=IDENTITY_TOL):
    """Exact atom sums against the boundary quadratures for the upper half-disk.

    Left: sum over atoms in r0 < |z| <= r of m * Im(1/conj z - z/r^2), plus
    (1/r0^2 - 1/r^2) * sum over |z| <= r0 of m * Im z, both over the atoms
    with Im z > 0 (the others are harmonic in the half-disk).  Right: the
    sector functionals A + B for (0, pi) plus the two inner-radius corrections.
    """
    if not (0.0 < r0 < r):
        raise BadInput(f"need 0 < r0 < r, got ({r0}, {r})")
    for z, _ in nu.atoms:
        if abs(abs(z) - r0) <= 1e-13 * max(1.0, r0) or abs(abs(z) - r) <= 1e-13 * r:
            raise AtomOnCircle(f"atom at |z| = {abs(z)} sits on an integration circle")

    lhs = 0.0
    inner = 0.0
    for z, m in nu.restricted(lambda z: z.imag > 0.0).atoms:
        az = abs(z)
        if r0 < az <= r:
            lhs += m * ((1.0 / z.conjugate()).imag - (z / r ** 2).imag)
        elif 0.0 < az < r0:
            inner += m * z.imag
    lhs += (1.0 / r0 ** 2 - 1.0 / r ** 2) * inner

    A, B = _edge_arc_functionals(v, 0.0, math.pi, r0, r)
    # atoms near the contours make the integrands peaked; their projections
    # guide the subdivision
    diam_pts = sorted({abs(z.real) for z, _ in nu.atoms
                       if abs(z.imag) < r0 and 0.0 < abs(z.real) < r0})
    arc_pts = sorted({cmath.phase(z) for z, _ in nu.atoms
                      if r0 / 4.0 < abs(z) < 4.0 * r0
                      and 0.0 < cmath.phase(z) < math.pi})
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
    coordinate, truncated at R_max with a fitted-tail certificate.

    The certificate assumes a power-growth envelope along the edges fitted on
    the outer decade (exact for powers, dominating beyond the window for
    slower-than-power growth); it fails loudly when the fitted growth reaches
    the sector exponent or the bound exceeds tol.
    """
    z = complex(z)
    cls = classify_point(S, z)
    if isinstance(cls, OnSystem):
        return v(z)
    sec, idx = cls.sector, cls.index
    k = len(S.thetas)
    p = sec.exponent
    w = reduce_to_halfplane(sec, z)
    s_max = R_max ** p
    if s_max < 2.0 * abs(w):
        raise TailTooLarge(f"truncation R_max = {R_max} is inside the near zone of {z}")

    total = 0.0
    tail_bound = 0.0
    opts = dict(route=f"edge (z = {z})", epsabs=QUAD_TOL, epsrel=1e-11, limit=400,
                budget=EDGE_BUDGET_SHARE * max(tol, EDGE_BUDGET_FLOOR))
    for theta, sign in ((S.thetas[idx], +1), ((S.thetas[(idx + 1) % k]), -1)):
        fn = lambda s, th=theta, sg=sign: (
            v(cmath.rect(s ** (1.0 / p), th)) * poisson_kernel(sg * s, w))
        # Split at the Poisson-bump scale; map the far piece through u = 1/s
        # so the slowly decaying outer mass is not lost to early termination.
        cut = min(max(4.0 * abs(w), 4.0), s_max)
        pts = [q for q in (abs(w),) if 0.0 < q < cut]
        v1, spent = integrate(fn, 0.0, cut, points=pts or None, **opts)
        v2 = 0.0
        if cut < s_max:
            v2, _ = integrate(lambda u: fn(1.0 / u) / (u * u), 1.0 / s_max,
                              1.0 / cut, spent=spent, **opts)
        total += v1 + v2
        kappa, vhi = _edge_growth_exponent(v, theta, (R_max / 10.0, R_max))
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
    cls = classify_point(bal.rays, z)
    host = None if isinstance(cls, OnSystem) else cls.sector
    w = None
    total, sources = 0.0, list(bal.kept.atoms)
    for s in bal.swept:
        o, p = s.w, s.sector.exponent
        if p <= genus:
            raise BadInput(f"kernel integral diverges: genus q = {genus} >= p_D = {p:.6g}")
        if s.sector == host:
            w = reduce_to_halfplane(host, z) if w is None else w
            d = abs(w - o)  # not its square, which underflows next to a tiny atom
            if d == 0:  # z = zeta, or closer to it than the power map resolves
                total += s.mass * _coincident_limit(s.z, o, p, genus)
                continue  # the limit holds the kernel term too
            total += 0.5 * s.mass * math.log1p(4.0 * (w.imag / d) * (o.imag / d))
        sources.append((s.z, s.mass))
    with np.errstate(over="ignore"):  # an overflowing sum is the failure below
        total += kernel_sum(kernel_atoms(sources), z, genus)
    if not math.isfinite(total):
        raise NumericFailure(f"swept potential at z = {z} is not finite")
    return total
