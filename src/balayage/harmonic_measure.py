"""Harmonic measure for the upper half-plane, open sectors, and ray-system complements.

The half-plane harmonic measure of an interval [a, b] seen from w = x + iy is
the normalized angle the interval subtends at w.  One function, interval_form,
gives it in closed form on one point or on arrays alike:

    Q = (x - a)(x - b) + y^2 = |w - x0|^2 - r^2,   N = (b - a) y,   omega = atan2(N, Q) / pi

Q > 0 outside the closed semidisk on [a, b] (center x0, radius r), Q < 0
inside it, and Q = 0 on the semicircle gives exactly 1/2; no arctan difference cancels when w is far
from the interval.  The measures of a ray system's complement reduce to the
half-plane by the power map of ray_geometry; a sector's are those of its
edges' system, hm_system(sec.edges, ...).  poisson_integral is the package's
one quadrature of the Poisson kernel: the independent oracle of the closed
form, the Fubini pairing and the sweep of a potential all call it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInput, EndpointSingularity, NotInUpperHalfPlane
from .numerics import BOUND_SLACK, ORACLE_BUDGET, decade_breakpoints, integrate
from .ray_geometry import radial_power, reduce_to_halfplane

# The least positive normal float: a product below it has lost bits to underflow.
_NORMAL_MIN = np.finfo(float).tiny
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Interval:
    """Finite real interval [t1, t2] with t1 < t2."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise BadInput("interval endpoints must be finite")
        if not self.t1 < self.t2:
            raise BadInput(f"interval needs t1 < t2, got [{self.t1}, {self.t2}]")

    @property
    def center(self):
        return 0.5 * (self.t1 + self.t2)

    @property
    def radius(self):
        return 0.5 * (self.t2 - self.t1)


@dataclass(frozen=True)
class BoundarySegment:
    """Radial piece a <= t <= b of one ray (by index) of a system."""

    ray_index: int
    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b < math.inf):
            raise BadInput(f"segment needs 0 <= a < b < inf, got [{self.a}, {self.b}]")


def poisson_kernel(t, z):
    """Density of half-plane harmonic measure: (1/pi) * Im z / |t - z|^2.

    The value of imag_inv_conj(z - t) / pi, with |z - t| taken once: the
    square |t - z|^2 underflows to 0 next to a tiny z (Im z = 1e-200)."""
    y = z.imag
    if y <= 0.0:
        raise NotInUpperHalfPlane(f"need Im z > 0, got z = {z}")
    d = abs(z - t)
    return y / d / d / math.pi


def interval_form(x, y, a, b):
    """omega, Q and N of the interval [a, b] at x + iy, y >= 0, on floats or on
    arrays that broadcast.  Where Q or N is not finite (inf, or inf - inf =
    nan), or both are below the normal float range (their products
    underflowed: a point and an interval near 1e-160), Q and N are divided by
    s^2 factor by factor, s = max(|x - a|, |x - b|, y).  An end b past the
    float range gives NaN."""
    q = (x - a) * (x - b) + y * y
    n = (b - a) * y
    size = np.maximum(np.abs(q), np.abs(n))  # NaN where Q or N is
    plain = (_NORMAL_MIN <= size) & (size < np.inf)
    if not plain.all():
        s = np.maximum(np.maximum(np.abs(x - a), np.abs(x - b)), y)
        q = np.where(plain, q, ((x - a) / s) * ((x - b) / s) + (y / s) * (y / s))
        n = np.where(plain, n, ((b - a) / s) * (y / s))
    return np.arctan2(n, q) / np.pi, q, n


def hm_interval(z, I):
    """Harmonic measure of the interval I at z, exact closed form.

    For Im z > 0 this is the subtended angle over pi.  For real z it is the
    Dirac value: 1 if z lies strictly inside the interval, 0 strictly outside;
    the endpoints themselves are singular and rejected.
    """
    z = complex(z)
    y = z.imag
    if y < 0.0:
        raise NotInUpperHalfPlane(f"need Im z >= 0, got z = {z}")
    if y == 0.0:
        x = z.real
        if x == I.t1 or x == I.t2:
            raise EndpointSingularity(f"real point {x} is an endpoint of [{I.t1}, {I.t2}]")
        return 1.0 if I.t1 < x < I.t2 else 0.0
    return float(interval_form(z.real, y, I.t1, I.t2)[0])


def poisson_integral(f, w, lo, hi, knots, route, **options):
    """Integral of f(t) poisson_kernel(t, w) over [lo, hi] and its error spent,
    as integrate() returns them with its options.  It is taken in sigma =
    (t - Re w) / Im w, where the kernel is poisson_kernel(sigma, i) and its mass
    lies at |sigma| ~ 1 however narrow the peak in t.  quad splits at sigma = 0,
    at the knots, where f changes form, and at +-10^k from sigma = +-1 out to
    each far end (decade_breakpoints on |sigma|).  The sigma ends stop at the
    float range; f reads t clamped to [lo, hi], which rounding can leave (an
    edge's f takes t^(1/p), complex below 0)."""
    x, y = w.real, w.imag
    if not y > 0.0:
        raise NotInUpperHalfPlane(f"need Im w > 0, got w = {w}")
    a, b = max((lo - x) / y, -_FLOAT_MAX), min((hi - x) / y, _FLOAT_MAX)
    far = max(-a, b)  # NaN when w's image lies past the float range: no split
    decades = (decade_breakpoints(0.0, far, (1.0,)) or ()) if far > 1.0 else ()
    pts = [0.0, *((t - x) / y for t in knots), *decades, *(-s for s in decades)]

    def fn(s):
        t = x + y * s
        return f(lo if t < lo else hi if t > hi else t) * poisson_kernel(s, 1j)

    return integrate(fn, a, b, route, points=sorted({s for s in pts if a < s < b}) or None,
                     **options)


def hm_interval_quad(z, I):
    """Adaptive-quadrature oracle for hm_interval: the poisson_integral of 1
    over I, independent of the closed form."""
    z = complex(z)
    return poisson_integral(lambda t: 1.0, z, I.t1, I.t2, (),
                            f"harmonic-measure oracle (z={z}, I={I})", budget=ORACLE_BUDGET,
                            epsrel=1e-12)[0]


# ---------------------------------------------------------------------------
# Bound catalog


@dataclass(frozen=True)
class BoundEntry:
    """One applicable bound: its side, value, the hypothesis that qualified it,
    and whether it brackets the exact value.  An upper bound whose formula
    passes the float range has the value +inf."""

    name: str
    side: str  # "upper" | "lower"
    value: float
    hypothesis: str
    holds: bool


@dataclass
class BoundReport:
    z: complex
    interval: Interval
    exact: float
    entries: list[BoundEntry] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def all_hold(self):
        return all(e.holds for e in self.entries)


def imag_inv_conj(z):
    """Im(1 / conj(z)) = Im z / |z|^2 for z != 0, without forming |z|^2."""
    return z.imag / abs(z) / abs(z)


def hm_bounds(z, I, a=0.5, b=2.0):
    """Evaluate every bound whose hypothesis holds at (z, I) and check it
    brackets the exact value.

    The free constants a in (0,1) and b > 1 parametrize the near/far bound
    families; inapplicable bounds are listed in .skipped with the failed
    hypothesis.  Bounds stated only for nonnegative intervals are gated on
    t1 >= 0 exactly as stated.  A bound holds within BOUND_SLACK.
    """
    z = complex(z)
    if not (0.0 < a < 1.0):
        raise BadInput(f"need a in (0,1), got {a}")
    if not b > 1.0:
        raise BadInput(f"need b > 1, got {b}")
    if z.imag < 0.0:
        raise NotInUpperHalfPlane(f"need Im z >= 0, got z = {z}")

    t1, t2 = I.t1, I.t2
    length = t2 - t1
    x0, r = I.center, I.radius
    y = z.imag
    az = abs(z)
    exact = hm_interval(z, I)
    q, n = (float(c) for c in interval_form(z.real, y, t1, t2)[1:])
    dist = abs(z - x0)

    rep = BoundReport(z=z, interval=I, exact=exact)

    def keep(name, side, value, hyp):
        if side == "upper":
            ok = exact <= value + BOUND_SLACK
        else:
            ok = value <= exact + BOUND_SLACK
        rep.entries.append(BoundEntry(name, side, value, hyp, ok))

    def skip(name, why):
        rep.skipped.append((name, why))

    # Semidisk linearizations of the exact arctangent.
    if q > 0.0:
        keep("outside_semidisk_upper", "upper", n / (math.pi * q),
             "z outside the closed semidisk on the diameter")
    elif q < 0.0:
        keep("inside_semidisk_lower", "lower", 1.0 + n / (math.pi * q),
             "z inside the open semidisk on the diameter")
    else:
        skip("semidisk_linearization", "z on the semicircle; exact value 1/2")

    # Ring lower bound: needs |z - x0| >= b*r, i.e. z well outside the semidisk.
    if dist >= b * r and y > 0.0:
        c = (b - 1.0) / (2.0 * math.pi * b)
        keep("ring_lower", "lower", c * n / q, f"|z - x0| >= b*r with b={b}")
        keep("ring_lower_coarse", "lower",
             c * length * (y / (az + abs(t1))) / (az + abs(t2)),
             f"|z - x0| >= b*r with b={b} (product-denominator form)")
    else:
        skip("ring_lower", f"|z - x0| = {dist:.3g} < b*r = {b * r:.3g}")

    iy = imag_inv_conj(z) if az > 0.0 else None

    # Far-field pair: a|z| >= max(|t1|, |t2|).
    if az > 0.0 and a * az >= max(abs(t1), abs(t2)):
        keep("far_upper", "upper", length / (math.pi * (1.0 - a) ** 2) * iy,
             f"a*|z| >= max(|t1|,|t2|) with a={a}")
        keep("far_lower", "lower", length * (1.0 - a) / (8.0 * math.pi) * iy,
             f"a*|z| >= max(|t1|,|t2|) with a={a}")
    else:
        skip("far_pair", f"a*|z| = {a * az:.3g} < max(|t1|,|t2|) = {max(abs(t1), abs(t2)):.3g}")

    # Near-interval upper: a * min |t| over the interval >= |z|.
    min_abs_t = 0.0 if t1 <= 0.0 <= t2 else min(abs(t1), abs(t2))
    if az > 0.0 and a * min_abs_t >= az:
        keep("near_upper", "upper",
             length * a * a / (math.pi * (1.0 - a) ** 2) * iy,
             f"a*min|t| >= |z| with a={a}")
    else:
        skip("near_upper", f"a*min|t| = {a * min_abs_t:.3g} < |z| = {az:.3g}")

    # Family stated for 0 <= t1 < t2.
    if t1 >= 0.0 and az > 0.0:
        cos_arg = z.real / az
        geo = 2.0 * math.sqrt(t1 * t2) / (t1 + t2) if t1 + t2 > 0.0 else 0.0
        if cos_arg <= 0.0 and y > 0.0:
            keep("left_halfplane_upper", "upper", length / math.pi * iy,
                 "t1 >= 0 and cos(arg z) <= 0")
        else:
            skip("left_halfplane_upper", "cos(arg z) > 0 or z real")
        if -1.0 < cos_arg < geo:
            root = math.sqrt(t1 * t2)
            if az != root:
                keep("off_axis_upper", "upper",
                     length * (y / (az - root)) / (math.pi * (az - root)),
                     "t1 >= 0 and cos(arg z) < 2*sqrt(t1*t2)/(t1+t2)")
            # The lower bound needs |z| >= t2 on top of the angular window:
            # then Q <= (|z|+t2)^2 <= 4|z|^2 and atan(u) >= u*atan(1/4)/(1/4)
            # for u <= 1/4 give the stated constant with margin.  Without it
            # the right side blows up as z -> 0 while the measure stays small.
            if 0.0 < t1 and az >= t2:
                keep("positive_interval_lower", "lower",
                     (t1 / t2) * length / (8.0 * math.pi) * iy,
                     "0 < t1 < t2 <= |z| and cos(arg z) < 2*sqrt(t1*t2)/(t1+t2)")
        else:
            skip("off_axis_family", "cos(arg z) outside (-1, 2*sqrt(t1*t2)/(t1+t2))")
        if -1.0 < cos_arg <= a * geo:
            keep("off_axis_upper_scaled", "upper",
                 length / (math.pi * (1.0 - a * a)) * iy,
                 f"t1 >= 0 and cos(arg z) <= 2a*sqrt(t1*t2)/(t1+t2), a={a}")

        # Disk-geometry pair around the diameter.
        if dist > r:
            keep("disk_exterior_upper", "upper",
                 math.atan(2.0 * r / (dist - r) * (dist / (dist + r))) / math.pi,
                 "t1 >= 0 and z outside the closed semidisk")
        elif dist < r and y > 0.0:
            g = 2.0 * r * dist / (r * r - dist * dist)
            keep("disk_interior_lower", "lower", 1.0 - math.atan(g) / math.pi,
                 "t1 >= 0 and z in the open upper half-disk")
            keep("disk_interior_lower_coarse", "lower", 1.0 - g / math.pi,
                 "t1 >= 0 and z in the open upper half-disk")
        else:
            skip("disk_pair", "z on the semicircle (exact value 1/2) or z real inside")
    return rep


# ---------------------------------------------------------------------------
# Sector and system measures


def hm_sector_disk_bounds(sec, z, r, a):
    """Upper bounds for the sector disk/tail measures under the scale split a.

    Returns a dict with whichever of the two applies:
      "disk_upper":  a*|z| >= r  ->  bound on the harmonic measure of S-edge within D(r),
      "tail_upper":  a*r >= |z|  ->  bound on the measure of the edge outside D(r).
    z is classified once by sec.edges.ray_index, as hm_system classifies it:
    on an edge, where the measure is the Dirac mass, both bounds read 0;
    any other point is mapped by reduce_to_halfplane (NotInUpperHalfPlane
    outside the closed sector).
    """
    if not (0.0 < a < 1.0):
        raise BadInput(f"need a in (0,1), got {a}")
    if not r > 0.0:
        raise BadInput(f"need r > 0, got {r}")
    p, z = sec.exponent, complex(z)
    y = iy = 0.0
    if sec.edges.ray_index(z) is None:
        w = reduce_to_halfplane(sec, z)
        y, iy = w.imag, imag_inv_conj(w)
    out = {}
    den = math.pi * (1.0 - a ** p) ** 2
    if a * abs(z) >= r:
        out["disk_upper"] = 2.0 * radial_power(r, p) / den * iy
    if a * r >= abs(z):
        out["tail_upper"] = 2.0 * radial_power(r, -p) / den * y
    return out


def hm_system(S, z, segments=(), disk=None):
    """Harmonic measure of a boundary set for the complement of a ray system.

    The set is a union of BoundarySegments (ray_index into S) and optionally a
    closed origin disk of the given radius; parts must be disjoint (disk and
    segments are not deduplicated).  For z on S the measure is the Dirac mass.
    """
    return _hm_system(S, z, segments, disk, hm_interval)


def hm_system_quad(S, z, segments=(), disk=None):
    """Quadrature oracle for hm_system: the same dispatch, but each image
    interval is integrated by hm_interval_quad instead of evaluated in closed
    form."""
    return _hm_system(S, z, segments, disk, hm_interval_quad)


def _hm_system(S, z, segments, disk, measure):
    """hm_system's one dispatch: z classified once, and off S the sum of
    measure(v, I), a half-plane measure seen from v, over the images I of the
    set's parts, the disk's first, seen from z's image w, and each segment's
    from its edge's point of S.edge_views."""
    k = len(S.thetas)
    for seg in segments:
        if not 0 <= seg.ray_index < k:
            raise BadInput(f"no ray {seg.ray_index} in a {k}-ray system")
    if disk is not None and not disk > 0.0:
        raise BadInput(f"need disk > 0, got {disk}")
    z = complex(z)
    i = S.sector_index(z)
    if i < 0:
        az = abs(z)
        if disk is not None and az <= disk:
            return 1.0
        j = None if z == 0 else S.ray_index(z)
        for seg in segments:
            if (z == 0 or seg.ray_index == j) and seg.a <= az <= seg.b:
                return 1.0
        return 0.0

    sec = S.sectors[i]
    p = sec.exponent
    w = reduce_to_halfplane(sec, z)

    def images():  # lazily: a part's measure fails before a later part's image
        if disk is not None:
            rp = radial_power(disk, p)
            yield w, Interval(-rp, rp)
        for seg in segments:
            # for a one-ray system the same ray is both edges
            for j, seen_from in S.edge_views(i, w):
                if seg.ray_index == j:
                    yield seen_from, Interval(radial_power(seg.a, p), radial_power(seg.b, p))

    return sum((measure(seen_from, I) for seen_from, I in images()), 0.0)
