"""Closed systems of rays with vertex at the origin.

A ray system S is the union of finitely many rays {t*e^{i*theta} : t >= 0}.
Its complement splits into open sectors ("complementary angles"); each sector
maps onto the upper half-plane by the power map

    w = (z * e^{-i*alpha}) ** (pi / (beta - alpha)),

with the branch chosen positive on the sector's lower edge.  All harmonic
measure and balayage computations reduce to the half-plane through this map.
RaySystem.sector_index says, for one point or an array, which sector holds
each point, or that it lies on S: the one classification every caller uses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, NotInUpperHalfPlane, NumericFailure, PowerMapUnderflow, ZeroPoint
from .numerics import ANGULAR_TOL

TWO_PI = 2.0 * math.pi


def normalize_angle(theta):
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod can land exactly on 2*pi after the correction
        t -= TWO_PI
    return t


@dataclass(frozen=True)
class Sector:
    """Open sector alpha < arg z < beta, aperture beta - alpha in (0, 2*pi].

    Angles are stored unnormalized (beta may exceed 2*pi) so the aperture is
    always beta - alpha with no wraparound branching.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha < self.beta <= self.alpha + TWO_PI):
            raise BadInput(
                f"sector needs alpha < beta <= alpha + 2*pi, got ({self.alpha}, {self.beta})"
            )

    @property
    def aperture(self):
        return self.beta - self.alpha

    @property
    def exponent(self):
        """Power-map exponent pi / (beta - alpha)."""
        return math.pi / self.aperture

    @property
    def edges(self):
        """The edges' ray system, of one ray where they are one within ANGULAR_TOL."""
        try:
            return RaySystem([self.alpha, self.beta])
        except BadInput:  # RaySystem's duplicate-ray rule: the edges are one ray
            return RaySystem([self.alpha])


class RaySystem:
    """Finitely many rays from the origin, stored as sorted angles in [0, 2*pi),
    with their complementary sectors (built once, in `sectors`)."""

    def __init__(self, thetas):
        ts = [normalize_angle(float(t)) for t in thetas]
        if not ts:
            raise BadInput("a ray system needs at least one ray")
        ts.sort()
        # the last ray also neighbours the first one, across the angle 0
        for a, b in zip(ts, ts[1:] + [ts[0] + TWO_PI]):
            if b - a <= ANGULAR_TOL:
                raise BadInput("duplicate ray angles")
        self.thetas = tuple(ts)
        self._angles = np.array(ts)
        # sector of each searchsorted slot of arg z: slot 0, below every ray, is in the last
        self._slot_sector = np.array([len(ts) - 1, *range(len(ts))])
        self.sectors = tuple(complementary_sectors(self))

    def __len__(self):
        return len(self.thetas)

    def __eq__(self, other):
        return isinstance(other, RaySystem) and self.thetas == other.thetas

    def __repr__(self):
        return f"RaySystem({list(self.thetas)})"

    def _arg_and_gaps(self, points):
        """arg w of each point w, and |remainder(arg w - theta, 2 pi)| from it
        to each ray theta, a row per point: ray_index's and sector_index's one
        pass.  arg w is cmath.phase's (numpy's arctan2 can be an ulp off), and
        the remainder is exact as the lesser of |fmod| and 2 pi minus it."""
        arg = np.array([cmath.phase(w) for w in points])
        d = arg[:, None] - self._angles
        d = np.abs(np.fmod(d, TWO_PI, out=d), out=d)
        return arg, np.minimum(d, TWO_PI - d)

    def ray_index(self, z, tol=ANGULAR_TOL):
        """Index of the ray nearest to the point z within tol radians, or None;
        for an array of points, their indices, -1 for a point on no ray.

        The package's one on-ray test; a point is its 0-d case.  The last
        nearest ray wins a tie; the origin, on every ray, raises ZeroPoint."""
        z = np.asarray(z, dtype=complex)
        points = z.ravel().tolist()
        if 0 in points:
            raise ZeroPoint("the origin lies on every ray")
        _, d = self._arg_and_gaps(points)
        j = len(self.thetas) - 1 - d[:, ::-1].argmin(axis=1)
        j[~(d.min(axis=1) <= tol)] = -1
        j = j.reshape(z.shape)
        if z.ndim:
            return j
        return None if j < 0 else int(j)

    def sector_index(self, z):
        """Index into `sectors` of the open sector that holds the point z, or
        -1 for z on a ray or at the origin; for an array of points, their
        indices.

        The package's one classification of points, a point its 0-d case: on
        a ray is ray_index's test, from the same pass.  Off the rays, the sector
        starts at the last ray at or below arg z mod 2 pi; a point below every
        ray is in the last sector, the one across the angle 0."""
        z = np.asarray(z, dtype=complex)
        points = z.ravel().tolist()
        arg, d = self._arg_and_gaps(points)
        i = self._slot_sector[np.searchsorted(self._angles, arg % TWO_PI, side="right")]
        i[d.min(axis=1) <= ANGULAR_TOL] = -1
        if 0 in points:
            i[z.ravel() == 0] = -1
        i = i.reshape(z.shape)
        return i if z.ndim else int(i)

    def edge_views(self, i, w):
        """Sector i's two edges, each as (ray, the point its image in R+ is seen
        from), w the image of a point of the sector: ray i, the lower edge, from
        w; ray i + 1, the upper edge, whose image is R-, from the mirror
        -conj(w).  The one place that forms them."""
        return (i, w), ((i + 1) % len(self.thetas), complex(-w.real, w.imag))

    def to_json(self):
        return {"rays": list(self.thetas)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "rays" not in obj:
            raise BadInput('ray system JSON must be {"rays": [...]}')
        return cls(obj["rays"])


def modulus(z):
    """|z| at each point of z, by libm's hypot as abs(complex): numpy's abs is not."""
    z = np.asarray(z, dtype=complex)
    return np.hypot(z.real, z.imag)


def relative_angle(z, alpha):
    """Angle of z measured from the direction alpha, reduced to [0, 2*pi)."""
    return normalize_angle(cmath.phase(z) - alpha)


def complementary_sectors(S):
    """The open sectors that make up the complement of the ray system.

    k rays give k sectors; a single ray gives one sector of aperture 2*pi.
    Sector i runs from ray i to the next ray counterclockwise.
    """
    ts = S.thetas
    return [Sector(a, b) for a, b in zip(ts, ts[1:] + (ts[0] + TWO_PI,))]


# The target of the half-plane sweeps: ray 0 is R+, ray 1 is R-.
REAL_AXIS = RaySystem([0.0, math.pi])


def radial_power(t, p):
    """t ** p, the power map's radius; a float overflow is a NumericFailure."""
    try:
        return t ** p
    except OverflowError:
        raise NumericFailure(f"power map overflows: {t!r}**{p:.6g}") from None


def reduce_to_halfplane(sec, z):
    """Power map of the closed sector onto the closed upper half-plane.

    The edge at alpha maps into the positive reals, the edge at beta into the
    negative reals (an exact edge point exactly), and |w| = |z| ** (pi /
    aperture).  No edge rule: callers classify their points; a point outside
    the closed sector is NotInUpperHalfPlane.  Exact passthrough when the map
    is the identity (alpha = 0, aperture = pi), so half-plane cases stay
    bit-exact.  Raises NumericFailure where |w| passes the float range (in a
    narrow sector that is a moderate |z|: p = 10.5 at |z| = 1e40), or
    underflows to 0 and would put a point z != 0 on the boundary.
    """
    z = complex(z)
    if z == 0:
        raise ZeroPoint("power map undefined at the origin")
    p = sec.exponent
    if p == 1.0:
        # quarter and half turns are exact in complex arithmetic; exp(-1j*pi)
        # carries a ~1e-16 imaginary residue that breaks signed cancellations
        w = (z if sec.alpha == 0.0 else -z if sec.alpha == math.pi
             else complex(z.imag, -z.real) if sec.alpha == 0.5 * math.pi
             else complex(-z.imag, z.real) if sec.alpha == 1.5 * math.pi
             else z * cmath.exp(-1j * sec.alpha))
        if w.imag < 0.0:
            raise NotInUpperHalfPlane(f"point not in the closed sector: {z}")
        return w
    phi = relative_angle(z, sec.alpha)
    if phi > sec.aperture:
        raise NotInUpperHalfPlane(f"point not in the closed sector: {z}")
    rho = radial_power(abs(z), p)
    if rho == 0.0:
        raise PowerMapUnderflow(f"power map underflows: {abs(z)!r}**{p:.6g}")
    if phi <= 0.5 * sec.aperture:
        ang = p * phi
        return rho * complex(math.cos(ang), math.sin(ang))
    # Nearer the beta edge: w = -rho * e^(-i p delta), delta the angle from z
    # to that edge, taken from the edge ray's own angle and arg z before any
    # wrap by 2*pi.  aperture - phi would be a difference of O(1) numbers,
    # off by an ulp of 2*pi where the sector ends at 2*pi.
    delta = 0.0 if phi == sec.aperture else max(
        math.remainder(normalize_angle(sec.beta) - cmath.phase(z), TWO_PI), 0.0)
    ang = p * delta
    return rho * complex(-math.cos(ang), math.sin(ang))
