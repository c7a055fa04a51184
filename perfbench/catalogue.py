"""The fixed job catalogue of each workload.

A workload is a list of slots.  A slot is one kind of CLI job at one input
size; it has VARIANTS concrete jobs that differ only in their random inputs
(positions, masses, angles, evaluation points), drawn from a fixed catalogue
seed so that the reference outputs in ``reference/`` stay valid.  The run seed
fixes the order in which the jobs run.

A job is an argv for ``balayage.cli.main`` plus the JSON input files it reads.
Tokens ``@charge``, ``@system`` and ``@schedule`` in the argv are replaced by
the paths of the written inputs, and ``@out`` by a fresh output path.
"""

import cmath
import math
import random
from dataclasses import dataclass, field

VARIANTS = 2
CATALOGUE_SEED = 20181126

# Checks whose "holds" is a verdict on the input rather than an identity of the
# library; only these may exit 1.
VERDICT_CHECKS = {"thcup", "ges", "lindelof"}

# (rtol, atol) at which a value may differ from the reference, per route: the
# closed forms are exact up to rounding; the quadrature routes state their
# own tolerance (quad oracle 1e-10, fubini 1e-8, carleman and class-A 1e-6,
# principal values 1e-6, potential sweep 1e-4).
CLOSED = (1e-9, 1e-12)
TOL = {
    "hm": (1e-9, 1e-9),
    "balayage": CLOSED,
    "check blaschke": CLOSED,
    "check thcup": (1e-9, 1e-10),
    "check ges": (1e-6, 1e-8),
    "check fubini": (1e-6, 1e-8),
    "check lindelof": (1e-6, 1e-8),
    "check carleman": (1e-6, 1e-6),
    "check classa": (1e-6, 1e-6),
    "growth": CLOSED,
    "crg": (1e-6, 1e-6),
    "potential": CLOSED,
    "potential --sweep": (1e-4, 1e-4),
}


@dataclass
class Job:
    id: str
    kind: str
    size: int
    argv: list
    inputs: dict = field(default_factory=dict)

    @property
    def tol(self):
        return TOL[self.kind]

    @property
    def allowed_exits(self):
        check = self.argv[1] if self.argv[0] == "check" else None
        return {0, 1} if check in VERDICT_CHECKS else {0}


# ---------------------------------------------------------------------------
# Input generators


def _atom(z, m):
    return {"re": z.real, "im": z.imag, "mass": m}


def signed_charge(rng, n, r_lo=0.3, r_hi=30.0):
    """n atoms log-uniform in radius, uniform in angle, 40% negative."""
    atoms = []
    for _ in range(n):
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        m = rng.uniform(0.05, 2.0) * (-1.0 if rng.random() < 0.4 else 1.0)
        atoms.append(_atom(cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi)), m))
    return {"atoms": atoms}


def upper_charge(rng, n, r):
    """n atoms in the upper half of the annulus 1.2 < |z| < 0.9 r, away from
    the real axis, 30% negative (the half-disk identity's setting)."""
    atoms = []
    for _ in range(n):
        z = cmath.rect(rng.uniform(1.2, 0.9 * r), rng.uniform(0.15, math.pi - 0.15))
        m = rng.uniform(0.1, 2.0) * (1.0 if rng.random() < 0.7 else -1.0)
        atoms.append(_atom(z, m))
    return {"atoms": atoms}


def ray_charge(rng, m, thetas, p):
    """m unit atoms per ray at radii (k + u_k)^(1/p), so n(r) ~ r^p."""
    return {"atoms": [_atom(cmath.rect((k + rng.random()) ** (1.0 / p), th), 1.0)
                      for th in thetas for k in range(1, m + 1)]}


def ray_angles(rng, k, min_gap=0.3):
    """k ray angles in [0, 2*pi) at least min_gap apart (cyclically)."""
    while True:
        ts = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(k))
        gaps = [b - a for a, b in zip(ts, ts[1:])] + [2.0 * math.pi - ts[-1] + ts[0]]
        if k == 1 or min(gaps) >= min_gap:
            return ts


def off_rays_point(rng, thetas, r_lo, r_hi, min_angle=0.1):
    """A point in r_lo < |z| < r_hi at least min_angle from every ray."""
    while True:
        ph = rng.uniform(0.0, 2.0 * math.pi)
        if all(abs(math.remainder(ph - t, 2.0 * math.pi)) >= min_angle for t in thetas):
            return cmath.rect(rng.uniform(r_lo, r_hi), ph)


def _c(z):
    return f"{z.real!r},{z.imag!r}"


# ---------------------------------------------------------------------------
# Workloads: each maker returns the jobs of one variant of every slot


def sweep_dense(rngs):
    """A few large signed charges on 2-5 rays, each swept and then queried
    80 times per ray; plus the quadrature-over-density checks."""
    jobs = []
    rng = rngs("balayage")
    for n, k in ((20, 2), (40, 3), (60, 4), (80, 5), (100, 3)):
        S = ray_angles(rng, k)
        nu = signed_charge(rng, n)
        for extra in ([], ["--variation"], ["--xmax", "20"]):
            jobs.append(("balayage", n, ["balayage", "--charge", "@charge", "--system",
                                         "@system", "--samples", "80", *extra,
                                         "--out", "@out"],
                         {"charge": nu, "system": {"rays": S}}))
    rng = rngs("fubini")
    for n, k in ((80, 2), (120, 3)):
        jobs.append(("check fubini", n, ["check", "fubini", "--charge", "@charge",
                                         "--system", "@system", "--out", "@out"],
                     {"charge": signed_charge(rng, n), "system": {"rays": ray_angles(rng, k)}}))
    rng = rngs("lindelof")
    for n, k in ((25, 2), (40, 3)):
        jobs.append(("check lindelof", n, ["check", "lindelof", "--charge", "@charge",
                                           "--system", "@system", "--radii", "4,8,16,32",
                                           "--out", "@out"],
                     {"charge": signed_charge(rng, n), "system": {"rays": ray_angles(rng, k)}}))
    rng = rngs("ges")
    for n, k in ((16, 3), (20, 4)):
        jobs.append(("check ges", n, ["check", "ges", "--charge", "@charge", "--system",
                                      "@system", "--r", "5", "--out", "@out"],
                     {"charge": signed_charge(rng, n), "system": {"rays": ray_angles(rng, k)}}))
    return jobs


def sweep_small(rngs):
    """Many independent small jobs: N <= 10 atoms on random 1-5-ray systems."""
    jobs = []
    rng = rngs("hm_interval")
    for _ in range(4):
        t1 = rng.uniform(-5.0, 4.0)
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(0.2, 4.0))
        jobs.append(("hm", 1, ["hm", f"--z={_c(z)}", f"--interval={t1!r},{t1 + rng.uniform(0.2, 3.0)!r}",
                                "--out", "@out"], {}))
    rng = rngs("hm_system")
    for k in range(1, 5):
        S = ray_angles(rng, k)
        z = off_rays_point(rng, S, 0.5, 5.0)
        j = rng.randrange(k)
        a = rng.uniform(0.0, 2.0)
        jobs.append(("hm", 1, ["hm", f"--z={_c(z)}", "--system", "@system", "--segment",
                                f"{j},{a!r},{a + rng.uniform(0.5, 3.0)!r}", "--disk",
                                f"{rng.uniform(0.2, 1.0)!r}", "--out", "@out"],
                     {"system": {"rays": S}}))
    rng = rngs("balayage")
    for n, k in ((3, 1), (6, 2), (8, 3), (10, 5)):
        jobs.append(("balayage", n, ["balayage", "--charge", "@charge", "--system", "@system",
                                      "--samples", "8", "--out", "@out"],
                     {"charge": signed_charge(rng, n), "system": {"rays": ray_angles(rng, k)}}))
    rng = rngs("blaschke")
    for n, k in ((5, 2), (10, 4)):
        jobs.append(("check blaschke", n, ["check", "blaschke", "--charge", "@charge",
                                            "--system", "@system", "--r0", "0.5",
                                            "--out", "@out"],
                     {"charge": signed_charge(rng, n), "system": {"rays": ray_angles(rng, k)}}))
    rng = rngs("thcup")
    for n in (4, 7, 10):
        t1 = rng.uniform(0.5, 3.0) * rng.choice((1.0, -1.0))
        lo, hi = sorted((t1, t1 * rng.uniform(1.2, 2.0)))
        jobs.append(("check thcup", n, ["check", "thcup", "--charge", "@charge",
                                         f"--t1={lo!r}", f"--t2={hi!r}", "--out", "@out"],
                     {"charge": signed_charge(rng, n)}))
    rng = rngs("ges")
    for n in (4, 7, 10):
        jobs.append(("check ges", n, ["check", "ges", "--charge", "@charge", "--r",
                                       f"{rng.uniform(2.0, 10.0)!r}", "--out", "@out"],
                     {"charge": signed_charge(rng, n)}))
    return jobs


def growth_scan(rngs):
    """Counting-function jobs with no sweep: atoms on 2-4 rays with
    n(r) ~ r^p, p in {0.5, 1, 1.5, 2}."""
    jobs = []
    rng = rngs("growth")
    for m, k, p in ((100, 2, 1.5), (300, 2, 1.0), (1000, 3, 2.0), (3000, 2, 0.5)):
        th = ray_angles(rng, k)
        jobs.append(("growth", m, ["growth", "--charge", "@charge", "--p", repr(p),
                                    "--zero-side", "--out", "@out"],
                     {"charge": ray_charge(rng, m, th, p)}))
    rng = rngs("crg")
    for m, k, p in ((100, 2, 1.0), (300, 3, 1.5), (300, 4, 0.5), (1000, 4, 2.0),
                    (1000, 2, 0.5), (3000, 3, 1.0), (3000, 2, 2.0), (10000, 2, 1.0)):
        th = ray_angles(rng, k)
        jobs.append(("crg", m, ["crg", "--charge", "@charge", "--system", "@system",
                                 "--p", repr(p), "--truncation", repr(float(m) ** (1.0 / p)),
                                 "--out", "@out"],
                     {"charge": ray_charge(rng, m, th, p), "system": {"rays": th}}))
    rng = rngs("angular")
    for m, k, p in ((300, 2, 1.0), (1000, 3, 1.0), (1000, 2, 2.0)):
        th = ray_angles(rng, k)
        jobs.append(("crg", m, ["crg", "--charge", "@charge", "--system", "@system",
                                 "--p", repr(p), f"--angular={th[0] - 0.1!r},{th[0] + 1.0!r}",
                                 "--out", "@out"],
                     {"charge": ray_charge(rng, m, th, p), "system": {"rays": th}}))
    th = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    rng = rngs("exgr2")
    for m in (40, 70, 100, 130):
        jobs.append(("crg", m, ["crg", "--charge", "@charge", "--system", "@system",
                                 "--p", "1.0", "--truncation", repr(float(m)), "--exgr2",
                                 "--out", "@out"],
                     {"charge": ray_charge(rng, m, th, 1.0), "system": {"rays": th}}))
    return jobs


def potential_quad(rngs):
    """Subharmonic quadrature: canonical potentials of 5-50 atoms evaluated at
    many points, inside the half-disk identity and class-A functionals, and
    swept onto 3 rays."""
    jobs = []
    rng = rngs("genus")
    for i in range(40):
        n = 5 + (45 * i) // 39
        zs = [off_rays_point(rng, [], 0.5, 30.0) for _ in range(100)]
        jobs.append(("potential", n, ["potential", "--charge", "@charge", "--genus",
                                       str(i % 4 - 1), *(f"--z={_c(z)}" for z in zs),
                                       "--out", "@out"],
                     {"charge": signed_charge(rng, n, 0.5, 20.0)}))
    rng = rngs("schedule")
    for n in (10, 25, 40, 50):
        zs = [off_rays_point(rng, [], 0.5, 30.0) for _ in range(100)]
        jobs.append(("potential", n, ["potential", "--charge", "@charge", "--schedule",
                                       "@schedule", *(f"--z={_c(z)}" for z in zs),
                                       "--out", "@out"],
                     {"charge": signed_charge(rng, n, 0.5, 20.0),
                      "schedule": {"radii": [0.0, 2.0, 8.0], "genera": [-1, 0, 1]}}))
    rng = rngs("identity")
    for n in (5, 12, 25):
        r = rng.choice((8.0, 32.0))
        for check in ("carleman", "classa"):
            jobs.append((f"check {check}", n, ["check", check, "--charge", "@charge",
                                                "--r0", "1", "--r", repr(r), "--out", "@out"],
                         {"charge": upper_charge(rng, n, r)}))
    S = [0.3, 2.0, 4.0]
    rng = rngs("sweep")
    for n in (5, 20, 50):
        zs = [off_rays_point(rng, S, 1.0, 8.0)]
        jobs.append(("potential --sweep", n, ["potential", "--charge", "@charge",
                                               *(f"--z={_c(z)}" for z in zs),
                                               "--sweep", "--system", "@system",
                                               "--out", "@out"],
                     {"charge": upper_charge(rng, n, 10.0), "system": {"rays": S}}))
    return jobs


WORKLOADS = {"sweep_dense": sweep_dense, "sweep_small": sweep_small,
             "growth_scan": growth_scan, "potential_quad": potential_quad}


def catalogue(workload):
    """slots[i][v] is variant v of slot i; identical on every call.

    Each group of slots draws from its own stream, so adding a slot to one
    group leaves the inputs (and references) of the other groups unchanged."""
    def streams(v):
        return lambda group: random.Random(f"{CATALOGUE_SEED}:{workload}:{v}:{group}")
    variants = [WORKLOADS[workload](streams(v)) for v in range(VARIANTS)]
    slots = []
    for i, group in enumerate(zip(*variants)):
        slots.append([Job(f"{workload}.{i:02d}.{v}", kind, size, argv, inputs)
                      for v, (kind, size, argv, inputs) in enumerate(group)])
    return slots
