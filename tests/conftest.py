import cmath
import json
import math

import numpy as np
import pytest

from balayage import AtomicCharge, BadInput, CoincidentPoints
from balayage.growth_scales import radius_grid


def random_charge(rng, n_atoms, r_lo=0.2, r_hi=50.0, positive=False,
                  upper_only=False):
    atoms = []
    for _ in range(n_atoms):
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        th = rng.uniform(0.0, math.pi if upper_only else 2.0 * math.pi)
        if upper_only and th in (0.0, math.pi):
            th = math.pi / 2.0
        m = rng.uniform(0.05, 2.0)
        if not positive and rng.random() < 0.4:
            m = -m
        atoms.append((r * complex(math.cos(th), math.sin(th)), m))
    return AtomicCharge(atoms)


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


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def charge_file(tmp_path):
    def make(atoms, name="charge.json"):
        obj = {"atoms": [{"re": z.real, "im": z.imag, "mass": m}
                         for z, m in atoms]}
        return write_json(tmp_path / name, obj)
    return make


@pytest.fixture
def system_file(tmp_path):
    def make(thetas, name="system.json"):
        return write_json(tmp_path / name, {"rays": list(thetas)})
    return make
