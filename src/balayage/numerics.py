"""The package's numeric policy: every tolerance, and checked quadrature.

A point z != 0 lies on a ray when its argument is within ANGULAR_TOL of the
ray's angle, and otherwise in the open sector between its neighbouring rays
(RaySystem.sector_index classifies every point; the power map keeps no edge
tolerance).  Every quadrature goes through integrate(), which compares scipy's
error estimate with a budget and raises QuadratureFailure past it.  It alone
sets quad's epsabs and limit; decade_breakpoints is the one split rule.

scipy.integrate is imported on the first quadrature, not with the package:
most commands evaluate closed forms only and never pay for it.  quad is still
a global of this module, bound by __getattr__ on first use, so replacing
numerics.quad reaches every call integrate() makes.
"""

from __future__ import annotations

import math
import sys

from .errors import QuadratureFailure

# On-ray classification, in radians.
ANGULAR_TOL = 1e-12
# The crg input reader assigns an atom to the nearest ray within this angle,
# so charges whose angles were rounded to about nine digits still read.
INPUT_ANGULAR_TOL = 1e-9

# Absolute accuracy (epsabs) that integrate() asks of quad on every call; only
# the Lindelof shells pass epsabs, their share of it.
QUAD_TOL = 1e-10
QUAD_LIMIT = 400  # the pieces quad may add to any call's breakpoint split
# The swept variation on a ray segment whose masses have mixed signs is a sum
# of |mass| over pieces (charges._ray_variation): the pieces on which no
# enclosure proves the density's sign miss at most VARIATION_TOL of it
# (absolute, per segment).  Halving more than VARIATION_HALVINGS pieces to
# find them is a NumericFailure.
VARIATION_TOL = 1e-11
VARIATION_HALVINGS = 1 << 16
# A bound check holds when its left side exceeds the right (or, for a lower
# bound, the right exceeds the left) by no more than this (absolute).
BOUND_SLACK = 1e-12
# Default tolerances of the checks and of the swept potential (absolute); the
# CLI's --tol defaults are these.
IDENTITY_TOL = 1e-6         # carleman_check's residual, the class-A routes' agreement
PAIRING_TOL = 1e-8          # check_fubini's |lhs - rhs|
SWEEP_TOL = 1e-4            # subharmonic_balayage_eval's tail bound

# Error budgets of the quadrature routes (absolute).
ORACLE_BUDGET = 1e-8        # hm_interval_quad, the closed forms' oracle
POTENTIAL_BUDGET = 1e-7     # carleman_check's corrections
FUNCTIONAL_BUDGET = 1e-6    # class-A functionals
# subharmonic_balayage_eval spends this share of its tolerance on quadrature,
# never less than EDGE_BUDGET_FLOOR.
EDGE_BUDGET_SHARE = 0.1
EDGE_BUDGET_FLOOR = 1e-9

# Elements (radii x swept contributions) of one block of an array query on a ray:
# each temporary of a block stays near half a megabyte, however many radii
# are asked for.
SAMPLE_BLOCK_ELEMENTS = 1 << 16

_EPSREL = 1.49e-8  # quad's own default


def __getattr__(name):
    if name != "quad":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.integrate import quad
    globals()["quad"] = quad
    return quad


def decade_breakpoints(lo, hi, points):
    """The package's one decade split: the points and the powers of ten inside
    (lo, hi), sorted, or None, the decades from lo or, for lo = 0, the least
    positive point.  Unsplit, quad's first rules over many decades miss mass."""
    start = min((t for t in (lo, *points) if t > 0.0), default=hi)
    decades = (10.0 ** k for k in range(math.floor(math.log10(start)),
                                        min(math.ceil(math.log10(hi)), 308) + 1))
    return sorted({t for t in (*points, *decades) if lo < t < hi}) or None


def integrate(fn, a, b, route, budget=None, spent=0.0, **options):
    """Integral of fn over [a, b] by scipy's quad, with its error checked.

    options go to quad (epsabs, epsrel, points); epsabs is QUAD_TOL unless
    given, and quad may add QUAD_LIMIT pieces to the points' split, however
    many.  The error estimate plus `spent`, the error of earlier calls that
    share the budget, must not exceed `budget`; budget None asks for the
    accuracy requested of quad, max(epsabs, epsrel * |value|).  A NaN error
    estimate (an integrand that returned NaN) fails the check.  Returns
    (value, spent + error).  QUADPACK's convergence warnings are not emitted:
    the budget check replaces them.
    """
    quad = sys.modules[__name__].quad  # a bare global lookup skips __getattr__
    options.setdefault("epsabs", QUAD_TOL)
    limit = QUAD_LIMIT + len(options.get("points") or ()) + 1  # plus the split's pieces
    val, err = quad(fn, a, b, full_output=1, limit=limit, **options)[:2]
    if budget is None:
        budget = max(options["epsabs"], options.get("epsrel", _EPSREL) * abs(val))
    spent += err
    if not spent <= budget:
        raise QuadratureFailure(
            f"{route} quadrature error {spent:.2e} exceeds its budget {budget:.2e}")
    return val, spent
