"""The package's numeric policy: every tolerance, and checked quadrature.

A point z != 0 lies on a ray when its argument is within ANGULAR_TOL of the
ray's angle, and otherwise in the open sector between its neighbouring rays
(RaySystem.sector_index classifies every point; the power map keeps no edge
tolerance).  Every quadrature goes through one of two engines, each of which
compares its error estimate with a budget and raises QuadratureFailure past
it; decade_breakpoints is their one split rule.

- integrate() calls scipy's quad, one scalar integral at a time: the Fubini
  left side, the Lindelof shells, the class-A and Carleman functionals, and
  poisson_integral's hm oracle and potential sweep.  It alone sets quad's
  epsabs and limit.
- integrate_many() integrates many scalar integrals, its components, by one
  adaptive bisection with QUADPACK's 21-point Gauss-Kronrod rule over arrays
  (qk21, with qk21's error estimate): the Fubini right side, one component
  per atom and edge.  Each component is checked on its own, against the
  accuracy integrate() asks of quad, within QUAD_LIMIT added pieces.

The two sides of the Fubini identity thus run on independent engines.

scipy.integrate is imported on the first quad call, not with the package:
most commands evaluate closed forms only and never pay for it, and
integrate_many never loads it.  quad is still a global of this module, bound
by __getattr__ on first use, so replacing numerics.quad reaches every call
integrate() makes; likewise replacing numerics.qk21 reaches every rule that
integrate_many applies.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import QuadratureFailure

# On-ray classification, in radians.
ANGULAR_TOL = 1e-12
# The crg input reader assigns an atom to the nearest ray within this angle,
# so charges whose angles were rounded to about nine digits still read.
INPUT_ANGULAR_TOL = 1e-9

# Absolute accuracy (epsabs) that integrate() asks of quad on every call, and
# integrate_many() of each component; only the Lindelof shells pass epsabs,
# their share of it.
QUAD_TOL = 1e-10
QUAD_LIMIT = 400  # the pieces quad, or a component, may add to its breakpoint split
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

# Elements (radii x swept contributions) of one block of an array query on a
# ray, and the most nodes integrate_many passes its integrand at once: each
# temporary of a block stays near half a megabyte, however many radii or
# pieces there are.
SAMPLE_BLOCK_ELEMENTS = 1 << 16

_EPSREL = 1.49e-8  # quad's own default

# QUADPACK's qk21 on [-1, 1] (Piessens et al., QUADPACK, 1983): the 21
# Kronrod nodes, their weights, and the weights of the 10-point Gauss rule on
# the same nodes, 0 at the nodes it lacks.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077508457337000, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK0 = 0.149445554002916905664936468389821  # at the centre node
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_WG_ON_XGK = tuple(0.0 if i % 2 == 0 else _WG[i // 2] for i in range(10))
_KRONROD_NODES = np.array([-x for x in _XGK] + [0.0] + [x for x in reversed(_XGK)])
_KRONROD_WEIGHTS = np.array([*_WGK, _WGK0, *reversed(_WGK)])
_GAUSS_WEIGHTS = np.array([*_WG_ON_XGK, 0.0, *reversed(_WG_ON_XGK)])
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


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


def qk21(fn, k, a, b):
    """QUADPACK's qk21 on the pieces [a, b] of the components k (arrays): the
    21-point Kronrod values, and qk21's error estimates,
    resasc min(1, (200 |K - G| / resasc)^1.5), never below the round-off floor
    50 eps resabs.  fn(k, x) gets every piece's 21 nodes in one call."""
    half = 0.5 * b - 0.5 * a  # no b - a to pass the float range
    x = (0.5 * a + 0.5 * b)[:, None] + half[:, None] * _KRONROD_NODES
    f = np.asarray(fn(np.repeat(k, _KRONROD_NODES.size), x.ravel()),
                   dtype=float).reshape(x.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resk = f @ _KRONROD_WEIGHTS
        scale = np.abs(half)
        resabs = np.abs(f) @ _KRONROD_WEIGHTS * scale
        resasc = np.abs(f - 0.5 * resk[:, None]) @ _KRONROD_WEIGHTS * scale
        err = np.abs((resk - f @ _GAUSS_WEIGHTS) * half)
        err = np.where((resasc != 0.0) & (err != 0.0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        err = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                       np.maximum(50.0 * _EPMACH * resabs, err), err)
        return resk * half, err


def integrate_many(fn, splits, route):
    """Integrals of many functions, the components, by one adaptive
    bisection over arrays, each with its error checked.  Component c runs
    over the pieces between the sorted points splits[c]; fn(k, x) returns the
    integrand of components k at the points x (arrays), SAMPLE_BLOCK_ELEMENTS
    points at most per call.  Each piece's error is qk21's estimate.  While a
    component's summed estimate exceeds max(QUAD_TOL, epsrel * |value|), the
    accuracy integrate() asks of quad, its pieces of largest error are halved
    until the others carry at most that much, every component's at once.  A
    component whose value or estimate is not finite, or that would add more
    than QUAD_LIMIT pieces to its split, raises QuadratureFailure.  Returns
    the components' values, an array."""
    n = len(splits)
    ends = [np.asarray(s, dtype=float) for s in splits]
    comp = np.repeat(np.arange(n), [e.size - 1 for e in ends])
    a, b = np.concatenate([e[:-1] for e in ends]), np.concatenate([e[1:] for e in ends])
    added = np.zeros(n, dtype=int)
    val = err = np.empty(0)
    step = max(1, SAMPLE_BLOCK_ELEMENTS // _KRONROD_NODES.size)  # pieces per fn call
    while True:
        rules = [qk21(fn, comp[i:i + step], a[i:i + step], b[i:i + step])
                 for i in range(val.size, comp.size, step)]
        val = np.concatenate([val, *(v for v, _ in rules)])
        err = np.concatenate([err, *(e for _, e in rules)])
        total = np.bincount(comp, weights=val, minlength=n)
        spent = np.bincount(comp, weights=err, minlength=n)
        budget = np.maximum(QUAD_TOL, _EPSREL * np.abs(total))
        bad = ~(np.isfinite(total) & np.isfinite(spent))
        if bad.any():
            c = np.argmax(bad)
            raise QuadratureFailure(f"{route} quadrature reads {total[c]:.2e} with error "
                                    f"{spent[c]:.2e}, not a finite value")
        excess = spent - budget
        over = excess > 0.0
        if not over.any():
            return total
        # each over-budget component's pieces by decreasing error: the first,
        # and each from which on the pieces still carry more than the budget,
        # are halved (sums in shares of the component's error, so that no
        # component's sum shadows another's)
        order = np.lexsort((-err, comp))
        order = order[over[comp[order]]]
        c = comp[order]
        share = err[order] / spent[c]
        before = np.cumsum(share) - share
        first = np.concatenate(([True], c[1:] != c[:-1]))
        before -= before[first][np.cumsum(first) - 1]
        halve = order[first | (before < excess[c] / spent[c])]
        added += np.bincount(comp[halve], minlength=n)
        if (added > QUAD_LIMIT).any():
            c = np.argmax(added > QUAD_LIMIT)
            raise QuadratureFailure(f"{route} quadrature error {spent[c]:.2e} exceeds its "
                                    f"budget {budget[c]:.2e} after {QUAD_LIMIT} added pieces")
        keep = np.ones(comp.size, dtype=bool)
        keep[halve] = False
        mid = 0.5 * a[halve] + 0.5 * b[halve]
        comp = np.concatenate((comp[keep], comp[halve], comp[halve]))
        a = np.concatenate((a[keep], a[halve], mid))
        b = np.concatenate((b[keep], mid, b[halve]))
        val, err = val[keep], err[keep]
