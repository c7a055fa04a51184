"""Order, type, and convergence-class diagnostics for monotone step data.

All quantities are estimators over explicit radius windows: a dyadic grid
augmented with the function's own jump points, which makes suprema of
f(r)/r^p exact for step functions (between jumps the ratio only decreases).
Integrals against step functions are exact finite sums; the two
integration-by-parts identities tying the Stieltjes and Lebesgue forms
together are verified to machine accuracy as a self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charges import divergence_verdict
from .errors import BadInput, NumericFailure
from .stepfn import StepFunction, power_integrals

ORDER_CAP = 64.0  # estimates above this are reported as +inf


def radius_grid(r_lo, r_hi, per_octave):
    """The package's one radius grid: geometric from r_lo to r_hi with
    2^(1/per_octave) steps, and r_hi, not a step within 1e-12 (relative) of it."""
    if not (0.0 < r_lo < r_hi):
        raise BadInput(f"need 0 < r_lo < r_hi, got ({r_lo}, {r_hi})")
    ratio = 2.0 ** (1.0 / per_octave)
    out = []
    r = r_lo
    while r < r_hi * (1.0 - 1e-12):
        out.append(r)
        r *= ratio
    out.append(r_hi)
    return out


def exact_ratios(values, radii, p, scale, failure):
    """v / (scale * r^p) for each exact datum v (a count or a mass) at the
    radius r: v itself where v is 0, whatever r^p is, even past the float
    range; NumericFailure(failure) where a nonzero v's quotient has no float
    (r^p under- or overflowed, or the quotient did)."""
    try:
        out = [v and v / (scale * r ** p) for v, r in zip(values, radii)]
    except (ZeroDivisionError, OverflowError):
        raise NumericFailure(failure) from None
    if not np.isfinite(out).all():
        raise NumericFailure(failure)
    return out


def _window_grid(f, r_lo, r_hi):
    """The dyadic grid from r_lo, r_hi and the jump points in the window,
    sorted, and f at each grid point."""
    if not (0.0 < r_lo < r_hi < math.inf):
        raise BadInput(f"need 0 < r_lo < r_hi < inf, got [{r_lo}, {r_hi}]")
    grid = [r_lo, *radius_grid(r_lo, r_hi, 1)]
    inside = f.points[(f.points >= r_lo) & (f.points <= r_hi)]
    grid = np.unique(np.concatenate((grid, inside)))
    return grid.tolist(), f(grid).tolist()


def order_at_infinity(f, r_lo, r_hi):
    """Max of log(1 + f^+(r)) / log r over the top half of the window grid.

    The ratio is biased upward at small radii, so the lower (geometric) half
    of the window is burn-in and only the top half enters the max; widening
    the window therefore drives the estimate toward the tail exponent.
    Estimates above ORDER_CAP are reported as +inf.
    """
    grid, values = _window_grid(f, r_lo, r_hi)
    cut = math.sqrt(r_lo * r_hi)
    best = 0.0
    for r, v in zip(grid, values):
        if r <= 1.0 or r < cut:
            continue
        best = max(best, math.log1p(max(v, 0.0)) / math.log(r))
    return math.inf if best > ORDER_CAP else best


def type_at(f, p, r_lo, r_hi):
    """Sup of f^+(r) / r^p over the window grid (exact for step functions).

    NumericFailure where r^p leaves the float range: an r^p that underflows
    to 0 under f(r) > 0 leaves the ratio unrepresentable."""
    if not p >= 0.0:
        raise BadInput(f"need p >= 0, got {p}")
    grid, values = _window_grid(f, r_lo, r_hi)
    return max(exact_ratios([max(v, 0.0) for v in values], grid, p, 1.0,
                            f"f(r)/r^{p:g} over [{r_lo}, {r_hi}] is not representable"))


def _abs_integrals(f, p, lo, his):
    """Exact integrals of |f(t)| / t^{p+1} over [lo, hi] for each hi of the
    increasing list his, by power_integrals over |f|'s levels: with lo = 0
    they are +inf unless f vanishes near 0."""
    return power_integrals(f.points, np.abs(f.levels), p, lo, his, "|f|")


@dataclass
class ConvergenceReport:
    value: float
    trend: str  # "convergent" | "divergent"
    samples: list[tuple[float, float]]
    stieltjes_tail: float
    parts_residual: float


def convergence_integral_inf(f, p, r0, R):
    """Integral of |f(t)|/t^{p+1} over [r0, R], exactly, with a dyadic trend
    verdict and the companion Stieltjes tail; also verifies the parts identity
      int_(r,R] df/t^p = f(R)/R^p - f(r)/r^p + p int_r^R f/t^{p+1} dt
    (for the signed f) and reports its residual."""
    if not (0.0 < r0 < R):
        raise BadInput(f"need 0 < r0 < R, got [{r0}, {R}]")
    # the grid's dyadic radii above r0, and R; r0 within 1e-12 of R leaves only R
    his = radius_grid(r0, R, 1)[1:] or [R]
    samples = list(zip(his, _abs_integrals(f, p, r0, his)))
    value = samples[-1][1]
    if len(samples) >= 3:
        _, divergent = divergence_verdict([s[0] for s in samples[-8:]],
                                          [s[1] for s in samples[-8:]])
        trend = "divergent" if divergent else "convergent"
    else:
        trend = "convergent" if math.isfinite(value) else "divergent"
    failure = f"the parts identity at order {p:g} over [{r0}, {R}] leaves the float range"
    try:
        tail = f.integral_df((lambda t: t ** (-p)) if p != 0.0 else (lambda t: 1.0), r0, R)
        lhs = tail
        if p != 0.0:
            at_R, at_r0 = exact_ratios([f(R), f(r0)], [R, r0], p, 1.0, failure)
            rhs = at_R - at_r0 + p * f.integral_f_power(p, r0, R)
        else:
            rhs = f(R) - f(r0)
    except (ZeroDivisionError, OverflowError):
        raise NumericFailure(failure) from None
    return ConvergenceReport(value=value, trend=trend, samples=samples,
                             stieltjes_tail=tail, parts_residual=abs(lhs - rhs))


@dataclass
class ZeroReport:
    value: float
    f_log_limit: float
    log_stieltjes: float
    poch_residual: float | None
    log_residual: float


def convergence_integral_zero(f, p, r0):
    """Exact zero-side integrals for a step function on (0, r0]:

    value          : int_0^{r0} |f(t)|/t^{p+1} dt (+inf when f(0) != 0)
    f_log_limit    : lim_{r->0} f(r) log r (0 or signed inf for steps)
    log_stieltjes  : int_(0,r0] log t df(t)
    poch_residual  : residual of the p > 0 parts identity on f - f(0)
    log_residual   : residual of the p = 0 logarithmic parts identity
    """
    if not r0 > 0.0:
        raise BadInput(f"need r0 > 0, got {r0}")
    if not p >= 0.0:
        raise BadInput(f"need p >= 0, got {p}")
    value = _abs_integrals(f, p, 0.0, [r0])[0]
    f0 = f(0.0)
    f_log_limit = 0.0 if f0 == 0.0 else math.copysign(math.inf, -f0)
    at_zero = int(len(f) > 0 and f.points[0] == 0.0)  # points are sorted, >= 0
    if at_zero:
        log_st = math.copysign(math.inf, -f.jumps[0])
    else:
        log_st = f.integral_df(math.log, 0.0, r0)

    # shifted function g = f - f(0): integrals of g against dt start cleanly at 0
    g = StepFunction(f.points[at_zero:].tolist(), f.jumps[at_zero:].tolist())
    # g vanishes near 0: its pieces below the first jump add nothing
    shifted = lambda q: g.integral_f_power(q, 0.0, r0)
    poch_residual = None
    if p > 0.0:
        lhs = shifted(p)
        failure = f"the parts identity at order {p:g} on (0, {r0}] leaves the float range"
        try:
            rhs = (exact_ratios([-(g(r0))], [r0], p, p, failure)[0]
                   + g.integral_df(lambda t: t ** (-p), 0.0, r0) / p)
        except (ZeroDivisionError, OverflowError):
            raise NumericFailure(failure) from None
        poch_residual = abs(lhs - rhs)
    lhs0 = shifted(0.0)
    rhs0 = g(r0) * math.log(r0) - g.integral_df(math.log, 0.0, r0)
    return ZeroReport(value=value, f_log_limit=f_log_limit, log_stieltjes=log_st,
                      poch_residual=poch_residual, log_residual=abs(lhs0 - rhs0))


@dataclass
class GrowthReport:
    order_estimate: float
    type_estimate: float
    convergence: ConvergenceReport


def growth_report(f, p, r_lo, r_hi):
    """Bundle the three diagnostics over one window at one comparison order."""
    return GrowthReport(order_estimate=order_at_infinity(f, r_lo, r_hi),
                        type_estimate=type_at(f, p, r_lo, r_hi),
                        convergence=convergence_integral_inf(f, p, r_lo, r_hi))
