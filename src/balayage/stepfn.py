"""Right-continuous step functions with exact Stieltjes calculus.

Radial counting functions and distribution functions of atomic charges on a
ray are piecewise constant; all the integrals the growth diagnostics need
(f against dt/t^{p+1}, t^{-p} against df, log t against df) then reduce to
finite sums evaluated exactly, with no quadrature error.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import lt

import numpy as np

from .errors import BadInput, NumericFailure


@dataclass(frozen=True, eq=False)
class StepFunction:
    """f(t) = offset + sum of jumps at points <= t, on t >= 0 (right-continuous).

    Immutable: points and jumps are float arrays, and the level of f on each
    constant piece is built once, here, by one sequential cumulative sum."""

    points: np.ndarray
    jumps: np.ndarray
    offset: float = 0.0
    _levels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # checked and summed over lists: where a job builds one few-jump
        # function (check thcup), each numpy ufunc or reduction costs
        # 10-30 us on its first call in the job, more than the whole list
        # pass, which stays near 1 ms at 1e4 jumps
        ps, js = list(map(float, self.points)), list(map(float, self.jumps))
        if len(ps) != len(js):
            raise BadInput("points and jumps must pair up")
        if ps and not (ps[0] >= 0.0 and ps[-1] < math.inf
                       and all(map(lt, ps, islice(ps, 1, None)))):
            prev = -math.inf
            for t in ps:
                if not (t >= 0.0 and math.isfinite(t)):
                    raise BadInput(f"jump points must be finite and >= 0, got {t}")
                if t <= prev:
                    raise BadInput("jump points must be strictly increasing")
                prev = t
        if not all(map(math.isfinite, js)):
            raise BadInput("jumps must be finite")
        if not math.isfinite(self.offset):
            raise BadInput(f"offset must be finite, got {self.offset}")
        offset = float(self.offset)
        # levels[i] = f on [points[i-1], points[i]), from the running sum
        # offset + jumps[0] + ... + jumps[i-1]; levels[0] = offset
        levels = np.fromiter(accumulate(js, initial=offset), float, len(js) + 1)
        for name, arr in (("points", np.array(ps)), ("jumps", np.array(js)),
                          ("_levels", levels)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def from_events(cls, events, offset=0.0):
        """Build from an unordered iterable of (point, jump): equal points
        merge, their jumps summed in input order, and zero sums drop out."""
        acc = {}
        for t, s in events:
            acc[t] = acc.get(t, 0.0) + s
        pts = sorted(t for t in acc if acc[t] != 0.0)
        return cls(pts, [acc[t] for t in pts], offset)

    def __call__(self, t):
        """f(t) for a radius t, or the array of f at an array of radii."""
        v = self._levels[np.searchsorted(self.points, t, side="right")]
        return float(v) if np.ndim(v) == 0 else v

    def __len__(self):
        return len(self.points)

    def __add__(self, other):
        ev = [*zip(self.points.tolist(), self.jumps.tolist()),
              *zip(other.points.tolist(), other.jumps.tolist())]
        return StepFunction.from_events(ev, self.offset + other.offset)

    # -- exact Stieltjes integrals ------------------------------------------

    def integral_df(self, weight, lo, hi):
        """sum of weight(t_i) * jump_i over jump points in (lo, hi]."""
        pts = self.points.tolist()
        i, k = bisect_right(pts, lo), bisect_right(pts, hi)
        return math.fsum(weight(p) * s for p, s in zip(pts[i:k], self.jumps[i:k].tolist()))

    def integral_f_power(self, p_exp, lo, hi):
        """Exact integral of f(t)/t^{p_exp+1} dt over [lo, hi], 0 < lo <= hi."""
        if lo <= 0.0:
            raise BadInput("power-weight integral needs lo > 0")
        if hi < lo:
            raise BadInput(f"need lo <= hi, got [{lo}, {hi}]")
        anti = power_antiderivative(p_exp)
        # the pieces [lo, p_i], ..., [p_k, hi] over the jump points inside,
        # f = levels[i] on the first
        pts = self.points.tolist()
        i, k = bisect_right(pts, lo), bisect_left(pts, hi)
        antis = [anti(t) for t in (lo, *pts[i:k], hi)]
        levels = self._levels[i:i + len(antis) - 1].tolist()
        total = 0.0
        for a, b, c in zip(antis, antis[1:], levels):
            total += c * (b - a)
        if not math.isfinite(total):
            raise NumericFailure(f"integral of f/t^{p_exp + 1:g} over [{lo}, {hi}] "
                                 f"is not representable")
        return total


def power_antiderivative(p):
    """t -> the antiderivative of t^(-p-1) at t > 0: log t for p = 0, else
    -t^(-p)/p, and -inf where t^(-p) overflows (p = 2 below t = 1e-154), so
    that a sum built from it comes out non-finite."""
    if p == 0.0:
        return math.log

    def anti(t):
        try:
            return -t ** (-p) / p
        except OverflowError:
            return -math.inf
    return anti
