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

    Immutable: points, jumps and levels (f on each constant piece, built once,
    here, by one sequential cumulative sum) are read-only float arrays."""

    points: np.ndarray
    jumps: np.ndarray
    offset: float = 0.0
    levels: np.ndarray = field(init=False, repr=False)

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
                          ("levels", levels)):
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
        v = self.levels[np.searchsorted(self.points, t, side="right")]
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
        """Exact integral of f(t)/t^{p_exp+1} dt over [lo, hi], 0 <= lo <= hi,
        by power_integrals over f's levels: +-inf from lo = 0 where f(0) != 0."""
        if not 0.0 <= lo <= hi:
            raise BadInput(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
        return power_integrals(self.points, self.levels, p_exp, lo, [hi], "f")[0]


def power_integrals(points, levels, p, lo, his, name):
    """Exact integrals over [lo, hi] of c(t)/t^{p+1} dt for each hi of the
    increasing list his, c = levels[i] on [points[i-1], points[i]) (f's or |f|'s).

    The one Stieltjes pass of the package: each integral is the running sum
    of c * (A_next - A) over its pieces [lo, p_i], ..., [p_k, hi] in order, A
    the antiderivative at a piece's ends; the last piece is added to the
    total, not stored in it.  A piece of level 0 adds nothing, so an A that
    overflowed is not read under it.  From lo = 0 under a level c != 0 the
    integrals are c * inf; where the last has no float otherwise (the last is
    the largest where c >= 0), NumericFailure names the integrand `name`."""
    i, k = np.searchsorted(points, (lo, his[-1]), side="right").tolist()
    cuts = points[i:k].tolist()
    cs = levels[i:k + 1].tolist()  # cs[j]: the level on the piece cuts[j] ends
    if lo == 0.0 and cs[0] != 0.0:
        return [cs[0] * math.inf] * len(his)
    anti = power_antiderivative(p)
    antis = [anti(t) for t in cuts]
    A = anti(lo) if lo > 0.0 else None  # not read while the level is 0
    out, total, j = [], 0.0, 0
    for hi in his:
        n = bisect_left(cuts, hi, j)  # the pieces cuts[j:n] end below hi
        for c, a in zip(cs[j:n], antis[j:n]):
            if c != 0.0:
                total += c * (a - A)
            A = a
        j = n
        out.append(total + cs[j] * (anti(hi) - A) if cs[j] != 0.0 else total)
    if not math.isfinite(out[-1]):
        raise NumericFailure(f"integral of {name}/t^{p + 1:g} over [{lo}, {his[-1]}] "
                             f"is not representable")
    return out


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
