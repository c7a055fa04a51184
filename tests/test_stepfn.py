"""The array-backed step function and the one-pass growth windows against
their list-based, one-scan-per-radius forms, which serve as exact oracles."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balayage import (BadInput, NumericFailure, StepFunction, convergence_integral_inf,
                      convergence_integral_zero, order_at_infinity, type_at)
from balayage.growth_scales import ORDER_CAP, _abs_integrals


class ListStep:
    """The step function as Python lists, a running sum and one bisection
    per evaluation."""

    def __init__(self, events, offset=0.0):
        acc = {}
        for t, s in events:
            acc[t] = acc.get(t, 0.0) + s
        self.points = sorted(t for t in acc if acc[t] != 0.0)
        self.jumps = [acc[t] for t in self.points]
        self.offset = offset
        self.cum = []
        run = offset
        for s in self.jumps:
            run += s
            self.cum.append(run)

    def __call__(self, t):
        i = bisect_right(self.points, t)
        return self.offset if i == 0 else self.cum[i - 1]

    def integral_df(self, weight, lo, hi):
        return math.fsum(weight(p) * s for p, s in zip(self.points, self.jumps)
                         if lo < p <= hi)

    def integral_f_power(self, p_exp, lo, hi):
        anti = math.log if p_exp == 0.0 else (lambda x: -x ** (-p_exp) / p_exp)
        cuts = [lo] + [p for p in self.points if lo < p < hi] + [hi]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += self(a) * (anti(b) - anti(a))
        return total


def abs_integral(f, p, lo, hi):
    """|f(t)| / t^{p+1} over [lo, hi], by its own scan of the jumps."""
    anti = math.log if p == 0.0 else (lambda x: -x ** (-p) / p)
    cuts = [lo] + [q for q in f.points if lo < q < hi] + [hi]
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        c = abs(f(a))
        if c == 0.0:
            continue
        if a == 0.0:
            return math.inf
        total += c * (anti(b) - anti(a))
    if not math.isfinite(total):  # finite pieces whose sum has no float
        raise OverflowError(f"|f| / t^{p + 1:g} over [{lo}, {hi}] is past the float range")
    return total


def window_grid(f, r_lo, r_hi):
    grid = {r_lo, r_hi}
    r = r_lo
    while r < r_hi:
        grid.add(r)
        r *= 2.0
    grid.update(p for p in f.points if r_lo <= p <= r_hi)
    return sorted(grid)


def order_by_bisection(f, r_lo, r_hi):
    cut = math.sqrt(r_lo * r_hi)
    best = 0.0
    for r in window_grid(f, r_lo, r_hi):
        if r <= 1.0 or r < cut:
            continue
        best = max(best, math.log1p(max(f(r), 0.0)) / math.log(r))
    return math.inf if best > ORDER_CAP else best


def type_by_bisection(f, p, r_lo, r_hi):
    return max(max(f(r), 0.0) / r ** p for r in window_grid(f, r_lo, r_hi))


def outcome(fn, errors):
    """fn's value, or "out of range" where it raises one of errors: t ** -p
    overflows for a jump point below about 1e-154 at p = 2, which the list
    form meets as an OverflowError and the library reports as NumericFailure."""
    try:
        return fn()
    except errors:
        return "out of range"


# a small pool of points so that events repeat a point, at 0 among them,
# and jumps that cancel at a point so that zero sums drop out
POINTS = st.sampled_from([0.0, 0.3, 0.75, 1.0, 2.5, 3.0, 7.125, 11.0, 40.0, 1e3])
JUMPS = st.sampled_from([-2.0, -0.5, 0.1, 0.5, 1.0, 3.0])


@st.composite
def step_data(draw):
    events = draw(st.lists(st.tuples(POINTS, JUMPS), max_size=14))
    if events and draw(st.booleans()):
        t, s = events[0]
        events.append((t, -s))  # the jumps at t may now sum to zero
    extra = draw(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=5e3, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)), max_size=6))
    offset = draw(st.sampled_from([0.0, 0.0, 1.5, -0.25]))
    return events + extra, offset


@given(step_data(), st.lists(st.floats(min_value=0.0, max_value=6e3), max_size=8))
@settings(max_examples=120, deadline=None)
def test_arrays_equal_the_list_form(data, ts):
    events, offset = data
    f = StepFunction.from_events(events, offset)
    g = ListStep(events, offset)
    assert f.points.tolist() == g.points
    assert f.jumps.tolist() == g.jumps
    assert f.offset == g.offset
    for t in ts + g.points + [0.0, 1e9]:
        assert f(t) == g(t)
        assert type(f(t)) is float
    probe = ts + g.points
    assert f(np.array(probe)).tolist() == [g(t) for t in probe]


@given(step_data(), st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=1.0, max_value=200.0), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=120, deadline=None)
def test_stieltjes_integrals_equal_the_list_form(data, lo, width, p):
    f = StepFunction.from_events(*data)
    g = ListStep(*data)
    hi = lo * width
    assert f.integral_f_power(p, lo, hi) == g.integral_f_power(p, lo, hi)
    assert f.integral_df(math.sqrt, 0.0, hi) == g.integral_df(math.sqrt, 0.0, hi)
    assert f.integral_df(math.log, lo, hi) == g.integral_df(math.log, lo, hi)


@given(step_data(), st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=1.5, max_value=1e4), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
# the zero-side integral 2 (2^1023 - 1) of a jump 2 at 2^-1023 has no float
@example(data=([(2.0 ** -1023, 2.0)], 0.0), r_lo=1.0, width=2.0, p=1.0)
@settings(max_examples=120, deadline=None)
def test_one_pass_windows_equal_one_scan_per_radius(data, r_lo, width, p):
    f = StepFunction.from_events(*data)
    g = ListStep(*data)
    r_hi = r_lo * width
    rep = convergence_integral_inf(f, p, r_lo, r_hi)
    assert rep.samples == [(r, abs_integral(g, p, r_lo, r)) for r, _ in rep.samples]
    assert rep.value == abs_integral(g, p, r_lo, r_hi)
    assert order_at_infinity(f, r_lo, r_hi) == order_by_bisection(g, r_lo, r_hi)
    assert type_at(f, p, r_lo, r_hi) == type_by_bisection(g, p, r_lo, r_hi)
    assert (outcome(lambda: _abs_integrals(f, p, 0.0, [r_lo])[0], NumericFailure)
            == outcome(lambda: abs_integral(g, p, 0.0, r_lo),
                       (OverflowError, ZeroDivisionError)))


@given(step_data(), st.floats(-160.0, 2.0), st.floats(1.0, 1e3),
       st.sampled_from([0.0, 0.5, 1.0, 2.0]))
# at p = 2, t^-2 overflows below 1e-154: f = 0 there, and the piece adds nothing
@example(data=([(2.0, 1.0)], 0.0), lo_exp=-160.0, width=50.0, p=2.0)
@settings(max_examples=120, deadline=None)
def test_the_pieces_below_the_first_jump_add_nothing(data, lo_exp, width, p):
    f = StepFunction.from_events(data[0])  # offset 0: f = 0 below its first jump
    if not len(f):
        return
    p0 = float(f.points[0])
    lo, hi = min(p0, 10.0 ** lo_exp), max(p0, 1e-3) * width
    assert (outcome(lambda: f.integral_f_power(p, lo, hi), NumericFailure)
            == outcome(lambda: f.integral_f_power(p, p0, hi), NumericFailure))


def test_a_zero_piece_under_an_overflowing_antiderivative_adds_nothing():
    # 1/(2 t^2) from 2 to 100; the zero piece from 1e-160, where t^-2 overflows,
    # read 0 * inf = nan
    f = StepFunction.from_events([(2.0, 1.0)])
    assert f.integral_f_power(2.0, 1e-160, 100.0) == 0.12495


def test_windows_with_no_jump_and_a_jump_at_zero():
    empty = StepFunction.from_events([], offset=2.0)
    at_zero = StepFunction.from_events([(0.0, 1.0), (5.0, -3.0), (5.0, 3.0), (9.0, 0.5)])
    assert at_zero.points.tolist() == [0.0, 9.0]  # the jumps at 5 cancel
    for f, g in ((empty, ListStep([], 2.0)),
                 (at_zero, ListStep([(0.0, 1.0), (5.0, -3.0), (5.0, 3.0), (9.0, 0.5)]))):
        for r_lo, r_hi in ((1.0, 8.0), (10.0, 80.0), (2.0, 9.0)):
            rep = convergence_integral_inf(f, 1.0, r_lo, r_hi)
            assert rep.samples == [(r, abs_integral(g, 1.0, r_lo, r)) for r, _ in rep.samples]
            assert type_at(f, 1.0, r_lo, r_hi) == type_by_bisection(g, 1.0, r_lo, r_hi)
        assert convergence_integral_zero(f, 1.0, 3.0).value == math.inf


def test_step_function_is_frozen():
    f = StepFunction.from_events([(1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(AttributeError):
        f.offset = 1.0
    with pytest.raises(ValueError):
        f.points[0] = 5.0
    assert f(1.5) == 1.0


def test_point_checks_keep_their_messages():
    with pytest.raises(BadInput, match="pair up"):
        StepFunction([1.0, 2.0], [1.0])
    with pytest.raises(BadInput, match="finite and >= 0, got -1.0"):
        StepFunction([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(BadInput, match="strictly increasing"):
        StepFunction([2.0, 1.0, -1.0], [1.0, 1.0, 1.0])
    with pytest.raises(BadInput, match="finite and >= 0, got inf"):
        StepFunction([1.0, math.inf], [1.0, 1.0])
