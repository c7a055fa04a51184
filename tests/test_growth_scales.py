import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balayage import (AtomicCharge, BadInput, StepFunction,
                      convergence_integral_inf, convergence_integral_zero,
                      growth_report, order_at_infinity, radial_counting,
                      type_at)

PI = math.pi


def steps_of(func, r_hi, spacing=1.0):
    events = []
    prev = 0.0
    t = spacing
    while t <= r_hi:
        v = func(t)
        if v != prev:
            events.append((t, v - prev))
            prev = v
        t += spacing
    return StepFunction.from_events(events)


def test_order_examples():
    sq = steps_of(lambda t: math.floor(t * t), 300.0, 0.25)
    assert order_at_infinity(sq, 4.0, 300.0) == pytest.approx(2.0, abs=0.05)
    # bounded function: estimate decays like 1/log r as the window widens
    const = StepFunction.from_events([(1.0, 3.0)])
    near = order_at_infinity(const, 2.0, 1e6)
    far = order_at_infinity(const, 2.0, 1e12)
    assert near <= 0.2
    assert far < near
    expo = steps_of(lambda t: math.floor(math.exp(t)), 80.0, 0.5)
    assert order_at_infinity(expo, 4.0, 80.0) >= 10.0
    burst = steps_of(lambda t: math.floor(math.exp(t * t)), 16.0, 0.5)
    assert order_at_infinity(burst, 2.0, 16.0) == math.inf


def test_type_examples():
    lin = steps_of(lambda t: math.floor(t), 2000.0)
    assert type_at(lin, 1.0, 10.0, 2000.0) == pytest.approx(1.0, abs=0.01)
    # above the true order the type estimate decays like 1/r_lo
    assert type_at(lin, 2.0, 500.0, 2000.0) <= 1.0 / 500.0
    with pytest.raises(BadInput):
        type_at(lin, -1.0, 10.0, 100.0)


def test_type_sine_zero_counting():
    nu = AtomicCharge([(k * PI, 1.0) for k in range(1, 800)]
                      + [(-k * PI, 1.0) for k in range(1, 800)])
    n = radial_counting(nu)
    assert type_at(n, 1.0, 50.0, 2000.0) == pytest.approx(2.0 / PI, abs=0.02)


def test_convergence_inf_verdicts():
    slow = steps_of(lambda t: math.floor(math.sqrt(t)), 4000.0)
    rep = convergence_integral_inf(slow, 1.0, 1.0, 4000.0)
    assert rep.trend == "convergent"
    assert rep.parts_residual <= 1e-12
    lin = steps_of(lambda t: math.floor(t), 4000.0)
    rep = convergence_integral_inf(lin, 1.0, 1.0, 4000.0)
    assert rep.trend == "divergent"
    with pytest.raises(BadInput):
        convergence_integral_inf(lin, 1.0, 5.0, 2.0)


def test_convergence_inf_exact_value():
    # single unit jump at 2: integral of 1/t^2 over [2, R] = 1/2 - 1/R
    f = StepFunction.from_events([(2.0, 1.0)])
    rep = convergence_integral_inf(f, 1.0, 1.0, 64.0)
    assert rep.value == pytest.approx(0.5 - 1.0 / 64.0, abs=1e-15)
    assert rep.stieltjes_tail == pytest.approx(0.5, abs=1e-15)


def test_convergence_zero_examples():
    f = StepFunction.from_events([(0.5, 1.0)])
    rep = convergence_integral_zero(f, 0.0, 1.0)
    assert rep.log_stieltjes == math.log(0.5)
    assert rep.value == pytest.approx(math.log(2.0), abs=1e-15)
    assert rep.f_log_limit == 0.0
    assert rep.log_residual <= 1e-12
    zero = StepFunction.from_events([])
    rep = convergence_integral_zero(zero, 1.0, 1.0)
    assert rep.value == 0.0 and rep.poch_residual == 0.0
    jump_at_zero = StepFunction.from_events([(0.0, 1.0)])
    rep = convergence_integral_zero(jump_at_zero, 1.0, 1.0)
    assert rep.value == math.inf
    assert rep.f_log_limit == -math.inf


def test_growth_report_bundle():
    lin = steps_of(lambda t: math.floor(t), 1000.0)
    rep = growth_report(lin, 1.0, 8.0, 1000.0)
    assert rep.order_estimate == pytest.approx(1.0, abs=0.05)
    assert math.isfinite(rep.type_estimate)
    assert rep.convergence.trend == "divergent"


@st.composite
def step_functions(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pts = sorted(draw(st.lists(
        st.floats(min_value=0.05, max_value=9.0, allow_nan=False),
        min_size=n, max_size=n, unique=True)))
    jumps = draw(st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).filter(
            lambda v: abs(v) > 1e-3),
        min_size=n, max_size=n))
    return StepFunction.from_events(list(zip(pts, jumps)))


@given(step_functions(), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_parts_identities_exact(f, p):
    rep = convergence_integral_inf(f, p, 0.01, 20.0)
    assert rep.parts_residual <= 1e-12
    zrep = convergence_integral_zero(f, p, 10.0)
    assert zrep.log_residual <= 1e-12
    if p > 0.0:
        assert zrep.poch_residual <= 1e-12


@given(step_functions())
@settings(max_examples=40, deadline=None)
def test_zero_side_value_vs_quad(f):
    # p = 0 absolute integral cross-checked against midpoint-exact sums
    rep = convergence_integral_zero(f, 0.0, 12.0)
    cuts = [q for q in f.points if q < 12.0] + [12.0]
    total = 0.0
    lo = cuts[0]
    for a, b in zip(cuts, cuts[1:]):
        total += abs(f(0.5 * (a + b))) * (math.log(b) - math.log(a))
    assert rep.value == pytest.approx(total, rel=1e-12, abs=1e-12)
