"""The unrolled Dormand-Prince step against its loop form (`dopri_oracle`):
every caller's step rows, returned states and event roots agree bit for bit."""

import dataclasses

import pytest

from rossmac import kernel, ode, trajectory
from rossmac.kernel import boundary_curve, build_kernel
from rossmac.model import ModelRates, State
from rossmac.trajectory import (ConstantControl, PiecewiseConstantControl, SaturatingFeedback,
                                simulate)

from dopri_oracle import loop_dopri
from parity_points import same_bits

MEDIUM_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.03733)
STRONG_RATES = dataclasses.replace(MEDIUM_RATES, u_max=0.3733)
# A cell whose frontier leaves the square through m = 1.
Y1_RATES = dataclasses.replace(MEDIUM_RATES, u_max=0.0176054269488865)
Y1_H_BAR = 0.7217515362100086


@pytest.fixture
def solves(monkeypatch):
    """Every `_dopri` call of simulate and of the frontier, each run next to
    the loop form: (rows, oracle rows, result, oracle result)."""
    calls = []
    real = trajectory._dopri

    def both(rhs, t, y, t_end, rtol, atol, event, steps):
        rows = []
        expected = loop_dopri(rhs, t, y, t_end, rtol, atol, event, rows)
        start = len(steps)
        result = real(rhs, t, y, t_end, rtol, atol, event, steps)
        calls.append((steps[start:], rows, result, expected))
        return result

    monkeypatch.setattr(trajectory, "_dopri", both)
    monkeypatch.setattr(kernel, "_dopri", both)
    return calls


def assert_same_steps(calls, n_calls):
    assert len(calls) == n_calls
    for rows, oracle_rows, result, expected in calls:
        assert len(rows) > 10
        assert same_bits(rows, oracle_rows)
        assert same_bits(result[0], expected[0]) and result[1] == expected[1]


@pytest.mark.parametrize("kind", ["constant", "piecewise", "feedback"])
def test_simulate_steps_match_the_loop_form(solves, kind):
    policy = {
        "constant": ConstantControl(0.02),
        "piecewise": PiecewiseConstantControl(((0.0, 0.01), (40.0, 0.03733), (90.0, 0.02))),
        "feedback": SaturatingFeedback(build_kernel(MEDIUM_RATES, 0.5), 0.01, 0.03733),
    }[kind]
    solves.clear()  # the feedback kernel's own frontier trace
    simulate(State(0.2, 0.1), policy, MEDIUM_RATES, 150.0, dt_out=0.5)
    assert_same_steps(solves, 3 if kind == "piecewise" else 1)


@pytest.mark.parametrize("rates, H_bar, edge", [(MEDIUM_RATES, 0.5, "h=0"),
                                                (STRONG_RATES, 0.5, "m=1"),
                                                (Y1_RATES, Y1_H_BAR, "m=1")],
                         ids=["baseline", "strong", "m=1"])
def test_frontier_steps_match_the_loop_form(solves, rates, H_bar, edge):
    m_inf = boundary_curve(rates, H_bar)[0][-1]
    assert_same_steps(solves, 1)
    root = solves[0][2][1]
    if edge == "h=0":  # Y reaches 0 at the event root, which is M_inf
        assert root is not None and root == m_inf < 1.0
    else:  # no root: the trace runs to the span's end, M_inf = 1
        assert root is None and m_inf == 1.0


def test_frontier_makes_one_dense_pass(monkeypatch):
    # The event root evaluates its step's quartic in floats, so the only
    # dense output is the one over the samples.
    calls = []
    real = ode._dense

    def counting(steps, t):
        calls.append(len(t))
        return real(steps, t)

    monkeypatch.setattr(ode, "_dense", counting)
    monkeypatch.setattr(kernel, "_dense", counting)
    desc = build_kernel(MEDIUM_RATES, 0.5)
    assert calls == [desc.frontier_m.size]
