"""Test-side oracles for the medium-regime frontier.

The frontier Y(m) is an orbit of the field (g_m, g_h) under maximal
fumigation that arrives at (M_bar, H_bar).  Integrating that field
backwards in time from (M_bar, H_bar) traces the frontier, and the point
where the orbit leaves the box [0, 1] x [0, H_bar] gives the frontier's
end (M_inf, Y(M_inf)).  The library does not integrate in time, so this
is the independent oracle.  `boundary_ode_values` integrates the boundary
ODE Y'(m) = g_h / g_m forward in m from (M_bar, H_bar), which is the
library's own formulation: it checks the samples in between for
consistency with scipy's RK45, not independently.

Membership is checked in forward time alone by `least_cap`, the lowest cap
that fumigation up to u_max holds from a state: the kernel for H_bar is
the set where it is at most H_bar.
"""

from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from rossmac.model import ModelRates, g_h, g_m


class OrbitExit(NamedTuple):
    m: float
    h: float
    edge: str  # "h=0" or "m=1"


HORIZON = 1e4  # the test instances leave the box by t = 19


def reversed_orbit_exit(rates: ModelRates, M_bar: float, H_bar: float) -> OrbitExit:
    """Where the backward orbit from (M_bar, H_bar) under u_max leaves the box."""

    def rhs(t, y):
        m, h = y
        return [-g_m(m, h, rates.u_max, rates), -g_h(m, h, rates)]

    def h_zero(t, y):
        return y[1]

    h_zero.terminal = True
    h_zero.direction = -1

    def m_one(t, y):
        return y[0] - 1.0

    m_one.terminal = True
    m_one.direction = 1

    sol = solve_ivp(rhs, (0.0, HORIZON), [M_bar, H_bar], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=(h_zero, m_one))
    for edge, points in zip(("h=0", "m=1"), sol.y_events):
        if points.size:
            return OrbitExit(float(points[0][0]), float(points[0][1]), edge)
    raise RuntimeError(f"reversed orbit stayed in the box up to t={HORIZON}: {sol.message}")


def boundary_ode_values(rates: ModelRates, M_bar: float, H_bar: float, m) -> np.ndarray:
    """Y at ascending m from the boundary ODE in m under u_max.

    The quotient is 0/negative at the start (M_bar, H_bar); the integration
    stops where Y reaches zero or m reaches 1.
    """

    def rhs(x, y):
        return [g_h(x, y[0], rates) / g_m(x, y[0], rates.u_max, rates)]

    def y_zero(x, y):
        return y[0]

    y_zero.terminal = True
    y_zero.direction = -1

    sol = solve_ivp(rhs, (M_bar, 1.0), [H_bar], method="RK45", rtol=1e-12, atol=1e-12,
                    events=y_zero, dense_output=True)
    if sol.status == -1:
        raise RuntimeError(f"boundary ODE failed: {sol.message}")
    return sol.sol(np.asarray(m, dtype=float))[0]


def least_cap(rates: ModelRates, m: float, h: float) -> float:
    """The supremum of h along the forward u_max orbit from (m, h).

    The system is cooperative, so dh/dt changes sign at most once along an
    orbit: the supremum is the larger of h, the peak where g_h crosses 0
    downwards, and the u_max endemic level max(lower, 0) the orbit tends to.
    """

    def rhs(t, y):
        return [g_m(y[0], y[1], rates.u_max, rates), g_h(y[0], y[1], rates)]

    def peak(t, y):
        return g_h(y[0], y[1], rates)

    peak.terminal = True
    peak.direction = -1

    sol = solve_ivp(rhs, (0.0, HORIZON), [m, h], method="DOP853", rtol=1e-10, atol=1e-12,
                    events=peak)
    if sol.status == -1:
        raise RuntimeError(f"forward orbit failed: {sol.message}")
    top = sol.y_events[0][0][1] if sol.y_events[0].size else h
    lower = (rates.A_h - rates.gamma * rates.u_max / rates.A_m) / (rates.A_h + rates.gamma)
    return max(h, top, lower, 0.0)
