"""The benchmark's own oracles for the controlled Ross-Macdonald model.

Nothing here imports `rossmac`: the field is written out again from the
paper,

    dm/dt = A_m h (1 - m) - u m
    dh/dt = A_h m (1 - h) - gamma h,

and every reference value is computed from it by a different route than the
library takes:

* the kernel frontier is traced as a backward orbit in time under u_max from
  (M_bar, H_bar), not as the boundary ODE in m;
* the endemic equilibrium is a root of the field found by bracketing, not the
  closed form;
* the regime follows from that equilibrium and from the sign of dh/dt along
  the cap h = H_bar (the h-nullcline test);
* synthetic outbreaks integrate the field and round it to daily case counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from field import CALI, CALI_THETA, FIT_GAMMA, MOSQUITO_INIT_FACTOR, Rates, cap_corner, field


ORBIT_M_INF_BASELINE = 0.4278696  # self-check value on CALI, H_bar = 0.5
ORBIT_SAMPLES = 4001  # dense samples kept along each orbit


@dataclass(frozen=True)
class Orbit:
    """Backward orbit from (M_bar, H_bar) under u_max, up to where it leaves
    the box through h = 0 or m = 1."""

    m_exit: float
    h_exit: float
    edge: str  # "h=0" or "m=1"
    m: np.ndarray  # dense samples along the orbit, m increasing
    h: np.ndarray

    def height(self, m) -> np.ndarray:
        """Frontier height at m, interpolated along the orbit."""
        return np.interp(m, self.m, self.h)


def backward_orbit(r: Rates, H_bar: float) -> Orbit:
    mb = cap_corner(r, H_bar)
    if not 0.0 < mb < 1.0:
        raise ValueError(f"no frontier: M_bar = {mb}")

    def rhs(t, y):
        gm, gh = field(y[0], y[1], r.u_max, r)
        return [-gm, -gh]

    def h_zero(t, y):
        return y[1]

    def m_one(t, y):
        return y[0] - 1.0

    h_zero.terminal = m_one.terminal = True
    h_zero.direction, m_one.direction = -1, 1
    sol = solve_ivp(rhs, (0.0, 1e4), [mb, H_bar], method="DOP853", rtol=1e-12,
                    atol=1e-14, events=(h_zero, m_one), dense_output=True)
    for edge, pts, ts in zip(("h=0", "m=1"), sol.y_events, sol.t_events):
        if pts.size:
            t_end = float(ts[0])
            m_exit, h_exit = float(pts[0][0]), float(pts[0][1])
            break
    else:
        raise RuntimeError(f"backward orbit stayed in the box: {sol.message}")
    m, h = sol.sol(np.linspace(0.0, t_end, ORBIT_SAMPLES))
    m[0], h[0], m[-1], h[-1] = mb, H_bar, m_exit, h_exit
    if np.any(np.diff(m) <= 0.0):
        raise RuntimeError("backward orbit is not a graph over m")
    return Orbit(m_exit, h_exit, edge, m, h)


def frontier_distance(orbit: Orbit, H_bar: float, m: float, h: float) -> float:
    """Euclidean distance from (m, h) to the kernel's upper edge: the cap
    segment from (0, H_bar) to (M_bar, H_bar), then the orbit."""
    xs = np.concatenate(([0.0], orbit.m))
    ys = np.concatenate(([H_bar], orbit.h))
    dx, dy = np.diff(xs), np.diff(ys)
    s = np.clip(((m - xs[:-1]) * dx + (h - ys[:-1]) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return float(np.hypot(xs[:-1] + s * dx - m, ys[:-1] + s * dy - h).min())


def endemic_h(r: Rates, u: float) -> float | None:
    """Positive root h* of the field at rest under constant control u.

    At rest m = A_m h / (A_m h + u); substituting into dh/dt = 0 leaves one
    scalar equation in h, bracketed on (0, 1).  None when only the origin is
    an equilibrium.
    """

    def rest(h):
        m = r.A_m * h / (r.A_m * h + u)
        return r.A_h * m * (1.0 - h) - r.gamma * h

    lo = 1e-12
    if rest(lo) <= 0.0:
        return None
    return brentq(rest, lo, 1.0, xtol=1e-15, rtol=1e-15)


def regime(r: Rates, H_bar: float, h_star: float | None = None) -> tuple[str, float]:
    """(regime, margin): 'high' when dh/dt <= 0 along the whole cap (the
    nullcline meets h = H_bar at m >= 1), 'low' when the equilibrium under
    u_max lies above the cap, else 'medium'.  The margin is the distance of
    H_bar from the nearer of the two deciding values.  `h_star` may pass in
    endemic_h(r, r.u_max) when it is already known."""
    h_corner = r.A_h / (r.A_h + r.gamma)  # dh/dt = 0 at m = 1
    if h_star is None:
        h_star = endemic_h(r, r.u_max)
    margins = [abs(H_bar - h_corner)] + ([] if h_star is None else [abs(H_bar - h_star)])
    margin = min(margins)
    if H_bar >= h_corner:
        return "high", margin
    if h_star is not None and H_bar < h_star:
        return "low", margin
    return "medium", margin


def outbreak_prevalence(theta, h0: float, days: int) -> np.ndarray:
    """Model prevalence h(0..days) for raw parameters (alpha, p_h, p_m, xi,
    delta), started at (3 h0, h0)."""
    alpha, p_h, p_m, xi, delta = theta
    r = Rates(alpha * p_m, alpha * p_h * xi, FIT_GAMMA, delta, delta)
    t = np.arange(days + 1, dtype=float)
    sol = solve_ivp(lambda t, y: field(y[0], y[1], delta, r), (0.0, float(days)),
                    [MOSQUITO_INIT_FACTOR * h0, h0], method="DOP853", rtol=1e-12,
                    atol=1e-14, t_eval=t)
    return sol.y[1]


def synthetic_cases(theta, h0: float, days: int, population: int) -> np.ndarray:
    """Integer daily case counts whose geometric-recovery prevalence follows
    the model, rounded day by day."""
    target = outbreak_prevalence(theta, h0, days) * population
    cases = np.empty(days + 1)
    running = cases[0] = round(target[0])
    for j in range(1, days + 1):
        cases[j] = max(0.0, round(target[j] - running * (1.0 - FIT_GAMMA)))
        running = running * (1.0 - FIT_GAMMA) + cases[j]
    return cases


def self_check() -> None:
    """Each oracle on the baseline instance, against what it must give."""
    orbit = backward_orbit(CALI, 0.5)
    if orbit.edge != "h=0" or abs(orbit.m_exit - ORBIT_M_INF_BASELINE) > 1e-6:
        raise RuntimeError(f"orbit self-check: exit {orbit.m_exit} via {orbit.edge}")
    h_star = endemic_h(CALI, CALI.u_max)
    m_star = CALI.A_m * h_star / (CALI.A_m * h_star + CALI.u_max)
    if max(abs(v) for v in field(m_star, h_star, CALI.u_max, CALI)) > 1e-14:
        raise RuntimeError("equilibrium self-check: field does not vanish")
    if endemic_h(CALI, CALI.A_m * CALI.A_h / CALI.gamma * 1.01) is not None:
        raise RuntimeError("equilibrium self-check: root past the threshold")
    population = 2_400_000
    cases = synthetic_cases(CALI_THETA, 1e-3, 60, population)
    prevalence = np.empty_like(cases)
    prevalence[0] = cases[0]
    for j in range(1, cases.size):
        prevalence[j] = prevalence[j - 1] * (1.0 - FIT_GAMMA) + cases[j]
    target = outbreak_prevalence(CALI_THETA, 1e-3, 60) * population
    if cases.min() < 0 or np.abs(prevalence - target).max() > 0.5:
        raise RuntimeError("generator self-check: counts do not follow the model")
