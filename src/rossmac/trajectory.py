"""Simulation of the controlled system under constant, piecewise-constant
and saturating-feedback fumigation policies, plus constraint auditing.

A policy is a pure map `control(t, m, h) -> u`.  It takes scalars or
arrays of one common shape and returns u of that shape, states the range
`u_range` of the rates it can emit, and exposes the viability `kernel` it
steers by (None for open-loop policies).  Its `pieces(horizon)` are the
spans (a, b, law) that `simulate` integrates one after another, each under
its own `law(t, m, h) -> u` up to and including b: a schedule's law is its
piece's rate, so a step ending on a breakpoint never reads the next rate.
The feedback policy, one piece under `control`, interpolates between
minimal and maximal fumigation according to the distance d to the kernel
frontier,

    u = (1 - exp(-d)) * u_min + exp(-d) * u_max,

and is evaluated continuously inside the integrator so the closed loop is
a smooth autonomous system.

`simulate` integrates with the Dormand-Prince 5(4) loop of `rossmac.ode`,
which takes scipy's RK45 steps and so makes the same law calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rossmac.kernel import KernelDescription, Regime, _check_cap, _is_point
from rossmac.model import ModelRates, State, _check_control, g_h, g_m
from rossmac.ode import (  # noqa: F401 (SimulationError re-exported)
    _MAX_SAMPLES, SimulationError, _dense, _dopri)


@dataclass(frozen=True)
class PiecewiseConstantControl:
    """Control defined by (time, rate) breakpoints; the rate of the latest
    breakpoint at or before t applies.  First breakpoint must be at t=0."""

    schedule: tuple[tuple[float, float], ...]
    kernel = None
    _times: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.schedule or self.schedule[0][0] != 0.0:
            raise ValueError("schedule must start with a breakpoint at t = 0")
        times, rates = (np.array(c, dtype=float) for c in zip(*self.schedule))
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "_times", times)
        # Indexed by searchsorted(times, t, "right"), which is 0 for t < 0.
        object.__setattr__(self, "_rates", np.concatenate((rates[:1], rates)))

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self._rates.min()), float(self._rates.max())

    def control(self, t, m, h):
        return self._rates[self._times.searchsorted(t, side="right")]

    def pieces(self, horizon: float) -> list[tuple]:
        times = [t for t in self._times.tolist() if t < horizon] + [horizon]
        return [(a, b, lambda t, m, h, u=u: u)
                for a, b, u in zip(times, times[1:], self._rates[1:].tolist())]


class ConstantControl(PiecewiseConstantControl):
    """Constant fumigation u: the one-piece schedule ((0, u),)."""

    def __init__(self, u: float):
        super().__init__(((0.0, u),))


class SaturatingFeedback:
    """State feedback saturating at u_max on the kernel frontier.

    States outside the kernel get u_max rather than an error, so that
    drift across the frontier does not stop an integration; `simulate`
    reports such states on `Trajectory.left_kernel`.
    """

    def __init__(self, kernel: KernelDescription, u_min: float, u_max: float):
        if kernel.regime is not Regime.MEDIUM:
            raise ValueError("saturating feedback requires a medium-regime kernel")
        if not 0.0 <= u_min <= u_max:
            raise ValueError("feedback needs 0 <= u_min <= u_max")
        self.kernel = kernel
        self.u_min = u_min
        self.u_max = u_max

    @property
    def u_range(self) -> tuple[float, float]:
        return self.u_min, self.u_max

    def control(self, t, m, h):
        # Outside the kernel d counts as 0, which gives u = u_max exactly.
        # One point of floats, checked once here, takes the kernel's
        # pure-Python point queries; np.exp (not math.exp, which can differ in
        # the last bit) keeps its u equal to the array call's.
        k, lo, hi = self.kernel, self.u_min, self.u_max
        if _is_point(m, h):
            w = float(np.exp(-(k._point_distance(m, h) if k._point_contains(m, h) else 0.0)))
            return min(max((1.0 - w) * lo + w * hi, lo), hi)
        w = np.exp(-np.where(k.contains(m, h), k.frontier_distance(m, h), 0.0))
        return np.minimum(np.maximum((1.0 - w) * lo + w * hi, lo), hi)

    def pieces(self, horizon: float) -> list[tuple]:
        return [(0.0, horizon, self.control)]


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped (t, m, h, u) samples of one simulation run."""

    t: np.ndarray
    m: np.ndarray
    h: np.ndarray
    u: np.ndarray
    left_kernel: bool = False

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.t) > 0.0) or self.t[0] != 0.0:
            raise ValueError("sample times must increase strictly from 0")
        if not (np.all(np.isfinite(self.m)) and np.all(np.isfinite(self.h))):
            raise ValueError("non-finite state samples")

    def final_state(self) -> tuple[float, float]:
        return float(self.m[-1]), float(self.h[-1])


def simulate(
    initial: State,
    policy,
    rates: ModelRates,
    horizon: float,
    dt_out: float = 0.1,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    stop_event=None,
) -> Trajectory:
    """Integrate the controlled system and resample on the dt_out grid.

    Each of `policy.pieces(horizon)` is integrated under its own law from
    where the last one ended; `policy.control` is called once, on the grid.

    `stop_event(t, m, h)` may end the run early at its root: a sign change
    between accepted steps stops the run, as scipy's terminal events do,
    and the final sample then sits at the event time instead of the horizon.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if not dt_out > 0.0:
        raise ValueError(f"dt_out must be positive, got {dt_out!r}")
    if horizon / dt_out > _MAX_SAMPLES:
        raise ValueError(f"dt_out={dt_out!r} gives more than {_MAX_SAMPLES} samples "
                         f"over horizon={horizon!r}")
    for u in policy.u_range:
        _check_control(u, rates)

    grid = np.arange(0.0, horizon, dt_out)
    if horizon - grid[-1] > 1e-12 * max(1.0, horizon):
        grid = np.append(grid, horizon)
    else:
        grid[-1] = horizon

    steps: list[tuple] = []
    y = (initial.m, initial.h)
    for a, b, law in policy.pieces(horizon):
        def rhs(t, m, h, law=law):
            return g_m(m, h, float(law(t, m, h)), rates), g_h(m, h, rates)

        y, root = _dopri(rhs, a, y, b, rtol, atol, stop_event, steps)
        if root is not None:
            grid = np.append(grid[grid < root - 1e-15], root)
            break
    m, h = _dense(np.array(steps), grid)
    t = np.round(grid, 15)
    u = np.asarray(policy.control(t, m, h), dtype=float)
    left = policy.kernel is not None and not np.all(policy.kernel.contains(m, h))
    return Trajectory(t=t, m=m, h=h, u=u, left_kernel=left)


def audit_viability(traj: Trajectory, H_bar: float) -> float | None:
    """Earliest sample time with h > H_bar, or None if the cap holds."""
    _check_cap(H_bar)
    over = np.nonzero(traj.h > H_bar)[0]
    if over.size == 0:
        return None
    return float(traj.t[over[0]])
