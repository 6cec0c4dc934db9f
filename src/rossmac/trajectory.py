"""Simulation of the controlled system under constant, piecewise-constant
and saturating-feedback fumigation policies, plus constraint auditing.

A policy is a pure map `control(t, m, h) -> u`.  It takes scalars or
arrays of one common shape and returns u of that shape, states the range
`u_range` of the rates it can emit, and exposes the viability `kernel` it
steers by (None for open-loop policies).  The feedback policy interpolates
between minimal and maximal fumigation according to the distance d to the
kernel frontier,

    u = (1 - exp(-d)) * u_min + exp(-d) * u_max,

and is evaluated continuously inside the integrator so the closed loop is
a smooth autonomous system.

`simulate` runs scipy's RK45 (Dormand-Prince 5(4): same tableau, initial
step, error norm and step control, so the same steps and `control` calls)
as a loop over Python floats, free of numpy overhead on a two-element
state; one numpy pass samples the steps' quartic dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rossmac.kernel import KernelDescription, Regime
from rossmac.model import ModelRates, State, g_h, g_m


class SimulationError(RuntimeError):
    """Integrator failure, carrying the time at which it occurred."""

    def __init__(self, message: str, at_time: float):
        super().__init__(f"{message} (t = {at_time})")
        self.at_time = at_time


@dataclass(frozen=True)
class ConstantControl:
    u: float
    kernel = None

    @property
    def u_range(self) -> tuple[float, float]:
        return self.u, self.u

    def control(self, t, m, h):
        return self.u + 0.0 * np.asarray(t)  # u, shaped like t

    def breakpoints_within(self, horizon: float) -> list[float]:
        return []


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
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "_times", times)
        # Indexed by searchsorted(times, t, "right"), which is 0 for t < 0.
        object.__setattr__(self, "_rates", np.concatenate((rates[:1], rates)))

    @property
    def u_range(self) -> tuple[float, float]:
        return float(self._rates.min()), float(self._rates.max())

    def control(self, t, m, h):
        return self._rates[self._times.searchsorted(t, side="right")]

    def breakpoints_within(self, horizon: float) -> list[float]:
        return [t for t, _ in self.schedule if 0.0 < t < horizon]


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
        d = self.kernel.frontier_distance(m, h) * self.kernel.contains(m, h)
        w = np.exp(-d)
        return np.minimum(np.maximum((1.0 - w) * self.u_min + w * self.u_max, self.u_min), self.u_max)

    def breakpoints_within(self, horizon: float) -> list[float]:
        return []


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped (t, m, h, u) samples of one simulation run."""

    t: np.ndarray
    m: np.ndarray
    h: np.ndarray
    u: np.ndarray
    dt_out: float
    left_kernel: bool = False

    def __post_init__(self) -> None:
        if np.any(np.diff(self.t) <= 0.0) or self.t[0] != 0.0:
            raise ValueError("sample times must increase strictly from 0")
        if not (np.all(np.isfinite(self.m)) and np.all(np.isfinite(self.h))):
            raise ValueError("non-finite state samples")

    def final_state(self) -> tuple[float, float]:
        return float(self.m[-1]), float(self.h[-1])


# Dormand-Prince 5(4) as in scipy's RK45: stage times, the stage rows of A
# (the last one is B, evaluated at the new state), error weights E, and the
# dense-output matrix P of Shampine (1986).
_C = (0.2, 0.3, 0.8, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _dopri(rhs, t, y, t_end, rtol, atol, event, steps):
    """Integrate rhs(t, m, h) -> (dm, dh) from state y at t to t_end, adding
    each accepted step to `steps` as a row (t, dt, m, h, stages).  Returns
    the last state and the root of `event` on the first step over which it
    changes sign, or None."""
    f = rhs(t, *y)
    sm, sh = atol + abs(y[0]) * rtol, atol + abs(y[1]) * rtol
    d0, d1 = _rms(y[0] / sm, y[1] / sh), _rms(f[0] / sm, f[1] / sh)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    f1 = rhs(t + h0, y[0] + h0 * f[0], y[1] + h0 * f[1])
    d2 = _rms((f1[0] - f[0]) / sm, (f1[1] - f[1]) / sh) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    step = min(100 * h0, h1, t_end - t)
    g = event(t, *y) if event else None
    while t < t_end:
        min_step = 10 * math.ulp(t)
        step, rejected = max(step, min_step), False
        while True:
            if step < min_step:
                raise SimulationError("integration failed: step size below its minimum", t)
            dt = min(t + step, t_end) - t
            K = [f]
            for c, a in zip(_C, _A):
                dm = dh = 0.0
                for aj, k in zip(a, K):
                    dm, dh = dm + aj * k[0], dh + aj * k[1]
                K.append(rhs(t + c * dt, y[0] + dm * dt, y[1] + dh * dt))
            y_new = (y[0] + dm * dt, y[1] + dh * dt)
            em = eh = 0.0
            for ej, k in zip(_E, K):
                em, eh = em + ej * k[0], eh + ej * k[1]
            err = _rms(em * dt / (atol + max(abs(y[0]), abs(y_new[0])) * rtol),
                       eh * dt / (atol + max(abs(y[1]), abs(y_new[1])) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                step = dt * (min(1.0, factor) if rejected else factor)
                break
            step, rejected = dt * max(0.2, 0.9 * err ** -0.2), True
        steps.append((t, dt, *y, *(v for k in K for v in k)))
        t, y, f = t + dt, y_new, K[-1]
        if event:
            g_new = event(t, *y)
            if (g <= 0.0 <= g_new) or (g >= 0.0 >= g_new):
                return y, _bisect(event, steps[-1], g)
            g = g_new
    return y, None


def _dense(steps: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(m, h) rows at sorted times t from the quartic interpolants of the
    steps; a time on a step boundary uses the earlier step."""
    i = np.maximum(steps[:, 0].searchsorted(t, side="left") - 1, 0)
    s = steps[i]
    q = s[:, 4:].reshape(-1, 7, 2).transpose(0, 2, 1) @ _P
    x = (t - s[:, 0]) / s[:, 1]
    powers = np.cumprod(np.repeat(x[:, None, None], 4, axis=1), axis=1)
    return (s[:, 1, None, None] * (q @ powers))[..., 0].T + s[:, 2:4].T


def _bisect(event, step, g_lo) -> float:
    """Root of event(t, m, h) along one step's interpolant, to the last bit."""
    row = np.array([step])
    lo, hi = step[0], step[0] + step[1]
    while g_lo != 0.0 and lo < (mid := 0.5 * (lo + hi)) < hi:
        g_mid = event(mid, *_dense(row, np.array([mid]))[:, 0])
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return lo if g_lo == 0.0 else hi


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

    `stop_event(t, m, h)` may end the run early at its root: a sign change
    between accepted steps stops the run, as scipy's terminal events do,
    and the final sample then sits at the event time instead of the horizon.
    """
    if horizon <= 0.0 or dt_out <= 0.0:
        raise ValueError("horizon and dt_out must be positive")
    if not rtol >= 100 * np.finfo(float).eps:
        raise ValueError(f"rtol must be at least 100 * machine epsilon, got {rtol!r}")
    if not atol >= 0.0:
        raise ValueError(f"atol must be nonnegative, got {atol!r}")
    lo, hi = policy.u_range
    if lo < rates.u_min or hi > rates.u_max:
        raise ValueError(
            f"policy emits controls in [{lo}, {hi}] outside [{rates.u_min}, {rates.u_max}]"
        )
    def rhs(t, m, h):
        u = float(policy.control(t, m, h))
        return g_m(m, h, u, rates), g_h(m, h, rates)

    grid = np.arange(0.0, horizon, dt_out)
    if horizon - grid[-1] > 1e-12 * max(1.0, horizon):
        grid = np.append(grid, horizon)
    else:
        grid[-1] = horizon

    # Piecewise-constant controls are integrated segment by segment so that
    # control discontinuities coincide with integrator restarts.
    cuts = [0.0] + policy.breakpoints_within(horizon) + [horizon]
    steps: list[tuple] = []
    y = (initial.m, initial.h)
    for a, b in zip(cuts, cuts[1:]):
        y, root = _dopri(rhs, a, y, b, rtol, atol, stop_event, steps)
        if root is not None:
            grid = np.append(grid[grid < root - 1e-15], root)
            break
    m, h = _dense(np.array(steps), grid)
    t = np.round(grid, 15)
    u = np.asarray(policy.control(t, m, h), dtype=float)
    left = policy.kernel is not None and not np.all(policy.kernel.contains(m, h))
    return Trajectory(t=t, m=m, h=h, u=u, dt_out=dt_out, left_kernel=left)


def audit_viability(traj: Trajectory, H_bar: float) -> float | None:
    """Earliest sample time with h > H_bar, or None if the cap holds."""
    over = np.nonzero(traj.h > H_bar)[0]
    if over.size == 0:
        return None
    return float(traj.t[over[0]])
