"""The Dormand-Prince 5(4) loop of `simulate` and of the frontier orbit.

It is scipy's RK45 step for step (same tableau, initial step, error norm
and step control) as a loop over Python floats, free of numpy overhead on
a two-element state; one numpy pass samples the steps' quartic dense output.
"""

import math

import numpy as np


class SimulationError(RuntimeError):
    """Integrator failure, carrying the time at which it occurred."""

    def __init__(self, message: str, at_time: float):
        super().__init__(f"{message} (t = {at_time})")
        self.at_time = at_time


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
    if not rtol >= 100 * np.finfo(float).eps:
        raise ValueError(f"rtol must be at least 100 * machine epsilon, got {rtol!r}")
    if not atol >= 0.0:
        raise ValueError(f"atol must be nonnegative, got {atol!r}")
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
            if not step >= min_step:  # also stops a NaN step
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
