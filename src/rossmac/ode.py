"""The Dormand-Prince 5(4) loop of `simulate`, of the frontier trace and of
the fit, the library's only integrator.

It is scipy's RK45 step for step (same tableau, initial step, error norm
and step control) with the step unrolled over Python floats, free of numpy
overhead on a two-element state; one numpy pass samples the steps' quartic
dense output, and an event's root is bisected on one step's quartic,
evaluated by Horner's rule in floats.
"""

import math

import numpy as np


class SimulationError(RuntimeError):
    """Integrator failure, carrying the time at which it occurred."""

    def __init__(self, message: str, at_time: float):
        super().__init__(f"{message} (t = {at_time})")
        self.at_time = at_time


# Most samples of a dense output, which `simulate` (horizon / dt_out) and
# `boundary_curve` ((M_inf - M_bar) / step) refuse to exceed.  The dense
# output and the policy's control on the whole grid make the peak memory of
# `simulate` grow with the samples: about 60 MiB for 10^5 and 310 MiB for
# 10^6 (Python 3.11, numpy 2.4), so a tiny spacing is refused with its name
# instead of failing to allocate.
_MAX_SAMPLES = 10**6


# Dormand-Prince 5(4) as in scipy's RK45: row i of A weighs the earlier
# stages in the state of stage i (the last row is B, evaluated at the new
# state), and P is the dense-output matrix of Shampine (1986).  `_dopri`
# unrolls A and B, with the stage times and error weights of that tableau.
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
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
    changes sign, or None.  Needing more than 10^5 + 10 (t_end - t) accepted
    steps raises SimulationError: a stiff field, which holds the step near
    its stability limit, would otherwise run on for hours, while a 10^6-day
    run of the model takes some 8 * 10^4 steps."""
    if not rtol >= 100 * np.finfo(float).eps:
        raise ValueError(f"rtol must be at least 100 * machine epsilon, got {rtol!r}")
    if not atol >= 0.0:
        raise ValueError(f"atol must be nonnegative, got {atol!r}")
    m, h = y
    f = rhs(t, m, h)
    sm, sh = atol + abs(m) * rtol, atol + abs(h) * rtol
    d0, d1 = _rms(m / sm, h / sh), _rms(f[0] / sm, f[1] / sh)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    f1 = rhs(t + h0, m + h0 * f[0], h + h0 * f[1])
    d2 = _rms((f1[0] - f[0]) / sm, (f1[1] - f[1]) / sh) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2
    step = min(100 * h0, h1, t_end - t)
    g = event(t, m, h) if event else None
    k1m, k1h = f
    limit = len(steps) + 10**5 + 10 * (t_end - t)
    while t < t_end:
        if len(steps) >= limit:
            raise SimulationError("integration failed: too many steps", t)
        min_step = 10 * math.ulp(t)
        step, rejected = max(step, min_step), False
        while True:
            if not step >= min_step:  # also stops a NaN step
                raise SimulationError("integration failed: step size below its minimum", t)
            dt = min(t + step, t_end) - t
            # Each weighted sum starts at 0.0 and keeps the zeros of B and E,
            # so the step is the loop over the tableau's rows, bit for bit.
            k2m, k2h = rhs(t + 0.2 * dt, m + (0.0 + 1 / 5 * k1m) * dt,
                           h + (0.0 + 1 / 5 * k1h) * dt)
            k3m, k3h = rhs(t + 0.3 * dt, m + (0.0 + 3 / 40 * k1m + 9 / 40 * k2m) * dt,
                           h + (0.0 + 3 / 40 * k1h + 9 / 40 * k2h) * dt)
            k4m, k4h = rhs(t + 0.8 * dt,
                           m + (0.0 + 44 / 45 * k1m - 56 / 15 * k2m + 32 / 9 * k3m) * dt,
                           h + (0.0 + 44 / 45 * k1h - 56 / 15 * k2h + 32 / 9 * k3h) * dt)
            k5m, k5h = rhs(t + 8 / 9 * dt,
                           m + (0.0 + 19372 / 6561 * k1m - 25360 / 2187 * k2m
                                + 64448 / 6561 * k3m - 212 / 729 * k4m) * dt,
                           h + (0.0 + 19372 / 6561 * k1h - 25360 / 2187 * k2h
                                + 64448 / 6561 * k3h - 212 / 729 * k4h) * dt)
            k6m, k6h = rhs(t + dt,
                           m + (0.0 + 9017 / 3168 * k1m - 355 / 33 * k2m + 46732 / 5247 * k3m
                                + 49 / 176 * k4m - 5103 / 18656 * k5m) * dt,
                           h + (0.0 + 9017 / 3168 * k1h - 355 / 33 * k2h + 46732 / 5247 * k3h
                                + 49 / 176 * k4h - 5103 / 18656 * k5h) * dt)
            m_new = m + (0.0 + 35 / 384 * k1m + 0.0 * k2m + 500 / 1113 * k3m + 125 / 192 * k4m
                         - 2187 / 6784 * k5m + 11 / 84 * k6m) * dt
            h_new = h + (0.0 + 35 / 384 * k1h + 0.0 * k2h + 500 / 1113 * k3h + 125 / 192 * k4h
                         - 2187 / 6784 * k5h + 11 / 84 * k6h) * dt
            k7m, k7h = rhs(t + dt, m_new, h_new)
            em = (0.0 - 71 / 57600 * k1m + 0.0 * k2m + 71 / 16695 * k3m - 71 / 1920 * k4m
                  + 17253 / 339200 * k5m - 22 / 525 * k6m + 1 / 40 * k7m)
            eh = (0.0 - 71 / 57600 * k1h + 0.0 * k2h + 71 / 16695 * k3h - 71 / 1920 * k4h
                  + 17253 / 339200 * k5h - 22 / 525 * k6h + 1 / 40 * k7h)
            err = _rms(em * dt / (atol + max(abs(m), abs(m_new)) * rtol),
                       eh * dt / (atol + max(abs(h), abs(h_new)) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                step = dt * (min(1.0, factor) if rejected else factor)
                break
            step, rejected = dt * max(0.2, 0.9 * err ** -0.2), True
        steps.append((t, dt, m, h, k1m, k1h, k2m, k2h, k3m, k3h, k4m, k4h,
                      k5m, k5h, k6m, k6h, k7m, k7h))
        t, m, h, k1m, k1h = t + dt, m_new, h_new, k7m, k7h
        if event:
            g_new = event(t, m, h)
            if (g <= 0.0 <= g_new) or (g >= 0.0 >= g_new):
                return (m, h), _bisect(event, steps[-1], g)
            g = g_new
    return (m, h), None


def _dense(steps: np.ndarray, t: np.ndarray) -> np.ndarray:
    """State rows at times t from the quartic interpolants of the steps, given
    as rows (t, dt, y, stages) for a state y of any width d, such as (m, h);
    a time on a step boundary uses the earlier step."""
    d = (steps.shape[1] - 2) // 8
    i = np.maximum(steps[:, 0].searchsorted(t, side="left") - 1, 0)
    s = steps[i]
    q = s[:, 2 + d:].reshape(-1, 7, d).transpose(0, 2, 1) @ _P
    x = (t - s[:, 0]) / s[:, 1]
    powers = np.cumprod(np.repeat(x[:, None, None], 4, axis=1), axis=1)
    return (s[:, 1, None, None] * (q @ powers))[..., 0].T + s[:, 2:2 + d].T


def _bisect(event, step, g_lo) -> float:
    """Root of event(t, m, h) along one step's interpolant, to the last bit.
    The step's quartic coefficients come from one product against _P; each
    midpoint then evaluates them by Horner's rule in floats."""
    t0, dt, m0, h0 = step[:4]
    (a1, a2, a3, a4), (b1, b2, b3, b4) = (np.array(step[4:]).reshape(7, 2).T @ _P).tolist()
    lo, hi = t0, t0 + dt
    while g_lo != 0.0 and lo < (mid := 0.5 * (lo + hi)) < hi:
        x = (mid - t0) / dt
        g_mid = event(mid, dt * (x * (a1 + x * (a2 + x * (a3 + x * a4)))) + m0,
                      dt * (x * (b1 + x * (b2 + x * (b3 + x * b4)))) + h0)
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return lo if g_lo == 0.0 else hi
