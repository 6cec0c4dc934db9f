"""The Dormand-Prince 5(4) step of `rossmac.ode._dopri` as a loop over the
rows of its tableau: the form the library unrolls, kept as an oracle for
the step rows, which must agree with it bit for bit.
"""

import math

from rossmac.ode import SimulationError, _bisect

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


def _rms(a: float, b: float) -> float:
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def loop_dopri(rhs, t, y, t_end, rtol, atol, event, steps):
    """`_dopri` with each stage and the error built by a loop over K."""
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
            if not step >= min_step:
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
