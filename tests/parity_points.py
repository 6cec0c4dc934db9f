"""Hard inputs for the one-point paths of the kernel queries and the
feedback law, and the bitwise check of a float call against the array call.

A point of two finite floats is answered in plain Python; every other input
goes through numpy.  The two paths must agree to the bit, so these points
sit where rounding or ties could part them.
"""

import math

import numpy as np


def hard_points(k) -> list[tuple[float, float]]:
    """The frontier vertices, the cap-curve joint, points equidistant from
    two adjacent segments, deep points near the origin, points beyond M_inf,
    left of 0 and above 1, and non-finite ones, for the medium kernel k."""
    xs = np.concatenate(([0.0], k.frontier_m))
    ys = np.concatenate(([k.H_bar], k.frontier_y))
    points = list(zip(xs.tolist(), ys.tolist()))
    points.append((k.M_bar, k.H_bar))
    # On the bisector of the angle at an inner vertex, both sides of it.
    for i in range(1, xs.size - 1, max(1, xs.size // 12)):
        v = np.array([xs[i], ys[i]])
        a, b = np.array([xs[i - 1], ys[i - 1]]) - v, np.array([xs[i + 1], ys[i + 1]]) - v
        n = a / np.hypot(*a) + b / np.hypot(*b)
        n /= np.hypot(*n)
        points += [tuple((v + s * n).tolist()) for s in (-1e-2, -1e-6, -1e-12, 1e-12, 1e-6, 1e-2)]
    points += [(0.0, 0.0), (5e-324, 0.0), (0.0, 1e-12), (1e-3, 1e-3), (1e-6, 2e-6)]
    points += [(k.M_inf + 1e-12, 0.0), (k.M_inf, 1e-12), (1.5 * k.M_inf, 0.1), (2.0, 0.5), (1e6, -1e6)]
    points += [(-1e-12, k.H_bar), (-1e-12, 0.2), (-0.5, 0.6), (-1e6, 1e6)]
    points += [(0.2, 1.5), (0.5, 1.0 + 1e-12), (k.M_bar, 2.0)]
    inf, nan = math.inf, math.nan
    points += [(nan, 0.1), (0.1, nan), (nan, nan), (inf, 0.1), (-inf, 0.1), (0.1, inf),
               (0.1, -inf), (inf, inf), (-inf, -inf)]
    return points


def same_bits(a, b) -> bool:
    """Whether a and b, floats or booleans, hold the same float64 bits."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
