"""Viability-kernel regime classification, frontier curve and queries.

Three regimes arise depending on the cap H_bar on infected humans:

  low    -- the kernel reduces to the origin,
  high   -- the whole constraint box [0,1] x [0,H_bar] is strongly invariant,
  medium -- the kernel is a strict subset whose upper-right frontier is the
            graph of a strictly decreasing curve Y(m): the orbit under
            maximal fumigation that arrives at (M_bar, H_bar), traced as
            the boundary ODE Y' = g_h / g_m, integrated in m from that
            point on the Dormand-Prince loop that also runs `simulate`
            (`rossmac.ode`).

The frontier is held as one polyline, the flat cap over [0, M_bar] joined
with the sampled curve, which answers membership, height and distance
queries alike.  One record holds its columns: the vertices xs, ys and -ys
and the segments' dx, dy, ux and uy, as arrays and as lists.

Membership and distance take arrays, broadcast over all segments, or one
point of two finite floats, answered in plain Python with the same
arithmetic per segment and so the same bits.  For one point the distance
reads only the segments that can be nearest.  Along the polyline x rises
and y falls, so segment i lies in the box [x_i, x_(i+1)] x [y_(i+1), y_i],
and its distance from (m, h) is at least the box's gap in the max norm,
max(x_i - m, m - x_(i+1), y_(i+1) - h, h - y_i).  The segments under m and
at height h give an upper bound b on the distance; the segments whose gap
is at most b form one run of indices, found by bisection, as both x and y
are monotone.  That run is scanned in Python whatever its length: a deep
point, which sees much of the curve about equally far, scans a long one.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from rossmac.model import ModelRates, State, _endemic_h, g_h, g_m
from rossmac.ode import _MAX_SAMPLES, SimulationError, _dense, _dopri


# Points per block of frontier_distance: a block's (points x segments)
# temporaries stay small whatever the number of points.  Blocks of 256
# measured slower than 64 on a 2001-point grid, each temporary then
# being some 200 KiB.
_DISTANCE_BLOCK = 64

# Integrator tolerances of the frontier trace in m.  Against the
# time-reversed orbit's exit they end it 4.0e-12 off on the Cali baseline,
# 2.75e-10 on the cell u_max = 0.0127... that leaves through m = 1 (where
# rtol = 1e-9 misses by 2.3e-8) and 5.2e-10 on the worst known such cell.
# Within 1e-8 above the lower threshold, where (M_bar, H_bar) lies near the
# node and the quotient starts as 0 over a tiny negative g_m, the end
# misses by up to 3.2e-9 (u_max = 0.0099..., H_bar = lower + 1e-8).
_FRONTIER_RTOL = 1e-11
_FRONTIER_ATOL = 1e-12

# Default spacing in m of the frontier samples.
DEFAULT_STEP = 1e-3


class Regime(enum.Enum):
    LOW = "low"
    HIGH = "high"
    MEDIUM = "medium"


def _is_point(m, h) -> bool:
    """Whether (m, h) is one point of two finite floats (np.float64
    included), which the queries answer without numpy."""
    return isinstance(m, float) and isinstance(h, float) and math.isfinite(m) and math.isfinite(h)


def _check_cap(H_bar: float) -> None:
    if not 0.0 < H_bar < 1.0:
        raise ValueError(f"H_bar must lie in (0, 1), got {H_bar!r}")


class FrontierIntegrationError(RuntimeError):
    """The frontier cannot be traced from (M_bar, H_bar): it does not start
    towards larger m (g_m >= 0 there under u_max), or the integrator
    failed."""


def regime_thresholds(rates: ModelRates, u_max: float | None = None) -> tuple[float, float]:
    """(lower, upper) thresholds on H_bar separating the three regimes.

    lower = (A_h - gamma*u_max/A_m) / (A_h + gamma), the endemic h* under
    u_max, may be nonpositive; upper = A_h / (A_h + gamma).
    """
    if rates.A_m == 0.0:
        raise ValueError("threshold undefined: A_m = 0")
    lower = _endemic_h(rates, rates.u_max if u_max is None else u_max)
    return lower, rates.A_h / (rates.A_h + rates.gamma)


_REGIMES = (Regime.MEDIUM, Regime.LOW, Regime.HIGH)


def _regime_code(lower, upper, H):
    """The regime rule as an index into _REGIMES, on floats or broadcast
    arrays alike.  As lower <= upper, high and low never overlap."""
    return 2 * (H >= upper) + ((lower > 0.0) & (H < lower))


def _frontier_starts(rates: ModelRates, H_bar: float) -> bool:
    """Whether the frontier leaves (M_bar, H_bar) towards larger m: g_m < 0
    there under u_max.  It then only grows more negative as m rises and Y
    falls, so the quotient g_h / g_m stays regular along the trace."""
    return g_m(m_bar(rates, H_bar), H_bar, rates.u_max, rates) < 0.0


def _classify(rates: ModelRates, H_bar: float) -> tuple[Regime, bool]:
    """Regime of one cap, and whether it is a medium one outside the proven
    hypotheses: its lower threshold is nonpositive, or its frontier cannot
    start, as at H_bar = lower, where (M_bar, H_bar) is the u_max
    equilibrium and rounding can leave g_m >= 0."""
    _check_cap(H_bar)
    lower, upper = regime_thresholds(rates)
    regime = _REGIMES[_regime_code(lower, upper, H_bar)]
    medium = regime is Regime.MEDIUM
    return regime, medium and (lower <= 0.0 or not _frontier_starts(rates, H_bar))


def classify_regime(rates: ModelRates, H_bar: float) -> Regime:
    """Classify the viability-kernel regime for cap H_bar.

    When the lower threshold is nonpositive the strict-inequality
    hypothesis behind the medium characterization fails, but the kernel is
    still a strict subset with a frontier curve, so such caps below the
    upper threshold are classified medium (callers can flag them via
    outside_proven_hypotheses).
    """
    return _classify(rates, H_bar)[0]


def outside_proven_hypotheses(rates: ModelRates, H_bar: float) -> bool:
    """True when the medium classification falls outside the positivity
    hypothesis on the lower threshold, or its frontier cannot start."""
    return _classify(rates, H_bar)[1]


def m_bar(rates: ModelRates, H_bar: float) -> float:
    """Mosquito proportion on the line h = H_bar where dh/dt vanishes."""
    _check_cap(H_bar)
    if rates.A_h == 0.0:
        raise ValueError("m_bar undefined: A_h = 0")
    return rates.gamma * H_bar / (rates.A_h * (1.0 - H_bar))


@dataclass(frozen=True)
class KernelDescription:
    """Tagged description of the viability kernel for a given cap.

    For the medium regime the frontier curve is given as ascending-m
    samples (frontier_m, frontier_y) running from (M_bar, H_bar) to
    (M_inf, Y(M_inf)): M_bar and M_inf are read off the samples' ends, and
    the kernel holds the samples as read-only float copies.
    Queries read one polyline: the flat cap segment over [0, M_bar] joined
    with the chords between the samples.
    """

    regime: Regime
    H_bar: float
    frontier_m: np.ndarray | None = None
    frontier_y: np.ndarray | None = None
    outside_proven_hypotheses: bool = False
    M_bar: float | None = field(default=None, init=False)
    M_inf: float | None = field(default=None, init=False)
    # The polyline's columns (xs, ys, -ys, dx, dy, ux, uy): the vertices, and
    # per segment its run, its rise and these over its squared length.  Held
    # as arrays for the array queries and as lists for the one-point ones.
    _frontier: tuple[tuple[np.ndarray, ...], tuple[list, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _check_cap(self.H_bar)
        if self.regime is not Regime.MEDIUM:
            return
        # Copies that no caller can write keep the samples and the record
        # built from them in step.  A missing column becomes a 0-d NaN array,
        # which the shape check refuses.
        fm, fy = np.array(self.frontier_m, dtype=float), np.array(self.frontier_y, dtype=float)
        if fm.ndim != 1 or fm.shape != fy.shape or fm.size < 2:
            raise ValueError("frontier samples must be two 1-D arrays of one length >= 2")
        fm.flags.writeable = fy.flags.writeable = False
        object.__setattr__(self, "frontier_m", fm)
        object.__setattr__(self, "frontier_y", fy)
        object.__setattr__(self, "M_bar", float(fm[0]))
        object.__setattr__(self, "M_inf", float(fm[-1]))
        if not (self.M_bar < self.M_inf <= 1.0):
            raise ValueError("medium kernel requires M_bar < M_inf <= 1")
        if abs(fy[0] - self.H_bar) > 1e-12:
            raise ValueError("frontier must start at h = H_bar")
        if not np.all((fm >= 0.0) & (fm <= 1.0) & (fy >= 0.0) & (fy <= 1.0)):
            raise ValueError("frontier samples must lie in the unit square")
        if not (np.all(np.diff(fm) > 0.0) and np.all(np.diff(fy) < 0.0)):
            raise ValueError("frontier must be strictly decreasing in Y")
        xs, ys = np.concatenate(([0.0], fm)), np.concatenate(([self.H_bar], fy))
        dx, dy = np.diff(xs), np.diff(ys)
        seg2 = dx * dx + dy * dy
        seg2 = np.where(seg2 > 0.0, seg2, 1.0)
        columns = (xs, ys, -ys, dx, dy, dx / seg2, dy / seg2)
        object.__setattr__(self, "_frontier", (columns, tuple(a.tolist() for a in columns)))

    def frontier_value(self, m) -> np.ndarray:
        """Frontier height Y(m) read off the polyline; H_bar below M_bar
        and Y(M_inf) beyond M_inf."""
        if self._frontier is None:
            raise ValueError("frontier only defined for the medium regime")
        return np.interp(m, *self._frontier[0][:2])

    def contains(self, m, h) -> np.ndarray:
        """Whether points (m, h), scalars or arrays, lie in the closed kernel.

        Points with m <= M_bar, including small negative drift, are held
        to the cap alone; beyond M_inf nothing is inside, and neither is a
        point with an infinite or NaN coordinate.
        """
        if self._frontier is not None and _is_point(m, h):
            return self._point_contains(m, h)
        m, h = np.asarray(m, dtype=float), np.asarray(h, dtype=float)
        if self.regime is Regime.LOW:
            return (m == 0.0) & (h == 0.0)
        finite = np.isfinite(m) & np.isfinite(h)
        if self.regime is Regime.HIGH:
            return finite & (h <= self.H_bar)
        return finite & (m <= self.M_inf) & (h <= self.frontier_value(m))

    def frontier_distance(self, m, h) -> np.ndarray:
        """Euclidean distance from points (m, h), scalars or arrays, to the
        upper frontier polyline, whether or not they lie in the kernel: inf
        for a point with an infinite coordinate, NaN for one with a NaN."""
        if self._frontier is None:
            raise ValueError("distance to frontier is only defined for medium kernels")
        if _is_point(m, h):
            return self._point_distance(m, h)
        m, h = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(h, dtype=float))
        bad = ~(np.isfinite(m) & np.isfinite(h))
        pm, ph = np.where(bad, 0.0, m).reshape(-1, 1), np.where(bad, 0.0, h).reshape(-1, 1)
        out = np.empty(m.size)
        # Blocks of points bound the (points x segments) temporaries.
        for i in range(0, out.size, _DISTANCE_BLOCK):
            block = slice(i, i + _DISTANCE_BLOCK)
            out[block] = self._nearest(pm[block], ph[block])
        # |m| + |h| is inf or NaN exactly at the bad points; [()] keeps a 0-d
        # result a scalar.
        return np.where(bad, np.abs(m) + np.abs(h), out.reshape(m.shape))[()]

    def _nearest(self, m, h) -> np.ndarray:
        """Point-to-segment distance minimised over the segments, for arrays
        of points (m, h) given as columns, the segments running along the
        last axis.  Works in place on the offsets from the segment starts,
        in squares up to one square root after the minimum."""
        xs, ys, _, dx, dy, ux, uy = self._frontier[0]
        px, py = m - xs[:-1], h - ys[:-1]
        t = px * ux
        t += py * uy
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        px -= t * dx
        py -= t * dy
        px *= px
        py *= py
        px += py
        return np.sqrt(px.min(-1))

    def _point_contains(self, m: float, h: float) -> bool:
        """contains(m, h) for one point of two finite floats, to the bit: as
        np.interp does, the height is a vertex's at a vertex and beyond the
        ends, and between vertices uses the same slope, the quotient dy / dx."""
        xs, ys, _, dx, dy = self._frontier[1][:5]
        j = bisect_right(xs, m) - 1
        if j < 0 or j == len(dx) or xs[j] == m:
            return m <= self.M_inf and h <= ys[max(j, 0)]
        return h <= dy[j] / dx[j] * (m - xs[j]) + ys[j]

    def _point_distance(self, m: float, h: float) -> float:
        """_nearest for one point of two finite floats, over the run of
        segments whose boxes lie within an upper bound of its distance (see
        the module docstring)."""
        xs, ys, nys, dx, dy, ux, uy = self._frontier[1]
        n = len(dx)
        m, h = float(m), float(h)  # np.float64 arithmetic would be slower
        # Two passes share one loop, so that no segment costs a call: the
        # first reads the segments under m and at height h, which bound the
        # distance from above, and the second scans the run that bound leaves.
        best, run = math.inf, (min(max(bisect_right(xs, m) - 1, 0), n - 1),
                               min(max(bisect_left(nys, -h) - 1, 0), n - 1))
        for first in (True, False):
            for i in run:
                px, py = m - xs[i], h - ys[i]
                t = px * ux[i] + py * uy[i]
                t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                px -= t * dx[i]
                py -= t * dy[i]
                d2 = px * px + py * py
                if d2 < best:
                    best = d2
            if first:
                # The slack exceeds any rounding in the gaps and the distances,
                # so that no segment the array path could pick leaves the run.
                b = math.sqrt(best) * (1.0 + 1e-9) + 1e-12
                run = range(max(bisect_left(xs, m - b), bisect_left(nys, -h - b), 1) - 1,
                            min(bisect_right(xs, m + b), bisect_right(nys, b - h), n))
        return math.sqrt(best)


def boundary_curve(
    rates: ModelRates, H_bar: float, step: float = DEFAULT_STEP
) -> tuple[np.ndarray, np.ndarray]:
    """Trace the frontier as the u_max orbit arriving at (M_bar, H_bar).

    The orbit is the graph of Y over [M_bar, M_inf], and Y solves the
    boundary ODE Y'(m) = g_h / g_m under maximal fumigation, integrated in
    m from Y(M_bar) = H_bar towards m = 1.  Where Y reaches 0, that root is
    M_inf < 1; if it stays positive, M_inf = 1 and Y(1) ends the curve.
    The trace runs at the fixed rtol = 1e-11, atol = 1e-12, which end it
    within 1e-8 of the time-reversed orbit's exit on every known cell.  A
    looser rtol breaks that; a tighter one changes nothing visible, as the
    chords between samples sag by 1e-5 or more.
    Returns (m_samples, y_samples): samples at M_bar + k*step, with a last
    grid point crowding M_inf dropped, followed by M_inf itself, so that
    the samples' ends are M_bar and M_inf.  A step giving more than
    `_MAX_SAMPLES` samples over [M_bar, M_inf] is refused once the trace
    has found M_inf.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    mb = m_bar(rates, H_bar)
    if mb >= 1.0:
        raise ValueError("frontier start M_bar >= 1; cap is not in the medium regime")
    if not _frontier_starts(rates, H_bar):
        raise FrontierIntegrationError(
            "frontier does not start towards larger m; "
            "parameters violate the medium-regime hypotheses"
        )

    def rhs(s, m, y):  # the state (m, Y) along s = m
        return 1.0, g_h(m, y, rates) / g_m(m, y, rates.u_max, rates)

    def height(s, m, y):  # 0 where the frontier reaches h = 0
        return y

    rows: list[tuple] = []
    try:
        (_, y_one), m_zero = _dopri(rhs, mb, (mb, H_bar), 1.0, _FRONTIER_RTOL, _FRONTIER_ATOL,
                                    height, rows)
    except SimulationError as exc:
        raise FrontierIntegrationError(f"frontier integration failed: {exc}") from exc
    m_inf, y_end = (1.0, y_one) if m_zero is None else (m_zero, 0.0)
    if (m_inf - mb) / step > _MAX_SAMPLES:
        raise ValueError(f"step={step!r} gives more than {_MAX_SAMPLES} frontier samples "
                         f"over [M_bar, M_inf] = [{mb!r}, {m_inf!r}]")

    m_grid = np.arange(mb, m_inf, step)
    # Trim a last grid point crowding M_inf, but never the start M_bar.
    if m_grid.size > 1 and m_inf - m_grid[-1] < 0.25 * step:
        m_grid = m_grid[:-1]
    m_samples = np.append(m_grid, m_inf)
    # The dense output at the first step's start is its row's state, H_bar.
    y_samples = _dense(np.array(rows), m_samples)[1]
    y_samples[-1] = y_end
    # Integration noise can leave tiny out-of-range tail values near zero.
    y_samples = np.clip(y_samples, 0.0, H_bar)
    return m_samples, y_samples


def build_kernel(rates: ModelRates, H_bar: float, step: float = DEFAULT_STEP) -> KernelDescription:
    """Classify the regime and, for medium caps, compute the frontier by
    `boundary_curve`, sampled every `step` in m and traced at its fixed
    tolerances."""
    regime, outside = _classify(rates, H_bar)
    if regime is not Regime.MEDIUM:
        return KernelDescription(regime=regime, H_bar=H_bar)
    fm, fy = boundary_curve(rates, H_bar, step)
    return KernelDescription(
        regime=Regime.MEDIUM,
        H_bar=H_bar,
        frontier_m=fm,
        frontier_y=fy,
        outside_proven_hypotheses=outside,
    )


def kernel_membership(desc: KernelDescription, state: State) -> bool:
    """Whether a state belongs to the (closed) viability kernel."""
    return bool(desc.contains(state.m, state.h))


def distance_to_frontier(desc: KernelDescription, state: State) -> float:
    """Euclidean distance from a kernel state to the upper frontier.

    The frontier is the segment h = H_bar over [0, M_bar] joined with the
    sampled curve; the distance is the point-to-polyline minimum.
    """
    if not kernel_membership(desc, state):
        raise ValueError(f"state ({state.m}, {state.h}) lies outside the kernel")
    return float(desc.frontier_distance(state.m, state.h))


def regime_diagram(
    rates_base: ModelRates,
    u_grid,
    H_grid,
) -> list[list[Regime]]:
    """Regime per (u_max, H_bar) grid cell, row-major over H then u."""
    u, H = np.fromiter(u_grid, float), np.fromiter(H_grid, float)
    if u.size == 0 or H.size == 0:
        raise ValueError("u_grid and H_grid must be nonempty")
    if not np.all((H > 0.0) & (H < 1.0)):
        raise ValueError("every H_bar of the grid must lie in (0, 1)")
    if not np.all(np.isfinite(u) & (u >= 0.0)):
        raise ValueError("every u_max of the grid must be finite and nonnegative")
    lower, upper = regime_thresholds(rates_base, u)
    return np.array(_REGIMES, dtype=object)[_regime_code(lower, upper, H[:, None])].tolist()
