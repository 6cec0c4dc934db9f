"""Viability-kernel regime classification, frontier curve and queries.

Three regimes arise depending on the cap H_bar on infected humans:

  low    -- the kernel reduces to the origin,
  high   -- the whole constraint box [0,1] x [0,H_bar] is strongly invariant,
  medium -- the kernel is a strict subset whose upper-right frontier is the
            graph of a strictly decreasing curve Y(m): the orbit under
            maximal fumigation that arrives at (M_bar, H_bar), traced by
            integrating backwards in time from that point on the
            Dormand-Prince loop that also runs `simulate` (`rossmac.ode`).

The frontier is held as one polyline, the flat cap over [0, M_bar] joined
with the sampled curve, which answers membership, height and distance
queries alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from rossmac.model import ModelRates, State, g_h, g_m
from rossmac.ode import SimulationError, _dense, _dopri


# Points per block of frontier_distance: a block's (points x segments)
# temporaries stay small whatever the number of points.
_DISTANCE_BLOCK = 64

# Backward time span allowed for the frontier orbit to leave the box.
_FRONTIER_HORIZON = 1e4


class Regime(enum.Enum):
    LOW = "low"
    HIGH = "high"
    MEDIUM = "medium"


class FrontierIntegrationError(RuntimeError):
    """The backward u_max orbit from (M_bar, H_bar) does not trace a
    frontier: it is not a graph over m, it stays in the box up to the time
    horizon, or the integrator failed."""


def regime_thresholds(rates: ModelRates, u_max: float | None = None) -> tuple[float, float]:
    """(lower, upper) thresholds on H_bar separating the three regimes.

    lower = (A_h - gamma*u_max/A_m) / (A_h + gamma), may be nonpositive;
    upper = A_h / (A_h + gamma).
    """
    if rates.A_m == 0.0:
        raise ValueError("threshold undefined: A_m = 0")
    u = rates.u_max if u_max is None else u_max
    denom = rates.A_h + rates.gamma
    lower = (rates.A_h - rates.gamma * u / rates.A_m) / denom
    upper = rates.A_h / denom
    return lower, upper


_REGIMES = (Regime.MEDIUM, Regime.LOW, Regime.HIGH)


def _regime_code(lower, upper, H):
    """The regime rule as an index into _REGIMES, on floats or broadcast
    arrays alike.  As lower <= upper, high and low never overlap."""
    return 2 * (H >= upper) + ((lower > 0.0) & (H < lower))


def _classify(rates: ModelRates, H_bar: float) -> tuple[Regime, float]:
    """Regime of one cap, with the lower threshold it was read from."""
    if not 0.0 < H_bar < 1.0:
        raise ValueError(f"H_bar must lie in (0, 1), got {H_bar!r}")
    lower, upper = regime_thresholds(rates)
    return _REGIMES[_regime_code(lower, upper, H_bar)], lower


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
    hypothesis on the lower threshold."""
    regime, lower = _classify(rates, H_bar)
    return regime is Regime.MEDIUM and lower <= 0.0


def m_bar(rates: ModelRates, H_bar: float) -> float:
    """Mosquito proportion on the line h = H_bar where dh/dt vanishes."""
    if not 0.0 < H_bar < 1.0:
        raise ValueError(f"H_bar must lie in (0, 1), got {H_bar!r}")
    if rates.A_h == 0.0:
        raise ValueError("m_bar undefined: A_h = 0")
    return rates.gamma * H_bar / (rates.A_h * (1.0 - H_bar))


@dataclass(frozen=True)
class KernelDescription:
    """Tagged description of the viability kernel for a given cap.

    For the medium regime the frontier curve is stored as ascending-m
    samples (frontier_m, frontier_y) running from (M_bar, H_bar) to
    (M_inf, Y(M_inf)).  Queries read one polyline: the flat cap segment
    over [0, M_bar] joined with the chords between the samples.
    """

    regime: Regime
    H_bar: float
    M_bar: float | None = None
    M_inf: float | None = None
    frontier_m: np.ndarray | None = None
    frontier_y: np.ndarray | None = None
    outside_proven_hypotheses: bool = False
    _polyline: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _segments: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.H_bar < 1.0:
            raise ValueError(f"H_bar must lie in (0, 1), got {self.H_bar!r}")
        if self.regime is not Regime.MEDIUM:
            return
        if self.frontier_m is None or self.frontier_y is None:
            raise ValueError("medium kernel requires frontier samples")
        fm, fy = self.frontier_m, self.frontier_y
        if not (self.M_bar < self.M_inf <= 1.0):
            raise ValueError("medium kernel requires M_bar < M_inf <= 1")
        if abs(fm[0] - self.M_bar) > 1e-12 or abs(fy[0] - self.H_bar) > 1e-12:
            raise ValueError("frontier must start at (M_bar, H_bar)")
        if np.any(np.diff(fm) <= 0.0) or np.any(np.diff(fy) >= 0.0):
            raise ValueError("frontier must be strictly decreasing in Y")
        if np.any(fm < 0.0) or np.any(fm > 1.0) or np.any(fy < 0.0) or np.any(fy > 1.0):
            raise ValueError("frontier samples must lie in the unit square")
        xs = np.concatenate(([0.0], fm))
        ys = np.concatenate(([self.H_bar], fy))
        dx, dy = np.diff(xs), np.diff(ys)
        seg2 = dx * dx + dy * dy
        seg2 = np.where(seg2 > 0.0, seg2, 1.0)
        object.__setattr__(self, "_polyline", (xs, ys))
        object.__setattr__(self, "_segments", (xs[:-1], ys[:-1], dx, dy, dx / seg2, dy / seg2))

    def frontier_value(self, m) -> np.ndarray:
        """Frontier height Y(m) read off the polyline; H_bar below M_bar
        and Y(M_inf) beyond M_inf."""
        if self._polyline is None:
            raise ValueError("frontier only defined for the medium regime")
        return np.interp(m, *self._polyline)

    def contains(self, m, h) -> np.ndarray:
        """Whether points (m, h), scalars or arrays, lie in the closed kernel.

        Points with m <= M_bar, including small negative drift, are held
        to the cap alone; beyond M_inf nothing is inside.
        """
        m, h = np.asarray(m, dtype=float), np.asarray(h, dtype=float)
        if self.regime is Regime.LOW:
            return (m == 0.0) & (h == 0.0)
        if self.regime is Regime.HIGH:
            return h <= self.H_bar
        return (m <= self.M_inf) & (h <= np.interp(m, *self._polyline))

    def frontier_distance(self, m, h) -> np.ndarray:
        """Euclidean distance from points (m, h), scalars or arrays, to the
        upper frontier polyline, whether or not they lie in the kernel."""
        if self._segments is None:
            raise ValueError("distance to frontier is only defined for medium kernels")
        ax, ay = self._segments[:2]
        m, h = np.asarray(m, dtype=float), np.asarray(h, dtype=float)
        points = np.broadcast(m, h)
        if points.size <= _DISTANCE_BLOCK:
            return self._nearest(m[..., None] - ax, h[..., None] - ay)
        px, py = (a.reshape(-1, 1) for a in np.broadcast_arrays(m, h))
        out = np.empty(points.size)
        # Blocks of points bound the (points x segments) temporaries.
        for i in range(0, out.size, _DISTANCE_BLOCK):
            block = slice(i, i + _DISTANCE_BLOCK)
            out[block] = self._nearest(px[block] - ax, py[block] - ay)
        return out.reshape(points.shape)

    def _nearest(self, px, py) -> np.ndarray:
        """Point-to-segment distance minimised over the segments, given the
        offsets (px, py) of points from the segment starts, which run along
        the last axis."""
        dx, dy, ux, uy = self._segments[2:]
        t = np.minimum(np.maximum(px * ux + py * uy, 0.0), 1.0)
        return np.hypot(px - t * dx, py - t * dy).min(-1)


def boundary_curve(
    rates: ModelRates,
    H_bar: float,
    step: float = 1e-3,
    rtol: float = 1e-11,
    atol: float = 1e-12,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Trace the frontier as the u_max orbit arriving at (M_bar, H_bar).

    The field (g_m, g_h) under maximal fumigation is integrated backwards
    in time from (M_bar, H_bar) until the orbit leaves the box through
    h = 0 (M_inf < 1) or m = 1 (M_inf = 1).  Along the way m must not
    decrease, so that the orbit is the graph of Y over [M_bar, M_inf].
    Returns (M_inf, m_samples, y_samples): samples at M_bar + k*step, with
    a last grid point crowding M_inf dropped, followed by M_inf itself.
    """
    if not step > 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    mb = m_bar(rates, H_bar)
    if mb >= 1.0:
        raise ValueError("frontier start M_bar >= 1; cap is not in the medium regime")
    # With g_m < 0 at the start, m increases and h decreases along the
    # whole backward orbit, so it leaves the box as a graph over m.
    if g_m(mb, H_bar, rates.u_max, rates) >= 0.0:
        raise FrontierIntegrationError(
            "backward orbit does not start towards larger m; "
            "parameters violate the medium-regime hypotheses"
        )

    def rhs(t, m, h):
        return -g_m(m, h, rates.u_max, rates), -g_h(m, h, rates)

    def inside(t, m, h):  # positive in the box, 0 where the orbit leaves it
        return min(h, 1.0 - m)

    rows: list[tuple] = []
    try:
        _, t_exit = _dopri(rhs, 0.0, (mb, H_bar), _FRONTIER_HORIZON, rtol, atol, inside, rows)
    except SimulationError as exc:
        raise FrontierIntegrationError(f"backward orbit integration failed: {exc}") from exc
    if t_exit is None:
        raise FrontierIntegrationError(
            f"backward orbit did not leave the box by t = {_FRONTIER_HORIZON}"
        )
    steps = np.array(rows)
    m_exit, h_exit = _dense(steps, np.array([t_exit]))[:, 0]
    t_steps = np.append(steps[:, 0], t_exit)
    m_steps = np.append(steps[:, 2], m_exit)
    # Steps may leave m unchanged at float resolution when the start lies
    # near the equilibrium (H_bar just above the lower threshold).
    if np.any(np.diff(m_steps) < 0.0):
        raise FrontierIntegrationError(
            "backward orbit is not a graph over m; "
            "parameters violate the medium-regime hypotheses"
        )
    if h_exit < 1.0 - m_exit:
        m_inf, y_end = float(m_exit), 0.0
    else:
        m_inf, y_end = 1.0, float(h_exit)

    m_grid = np.arange(mb, m_inf, step)
    # Trim a last grid point crowding M_inf, but never the start M_bar.
    if m_grid.size > 1 and m_inf - m_grid[-1] < 0.25 * step:
        m_grid = m_grid[:-1]
    m_samples = np.append(m_grid, m_inf)
    # Times at which the orbit crosses each sample m: interpolate over the
    # solver steps, then refine with Newton on the dense output, where
    # dm/dt = -g_m and dh/dt = -g_h along the reversed orbit.  The last
    # time correction is carried to h to first order instead of evaluated.
    t = np.interp(m_samples, m_steps, t_steps)
    for _ in range(3):
        m, h = _dense(steps, t)
        dt = (m - m_samples) / g_m(m, h, rates.u_max, rates)
        t += dt
    y_samples = h - g_h(m, h, rates) * dt
    y_samples[0] = H_bar
    y_samples[-1] = y_end
    # Integration noise can leave tiny out-of-range tail values near zero.
    y_samples = np.clip(y_samples, 0.0, H_bar)
    return m_inf, m_samples, y_samples


def build_kernel(
    rates: ModelRates,
    H_bar: float,
    step: float = 1e-3,
    rtol: float = 1e-11,
    atol: float = 1e-12,
) -> KernelDescription:
    """Classify the regime and, for medium caps, compute the frontier."""
    regime, lower = _classify(rates, H_bar)
    if regime is not Regime.MEDIUM:
        return KernelDescription(regime=regime, H_bar=H_bar)
    m_inf, fm, fy = boundary_curve(rates, H_bar, step=step, rtol=rtol, atol=atol)
    return KernelDescription(
        regime=Regime.MEDIUM,
        H_bar=H_bar,
        M_bar=float(fm[0]),
        M_inf=m_inf,
        frontier_m=fm,
        frontier_y=fy,
        outside_proven_hypotheses=lower <= 0.0,
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
        raise ValueError("grids must be nonempty")
    if not np.all((H > 0.0) & (H < 1.0)):
        raise ValueError("every H_bar of the grid must lie in (0, 1)")
    if not np.all(np.isfinite(u) & (u >= 0.0)):
        raise ValueError("every u_max of the grid must be finite and nonnegative")
    lower, upper = regime_thresholds(rates_base, u)
    return np.array(_REGIMES, dtype=object)[_regime_code(lower, upper, H[:, None])].tolist()
