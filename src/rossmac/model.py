"""Controlled Ross-Macdonald vector field, parameter reduction and equilibria.

The state is a pair (m, h) of proportions of infected mosquitoes and
infected humans in the unit square.  Fumigation enters as a mosquito
mortality rate u, bounded between the natural death rate and a maximal
spraying-induced rate.  The system is cooperative (quasi-monotone), which
yields a componentwise comparison oracle used throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _finite_nonneg(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


@dataclass(frozen=True)
class EpiParams:
    """Raw epidemiological parameters of the mosquito-human transmission cycle.

    alpha: biting rate per day.
    p_h:   probability a bite infects a susceptible human.
    p_m:   probability a susceptible mosquito is infected when biting.
    xi:    female mosquitoes per human.
    delta: natural mosquito death rate per day.
    gamma: human recovery rate per day.
    """

    alpha: float
    p_h: float
    p_m: float
    xi: float
    delta: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "p_h", "p_m", "xi", "delta", "gamma"):
            _finite_nonneg(name, getattr(self, name))
        for name in ("p_h", "p_m"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class ModelRates:
    """Reduced dynamical parameters plus fumigation control bounds.

    Only the products A_m = alpha*p_m and A_h = alpha*p_h*xi enter the
    dynamics; u_min equals the natural mosquito death rate when derived
    from raw parameters.
    """

    A_m: float
    A_h: float
    gamma: float
    u_min: float
    u_max: float

    def __post_init__(self) -> None:
        for name in ("A_m", "A_h", "gamma", "u_min", "u_max"):
            _finite_nonneg(name, getattr(self, name))
        if self.u_min > self.u_max:
            raise ValueError(
                f"control bounds must satisfy u_min <= u_max, "
                f"got [{self.u_min}, {self.u_max}]"
            )


@dataclass(frozen=True)
class State:
    """A point (m, h) in the unit square of infection proportions."""

    m: float
    h: float

    def __post_init__(self) -> None:
        for name in ("m", "h"):
            v = getattr(self, name)
            if not math.isfinite(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


def _reduce(alpha, p_h, p_m, xi, delta, gamma, u_max) -> ModelRates:
    """The rates A_m = alpha*p_m and A_h = alpha*p_h*xi, with u_min = delta.
    Raw values are not checked against EpiParams' ranges, so that the
    estimation functions in theta take any raw point."""
    return ModelRates(A_m=alpha * p_m, A_h=alpha * p_h * xi, gamma=gamma, u_min=delta, u_max=u_max)


def derive_rates(params: EpiParams, u_max: float) -> ModelRates:
    """Reduce raw parameters to transmission rates and control bounds.

    The maximal fumigation mortality u_max cannot be weaker than the
    natural death rate delta.
    """
    if not math.isfinite(u_max) or u_max < params.delta:
        raise ValueError(
            f"u_max must be finite and >= delta ({params.delta}), got {u_max!r}"
        )
    return _reduce(params.alpha, params.p_h, params.p_m, params.xi, params.delta,
                   params.gamma, u_max)


def _check_control(u: float, rates: ModelRates) -> None:
    if not (rates.u_min <= u <= rates.u_max):
        raise ValueError(f"control {u!r} outside bounds [{rates.u_min}, {rates.u_max}]")


def vector_field(state: State, u: float, rates: ModelRates) -> tuple[float, float]:
    """Right-hand side (dm/dt, dh/dt) of the controlled system."""
    _check_control(u, rates)
    return g_m(state.m, state.h, u, rates), g_h(state.m, state.h, rates)


def g_m(m: float, h: float, u: float, rates: ModelRates) -> float:
    """Mosquito-side component of the vector field."""
    return rates.A_m * h * (1.0 - m) - u * m


def g_h(m: float, h: float, rates: ModelRates) -> float:
    """Human-side component of the vector field (control-free)."""
    return rates.A_h * m * (1.0 - h) - rates.gamma * h


def _endemic_h(rates: ModelRates, u):
    """The endemic h* = (A_h - gamma*u/A_m) / (A_h + gamma) under constant
    fumigation u, a float or an array; at u = u_max it is the lower
    threshold on the cap, and it may be nonpositive."""
    return (rates.A_h - rates.gamma * u / rates.A_m) / (rates.A_h + rates.gamma)


def endemic_equilibrium(rates: ModelRates, u_const: float) -> State | None:
    """Closed-form endemic equilibrium under constant fumigation u_const.

    Exists (and is globally asymptotically stable) when
    A_m*A_h - gamma*u_const > 0; the boundary case is treated as
    nonexistence since the formula then degenerates to the origin.
    """
    _check_control(u_const, rates)
    if rates.A_m * rates.A_h - rates.gamma * u_const <= 0.0:
        return None
    m_star = (rates.A_m - rates.gamma * u_const / rates.A_h) / (rates.A_m + u_const)
    return State(m=m_star, h=_endemic_h(rates, u_const))


def check_dominance(traj_low, traj_high, tol: float) -> bool:
    """Componentwise comparison of two trajectories on a shared time grid.

    traj_low is expected to be generated with maximal fumigation from a
    componentwise-smaller start; the cooperative structure of the field
    then guarantees it stays below traj_high, up to integrator error.
    """
    if len(traj_low.t) != len(traj_high.t) or not np.allclose(
        traj_low.t, traj_high.t, rtol=0.0, atol=1e-12
    ):
        raise ValueError("trajectories do not share a time grid")
    return bool(
        np.all(traj_low.m <= traj_high.m + tol)
        and np.all(traj_low.h <= traj_high.h + tol)
    )
