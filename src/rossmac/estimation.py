"""Incidence-to-prevalence conversion and constrained least-squares fitting
of the raw transmission parameters to daily prevalence data.

Daily new-case counts are turned into prevalence with the geometric-decay
recursion P_{j+1} = P_j*(1-gamma) + c_{j+1}, the discrete analogue of
exponential recovery at rate gamma.  The fit minimizes

    1/2 * sum_{j=1..D} (h(t_j; theta) - h_hat_j)^2

over theta = (alpha, p_h, p_m, xi, delta) inside box bounds, with the
mosquito state initialized as m(0) = 3*h_hat_0.  Only the reduced rates
A_m = alpha*p_m, A_h = alpha*p_h*xi and delta enter the dynamics, so only
those are identifiable and they are the primary deliverable of a fit.  The
sensitivities are taken in those rates; theta follows by the chain rule.
Every trajectory is integrated by the Dormand-Prince loop of `rossmac.ode` at
rtol=1e-10, atol=1e-12, and the sensitivities are carried through that
solve's own steps.  The fit makes one solve per trust-region point: its
residuals and Jacobian both read it.  Only `fit` imports scipy, for its
trust-region reflective solver.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from rossmac.model import EpiParams, ModelRates, _reduce, derive_rates, g_h, g_m
from rossmac.ode import _A, _dense, _dopri

# Admissible box for theta = (alpha, p_h, p_m, xi, delta) and the default
# starting point of the optimizer.
DEFAULT_BOUNDS = (
    (0.0, 5.0),     # alpha
    (0.0, 1.0),     # p_h
    (0.0, 1.0),     # p_m
    (1.0, 5.0),     # xi
    (1.0 / 30.0, 1.0 / 15.0),  # delta
)
DEFAULT_THETA0 = (1.0, 0.5, 0.5, 1.0, 0.035)
DEFAULT_GAMMA = 0.1
MOSQUITO_INIT_FACTOR = 3.0
FIT_WINDOW_DAYS = 60


class MalformedCSVError(ValueError):
    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.line = line


@dataclass(frozen=True)
class IncidenceSeries:
    """Daily new-case counts for a closed population."""

    days: np.ndarray
    new_cases: np.ndarray
    population: int

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError("population must be positive")
        if self.days.ndim != 1 or self.new_cases.shape != self.days.shape:
            raise ValueError("days and new_cases must be 1-D arrays of one length")
        if not np.all(self.new_cases >= 0):
            raise ValueError("case counts must be nonnegative")
        if self.days.size == 0 or np.any(np.diff(self.days) != 1) or self.days[0] != 0:
            raise ValueError("days must be contiguous integers from 0")


@dataclass(frozen=True)
class PrevalenceDataset:
    """Daily fractions of currently infected humans."""

    days: np.ndarray
    h_hat: np.ndarray

    def __post_init__(self) -> None:
        if self.days.ndim != 1 or self.h_hat.shape != self.days.shape:
            raise ValueError("days and h_hat must be 1-D arrays of one length")
        if self.days.size == 0 or self.days[0] != 0 or not np.all(np.diff(self.days) > 0):
            raise ValueError("observation days must start at 0 and increase strictly")
        if not np.all((self.h_hat >= 0.0) & (self.h_hat <= 1.0)):
            raise ValueError("prevalence fractions must lie in [0, 1]")


@dataclass(frozen=True)
class FitResult:
    theta_hat: EpiParams
    objective_value: float
    A_m: float
    A_h: float
    delta: float
    iterations: int
    converged: bool


def _check_gamma(gamma: float) -> None:
    """A recovery rate the prevalence recursion takes: gamma > 1 would make
    P*(1 - gamma) negative."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")


def incidence_to_prevalence(series: IncidenceSeries, gamma: float = DEFAULT_GAMMA) -> PrevalenceDataset:
    """Accumulate new cases into prevalence with geometric recovery."""
    _check_gamma(gamma)
    prevalence = np.empty(series.days.size)
    running = float(series.new_cases[0])
    prevalence[0] = running
    for j in range(1, series.days.size):
        running = running * (1.0 - gamma) + float(series.new_cases[j])
        prevalence[j] = running
    h_hat = prevalence / series.population
    over = np.flatnonzero(h_hat > 1.0)
    if over.size:
        raise ValueError(
            f"prevalence exceeds population={series.population} on day {series.days[over[0]]}"
        )
    return PrevalenceDataset(days=series.days.copy(), h_hat=h_hat)


def _theta_array(theta) -> np.ndarray:
    if isinstance(theta, EpiParams):
        return np.array([theta.alpha, theta.p_h, theta.p_m, theta.xi, theta.delta])
    return np.asarray(theta, dtype=float)


def _reduced_rates(theta: np.ndarray, gamma: float) -> ModelRates:
    """The reduced rates of theta (`model._reduce`, which also takes the
    optimizer's trial points with p_h or p_m above 1), with the mosquito
    death rate fixed at delta.  The rates are Python floats, on which the
    integrator's scalar steps run fastest."""
    th = theta.tolist()
    return _reduce(*th, gamma, th[-1])  # u_max = u_min = delta


def _reduced_rates_jacobian(theta: np.ndarray) -> np.ndarray:
    """The 3x5 derivative of (A_m, A_h, delta) in theta."""
    alpha, p_h, p_m, xi, _ = theta
    return np.array([[p_m, 0.0, alpha, 0.0, 0.0],
                     [p_h * xi, alpha * xi, 0.0, alpha * p_h, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 1.0]])


def _steps(rates: ModelRates, h0: float, t_end: float) -> np.ndarray:
    """The accepted steps of (m, h) from m(0) = 3*h0, h(0) = h0 to t_end
    (to 1 if t_end is 0), as rows of `ode._dense`."""
    def rhs(t, m, h):
        return g_m(m, h, rates.u_max, rates), g_h(m, h, rates)

    steps: list[tuple] = []
    _dopri(rhs, 0.0, (MOSQUITO_INIT_FACTOR * h0, h0), t_end if t_end > 0 else 1.0,
           1e-10, 1e-12, None, steps)
    return np.array(steps)


def simulate_h(theta, h0: float, t_eval: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Human prevalence h(t_j; theta) with m(0) = 3*h0."""
    rates = _reduced_rates(_theta_array(theta), gamma)
    return _dense(_steps(rates, h0, float(t_eval[-1])), t_eval)[1]


def _residuals(theta: np.ndarray, data: PrevalenceDataset, gamma: float) -> np.ndarray:
    t = data.days.astype(float)
    h = simulate_h(theta, float(data.h_hat[0]), t, gamma=gamma)
    return h[1:] - data.h_hat[1:]


def objective(theta, data: PrevalenceDataset, gamma: float = DEFAULT_GAMMA) -> float:
    """Half sum of squared prevalence misfits over days 1..D."""
    if data.days.size < 2:
        return 0.0
    try:
        r = _residuals(_theta_array(theta), data, gamma)
    except RuntimeError:
        return math.inf
    return 0.5 * float(r @ r)


def _sensitivity_system(theta: np.ndarray, h0: float, t_eval: np.ndarray, gamma: float):
    """h and dh/dtheta, shape (n_times, 5), at t_eval.  dh/dtheta is the exact
    derivative of the computed h: with its accepted steps held fixed, each
    step maps S = d(m, h)/dr, r = (A_m, A_h, delta), through its stages to
    Phi S + Psi (internal numerical differentiation, Bock 1981)."""
    rates = _reduced_rates(theta, gamma)
    A_m, A_h, delta = rates.A_m, rates.A_h, rates.u_max
    steps = _steps(rates, h0, float(t_eval[-1]))
    n = len(steps)
    dt = steps[:, 1, None, None]
    z = steps[:, None, 2:4] + dt * (_A @ steps[:, 4:].reshape(n, 7, 2))  # the stage states
    m, h = z[..., 0], z[..., 1]
    # Stage i's derivative dk_i/dr = M_i [S; I], from the derivative G_i [S; I]
    # of its state: M_i = Jz G_i + [0 | Jr], with G_i = [I | 0] + dt sum_j a_ij M_j.
    Jz = np.stack([-A_m * h - delta, A_m * (1.0 - m), A_h * (1.0 - h), -A_h * m - gamma], -1)
    zero = np.zeros_like(m)
    Jr = np.stack([h * (1.0 - m), zero, -m, zero, m * (1.0 - h), zero], -1)
    Jz, Jr = Jz.reshape(n, 7, 2, 2), Jr.reshape(n, 7, 2, 3)
    start = np.eye(2, 5)
    M = np.empty((n, 7, 2, 5))
    for i in range(7):
        G = start + dt * (_A[i, :i] @ M[:, :i].reshape(n, i, 10)).reshape(n, 2, 5)
        M[:, i] = Jz[:, i] @ G
        M[:, i, :, 2:] += Jr[:, i]
    # The last stage's state is the step's end, so G = [Phi | Psi] there.
    rows = [(0.0,) * 6]
    for (a, b, p, q, r), (c, d, u, v, w) in G[:-1].tolist():
        m1, m2, m3, h1, h2, h3 = rows[-1]
        rows.append((a * m1 + b * h1 + p, a * m2 + b * h2 + q, a * m3 + b * h3 + r,
                     c * m1 + d * h1 + u, c * m2 + d * h2 + v, c * m3 + d * h3 + w))
    S = np.array(rows).reshape(n, 2, 3)
    K = M[..., :2] @ S[:, None] + M[..., 2:]
    S_rows = np.hstack([steps[:, :2], S.reshape(n, 6), K.reshape(n, 42)])
    dh = _dense(S_rows, t_eval)[3:]
    return _dense(steps, t_eval)[1], dh.T @ _reduced_rates_jacobian(theta)


def objective_gradient(theta, data: PrevalenceDataset, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Exact gradient of `objective` via forward sensitivity equations."""
    th = _theta_array(theta)
    if data.days.size < 2:
        return np.zeros(5)
    t = data.days.astype(float)
    h, J = _sensitivity_system(th, float(data.h_hat[0]), t, gamma)
    r = h[1:] - data.h_hat[1:]
    return J[1:].T @ r


def fit(
    data: PrevalenceDataset,
    bounds=DEFAULT_BOUNDS,
    theta0=DEFAULT_THETA0,
    gamma: float = DEFAULT_GAMMA,
    max_nfev: int = 400,
) -> FitResult:
    """Box-constrained least-squares fit of theta to prevalence data.

    Uses a trust-region reflective solver with the sensitivity-based
    residual Jacobian; non-convergence is reported on the `converged`
    flag, never raised.  Data of fewer than two days raise ValueError.
    """
    from scipy.optimize import least_squares

    th0 = _theta_array(theta0)
    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array([b[1] for b in bounds], dtype=float)
    if not np.all((th0 >= lb) & (th0 <= ub)):
        raise ValueError("theta0 must lie within the bounds")
    if data.days.size < 2:
        raise ValueError(f"a fit needs at least two days of data, got {data.days.size}")

    free = lb < ub

    def pack(x):
        th = th0.copy()
        th[free] = x
        return th

    if not np.any(free) or not np.any(data.h_hat):
        # Nothing to optimize: point bounds, or an all-zero series whose
        # initial state is the disease-free equilibrium.
        theta = pack(th0[free])
        return _make_result(theta, objective(theta, data, gamma), 0, True, gamma)

    t = data.days.astype(float)
    h0 = float(data.h_hat[0])
    # TRF asks for res and then jac at (nearly) every point it visits, so both
    # read one sensitivity solve, remembered for the last x only.
    last = {}

    def solve(x):
        key = x.tobytes()
        if key not in last:
            last.clear()
            last[key] = _sensitivity_system(pack(x), h0, t, gamma)
        return last[key]

    def res(x):
        return solve(x)[0][1:] - data.h_hat[1:]

    def jac(x):
        return solve(x)[1][1:, free]

    sol = least_squares(
        res,
        th0[free],
        jac=jac,
        bounds=(lb[free], ub[free]),
        method="trf",
        ftol=1e-10,
        xtol=1e-10,
        gtol=1e-12,
        max_nfev=max_nfev,
    )
    theta = pack(sol.x)
    converged = bool(sol.status > 0)
    return _make_result(theta, 0.5 * float(sol.fun @ sol.fun), int(sol.nfev), converged, gamma)


def _make_result(theta: np.ndarray, obj: float, nfev: int, converged: bool, gamma: float) -> FitResult:
    params = EpiParams(*theta.tolist(), gamma)
    rates = derive_rates(params, params.delta)
    return FitResult(
        theta_hat=params,
        objective_value=obj,
        A_m=rates.A_m,
        A_h=rates.A_h,
        delta=params.delta,
        iterations=nfev,
        converged=converged,
    )


def generate_synthetic_incidence(
    theta=None,
    gamma: float = DEFAULT_GAMMA,
    h0: float = 1e-3,
    days: int = FIT_WINDOW_DAYS,
    population: int = 2_400_000,
) -> IncidenceSeries:
    """Synthetic daily incidence whose implied prevalence follows the model.

    Defaults to the fitted transmission parameters of the 2013 Cali
    outbreak; counts are rounded so that the geometric recursion on the
    integers reproduces the model prevalence up to one case per day.
    """
    if theta is None:
        theta = CALI_2013_ESTIMATE
    t = np.arange(days + 1, dtype=float)
    h = simulate_h(theta, h0, t, gamma=gamma)
    target = h * population
    cases = np.empty(days + 1)
    cases[0] = round(target[0])
    running = cases[0]
    for j in range(1, days + 1):
        c = max(0.0, round(target[j] - running * (1.0 - gamma)))
        running = running * (1.0 - gamma) + c
        cases[j] = c
    return IncidenceSeries(
        days=np.arange(days + 1), new_cases=cases, population=population
    )


# Transmission parameters estimated from the 2013 Cali dengue outbreak.
CALI_2013_ESTIMATE = EpiParams(
    alpha=0.3365, p_h=0.2287, p_m=0.1532, xi=1.0359, delta=0.0333, gamma=DEFAULT_GAMMA
)


def _read_day_csv(path, column: str) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Read a `day,<column>` CSV into days, values and each row's file line."""
    days: list[int] = []
    values: list[float] = []
    lines: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedCSVError(path, 1, "empty file")
        if [c.strip().lower() for c in header[:2]] != ["day", column]:
            raise MalformedCSVError(path, 1, f"expected header 'day,{column}'")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                days.append(int(row[0]))
                values.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise MalformedCSVError(path, reader.line_num, str(exc)) from exc
            lines.append(reader.line_num)
    if not days:
        raise MalformedCSVError(path, 2, "no data rows")
    return np.array(days), np.array(values), lines


def read_incidence_csv(path, population: int) -> IncidenceSeries:
    """Read a `day,new_cases` CSV into an incidence series."""
    if population <= 0:
        raise ValueError(f"population must be positive, got {population!r}")
    days, cases, lines = _read_day_csv(path, "new_cases")
    try:
        return IncidenceSeries(days=days, new_cases=cases, population=population)
    except ValueError:
        pass
    # Blame the first row at which the rows read so far stop being a series.
    for n, line in enumerate(lines, start=1):
        try:
            IncidenceSeries(days=days[:n], new_cases=cases[:n], population=population)
        except ValueError as exc:
            raise MalformedCSVError(path, line, str(exc)) from exc


def write_prevalence_csv(path, data: PrevalenceDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "h_hat"])
        for d, h in zip(data.days, data.h_hat):
            writer.writerow([int(d), f"{h:.12g}"])


def read_prevalence_csv(path) -> PrevalenceDataset:
    """Read a `day,h_hat` CSV into a prevalence dataset."""
    days, h_hat, _ = _read_day_csv(path, "h_hat")
    return PrevalenceDataset(days=days, h_hat=h_hat)
