"""Incidence-to-prevalence conversion and constrained least-squares fitting
of the identifiable transmission rates to daily prevalence data.

Daily new-case counts are turned into prevalence with the geometric-decay
recursion P_{j+1} = P_j*(1-gamma) + c_{j+1}, the discrete analogue of
exponential recovery at rate gamma.  Only the reduced rates
r = (A_m, A_h, delta), with A_m = alpha*p_m and A_h = alpha*p_h*xi, enter
the dynamics, so only they are identifiable, and the fit minimizes

    1/2 * sum_{j=1..D} (h(t_j; r) - h_hat_j)^2

over r inside RATE_BOUNDS, the image of the raw box DEFAULT_BOUNDS, with
the mosquito state initialized as m(0) = 3*h_hat_0.  The raw parameters
theta = (alpha, p_h, p_m, xi, delta) remain only in `objective`,
`objective_gradient` (which applies the chain rule through r) and
`simulate_h`.  Every trajectory is integrated by the Dormand-Prince loop of
`rossmac.ode` at rtol=1e-10, atol=1e-12, and the sensitivities dh/dr are
carried through that solve's own steps.  The fit makes one solve per
trust-region point: its residuals and Jacobian both read it.  Only `fit`
imports scipy, for its trust-region reflective solver.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from rossmac.model import EpiParams, ModelRates, _reduce, g_h, g_m
from rossmac.ode import _A, _dense, _dopri

# Admissible box for theta = (alpha, p_h, p_m, xi, delta), its image in
# r = (A_m, A_h, delta), the box of the fit, and the raw point whose rates
# start the optimizer.
DEFAULT_BOUNDS = (
    (0.0, 5.0),     # alpha
    (0.0, 1.0),     # p_h
    (0.0, 1.0),     # p_m
    (1.0, 5.0),     # xi
    (1.0 / 30.0, 1.0 / 15.0),  # delta
)
RATE_BOUNDS = ((0.0, 5.0), (0.0, 25.0), (1.0 / 30.0, 1.0 / 15.0))
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
    """The reduced rates of theta (`model._reduce`, which also takes raw
    values outside EpiParams' ranges), with the mosquito death rate fixed at
    delta.  The rates are Python floats, on which the integrator's scalar
    steps run fastest."""
    th = theta.tolist()
    return _reduce(*th, gamma, th[-1])  # u_max = u_min = delta


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


def _sensitivity_system(rates: ModelRates, h0: float, t_eval: np.ndarray):
    """h and dh/dr, shape (n_times, 3), at t_eval, for r = (A_m, A_h, delta)
    with u_max = delta.  dh/dr is the exact derivative of the computed h:
    with its accepted steps held fixed, each step maps S = d(m, h)/dr
    through its stages to Phi S + Psi (internal numerical differentiation,
    Bock 1981)."""
    A_m, A_h, delta, gamma = rates.A_m, rates.A_h, rates.u_max, rates.gamma
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
    return _dense(steps, t_eval)[1], _dense(S_rows, t_eval)[3:].T


def objective_gradient(theta, data: PrevalenceDataset, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Exact gradient of `objective` in theta: the gradient in r, from the
    forward sensitivities, by the chain rule through A_m = alpha*p_m and
    A_h = alpha*p_h*xi."""
    th = _theta_array(theta)
    if data.days.size < 2:
        return np.zeros(5)
    h, J = _sensitivity_system(_reduced_rates(th, gamma), float(data.h_hat[0]),
                               data.days.astype(float))
    gA_m, gA_h, g_delta = J[1:].T @ (h[1:] - data.h_hat[1:])
    alpha, p_h, p_m, xi, _ = th
    return np.array([gA_m * p_m + gA_h * p_h * xi, gA_h * alpha * xi, gA_m * alpha,
                     gA_h * alpha * p_h, g_delta])


def fit(
    data: PrevalenceDataset,
    theta0=DEFAULT_THETA0,
    gamma: float = DEFAULT_GAMMA,
    max_nfev: int = 400,
) -> FitResult:
    """Box-constrained least-squares fit of r = (A_m, A_h, delta) to
    prevalence data, on RATE_BOUNDS, from the rates of theta0, which must
    lie in DEFAULT_BOUNDS.

    Uses a trust-region reflective solver with the sensitivity-based
    residual Jacobian dh/dr; non-convergence is reported on the `converged`
    flag, never raised.  Data of fewer than two days raise ValueError.
    """
    from scipy.optimize import least_squares

    th0 = _theta_array(theta0)
    lb, ub = np.array(DEFAULT_BOUNDS).T
    if not np.all((th0 >= lb) & (th0 <= ub)):
        raise ValueError("theta0 must lie within the bounds")
    if data.days.size < 2:
        raise ValueError(f"a fit needs at least two days of data, got {data.days.size}")
    start = _reduced_rates(th0, gamma)
    r0 = np.array([start.A_m, start.A_h, start.u_max])
    if not np.any(data.h_hat):
        # An all-zero series starts at the disease-free equilibrium, where
        # h stays 0 under any rates: nothing to optimize.
        return _make_result(r0, 0.0, 0, True, gamma)

    t = data.days.astype(float)
    h0 = float(data.h_hat[0])
    # TRF asks for res and then jac at (nearly) every point it visits, so both
    # read one sensitivity solve, remembered for the last x only.
    last = {}

    def solve(x):
        key = x.tobytes()
        if key not in last:
            last.clear()
            A_m, A_h, delta = x.tolist()
            rates = ModelRates(A_m, A_h, gamma, u_min=delta, u_max=delta)
            last[key] = _sensitivity_system(rates, h0, t)
        return last[key]

    sol = least_squares(
        lambda x: solve(x)[0][1:] - data.h_hat[1:],
        r0,
        jac=lambda x: solve(x)[1][1:],
        bounds=np.array(RATE_BOUNDS).T,
        method="trf",
        ftol=1e-10,
        xtol=1e-10,
        gtol=1e-12,
        max_nfev=max_nfev,
    )
    return _make_result(sol.x, 0.5 * float(sol.fun @ sol.fun), int(sol.nfev),
                        bool(sol.status > 0), gamma)


def _make_result(r: np.ndarray, obj: float, nfev: int, converged: bool, gamma: float) -> FitResult:
    """The result at rates r, whose theta_hat is the canonical raw
    representative alpha = 5, p_m = A_m/5, xi = max(1, A_h/5),
    p_h = A_h/(5 xi), which lies in DEFAULT_BOUNDS for r in RATE_BOUNDS (the
    min keeps p_h at most 1 when 5 xi rounds below A_h)."""
    A_m, A_h, delta = r.tolist()
    xi = max(1.0, A_h / 5.0)
    theta = EpiParams(alpha=5.0, p_h=min(1.0, A_h / (5.0 * xi)), p_m=A_m / 5.0, xi=xi,
                      delta=delta, gamma=gamma)
    return FitResult(theta_hat=theta, objective_value=obj, A_m=A_m, A_h=A_h, delta=delta,
                     iterations=nfev, converged=converged)


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
