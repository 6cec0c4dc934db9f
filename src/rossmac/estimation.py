"""Incidence-to-prevalence conversion and constrained least-squares fitting
of the identifiable transmission rates to daily prevalence data.

Daily new-case counts are turned into prevalence with the geometric-decay
recursion P_{j+1} = P_j*(1-gamma) + c_{j+1}, the discrete analogue of
exponential recovery at rate gamma.  Only the reduced rates
r = (A_m, A_h, delta), with A_m = alpha*p_m and A_h = alpha*p_h*xi, enter
the dynamics, so only they are identifiable, and the fit minimizes

    1/2 * sum_{j=1..D} (h(t_j; r) - h_hat_j)^2

over r inside RATE_BOUNDS, the image of the raw box DEFAULT_BOUNDS, with
the mosquito state initialized as m(0) = 3*h_hat_0, which must lie in
[0, 1].  The raw parameters theta = (alpha, p_h, p_m, xi, delta) remain
only in `objective`, `objective_gradient` (which applies the chain rule
through r) and `simulate_h`.  Every trajectory is integrated by the
Dormand-Prince loop of `rossmac.ode` at rtol=1e-10, atol=1e-12, and the
sensitivities dh/dr are carried through that solve's own steps.  The fit
makes one solve per trust-region point: its residuals and Jacobian both
read it.  The fit's trust-region reflective solver, `_trf`, is a port of
scipy's for this bounded 3-parameter problem, so the module needs numpy
alone.
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
    (to 1 if t_end is 0), as rows of `ode._dense`.  A start outside the
    unit square, h0 outside [0, 1/3], raises ValueError."""
    m0 = MOSQUITO_INIT_FACTOR * h0
    if not 0.0 <= m0 <= 1.0:
        raise ValueError(f"h0 = {h0!r} starts the mosquitoes at m(0) = 3*h0 = {m0!r}, "
                         "outside [0, 1]")

    def rhs(t, m, h):
        return g_m(m, h, rates.u_max, rates), g_h(m, h, rates)

    steps: list[tuple] = []
    _dopri(rhs, 0.0, (m0, h0), t_end if t_end > 0 else 1.0, 1e-10, 1e-12, None, steps)
    return np.array(steps)


def simulate_h(theta, h0: float, t_eval: np.ndarray, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Human prevalence h(t_j; theta) with m(0) = 3*h0, for h0 in [0, 1/3]."""
    rates = _reduced_rates(_theta_array(theta), gamma)
    return _dense(_steps(rates, h0, float(t_eval[-1])), t_eval)[1]


def objective(theta, data: PrevalenceDataset, gamma: float = DEFAULT_GAMMA) -> float:
    """Half sum of squared prevalence misfits over days 1..D."""
    if data.days.size < 2:
        return 0.0
    try:
        h = simulate_h(theta, float(data.h_hat[0]), data.days.astype(float), gamma=gamma)
    except RuntimeError:
        return math.inf
    r = h[1:] - data.h_hat[1:]
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


def _misfit(rates: ModelRates, data: PrevalenceDataset):
    """The residuals h(t_j) - h_hat_j over days 1..D and their Jacobian
    dh/dr, from one solve."""
    h, dh = _sensitivity_system(rates, float(data.h_hat[0]), data.days.astype(float))
    return h[1:] - data.h_hat[1:], dh[1:]


def objective_gradient(theta, data: PrevalenceDataset, gamma: float = DEFAULT_GAMMA) -> np.ndarray:
    """Exact gradient of `objective` in theta: the gradient in r, from the
    forward sensitivities, by the chain rule through A_m = alpha*p_m and
    A_h = alpha*p_h*xi."""
    th = _theta_array(theta)
    if data.days.size < 2:
        return np.zeros(5)
    f, J = _misfit(_reduced_rates(th, gamma), data)
    gA_m, gA_h, g_delta = J.T @ f
    alpha, p_h, p_m, xi, _ = th
    return np.array([gA_m * p_m + gA_h * p_h * xi, gA_h * alpha * xi, gA_m * alpha,
                     gA_h * alpha * p_h, g_delta])


def fit(
    data: PrevalenceDataset,
    theta0=DEFAULT_THETA0,
    gamma: float = DEFAULT_GAMMA,
) -> FitResult:
    """Box-constrained least-squares fit of r = (A_m, A_h, delta) to
    prevalence data, on RATE_BOUNDS, from the rates of theta0, which must
    lie in DEFAULT_BOUNDS.

    Uses the trust-region reflective method of Branch, Coleman and Li
    (1999), as scipy's least_squares(method="trf") runs it (`_trf`), with
    the sensitivity-based residual Jacobian dh/dr; non-convergence within
    _MAX_NFEV = 400 trial points is reported on the `converged` flag, never
    raised.  The model starts at m(0) = 3*h_hat_0, h(0) = h_hat_0, so the
    series must start on a day with cases (at (0, 0), the disease-free
    equilibrium, no rates move h) and h_hat_0 must be at most 1/3 (m(0)
    at most 1).  Data of fewer than two days, or breaking either rule,
    raise ValueError.
    """
    th0 = _theta_array(theta0)
    lb, ub = np.array(DEFAULT_BOUNDS).T
    if not np.all((th0 >= lb) & (th0 <= ub)):
        raise ValueError("theta0 must lie within the bounds")
    if data.days.size < 2:
        raise ValueError(f"a fit needs at least two days of data, got {data.days.size}")
    if data.h_hat[0] == 0:
        raise ValueError("the first day has no cases, so the model starts at the disease-free "
                         "equilibrium, which no rates leave: start the series on a day with cases")
    start = _reduced_rates(th0, gamma)

    def solve(x):
        A_m, A_h, delta = x.tolist()
        f, J = _misfit(ModelRates(A_m, A_h, gamma, u_min=delta, u_max=delta), data)
        # A row-major Jacobian, as least_squares copies it, so that J^T f
        # sums in the same order.
        return f, np.ascontiguousarray(J)

    x, f, nfev, converged = _trf(solve, np.array([start.A_m, start.A_h, start.u_max]))
    return _make_result(x, 0.5 * float(f @ f), nfev, converged, gamma)


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


# The fit's stopping tolerances: relative cost decrease, relative step and
# scaled gradient (least_squares' ftol, xtol and gtol), and its budget of
# trial points.
_FTOL, _XTOL, _GTOL = 1e-10, 1e-10, 1e-12
_MAX_NFEV = 400


def _trf(solve, x):
    """Minimize 1/2 |f(x)|^2 over x in RATE_BOUNDS from x, where solve(x)
    gives the residuals f and their Jacobian J from one evaluation.  Returns
    the last accepted point, its residuals, the number of points solved and
    whether a tolerance was met before _MAX_NFEV points.

    Trust-region reflective (Branch, Coleman and Li 1999), ported from
    scipy's `trf_bounds` for a dense Jacobian, tr_solver="exact",
    x_scale=1 and linear loss, so it takes scipy's trial points.  Each
    iteration scales the variables by the Coleman-Li vector v (the distance
    to the bound the gradient points away from), solves the trust-region
    subproblem exactly from one SVD of the augmented scaled Jacobian, and
    picks the best of the step cut back before the bound, its reflection
    off that bound and the anti-gradient step (`_select_step`)."""
    lb, ub = np.array(RATE_BOUNDS).T
    x = _interior(x, lb, ub, 1e-10)
    f, J = solve(x)
    nfev = 1
    m = f.size
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)
    v = _coleman_li(x, g, lb, ub)
    Delta = np.linalg.norm(x / v**0.5) or 1.0
    alpha = 0.0  # the Levenberg-Marquardt parameter of the last subproblem
    converged = False
    while True:
        v = _coleman_li(x, g, lb, ub)
        g_norm = np.linalg.norm(g * v, ord=np.inf)
        if g_norm < _GTOL:
            converged = True
        if converged or nfev == _MAX_NFEV:
            break
        # A step p_h in the scaled ("hat") variables is d*p_h in x; their
        # quadratic model has the extra curvature diag_h = g * dv/dx = |g|.
        d = v**0.5
        diag_h = np.abs(g)
        g_h = d * g
        J_aug = np.vstack((J * d, np.diag(diag_h**0.5)))
        J_h = J_aug[:m]
        U, s, Vt = np.linalg.svd(J_aug, full_matrices=False)
        # U^T and V laid out row-major, as from LAPACK's column-major U and
        # V^T, so that their products sum in the same order as scipy's.
        uf = np.ascontiguousarray(U.T).dot(np.concatenate((f, np.zeros(3))))
        V = np.ascontiguousarray(Vt.T)
        theta = max(0.995, 1 - g_norm)  # how far towards a bound a step goes
        reduction = -1
        while reduction <= 0 and nfev < _MAX_NFEV:
            p_h, alpha = _trust_region_step(m, uf, s, V, Delta, alpha)
            step, step_h, predicted = _select_step(x, J_h, diag_h, g_h, d * p_h, p_h, d,
                                                   Delta, lb, ub, theta)
            x_new = _interior(x + step, lb, ub, 0.0)
            f_new, J_new = solve(x_new)
            nfev += 1
            step_h_norm = np.linalg.norm(step_h)
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if predicted == reduction == 0 else 0.0
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta
            if ((reduction < _FTOL * cost and ratio > 0.25)
                    or np.linalg.norm(step) < _XTOL * (_XTOL + np.linalg.norm(x))):
                converged = True
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new
        if reduction > 0:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            g = J.T.dot(f)
    return x, f, nfev, converged


def _interior(x, lb, ub, rstep: float) -> np.ndarray:
    """x with each coordinate within rstep*max(1, |bound|) of a bound moved
    to that distance inside it, or to the next float inside when rstep is
    0 (scipy's make_strictly_feasible, for a box wider than 2*rstep)."""
    lo_gap = rstep * np.maximum(1.0, np.abs(lb))
    hi_gap = rstep * np.maximum(1.0, np.abs(ub))
    lower = x - lb <= np.minimum(ub - x, lo_gap)
    upper = ub - x <= np.minimum(x - lb, hi_gap)
    if rstep == 0:
        inner_lb, inner_ub = np.nextafter(lb, ub), np.nextafter(ub, lb)
    else:
        inner_lb, inner_ub = lb + lo_gap, ub - hi_gap
    return np.where(upper, inner_ub, np.where(lower, inner_lb, x))


def _coleman_li(x, g, lb, ub):
    """The Coleman-Li scaling vector v, the distance to the bound that -g
    points at (1 where g is 0); its derivative in x is sign(g)."""
    return np.where(g < 0, ub - x, np.where(g > 0, x - lb, 1.0))


def _trust_region_step(m: int, uf, s, V, Delta, alpha):
    """Moré's (1977) solution p of min |J p + f| over |p| <= Delta, from the
    SVD J = U diag(s) V^T of the m + 3 by 3 matrix J (uf = U^T f), and its
    Levenberg-Marquardt parameter, found by at most 10 Newton steps from
    alpha to |p| within 1% of Delta (scipy's solve_lsq_trust_region)."""
    suf = s * uf

    def phi(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - Delta, -np.sum(suf**2 / denom**3) / p_norm

    full_rank = m >= 3 and s[-1] > np.finfo(float).eps * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if np.linalg.norm(p) <= Delta:
            return p, 0.0
    alpha_upper = np.linalg.norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        alpha_lower = -value / slope
    elif alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        value, slope = phi(alpha)
        if value < 0:
            alpha_upper = alpha
        ratio = value / slope
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (value + Delta) * ratio / Delta
        if np.abs(value) < 0.01 * Delta:
            break
    p = -V.dot(suf / (s**2 + alpha))
    return p * (Delta / np.linalg.norm(p)), alpha


def _to_bound(x, s, lb, ub):
    """The least t >= 0 at which x + t*s reaches a bound, and the mask of
    the coordinates that reach one there."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.where(s != 0, np.maximum((lb - x) / s, (ub - x) / s), np.inf)
    t = np.min(steps)
    return t, (steps == t) & (s != 0)


def _model(J, g, diag, s, s0=None):
    """The model 1/2 s'(J'J + diag)s + g's along s0 + t*s as the
    coefficients (a, b, c) of a t^2 + b t + c; without s0, (a, b)."""
    v = J.dot(s)
    a = 0.5 * (np.dot(v, v) + np.dot(s * diag, s))
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _least_on(a, b, lo, hi, c=0.0):
    """The t in [lo, hi] of least a t^2 + b t + c, and that value."""
    t = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The reflective step choice: the trust-region step p if it stays in
    the box, else the least-model one of p cut back to theta of the way to
    the bound it crosses, its reflection off that bound and the
    anti-gradient step.  Returns the step, in x and scaled, and the
    decrease of the model it predicts."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        a, b = _model(J_h, g_h, diag_h, p_h)
        return p, p_h, -(a + b)
    p_stride, hits = _to_bound(x, p, lb, ub)
    r_h = np.where(hits, -p_h, p_h)
    r = d * r_h
    p, p_h = p * p_stride, p_h * p_stride
    # The reflection runs until it leaves either the box or the trust region.
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - Delta**2
    q = -(b + math.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _to_bound(x + p, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    r_value = np.inf
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
        if r_lo <= r_hi:
            a, b, c = _model(J_h, g_h, diag_h, r_h, p_h)
            r_stride, r_value = _least_on(a, b, r_lo, r_hi, c)
            r_h = r_h * r_stride + p_h
            r = r_h * d
    p, p_h = p * theta, p_h * theta
    a, b = _model(J_h, g_h, diag_h, p_h)
    p_value = a + b
    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / np.linalg.norm(ag_h)
    to_bound, _ = _to_bound(x, ag, lb, ub)
    a, b = _model(J_h, g_h, diag_h, ag_h)
    ag_stride, ag_value = _least_on(a, b, 0, theta * to_bound if to_bound < to_tr else to_tr)
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag * ag_stride, ag_h * ag_stride, -ag_value


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


# Transmission parameters estimated from the 2013 Cali dengue outbreak.  The
# paper's delta = 0.0333 is 1/30 rounded below the fit's lower bound, so the
# estimate takes the bound itself and lies in DEFAULT_BOUNDS.
CALI_2013_ESTIMATE = EpiParams(
    alpha=0.3365, p_h=0.2287, p_m=0.1532, xi=1.0359, delta=1.0 / 30.0, gamma=DEFAULT_GAMMA
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
