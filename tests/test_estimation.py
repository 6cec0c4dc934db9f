"""Tests for prevalence reconstruction, the least-squares objective and the
constrained fit."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares

from rossmac import estimation
from rossmac.estimation import (
    CALI_2013_ESTIMATE,
    DEFAULT_BOUNDS,
    DEFAULT_THETA0,
    RATE_BOUNDS,
    IncidenceSeries,
    MalformedCSVError,
    PrevalenceDataset,
    _make_result,
    _reduced_rates,
    _sensitivity_system,
    fit,
    generate_synthetic_incidence,
    incidence_to_prevalence,
    objective,
    objective_gradient,
    read_incidence_csv,
    read_prevalence_csv,
    simulate_h,
    write_prevalence_csv,
)
from rossmac.model import ModelRates, _reduce, g_h, g_m
from rossmac.ode import SimulationError

THETA_TRUE = np.array([0.3365, 0.2287, 0.1532, 1.0359, 0.0333])


def make_dataset(theta=THETA_TRUE, h0=1e-3, days=60):
    t = np.arange(days + 1, dtype=float)
    h = simulate_h(theta, h0, t)
    return PrevalenceDataset(days=np.arange(days + 1), h_hat=h)


class TestIncidenceToPrevalence:
    def test_all_zero_counts(self):
        s = IncidenceSeries(days=np.arange(5), new_cases=np.zeros(5), population=1000)
        p = incidence_to_prevalence(s)
        assert np.all(p.h_hat == 0.0)

    def test_single_initial_case_decays_geometrically(self):
        s = IncidenceSeries(days=np.arange(6), new_cases=np.array([10.0, 0, 0, 0, 0, 0]),
                            population=1000)
        p = incidence_to_prevalence(s, gamma=0.1)
        expected = 0.01 * 0.9 ** np.arange(6)
        assert np.allclose(p.h_hat, expected, atol=1e-15)

    def test_constant_influx_plateau(self):
        # steady c new cases per day approaches prevalence c/gamma
        c, gamma, n = 5.0, 0.1, 400
        s = IncidenceSeries(days=np.arange(n), new_cases=np.full(n, c), population=10_000)
        p = incidence_to_prevalence(s, gamma=gamma)
        assert p.h_hat[-1] * 10_000 == pytest.approx(c / gamma, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.5, np.inf])
    def test_rejects_gamma_above_one(self, gamma):
        s = IncidenceSeries(days=np.arange(3), new_cases=np.array([0.0, 5.0, 1.0]),
                            population=1000)
        with pytest.raises(ValueError, match="gamma"):
            incidence_to_prevalence(s, gamma=gamma)

    def test_rejects_gap_in_days(self):
        with pytest.raises(ValueError):
            IncidenceSeries(days=np.array([0, 1, 3]), new_cases=np.zeros(3), population=10)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            IncidenceSeries(days=np.arange(3), new_cases=np.array([1.0, -2.0, 0.0]),
                            population=10)

    def test_nan_values_are_refused(self):
        with pytest.raises(ValueError, match="case counts must be nonnegative"):
            IncidenceSeries(days=np.arange(3), new_cases=np.array([5.0, np.nan, 2.0]),
                            population=1000)
        with pytest.raises(ValueError, match=r"prevalence fractions must lie in \[0, 1\]"):
            PrevalenceDataset(days=np.arange(3), h_hat=np.array([0.1, np.nan, 0.2]))

    @pytest.mark.parametrize("days", [[0, 30, 5], [0, 1, 1], [0, 1, np.nan]])
    def test_observation_days_must_increase(self, days):
        # Unordered days once solved only up to the last one and read the
        # rest off the dense output beyond it.
        with pytest.raises(ValueError, match="increase strictly"):
            PrevalenceDataset(days=np.array(days), h_hat=np.full(3, 1e-3))

    @pytest.mark.parametrize("days, h_hat", [(np.arange(3), np.full(2, 1e-3)),
                                             (np.arange(3), np.full(5, 1e-3)),
                                             (np.arange(3)[None], np.full((1, 3), 1e-3))])
    def test_prevalence_columns_must_match(self, days, h_hat):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            PrevalenceDataset(days=days, h_hat=h_hat)

    @pytest.mark.parametrize("n", [2, 5])
    def test_incidence_columns_must_match(self, n):
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            IncidenceSeries(days=np.arange(3), new_cases=np.ones(n), population=1000)


class TestSimulate:
    @pytest.mark.parametrize("theta", [THETA_TRUE, np.array(DEFAULT_THETA0)])
    def test_matches_tight_reference(self, theta):
        # The library integrates at rtol=1e-10, atol=1e-12; the reference is
        # DOP853 at rtol=1e-13, atol=1e-15.  DEFAULT_THETA0 drives h up to
        # 0.82, where a 1e-10 relative tolerance alone allows more than 1e-11,
        # hence the relative term.
        rates = _reduced_rates(theta, 0.1)
        t = np.arange(61, dtype=float)
        ref = solve_ivp(lambda s, z: [g_m(z[0], z[1], rates.u_max, rates), g_h(z[0], z[1], rates)],
                        (0.0, 60.0), [3e-3, 1e-3], method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=t).y[1]
        np.testing.assert_allclose(simulate_h(theta, 1e-3, t), ref, rtol=1e-9, atol=1e-11)

    # m(0) = 3*h0 must lie in [0, 1], so every call that integrates from a
    # prevalence start refuses h0 above 1/3.
    @pytest.mark.parametrize("h0", [0.34, 0.5])
    def test_refuses_a_start_above_a_third(self, h0):
        data = PrevalenceDataset(days=np.arange(3), h_hat=np.array([h0, 0.3, 0.3]))
        calls = [lambda: simulate_h(DEFAULT_THETA0, h0, data.days.astype(float)),
                 lambda: objective(DEFAULT_THETA0, data),
                 lambda: objective_gradient(DEFAULT_THETA0, data),
                 lambda: generate_synthetic_incidence(h0=h0, days=2)]
        for call in calls:
            with pytest.raises(ValueError, match=f"h0 = {h0!r}"):
                call()

    def test_a_start_of_exactly_a_third_runs_from_m_1(self):
        h = simulate_h(DEFAULT_THETA0, 1.0 / 3.0, np.arange(3, dtype=float))
        assert h[0] == 1.0 / 3.0 and np.all((h >= 0.0) & (h <= 1.0))


class TestObjective:
    def test_zero_at_generating_parameters(self):
        data = make_dataset()
        assert objective(THETA_TRUE, data) < 1e-18

    def test_empty_window(self):
        data = PrevalenceDataset(days=np.array([0]), h_hat=np.array([0.01]))
        assert objective(THETA_TRUE, data) == 0.0

    def test_inf_when_the_solve_fails(self, monkeypatch):
        data = make_dataset()

        def fail(*args):
            raise SimulationError("integration failed: step size below its minimum", 3.0)

        monkeypatch.setattr(estimation, "_dopri", fail)
        assert objective(THETA_TRUE, data) == np.inf

    def test_inf_on_a_stiff_theta(self):
        # alpha = 1e8 gives A_m = 1e8: the integrator's step bound ends the
        # solve, which would otherwise run on for some 10^10 steps.
        assert objective((1e8, 1.0, 1.0, 5.0, 0.05), make_dataset()) == np.inf

    def test_positive_away_from_truth(self):
        data = make_dataset()
        off = THETA_TRUE * np.array([1.3, 1.0, 1.0, 1.0, 1.0])
        assert objective(off, data) > 1e-8

    def test_local_scan_minimum_at_truth(self):
        # the objective restricted to a 1-d slice through the generating
        # parameters bottoms out at scale 1
        data = make_dataset()
        scales = np.array([0.9, 0.95, 1.0, 1.05, 1.1])
        vals = [objective(THETA_TRUE * np.array([s, 1, 1, 1, 1]), data) for s in scales]
        assert np.argmin(vals) == 2

    def test_identifiability_only_through_reduced_rates(self):
        # (c*alpha, p_h/c, p_m/c, xi, delta) leaves A_m, A_h, delta unchanged
        data = make_dataset()
        base = objective(THETA_TRUE, data)
        for c in (0.5, 2.0):
            theta = THETA_TRUE * np.array([c, 1.0 / c, 1.0 / c, 1.0, 1.0])
            assert objective(theta, data) == pytest.approx(base, abs=1e-12)


class TestGradient:
    def test_matches_central_differences(self):
        data = make_dataset(days=30)
        rng = np.random.default_rng(5)
        lb = np.array([b[0] for b in DEFAULT_BOUNDS])
        ub = np.array([b[1] for b in DEFAULT_BOUNDS])
        for _ in range(10):
            theta = lb + rng.uniform(0.05, 0.6, size=5) * (ub - lb)
            g = objective_gradient(theta, data)
            fd = np.empty(5)
            for i in range(5):
                e = np.zeros(5)
                e[i] = 1e-6 * max(1.0, abs(theta[i]))
                fd[i] = (objective(theta + e, data) - objective(theta - e, data)) / (2 * e[i])
            scale = max(np.max(np.abs(g)), 1e-12)
            assert np.max(np.abs(g - fd)) / scale < 1e-4

    def test_zero_window_gradient(self):
        data = PrevalenceDataset(days=np.array([0]), h_hat=np.array([0.01]))
        assert np.all(objective_gradient(THETA_TRUE, data) == 0.0)


def rates_of(theta):
    """The rates r = (A_m, A_h, delta) of theta."""
    rates = _reduced_rates(np.asarray(theta, dtype=float), 0.1)
    return np.array([rates.A_m, rates.A_h, rates.u_max])


def theta_of(r):
    """A raw point whose rates are r: alpha = xi = 1, p_h = A_h, p_m = A_m."""
    return np.array([1.0, r[1], r[0], 1.0, r[2]])


class TestJacobian:
    def test_rank_three_with_the_identifiability_orbits_as_null_space(self):
        # dh/dr has full rank 3.  h depends on theta only through
        # (A_m, A_h, delta), so the gradient in theta annihilates the tangents
        # of the orbits that keep those rates fixed:
        # (c*alpha, p_h/c, p_m/c, xi, delta) and (alpha, p_h/c, p_m, c*xi, delta).
        lb = np.array([b[0] for b in DEFAULT_BOUNDS])
        ub = np.array([b[1] for b in DEFAULT_BOUNDS])
        rng = np.random.default_rng(7)
        box = [lb + rng.uniform(0.05, 0.95, size=5) * (ub - lb) for _ in range(3)]
        t = np.arange(61, dtype=float)
        data = make_dataset()
        for theta in [THETA_TRUE, np.array(DEFAULT_THETA0), *box]:
            _, J = _sensitivity_system(_reduced_rates(theta, 0.1), 1e-3, t)
            assert J.shape == (61, 3)
            sv = np.linalg.svd(J[1:], compute_uv=False)
            assert sv[2] >= 1e-6 * sv[0]
            g = objective_gradient(theta, data)
            alpha, p_h, p_m, xi, _ = theta
            for tangent in ([alpha, -p_h, -p_m, 0.0, 0.0], [0.0, -p_h, 0.0, xi, 0.0]):
                assert abs(g @ np.array(tangent)) <= 1e-12 * np.linalg.norm(g)


def reference_sensitivities(r, t):
    """h and dh/dr from DOP853 at rtol=1e-12 on the 8-state system of
    (m, h) and S = d(m, h)/d(A_m, A_h, delta), S' = Jz S + df/dr."""
    A_m, A_h, delta = r
    gamma = 0.1

    def rhs(s, w):
        m, h, m1, m2, m3, h1, h2, h3 = w
        mm, mh = -A_m * h - delta, A_m * (1.0 - m)
        hm, hh = A_h * (1.0 - h), -A_h * m - gamma
        return [A_m * h * (1.0 - m) - delta * m, A_h * m * (1.0 - h) - gamma * h,
                mm * m1 + mh * h1 + h * (1.0 - m), mm * m2 + mh * h2, mm * m3 + mh * h3 - m,
                hm * m1 + hh * h1, hm * m2 + hh * h2 + m * (1.0 - h), hm * m3 + hh * h3]

    w = solve_ivp(rhs, (0.0, t[-1]), [3e-3, 1e-3, 0, 0, 0, 0, 0, 0], method="DOP853",
                  rtol=1e-12, atol=1e-15, t_eval=t).y
    return w[1], w[5:].T


class TestSensitivities:
    """dh/dr is the derivative of the computed h, carried through the
    accepted steps of its own solve."""

    @pytest.mark.parametrize("theta", [THETA_TRUE, np.array(DEFAULT_THETA0)],
                             ids=["truth", "theta0"])
    def test_matches_eight_state_reference(self, theta):
        t = np.arange(61, dtype=float)
        h, J = _sensitivity_system(_reduced_rates(theta, 0.1), 1e-3, t)
        h_ref, J_ref = reference_sensitivities(rates_of(theta), t)
        assert np.array_equal(h, simulate_h(theta, 1e-3, t))
        np.testing.assert_allclose(h, h_ref, rtol=1e-9, atol=1e-11)
        assert np.all(np.max(np.abs(J - J_ref), axis=0) <= 1e-8 * np.max(np.abs(J_ref), axis=0))

    @pytest.mark.parametrize("theta", [THETA_TRUE, np.array(DEFAULT_THETA0)],
                             ids=["truth", "theta0"])
    def test_matches_central_differences_of_simulate_h(self, theta):
        t = np.arange(61, dtype=float)
        r = rates_of(theta)
        _, J = _sensitivity_system(_reduced_rates(theta, 0.1), 1e-3, t)
        fd = np.empty_like(J)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1e-6 * max(1.0, abs(r[i]))
            fd[:, i] = (simulate_h(theta_of(r + e), 1e-3, t)
                        - simulate_h(theta_of(r - e), 1e-3, t)) / (2 * e[i])
        assert np.all(np.max(np.abs(J - fd), axis=0) <= 1e-6 * np.max(np.abs(J), axis=0))


class TestFit:
    def test_recovers_reduced_rates_from_noiseless_data(self):
        data = make_dataset()
        result = fit(data)
        assert result.converged
        A_m_true = THETA_TRUE[0] * THETA_TRUE[2]
        A_h_true = THETA_TRUE[0] * THETA_TRUE[1] * THETA_TRUE[3]
        assert result.A_m == pytest.approx(A_m_true, rel=0.02)
        assert result.A_h == pytest.approx(A_h_true, rel=0.02)
        assert result.delta == pytest.approx(THETA_TRUE[4], rel=0.02)
        assert result.objective_value < 1e-10

    # From (m, h) = (0, 0), the disease-free equilibrium, no rates move h, so
    # a first day without cases would "fit" as the start rates.
    @pytest.mark.parametrize("h_hat", [np.zeros(10), np.r_[0.0, np.full(9, 0.01)]],
                             ids=["all-zero", "first-day-zero"])
    def test_first_day_without_cases_is_refused(self, h_hat):
        data = PrevalenceDataset(days=np.arange(10), h_hat=h_hat)
        with pytest.raises(ValueError, match="start the series on a day with cases"):
            fit(data)

    def test_first_prevalence_above_a_third_is_refused(self):
        # h_hat_0 = 0.4 would start the mosquitoes at m(0) = 1.2.
        data = PrevalenceDataset(days=np.arange(4), h_hat=np.array([0.4, 0.39, 0.381, 0.3729]))
        with pytest.raises(ValueError, match="h0 = 0.4"):
            fit(data)

    def test_rejects_fewer_than_two_days(self):
        data = PrevalenceDataset(days=np.array([0]), h_hat=np.array([0.01]))
        with pytest.raises(ValueError, match="got 1"):
            fit(data)

    def test_one_sensitivity_solve_per_trf_point(self, monkeypatch):
        # Residuals and Jacobian at one point share a single solve of (m, h),
        # and no further solve runs.
        solves, points = [], []
        dopri, sensitivity = estimation._dopri, estimation._sensitivity_system

        def counting_dopri(*args):
            solves.append(args)
            return dopri(*args)

        def counting_sensitivity(rates, *args):
            points.append((rates.A_m, rates.A_h, rates.u_max))
            return sensitivity(rates, *args)

        data = make_dataset()
        monkeypatch.setattr(estimation, "_dopri", counting_dopri)
        monkeypatch.setattr(estimation, "_sensitivity_system", counting_sensitivity)
        result = fit(data)
        assert result.converged
        assert len(solves) == result.iterations
        assert len(points) == len(set(points)) == result.iterations

    def test_results_do_not_depend_on_earlier_fits(self, monkeypatch):
        # The two sets differ in h0 and window, so a solve at one theta is
        # wrong for the other; a memo kept across fits would show.
        sets = {"a": make_dataset(days=30),
                "b": make_dataset(theta=THETA_TRUE * np.array([1.1, 0.9, 1.0, 1.05, 1.0]), h0=2e-3)}
        fresh = {name: fit(data) for name, data in sets.items()}
        for name, other in (("a", "b"), ("b", "a"), ("a", "b")):
            # stopped after one evaluation, at theta0, where the next fit starts
            with monkeypatch.context() as patch:
                patch.setattr(estimation, "_MAX_NFEV", 1)
                fit(sets[other])
            assert fit(sets[name]) == fresh[name]

    def test_rejects_start_outside_bounds(self):
        data = make_dataset(days=10)
        with pytest.raises(ValueError):
            fit(data, theta0=(6.0, 0.5, 0.5, 1.0, 0.035))

    def test_rejects_nan_start(self):
        data = make_dataset(days=10)
        with pytest.raises(ValueError, match="theta0 must lie within the bounds"):
            fit(data, theta0=(np.nan, 0.5, 0.5, 1.0, 0.035))

    def test_rate_box_is_the_image_of_the_raw_box(self):
        corners = np.array(np.meshgrid(*DEFAULT_BOUNDS)).reshape(5, -1).T
        rates = np.array([rates_of(c) for c in corners])
        assert tuple(zip(rates.min(axis=0), rates.max(axis=0))) == RATE_BOUNDS

    # At A_h = 5.55, 5*(A_h/5) rounds below A_h, so A_h/(5 xi) exceeds 1 by
    # an ulp unless p_h is capped at 1.
    @pytest.mark.parametrize("r", [(0.0516, 0.0797, 0.04), (4.9, 5.55, 0.05),
                                   (5.0, 25.0, 1.0 / 15.0), (0.0, 5.0, 1.0 / 30.0)],
                             ids=["A_h-below-5", "A_h-above-5", "upper-corner", "A_h-at-5"])
    def test_theta_hat_is_a_raw_point_of_the_rates(self, r):
        result = _make_result(np.array(r), 0.0, 0, True, 0.1)
        theta = result.theta_hat
        assert (result.A_m, result.A_h, result.delta) == r
        raw = np.array([theta.alpha, theta.p_h, theta.p_m, theta.xi, theta.delta])
        assert all(lo <= v <= hi for v, (lo, hi) in zip(raw, DEFAULT_BOUNDS))
        back = _reduce(*raw, 0.1, theta.delta)
        assert np.all(np.abs(np.array([back.A_m, back.A_h, back.u_max]) - r)
                      <= 4 * np.spacing(np.array(r)))

    def test_stops_at_max_nfev_unconverged(self, monkeypatch):
        monkeypatch.setattr(estimation, "_MAX_NFEV", 2)
        result = fit(make_dataset())
        assert not result.converged
        assert result.iterations == 2

    def test_final_objective_not_worse_than_start(self):
        data = make_dataset()
        start = objective(DEFAULT_THETA0, data)
        result = fit(data)
        assert result.objective_value <= start + 1e-15


def seeded_outbreaks(n=12, seed=2013):
    """Prevalence of n outbreaks whose raw parameters are drawn uniformly
    within +-15% of the Cali estimate, clipped to DEFAULT_BOUNDS."""
    rng = np.random.default_rng(seed)
    lb, ub = np.array(DEFAULT_BOUNDS).T
    cali = estimation._theta_array(CALI_2013_ESTIMATE)
    lo, hi = np.maximum(lb, 0.85 * cali), np.minimum(ub, 1.15 * cali)
    return [incidence_to_prevalence(generate_synthetic_incidence(rng.uniform(lo, hi)))
            for _ in range(n)]


def scipy_trf(data, theta0=DEFAULT_THETA0):
    """scipy's least_squares(method="trf") on fit's residuals and dh/dr, from
    the same start, in the same box and at the same tolerances."""
    t = data.days.astype(float)

    def solve(x):
        rates = ModelRates(x[0], x[1], 0.1, u_min=x[2], u_max=x[2])
        h, dh = _sensitivity_system(rates, float(data.h_hat[0]), t)
        return h[1:] - data.h_hat[1:], dh[1:]

    return least_squares(lambda x: solve(x)[0], rates_of(theta0), jac=lambda x: solve(x)[1],
                         bounds=np.array(RATE_BOUNDS).T, method="trf", ftol=1e-10,
                         xtol=1e-10, gtol=1e-12, max_nfev=400)


class TestTrfAgainstScipy:
    """The in-house trust-region reflective solver against scipy's, on
    seeded outbreaks and on the synthetic Cali outbreak, whose delta is the
    bound 1/30."""

    def test_same_rates_in_no_more_evaluations(self):
        outbreaks = [*seeded_outbreaks(), incidence_to_prevalence(generate_synthetic_incidence())]
        ours = theirs = 0
        for data in outbreaks:
            result, ref = fit(data), scipy_trf(data)
            assert result.converged and ref.success
            r = np.array([result.A_m, result.A_h, result.delta])
            assert np.all(np.abs(r - ref.x) <= 1e-8 * np.abs(ref.x))
            ours += result.iterations
            theirs += ref.nfev
        assert ours <= theirs


class TestSyntheticIncidence:
    def test_roundtrip_through_prevalence(self):
        series = generate_synthetic_incidence()
        data = incidence_to_prevalence(series)
        t = data.days.astype(float)
        h = simulate_h(CALI_2013_ESTIMATE, float(data.h_hat[0]), t)
        # counts are integers, so prevalence matches to ~1 case / population
        assert np.max(np.abs(h - data.h_hat)) < 5.0 / series.population

    def test_cali_estimate_lies_in_the_fit_box(self):
        raw = estimation._theta_array(CALI_2013_ESTIMATE)
        assert all(lo <= v <= hi for v, (lo, hi) in zip(raw, DEFAULT_BOUNDS))

    def test_fit_from_the_cali_estimate_converges(self):
        data = incidence_to_prevalence(generate_synthetic_incidence())
        result = fit(data, theta0=CALI_2013_ESTIMATE)
        assert result.converged
        assert result.A_m == pytest.approx(0.3365 * 0.1532, rel=0.05)
        assert result.A_h == pytest.approx(0.3365 * 0.2287 * 1.0359, rel=0.05)

    def test_fit_on_rounded_counts(self):
        series = generate_synthetic_incidence()
        data = incidence_to_prevalence(series)
        result = fit(data)
        assert result.converged
        assert result.A_m == pytest.approx(0.3365 * 0.1532, rel=0.05)
        assert result.A_h == pytest.approx(0.3365 * 0.2287 * 1.0359, rel=0.05)


class TestCSV:
    def test_incidence_roundtrip(self, tmp_path):
        p = tmp_path / "inc.csv"
        p.write_text("day,new_cases\n0,5\n1,7\n2,0\n")
        s = read_incidence_csv(p, population=1000)
        assert list(s.days) == [0, 1, 2]
        assert list(s.new_cases) == [5.0, 7.0, 0.0]

    def test_prevalence_roundtrip(self, tmp_path):
        data = make_dataset(days=10)
        p = tmp_path / "prev.csv"
        write_prevalence_csv(p, data)
        back = read_prevalence_csv(p)
        assert np.array_equal(back.days, data.days)
        assert np.max(np.abs(back.h_hat - data.h_hat)) < 1e-12

    def test_bad_population_is_not_blamed_on_the_file(self, tmp_path):
        p = tmp_path / "inc.csv"
        p.write_text("day,new_cases\n0,5\n1,7\n")
        for path in (p, tmp_path / "missing.csv"):
            with pytest.raises(ValueError, match="population") as exc:
                read_incidence_csv(path, population=0)
            assert not isinstance(exc.value, MalformedCSVError)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,cases\n0,5\n")
        with pytest.raises(MalformedCSVError):
            read_incidence_csv(p, population=1000)

    def test_bad_row_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("day,new_cases\n0,5\n1,oops\n")
        with pytest.raises(MalformedCSVError) as exc:
            read_incidence_csv(p, population=1000)
        assert exc.value.line == 3

    @pytest.mark.parametrize("rows, line, message", [
        ("0,5\n1,7\n2,9\n4,3\n", 5, "contiguous"),
        ("0,5\n1,7\n2,9\n\n4,3\n", 6, "contiguous"),
        ("0,5\n\n1,7\n2,-9\n3,3\n", 5, "nonnegative"),
    ], ids=["gap", "blank-line-before-gap", "negative-count"])
    def test_series_fault_names_its_own_line(self, tmp_path, rows, line, message):
        p = tmp_path / "gap.csv"
        p.write_text("day,new_cases\n" + rows)
        with pytest.raises(MalformedCSVError, match=message) as exc:
            read_incidence_csv(p, population=1000)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"{p}:{line}:")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(MalformedCSVError):
            read_incidence_csv(p, population=1000)

    def test_header_only(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("day,new_cases\n")
        with pytest.raises(MalformedCSVError):
            read_incidence_csv(p, population=1000)
