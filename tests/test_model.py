"""Tests for the vector field, parameter reduction, equilibria and the
componentwise comparison oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rossmac.model import (
    EpiParams,
    ModelRates,
    State,
    check_dominance,
    derive_rates,
    endemic_equilibrium,
    g_h,
    g_m,
    vector_field,
)
from rossmac.trajectory import ConstantControl, PiecewiseConstantControl, simulate

RATES = ModelRates(A_m=0.2, A_h=0.3, gamma=0.1, u_min=0.05, u_max=0.25)


class TestTypes:
    def test_epiparams_rejects_probability_above_one(self):
        with pytest.raises(ValueError):
            EpiParams(alpha=0.3, p_h=1.2, p_m=0.1, xi=1.0, delta=0.03, gamma=0.1)

    def test_epiparams_rejects_negative(self):
        with pytest.raises(ValueError):
            EpiParams(alpha=-0.1, p_h=0.5, p_m=0.1, xi=1.0, delta=0.03, gamma=0.1)

    def test_rates_reject_inverted_bounds(self):
        with pytest.raises(ValueError):
            ModelRates(A_m=0.1, A_h=0.1, gamma=0.1, u_min=0.2, u_max=0.1)

    def test_state_rejects_outside_unit_square(self):
        with pytest.raises(ValueError):
            State(m=1.5, h=0.2)
        with pytest.raises(ValueError):
            State(m=0.5, h=float("nan"))


class TestDeriveRates:
    # Estimated raw parameters from the 2013 Cali fit.
    CALI = EpiParams(alpha=0.3365, p_h=0.2287, p_m=0.1532, xi=1.0359,
                     delta=0.0333, gamma=0.1)

    def test_products(self):
        rates = derive_rates(self.CALI, u_max=0.05)
        assert rates.A_m == pytest.approx(0.3365 * 0.1532, abs=0.0)
        assert rates.A_h == pytest.approx(0.3365 * 0.2287 * 1.0359, abs=0.0)
        assert rates.A_m == pytest.approx(0.051552, abs=1e-6)
        assert rates.A_h == pytest.approx(0.0797197, rel=1e-4)
        assert rates.gamma == 0.1
        assert rates.u_min == self.CALI.delta

    def test_zero_biting_rate(self):
        p = EpiParams(alpha=0.0, p_h=0.5, p_m=0.5, xi=2.0, delta=0.03, gamma=0.1)
        rates = derive_rates(p, u_max=0.1)
        assert rates.A_m == 0.0 and rates.A_h == 0.0

    def test_rejects_umax_below_delta(self):
        with pytest.raises(ValueError):
            derive_rates(self.CALI, u_max=0.01)


class TestVectorField:
    def test_origin_is_equilibrium_for_every_control(self):
        for u in (RATES.u_min, 0.1, RATES.u_max):
            assert vector_field(State(0.0, 0.0), u, RATES) == (0.0, 0.0)

    def test_saturated_mosquito_edge(self):
        # dm/dt = -u on the line m = 1
        for h in (0.0, 0.3, 1.0):
            dm, _ = vector_field(State(1.0, h), 0.2, RATES)
            assert dm == pytest.approx(-0.2, abs=1e-15)

    def test_hand_substitution(self):
        dm, dh = vector_field(State(0.5, 0.5), 0.2, RATES)
        assert dm == pytest.approx(-0.05, abs=1e-15)
        assert dh == pytest.approx(0.025, abs=1e-15)

    def test_rejects_control_outside_bounds(self):
        with pytest.raises(ValueError):
            vector_field(State(0.5, 0.5), 0.3, RATES)

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.floats(0.0, 1.0),
        h=st.floats(0.0, 1.0),
        u=st.floats(0.05, 0.25),
    )
    def test_quasi_monotone_cross_derivatives(self, m, h, u):
        # off-diagonal partials are A_m(1-m) and A_h(1-h), checked by
        # central differences
        eps = 1e-6
        hm = min(h + eps, 1.0)
        hp = max(h - eps, 0.0)
        dgm_dh = (g_m(m, hm, u, RATES) - g_m(m, hp, u, RATES)) / (hm - hp) if hm > hp else 0.0
        mm = min(m + eps, 1.0)
        mp = max(m - eps, 0.0)
        dgh_dm = (g_h(mm, h, RATES) - g_h(mp, h, RATES)) / (mm - mp) if mm > mp else 0.0
        assert dgm_dh >= -1e-12
        assert dgh_dm >= -1e-12
        if hm > hp:
            assert dgm_dh == pytest.approx(RATES.A_m * (1.0 - m), rel=1e-6, abs=1e-9)
        if mm > mp:
            assert dgh_dm == pytest.approx(RATES.A_h * (1.0 - h), rel=1e-6, abs=1e-9)


class TestEndemicEquilibrium:
    def test_closed_form(self):
        eq = endemic_equilibrium(RATES, 0.2)
        assert eq.m == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert eq.h == pytest.approx(0.5, abs=1e-12)
        dm, dh = vector_field(eq, 0.2, RATES)
        assert max(abs(dm), abs(dh)) < 1e-12

    def test_absent_when_condition_violated(self):
        rates = ModelRates(A_m=0.05, A_h=0.05, gamma=0.1, u_min=0.05, u_max=0.2)
        assert endemic_equilibrium(rates, 0.1) is None

    def test_rejects_control_outside_bounds(self):
        for u in (0.01, 0.3):
            with pytest.raises(ValueError, match=r"outside bounds \[0.05, 0.25\]"):
                endemic_equilibrium(RATES, u)

    def test_boundary_treated_as_absent(self):
        # u = A_m*A_h/gamma exactly
        rates = ModelRates(A_m=0.2, A_h=0.3, gamma=0.1, u_min=0.05, u_max=0.8)
        assert endemic_equilibrium(rates, 0.6) is None

    def test_residual_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            A_m = rng.uniform(0.05, 0.6)
            A_h = rng.uniform(0.05, 0.6)
            gamma = rng.uniform(0.05, 0.3)
            u = rng.uniform(0.01, 0.2)
            if A_m * A_h - gamma * u <= 0:
                continue
            rates = ModelRates(A_m=A_m, A_h=A_h, gamma=gamma, u_min=0.0, u_max=max(u, 0.3))
            eq = endemic_equilibrium(rates, u)
            dm, dh = vector_field(eq, u, rates)
            assert max(abs(dm), abs(dh)) < 1e-10


class TestDominance:
    def test_reflexive(self):
        traj = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 20.0, dt_out=1.0)
        assert check_dominance(traj, traj, tol=0.0)

    def test_origin_below_everything(self):
        lo = simulate(State(0.0, 0.0), ConstantControl(RATES.u_max), RATES, 20.0, dt_out=1.0)
        hi = simulate(State(0.7, 0.4), ConstantControl(0.1), RATES, 20.0, dt_out=1.0)
        assert np.all(lo.m == 0.0) and np.all(lo.h == 0.0)
        assert check_dominance(lo, hi, tol=1e-8)

    def test_mismatched_grids_rejected(self):
        a = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 20.0, dt_out=1.0)
        b = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 20.0, dt_out=0.5)
        with pytest.raises(ValueError):
            check_dominance(a, b, tol=1e-8)

    def test_max_control_trajectory_dominated(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m_lo, h_lo = rng.uniform(0.0, 0.8, size=2)
            m_hi = rng.uniform(m_lo, 1.0)
            h_hi = rng.uniform(h_lo, 1.0)
            lo = simulate(State(m_lo, h_lo), ConstantControl(RATES.u_max), RATES, 50.0, dt_out=1.0)
            u_weak = rng.uniform(RATES.u_min, RATES.u_max)
            hi = simulate(State(m_hi, h_hi), ConstantControl(u_weak), RATES, 50.0, dt_out=1.0)
            assert check_dominance(lo, hi, tol=1e-8)

    def test_dominance_under_piecewise_control(self):
        lo = simulate(State(0.2, 0.1), ConstantControl(RATES.u_max), RATES, 40.0, dt_out=1.0)
        pw = PiecewiseConstantControl(((0.0, 0.1), (15.0, 0.2), (30.0, 0.08)))
        hi = simulate(State(0.2, 0.1), pw, RATES, 40.0, dt_out=1.0)
        assert check_dominance(lo, hi, tol=1e-8)


class TestGlobalAttraction:
    def test_interior_starts_converge(self):
        rng = np.random.default_rng(11)
        eq = endemic_equilibrium(RATES, 0.2)
        horizon = 50.0 / RATES.gamma
        for _ in range(20):
            start = State(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
            traj = simulate(start, ConstantControl(0.2), RATES, horizon, dt_out=horizon / 50)
            m_end, h_end = traj.final_state()
            assert max(abs(m_end - eq.m), abs(h_end - eq.h)) < 1e-3
