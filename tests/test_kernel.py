"""Tests for regime classification, the frontier curve and kernel queries.

Medium-regime fixtures use the reduced rates A_h=0.31066, A_m=0.02906,
gamma=0.1, u_max=0.03733 with H_bar=0.5.  The library traces the frontier
as the backward u_max orbit from (M_bar, H_bar).  Its endpoint for that
instance is frozen at M_inf = 0.427869601 and is also cross-checked at run
time against a tighter backward orbit (tests/frontier_oracle.py); the two
agree to 1e-9.  The samples in between are checked against the boundary
ODE Y'(m) = g_h / g_m, integrated in m by the same oracle module.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rossmac.kernel import (
    FrontierIntegrationError,
    KernelDescription,
    Regime,
    boundary_curve,
    build_kernel,
    classify_regime,
    distance_to_frontier,
    kernel_membership,
    m_bar,
    outside_proven_hypotheses,
    regime_diagram,
    regime_thresholds,
)
from rossmac.model import ModelRates, State, g_h, g_m
from rossmac.trajectory import ConstantControl, SaturatingFeedback, audit_viability, simulate

from frontier_oracle import boundary_ode_values, reversed_orbit_exit

MEDIUM_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.03733)
STRONG_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.3733)
# The medium cell where integrating the frontier in m, at rtol = atol = 1e-9,
# missed the orbit's end through m = 1 by 2.6e-8.
Y1_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.0176054269488865)
Y1_H_BAR = 0.7217515362100086
M_INF_FROZEN = 0.427869601


@pytest.fixture(scope="module")
def medium_kernel():
    return build_kernel(MEDIUM_RATES, 0.5, step=2e-4)


class TestClassification:
    def test_thresholds(self):
        lower, upper = regime_thresholds(MEDIUM_RATES)
        assert lower == pytest.approx(0.44368, abs=1e-5)
        assert upper == pytest.approx(0.75649, abs=1e-5)

    def test_medium(self):
        assert classify_regime(MEDIUM_RATES, 0.5) is Regime.MEDIUM

    def test_low(self):
        assert classify_regime(MEDIUM_RATES, 0.4) is Regime.LOW

    def test_high(self):
        assert classify_regime(MEDIUM_RATES, 0.9) is Regime.HIGH
        # Table-A1-derived rates: upper threshold 0.44357 < 0.9
        rates = ModelRates(A_m=0.051552, A_h=0.0797197, gamma=0.1, u_min=0.0333, u_max=0.05)
        assert classify_regime(rates, 0.9) is Regime.HIGH

    def test_nonpositive_lower_threshold_classified_medium(self):
        rates = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.5)
        lower, upper = regime_thresholds(rates)
        assert lower <= 0.0
        assert classify_regime(rates, 0.3) is Regime.MEDIUM
        assert outside_proven_hypotheses(rates, 0.3)
        assert not outside_proven_hypotheses(MEDIUM_RATES, 0.5)

    def test_zero_am_rejected(self):
        rates = ModelRates(A_m=0.0, A_h=0.3, gamma=0.1, u_min=0.0, u_max=0.1)
        with pytest.raises(ValueError, match="threshold undefined"):
            classify_regime(rates, 0.5)

    def test_hbar_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            classify_regime(MEDIUM_RATES, 0.0)
        with pytest.raises(ValueError):
            classify_regime(MEDIUM_RATES, 1.0)


class TestMBar:
    def test_hand_value(self):
        assert m_bar(MEDIUM_RATES, 0.5) == pytest.approx(0.321896, abs=1e-6)

    def test_h_isocline_root(self):
        mb = m_bar(MEDIUM_RATES, 0.5)
        assert abs(g_h(mb, 0.5, MEDIUM_RATES)) < 1e-12

    def test_exactly_one_at_high_threshold(self):
        _, upper = regime_thresholds(MEDIUM_RATES)
        assert m_bar(MEDIUM_RATES, upper) == pytest.approx(1.0, abs=1e-9)

    def test_vanishes_with_cap(self):
        assert m_bar(MEDIUM_RATES, 1e-9) < 1e-8

    def test_zero_ah_rejected(self):
        rates = ModelRates(A_m=0.1, A_h=0.0, gamma=0.1, u_min=0.0, u_max=0.1)
        with pytest.raises(ValueError):
            m_bar(rates, 0.5)


class TestBoundaryCurve:
    def test_initial_condition_and_flat_start(self, medium_kernel):
        fm, fy = medium_kernel.frontier_m, medium_kernel.frontier_y
        assert fm[0] == pytest.approx(m_bar(MEDIUM_RATES, 0.5), abs=1e-15)
        assert fy[0] == 0.5
        # Y'(M_bar) = 0, so the first sampled slope is set by the curvature:
        # Y''(M_bar) = (dg_h/dm) / g_m evaluated at the start point, and the
        # secant over the first step is about Y''*step/2.
        slope0 = (fy[1] - fy[0]) / (fm[1] - fm[0])
        den0 = g_m(fm[0], fy[0], MEDIUM_RATES.u_max, MEDIUM_RATES)
        curvature = MEDIUM_RATES.A_h * (1.0 - fy[0]) / den0
        expected = 0.5 * curvature * (fm[1] - fm[0])
        assert slope0 == pytest.approx(expected, rel=0.05)

    def test_strictly_decreasing(self, medium_kernel):
        assert np.all(np.diff(medium_kernel.frontier_y) < 0.0)

    def test_endpoint_cross_checked_against_orbit(self, medium_kernel):
        orbit = reversed_orbit_exit(MEDIUM_RATES, medium_kernel.M_bar, 0.5)
        assert orbit.edge == "h=0"
        assert medium_kernel.M_inf == pytest.approx(orbit.m, abs=1e-8)
        assert medium_kernel.M_inf == pytest.approx(M_INF_FROZEN, abs=1e-8)
        assert medium_kernel.frontier_y[-1] <= 1e-9

    def test_ode_residual_at_midpoints(self, medium_kernel):
        fm, fy = medium_kernel.frontier_m, medium_kernel.frontier_y
        mm = 0.5 * (fm[:-1] + fm[1:])
        yy = medium_kernel.frontier_value(mm)
        dy = np.diff(fy) / np.diff(fm)
        res = np.array([
            -g_m(m, y, MEDIUM_RATES.u_max, MEDIUM_RATES) * d + g_h(m, y, MEDIUM_RATES)
            for m, y, d in zip(mm, yy, dy)
        ])
        assert np.max(np.abs(res)) < 1e-7

    def test_m_inf_one_when_control_is_strong(self):
        # Larger u_max keeps the frontier above zero all the way to m = 1.
        rates = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.3733)
        m_inf, fm, fy = boundary_curve(rates, 0.5, step=1e-3)
        assert m_inf == 1.0
        assert fm[-1] == 1.0
        assert fy[-1] > 0.0

    def test_cap_just_below_upper_threshold(self):
        # Just below the upper threshold, M_bar lies within a quarter step of
        # m = 1, so the sample grid holds M_bar alone; the frontier must keep
        # it as its start.  Both cells leave the box through m = 1.
        near_upper = regime_thresholds(MEDIUM_RATES)[1] - 1e-6
        for rates, H_bar in ((MEDIUM_RATES, near_upper), (Y1_RATES, Y1_H_BAR)):
            desc = build_kernel(rates, H_bar)
            assert desc.regime is Regime.MEDIUM
            assert desc.frontier_m[0] == desc.M_bar == m_bar(rates, H_bar)
            assert desc.frontier_y[0] == H_bar
            orbit = reversed_orbit_exit(rates, desc.M_bar, H_bar)
            assert orbit.edge == "m=1" and desc.M_inf == 1.0
            assert desc.M_inf == pytest.approx(orbit.m, abs=1e-8)
            assert desc.frontier_y[-1] == pytest.approx(orbit.h, abs=1e-8)

    def test_samples_match_boundary_ode(self, medium_kernel):
        kernels = (
            (MEDIUM_RATES, medium_kernel),
            (STRONG_RATES, build_kernel(STRONG_RATES, 0.5)),
            (Y1_RATES, build_kernel(Y1_RATES, Y1_H_BAR)),
        )
        for rates, desc in kernels:
            y = boundary_ode_values(rates, desc.M_bar, desc.H_bar, desc.frontier_m)
            assert np.max(np.abs(y - desc.frontier_y)) < 1e-8

    def test_low_regime_precondition_reported(self):
        # In the low regime g_m starts nonnegative: the backward orbit heads
        # towards smaller m and is no graph over [M_bar, M_inf].
        with pytest.raises(FrontierIntegrationError):
            boundary_curve(MEDIUM_RATES, 0.4, step=1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            boundary_curve(MEDIUM_RATES, 0.5, step=0.0)


class TestFrontierOrbit:
    def test_frontier_is_an_orbit_under_max_control(self, medium_kernel):
        k = medium_kernel
        for m0 in np.linspace(k.M_bar + 0.01, k.M_inf - 0.005, 5):
            h0 = float(k.frontier_value(m0))
            traj = simulate(
                State(m0, h0),
                ConstantControl(MEDIUM_RATES.u_max),
                MEDIUM_RATES,
                horizon=500.0,
                dt_out=0.25,
                rtol=1e-10,
                atol=1e-12,
                stop_event=lambda t, m, h: m - k.M_bar,
            )
            on_curve = np.clip(traj.m, k.M_bar, k.M_inf)
            dev = np.abs(traj.h - k.frontier_value(on_curve))
            assert np.max(dev) < 1e-5
            m_end, h_end = traj.final_state()
            assert abs(m_end - k.M_bar) < 1e-6
            assert abs(h_end - k.H_bar) < 1e-4


class TestMembership:
    def test_low_regime_origin_only(self):
        desc = KernelDescription(regime=Regime.LOW, H_bar=0.4)
        assert kernel_membership(desc, State(0.0, 0.0))
        assert not kernel_membership(desc, State(1e-9, 0.0))

    def test_high_regime_whole_box(self):
        desc = KernelDescription(regime=Regime.HIGH, H_bar=0.8)
        assert kernel_membership(desc, State(1.0, 0.8))
        assert not kernel_membership(desc, State(0.2, 0.81))

    def test_medium_rectangle_part(self, medium_kernel):
        assert kernel_membership(medium_kernel, State(medium_kernel.M_bar / 2, 0.5))

    def test_medium_beyond_m_inf(self, medium_kernel):
        assert not kernel_membership(medium_kernel, State(medium_kernel.M_inf + 0.01, 0.01))

    def test_medium_across_curve(self, medium_kernel):
        m = 0.5 * (medium_kernel.M_bar + medium_kernel.M_inf)
        y = float(medium_kernel.frontier_value(m))
        assert kernel_membership(medium_kernel, State(m, y - 0.01))
        assert not kernel_membership(medium_kernel, State(m, y + 0.01))
        # the kernel is closed: the curve itself is inside
        assert kernel_membership(medium_kernel, State(m, y))

    def test_curve_across_box_edge_when_m_inf_is_one(self):
        rates = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.3733)
        desc = build_kernel(rates, 0.5, step=1e-3)
        y1 = float(desc.frontier_value(1.0))
        assert kernel_membership(desc, State(1.0, y1 - 0.01))
        assert not kernel_membership(desc, State(1.0, y1 + 0.01))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_membership_monotone(self, medium_kernel, data):
        m = data.draw(st.floats(0.0, 1.0))
        h = data.draw(st.floats(0.0, 1.0))
        if kernel_membership(medium_kernel, State(m, h)):
            m2 = data.draw(st.floats(0.0, m))
            h2 = data.draw(st.floats(0.0, h))
            assert kernel_membership(medium_kernel, State(m2, h2))


class TestDistance:
    def test_zero_on_frontier(self, medium_kernel):
        k = medium_kernel
        assert distance_to_frontier(k, State(0.1, k.H_bar)) == 0.0
        # frontier_value reads the same polyline that the distance measures
        m = 0.5 * (k.M_bar + k.M_inf)
        assert distance_to_frontier(k, State(m, float(k.frontier_value(m)))) < 1e-12

    def test_rejects_outside_states(self, medium_kernel):
        with pytest.raises(ValueError):
            distance_to_frontier(medium_kernel, State(0.9, 0.4))

    def test_rejects_non_medium(self):
        desc = KernelDescription(regime=Regime.HIGH, H_bar=0.8)
        with pytest.raises(ValueError):
            distance_to_frontier(desc, State(0.1, 0.1))

    def test_brute_force_oracle(self, medium_kernel):
        k = medium_kernel
        # dense sampling of the piecewise frontier
        flat_m = np.linspace(0.0, k.M_bar, 20_000)
        curve_m = np.linspace(k.M_bar, k.M_inf, 80_000)
        fx = np.concatenate((flat_m, curve_m))
        fy = np.concatenate((np.full_like(flat_m, k.H_bar), k.frontier_value(curve_m)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            while True:
                s = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
                if kernel_membership(k, s):
                    break
            brute = np.sqrt(np.min((fx - s.m) ** 2 + (fy - s.h) ** 2))
            assert distance_to_frontier(k, s) == pytest.approx(brute, abs=1e-4)


class TestRegimeDiagram:
    def test_high_rows_are_control_independent(self):
        grid = regime_diagram(MEDIUM_RATES, u_grid=[0.0, 0.02, 0.05, 0.2], H_grid=[0.8, 0.9])
        assert all(cell is Regime.HIGH for row in grid for cell in row)

    def test_zero_control_column_is_low_below_threshold(self):
        grid = regime_diagram(MEDIUM_RATES, u_grid=[0.0], H_grid=[0.1, 0.3, 0.5, 0.7])
        assert all(row[0] is Regime.LOW for row in grid)

    def test_medium_cell(self):
        grid = regime_diagram(MEDIUM_RATES, u_grid=[0.03733], H_grid=[0.5])
        assert grid[0][0] is Regime.MEDIUM

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            regime_diagram(MEDIUM_RATES, u_grid=[], H_grid=[0.5])

    def test_matches_sequential_classification(self):
        u_grid = list(np.linspace(0.0, 0.1, 7))
        H_grid = list(np.linspace(0.05, 0.95, 9))
        grid = regime_diagram(MEDIUM_RATES, u_grid, H_grid)
        for i, H in enumerate(H_grid):
            for j, u in enumerate(u_grid):
                cell = ModelRates(A_m=MEDIUM_RATES.A_m, A_h=MEDIUM_RATES.A_h,
                                  gamma=MEDIUM_RATES.gamma, u_min=0.0, u_max=u)
                assert grid[i][j] is classify_regime(cell, H)


class TestViabilityDomainProperties:
    def test_feedback_keeps_states_inside(self, medium_kernel):
        k = medium_kernel
        rng = np.random.default_rng(5)
        horizon = 20.0 / MEDIUM_RATES.gamma
        fb = SaturatingFeedback(k, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        for _ in range(10):
            while True:
                s = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
                if kernel_membership(k, s):
                    break
            traj = simulate(s, fb, MEDIUM_RATES, horizon, dt_out=0.5)
            assert audit_viability(traj, k.H_bar + 1e-6) is None

    def test_states_outside_kernel_eventually_violate(self, medium_kernel):
        k = medium_kernel
        rng = np.random.default_rng(6)
        for _ in range(10):
            while True:
                s = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
                if not kernel_membership(k, s):
                    break
            traj = simulate(
                s, ConstantControl(MEDIUM_RATES.u_max), MEDIUM_RATES, 5000.0,
                dt_out=2.0, stop_event=lambda t, m, h: h - k.H_bar,
            )
            assert audit_viability(traj, k.H_bar) is not None or traj.t[-1] < 5000.0
