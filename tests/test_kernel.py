"""Tests for regime classification, the frontier curve and kernel queries.

Medium-regime fixtures use the reduced rates A_h=0.31066, A_m=0.02906,
gamma=0.1, u_max=0.03733 with H_bar=0.5.  The library traces the frontier
as the boundary ODE Y'(m) = g_h / g_m under u_max, integrated in m from
(M_bar, H_bar).  Its endpoint for that instance is frozen at
M_inf = 0.427869601 and is also cross-checked at run time against the
time-reversed u_max orbit (tests/frontier_oracle.py), an independent
method; the two agree to 1e-9.  The samples in between are checked
against scipy's RK45 on the same boundary ODE, which checks consistency
only, as it is the library's own formulation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rossmac import kernel
from rossmac.kernel import (
    _DISTANCE_BLOCK,
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

from frontier_oracle import boundary_ode_values, least_cap, reversed_orbit_exit
from parity_points import hard_points, same_bits
from viability_grid import NODES, grid_viability_kernel

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


def polyline_distance(xs, ys, m: float, h: float) -> float:
    """Distance from (m, h) to the polyline through the vertices (xs, ys),
    one segment at a time in plain floats."""
    best = math.inf
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        dx, dy = x1 - x0, y1 - y0
        seg2 = dx * dx + dy * dy
        t = 0.0 if seg2 == 0.0 else ((m - x0) * dx + (h - y0) * dy) / seg2
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(m - (x0 + t * dx), h - (y0 + t * dy)))
    return best


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

    def test_cap_whose_frontier_cannot_start_is_flagged(self):
        # At H_bar = lower, (M_bar, H_bar) is the u_max equilibrium and g_m
        # rounds to 3.5e-18 >= 0: the frontier cannot start.  One ulp above,
        # it can.
        lower = regime_thresholds(MEDIUM_RATES)[0]
        assert lower == 0.44368002237949816
        assert classify_regime(MEDIUM_RATES, lower) is Regime.MEDIUM
        assert outside_proven_hypotheses(MEDIUM_RATES, lower)
        with pytest.raises(FrontierIntegrationError):
            boundary_curve(MEDIUM_RATES, lower)
        above = math.nextafter(lower, 1.0)
        assert not outside_proven_hypotheses(MEDIUM_RATES, above)
        desc = build_kernel(MEDIUM_RATES, above)
        assert desc.regime is Regime.MEDIUM and not desc.outside_proven_hypotheses

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
        fm, fy = boundary_curve(rates, 0.5, step=1e-3)
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

    def test_near_the_lower_threshold(self):
        # Just above the lower threshold, (M_bar, H_bar) lies near the node
        # of the u_max field, where the quotient g_h / g_m is 0 over a tiny
        # negative g_m.  The last cell is the worst one a scan found.
        worst = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.005,
                           u_max=0.009914664442985983)
        cells = [(MEDIUM_RATES, gap) for gap in (1e-14, 1e-10, 1e-8)] + [(worst, 1e-8)]
        for rates, gap in cells:
            H_bar = regime_thresholds(rates)[0] + gap
            fm, fy = boundary_curve(rates, H_bar)
            assert np.all(np.diff(fy) < 0.0)
            orbit = reversed_orbit_exit(rates, fm[0], H_bar)
            assert orbit.edge == "h=0" and fy[-1] == 0.0
            assert fm[-1] == pytest.approx(orbit.m, abs=1e-8)

    def test_samples_match_boundary_ode(self, medium_kernel):
        # boundary_ode_values integrates the library's own formulation, so
        # this checks consistency with scipy's RK45; the independent oracle
        # is the time-reversed orbit of the end-point tests.
        kernels = (
            (MEDIUM_RATES, medium_kernel),
            (STRONG_RATES, build_kernel(STRONG_RATES, 0.5)),
            (Y1_RATES, build_kernel(Y1_RATES, Y1_H_BAR)),
        )
        for rates, desc in kernels:
            y = boundary_ode_values(rates, desc.M_bar, desc.H_bar, desc.frontier_m)
            assert np.max(np.abs(y - desc.frontier_y)) < 1e-8

    def test_low_regime_precondition_reported(self):
        # In the low regime g_m starts nonnegative: the u_max orbit arriving
        # at (M_bar, H_bar) does not come from larger m.
        with pytest.raises(FrontierIntegrationError):
            boundary_curve(MEDIUM_RATES, 0.4, step=1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            boundary_curve(MEDIUM_RATES, 0.5, step=0.0)

    def test_step_giving_more_samples_than_the_cap_is_refused(self, monkeypatch):
        # M_inf - M_bar = 0.106 here: some 53 samples at step 2e-3, 106 at 1e-3.
        monkeypatch.setattr(kernel, "_MAX_SAMPLES", 100)
        assert build_kernel(MEDIUM_RATES, 0.5, step=2e-3).regime is Regime.MEDIUM
        with pytest.raises(ValueError, match=r"step=0\.001 gives more than 100 frontier samples"):
            build_kernel(MEDIUM_RATES, 0.5, step=1e-3)


class TestKernelDescription:
    def test_ends_are_the_samples_ends(self, medium_kernel):
        fm, fy = medium_kernel.frontier_m, medium_kernel.frontier_y
        with pytest.raises(TypeError):
            KernelDescription(regime=Regime.MEDIUM, H_bar=0.5, M_inf=0.9,
                              frontier_m=fm, frontier_y=fy)
        rebuilt = KernelDescription(regime=Regime.MEDIUM, H_bar=0.5, frontier_m=fm, frontier_y=fy)
        assert (rebuilt.M_bar, rebuilt.M_inf) == (fm[0], fm[-1])
        # The samples end at m = 0.4279: (0.8, 0) lies far outside.
        assert not rebuilt.contains(0.8, 0.0)

    def test_samples_are_read_only_copies(self):
        fm, fy = boundary_curve(MEDIUM_RATES, 0.5)
        desc = KernelDescription(regime=Regime.MEDIUM, H_bar=0.5, frontier_m=fm, frontier_y=fy)
        fy[60:] = 0.0  # the caller's arrays stay its own
        with pytest.raises(ValueError):
            desc.frontier_y[60] = 0.0
        with pytest.raises(ValueError):
            desc.frontier_m[60] = 0.0
        assert desc.frontier_value(0.40) == np.interp(0.40, desc.frontier_m, desc.frontier_y) > 0.2
        assert desc.contains(0.40, 0.2)

    @pytest.mark.parametrize("column, i", [("y", 0), ("m", 50), ("y", 50), ("y", -1)])
    def test_nan_sample_is_refused(self, column, i):
        fm, fy = boundary_curve(MEDIUM_RATES, 0.5)
        (fm if column == "m" else fy)[i] = math.nan
        with pytest.raises(ValueError, match="unit square"):
            KernelDescription(regime=Regime.MEDIUM, H_bar=0.5, frontier_m=fm, frontier_y=fy)

    @pytest.mark.parametrize(
        "fm, fy",
        [([0.3, 0.35, 0.4], [0.5]),  # lengths differ
         ([[0.3, 0.35, 0.4]], [[0.5, 0.3, 0.0]]),  # 2-D
         ([0.3], [0.5]),  # one sample
         ([], []),
         (None, None),  # a medium kernel needs samples
         ([0.3, 0.35, 0.4], None)],
    )
    def test_samples_of_the_wrong_shape_are_refused(self, fm, fy):
        with pytest.raises(ValueError, match="two 1-D arrays of one length >= 2"):
            KernelDescription(regime=Regime.MEDIUM, H_bar=0.5, frontier_m=fm, frontier_y=fy)


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

    @pytest.mark.parametrize("rates, H_bar", [(MEDIUM_RATES, 0.5), (STRONG_RATES, 0.5),
                                              (Y1_RATES, Y1_H_BAR)], ids=["baseline", "strong", "y1"])
    def test_agrees_with_forward_least_cap(self, rates, H_bar):
        # contains reads the polyline of the frontier trace; least_cap uses
        # forward time alone.  Points within four chord sags (|Y''| dx^2 / 8,
        # Y'' from the samples) of the polyline are left out.  Half the
        # points lie 1.5 to 3 such bands above or below the curve.
        desc = build_kernel(rates, H_bar)
        dx = np.diff(desc.frontier_m)
        slope = np.diff(desc.frontier_y) / dx
        curvature = np.abs(np.diff(slope)) / (0.5 * (dx[1:] + dx[:-1]))
        band = 4 * curvature.max() * dx.max() ** 2 / 8
        rng = np.random.default_rng(0)
        m_near = rng.uniform(desc.M_bar, desc.M_inf, 100)
        h_near = desc.frontier_value(m_near) + rng.choice([-1, 1], 100) * rng.uniform(1.5, 3, 100) * band
        m = np.concatenate((rng.uniform(0.0, 1.0, 100), m_near))
        h = np.concatenate((rng.uniform(0.0, H_bar, 100), h_near))
        far = (np.abs(h - desc.frontier_value(m)) > band) & (h >= 0.0)
        inside = [least_cap(rates, a, b) <= H_bar for a, b in zip(m[far], h[far])]
        assert 0 < sum(inside) < len(inside)
        assert np.array_equal(inside, desc.contains(m[far], h[far]))

    @pytest.mark.parametrize("H_bar", [0.5, 0.6, 0.7, 0.8])
    def test_agrees_with_grid_viability_kernel(self, H_bar):
        # Nearest-node rounding moves the grid kernel's edge by a few grid
        # steps, so nodes within four m-steps of the frontier curve are left
        # out.  Low caps are not checked: there rounding holds slow points
        # near the origin in place, and the grid kernel stays far too large.
        band = 4.0 / (NODES - 1)
        desc = build_kernel(MEDIUM_RATES, H_bar)
        m, h, grid_inside = grid_viability_kernel(MEDIUM_RATES, H_bar)
        inside = desc.contains(m, h)
        assert 0 < inside.sum() and (desc.regime is Regime.HIGH or not inside.all())
        for a, b in zip(m[inside != grid_inside], h[inside != grid_inside]):
            assert polyline_distance(desc.frontier_m, desc.frontier_y, a, b) <= band

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

    def test_matches_segment_loop_oracle(self, medium_kernel):
        kernels = (
            medium_kernel,
            build_kernel(STRONG_RATES, 0.5),
            build_kernel(Y1_RATES, Y1_H_BAR),
        )
        rng = np.random.default_rng(11)
        for k in kernels:
            # The flat cap from (0, H_bar) joined with the frontier samples.
            xs = [0.0] + [float(x) for x in k.frontier_m]
            ys = [k.H_bar] + [float(y) for y in k.frontier_y]
            box = rng.uniform(0.0, 1.0, (30, 2))
            under = rng.uniform(0.0, 1.0, (30, 2)) * [k.M_inf, 1.0]
            under[:, 1] *= np.interp(under[:, 0], xs, ys)
            points = np.concatenate((box, under))
            inside = k.contains(points[:, 0], points[:, 1])
            assert inside.any() and not inside.all()
            got = k.frontier_distance(points[:, 0], points[:, 1])
            for (m, h), d in zip(points.tolist(), got):
                oracle = polyline_distance(xs, ys, m, h)
                assert abs(d - oracle) <= 1e-12 and abs(k.frontier_distance(m, h) - oracle) <= 1e-12

    @pytest.mark.parametrize(
        "n",
        [0, 1, _DISTANCE_BLOCK - 1, _DISTANCE_BLOCK, _DISTANCE_BLOCK + 1, 2 * _DISTANCE_BLOCK + 1],
    )
    def test_sizes_around_the_block(self, medium_kernel, n):
        rng = np.random.default_rng(n)
        m, h = rng.uniform(0.0, 1.0, (2, n))
        d = medium_kernel.frontier_distance(m, h)
        assert d.shape == (n,)
        for i in range(n):
            assert d[i] == medium_kernel.frontier_distance(m[i], h[i])

    @pytest.mark.parametrize(
        "m_shape, h_shape",
        [((), ()), ((), (5,)), ((3, 1), (4,)), ((9, 1), (8,)), ((), (2 * _DISTANCE_BLOCK + 1,)),
         ("hard", "hard")],
    )
    def test_broadcast_shapes(self, medium_kernel, m_shape, h_shape):
        k = medium_kernel
        if m_shape == "hard":
            m, h = np.array(hard_points(k)).T
            m_shape = h_shape = m.shape
        else:
            rng = np.random.default_rng(len(m_shape) + len(h_shape))
            m, h = rng.uniform(0.0, 1.0, m_shape), rng.uniform(0.0, 1.0, h_shape)
        fb = SaturatingFeedback(k, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        shape = np.broadcast_shapes(m_shape, h_shape)
        bm, bh = np.broadcast_arrays(m, h)
        # The hard points' non-finite ones lie outside the kernel, at distance
        # inf (NaN with a NaN coordinate), and get u_max, without a warning.
        d = k.frontier_distance(m, h)
        assert np.shape(d) == shape
        # A float call gives the bits of the array call, for the distance,
        # membership and the feedback law alike.
        arrays = d, k.contains(m, h), fb.control(0.0, m, h)
        for i in np.ndindex(shape):
            p = float(bm[i]), float(bh[i])
            floats = k.frontier_distance(*p), k.contains(*p), fb.control(0.0, *p)
            for a, f in zip(arrays, floats):
                assert same_bits(a[i], f), p
            # np.float64 points, which are floats too, take the same path.
            q = np.float64(bm[i]), np.float64(bh[i])
            floats = k.frontier_distance(*q), k.contains(*q), fb.control(0.0, *q)
            for a, f in zip(arrays, floats):
                assert same_bits(a[i], f), p

    def test_float_queries_never_call_nearest(self, medium_kernel, monkeypatch):
        # _nearest is the array path.  A deep point sees much of the curve
        # about equally far, so its run of candidate segments is long; it is
        # still scanned in plain Python, and so is every law call that the
        # integrator makes.
        k = medium_kernel
        calls = []
        nearest = KernelDescription._nearest
        monkeypatch.setattr(KernelDescription, "_nearest",
                            lambda self, m, h: calls.append(m) or nearest(self, m, h))
        for p in [(0.1, 0.1), (0.01, 0.01), (0.3, 0.45), (0.0, 0.0)]:
            assert k.frontier_distance(*p) == k.frontier_distance(*np.array([p]).T)[0]
        assert len(calls) == 4  # the array calls alone
        during = []

        class Watched(SaturatingFeedback):
            def pieces(self, horizon):
                def law(t, m, h):
                    before = len(calls)
                    u = self.control(t, m, h)
                    during.append(len(calls) - before)
                    return u
                return [(0.0, horizon, law)]

        simulate(State(0.1, 0.1), Watched(k, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max),
                 MEDIUM_RATES, 200.0)
        assert len(during) > 100 and sum(during) == 0

    def test_non_finite_points_lie_outside(self, medium_kernel):
        k = medium_kernel
        fb = SaturatingFeedback(k, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        inf, nan = math.inf, math.nan
        points = [(0.1, -inf), (0.1, inf), (-inf, 0.1), (inf, 0.1), (inf, -inf), (nan, 0.1),
                  (0.1, nan), (nan, inf)]
        for m, h in points:
            assert not k.contains(m, h)
            d = k.frontier_distance(m, h)
            assert np.ndim(d) == 0
            assert math.isnan(d) if math.isnan(m) or math.isnan(h) else d == inf
            assert fb.control(0.0, m, h) == MEDIUM_RATES.u_max
        m, h = np.array(points + [(0.1, 0.1)]).T
        assert not np.any(k.contains(m, h)[:-1]) and k.contains(m, h)[-1]
        assert np.all(fb.control(0.0, m, h)[:-1] == MEDIUM_RATES.u_max)
        assert k.frontier_distance(m, h)[-1] == k.frontier_distance(0.1, 0.1)
        high = build_kernel(MEDIUM_RATES, 0.9)
        assert not np.any(high.contains(m, h)[:-1]) and high.contains(0.1, 0.1)


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
        r = MEDIUM_RATES
        upper = regime_thresholds(r)[1]
        u_zero_lower = r.A_h * r.A_m / r.gamma  # lower = 0 up to rounding
        # Ties: H at upper, H at the lower threshold of grid u = 0.03733,
        # u = 0 (lower = upper), lower <= 0, and u below r.u_min.
        u_grid = [*np.linspace(0.0, 0.1, 7), 0.03733, u_zero_lower, 0.2, r.u_min / 2]
        H_grid = [*np.linspace(0.05, 0.95, 9), upper, regime_thresholds(r, 0.03733)[0]]
        grid = regime_diagram(r, u_grid, H_grid)
        for i, H in enumerate(H_grid):
            for j, u in enumerate(u_grid):
                cell = ModelRates(A_m=r.A_m, A_h=r.A_h, gamma=r.gamma, u_min=0.0, u_max=u)
                assert grid[i][j] is classify_regime(cell, H)
        assert all(cell is Regime.HIGH for cell in grid[-2])
        assert grid[-1][7] is Regime.MEDIUM and grid[-1][0] is Regime.LOW
        assert regime_diagram(r, np.array(u_grid), np.array(H_grid)) == grid
        assert regime_diagram(r, iter(u_grid), (H for H in H_grid)) == grid
        for u_bad in (-0.01, math.nan):
            with pytest.raises(ValueError):
                regime_diagram(r, [0.02, u_bad], [0.5])
        for H_bad in (0.0, 1.0):
            with pytest.raises(ValueError, match="H_bar"):
                regime_diagram(r, [0.02], [0.5, H_bad])


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
