"""Tests for the simulation engine, control policies and viability audit."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from rossmac import trajectory
from rossmac.kernel import (
    KernelDescription,
    Regime,
    build_kernel,
    distance_to_frontier,
)
from rossmac.model import ModelRates, State, endemic_equilibrium, g_h, g_m
from rossmac.trajectory import (
    ConstantControl,
    PiecewiseConstantControl,
    SaturatingFeedback,
    SimulationError,
    Trajectory,
    audit_viability,
    simulate,
)

from parity_points import hard_points, same_bits

RATES = ModelRates(A_m=0.2, A_h=0.3, gamma=0.1, u_min=0.05, u_max=0.25)
MEDIUM_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.03733)
STRONG_RATES = dataclasses.replace(MEDIUM_RATES, u_max=0.3733)
# A cell whose frontier leaves the square through m = 1.
Y1_RATES = dataclasses.replace(MEDIUM_RATES, u_max=0.0176054269488865)
Y1_H_BAR = 0.7217515362100086


@pytest.fixture(scope="module")
def medium_kernel():
    return build_kernel(MEDIUM_RATES, 0.5, step=2e-4)


class TestSimulate:
    def test_origin_stays_put(self):
        traj = simulate(State(0.0, 0.0), ConstantControl(0.1), RATES, 50.0, dt_out=1.0)
        assert np.all(traj.m == 0.0) and np.all(traj.h == 0.0)

    def test_grid_and_endpoint(self):
        traj = simulate(State(0.2, 0.2), ConstantControl(0.1), RATES, 10.0, dt_out=0.3)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == 10.0
        assert np.all(np.diff(traj.t) > 0.0)

    def test_converges_to_endemic_equilibrium(self):
        eq = endemic_equilibrium(RATES, 0.15)
        traj = simulate(State(0.4, 0.1), ConstantControl(0.15), RATES, 500.0, dt_out=5.0)
        m_end, h_end = traj.final_state()
        assert max(abs(m_end - eq.m), abs(h_end - eq.h)) < 1e-3

    def test_deterministic_bit_identical(self):
        a = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 30.0, dt_out=0.5)
        b = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 30.0, dt_out=0.5)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.h, b.h)
        assert np.array_equal(a.u, b.u)

    def test_grid_refinement_consistency(self):
        loose = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 100.0,
                         dt_out=1.0, rtol=1e-8, atol=1e-10)
        tight = simulate(State(0.3, 0.2), ConstantControl(0.2), RATES, 100.0,
                         dt_out=1.0, rtol=5e-9, atol=5e-11)
        assert np.max(np.abs(loose.m - tight.m)) < 1e-7
        assert np.max(np.abs(loose.h - tight.h)) < 1e-7

    def test_forward_invariance_of_unit_box(self):
        rng = np.random.default_rng(13)
        eps = 1e-6
        for _ in range(10):
            start = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            sched = ((0.0, rng.uniform(RATES.u_min, RATES.u_max)),
                     (20.0, rng.uniform(RATES.u_min, RATES.u_max)))
            traj = simulate(start, PiecewiseConstantControl(sched), RATES, 60.0, dt_out=0.5)
            assert np.all(traj.m >= -eps) and np.all(traj.m <= 1.0 + eps)
            assert np.all(traj.h >= -eps) and np.all(traj.h <= 1.0 + eps)

    def test_rejects_bad_horizon_and_dt(self):
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, -1.0)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, 1.0, dt_out=0.0)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, math.nan)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, 1.0, dt_out=math.nan)
        for horizon in (math.inf, -math.inf, 0.0):
            with pytest.raises(ValueError, match="horizon"):
                simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, horizon)

    def test_tiny_dt_out_named_before_allocating(self, monkeypatch):
        for dt_out in (1e-300, 5e-324):
            with pytest.raises(ValueError, match="dt_out"):
                simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, 200.0, dt_out=dt_out)
        # The cap counts horizon / dt_out samples: 100 pass, a few more do not.
        monkeypatch.setattr(trajectory, "_MAX_SAMPLES", 100)
        traj = simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, 10.0, dt_out=0.1)
        assert traj.t.size == 101
        with pytest.raises(ValueError, match="dt_out=0.099"):
            simulate(State(0.1, 0.1), ConstantControl(0.1), RATES, 10.0, dt_out=0.099)

    def test_rejects_policy_outside_bounds(self):
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(0.4), RATES, 1.0)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1),
                     PiecewiseConstantControl(((0.0, 0.1), (1.0, 0.01))),
                     RATES, 2.0)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1), ConstantControl(math.nan), RATES, 1.0)
        with pytest.raises(ValueError):
            simulate(State(0.1, 0.1),
                     PiecewiseConstantControl(((0.0, 0.1), (1.0, math.nan))),
                     RATES, 2.0)

    def test_stop_event_truncates(self):
        traj = simulate(State(0.5, 0.01), ConstantControl(RATES.u_min), RATES, 200.0,
                        dt_out=1.0, stop_event=lambda t, m, h: h - 0.3)
        assert traj.t[-1] < 200.0
        assert traj.h[-1] == pytest.approx(0.3, abs=1e-9)


class CountingPolicy:
    """A policy that counts the calls of its pieces' laws, the integrator's."""

    def __init__(self, policy):
        self.policy, self.calls = policy, 0
        self.kernel, self.u_range, self.control = policy.kernel, policy.u_range, policy.control

    def pieces(self, horizon):
        def counted(law):
            def call(t, m, h):
                self.calls += 1
                return law(t, m, h)
            return call

        return [(a, b, counted(law)) for a, b, law in self.policy.pieces(horizon)]


def scipy_rk45(initial, policy, rates, grid, rtol, atol, stop_event=None):
    """Samples of solve_ivp(method="RK45") on the grid, restarted at each of
    the policy's pieces and integrated under its law, with its nfev and the
    terminal event time."""
    events = None
    if stop_event is not None:
        events = lambda t, z: stop_event(t, z[0], z[1])  # noqa: E731
        events.terminal = True
    z, nfev, samples = [initial.m, initial.h], 0, []
    for a, b, law in policy.pieces(grid[-1]):
        def rhs(t, z, law=law):
            u = law(t, z[0], z[1])
            return [g_m(z[0], z[1], u, rates), g_h(z[0], z[1], rates)]

        sol = solve_ivp(rhs, (a, b), z, method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=events)
        nfev += sol.nfev
        seg = grid[(grid > a) & (grid <= b)] if samples else grid[grid <= b]
        if sol.status == 1:
            t_event = float(sol.t_events[0][0])
            samples.append(sol.sol(seg[seg < t_event - 1e-15]))
            return np.hstack(samples), nfev, t_event
        samples.append(sol.sol(seg))
        z = sol.sol(b)
    return np.hstack(samples), nfev, None


@pytest.fixture(scope="module")
def parity_kernels(medium_kernel):
    return [(MEDIUM_RATES, medium_kernel), (STRONG_RATES, build_kernel(STRONG_RATES, 0.5)),
            (Y1_RATES, build_kernel(Y1_RATES, Y1_H_BAR))]


class TestScipyParity:
    """The in-house Dormand-Prince loop takes scipy's RK45 steps."""

    @pytest.mark.parametrize("kind", ["constant", "piecewise", "feedback"])
    def test_samples_and_control_calls_match_rk45(self, parity_kernels, kind):
        rng = np.random.default_rng(23)
        for rates, kernel in parity_kernels:
            for _ in range(2):
                start = State(rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3))
                policy = {
                    "constant": lambda: ConstantControl(rng.uniform(rates.u_min, rates.u_max)),
                    "piecewise": lambda: PiecewiseConstantControl(tuple(
                        (30.0 * i, rng.uniform(rates.u_min, rates.u_max)) for i in range(4))),
                    "feedback": lambda: SaturatingFeedback(kernel, rates.u_min, rates.u_max),
                }[kind]()
                counted = CountingPolicy(policy)
                traj = simulate(start, counted, rates, 120.0, dt_out=0.5)
                ref, nfev, _ = scipy_rk45(start, policy, rates, traj.t, 1e-9, 1e-12)
                assert np.max(np.abs(traj.m - ref[0])) < 1e-11
                assert np.max(np.abs(traj.h - ref[1])) < 1e-11
                assert counted.calls == nfev

    @pytest.mark.parametrize("policy", [
        ConstantControl(RATES.u_min),
        PiecewiseConstantControl(((0.0, RATES.u_min), (1.0, 0.2), (2.0, RATES.u_min))),
    ], ids=["constant", "piecewise"])
    def test_stop_event_time_matches_rk45(self, policy):
        def stop(t, m, h):
            return h - 0.3

        start = State(0.5, 0.01)
        traj = simulate(start, policy, RATES, 200.0, dt_out=1.0, stop_event=stop)
        _, _, t_event = scipy_rk45(start, policy, RATES, np.arange(0.0, 201.0), 1e-9, 1e-12, stop)
        assert t_event is not None and abs(traj.t[-1] - t_event) < 1e-12

    def test_nan_control_raises_at_its_time(self):
        class NanAfterFive:
            kernel, u_range = None, (RATES.u_min, RATES.u_max)

            def control(self, t, m, h):
                return math.nan if np.ndim(t) == 0 and t > 5.0 else 0.1 + 0.0 * np.asarray(t)

            def pieces(self, horizon):
                return [(0.0, horizon, self.control)]

        with pytest.raises(SimulationError) as exc:
            simulate(State(0.3, 0.2), NanAfterFive(), RATES, 20.0)
        assert exc.value.at_time == pytest.approx(5.0, abs=1e-12)  # a few minimum steps

    def test_nan_control_from_the_start_raises_at_zero(self):
        # A NaN derivative at t = 0 makes the first step size NaN.
        class AlwaysNan:
            kernel, u_range = None, (RATES.u_min, RATES.u_max)

            def control(self, t, m, h):
                return math.nan + 0.0 * np.asarray(t)

            def pieces(self, horizon):
                return [(0.0, horizon, self.control)]

        with pytest.raises(SimulationError) as exc:
            simulate(State(0.3, 0.2), AlwaysNan(), RATES, 20.0)
        assert exc.value.at_time == 0.0

    @pytest.mark.parametrize("tol, name", [
        ({"rtol": 1e-15}, "rtol"), ({"rtol": math.nan}, "rtol"), ({"atol": -1e-12}, "atol"),
        ({"atol": math.nan}, "atol"),
    ])
    def test_rejects_bad_tolerance(self, tol, name):
        # The frontier's tolerances are fixed, so only simulate takes them.
        with pytest.raises(ValueError, match=name):
            simulate(State(0.3, 0.2), ConstantControl(0.1), RATES, 10.0, **tol)

    def test_stiff_field_raises_instead_of_stepping_on(self):
        # At A_m = 1e8 the step stays near 3e-8 days, so a 200-day run would
        # take some 10^10 steps; the step bound stops it with the time reached.
        stiff = dataclasses.replace(MEDIUM_RATES, A_m=1e8)
        with pytest.raises(SimulationError, match="too many steps") as exc:
            simulate(State(0.1, 0.1), ConstantControl(0.02), stiff, 200.0)
        assert 0.0 < exc.value.at_time < 200.0


def test_piecewise_run_equals_its_chained_constant_pieces():
    # Each piece reads its own rate up to its end, so the run takes the steps
    # of three constant runs, each started from where the last one ended.
    rates = STRONG_RATES
    schedule = ((0.0, 0.01), (50.0, 0.3733), (100.0, 0.01))
    piecewise = CountingPolicy(PiecewiseConstantControl(schedule))
    traj = simulate(State(0.2, 0.3), piecewise, rates, 150.0, dt_out=1.0)
    start, calls, pieces = State(0.2, 0.3), 0, []
    for _, u in schedule:
        constant = CountingPolicy(ConstantControl(u))
        piece = simulate(start, constant, rates, 50.0, dt_out=1.0)
        start, calls = State(*piece.final_state()), calls + constant.calls
        pieces.append(piece)
    assert piecewise.calls == calls
    for i, piece in enumerate(pieces):
        span = slice(50 * i, 50 * (i + 1) + 1)
        assert np.max(np.abs(traj.m[span] - piece.m)) <= 1e-15
        assert np.max(np.abs(traj.h[span] - piece.h)) <= 1e-15
    # A sample on a breakpoint shows the new piece's rate.
    assert traj.u[50] == 0.3733 and traj.u[100] == 0.01


def test_open_loop_simulate_loads_no_scipy(tmp_path):
    """Constant and piecewise runs, a kernel build and everything in
    `estimation` but fit from the library, and a constant run from the CLI,
    in a fresh process, never import scipy, and neither does fit."""
    rates = "A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=0.03733"
    argv = ["simulate", "--out", str(tmp_path), "--set=policy=constant", "--set=m0=0.2",
            "--set=h0=0.1", "--set=horizon=20", "--set=H_bar=0.5",
            *(f"--set={kv.strip()}" for kv in rates.split(","))]
    script = (
        "import json, sys, rossmac, rossmac.cli\n"
        f"rates = rossmac.ModelRates({rates})\n"
        "start = rossmac.State(0.2, 0.1)\n"
        "rossmac.simulate(start, rossmac.ConstantControl(0.02), rates, 20.0)\n"
        "pw = rossmac.PiecewiseConstantControl(((0.0, 0.01), (5.0, 0.03)))\n"
        "rossmac.simulate(start, pw, rates, 20.0)\n"
        "rossmac.build_kernel(rates, 0.5)\n"
        f"code = rossmac.cli.main({argv!r})\n"
        "from rossmac import estimation as E\n"
        "data = E.incidence_to_prevalence(E.generate_synthetic_incidence(days=20))\n"
        "E.simulate_h(E.DEFAULT_THETA0, 1e-3, data.days.astype(float))\n"
        "E.objective(E.DEFAULT_THETA0, data)\n"
        "E.objective_gradient(E.DEFAULT_THETA0, data)\n"
        "before_fit = 'scipy' in sys.modules\n"
        "E._MAX_NFEV = 2\n"
        "E.fit(data)\n"
        "print(json.dumps([code, before_fit, 'scipy' in sys.modules]))\n"
    )
    src = str(Path(simulate.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, False]
    assert (tmp_path / "trajectory.csv").exists()


class TestPolicies:
    def test_piecewise_requires_start_at_zero(self):
        with pytest.raises(ValueError):
            PiecewiseConstantControl(((1.0, 0.1),))
        with pytest.raises(ValueError):
            PiecewiseConstantControl(((0.0, 0.1), (0.0, 0.2)))
        with pytest.raises(ValueError):
            PiecewiseConstantControl(((0.0, 0.1), (math.nan, 0.2)))

    def test_piecewise_lookup(self):
        pw = PiecewiseConstantControl(((0.0, 0.1), (5.0, 0.2)))
        assert pw.control(0.0, 0, 0) == 0.1
        assert pw.control(4.999, 0, 0) == 0.1
        assert pw.control(5.0, 0, 0) == 0.2

    def test_u_samples_within_bounds(self, medium_kernel):
        fb = SaturatingFeedback(medium_kernel, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        traj = simulate(State(0.05, 0.1), fb, MEDIUM_RATES, 100.0, dt_out=0.5)
        assert np.all(traj.u >= MEDIUM_RATES.u_min)
        assert np.all(traj.u <= MEDIUM_RATES.u_max)

    def test_feedback_requires_medium(self):
        desc = KernelDescription(regime=Regime.HIGH, H_bar=0.8)
        with pytest.raises(ValueError):
            SaturatingFeedback(desc, 0.01, 0.1)

    def test_feedback_refuses_inverted_bounds(self, medium_kernel):
        with pytest.raises(ValueError, match="u_min <= u_max"):
            SaturatingFeedback(medium_kernel, MEDIUM_RATES.u_max, MEDIUM_RATES.u_min)

    def test_constant_is_a_one_piece_schedule(self):
        const = ConstantControl(0.1)
        assert isinstance(const, PiecewiseConstantControl) and "control" not in vars(ConstantControl)
        assert const.schedule == ((0.0, 0.1),) and const == ConstantControl(u=0.1)
        assert const.u_range == (0.1, 0.1) and [p[:2] for p in const.pieces(50.0)] == [(0.0, 50.0)]
        t = np.array([[0.0, 2.5], [7.0, 1e9]])
        assert const.control(t, 0.0, 0.0).shape == t.shape and np.all(const.control(t, 0, 0) == 0.1)
        a = simulate(State(0.2, 0.2), const, RATES, 10.0, dt_out=0.3)
        b = simulate(State(0.2, 0.2), PiecewiseConstantControl(((0.0, 0.1),)), RATES, 10.0, dt_out=0.3)
        assert all(np.array_equal(getattr(a, k), getattr(b, k)) for k in "tmhu")

    def test_schedule_pieces_end_at_the_horizon(self):
        schedule = ((0, 0.01), (50, 0.03), (100, 0.02))
        pieces = PiecewiseConstantControl(schedule).pieces(80.0)
        assert [p[:2] for p in pieces] == [(0, 50), (50, 80)]
        for (a, b, law), (_, u) in zip(pieces, schedule):
            for t in (a, 0.5 * (a + b), b):
                assert type(law(t, 0.1, 0.1)) is float and law(t, 0.1, 0.1) == u

    def test_simulate_reads_a_schedule_only_through_its_pieces(self):
        class ArrayOnly(PiecewiseConstantControl):
            def control(self, t, m, h):
                assert np.ndim(t) == 1, "control called with a scalar t"
                return super().control(t, m, h)

        schedule = ((0.0, 0.05), (4.0, 0.2), (7.0, 0.1))
        plain = simulate(State(0.2, 0.2), PiecewiseConstantControl(schedule), RATES, 10.0)
        traj = simulate(State(0.2, 0.2), ArrayOnly(schedule), RATES, 10.0)
        assert all(np.array_equal(getattr(traj, k), getattr(plain, k)) for k in "tmhu")

    def test_feedback_clamps_outside_kernel(self, medium_kernel):
        fb = SaturatingFeedback(medium_kernel, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        assert fb.control(0.0, 0.9, 0.4) == MEDIUM_RATES.u_max
        traj = simulate(State(0.9, 0.4), fb, MEDIUM_RATES, 10.0, dt_out=0.5)
        assert traj.left_kernel

    def test_feedback_reuse_after_outside_call(self, medium_kernel):
        # A policy is a pure function: an earlier call outside the kernel
        # must not mark a later run from a kernel state.
        fb = SaturatingFeedback(medium_kernel, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        fb.control(0.0, 0.9, 0.4)
        traj = simulate(State(0.1, 0.1), fb, MEDIUM_RATES, 10.0, dt_out=0.5)
        assert not traj.left_kernel


class TestFeedbackControl:
    def test_u_max_on_frontier(self, medium_kernel):
        fb = SaturatingFeedback(medium_kernel, 0.01, 0.03733)
        assert fb.control(0.0, 0.1, 0.5) == pytest.approx(0.03733, abs=1e-15)

    def test_limit_far_from_frontier(self, medium_kernel):
        # exp(-d) weight: a direct check of the interpolation formula
        u_min, u_max = 0.01, 0.03733
        u0 = SaturatingFeedback(medium_kernel, u_min, u_max).control(0.0, 0.0, 0.0)
        dd = distance_to_frontier(medium_kernel, State(0.0, 0.0))
        expected = (1 - math.exp(-dd)) * u_min + math.exp(-dd) * u_max
        assert u0 == pytest.approx(expected, abs=1e-15)
        assert u_min < u0 < u_max

    def test_known_distance_straight_below_frontier(self, medium_kernel):
        # straight below the flat frontier segment, the distance is the drop
        k = medium_kernel
        drop = 0.3
        s = State(0.05, k.H_bar - drop)
        assert distance_to_frontier(k, s) == pytest.approx(drop, abs=1e-12)
        w = math.exp(-drop)
        u = SaturatingFeedback(k, 0.01, 0.03).control(0.0, s.m, s.h)
        assert u == pytest.approx((1 - w) * 0.01 + w * 0.03, abs=1e-14)


    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_array_calls_match_scalar_calls(self, medium_kernel, data):
        k = medium_kernel
        unit = st.floats(0.0, 1.0)
        box = data.draw(st.lists(st.tuples(unit, unit), max_size=100))
        # Kernel states: below the cap up to M_bar, below the curve beyond it.
        below = data.draw(st.lists(st.tuples(st.floats(0.0, k.M_inf), unit), max_size=100))
        kernel = [(m, f * float(k.frontier_value(max(m, k.M_bar)))) for m, f in below]
        hard = hard_points(k)
        points = [(0.9, 0.4)] + hard + box + kernel
        m, h = np.array(points).T
        fb = SaturatingFeedback(k, MEDIUM_RATES.u_min, MEDIUM_RATES.u_max)
        # The hard points include non-finite ones, which lie outside the
        # kernel at distance inf or NaN.
        inside, dist, u = k.contains(m, h), k.frontier_distance(m, h), fb.control(0.0, m, h)
        assert inside.shape == dist.shape == u.shape == m.shape
        for i, (mi, hi) in enumerate(points):
            assert same_bits(inside[i], k.contains(mi, hi))
            assert same_bits(dist[i], k.frontier_distance(mi, hi))
            assert same_bits(u[i], fb.control(0.0, mi, hi))
            # np.float64 points, which are floats too, take the same path.
            m64, h64 = np.float64(mi), np.float64(hi)
            assert same_bits(inside[i], k.contains(m64, h64))
            assert same_bits(dist[i], k.frontier_distance(m64, h64))
            assert same_bits(u[i], fb.control(0.0, m64, h64))
            if inside[i] and i > len(hard):  # states, which lie in the unit square
                assert dist[i] == distance_to_frontier(k, State(mi, hi))
        assert not inside[0] and u[0] == MEDIUM_RATES.u_max
        assert np.all(inside[len(hard) + len(box) + 1 :])
        assert np.all(u[~inside] == MEDIUM_RATES.u_max)


class TestAudit:
    def test_zero_trajectory(self):
        traj = simulate(State(0.0, 0.0), ConstantControl(0.1), RATES, 10.0, dt_out=1.0)
        assert audit_viability(traj, 0.2) is None

    def test_first_violation_time(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        traj = Trajectory(t=t, m=np.zeros(4), h=np.array([0.0, 0.1, 0.3, 0.4]),
                          u=np.full(4, 0.1))
        assert audit_viability(traj, 0.25) == 2.0

    def test_high_regime_any_policy_never_violates(self):
        # H_bar above A_h/(A_h+gamma) = 0.75: strong invariance
        rng = np.random.default_rng(17)
        for _ in range(10):
            start = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.8))
            u = rng.uniform(RATES.u_min, RATES.u_max)
            traj = simulate(start, ConstantControl(u), RATES, 100.0, dt_out=0.5)
            assert audit_viability(traj, 0.8) is None

    def test_low_regime_violates_in_finite_time(self):
        # H_bar = 0.4 < lower threshold 0.44368 for these rates
        traj = simulate(State(0.2, 0.05), ConstantControl(MEDIUM_RATES.u_max),
                        MEDIUM_RATES, 2000.0, dt_out=2.0)
        assert audit_viability(traj, 0.4) is not None

    @pytest.mark.parametrize("H_bar", [0.0, 1.0, math.nan])
    def test_rejects_cap_outside_unit_interval(self, H_bar):
        traj = simulate(State(0.0, 0.0), ConstantControl(0.1), RATES, 5.0, dt_out=1.0)
        with pytest.raises(ValueError, match=r"H_bar must lie in \(0, 1\)"):
            audit_viability(traj, H_bar)


class TestTrajectoryType:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([0.0, 2.0, 1.0]), m=np.zeros(3), h=np.zeros(3),
                       u=np.zeros(3))
        with pytest.raises(ValueError):
            Trajectory(t=np.array([0.0, math.nan, 2.0]), m=np.zeros(3), h=np.zeros(3),
                       u=np.zeros(3))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([1.0, 2.0]), m=np.zeros(2), h=np.zeros(2),
                       u=np.zeros(2))
