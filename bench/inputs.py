"""Seeded inputs and their expected outputs for each workload.

`MAKERS[workload](seed)` returns two JSON-ready dicts: `program`, the inputs
the worker hands to rossmac, and `expect`, what the oracles say the outputs
must satisfy.  The same seed gives the same inputs.  The operations that are
known to fail use fixed inputs, so every seed fails them the same way.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import numpy as np

import oracle as O
from field import CALI, CALI_THETA, FIT_GAMMA, THETA_BOUNDS, Rates

HORIZON = 200.0  # days simulated per trajectory
MARGIN = 1e-3  # vertical distance of seeded states from the frontier
FEEDBACK_STATES = 24  # feedback simulations per round
FIT_DRAWS = 16  # fits per round
FIT_SPREAD = 0.15  # true parameters within +-15% of the Cali estimate
FIT_DAYS, POPULATION, H0 = 60, 2_400_000, 1e-3
SWEEP_U = (0.015, 0.085)  # u_max range of the regime grid
SWEEP_H = (0.05, 0.95)  # H_bar range of the regime grid
SWEEP_SIDE = 6  # the grid is SIDE x SIDE cells
UPPER_GAP = 1e-3
SWEEP_STATES = 2  # seeded states per cell
PIECES = 4  # constant pieces of each piecewise control
FAULT_SEED = 20130801  # fixed, so the known-fault operations do not vary
FAULT_END_CELL = (0.0176054269488865, 0.7217515362100086)  # (u_max, H_bar)
DIAGRAM_SIDE = 100


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal slices of [lo, hi], shuffled."""
    w = (hi - lo) / n
    vals = [lo + (i + rng.random()) * w for i in range(n)]
    rng.shuffle(vals)
    return vals


def _cap_height(orbit: O.Orbit, H_bar: float, m: float) -> float:
    """Upper edge of the kernel at m: the cap, then the frontier."""
    return H_bar if m <= orbit.m[0] else float(orbit.height(min(m, orbit.m[-1])))


def _inside_states(rng, orbit, H_bar, n) -> list[list[float]]:
    """n kernel states at least MARGIN below its upper edge, stratified in m."""
    # Past m_hi the frontier is lower than 2*MARGIN.
    m_hi = float(np.interp(2 * MARGIN, orbit.h[::-1], orbit.m[::-1]))
    states = []
    for m in _strata(rng, 0.0, m_hi, n):
        states.append([m, rng.uniform(0.0, _cap_height(orbit, H_bar, m) - MARGIN)])
    return states


def _outside_state(rng, orbit, H_bar):
    """A box state at least MARGIN above the frontier, or None when the gap
    between frontier and cap is too thin."""
    for _ in range(100):
        m = rng.uniform(orbit.m[0], orbit.m[-1])
        y = _cap_height(orbit, H_bar, m)
        if y + 2 * MARGIN < H_bar:
            return [m, rng.uniform(y + MARGIN, H_bar)]
    return None


def _orbit_expect(orbit: O.Orbit, with_table: bool = False) -> dict:
    out = {"m_exit": orbit.m_exit, "h_exit": orbit.h_exit, "edge": orbit.edge}
    if with_table:
        out["m"], out["h"] = orbit.m.tolist(), orbit.h.tolist()
    return out


def feedback(seed: int):
    rng = random.Random(seed)
    H_bar = 0.5
    orbit = O.backward_orbit(CALI, H_bar)
    states = _inside_states(rng, orbit, H_bar, FEEDBACK_STATES)
    program = {
        "rates": asdict(CALI), "H_bar": H_bar, "horizon": HORIZON, "states": states,
        # Known fault: a policy reused after one call outside the kernel.
        "fault": {"outside": [0.9, 0.4], "start": [0.1, 0.1]},
    }
    distances = [O.frontier_distance(orbit, H_bar, m, h) for m, h in states]
    return program, {"orbit": _orbit_expect(orbit, with_table=True), "distance": distances}


def _fit_truths(rng: random.Random, n: int) -> list[list[float]]:
    """n raw parameter vectors, each coordinate Latin-hypercube stratified
    over +-FIT_SPREAD of the Cali estimate clipped to the fit's box."""
    cols = []
    for v, (lo, hi) in zip(CALI_THETA, THETA_BOUNDS):
        cols.append(_strata(rng, max(lo, v * (1 - FIT_SPREAD)), min(hi, v * (1 + FIT_SPREAD)), n))
    return [list(t) for t in zip(*cols)]


def _reduced(theta) -> dict:
    alpha, p_h, p_m, xi, delta = theta
    return {"A_m": alpha * p_m, "A_h": alpha * p_h * xi, "delta": delta}


def fit(seed: int):
    rng = random.Random(seed)
    truths = _fit_truths(rng, FIT_DRAWS)
    datasets, expect = [], []
    for theta in truths:
        cases = O.synthetic_cases(theta, H0, FIT_DAYS, POPULATION)
        # Gradient check point: each raw parameter moved by up to 10%, kept
        # inside the box.
        probe = [min(max(v * rng.uniform(0.9, 1.1), lo), hi)
                 for v, (lo, hi) in zip(theta, THETA_BOUNDS)]
        datasets.append({"cases": cases.tolist(), "probe": probe})
        expect.append(_reduced(theta))
    program = {"population": POPULATION, "gamma": FIT_GAMMA, "datasets": datasets}
    return program, {"truth": expect}


def _cell(rng: random.Random, u_max: float, H_bar: float):
    r = Rates(CALI.A_m, CALI.A_h, CALI.gamma, min(CALI.u_min, u_max), u_max)
    regime, margin = O.regime(r, H_bar)
    h_star = O.endemic_h(r, u_max)
    states, labels = [], []
    orbit = None
    if regime == "medium":
        orbit = O.backward_orbit(r, H_bar)
        inside = _inside_states(rng, orbit, H_bar, SWEEP_STATES - 1)
        out = _outside_state(rng, orbit, H_bar)
        states = inside + ([out] if out else _inside_states(rng, orbit, H_bar, 1))
        labels = ["inside"] * len(inside) + ["outside" if out else "inside"]
    else:
        for _ in range(SWEEP_STATES):
            states.append([rng.random(), rng.uniform(0.0, H_bar)])
            labels.append("box")
    schedules = []
    for _ in states:
        cuts = sorted(rng.uniform(0.0, HORIZON) for _ in range(PIECES - 1))
        schedules.append([[t, rng.uniform(r.u_min, u_max)] for t in [0.0] + cuts])
    program = {"rates": asdict(r), "H_bar": H_bar, "states": states, "schedules": schedules}
    expect = {"regime": regime, "margin": margin, "h_star": h_star, "labels": labels,
              "orbit": _orbit_expect(orbit) if orbit else None}
    return program, expect


def sweep(seed: int):
    rng = random.Random(seed)
    upper = CALI.A_h / (CALI.A_h + CALI.gamma)  # the same for every u_max
    us = sorted(_strata(rng, *SWEEP_U, SWEEP_SIDE))
    # One row of caps above the upper threshold (high cells), the others
    # below it (low and medium cells), so every round meets all three
    # regimes.  Seeded caps stay UPPER_GAP away from that threshold, where
    # the known fault lives (within about 5e-5 below it); the fixed cell
    # below exercises it on every seed.
    lo, hi = SWEEP_H
    Hs = sorted(_strata(rng, lo, upper - UPPER_GAP, SWEEP_SIDE - 1)) + [
        rng.uniform(upper + UPPER_GAP, hi)]
    cells, expect = [], []
    for H_bar in Hs:
        for u in us:
            p, e = _cell(rng, u, H_bar)
            cells.append(p)
            expect.append(e)
    # Known faults, after the grid: a medium cap 1e-6 below the upper
    # threshold on the Cali rates, where the frontier's start sample is
    # dropped; and a cell whose frontier leaves through m = 1 and whose Y(1)
    # misses the backward orbit by 2.6e-8.
    for fault, u_max, H_bar in (("start_sample", CALI.u_max, upper - 1e-6),
                                ("m1_end", *FAULT_END_CELL)):
        p, e = _cell(random.Random(FAULT_SEED), u_max, H_bar)
        p["fault"] = fault
        cells.append(p)
        expect.append(e)
    program = {"base": asdict(CALI), "u_grid": us, "H_grid": Hs, "horizon": HORIZON,
               "cells": cells}
    return program, {"cells": expect}


def _kv(r: Rates, **extra) -> list[str]:
    items = {**asdict(r), **extra}
    return [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in items.items()]


def cli(seed: int):
    """One call of each subcommand on seeded inputs."""
    rng = random.Random(seed)
    upper = CALI.A_h / (CALI.A_h + CALI.gamma)
    lower = (CALI.A_h - CALI.gamma * CALI.u_max / CALI.A_m) / (CALI.A_h + CALI.gamma)
    H_classify = rng.uniform(0.05, 0.95)
    H_bound = rng.uniform(lower + 0.01, upper - 0.01)
    H_sim = rng.uniform(lower + 0.01, upper - 0.01)
    orbit_b = O.backward_orbit(CALI, H_bound)
    orbit_s = O.backward_orbit(CALI, H_sim)
    m0, h0 = _inside_states(rng, orbit_s, H_sim, 1)[0]
    u_lo, u_hi = rng.uniform(0.011, 0.02), rng.uniform(0.08, 0.12)
    H_lo, H_hi = rng.uniform(0.02, 0.1), rng.uniform(0.9, 0.98)
    theta = _fit_truths(rng, 1)[0]
    cases = O.synthetic_cases(theta, H0, FIT_DAYS, POPULATION)

    u_grid = np.linspace(u_lo, u_hi, DIAGRAM_SIDE)
    H_grid = np.linspace(H_lo, H_hi, DIAGRAM_SIDE)
    cell_rates = [Rates(CALI.A_m, CALI.A_h, CALI.gamma, min(CALI.u_min, u), float(u))
                  for u in u_grid]
    h_stars = [O.endemic_h(r, r.u_max) for r in cell_rates]
    # (u, H, regime, margin) in the CLI's row order: H outer, u inner.
    diagram = [[float(r.u_max), float(H), *O.regime(r, float(H), h_star)]
               for H in H_grid for r, h_star in zip(cell_rates, h_stars)]
    calls = [
        {"cmd": "classify", "args": _kv(CALI, H_bar=H_classify)},
        {"cmd": "boundary", "args": _kv(CALI, H_bar=H_bound)},
        {"cmd": "simulate", "args": _kv(CALI, H_bar=H_sim, policy="feedback", m0=m0,
                                        h0=h0, horizon=HORIZON)},
        {"cmd": "diagram", "args": _kv(CALI, u_grid=f"{u_lo!r}:{u_hi!r}:{DIAGRAM_SIDE}",
                                       H_grid=f"{H_lo!r}:{H_hi!r}:{DIAGRAM_SIDE}")},
        {"cmd": "fit", "args": [f"population={POPULATION}"], "incidence": cases.tolist()},
    ]
    expect = {
        "classify": {"regime": O.regime(CALI, H_classify)[0], "lower": lower, "upper": upper},
        "boundary": _orbit_expect(orbit_b),
        "simulate": {"H_bar": H_sim, "u_min": CALI.u_min, "u_max": CALI.u_max},
        "diagram": diagram,
        "fit": _reduced(theta),
    }
    return {"calls": calls}, expect


MAKERS = {"feedback_cali": feedback, "fit_cali": fit, "regime_sweep": sweep, "cli_calls": cli}
