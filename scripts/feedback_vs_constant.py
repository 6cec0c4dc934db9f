#!/usr/bin/env python3
"""Compare the saturating feedback policy against constant minimal and
maximal fumigation from the same kernel-interior start, and report total
control effort, any constraint violations and the wall time of each run
(`wall_ms`, the fastest of REPEATS `simulate` calls).

Usage:
    python3 scripts/feedback_vs_constant.py [--m0 0.05] [--h0 0.1] [--horizon 400]
"""

import argparse
import math
import time

import numpy as np

from rossmac.kernel import build_kernel
from rossmac.model import ModelRates, State
from rossmac.trajectory import (
    ConstantControl,
    SaturatingFeedback,
    audit_viability,
    simulate,
)

RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1,
                   u_min=0.01, u_max=0.03733)
H_BAR = 0.5
REPEATS = 5


def effort(traj) -> float:
    """The trapezoid rule for the integral of u over the samples."""
    return float((np.diff(traj.t) * (traj.u[1:] + traj.u[:-1]) / 2.0).sum())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m0", type=float, default=0.05)
    ap.add_argument("--h0", type=float, default=0.1)
    ap.add_argument("--horizon", type=float, default=400.0)
    args = ap.parse_args()

    kernel = build_kernel(RATES, H_BAR)
    start = State(args.m0, args.h0)

    policies = {
        "u_min constant": ConstantControl(RATES.u_min),
        "u_max constant": ConstantControl(RATES.u_max),
        "saturating feedback": SaturatingFeedback(kernel, RATES.u_min, RATES.u_max),
    }
    print(f"start=({args.m0}, {args.h0})  H_bar={H_BAR}  horizon={args.horizon}")
    for name, policy in policies.items():
        wall_ms = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            traj = simulate(start, policy, RATES, args.horizon, dt_out=1.0)
            wall_ms = min(wall_ms, (time.perf_counter() - t0) * 1e3)
        violation = audit_viability(traj, H_BAR)
        m_end, h_end = traj.final_state()
        print(
            f"{name:22s} effort={effort(traj):8.3f} "
            f"violation={'none' if violation is None else f'{violation:.1f}'} "
            f"final=({m_end:.4f}, {h_end:.4f}) wall_ms={wall_ms:.1f}"
        )


if __name__ == "__main__":
    main()
