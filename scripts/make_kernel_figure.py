#!/usr/bin/env python3
"""Compute the medium-regime viability kernel for the baseline dengue
instance, save the frontier as CSV + SVG, and print a summary.

Usage:
    python3 scripts/make_kernel_figure.py [--out DIR] [--H-bar 0.5] [--step 2e-4]
"""

import argparse
from pathlib import Path

from rossmac.cli import _write_frontier_csv, _write_kernel_svg
from rossmac.kernel import build_kernel, regime_thresholds
from rossmac.model import ModelRates

BASE_RATES = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1,
                        u_min=0.01, u_max=0.03733)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--H-bar", type=float, default=0.5)
    ap.add_argument("--step", type=float, default=2e-4)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lower, upper = regime_thresholds(BASE_RATES)
    desc = build_kernel(BASE_RATES, args.H_bar, step=args.step)

    csv_path = out / "frontier.csv"
    _write_frontier_csv(csv_path, desc.frontier_m, desc.frontier_y)
    _write_kernel_svg(out / "kernel.svg", desc)

    print(f"regime thresholds: low={lower:.6f} high={upper:.6f}")
    print(f"H_bar={args.H_bar} -> regime={desc.regime.value}")
    print(f"M_bar={desc.M_bar:.9f}  M_inf={desc.M_inf:.9f}")
    print(f"frontier samples: {desc.frontier_m.size}")
    print(f"wrote {csv_path} and {out / 'kernel.svg'}")


if __name__ == "__main__":
    main()
