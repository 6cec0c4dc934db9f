#!/usr/bin/env python3
"""Generate a synthetic 60-day dengue incidence series, fit the
transmission parameters back from it, and report how well the reduced
rates are recovered, with the wall time of the fit (`wall_ms`).

Usage:
    python3 scripts/fit_synthetic_outbreak.py [--out DIR] [--population 2400000]
"""

import argparse
import time
from pathlib import Path

from rossmac.estimation import (
    CALI_2013_ESTIMATE,
    IncidenceSeries,
    fit,
    generate_synthetic_incidence,
    incidence_to_prevalence,
    write_prevalence_csv,
)
from rossmac.model import derive_rates


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--population", type=int, default=2_400_000)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    series = generate_synthetic_incidence(population=args.population)
    data = incidence_to_prevalence(series)
    write_prevalence_csv(out / "prevalence.csv", data)

    t0 = time.perf_counter()
    result = fit(data)
    wall_ms = (time.perf_counter() - t0) * 1e3
    truth = derive_rates(CALI_2013_ESTIMATE, CALI_2013_ESTIMATE.delta)

    print(f"total cases over {series.days.size - 1} days: "
          f"{int(series.new_cases.sum())}")
    print(f"converged={result.converged} iterations={result.iterations} "
          f"objective={result.objective_value:.3e} wall_ms={wall_ms:.1f}")
    for name, got, want in (
        ("A_m", result.A_m, truth.A_m),
        ("A_h", result.A_h, truth.A_h),
        ("delta", result.delta, truth.u_min),
    ):
        print(f"{name:6s} fitted={got:.6f} true={want:.6f} "
              f"rel_err={abs(got - want) / want * 100:.3f}%")
    print(f"wrote {out / 'prevalence.csv'}")


if __name__ == "__main__":
    main()
