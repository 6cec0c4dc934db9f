"""Command-line front end: classify, boundary, simulate, fit, diagram.

Configuration comes from a flat `key = value` file (with `#` comments);
individual keys can be overridden on the command line with repeated
`--set key=value` flags.  Results go to stdout as machine-parseable
`key=value` lines, diagnostics to stderr, and CSV/SVG artifacts to the
output directory.

Exit codes: 0 success, 2 invalid configuration (every ValueError that
reaches `main`, raised here or by the library on a bad input), 3 boundary
requested outside the medium regime, 4 feedback policy outside the medium
regime, 5 malformed incidence CSV, one of fewer than two days or one whose
prevalence exceeds population, 1 any other runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

# estimation imports scipy, which takes most of a second, so only fit imports
# it; every other command loads numpy alone.
from rossmac.kernel import (
    Regime,
    build_kernel,
    classify_regime,
    m_bar,
    outside_proven_hypotheses,
    regime_diagram,
    regime_thresholds,
)
from rossmac.model import EpiParams, ModelRates, State, derive_rates
from rossmac.trajectory import (ConstantControl, PiecewiseConstantControl, SaturatingFeedback,
                                audit_viability, simulate)

EXIT_BAD_CONFIG = 2
EXIT_NOT_MEDIUM_BOUNDARY = 3
EXIT_NOT_MEDIUM_FEEDBACK = 4
EXIT_BAD_CSV = 5


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def load_config(path: str | None, overrides: list[str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ValueError(f"config file not found: {path}")
        for lineno, raw in enumerate(p.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        if default is not None:
            return default
        raise ValueError(f"missing required key: {key}")
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ValueError(f"invalid value for key {key}: {cfg[key]!r}") from exc


def rates_from_config(cfg: dict[str, str]) -> ModelRates:
    """Either reduced rates (A_m, A_h, gamma, u_min, u_max) or raw
    parameters (alpha, p_h, p_m, xi, delta, gamma, u_max)."""
    if "A_m" in cfg or "A_h" in cfg:
        return ModelRates(
            A_m=_get_float(cfg, "A_m"),
            A_h=_get_float(cfg, "A_h"),
            gamma=_get_float(cfg, "gamma"),
            u_min=_get_float(cfg, "u_min", 0.0),
            u_max=_get_float(cfg, "u_max"),
        )
    params = EpiParams(
        alpha=_get_float(cfg, "alpha"),
        p_h=_get_float(cfg, "p_h"),
        p_m=_get_float(cfg, "p_m"),
        xi=_get_float(cfg, "xi"),
        delta=_get_float(cfg, "delta"),
        gamma=_get_float(cfg, "gamma"),
    )
    return derive_rates(params, _get_float(cfg, "u_max"))


def _tolerances(cfg: dict[str, str]) -> dict[str, float]:
    """Integrator tolerances from the rtol/atol keys.  Those not given are
    left out, so each library function keeps its own default."""
    return {key: _get_float(cfg, key) for key in ("rtol", "atol") if key in cfg}


def _out_dir(cfg: dict[str, str], out_flag: str | None) -> Path:
    out = Path(out_flag or cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_classify(cfg: dict[str, str], args) -> int:
    rates = rates_from_config(cfg)
    H_bar = _get_float(cfg, "H_bar")
    regime = classify_regime(rates, H_bar)
    lower, upper = regime_thresholds(rates)
    print(f"regime={regime.value}")
    print(f"threshold_low={_fmt(lower)}")
    print(f"threshold_high={_fmt(upper)}")
    if regime is Regime.MEDIUM:
        print(f"m_bar={_fmt(m_bar(rates, H_bar))}")
        print(f"outside_proven_hypotheses={str(outside_proven_hypotheses(rates, H_bar)).lower()}")
    return 0


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_frontier_csv(path: Path, fm: np.ndarray, fy: np.ndarray) -> None:
    _write_csv(path, ["m", "Y"], ([_fmt(m), _fmt(y)] for m, y in zip(fm, fy)))


def _write_kernel_svg(path: Path, desc) -> None:
    """Render the kernel region as a filled polygon in unit coordinates."""
    w, h = 600, 400
    def X(m): return 40 + m * (w - 80)
    def Y(y): return h - 40 - y * (h - 80)
    pts = [(0.0, 0.0), (0.0, desc.H_bar), (desc.M_bar, desc.H_bar)]
    pts += list(zip(desc.frontier_m, desc.frontier_y))
    if desc.frontier_y[-1] > 0.0:
        pts.append((desc.M_inf, 0.0))
    path_d = "M " + " L ".join(f"{X(m):.2f} {Y(y):.2f}" for m, y in pts) + " Z"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
        f'<rect x="{X(0):.2f}" y="{Y(1):.2f}" width="{X(1)-X(0):.2f}" '
        f'height="{Y(0)-Y(1):.2f}" fill="none" stroke="black"/>\n'
        f'<path d="{path_d}" fill="#9ecae1" stroke="#08519c" stroke-width="1.5"/>\n'
        f"</svg>\n"
    )
    path.write_text(svg)


def _kernel_from_config(cfg: dict[str, str], rates: ModelRates):
    """The one kernel request of `boundary` and feedback `simulate`."""
    return build_kernel(rates, _get_float(cfg, "H_bar"), step=_get_float(cfg, "step", 1e-3),
                        **_tolerances(cfg))


def cmd_boundary(cfg: dict[str, str], args) -> int:
    desc = _kernel_from_config(cfg, rates_from_config(cfg))
    if desc.regime is not Regime.MEDIUM:
        kernel = "the origin only" if desc.regime is Regime.LOW else "the whole constraint box"
        print(f"regime {desc.regime.value}: the kernel is {kernel}; no frontier curve to compute",
              file=sys.stderr)
        return EXIT_NOT_MEDIUM_BOUNDARY
    out = _out_dir(cfg, args.out)
    csv_path = out / "frontier.csv"
    _write_frontier_csv(csv_path, desc.frontier_m, desc.frontier_y)
    if cfg.get("svg", "false").lower() in ("1", "true", "yes"):
        _write_kernel_svg(out / "kernel.svg", desc)
    print(f"regime={desc.regime.value}")
    print(f"m_bar={_fmt(desc.M_bar)}")
    print(f"m_inf={_fmt(desc.M_inf)}")
    print(f"outside_proven_hypotheses={str(desc.outside_proven_hypotheses).lower()}")
    print(f"frontier_csv={csv_path}")
    return 0


def _policy_from_config(cfg, rates):
    kind = cfg.get("policy", "constant").lower()
    if kind == "constant":
        return ConstantControl(_get_float(cfg, "u", rates.u_max))
    if kind == "piecewise":
        spec = cfg.get("schedule")
        if spec is None:
            raise ValueError("missing required key: schedule")
        try:
            pairs = tuple(
                (float(p.split(":")[0]), float(p.split(":")[1]))
                for p in spec.split(",")
            )
            return PiecewiseConstantControl(pairs)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"invalid value for key schedule: {spec!r}") from exc
    if kind == "feedback":
        desc = _kernel_from_config(cfg, rates)
        if desc.regime is not Regime.MEDIUM:
            print(f"feedback policy requires the medium regime (regime is {desc.regime.value})",
                  file=sys.stderr)
            return None  # caller maps this to the feedback exit code
        return SaturatingFeedback(desc, rates.u_min, rates.u_max)
    raise ValueError(f"invalid value for key policy: {kind!r}")


def cmd_simulate(cfg: dict[str, str], args) -> int:
    rates = rates_from_config(cfg)
    H_bar = _get_float(cfg, "H_bar")
    if not 0.0 < H_bar < 1.0:
        raise ValueError(f"H_bar must lie in (0, 1), got {H_bar!r}")
    initial = State(m=_get_float(cfg, "m0"), h=_get_float(cfg, "h0"))
    horizon = _get_float(cfg, "horizon")
    dt_out = _get_float(cfg, "dt_out", 0.1)
    policy = _policy_from_config(cfg, rates)
    if policy is None:
        return EXIT_NOT_MEDIUM_FEEDBACK
    traj = simulate(initial, policy, rates, horizon, dt_out=dt_out, **_tolerances(cfg))
    csv_path = _out_dir(cfg, args.out) / "trajectory.csv"
    _write_csv(csv_path, ["t", "m", "h", "u"],
               ([_fmt(v) for v in row] for row in zip(traj.t, traj.m, traj.h, traj.u)))
    violation = audit_viability(traj, H_bar)
    print(f"trajectory_csv={csv_path}")
    print("viability_violation=" + ("none" if violation is None else _fmt(violation)))
    if traj.left_kernel:
        print("left_kernel=true")
    return 0


def _parse_grid(spec: str) -> list[float]:
    if ":" in spec:
        lo, hi, n = spec.split(":")
        return list(np.linspace(float(lo), float(hi), int(n)))
    return [float(v) for v in spec.split(",")]


def cmd_diagram(cfg: dict[str, str], args) -> int:
    rates = rates_from_config(cfg)
    if "u_grid" not in cfg or "H_grid" not in cfg:
        missing = "u_grid" if "u_grid" not in cfg else "H_grid"
        raise ValueError(f"missing required key: {missing}")
    try:
        u_grid, H_grid = _parse_grid(cfg["u_grid"]), _parse_grid(cfg["H_grid"])
        grid = regime_diagram(rates, u_grid, H_grid)
    except ValueError as exc:
        raise ValueError(f"invalid grid: {exc}") from exc
    csv_path = _out_dir(cfg, args.out) / "diagram.csv"
    _write_csv(csv_path, ["u", "H", "regime"],
               ([_fmt(u), _fmt(H), regime.value]
                for H, row in zip(H_grid, grid) for u, regime in zip(u_grid, row)))
    print(f"diagram_csv={csv_path}")
    return 0


def cmd_fit(cfg: dict[str, str], args) -> int:
    from rossmac import estimation

    if "incidence" not in cfg:
        raise ValueError("missing required key: incidence")
    population = _get_float(cfg, "population")
    gamma = _get_float(cfg, "gamma", estimation.DEFAULT_GAMMA)
    window = _get_float(cfg, "fit_days", estimation.FIT_WINDOW_DAYS)
    for key, value in (("population", population), ("fit_days", window)):
        if not value > 0.0 or not float(value).is_integer():
            raise ValueError(f"{key} must be a positive integer, got {value!r}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    try:
        series = estimation.read_incidence_csv(cfg["incidence"], int(population))
    except (OSError, ValueError) as exc:  # a file that is not UTF-8 text included
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_CSV
    try:
        data = estimation.incidence_to_prevalence(series, gamma=gamma)
        head = slice(int(window) + 1)
        data = estimation.PrevalenceDataset(days=data.days[head], h_hat=data.h_hat[head])
        result = estimation.fit(data, gamma=gamma)
    except ValueError as exc:
        print(f"{cfg['incidence']}: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV
    out = _out_dir(cfg, args.out)

    h_model = estimation.simulate_h(
        result.theta_hat, float(data.h_hat[0]), data.days.astype(float), gamma=gamma
    )
    curve_path = out / "fit_curve.csv"
    _write_csv(curve_path, ["day", "h_hat", "h_model"],
               ([int(d), _fmt(hh), _fmt(hm)] for d, hh, hm in zip(data.days, data.h_hat, h_model)))

    report_path = out / "fit_report.txt"
    th = result.theta_hat
    lines = [
        f"alpha={_fmt(th.alpha)}",
        f"p_h={_fmt(th.p_h)}",
        f"p_m={_fmt(th.p_m)}",
        f"xi={_fmt(th.xi)}",
        f"delta={_fmt(th.delta)}",
        f"gamma={_fmt(th.gamma)}",
        f"A_m={_fmt(result.A_m)}",
        f"A_h={_fmt(result.A_h)}",
        f"objective={_fmt(result.objective_value)}",
        f"iterations={result.iterations}",
        f"converged={str(result.converged).lower()}",
    ]
    report_path.write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"fit_report={report_path}")
    print(f"fit_curve_csv={curve_path}")
    return 0


COMMANDS = {
    "classify": cmd_classify,
    "boundary": cmd_boundary,
    "simulate": cmd_simulate,
    "diagram": cmd_diagram,
    "fit": cmd_fit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rossmac",
        description="Viability kernels and viable fumigation policies for the "
        "controlled Ross-Macdonald dengue model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--out", help="output directory (default: '.')")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a configuration key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        return COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except Exception as exc:  # noqa: BLE001 - surface as exit code, not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
