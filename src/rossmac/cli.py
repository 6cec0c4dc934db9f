"""Command-line front end: classify, boundary, simulate, fit, diagram.

Configuration comes from a flat `key = value` file (with `#` comments);
individual keys can be overridden on the command line with repeated
`--set key=value` flags.  Results go to stdout as machine-parseable
`key=value` lines, diagnostics to stderr, and CSV/SVG artifacts to the
output directory.

Exit codes: 0 success, 2 invalid configuration (a config file that cannot
be read, named with its path, a key that `COMMANDS` does not list for the
command, named with its `file:line` or `--set`, and every ValueError that
reaches `main`, raised here or by the library on a bad input), 3 boundary
requested outside the medium regime, 4 feedback policy outside the medium
regime, 5 malformed incidence CSV, one of fewer than two days, one whose
prevalence exceeds population, one whose first day has no cases or one whose
first-day prevalence exceeds 1/3 (the model starts at m(0) = 3*h(0)), 1 any
other runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

# Only fit imports estimation, which costs 6-17 ms to import, so every other
# command leaves it unloaded.
from rossmac.kernel import (
    DEFAULT_STEP,
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


class NotMediumError(Exception):
    """A frontier or a feedback policy requested outside the medium regime."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def load_config(path: str | None, overrides: list[str], command: str) -> dict[str, str]:
    """The file's `key = value` lines, then the `--set` items, which win.
    A key that `command` does not read is refused, naming where it came from."""
    try:
        lines = Path(path).read_text().splitlines() if path is not None else []
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable or not text
        reason = getattr(exc, "strerror", exc)
        raise ValueError(f"cannot read config file {path}: {reason}") from None
    items = [(f"{path}:{n}", line.split("#", 1)[0]) for n, line in enumerate(lines, start=1)]
    cfg: dict[str, str] = {}
    for where, item in items + [("--set", item) for item in overrides]:
        if not item.strip():
            continue  # a blank or comment-only line
        if "=" not in item:
            raise ValueError(f"{where}: expected key=value, got {item.strip()!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in COMMANDS[command][1]:
            raise ValueError(f"{where}: {command} does not read key {key!r}")
        cfg[key] = value
    return cfg


def _get(cfg: dict[str, str], key: str, default=None, parse=float):
    """`cfg[key]` read by `parse`, or `default` when the key is absent;
    with no default the key is required."""
    if key not in cfg:
        if default is None:
            raise ValueError(f"missing required key: {key}")
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ValueError(f"invalid value for key {key}: {cfg[key]!r} ({exc})") from exc


def _count(text: str) -> int:
    """A positive integer, such as `60` or `2.4e6`."""
    value = float(text)
    if not (value > 0.0 and value.is_integer()):
        raise ValueError("not a positive integer")
    return int(value)


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("expected true or false")
    return text == "true"


def _grid(spec: str) -> list[float]:
    """`lo:hi:n` for n evenly spaced values, or `v,v,...`."""
    if ":" in spec:
        lo, hi, n = spec.split(":")
        return list(np.linspace(float(lo), float(hi), int(n)))
    return [float(v) for v in spec.split(",")]


def _schedule(spec: str) -> PiecewiseConstantControl:
    """`t:u,t:u,...` breakpoints of a piecewise-constant control."""
    pairs = (item.split(":") for item in spec.split(","))
    return PiecewiseConstantControl(tuple((float(t), float(u)) for t, u in pairs))


def rates_from_config(cfg: dict[str, str]) -> ModelRates:
    """Reduced rates if A_m or A_h is given (u_min 0 unless given), else raw
    parameters (u_min is delta).  A key of the other form alone is refused."""
    form = _REDUCED if "A_m" in cfg or "A_h" in cfg else _RAW
    unread = [key for key in _RATES if key in cfg and key not in form]
    if unread:
        raise ValueError(f"key {unread[0]!r} is not read with the rates {', '.join(form)}")
    values = {key: _get(cfg, key, 0.0 if key == "u_min" else None) for key in form}
    if form is _REDUCED:
        return ModelRates(**values)
    u_max = values.pop("u_max")
    return derive_rates(EpiParams(**values), u_max)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_classify(cfg: dict[str, str], args) -> int:
    rates = rates_from_config(cfg)
    H_bar = _get(cfg, "H_bar")
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
    """The one kernel request of `boundary` and feedback `simulate`, both
    of which need the medium regime."""
    desc = build_kernel(rates, _get(cfg, "H_bar"), _get(cfg, "step", DEFAULT_STEP))
    if desc.regime is not Regime.MEDIUM:
        kernel = "the origin only" if desc.regime is Regime.LOW else "the whole constraint box"
        raise NotMediumError(f"regime {desc.regime.value}: the kernel is {kernel}, not medium")
    return desc


def cmd_boundary(cfg: dict[str, str], args) -> int:
    svg = _get(cfg, "svg", False, _flag)
    desc = _kernel_from_config(cfg, rates_from_config(cfg))
    out = _out_dir(args)
    csv_path = out / "frontier.csv"
    _write_frontier_csv(csv_path, desc.frontier_m, desc.frontier_y)
    if svg:
        _write_kernel_svg(out / "kernel.svg", desc)
    print(f"regime={desc.regime.value}")
    print(f"m_bar={_fmt(desc.M_bar)}")
    print(f"m_inf={_fmt(desc.M_inf)}")
    print(f"outside_proven_hypotheses={str(desc.outside_proven_hypotheses).lower()}")
    print(f"frontier_csv={csv_path}")
    return 0


def _policy_from_config(cfg, rates):
    kind = _get(cfg, "policy", "constant", str.lower)
    if kind == "constant":
        return ConstantControl(_get(cfg, "u", rates.u_max))
    if kind == "piecewise":
        return _get(cfg, "schedule", parse=_schedule)
    if kind == "feedback":
        return SaturatingFeedback(_kernel_from_config(cfg, rates), rates.u_min, rates.u_max)
    raise ValueError(f"invalid value for key policy: {kind!r}")


def cmd_simulate(cfg: dict[str, str], args) -> int:
    rates = rates_from_config(cfg)
    H_bar = _get(cfg, "H_bar")
    initial = State(m=_get(cfg, "m0"), h=_get(cfg, "h0"))
    horizon = _get(cfg, "horizon")
    dt_out = _get(cfg, "dt_out", 0.1)
    policy = _policy_from_config(cfg, rates)
    # The tolerances reach this run only, never the feedback policy's kernel.
    tolerances = {key: _get(cfg, key) for key in ("rtol", "atol") if key in cfg}
    traj = simulate(initial, policy, rates, horizon, dt_out=dt_out, **tolerances)
    violation = audit_viability(traj, H_bar)  # before the CSV: it refuses a bad cap
    csv_path = _out_dir(args) / "trajectory.csv"
    _write_csv(csv_path, ["t", "m", "h", "u"],
               ([_fmt(v) for v in row] for row in zip(traj.t, traj.m, traj.h, traj.u)))
    print(f"trajectory_csv={csv_path}")
    print("viability_violation=" + ("none" if violation is None else _fmt(violation)))
    if traj.left_kernel:
        print("left_kernel=true")
    return 0


def cmd_diagram(cfg: dict[str, str], args) -> int:
    # The grid's u values stand in for u_max, so the key may be left out:
    # it then defaults to u_min (delta in the raw form), which the rates accept.
    rates = rates_from_config({"u_max": cfg.get("u_min", cfg.get("delta", "0")), **cfg})
    u_grid, H_grid = _get(cfg, "u_grid", parse=_grid), _get(cfg, "H_grid", parse=_grid)
    grid = regime_diagram(rates, u_grid, H_grid)
    csv_path = _out_dir(args) / "diagram.csv"
    _write_csv(csv_path, ["u", "H", "regime"],
               ([_fmt(u), _fmt(H), regime.value]
                for H, row in zip(H_grid, grid) for u, regime in zip(u_grid, row)))
    print(f"diagram_csv={csv_path}")
    return 0


def cmd_fit(cfg: dict[str, str], args) -> int:
    from rossmac import estimation

    incidence = _get(cfg, "incidence", parse=str)
    population = _get(cfg, "population", parse=_count)
    gamma = _get(cfg, "gamma", estimation.DEFAULT_GAMMA)
    window = _get(cfg, "fit_days", estimation.FIT_WINDOW_DAYS, _count)
    estimation._check_gamma(gamma)  # exit 2 before the CSV can exit 5
    try:
        series = estimation.read_incidence_csv(incidence, population)
    except (OSError, ValueError) as exc:  # a file that is not UTF-8 text included
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_CSV
    try:
        data = estimation.incidence_to_prevalence(series, gamma=gamma)
        head = slice(window + 1)
        data = estimation.PrevalenceDataset(days=data.days[head], h_hat=data.h_hat[head])
        result = estimation.fit(data, gamma=gamma)
    except ValueError as exc:
        print(f"{incidence}: {exc}", file=sys.stderr)
        return EXIT_BAD_CSV
    out = _out_dir(args)

    h_model = estimation.simulate_h(
        result.theta_hat, float(data.h_hat[0]), data.days.astype(float), gamma=gamma
    )
    curve_path = out / "fit_curve.csv"
    _write_csv(curve_path, ["day", "h_hat", "h_model"],
               ([int(d), _fmt(hh), _fmt(hm)] for d, hh, hm in zip(data.days, data.h_hat, h_model)))

    report_path = out / "fit_report.txt"
    lines = [f"{name}={_fmt(value)}" for name, value in asdict(result.theta_hat).items()]
    lines += [
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


# Each command's function and every key it reads; load_config refuses any
# other.  Rates come reduced or raw (see rates_from_config), _KERNEL feeds
# _kernel_from_config, and simulate reads its own tolerances and the keys of
# all three policies.
_REDUCED = ("A_m", "A_h", "gamma", "u_min", "u_max")
_RAW = ("alpha", "p_h", "p_m", "xi", "delta", "gamma", "u_max")
_RATES = tuple(dict.fromkeys(_REDUCED + _RAW))
_KERNEL = ("H_bar", "step")
COMMANDS = {
    "classify": (cmd_classify, (*_RATES, "H_bar")),
    "boundary": (cmd_boundary, (*_RATES, *_KERNEL, "svg")),
    "simulate": (cmd_simulate, (*_RATES, *_KERNEL, "m0", "h0", "horizon", "dt_out", "rtol",
                                "atol", "policy", "u", "schedule")),
    "diagram": (cmd_diagram, (*_RATES, "u_grid", "H_grid")),
    "fit": (cmd_fit, ("incidence", "population", "gamma", "fit_days")),
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
        p.add_argument("--out", default=".", help="output directory (default: '.')")
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
        cfg = load_config(args.config, args.set, args.command)
        return COMMANDS[args.command][0](cfg, args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NotMediumError as exc:
        print(exc, file=sys.stderr)
        return EXIT_NOT_MEDIUM_BOUNDARY if args.command == "boundary" else EXIT_NOT_MEDIUM_FEEDBACK
    except Exception as exc:  # noqa: BLE001 - surface as exit code, not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
