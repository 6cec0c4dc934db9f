"""The four workloads: set-up, one round of operations, and their checks.

Imported by the worker after `import rossmac`.  A workload is built from its
seeded `program` inputs (the set-up), lists one round of operations in
`ops`, runs one with `run(op)` and checks its output with
`check(op, out, expect)`.  `check` compares against the oracle values in
`expect` or against properties the paper's method must have, never against
saved output.  It returns True when the operation shows one of the known
faults (it is then counted as failed) and raises CheckError on any other
disagreement.

Every call into rossmac sits in a span of the tracer, named after the
layer metric it feeds; spans cost one attribute test while tracing is off.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys

import numpy as np

import rossmac as R
from rossmac import estimation as E
from field import cap_corner, field

CAP_TOL = 1e-9  # h may exceed H_bar by this much (integration error)
END_TOL = 1e-8  # frontier end against the backward orbit's exit
# Seeded sweep cells only: Y(1) against the orbit's exit through m = 1.
# There build_kernel's defaults (rtol = atol = 1e-9) miss the end by up to
# 2.6e-8, on some cells and not others, so a seeded cell cannot hold the
# END_TOL line without failing on some seeds only.  The fixed cell
# FAULT_END holds it on every seed and counts the miss as failed.
END_TOL_M1 = 1e-7
ON_ORBIT_TOL = 1e-7  # frontier samples against the interpolated orbit
ODE_TOL = 2e-3  # secant slope against g_h/g_m at 1e-3 sample spacing
DISTANCE_TOL = 1e-5  # chord polyline against the dense orbit polyline
EQ_TOL = 1e-9  # closed-form equilibrium against the bracketed root
DOMINANCE_TOL = 1e-7  # comparison of trajectories under u <= u_max
FIT_REL_TOL = 0.01  # recovered A_m, A_h, delta against the generator's truth
GRAD_REL_TOL = 1e-4  # objective_gradient against central differences
FD_STEP = 1e-4  # relative step of those central differences
AMBIGUOUS = 1e-9  # cells this close to a threshold may go either way
FAULT_KERNEL = "medium kernel requires M_bar < M_inf <= 1"
FAULT_START, FAULT_END = "start_sample", "m1_end"  # the sweep's known-fault cells


class CheckError(Exception):
    pass


def need(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


class CountingFeedback(R.SaturatingFeedback):
    """SaturatingFeedback that counts its control evaluations (traced runs)."""

    calls = 0

    def control(self, t, m, h):
        self.calls += 1
        return super().control(t, m, h)


def _end_miss(m_end: float, y_end: float, orbit: dict) -> float:
    """How far the frontier's last sample (m_end, y_end) lies from the
    backward orbit's exit."""
    if orbit["edge"] == "h=0":
        return max(abs(m_end - orbit["m_exit"]), abs(y_end))
    return abs(y_end - orbit["h_exit"]) if m_end == 1.0 else math.inf


def _check_end(m_end: float, y_end: float, orbit: dict, where: str, tol: float = END_TOL) -> None:
    need(_end_miss(m_end, y_end, orbit) <= tol,
         f"{where}: frontier ends at ({m_end}, {y_end}), orbit leaves {orbit['edge']} at "
         f"({orbit['m_exit']}, {orbit['h_exit']})")


def _check_cap(traj, H_bar: float, where: str) -> None:
    need(traj.h.max() <= H_bar + CAP_TOL,
         f"{where}: h reaches {traj.h.max()} above the cap {H_bar}")


def _check_controls(traj, lo: float, hi: float, where: str) -> None:
    need(traj.u.min() >= lo and traj.u.max() <= hi,
         f"{where}: u in [{traj.u.min()}, {traj.u.max()}] outside [{lo}, {hi}]")


class Feedback:
    """Closed-loop SaturatingFeedback runs from seeded kernel states at
    H_bar = 0.5 on the Cali rates; the kernel is built once in set-up."""

    children = False

    def __init__(self, program: dict, tracer, out_dir: str):
        self.tr = tracer
        self.rates = R.ModelRates(**program["rates"])
        self.H_bar, self.horizon = program["H_bar"], program["horizon"]
        with tracer.span("kernel.build_kernel"):
            self.kernel = R.build_kernel(self.rates, self.H_bar)
        tracer.value("kernel.frontier_samples", self.kernel.frontier_m.size)
        self.states = [R.State(*s) for s in program["states"]]
        fault = program["fault"]
        self.fault_outside = fault["outside"]
        self.fault_start = R.State(*fault["start"])
        self.ops = list(range(len(self.states))) + ["fault"]
        self.frontier_checked = False

    def _policy(self):
        cls = CountingFeedback if self.tr.enabled else R.SaturatingFeedback
        return cls(self.kernel, self.rates.u_min, self.rates.u_max)

    def _simulate(self, state, policy):
        with self.tr.span("trajectory.simulate_feedback"):
            traj = R.simulate(state, policy, self.rates, self.horizon)
        if self.tr.enabled:
            self.tr.value("trajectory.feedback_control_calls", policy.calls)
        return traj

    def run(self, op):
        if op == "fault":
            policy = self._policy()
            policy.control(0.0, *self.fault_outside)
            return None, self._simulate(self.fault_start, policy)
        with self.tr.span("kernel.distance"):
            d = R.distance_to_frontier(self.kernel, self.states[op])
        return d, self._simulate(self.states[op], self._policy())

    def _check_frontier(self, orbit: dict) -> None:
        k = self.kernel
        need(abs(k.M_bar - cap_corner(self.rates, self.H_bar)) <= 1e-12,
             f"M_bar {k.M_bar} is not where dh/dt vanishes on the cap")
        _check_end(k.M_inf, k.frontier_y[-1], orbit, "feedback kernel")
        fm, fy = k.frontier_m, k.frontier_y
        gm, gh = field(0.5 * (fm[1:] + fm[:-1]), 0.5 * (fy[1:] + fy[:-1]), self.rates.u_max,
                       self.rates)
        residual = np.abs(np.diff(fy) / np.diff(fm) - gh / gm).max()
        need(residual <= ODE_TOL, f"frontier samples miss the boundary ODE by {residual}")
        off = np.abs(fy - np.interp(fm, orbit["m"], orbit["h"])).max()
        need(off <= ON_ORBIT_TOL, f"frontier samples lie {off} off the backward orbit")

    def check(self, op, out, expect) -> bool:
        orbit = expect["orbit"]
        if not self.frontier_checked:
            self._check_frontier(orbit)
            self.frontier_checked = True
        d, traj = out
        where = f"feedback op {op}"
        _check_cap(traj, self.H_bar, where)
        _check_controls(traj, self.rates.u_min, self.rates.u_max, where)
        edge = np.where(traj.m <= orbit["m"][0], self.H_bar,
                        np.interp(traj.m, orbit["m"], orbit["h"]))
        need(np.all(traj.h <= edge + ON_ORBIT_TOL), f"{where}: trajectory leaves the kernel")
        if op == "fault":
            # Known fault: left_kernel is stale from the earlier outside call.
            return bool(traj.left_kernel)
        need(abs(d - expect["distance"][op]) <= DISTANCE_TOL,
             f"{where}: distance {d}, oracle {expect['distance'][op]}")
        need(not traj.left_kernel, f"{where}: left_kernel reported from a kernel state")
        return False


class Fit:
    """60-day incidence_to_prevalence + fit on seeded synthetic outbreaks."""

    children = False

    def __init__(self, program: dict, tracer, out_dir: str):
        self.tr = tracer
        self.gamma = program["gamma"]
        self.series = []
        for d in program["datasets"]:
            cases = np.array(d["cases"])
            self.series.append(E.IncidenceSeries(days=np.arange(cases.size), new_cases=cases,
                                                 population=program["population"]))
        self.probes = [np.array(d["probe"]) for d in program["datasets"]]
        self.ops = list(range(len(self.series)))

    def run(self, op):
        with self.tr.span("estimation.incidence_to_prevalence"):
            data = E.incidence_to_prevalence(self.series[op], gamma=self.gamma)
        with self.tr.span("estimation.fit"):
            res = E.fit(data, gamma=self.gamma)
        self.tr.value("estimation.fit_nfev", res.iterations)
        return data, res

    def check(self, op, out, expect) -> bool:
        data, res = out
        where = f"fit op {op}"
        s = self.series[op]
        prevalence = np.empty(s.new_cases.size)
        prevalence[0] = s.new_cases[0]
        for j in range(1, prevalence.size):
            prevalence[j] = prevalence[j - 1] * (1.0 - self.gamma) + s.new_cases[j]
        need(np.allclose(data.h_hat, prevalence / s.population, rtol=1e-12, atol=0.0),
             f"{where}: prevalence differs from the geometric recursion")
        need(res.converged, f"{where}: fit did not converge")
        truth = expect["truth"][op]
        for name in ("A_m", "A_h", "delta"):
            got = getattr(res, name)
            need(abs(got / truth[name] - 1.0) <= FIT_REL_TOL,
                 f"{where}: {name} = {got}, truth {truth[name]}")
        self._check_gradient(self.probes[op], data, where)
        return False

    def _check_gradient(self, theta, data, where: str) -> None:
        with self.tr.span("estimation.objective_gradient"):
            g = E.objective_gradient(theta, data, gamma=self.gamma)
        fd = np.empty_like(g)
        with self.tr.span("estimation.objective", n=2 * theta.size):
            for i in range(theta.size):
                step = FD_STEP * theta[i]
                hi, lo = theta.copy(), theta.copy()
                hi[i] += step
                lo[i] -= step
                fd[i] = (E.objective(hi, data, gamma=self.gamma)
                         - E.objective(lo, data, gamma=self.gamma)) / (2 * step)
        err = np.linalg.norm(g - fd) / np.linalg.norm(g)
        need(err <= GRAD_REL_TOL, f"{where}: gradient off central differences by {err:.2e}")


class Sweep:
    """One operation per cell of a seeded (u_max, H_bar) grid, plus
    regime_diagram over the whole grid once per round."""

    children = False

    def __init__(self, program: dict, tracer, out_dir: str):
        self.tr = tracer
        self.base = R.ModelRates(**program["base"])
        self.u_grid, self.H_grid = program["u_grid"], program["H_grid"]
        self.horizon = program["horizon"]
        self.cells = []
        for c in program["cells"]:
            rates = R.ModelRates(**c["rates"])
            self.cells.append({
                "rates": rates, "H_bar": c["H_bar"], "fault": c.get("fault"),
                "states": [R.State(*s) for s in c["states"]],
                "constant": R.ConstantControl(rates.u_max),
                "piecewise": [R.PiecewiseConstantControl(tuple(map(tuple, s)))
                              for s in c["schedules"]],
            })
        self.ops = list(range(len(self.cells))) + ["diagram"]

    def run(self, op):
        tr = self.tr
        if op == "diagram":
            with tr.span("kernel.regime_diagram"):
                return R.regime_diagram(self.base, self.u_grid, self.H_grid)
        c = self.cells[op]
        rates, H_bar, states = c["rates"], c["H_bar"], c["states"]
        out = {}
        with tr.span("kernel.classify_regime"):
            out["regime"] = R.classify_regime(rates, H_bar)
        with tr.span("model.endemic_equilibrium"):
            out["eq"] = R.endemic_equilibrium(rates, rates.u_max)
        with tr.span("model.vector_field", n=len(states)):
            out["field"] = [R.vector_field(s, rates.u_max, rates) for s in states]
        if out["regime"] is R.Regime.MEDIUM:
            try:
                with tr.span("kernel.build_kernel"):
                    out["kernel"] = R.build_kernel(rates, H_bar)
            except ValueError as exc:
                if c["fault"] == FAULT_START and str(exc) == FAULT_KERNEL:
                    return None  # known fault: the frontier lost its start sample
                raise
            tr.value("kernel.frontier_samples", out["kernel"].frontier_m.size)
            with tr.span("kernel.membership", n=len(states)):
                out["member"] = [R.kernel_membership(out["kernel"], s) for s in states]
        out["constant"], out["piecewise"] = [], []
        for s, pw in zip(states, c["piecewise"]):
            with tr.span("trajectory.simulate_constant"):
                out["constant"].append(R.simulate(s, c["constant"], rates, self.horizon))
            with tr.span("trajectory.simulate_piecewise"):
                out["piecewise"].append(R.simulate(s, pw, rates, self.horizon))
        return out

    def check(self, op, out, expect) -> bool:
        if op == "diagram":
            got = [r.value for row in out for r in row]
            for g, e in zip(got, expect["cells"]):
                need(g == e["regime"] or e["margin"] < AMBIGUOUS,
                     f"regime_diagram: {g}, oracle {e['regime']}")
            need(len(got) == len(self.u_grid) * len(self.H_grid), "regime_diagram: wrong cell count")
            return False
        c, e = self.cells[op], expect["cells"][op]
        if out is None:
            return True
        rates, H_bar, where = c["rates"], c["H_bar"], f"sweep cell {op}"
        need(out["regime"].value == e["regime"] or e["margin"] < AMBIGUOUS,
             f"{where}: regime {out['regime'].value}, oracle {e['regime']}")
        eq, h_star = out["eq"], e["h_star"]
        if h_star is None:
            need(eq is None, f"{where}: equilibrium {eq} where the field has none")
        else:
            m_star = rates.A_m * h_star / (rates.A_m * h_star + rates.u_max)
            need(eq is not None and abs(eq.h - h_star) <= EQ_TOL and abs(eq.m - m_star) <= EQ_TOL,
                 f"{where}: equilibrium {eq}, oracle ({m_star}, {h_star})")
        for s, v in zip(c["states"], out["field"]):
            ref = field(s.m, s.h, rates.u_max, rates)
            need(np.allclose(v, ref, rtol=1e-12, atol=1e-15), f"{where}: vector_field {v}, {ref}")
        failed = False
        if e["orbit"] is not None and "kernel" in out:
            k, orbit = out["kernel"], e["orbit"]
            if c["fault"] == FAULT_END:
                # Known fault: Y(1) misses the orbit by more than END_TOL.
                failed = bool(_end_miss(k.M_inf, k.frontier_y[-1], orbit) > END_TOL)
                _check_end(k.M_inf, k.frontier_y[-1], orbit, where, END_TOL_M1)
            else:
                _check_end(k.M_inf, k.frontier_y[-1], orbit, where,
                           END_TOL_M1 if orbit["edge"] == "m=1" else END_TOL)
            for label, member in zip(e["labels"], out["member"]):
                need(member == (label == "inside"), f"{where}: {label} state has membership {member}")
        for label, const, pw in zip(e["labels"], out["constant"], out["piecewise"]):
            _check_controls(const, rates.u_max, rates.u_max, where)
            _check_controls(pw, rates.u_min, rates.u_max, where)
            # Higher fumigation can only lower both proportions.
            need(np.all(pw.m >= const.m - DOMINANCE_TOL) and np.all(pw.h >= const.h - DOMINANCE_TOL),
                 f"{where}: u_max trajectory not below the piecewise one")
            if label == "inside":
                _check_cap(const, H_bar, where)
                need(R.audit_viability(const, H_bar) is None, f"{where}: audit flags a kernel state")
            elif label == "outside":
                need(const.h.max() > H_bar and R.audit_viability(const, H_bar) is not None,
                     f"{where}: state outside the kernel keeps the cap under u_max")
            elif e["regime"] == "high":
                _check_cap(const, H_bar, where)
                _check_cap(pw, H_bar, where)
        return failed


class Cli:
    """One `rossmac` subcommand per operation, each a fresh
    `python -m rossmac.cli` process with src on the path."""

    children = True  # peak memory is the largest child's

    def __init__(self, program: dict, tracer, out_dir: str):
        import rossmac.cli  # the in-process main() calls of a traced run

        self.tr = tracer
        self.main = rossmac.cli.main
        self.out_dir = os.path.join(out_dir, "cli")
        src = os.path.dirname(os.path.dirname(R.__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.calls = program["calls"]
        self.argv = []
        for call in self.calls:
            args = list(call["args"])
            if "incidence" in call:
                path = os.path.join(self.out_dir, "incidence.csv")
                os.makedirs(self.out_dir, exist_ok=True)
                with open(path, "w", newline="") as fh:
                    w = csv.writer(fh)
                    w.writerow(["day", "new_cases"])
                    w.writerows([d, int(c)] for d, c in enumerate(call["incidence"]))
                args.append(f"incidence={path}")
            self.argv.append([call["cmd"]] + [a for kv in args for a in ("--set", kv)])
        self.ops = list(range(len(self.calls)))

    def _outdir(self, op, kind="call"):
        return os.path.join(self.out_dir, kind, self.calls[op]["cmd"])

    def run(self, op):
        cmd = self.calls[op]["cmd"]
        argv = [sys.executable, "-m", "rossmac.cli", *self.argv[op], "--out", self._outdir(op)]
        with self.tr.span(f"cli.{cmd}"):
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout, self._outdir(op)

    def main_calls(self):
        """Each subcommand through rossmac.cli.main in this process."""
        outs = []
        for op, call in enumerate(self.calls):
            outdir = self._outdir(op, "main")
            buf = io.StringIO()
            with self.tr.span(f"cli.{call['cmd']}.main"), contextlib.redirect_stdout(buf):
                rc = self.main([*self.argv[op], "--out", outdir])
            outs.append((op, (rc, buf.getvalue(), outdir)))
        return outs

    def child_times(self, reps: int) -> None:
        """Interpreter start-up alone, and `import rossmac` timed in a child."""
        code = "import time; t = time.perf_counter(); import rossmac; print(time.perf_counter() - t)"
        for _ in range(reps):
            with self.tr.span("cli.interpreter"):
                subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            proc = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                                  capture_output=True, text=True)
            self.tr.value("cli.import_ms", float(proc.stdout) * 1e3)

    def check(self, op, out, expect) -> bool:
        rc, stdout, outdir = out
        cmd = self.calls[op]["cmd"]
        where = f"cli {cmd}"
        need(rc == 0, f"{where}: exit code {rc}")
        kv = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        e = expect[cmd]
        if cmd == "classify":
            need(kv["regime"] == e["regime"], f"{where}: regime {kv['regime']}, oracle {e['regime']}")
            for key, ref in (("threshold_low", e["lower"]), ("threshold_high", e["upper"])):
                need(abs(float(kv[key]) - ref) <= 1e-11 * abs(ref), f"{where}: {key} {kv[key]}, {ref}")
        elif cmd == "boundary":
            rows = _read_csv(os.path.join(outdir, "frontier.csv"))
            _check_end(*rows[-1], e, where)
        elif cmd == "simulate":
            t, m, h, u = np.array(_read_csv(os.path.join(outdir, "trajectory.csv"))).T
            need(h.max() <= e["H_bar"] + CAP_TOL, f"{where}: h reaches {h.max()}")
            need(u.min() >= e["u_min"] and u.max() <= e["u_max"], f"{where}: u out of bounds")
            need(kv.get("viability_violation") == "none" and "left_kernel" not in kv,
                 f"{where}: run reports {kv}")
        elif cmd == "diagram":
            with open(os.path.join(outdir, "diagram.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            need(len(rows) == len(e), f"{where}: {len(rows)} cells, expected {len(e)}")
            for (u, H, reg), (u_ref, H_ref, reg_ref, margin) in zip(rows, e):
                need(abs(float(u) - u_ref) <= 1e-11 * u_ref and abs(float(H) - H_ref) <= 1e-11,
                     f"{where}: cell ({u}, {H}) is not ({u_ref}, {H_ref})")
                need(reg == reg_ref or margin < AMBIGUOUS,
                     f"{where}: cell ({u}, {H}) is {reg}, oracle {reg_ref}")
        elif cmd == "fit":
            with open(os.path.join(outdir, "fit_report.txt")) as fh:
                report = dict(line.strip().split("=", 1) for line in fh if "=" in line)
            need(report["converged"] == "true", f"{where}: fit did not converge")
            for name in ("A_m", "A_h", "delta"):
                got = float(report[name])
                need(abs(got / e[name] - 1.0) <= FIT_REL_TOL, f"{where}: {name} {got}, truth {e[name]}")
        return False


def _read_csv(path) -> list[list[float]]:
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


WORKLOADS = {"feedback_cali": Feedback, "fit_cali": Fit, "regime_sweep": Sweep, "cli_calls": Cli}
