"""Show that every check fires when the output it guards is perturbed.

    python3 bench/mutations.py

For each check in bench/workloads.py this runs one real operation on the
inputs of seed SEED, confirms that its unperturbed output passes, perturbs
the output (or the file the check reads) and confirms that the check then
raises CheckError.  One line per mutation; exits 1 if a perturbed output
passes or a clean one fails.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads as W  # noqa: E402
from rossmac import estimation as E  # noqa: E402
from rossmac import Regime, State  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = os.path.join(HERE, "out", "mutations")
SEED = 1


def with_attr(obj, **changes):
    """A copy of a frozen object with some attributes replaced."""
    new = copy.copy(obj)
    for k, v in changes.items():
        object.__setattr__(new, k, v)
    return new


def bump(a, i, delta):
    a = np.array(a, dtype=float)
    a[i] += delta
    return a


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def feedback_mutations(wl, e):
    orbit, H, u_max = e["orbit"], wl.H_bar, wl.rates.u_max
    k = wl.kernel
    m_out = 0.5 * (k.M_bar + k.M_inf)
    h_out = float(np.interp(m_out, orbit["m"], orbit["h"])) + 1e-5

    def frontier(**changes):
        def run(out):
            wl.kernel, wl.frontier_checked = with_attr(k, **changes), False
            return out
        return run

    def traj(**changes):
        return lambda out: (out[0], dataclasses.replace(out[1], **changes))

    t = lambda out: out[1]  # noqa: E731
    return [
        ("frontier M_inf replaced by 1.0", 0, frontier(M_inf=1.0)),
        ("frontier end shifted by 2e-8", 0, frontier(M_inf=k.M_inf + 2e-8)),
        ("one frontier sample moved by 1e-5", 0, frontier(frontier_y=bump(k.frontier_y, 40, 1e-5))),
        ("M_bar moved by 1e-9", 0, frontier(M_bar=k.M_bar + 1e-9)),
        ("h above the cap", 0, lambda out: traj(h=bump(t(out).h, -1, H - t(out).h[-1] + 1e-8))(out)),
        ("u above u_max", 0, lambda out: traj(u=bump(t(out).u, 3, u_max))(out)),
        ("sample outside the kernel", 0, lambda out: traj(
            m=bump(t(out).m, 7, m_out - t(out).m[7]), h=bump(t(out).h, 7, h_out - t(out).h[7]))(out)),
        ("distance off by 1e-4", 0, lambda out: (out[0] + 1e-4, out[1])),
        ("left_kernel on a clean run", 0, traj(left_kernel=True)),
    ]


def fit_mutations(wl, e):
    def gradient_scaled(out):
        real = E.objective_gradient  # main() puts it back after each mutation
        E.objective_gradient = lambda *a, **kw: real(*a, **kw) * (1 + 1e-3)
        return out

    return [
        ("prevalence scaled by 1 + 1e-9", 0, lambda out: (
            dataclasses.replace(out[0], h_hat=out[0].h_hat * (1 + 1e-9)), out[1])),
        ("fit not converged", 0, lambda out: (out[0], dataclasses.replace(out[1], converged=False))),
        ("A_m off by 2%", 0, lambda out: (out[0], dataclasses.replace(out[1], A_m=out[1].A_m * 1.02))),
        ("A_h off by 2%", 0, lambda out: (out[0], dataclasses.replace(out[1], A_h=out[1].A_h * 1.02))),
        ("delta off by 2%", 0, lambda out: (out[0], dataclasses.replace(out[1], delta=out[1].delta * 1.02))),
        ("objective_gradient scaled by 1 + 1e-3", 0, gradient_scaled),
    ]


def sweep_mutations(wl, e):
    cells = e["cells"][:-1]
    first = lambda pred: next(i for i, c in enumerate(cells) if pred(c))  # noqa: E731
    med = first(lambda c: c["regime"] == "medium" and "outside" in c["labels"])
    eq = first(lambda c: c["h_star"] is not None)
    high = first(lambda c: c["regime"] == "high")
    end_fault = next(i for i, c in enumerate(wl.cells) if c["fault"] == W.FAULT_END)
    out_i = e["cells"][med]["labels"].index("outside")
    H_high = wl.cells[high]["H_bar"]

    def edit(key, fn):
        def run(out):
            out = dict(out)
            out[key] = fn(out[key])
            return out
        return run

    def at(lst, i, fn):
        lst = list(lst)
        lst[i] = fn(lst[i])
        return lst

    def raise_h(tr, to):
        return dataclasses.replace(tr, h=bump(tr.h, -1, to - tr.h[-1]))

    def dip(out):
        below = out["constant"][0].m[50] - 1e-6
        return edit("piecewise", lambda ts: at(
            ts, 0, lambda tr: dataclasses.replace(tr, m=bump(tr.m, 50, below - tr.m[50]))))(out)

    return [
        ("regime flipped", med, edit("regime", lambda r: Regime.HIGH)),
        ("equilibrium h off by 1e-8", eq, edit("eq", lambda s: State(s.m, s.h + 1e-8))),
        ("vector_field off by 1e-9 relative", med, edit("field", lambda f: at(
            f, 0, lambda v: (v[0] * (1 + 1e-9) + 1e-14, v[1])))),
        ("frontier M_inf replaced by 1.0", med, edit("kernel", lambda k: with_attr(k, M_inf=1.0))),
        ("Y(1) of the fixed m = 1 cell moved by 2e-7", end_fault, edit("kernel", lambda k: with_attr(
            k, frontier_y=bump(k.frontier_y, -1, 2e-7)))),
        ("membership flipped", med, edit("member", lambda ms: [not m for m in ms])),
        ("piecewise run dips below the u_max run", med, dip),
        ("inside state breaks the cap", med, edit("constant", lambda ts: at(
            ts, 0, lambda tr: raise_h(tr, wl.cells[med]["H_bar"] + 1e-8)))),
        ("outside state keeps the cap", med, edit("constant", lambda ts: at(
            ts, out_i, lambda tr: dataclasses.replace(tr, h=np.minimum(tr.h, wl.cells[med]["H_bar"]))))),
        ("high cell breaks the cap under piecewise control", high, edit("piecewise", lambda ts: at(
            ts, 0, lambda tr: raise_h(tr, H_high + 1e-8)))),
        ("regime_diagram cell flipped", "diagram", lambda rows: at(
            rows, 0, lambda row: at(row, 0, lambda r: Regime.HIGH if r is not Regime.HIGH
                                     else Regime.LOW))),
    ]


def cli_mutations(wl, e):
    def stdout(fn):
        return lambda out: (out[0], fn(out[1]), out[2])

    def in_file(name, edit):
        def run(out):
            rewrite_csv(os.path.join(out[2], name), edit)
            return out
        return run

    def threshold_low_scaled(text):
        return "\n".join(f"threshold_low={float(ln.split('=')[1]) * (1 + 1e-9)!r}"
                         if ln.startswith("threshold_low=") else ln for ln in text.splitlines())

    def last_m(rows):
        rows[-1][0] = repr(float(rows[-1][0]) + 2e-8)

    def above_cap(rows):
        rows[5][2] = repr(e["simulate"]["H_bar"] + 1e-8)

    def flip(rows):
        rows[1][2] = "high" if rows[1][2] != "high" else "low"

    def fit_report(out):
        path = os.path.join(out[2], "fit_report.txt")
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines = [f"A_m={float(ln[4:]) * 1.02!r}" if ln.startswith("A_m=") else ln for ln in lines]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return out

    return [
        ("nonzero exit code", 0, lambda out: (1, out[1], out[2])),
        ("classify threshold_low off by 1e-9 relative", 0, stdout(threshold_low_scaled)),
        ("frontier.csv end moved by 2e-8", 1, in_file("frontier.csv", last_m)),
        ("trajectory.csv above the cap", 2, in_file("trajectory.csv", above_cap)),
        ("diagram.csv cell flipped", 3, in_file("diagram.csv", flip)),
        ("fit_report.txt A_m off by 2%", 4, fit_report),
    ]


MUTATIONS = {"feedback_cali": feedback_mutations, "fit_cali": fit_mutations,
             "regime_sweep": sweep_mutations, "cli_calls": cli_mutations}


def main() -> int:
    tracer, bad = Tracer(), 0
    real_gradient = E.objective_gradient
    for name, mutations in MUTATIONS.items():
        program, expect = json.loads(json.dumps(inputs.MAKERS[name](SEED)))
        wl = W.WORKLOADS[name](program, tracer, OUT)
        clean_state = dict(vars(wl))
        for label, index, perturb in mutations(wl, expect):
            op = wl.ops[index] if isinstance(index, int) else index
            out = wl.run(op)
            try:
                wl.check(op, out, expect)
            except W.CheckError as exc:
                bad += 1
                print(f"CLEAN FAIL  {name}: {label}: {exc}")
            else:
                try:
                    wl.check(op, perturb(out), expect)
                except W.CheckError as exc:
                    print(f"ok    {name}: {label}: {exc}")
                else:
                    bad += 1
                    print(f"MISS  {name}: {label}: the perturbed output passed")
            vars(wl).update(clean_state)
            E.objective_gradient = real_gradient
    print(f"{bad} clean outputs failed or perturbed outputs passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
