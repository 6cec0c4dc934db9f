"""End-to-end tests of the command-line front end via `cli.main`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rossmac import cli
from rossmac.estimation import generate_synthetic_incidence
from rossmac.kernel import KernelDescription, Regime, build_kernel, kernel_membership, m_bar
from rossmac.model import ModelRates, State

from frontier_oracle import reversed_orbit_exit

MEDIUM = {
    "A_m": "0.02906",
    "A_h": "0.31066",
    "gamma": "0.1",
    "u_min": "0.01",
    "u_max": "0.03733",
    "H_bar": "0.5",
}


def run(command, tmp_path, overrides, capsys, **kw):
    argv = [command, "--out", str(tmp_path)]
    for k, v in overrides.items():
        argv += ["--set", f"{k}={v}"]
    for k, v in kw.items():
        argv += [f"--{k}", str(v)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    values = dict(
        line.split("=", 1) for line in captured.out.splitlines() if "=" in line
    )
    return code, values, captured.err


class TestClassify:
    def test_medium(self, tmp_path, capsys):
        code, out, _ = run("classify", tmp_path, MEDIUM, capsys)
        assert code == 0
        assert out["regime"] == "medium"
        assert float(out["threshold_low"]) == pytest.approx(0.44368, abs=1e-4)
        assert float(out["threshold_high"]) == pytest.approx(0.75649, abs=1e-4)
        assert float(out["m_bar"]) == pytest.approx(0.321895, abs=1e-5)
        assert out["outside_proven_hypotheses"] == "false"

    def test_low_and_high(self, tmp_path, capsys):
        code, out, _ = run("classify", tmp_path, {**MEDIUM, "H_bar": "0.4"}, capsys)
        assert code == 0 and out["regime"] == "low"
        code, out, _ = run("classify", tmp_path, {**MEDIUM, "H_bar": "0.9"}, capsys)
        assert code == 0 and out["regime"] == "high"

    def test_cap_whose_frontier_cannot_start_is_flagged(self, tmp_path, capsys):
        # H_bar is the lower threshold itself, which boundary refuses; one ulp
        # above, the frontier traces (see tests/test_kernel.py).
        at_lower = {**MEDIUM, "H_bar": "0.44368002237949816"}
        code, out, _ = run("classify", tmp_path, at_lower, capsys)
        assert code == 0 and out["regime"] == "medium"
        assert out["outside_proven_hypotheses"] == "true"
        code, _, err = run("boundary", tmp_path, at_lower, capsys)
        assert code == 1 and "does not start" in err
        above = {**MEDIUM, "H_bar": "0.4436800223794982"}
        code, out, _ = run("classify", tmp_path, above, capsys)
        assert code == 0 and out["outside_proven_hypotheses"] == "false"

    def test_raw_parameter_config(self, tmp_path, capsys):
        cfg = {
            "alpha": "0.3365", "p_h": "0.2287", "p_m": "0.1532", "xi": "1.0359",
            "delta": "0.0333", "gamma": "0.1", "u_max": "0.05", "H_bar": "0.9",
        }
        code, out, _ = run("classify", tmp_path, cfg, capsys)
        assert code == 0
        assert out["regime"] == "high"

    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = dict(MEDIUM)
        del cfg["H_bar"]
        code, _, err = run("classify", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "H_bar" in err

    def test_tol_flag_is_gone(self):
        # No command reads a --tol flag; simulate reads the rtol and atol keys.
        argv = ["classify", "--tol", "1e-9"]
        argv += [a for k, v in MEDIUM.items() for a in ("--set", f"{k}={v}")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_config_file_with_comments(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            "# medium-regime instance\n"
            "A_m = 0.02906\nA_h = 0.31066\ngamma = 0.1  # recovery\n"
            "u_min = 0.01\nu_max = 0.03733\nH_bar = 0.5\n"
        )
        code = cli.main(["classify", "--config", str(cfg_file)])
        out = capsys.readouterr().out
        assert code == 0 and "regime=medium" in out


class TestBoundary:
    def test_writes_frontier_csv(self, tmp_path, capsys):
        code, out, _ = run("boundary", tmp_path, {**MEDIUM, "step": "2e-4"}, capsys)
        assert code == 0
        assert float(out["m_inf"]) == pytest.approx(0.427869601, abs=1e-6)
        rows = (tmp_path / "frontier.csv").read_text().splitlines()
        assert rows[0] == "m,Y"
        first = rows[1].split(",")
        assert float(first[0]) == pytest.approx(float(out["m_bar"]), abs=1e-9)
        assert float(first[1]) == 0.5

    def test_csv_roundtrip_reproduces_membership(self, tmp_path, capsys):
        code, out, _ = run("boundary", tmp_path, {**MEDIUM, "step": "2e-4"}, capsys)
        assert code == 0
        data = np.loadtxt(tmp_path / "frontier.csv", delimiter=",", skiprows=1)
        rebuilt = KernelDescription(
            regime=Regime.MEDIUM,
            H_bar=0.5,
            frontier_m=data[:, 0],
            frontier_y=data[:, 1],
        )
        rates = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1,
                           u_min=0.01, u_max=0.03733)
        direct = build_kernel(rates, 0.5, step=2e-4)
        rng = np.random.default_rng(23)
        for _ in range(200):
            s = State(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            assert kernel_membership(rebuilt, s) == kernel_membership(direct, s)

    def test_cap_just_below_upper_threshold(self, tmp_path, capsys):
        # M_inf lies within a quarter step of M_bar here: the frontier is
        # its start and end sample alone.
        code, out, err = run("boundary", tmp_path, {**MEDIUM, "H_bar": "0.7564885"}, capsys)
        assert code == 0, err
        rows = (tmp_path / "frontier.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "0.7564885"

    def test_default_tolerances_meet_the_m1_exit(self, tmp_path, capsys):
        # The frontier is traced at the kernel's fixed tolerances.  On this
        # cell, which leaves the box through m = 1, rtol = 1e-9 put the last
        # row 2.3e-8 off the backward orbit's exit; the fixed ones miss by 2.75e-10.
        u_max, H_bar = 0.01271789327358196, 0.7305437433203956
        cell = {**MEDIUM, "u_max": repr(u_max), "H_bar": repr(H_bar)}
        code, _, err = run("boundary", tmp_path, cell, capsys)
        assert code == 0, err
        m_end, y_end = np.loadtxt(tmp_path / "frontier.csv", delimiter=",", skiprows=1)[-1]
        rates = ModelRates(A_m=0.02906, A_h=0.31066, gamma=0.1, u_min=0.01, u_max=u_max)
        orbit = reversed_orbit_exit(rates, m_bar(rates, H_bar), H_bar)
        assert orbit.edge == "m=1" and m_end == 1.0
        assert abs(y_end - orbit.h) < 2e-9

    # step = 1e-12 asks for some 10^11 frontier samples, beyond the cap.
    @pytest.mark.parametrize("key, value", [("H_bar", "1.5"), ("H_bar", "0"), ("step", "0"),
                                            ("step", "-1e-3"), ("step", "nan"),
                                            ("step", "1e-12")])
    def test_bad_cap_or_step_exits_2(self, tmp_path, capsys, key, value):
        code, _, err = run("boundary", tmp_path, {**MEDIUM, key: value}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert key in err
        assert not (tmp_path / "frontier.csv").exists()

    def test_non_medium_exits_3(self, tmp_path, capsys):
        code, _, err = run("boundary", tmp_path, {**MEDIUM, "H_bar": "0.9"}, capsys)
        assert code == cli.EXIT_NOT_MEDIUM_BOUNDARY
        assert "high" in err

    def test_svg_artifact(self, tmp_path, capsys):
        code, _, _ = run("boundary", tmp_path,
                         {**MEDIUM, "step": "1e-3", "svg": "true"}, capsys)
        assert code == 0
        svg = (tmp_path / "kernel.svg").read_text()
        assert svg.startswith("<svg") and "path" in svg

    def test_svg_closes_the_polygon_below_an_m1_exit(self, tmp_path, capsys):
        # The frontier of this cell ends on m = 1 above h = 0, so the polygon
        # runs down the right edge to (1, 0) before it closes.
        cell = {**MEDIUM, "u_max": "0.01271789327358196", "H_bar": "0.7305437433203956",
                "svg": "true"}
        code, out, err = run("boundary", tmp_path, cell, capsys)
        assert code == 0, err
        assert float(out["m_inf"]) == 1.0
        path = (tmp_path / "kernel.svg").read_text().split('<path d="M ')[1].split(" Z")[0]
        corners = [tuple(map(float, p.split())) for p in path.split(" L ")]
        assert corners[0] == (40.0, 360.0) and corners[-1] == (560.0, 360.0)
        assert corners[-2][0] == 560.0 and corners[-2][1] < 360.0

    @pytest.mark.parametrize("value", ["maybe", "yes", "1"])
    def test_svg_is_true_or_false(self, tmp_path, capsys, value):
        code, _, err = run("boundary", tmp_path, {**MEDIUM, "svg": value}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "key svg" in err and "true or false" in err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    BASE = {
        **MEDIUM,
        "m0": "0.1", "h0": "0.2", "horizon": "50", "dt_out": "1",
    }

    def test_constant_policy(self, tmp_path, capsys):
        code, out, _ = run("simulate", tmp_path,
                           {**self.BASE, "policy": "constant", "u": "0.03"}, capsys)
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,m,h,u"
        assert len(rows) == 52  # 0..50 inclusive plus header
        last = rows[-1].split(",")
        assert float(last[0]) == 50.0
        assert float(last[3]) == 0.03

    def test_feedback_keeps_trajectory_viable(self, tmp_path, capsys):
        code, out, _ = run("simulate", tmp_path,
                           {**self.BASE, "policy": "feedback", "step": "2e-4",
                            "horizon": "200"}, capsys)
        assert code == 0
        assert out["viability_violation"] == "none"

    def test_left_kernel_is_printed_for_a_start_outside(self, tmp_path, capsys):
        # (0.9, 0.45) lies beyond M_inf of the Cali kernel at H_bar = 0.5.
        cfg = {**self.BASE, "policy": "feedback"}
        code, out, err = run("simulate", tmp_path, cfg, capsys)
        assert code == 0, err
        assert "left_kernel" not in out
        code, out, err = run("simulate", tmp_path, {**cfg, "m0": "0.9", "h0": "0.45"}, capsys)
        assert code == 0, err
        assert out["left_kernel"] == "true"

    @pytest.mark.parametrize("key, value", [("rtol", "1e-15"), ("atol", "-1"), ("atol", "nan")])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, key, value):
        code, _, err = run("simulate", tmp_path, {**self.BASE, key: value}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert key in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_tolerances_do_not_reach_the_kernel(self):
        # rtol = 1e-9 would end this cell's frontier 2.1e-8 off the backward
        # orbit's exit; the feedback policy's kernel ignores it.
        cell = {**self.BASE, "u_max": "0.01271789327358196", "H_bar": "0.7305437433203956",
                "policy": "feedback", "rtol": "1e-9"}
        cfg = cli.load_config(None, [f"{k}={v}" for k, v in cell.items()], "simulate")
        rates = cli.rates_from_config(cfg)
        desc = cli._kernel_from_config(cfg, rates)
        direct = build_kernel(rates, 0.7305437433203956, 1e-3)
        assert desc.frontier_m.tobytes() == direct.frontier_m.tobytes()
        assert desc.frontier_y.tobytes() == direct.frontier_y.tobytes()

    def test_stiff_rates_exit_1(self, tmp_path, capsys):
        code, _, err = run("simulate", tmp_path,
                           {**self.BASE, "A_m": "1e8", "policy": "constant", "u": "0.02",
                            "horizon": "200"}, capsys)
        assert code == 1
        assert "too many steps" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_feedback_non_medium_exits_4(self, tmp_path, capsys):
        code, _, err = run("simulate", tmp_path,
                           {**self.BASE, "policy": "feedback", "H_bar": "0.9"}, capsys)
        assert code == cli.EXIT_NOT_MEDIUM_FEEDBACK
        assert "medium" in err

    @pytest.mark.parametrize("policy", ["constant", "piecewise", "feedback"])
    @pytest.mark.parametrize("H_bar", ["2", "0", "nan"])
    def test_cap_outside_unit_interval_exits_2(self, tmp_path, capsys, policy, H_bar):
        cfg = {**self.BASE, "policy": policy, "schedule": "0:0.01", "H_bar": H_bar}
        code, _, err = run("simulate", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "H_bar" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("step", ["0", "-1e-3", "nan"])
    def test_feedback_bad_step_exits_2(self, tmp_path, capsys, step):
        cfg = {**self.BASE, "policy": "feedback", "step": step}
        code, _, err = run("simulate", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "step" in err

    def test_piecewise_schedule(self, tmp_path, capsys):
        code, out, _ = run("simulate", tmp_path,
                           {**self.BASE, "policy": "piecewise",
                            "schedule": "0:0.01,25:0.03733"}, capsys)
        assert code == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        t, u = data[:, 0], data[:, 3]
        assert np.all(u[t < 25.0] == 0.01)
        assert np.all(u[t >= 25.0] == 0.03733)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            code, _, _ = run("simulate", d,
                             {**self.BASE, "policy": "constant", "u": "0.02"}, capsys)
            assert code == 0
        assert (a_dir / "trajectory.csv").read_bytes() == (b_dir / "trajectory.csv").read_bytes()

    def test_bad_initial_state_exits_2(self, tmp_path, capsys):
        code, _, err = run("simulate", tmp_path, {**self.BASE, "m0": "1.5"}, capsys)
        assert code == cli.EXIT_BAD_CONFIG

    @pytest.mark.parametrize("key, value, named", [
        ("u", "nan", "outside bounds"), ("schedule", "0:nan", "outside bounds"),
        ("schedule", "0:0.02,nan:0.03", "schedule"), ("horizon", "nan", "horizon"),
        ("dt_out", "nan", "dt_out"), ("horizon", "inf", "horizon must be positive and finite"),
    ])
    def test_nan_setting_exits_2(self, tmp_path, capsys, key, value, named):
        policy = "piecewise" if key == "schedule" else "constant"
        cfg = {**self.BASE, "policy": policy, key: value}
        code, _, err = run("simulate", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert named in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("dt_out", ["1e-300", "5e-324"])
    def test_tiny_dt_out_exits_2_naming_it(self, tmp_path, capsys, dt_out):
        code, _, err = run("simulate", tmp_path, {**self.BASE, "dt_out": dt_out}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert f"dt_out={float(dt_out)!r}" in err and "samples" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("policy", ["constant", "piecewise", "feedback"])
    def test_reads_every_key_of_every_policy(self, tmp_path, capsys, policy):
        cfg = {**self.BASE, "policy": policy, "u": "0.02", "schedule": "0:0.02,10:0.03",
               "step": "1e-3", "rtol": "1e-9", "atol": "1e-12"}
        code, _, err = run("simulate", tmp_path, cfg, capsys)
        assert code == 0, err
        code, _, err = run("simulate", tmp_path / "svg", {**cfg, "svg": "false"}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "simulate does not read key 'svg'" in err


class TestDiagram:
    def test_grid_rows(self, tmp_path, capsys):
        cfg = {
            "A_m": "0.02906", "A_h": "0.31066", "gamma": "0.1",
            "u_min": "0.0", "u_max": "0.03733",
            "u_grid": "0.0,0.01,0.03733", "H_grid": "0.4,0.5,0.9",
        }
        code, out, _ = run("diagram", tmp_path, cfg, capsys)
        assert code == 0
        rows = (tmp_path / "diagram.csv").read_text().splitlines()
        assert rows[0] == "u,H,regime"
        assert len(rows) == 10
        table = {
            (r.split(",")[0], r.split(",")[1]): r.split(",")[2] for r in rows[1:]
        }
        assert table[("0.03733", "0.5")] == "medium"
        assert table[("0.03733", "0.9")] == "high"
        assert table[("0.03733", "0.4")] == "low"
        # at u = 0 the two thresholds coincide at A_h/(A_h+gamma) = 0.7565,
        # so the medium band is empty
        assert table[("0", "0.4")] == "low"
        assert table[("0", "0.5")] == "low"
        assert table[("0", "0.9")] == "high"

    def test_linspace_grid_spec(self, tmp_path, capsys):
        cfg = {
            "A_m": "0.02906", "A_h": "0.31066", "gamma": "0.1",
            "u_min": "0.0", "u_max": "0.05",
            "u_grid": "0:0.05:6", "H_grid": "0.1:0.9:5",
        }
        code, _, _ = run("diagram", tmp_path, cfg, capsys)
        assert code == 0
        rows = (tmp_path / "diagram.csv").read_text().splitlines()
        assert len(rows) == 31

    @pytest.mark.parametrize("rates", [
        {"A_m": "0.02906", "A_h": "0.31066", "gamma": "0.1"},
        {"alpha": "0.3365", "p_h": "0.2287", "p_m": "0.1532", "xi": "1.0359",
         "delta": "0.0333", "gamma": "0.1"},
    ])
    def test_control_bounds_are_not_required(self, tmp_path, capsys, rates):
        # Each grid column sets u_max, so the diagram is the same with or
        # without the rates' own control bounds.
        grids = {"u_grid": "0:0.1:5", "H_grid": "0.2,0.5,0.9"}
        bounds = {"u_min": "0.01", "u_max": "0.03733"} if "A_m" in rates else {"u_max": "0.05"}
        code, _, err = run("diagram", tmp_path / "a", {**rates, **grids}, capsys)
        assert code == 0, err
        code, _, err = run("diagram", tmp_path / "b", {**rates, **bounds, **grids}, capsys)
        assert code == 0, err
        written = [(tmp_path / d / "diagram.csv").read_bytes() for d in "ab"]
        assert written[0] == written[1] and written[0].count(b"\n") == 16

    def test_missing_grid_exits_2(self, tmp_path, capsys):
        cfg = {"A_m": "0.1", "A_h": "0.1", "gamma": "0.1", "u_max": "0.05",
               "u_grid": "0.01,0.02"}
        code, _, err = run("diagram", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "H_grid" in err


    def test_cell_outside_ranges_exits_2(self, tmp_path, capsys):
        cfg = {"A_m": "0.02906", "A_h": "0.31066", "gamma": "0.1", "u_max": "0.03733",
               "u_grid": "0.01,0.03733", "H_grid": "0.5,1.0"}
        code, _, err = run("diagram", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "H_bar" in err
        assert not (tmp_path / "diagram.csv").exists()


class TestFit:
    @pytest.fixture(scope="class")
    @staticmethod
    def incidence_csv(tmp_path_factory):
        path = tmp_path_factory.mktemp("fitdata") / "incidence.csv"
        series = generate_synthetic_incidence()
        lines = ["day,new_cases"]
        lines += [f"{int(d)},{int(c)}" for d, c in zip(series.days, series.new_cases)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fit_report_and_curve(self, tmp_path, capsys, incidence_csv):
        cfg = {"incidence": str(incidence_csv), "population": "2400000"}
        code, out, _ = run("fit", tmp_path, cfg, capsys)
        assert code == 0
        assert out["converged"] == "true"
        assert float(out["A_m"]) == pytest.approx(0.3365 * 0.1532, rel=0.05)
        assert float(out["A_h"]) == pytest.approx(0.3365 * 0.2287 * 1.0359, rel=0.05)
        report = (tmp_path / "fit_report.txt").read_text()
        for key in ("alpha=", "delta=", "A_m=", "objective=", "converged="):
            assert key in report
        rows = (tmp_path / "fit_curve.csv").read_text().splitlines()
        assert rows[0] == "day,h_hat,h_model"
        assert len(rows) == 62  # day 0..60 plus header

    def test_fit_runs_with_scipy_unimportable(self, tmp_path, incidence_csv):
        # A fresh process in which any import of scipy raises ImportError.
        argv = ["fit", "--out", str(tmp_path), f"--set=incidence={incidence_csv}",
                "--set=population=2400000"]
        script = ("import sys\n"
                  "sys.modules['scipy'] = None\n"
                  "from rossmac.cli import main\n"
                  f"sys.exit(main({argv!r}))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "converged=true" in proc.stdout.splitlines()
        assert "converged=true" in (tmp_path / "fit_report.txt").read_text().splitlines()

    @pytest.mark.parametrize("key, value", [
        ("fit_days", "0"), ("fit_days", "-3"), ("fit_days", "2.5"),
        ("population", "0"), ("population", "-5"), ("gamma", "0"),
        ("gamma", "1.5"), ("gamma", "inf"),
    ])
    def test_bad_setting_exits_2_naming_the_key(self, tmp_path, capsys, incidence_csv,
                                                 key, value):
        cfg = {"incidence": str(incidence_csv), "population": "2400000", key: value}
        code, _, err = run("fit", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert key in err and str(incidence_csv) not in err
        assert not (tmp_path / "fit_report.txt").exists()

    def test_missing_csv_exits_5(self, tmp_path, capsys):
        cfg = {"incidence": str(tmp_path / "nope.csv"), "population": "1000"}
        code, _, _ = run("fit", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CSV

    def test_one_day_csv_exits_5_naming_it(self, tmp_path, capsys):
        one_day = tmp_path / "one_day.csv"
        one_day.write_text("day,new_cases\n0,5\n")
        code, out, err = run("fit", tmp_path, {"incidence": str(one_day), "population": "1000"},
                             capsys)
        assert code == cli.EXIT_BAD_CSV
        assert str(one_day) in err and "got 1" in err
        assert "converged" not in out

    def test_prevalence_above_population_exits_5(self, tmp_path, capsys):
        crowded = tmp_path / "crowded.csv"
        crowded.write_text("day,new_cases\n0,5\n1,7\n2,9000\n3,4\n")
        code, out, err = run("fit", tmp_path, {"incidence": str(crowded), "population": "1000"},
                             capsys)
        assert code == cli.EXIT_BAD_CSV
        assert str(crowded) in err and "population=1000" in err and "day 2" in err
        assert "converged" not in out

    def test_first_day_without_cases_exits_5_naming_it(self, tmp_path, capsys, incidence_csv):
        # The synthetic outbreak with day 0 emptied: the fit would start at
        # the disease-free equilibrium and return its start rates.
        rows = incidence_csv.read_text().splitlines()
        late = tmp_path / "late.csv"
        late.write_text("\n".join([rows[0], "0,0", *rows[2:]]) + "\n")
        code, out, err = run("fit", tmp_path, {"incidence": str(late), "population": "2400000"},
                             capsys)
        assert code == cli.EXIT_BAD_CSV
        assert str(late) in err and "day with cases" in err
        assert "converged" not in out

    def test_first_prevalence_above_a_third_exits_5_naming_it(self, tmp_path, capsys):
        # 400 cases in 1000 would start the mosquitoes at m(0) = 1.2.
        crowded = tmp_path / "crowded.csv"
        crowded.write_text("day,new_cases\n0,400\n1,30\n2,30\n3,30\n")
        code, out, err = run("fit", tmp_path, {"incidence": str(crowded), "population": "1000"},
                             capsys)
        assert code == cli.EXIT_BAD_CSV
        assert str(crowded) in err and "h0 = 0.4" in err
        assert "converged" not in out

    def test_malformed_csv_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("day,new_cases\n0,5\n1,oops\n")
        cfg = {"incidence": str(bad), "population": "1000"}
        code, _, err = run("fit", tmp_path, cfg, capsys)
        assert code == cli.EXIT_BAD_CSV
        assert ":3:" in err

    def test_nan_count_exits_5_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "inc.csv"
        bad.write_text("day,new_cases\n0,5\n1,nan\n2,4\n")
        code, _, err = run("fit", tmp_path, {"incidence": str(bad), "population": "1000"}, capsys)
        assert code == cli.EXIT_BAD_CSV
        assert f"{bad}:3: case counts must be nonnegative" in err

    def test_undecodable_csv_exits_5(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"day,new_cases\n0,5\xff\n1,4\n")
        code, _, err = run("fit", tmp_path, {"incidence": str(bad), "population": "1000"}, capsys)
        assert code == cli.EXIT_BAD_CSV
        assert "utf-8" in err


class TestUnreadKeys:
    # A call of each command, and keys that it does not read.
    CALLS = {
        "classify": (MEDIUM, ["Hbar", "rtol"]),
        "boundary": (MEDIUM, ["u", "H_grid", "rtol", "atol"]),
        "simulate": ({**MEDIUM, "m0": "0.1", "h0": "0.2", "horizon": "5"}, ["svg", "Horizon"]),
        "diagram": ({**{k: v for k, v in MEDIUM.items() if k != "H_bar"},
                     "u_grid": "0.02", "H_grid": "0.5"}, ["H_bar", "step"]),
        "fit": ({"incidence": "cases.csv", "population": "1000"}, ["u_max", "dt_out"]),
    }

    @pytest.mark.parametrize("command, key",
                             [(c, key) for c, (_, keys) in CALLS.items() for key in keys])
    def test_set_key_exits_2_naming_it(self, tmp_path, capsys, command, key):
        cfg, _ = self.CALLS[command]
        code, out, err = run(command, tmp_path, {**cfg, key: "3"}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert f"--set: {command} does not read key {key!r}" in err
        assert out == {} and list(tmp_path.iterdir()) == []

    def test_file_key_exits_2_naming_its_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text("# Cali rates\nA_m = 0.02906\n\nHbar = 0.5  # the cap\n")
        code = cli.main(["classify", "--config", str(cfg_file), "--set", "H_bar=0.5"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_CONFIG
        assert f"{cfg_file}:4: classify does not read key 'Hbar'" in err

    def test_out_is_a_flag_not_a_key(self, tmp_path, capsys):
        code, _, err = run("boundary", tmp_path / "flag", {**MEDIUM, "out": str(tmp_path / "key")},
                           capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "boundary does not read key 'out'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [{"u_min": "0.01"}, {"A_m": "0.05"}])
    def test_rate_forms_do_not_mix(self, tmp_path, capsys, extra):
        raw = {"alpha": "0.3365", "p_h": "0.2287", "p_m": "0.1532", "xi": "1.0359",
               "delta": "0.0333", "gamma": "0.1", "u_max": "0.05", "H_bar": "0.9"}
        code, _, err = run("classify", tmp_path, {**raw, **extra}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert ("'u_min'" if "u_min" in extra else "'alpha'") in err


class TestConfigHandling:
    def test_set_overrides_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(
            "A_m = 0.02906\nA_h = 0.31066\ngamma = 0.1\n"
            "u_min = 0.01\nu_max = 0.03733\nH_bar = 0.9\n"
        )
        code = cli.main(["classify", "--config", str(cfg_file), "--set", "H_bar=0.5"])
        out = capsys.readouterr().out
        assert code == 0 and "regime=medium" in out

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["classify", "--config", str(tmp_path / "none.ini")])
        assert code == cli.EXIT_BAD_CONFIG

    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys):
        code = cli.main(["classify", "--config", str(tmp_path)])  # a directory
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_CONFIG
        assert f"cannot read config file {tmp_path}" in err

    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"H_bar = 0.5\xff\n")
        code = cli.main(["classify", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_CONFIG
        assert f"cannot read config file {path}: " in err

    def test_bad_set_syntax(self, capsys):
        code = cli.main(["classify", "--set", "H_bar"])
        assert code == cli.EXIT_BAD_CONFIG

    def test_bad_value_type(self, tmp_path, capsys):
        code, _, err = run("classify", tmp_path, {**MEDIUM, "gamma": "fast"}, capsys)
        assert code == cli.EXIT_BAD_CONFIG
        assert "gamma" in err


def test_classify_and_diagram_load_no_scipy(tmp_path):
    """Every command but fit, run in a fresh process, never imports scipy:
    classify, diagram, boundary, and constant and feedback simulate."""
    sets = [f"--set={k}={v}" for k, v in MEDIUM.items()]
    rates = [arg for arg in sets if not arg.startswith("--set=H_bar=")]  # diagram reads no H_bar
    start = ["--set=m0=0.2", "--set=h0=0.1", "--set=horizon=20"]
    runs = [["classify", *sets],
            ["diagram", "--out", str(tmp_path), *rates, "--set=u_grid=0:0.1:3", "--set=H_grid=0.2,0.6"],
            ["boundary", "--out", str(tmp_path), *sets],
            ["simulate", "--out", str(tmp_path / "constant"), *sets, *start, "--set=policy=constant"],
            ["simulate", "--out", str(tmp_path / "feedback"), *sets, *start, "--set=policy=feedback"]]
    script = ("import json, sys, rossmac, rossmac.cli\n"
              f"codes = [rossmac.cli.main(argv) for argv in {runs!r}]\n"
              "print(json.dumps([codes, 'scipy' in sys.modules]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0, 0], False]
    for csv_file in ("diagram.csv", "frontier.csv", "constant/trajectory.csv",
                     "feedback/trajectory.csv"):
        assert (tmp_path / csv_file).exists()
