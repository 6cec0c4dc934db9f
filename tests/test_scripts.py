"""Smoke tests: each example script runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rossmac import cli

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("feedback_vs_constant.py", ["--horizon", "50"], "saturating feedback"),
        ("fit_synthetic_outbreak.py", [], "converged=True"),
        ("make_kernel_figure.py", ["--step", "1e-3"], "regime=medium"),
    ],
)
def test_script_runs(tmp_path, script, args, expect):
    if script != "feedback_vs_constant.py":
        args = args + ["--out", str(tmp_path)]
    stdout = run_script(script, args)
    assert expect in stdout
    if script == "feedback_vs_constant.py":
        assert stdout.count(" wall_ms=") == 3  # one per policy
    if script == "fit_synthetic_outbreak.py":
        assert stdout.count(" wall_ms=") == 1


def test_kernel_figure_csv_matches_boundary(tmp_path, capsys):
    # The script's frontier.csv and `rossmac boundary` on the same rates,
    # H_bar and step are one file format written by one function.
    run_script("make_kernel_figure.py", ["--step", "1e-3", "--out", str(tmp_path / "script")])
    rates = {"A_m": "0.02906", "A_h": "0.31066", "gamma": "0.1", "u_min": "0.01",
             "u_max": "0.03733", "H_bar": "0.5", "step": "1e-3"}
    argv = ["boundary", "--out", str(tmp_path / "cli")]
    for key, value in rates.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    script_csv = (tmp_path / "script" / "frontier.csv").read_bytes()
    assert script_csv == (tmp_path / "cli" / "frontier.csv").read_bytes()
    assert script_csv.startswith(b"m,Y\r\n")
