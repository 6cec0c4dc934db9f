"""Smoke tests: each example script runs to completion as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
    if script == "feedback_vs_constant.py":
        assert proc.stdout.count(" wall_ms=") == 3  # one per policy
