"""The walkthrough demos run to completion as standalone scripts."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script", ["01_lifting_walkthrough.py",
                                    "02_fundamental_solution.py",
                                    "03_metric_and_estimates.py"])
def test_demo_runs(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
