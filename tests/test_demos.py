"""The two fast demos run end to end as scripts, the way their docstrings say.

`merge_and_prune` reads a mask's per-tensor keep bits and stats, and
`policy_convergence` drives the controller alone. The slower demos
(`ablation_tour`, `grid_vs_policy`, `full_pipeline`) are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["merge_and_prune", "policy_convergence"])
def test_demo_runs_to_completion(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
