"""Every demo under `demos/` runs end to end as a script, the way its
docstring says.

`merge_and_prune` reads a mask's per-tensor keep bits and stats,
`policy_convergence` drives the controller alone, and `grid_vs_policy` runs
the pipeline, the grid and the no-search reference points on the stock task.
`policy_convergence` draws every stream from fixed seeds, so two runs print
the same lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_to_completion(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_policy_convergence_prints_the_same_lines_on_every_run():
    first, second = _run_demo("policy_convergence"), _run_demo("policy_convergence")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    assert first.stdout == second.stdout
