#!/usr/bin/env python3
"""The ratio controller alone, driven by a synthetic reward oracle.

No tensors, no training: the environment hands the controller a noisy
quadratic reward with a planted optimum, so you can watch the Gaussian
policy walk its mean toward the optimum and the committed ratio follow.
The same machinery drives real probe rewards in the full pipeline; here
the right answer is known, which makes convergence checkable.

Run it:  python3 demos/policy_convergence.py
"""

import numpy as np

from policyprune.controller import ControllerConfig
from policyprune.synthetic import quadratic_env, run_synthetic

cfg = ControllerConfig()  # stock settings: p in [0.10, 0.80], start at 0.40

for target in (0.25, 0.60):
    # run_synthetic re-seeds env.rng from its own seed, so the run is the same
    # whatever generator fills the slot here
    env = quadratic_env(np.random.default_rng(42), p_target=target, noise_std=0.01)
    records, p_star = run_synthetic(cfg, env, seed=42, rounds=100)

    print(f"\nplanted optimum {target}: selected p_star = {p_star:.3f}")
    print("round   mu      sigma   p_curr  committed")
    for rec in records[:: len(records) // 10]:
        print(f"{rec.round:5d}  {rec.mu_after:.3f}  {rec.sigma_after:.3f}"
              f"  {rec.p_curr_after:.3f}  {str(rec.committed):>9}")

    # how often the controller accepted a move, and how far it ended up
    commits = sum(r.committed for r in records)
    print(f"commits: {commits}/{len(records)}  |p_star - target| = "
          f"{abs(p_star - target):.3f}")

print("""
Things to try:
  - raise noise_std and watch convergence widen,
  - shrink ControllerConfig(delta_max=...) and watch the walk slow down,
  - set tau_ent=0.0 and compare sigma's trajectory (the exploration offset
    tau_ent, added to sigma every round, is what keeps late rounds from
    locking in early luck; the floor controller.SIGMA_FLOOR only keeps
    sigma above zero).
""")
