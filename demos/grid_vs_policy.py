#!/usr/bin/env python3
"""Why learn the ratio online: the grid baseline needs one full training
run per candidate ratio; the policy route needs two runs total (one that
learns the ratio while fine-tuning, one final run at the learned ratio).
This script runs both on the stock task and prints their quality side by
side, with the three reference points that search no ratio at all, and
their cost in optimizer steps. It takes about 2 s on a 2-CPU machine;
the wall-clock comparison is `policyprune report`'s.

Run it:  python3 demos/grid_vs_policy.py
"""

import dataclasses

from policyprune.baselines import grid_search, run_noprune_baselines
from policyprune.configio import load_run_config
from policyprune.training import run_pipeline, run_scale

cfg = load_run_config()
seed = cfg.seed

# fixed budgets for a fair step comparison: early stopping off in both arms
train = dataclasses.replace(cfg.training, early_stop_patience=None)

# --- quality: the learned ratio vs the exhaustive table ---------------------
art = run_pipeline(cfg.task, cfg.lora, train, cfg.controller, seed)
data = art.data
outcome = grid_search(
    data.backbone, art.merged_init, data.target_train, data.dev,
    run_scale(data, cfg.controller),
    train, seed, grid=cfg.grid, test=data.test,
)

print("per-ratio table (dev/test loss after prune-at-p + fine-tune):")
for pt in outcome.points:
    marker = "  <- grid best" if pt.p == outcome.best.p else ""
    print(f"  p={pt.p:.2f}  dev {pt.dev_loss:.5f}  test {pt.test_loss:.5f}{marker}")

ref = run_noprune_baselines(data, art.merged_init, art.target_adapters, train, seed)
print("reference points (no prune ratio searched):")
for name, dev, test in (
    ("zero adapter", ref.zero_adapter_dev, ref.zero_adapter_test),
    ("target only", ref.target_only_dev, ref.target_only_test),
    ("unpruned merge", ref.merged_noprune_dev, ref.merged_noprune_test),
):
    print(f"  {name:<14}  dev {dev:.5f}  test {test:.5f}")

best = outcome.best
print(f"\npolicy-learned ratio: p_star = {art.p_star:.3f} "
      f"(dev {art.final.dev_loss:.5f})")
print(f"grid best ratio:      p = {best.p:.2f} (dev {best.dev_loss:.5f})")
print(f"quality ratio (policy / grid best): "
      f"{art.final.dev_loss / best.dev_loss:.4f}")

# --- cost: optimizer steps, exact by arithmetic -----------------------------
policy_steps = art.policy.steps_run + art.final.steps_run
print(f"\nstep accounting: grid trains {len(outcome.points)} runs, the policy "
      f"route 2; {outcome.total_steps} vs {policy_steps} optimizer steps")
print(f"  step ratio: {outcome.total_steps / policy_steps:.1f}x (exact, by arithmetic)")
print("probe evaluations ride on the first run, so the wall ratio sits below "
      "the step ratio;\nmeasure it with `policyprune report`.")
