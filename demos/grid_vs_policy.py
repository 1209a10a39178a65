#!/usr/bin/env python3
"""Why learn the ratio online: the grid baseline needs one full training
run per candidate ratio; the policy route needs two runs total (one that
learns the ratio while fine-tuning, one final run at the learned ratio).
This script runs both on the stock task and prints quality and cost side
by side, with the three reference points that search no ratio at all.
The wall-clock section re-executes both arms three times under a timer;
the whole script takes about 10 s on a 2-CPU machine.

Run it:  python3 demos/grid_vs_policy.py
"""

import dataclasses

from policyprune.baselines import (
    compare_efficiency,
    format_runtime_table,
    grid_search,
    run_noprune_baselines,
)
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
    marker = "  <- grid best" if pt.p == outcome.best_p else ""
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

# --- cost: steps by arithmetic, wall clock by measurement -------------------
# three interleaved passes per arm (policy, grid, policy, ...); each arm's
# clock is its fastest pass, so one slow spell of the host does not decide it
comp = compare_efficiency(cfg.task, cfg.lora, train, cfg.controller, seed,
                          grid=cfg.grid)
print()
print(format_runtime_table(comp))
print(f"\nstep accounting: grid trains {comp.grid.run_count} runs, the policy "
      f"route {comp.grasp.run_count}; {comp.grid.total_steps} vs "
      f"{comp.grasp.total_steps} optimizer steps")
print(f"  step ratio: {comp.step_speedup:.1f}x (exact, by arithmetic)")
print(f"  wall ratio: {comp.grasp.speedup:.2f}x (measured, best of 3 passes per arm)")
print("probe evaluations ride on the first run, so the wall ratio sits below "
      "the step ratio.")
