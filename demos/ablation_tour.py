#!/usr/bin/env python3
"""A tour of the controller's knobs: what the anchoring and exploration
terms buy, and how little micro-dev data the ratio probes actually need.

Three experiments on a reduced task (one seed each, so the tour stays
quick — the test suite runs the multi-seed versions):

  1. regularizer grid: mean-anchoring weight beta x exploration offset tau,
  2. micro-dev size sweep: m in {4, 8, 16, 32}, head-sliced from one pool,
  3. the rolling committed-ratio series behind the convergence plots.

Run it:  python3 demos/ablation_tour.py
"""

from policyprune.baselines import ablate, rolling_pcurr
from policyprune.configio import load_run_config
from policyprune.training import run_pipeline

cfg = load_run_config()
task = cfg.task
# both sweeps in one call, so phase 1 trains once
regularizer_rows, microdev_rows = ablate(task, cfg.lora, cfg.training, cfg.controller,
                                         seeds=(cfg.seed,), workers=1)

# --- 1. anchoring x exploration ---------------------------------------------
print("regularizer grid (mean selected ratio / mean final dev loss):")
print("  beta   tau     p_star   dev_loss")
for cell in regularizer_rows:
    print(f"  {cell.beta:<5}  {cell.tau:<5}  {cell.p_star:.3f}    {cell.dev_loss:.5f}")

# --- 2. micro-dev size -------------------------------------------------------
print("\nmicro-dev size sweep (smaller slices are prefixes of larger ones):")
print("  m    p_star   dev_loss")
for cell in microdev_rows:
    note = "  (not micro anymore)" if cell.non_micro else ""
    print(f"  {cell.m:<3}  {cell.p_star:.3f}    {cell.dev_loss:.5f}{note}")

# --- 3. rolling committed-ratio series --------------------------------------
art = run_pipeline(task, cfg.lora, cfg.training, cfg.controller, cfg.seed)
series = rolling_pcurr(art.policy.records, window=10)
print("\nrolling p_curr (trailing window of 10 rounds):")
print("  round   mean    std")
for round_index, mean, std in series[:: max(1, len(series) // 8)]:
    print(f"  {round_index:5d}   {mean:.3f}   {std:.4f}")

print("\nthe same tables as CSV artifacts:  policyprune ablate --out runs")
