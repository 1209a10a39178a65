#!/usr/bin/env python3
"""Merging two adapters and pruning the merge: the tensor-level mechanics.

This walks the first phase of the pipeline by hand so the core invariants
are visible in actual numbers:

  - a freshly initialized adapter is an exact identity (B starts at zero),
  - merging stacks factors instead of materializing d_out x d_in updates,
  - importance is magnitude times an input-scale correction,
  - pruning keeps exactly floor(p * d) coordinates per tensor off,
  - masks at increasing ratios nest: what 30% prunes, 50% also prunes.

Run it:  python3 demos/merge_and_prune.py
"""

import numpy as np

from policyprune.adapters import merge_adapter_sets
from policyprune.masking import build_mask, estimate_scale, mask_apply_inplace
from policyprune.toytask import ToyTaskConfig, gen_toy_data, model_forward, mse_loss
from policyprune.training import LoraConfig, TrainConfig, microdev_loss, train_adapter, pipeline_rngs

task = ToyTaskConfig(
    d_in=12, d_out=8, teacher_rank=3,
    source_train_n=96, target_train_n=64, dev_n=32, microdev_n=16, test_n=32,
)
lora = LoraConfig(rank=4, alpha=16.0)
train = TrainConfig(learning_rate=3e-4, epochs=6)
seed = 42

data = gen_toy_data(task, seed)
rngs = pipeline_rngs(seed)

# --- 1. adapters start as exact identities ---------------------------------
from policyprune.training import init_adapter_factors

fresh = init_adapter_factors(data.backbone, lora, np.random.default_rng(0))
x = data.dev.x[:4]
backbone_only = sum(x @ w.T for _, w in data.backbone.sites)
with_fresh_adapter = model_forward(data.backbone, fresh, x)
print("max |fresh adapter - backbone| :", np.abs(with_fresh_adapter - backbone_only).max())

# --- 2. train one adapter per task, then merge -----------------------------
source = train_adapter(data.backbone, data.source_train, lora, train, rngs["source"])
target = train_adapter(data.backbone, data.target_train, lora, train, rngs["target"])
merged = merge_adapter_sets([source.adapters, target.adapters], data.backbone.site_ids())

for s in merged.sites:
    print(f"site {s.site_id}: stacked A {s.a.shape}, stacked B {s.b.shape} "
          f"(two rank-{lora.rank} adapters -> stacked rank {s.a.shape[0]})")

# --- 3. importance scores and exact prune counts ---------------------------
scale = estimate_scale(data.microdev.x)
print("\nper-factor-row input scale:", np.round(scale.s, 3))

for p in (0.3, 0.5):
    mask = build_mask(merged, p, scale)
    _tid, sid, fac, view = merged.tensors()[0]  # one tensor shows the arithmetic
    d = view.size
    print(f"p={p}: {sid}.{fac}  d={d}  floor(p*d)={int(p * d)}  "
          f"pruned={d - int(mask.kept[0])}")

# --- 4. nesting: a heavier mask contains a lighter one ---------------------
light = build_mask(merged, 0.3, scale)
heavy = build_mask(merged, 0.5, scale)
violations = int(np.sum((light.keep == 0) & (heavy.keep == 1)))
print("\nnesting violations (coordinates pruned at 30% but kept at 50%):", violations)

# --- 5. what pruning costs before any fine-tuning ---------------------------
print("\nmicro-dev loss of the merge, pruned and not retrained:")
print(f"  p=0.0 : {microdev_loss(data.backbone, merged, data.microdev):.5f}")
for p in (0.2, 0.4, 0.6, 0.8):
    pruned = merged.copy()
    mask_apply_inplace(pruned, build_mask(merged, p, scale))
    print(f"  p={p} : {microdev_loss(data.backbone, pruned, data.microdev):.5f}")
print("\n(retraining after the single prune is phase 3; see full_pipeline.py)")
