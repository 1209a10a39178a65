"""Span tracer for the traced benchmark run, built from outside the package.

The package modules import names directly (``from .toytask import
loss_and_gradients``), so a call is traced by replacing the binding the
*caller* looks up: ``policyprune.training.loss_and_gradients`` for the step
path, ``policyprune.cli.save_merged`` for the CLI's checkpoint writes, and
the class attribute for methods. Each layer name below lists every binding
that a workload reaches it through.

Spans live in flat in-memory arrays (name, parent, segment, start, end) and
are written out once, when the run ends. A segment is one set-up repetition
or one timed iteration; spans of one segment share its id. Self time is a
span's duration minus the durations of its direct children (calls are
single-threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import os
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# layer name -> [(module, attribute)]; "Class.method" patches the class.
SPANNED = {
    "toytask.loss_and_gradients": [("training", "loss_and_gradients")],
    "optim.optimizer_step_and_reset": [("training", "optimizer_step_and_reset")],
    "optim.mask_apply_inplace": [("optim", "mask_apply_inplace")],
    "masking.build_mask": [("training", "build_mask")],
    "masking.prune_threshold": [("training", "prune_threshold"),
                                ("masking", "prune_threshold")],
    "controller.controller_round": [("training", "controller_round")],
    "controller.select_p_star": [("training", "select_p_star")],
    "training.MaskedTrainingEnv.baseline_reward": [("training", "MaskedTrainingEnv.baseline_reward")],
    "training.MaskedTrainingEnv.candidate_reward": [("training", "MaskedTrainingEnv.candidate_reward")],
    "training.MaskedTrainingEnv.commit": [("training", "MaskedTrainingEnv.commit")],
    "training.MaskedTrainingEnv.checksum": [("training", "MaskedTrainingEnv.checksum")],
    "training.train_adapter": [("training", "train_adapter"), ("cli", "train_adapter")],
    "training.sparsity_policy_learning": [("training", "sparsity_policy_learning"),
                                          ("cli", "sparsity_policy_learning")],
    "training.final_prune_finetune": [("training", "final_prune_finetune"),
                                      ("cli", "final_prune_finetune"),
                                      ("baselines", "final_prune_finetune")],
    "baselines.grid_search": [("baselines", "grid_search"), ("cli", "grid_search")],
    "toytask.gen_toy_data": [("toytask", "gen_toy_data"), ("cli", "gen_toy_data")],
    "adapters.merge_adapter_sets": [("adapters", "merge_adapter_sets"),
                                    ("cli", "merge_adapter_sets")],
    "container.save_adapters": [("container", "save_adapters"), ("cli", "save_adapters")],
    "container.save_merged": [("container", "save_merged"), ("cli", "save_merged")],
    "container.load_merged": [("container", "load_merged"), ("cli", "load_merged")],
    "serialize.sha256_file": [("serialize", "sha256_file"), ("cli", "sha256_file")],
    "controller.append_round_log": [("controller", "append_round_log"),
                                    ("cli", "append_round_log")],
}

# Called tens of thousands of times per iteration and only counted.
COUNTED = {
    "adapters.MergedAdapterSet.tensors": ("adapters", "MergedAdapterSet.tensors"),
    "adapters.MergedAdapterSet.copy": ("adapters", "MergedAdapterSet.copy"),
}

# Layers whose first argument is a file path. Their bytes are the file's
# size after a save, its size before a read, and its growth across an append.
_BYTES_AFTER = {"container.save_adapters", "container.save_merged"}
_BYTES_BEFORE = {"container.load_merged", "serialize.sha256_file"}
_BYTES_DELTA = {"controller.append_round_log"}
BYTE_LAYERS = sorted(_BYTES_AFTER | _BYTES_BEFORE | _BYTES_DELTA)

# Phases, and the controller round, report inclusive seconds as well.
INCLUSIVE_LAYERS = ("training.train_adapter", "training.sparsity_policy_learning",
                    "training.final_prune_finetune", "baselines.grid_search",
                    "controller.controller_round")


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans and counts; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.names = list(SPANNED)
        self.name_of = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.seg = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.segment = 0
        self.counts = defaultdict(int)   # (segment, layer) -> calls
        self.nbytes = defaultdict(int)   # (segment, layer) -> bytes
        self._saved = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for layer, sites in SPANNED.items():
            for mod, attr in sites:
                self._patch(mod, attr, self._span_wrapper(layer))
        for layer, (mod, attr) in COUNTED.items():
            self._patch(mod, attr, self._count_wrapper(layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, mod: str, attr: str, make) -> None:
        owner = importlib.import_module(f"policyprune.{mod}")
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span_wrapper(self, layer: str):
        nid = self.name_of[layer]
        before = layer in _BYTES_BEFORE or layer in _BYTES_DELTA
        after = layer in _BYTES_AFTER or layer in _BYTES_DELTA
        sign = -1 if layer in _BYTES_DELTA else 1

        def make(fn):
            def traced(*args, **kwargs):
                seg = self.segment
                if before:
                    self.nbytes[seg, layer] += sign * _size(args[0])
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(self._stack[-1])
                self.seg.append(seg)
                self.start.append(0)
                self.end.append(0)
                self._stack.append(idx)
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    self._stack.pop()
                    self.start[idx] = t0
                    self.end[idx] = t1
                    if after:
                        self.nbytes[seg, layer] += _size(args[0])
            return traced
        return make

    def _count_wrapper(self, layer: str):
        def make(fn):
            def counted(*args, **kwargs):
                self.counts[self.segment, layer] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "segment": np.frombuffer(self.seg, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_table(self, segments: list[int]) -> dict[str, dict]:
        """Per layer and segment: calls, bytes, self and inclusive seconds,
        plus every call's duration, for the given segment ids."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        wanted = np.isin(a["segment"], segments)
        out = {}
        for nid, layer in enumerate(self.names):
            sel = wanted & (a["name"] == nid)
            segs = a["segment"][sel]
            out[layer] = {
                "calls": {s: int((segs == s).sum()) for s in segments},
                "self_s": {s: float(self_s[sel][segs == s].sum()) for s in segments},
                "s": {s: float(dur[sel][segs == s].sum()) for s in segments},
                "bytes": {s: self.nbytes.get((s, layer), 0) for s in segments},
                "durations": dur[sel],
            }
        for layer in COUNTED:
            out[layer] = {"calls": {s: self.counts.get((s, layer), 0) for s in segments}}
        return out
