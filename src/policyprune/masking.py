"""Scaled-magnitude importance scoring and per-tensor top-k sparsity masks.

Importance of entry j in tensor t is I_j = |w_j| * s, with s one global
positive scalar (the mean input-vector norm, estimated once per run). For a
prune ratio p, each tensor prunes its k_t = floor(p * d_t) least important
entries by thresholding at the k_t-th smallest score; ties at the threshold
are all pruned, so the realized fraction can slightly exceed the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import MergedAdapterSet
from .errors import DegenerateScaleError, DimensionError, UsageError


@dataclass(frozen=True)
class ImportanceScale:
    """The single global scalar s > 0; computed once per run and reused."""

    s: float

    def __post_init__(self):
        if not (self.s > 0.0) or not np.isfinite(self.s):
            raise DegenerateScaleError(f"importance scale must be positive, got {self.s}")


def estimate_scale(microdev_inputs) -> ImportanceScale:
    """Mean Euclidean norm of the micro-dev input vectors.

    s only rescales every score by the same positive constant, so masks are
    invariant to it; it exists to keep scores on the input's natural scale.
    """
    vecs = [np.asarray(v, dtype=np.float64).ravel() for v in microdev_inputs]
    if not vecs:
        raise UsageError("cannot estimate importance scale from no inputs")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise DimensionError("micro-dev inputs disagree on dimension")
    s = float(np.mean([np.linalg.norm(v) for v in vecs]))
    if s <= 0.0:
        raise DegenerateScaleError("all micro-dev inputs are zero; scale would be 0")
    return ImportanceScale(s)


def importance_scores(values: np.ndarray, scale: ImportanceScale) -> np.ndarray:
    """Elementwise |value| * s over a flat tensor."""
    return np.abs(np.asarray(values, dtype=np.float64).ravel()) * scale.s


def prune_threshold(scores: np.ndarray, p: float) -> tuple[int, float]:
    """Prune count k = floor(p*d) and threshold tau = k-th smallest score.

    k = 0 returns tau = -inf so that the prune rule I <= tau selects nothing
    (the k-th smallest is undefined there).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise UsageError("cannot threshold an empty score vector")
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"prune ratio must lie in [0, 1], got {p}")
    k = int(np.floor(p * scores.size))
    if k == 0:
        return 0, float("-inf")
    # partial selection of the k-th smallest; same value a full sort gives
    tau = float(np.partition(scores, k - 1)[k - 1])
    return k, tau


@dataclass
class TensorMaskStats:
    tensor_id: int
    d: int
    k: int
    tau: float
    fraction: float


@dataclass
class SparsityMask:
    """Per-tensor keep bits (1 keeps, 0 prunes) for one prune ratio."""

    ratio: float
    per_tensor: dict[int, np.ndarray] = field(default_factory=dict)
    stats: dict[int, TensorMaskStats] = field(default_factory=dict)
    _floats: dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def overall_fraction(self) -> float:
        pruned = sum(int(st.d - bits.sum()) for st, bits in
                     zip(self.stats.values(), self.per_tensor.values()))
        total = sum(st.d for st in self.stats.values())
        return pruned / total

    def keep_floats(self, tensor_id: int, shape: tuple[int, int]) -> np.ndarray:
        """Keep bits as float64, cached — the bits are fixed once built."""
        cached = self._floats.get(tensor_id)
        if cached is None or cached.shape != shape:
            cached = self.per_tensor[tensor_id].reshape(shape).astype(np.float64)
            self._floats[tensor_id] = cached
        return cached


def build_mask(merged: MergedAdapterSet, p: float, scale: ImportanceScale) -> SparsityMask:
    """Score every merged tensor and threshold it independently at ratio p."""
    mask = SparsityMask(ratio=float(p))
    for tid, _sid, _fac, arr in merged.tensors():
        scores = importance_scores(arr, scale)
        k, tau = prune_threshold(scores, p)
        keep = (scores > tau).astype(np.uint8)
        mask.per_tensor[tid] = keep
        pruned = int(keep.size - keep.sum())
        mask.stats[tid] = TensorMaskStats(
            tensor_id=tid, d=keep.size, k=k, tau=tau,
            fraction=pruned / keep.size,
        )
    return mask


def mask_apply(merged: MergedAdapterSet, mask: SparsityMask) -> MergedAdapterSet:
    """Return a copy with pruned coordinates exactly zero, kept ones unchanged."""
    out = merged.copy()
    mask_apply_inplace(out, mask)
    return out


def mask_apply_inplace(merged: MergedAdapterSet, mask: SparsityMask) -> None:
    """Zero pruned coordinates in place (the per-step reapplication path)."""
    for tid, _sid, _fac, arr in merged.tensors():
        bits = mask.per_tensor.get(tid)
        if bits is None:
            raise DimensionError(f"mask has no bits for tensor {tid}")
        if bits.size != arr.size:
            raise DimensionError(
                f"mask length {bits.size} does not match tensor {tid} size {arr.size}"
            )
        np.multiply(arr, mask.keep_floats(tid, arr.shape), out=arr)
        # multiplying a negative by 0 leaves -0.0; normalize to +0.0
        np.add(arr, 0.0, out=arr)


def newly_pruned(old: SparsityMask, new: SparsityMask) -> dict[int, np.ndarray]:
    """Indices kept by the old mask but pruned by the new (flat bool per tensor)."""
    out = {}
    for tid, new_bits in new.per_tensor.items():
        old_bits = old.per_tensor.get(tid)
        if old_bits is None or old_bits.size != new_bits.size:
            raise DimensionError(f"masks disagree on tensor {tid}")
        out[tid] = (old_bits == 1) & (new_bits == 0)
    return out
