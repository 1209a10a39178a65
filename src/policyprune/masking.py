"""Scaled-magnitude importance scoring and per-tensor top-k sparsity masks.

Importance of entry j in tensor t is I_j = |w_j| * s, with s one global
positive scalar (the mean input-vector norm, estimated once per run). For a
prune ratio p, each tensor prunes its k_t = floor(p * d_t) least important
entries by thresholding at the k_t-th smallest score; ties at the threshold
are all pruned, so the realized fraction can slightly exceed the target.

A mask is its keep bits: float64 0.0/1.0 laid out like the adapter arena, so
its multiplies (the parameters and the optimizer's moment coefficients) are
float by float, with no cast, and give the bits a 0/1 integer mask would.
They are read-only once built. A mask is enforced where it is installed
(`optim.install_mask`, once per mask change): the install zeroes the pruned
parameters and moments and folds the bits into the coefficients, so a mask's
bits must never change under it. The ratio a mask was built at lives with
its caller (the controller's `p_curr`, the round log, `p_star`), not in the
mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    return ImportanceScale(float(np.mean([np.linalg.norm(v) for v in vecs])))


def importance_scores(values: np.ndarray, scale: ImportanceScale) -> np.ndarray:
    """Elementwise |value| * s over a flat tensor."""
    return np.abs(np.asarray(values, dtype=np.float64).ravel()) * scale.s


def require_ratio(p: float) -> None:
    """Raise `UsageError` unless prune ratio p lies in [0, 1]; NaN fails."""
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"prune ratio must lie in [0, 1], got {p}")


def prune_threshold(scores: np.ndarray, p: float) -> tuple[int, float]:
    """Prune count k = floor(p*d) and threshold tau = k-th smallest score.

    k = 0 returns tau = -inf so that the prune rule I <= tau selects nothing
    (the k-th smallest is undefined there).
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise UsageError("cannot threshold an empty score vector")
    return sorted_threshold(np.sort(scores), p)


def sorted_threshold(sorted_scores: np.ndarray, p: float) -> tuple[int, float]:
    """`prune_threshold` read off scores already sorted ascending: the k-th
    smallest is entry k-1, so one sort serves every ratio probed against
    the same scores."""
    require_ratio(p)
    k = math.floor(p * sorted_scores.size)
    if k == 0:
        return 0, float("-inf")
    return k, float(sorted_scores[k - 1])


def keep_above(
    scores: np.ndarray, offsets, thresholds: list[tuple[int, float]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Float64 keep bits (1.0 keeps, 0.0 prunes): each entry of `scores`
    (laid out like an arena with these tensor `offsets`) above its tensor's
    tau; `thresholds[t-1]` is tensor t's (k, tau). One per-entry tau vector,
    then a bool compare cast over it (faster than a compare with a float64
    output, which NumPy buffers); the vector is `out` when given."""
    taus = np.empty_like(scores) if out is None else out
    for lo, hi, (_k, tau) in zip(offsets, offsets[1:], thresholds):
        taus[lo:hi] = tau
    taus[...] = np.greater(scores, taus)
    return taus


class SparsityMask:
    """Float64 keep bits (1.0 keeps, 0.0 prunes) over an adapter arena.

    `keep` is one float64 vector of 0.0/1.0 keep bits laid out like
    `MergedAdapterSet.flat` (for instance `keep_above` of its scores), made
    read-only here; `offsets` are that arena's tensor offsets. Tensor t
    (1-based) holds the d_t bits ``keep[offsets[t-1]:offsets[t]]`` and
    ``kept[t-1]`` is its kept count (built the first time it is read), so it
    prunes d_t - kept entries, a fraction (d_t - kept) / d_t. Tensors are in
    id order.
    """

    def __init__(self, keep: np.ndarray, offsets):
        keep.setflags(write=False)
        self.keep = keep
        self.offsets = offsets

    @cached_property
    def kept(self) -> list[float]:
        """Each tensor's kept count, in id order (float64 sums of the bits)."""
        return np.add.reduceat(self.keep, self.offsets[:-1]).tolist()

    def overall_fraction(self) -> float:
        return (self.keep.size - np.count_nonzero(self.keep)) / self.keep.size


def build_mask(merged: MergedAdapterSet, p: float, scale: ImportanceScale) -> SparsityMask:
    """Score every merged tensor and threshold it independently at ratio p."""
    scores = importance_scores(merged.flat, scale)
    offs = merged.offsets
    thresholds = [prune_threshold(scores[lo:hi], p) for lo, hi in zip(offs, offs[1:])]
    return SparsityMask(keep_above(scores, offs, thresholds), offs)


def mask_apply_inplace(merged: MergedAdapterSet, mask: SparsityMask) -> None:
    """Zero pruned coordinates in place, kept ones unchanged."""
    flat = merged.flat
    if mask.keep.size != flat.size:
        raise DimensionError(
            f"mask length {mask.keep.size} does not match the set's {flat.size} entries"
        )
    np.multiply(flat, mask.keep, flat)
    # multiplying a negative by 0 leaves -0.0; normalize to +0.0
    np.add(flat, 0.0, flat)

