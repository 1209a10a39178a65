"""Dense matrix primitives, the frozen backbone, adapter sets and merging.

An adapter, trained or merged, has one form: a `MergedAdapterSet` of
per-site (A, B) factors whose product b @ a is the site's dense update,
LoRA's alpha/rank scale already folded into A.

All tensors are float64 numpy arrays in C (row-major) order; `matrix`
validates the ones that come from outside (backbone weights, checkpoint
records): finite entries, 2-D shape. A set keeps every factor in one
contiguous float64 arena (`MergedAdapterSet.flat`) and hands out each factor
as a view into it, so training, masking and the optimizer update the set in
place, one buffer at a time; phases that must not disturb their input work
on an explicit `copy()`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, UsageError


def matrix(data) -> np.ndarray:
    """Validate and normalize a 2-D float64 matrix.

    Rejects non-finite entries and anything but two dimensions. Returns a
    C-contiguous float64 array (copying only if needed).
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise UsageError("matrix entries must be finite (no NaN/Inf)")
    return arr


@dataclass(frozen=True)
class FrozenBackbone:
    """Fixed per-site base weights, made read-only at construction, and
    `transposed[site_id]`, each weight's `.T` view for the training step."""

    sites: tuple[tuple[str, np.ndarray], ...]
    transposed: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frozen = []
        for site_id, w in self.sites:
            w = matrix(w)
            w.setflags(write=False)
            frozen.append((site_id, w))
        object.__setattr__(self, "sites", tuple(frozen))
        object.__setattr__(self, "transposed", {sid: w.T for sid, w in frozen})

    def __reduce__(self):
        # pickled views would arrive as separate copies; rebuild them instead
        return (FrozenBackbone, (self.sites,))

    def site(self, site_id: str) -> np.ndarray:
        for sid, w in self.sites:
            if sid == site_id:
                return w
        raise UsageError(f"unknown site {site_id!r}")

    def site_ids(self) -> list[str]:
        return [sid for sid, _ in self.sites]


@dataclass(frozen=True)
class SiteFactors:
    """Stacked merged factors at one site: a is (R, d_in), b is (d_out, R).

    Inside a `MergedAdapterSet` both are views into the set's arena, so
    writing through them writes the set; they cannot be rebound.
    """

    site_id: str
    a: np.ndarray
    b: np.ndarray


class MergedAdapterSet:
    """Per-site factors: one trained adapter set, or several stacked by
    `merge_adapter_sets`; the tensors that get trained, scored and masked.

    Tensor ids run 1..T in site order, A factor before B factor, so
    T = 2 * len(sites). The factor product b @ a is the site's dense update,
    with no further scaling: `training.init_adapter_factors` folds LoRA's
    alpha/rank into A once, and a merge only stacks.

    All factors live in one contiguous float64 vector, `flat`, in tensor-id
    order, each factor row-major: the order the checkpoint container writes.
    Tensor t occupies ``flat[offsets[t-1]:offsets[t]]``; `sites[i].a`/`.b`
    and the views `tensors()` lists are 2-D views of it, and `transposed[i]`
    holds site i's `(a.T, b.T)` views for the training step. `scratch` holds
    the training step's buffers while the set is that step's gradient
    output (`toytask.loss_and_gradients`); copies start with none.
    Construction copies the given factors into a fresh arena.
    """

    def __init__(self, sites=()):
        sites = tuple(sites)
        layout = tuple((s.site_id, np.shape(s.a), np.shape(s.b)) for s in sites)
        size = sum(math.prod(a) + math.prod(b) for _sid, a, b in layout)
        self._bind(layout, np.empty(size, dtype=np.float64))
        for s, view in zip(sites, self.sites):
            view.a[...] = s.a
            view.b[...] = s.b

    def _bind(self, layout: tuple, flat: np.ndarray) -> None:
        """Adopt `flat` as the arena and carve the per-factor views."""
        shapes = [shape for _sid, a, b in layout for shape in (a, b)]
        offsets = [0]
        for shape in shapes:
            offsets.append(offsets[-1] + math.prod(shape))
        views = [flat[lo:hi].reshape(shape)
                 for lo, hi, shape in zip(offsets, offsets[1:], shapes)]
        self._layout = layout
        self._layout_key = repr(layout).encode()  # the checksum's prefix
        self.flat = flat
        self.scratch = {}
        self.offsets = tuple(offsets)
        self.sites = tuple(
            SiteFactors(sid, views[2 * i], views[2 * i + 1])
            for i, (sid, _a, _b) in enumerate(layout)
        )
        self.transposed = tuple((s.a.T, s.b.T) for s in self.sites)
        self._tensors = tuple(
            (t + 1, layout[t // 2][0], "AB"[t % 2], view) for t, view in enumerate(views)
        )

    def copy(self) -> "MergedAdapterSet":
        return _from_arena(self._layout, self.flat.copy())

    def empty_like(self) -> "MergedAdapterSet":
        """A set of the same layout with an uninitialized arena (scratch)."""
        return _from_arena(self._layout, np.empty_like(self.flat))

    def same_layout(self, other: "MergedAdapterSet") -> bool:
        return self._layout == other._layout

    def __reduce__(self):
        # pickled views would arrive as separate copies; rebuild them instead
        return (_from_arena, (self._layout, self.flat))

    def tensors(self) -> list[tuple[int, str, str, np.ndarray]]:
        """All maskable tensors as (tensor_id, site_id, factor, view)."""
        return list(self._tensors)

    def checksum(self) -> str:
        """SHA-256 over the layout and the arena's bytes."""
        h = hashlib.sha256(self._layout_key)
        h.update(self.flat)
        return h.hexdigest()


def _from_arena(layout: tuple, flat: np.ndarray) -> MergedAdapterSet:
    """A set that adopts `flat` (no copy) as its arena."""
    out = MergedAdapterSet.__new__(MergedAdapterSet)
    out._bind(layout, flat)
    return out


def merge_adapter_sets(
    adapter_sets: list[MergedAdapterSet], site_ids: list[str]
) -> MergedAdapterSet:
    """Stack trained adapter sets site by site: A factors row-wise, B factors
    column-wise. Each set already carries its alpha/rank scale in A, so the
    merged product b @ a is the sum of the sets' products at that site, and
    the merged rank is the sum of their ranks."""
    sites = []
    for sid in site_ids:
        at_site = [s for aset in adapter_sets for s in aset.sites if s.site_id == sid]
        if not at_site:
            raise UsageError(f"no adapters to merge at site {sid!r}")
        d_in, d_out = at_site[0].a.shape[1], at_site[0].b.shape[0]
        for s in at_site[1:]:
            if s.a.shape[1] != d_in or s.b.shape[0] != d_out:
                raise DimensionError(
                    f"site {sid!r}: adapters disagree on dimensions "
                    f"({s.b.shape[0]}x{s.a.shape[1]} vs {d_out}x{d_in})"
                )
        sites.append(SiteFactors(
            sid, np.vstack([s.a for s in at_site]), np.hstack([s.b for s in at_site])
        ))
    return MergedAdapterSet(sites)
