"""Adaptive-moment optimizer with decoupled weight decay over adapter sets.

The optimizer is stateful on purpose: the commit rule requires clearing the
moment estimates at newly pruned coordinates, which is only observable with
per-parameter state. The moments are two flat vectors laid out like the
adapter set's arena (`MergedAdapterSet.flat`), so one update and one reset
each cover every tensor at once, and they survive mask rebuilds.

At batch size 1 a step costs ufunc dispatch more than arithmetic. So the
update's constants are 0-d float64 operands built once (they dispatch faster
than Python floats and round the same), outputs are passed positionally, and
a mask's keep bits are folded into the moment coefficients keep*(1 - beta1)
and keep*(1 - beta2): a masked step is the dense step's ufunc sequence with
vector coefficients in place of the scalars. The coefficients are keyed on
the read-only keep array they fold, so they are rebuilt only when a commit
installs a new mask; a commit that keeps the live mask reuses them.

No bit changes. Keep bits are exactly 0.0 or 1.0 and the coefficients are
positive, so g*(k*c) is (g*k)*c (for k = 0, a zero of the sign of g) and
(g*(k*c2))*g is ((g*k)*c2)*(g*k) (+0.0 for k = 0). Every other operation
keeps the textbook order, except that m/bias1 is skipped once
bias1 = 1 - beta1**t rounds to exactly 1.0 (from step 356 at beta1 = 0.9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import MergedAdapterSet
from .errors import DimensionError
from .masking import SparsityMask, mask_apply_inplace

__all__ = [
    "OptimizerState",
    "init_optimizer",
    "reset_moments",
    "optimizer_step_and_reset",
]

# AdamW's standard moment decays and epsilon (Loshchilov & Hutter,
# arXiv:1711.05101); the learning rate and weight decay come from
# `TrainConfig`, which validates them.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    """The learning rate and weight decay, first/second moments over the
    arena, the shared step count, and the update's constants, mask
    coefficients and scratch vectors (same length as the moments)."""

    learning_rate: float
    weight_decay: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    _scratch: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    _consts: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _folded: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.first_moment
        self._scratch = (np.empty_like(m), np.empty_like(m))
        self._consts = tuple(np.array(c, dtype=np.float64) for c in (
            BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2,
            EPSILON, self.weight_decay, self.learning_rate,
        ))
        self._folded = (None, *self._consts[2:4])  # (keep, c1, c2); no mask: scalars

    def coefficients(self, mask: SparsityMask | None) -> tuple[np.ndarray, np.ndarray]:
        """keep * (1 - beta1) and keep * (1 - beta2) under `mask`, rebuilt
        only when a different keep array arrives (a mask's `keep` is
        read-only, so the same array means the same bits); 1 - beta1 and
        1 - beta2 under no mask."""
        keep = None if mask is None else mask.keep
        if keep is not self._folded[0]:
            c1, c2 = self._consts[2:4]
            if keep is not None:
                if keep.size != self.first_moment.size:
                    raise DimensionError(
                        f"mask length {keep.size} does not match the "
                        f"{self.first_moment.size} moments"
                    )
                c1, c2 = np.multiply(keep, c1), np.multiply(keep, c2)
            self._folded = (keep, c1, c2)
        return self._folded[1:]


def init_optimizer(
    merged: MergedAdapterSet, learning_rate: float, weight_decay: float
) -> OptimizerState:
    """Zero-initialized moments shaped like the set's arena."""
    return OptimizerState(
        learning_rate=learning_rate,
        weight_decay=weight_decay,
        first_moment=np.zeros_like(merged.flat),
        second_moment=np.zeros_like(merged.flat),
    )


def reset_moments(state: OptimizerState, newly: np.ndarray) -> None:
    """Zero both moments where the flat bool `newly` is set (the commit-time reset)."""
    if newly.size != state.first_moment.size:
        raise DimensionError(
            f"reset index length {newly.size} does not match the "
            f"{state.first_moment.size} moments"
        )
    state.first_moment[newly] = 0.0
    state.second_moment[newly] = 0.0


def optimizer_step_and_reset(
    merged: MergedAdapterSet,
    grads: MergedAdapterSet,
    state: OptimizerState,
    mask: SparsityMask | None = None,
) -> None:
    """One in-place update over the whole arena; under a mask, re-zero the
    pruned coordinates. It resets no moments: the commit-time reset is
    `reset_moments`, called by `MaskedTrainingEnv.commit`.

    `grads` is a set of the same layout holding the gradient (see
    `loss_and_gradients`); it is read, never written. Kept coordinates
    receive the standard bias-corrected adaptive-moment update with
    decoupled weight decay. Masked coordinates contribute zero gradient, so
    once their moments are cleared at commit time they stay exactly zero
    (parameter and moments alike) for as long as they remain pruned — and
    the mask reapplication at the end keeps the parameters at exactly +0.0
    regardless.
    """
    if not merged.same_layout(grads):
        raise DimensionError("gradient layout does not match the adapter set")
    c1, c2 = state.coefficients(mask)
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    beta1, beta2, _, _, eps, decay, lr = state._consts
    arr, g, m, v = merged.flat, grads.flat, state.first_moment, state.second_moment
    s1, s2 = state._scratch
    # The textbook update, one elementwise operation at a time and in its
    # order, so every coordinate gets the per-coordinate formula's bits.
    np.multiply(m, beta1, m)
    m += np.multiply(g, c1, s2)                      # (keep * (1 - beta1)) * g
    np.multiply(v, beta2, v)
    np.multiply(g, c2, s2)
    v += np.multiply(s2, g, s2)                      # (keep * (1 - beta2)) * g * g
    m_hat = m if bias1 == 1.0 else np.divide(m, bias1, s1)  # m / 1.0 is m
    denom = np.sqrt(np.divide(v, bias2, s2), s2)
    np.add(denom, eps, denom)
    update = np.divide(m_hat, denom, s1)
    update += np.multiply(arr, decay, s2)
    np.multiply(update, lr, update)
    arr -= update
    if mask is not None:
        mask_apply_inplace(merged, mask)
