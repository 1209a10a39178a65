"""Adaptive-moment optimizer with decoupled weight decay over adapter sets.

The optimizer is stateful on purpose: the commit rule requires clearing the
moment estimates at pruned coordinates, which is only observable with
per-parameter state. The moments are two flat vectors laid out like the
adapter set's arena (`MergedAdapterSet.flat`), so one update covers every
tensor at once.

A mask is enforced where it is installed. `install_mask` applies it to the
arena, zeroes both moments wherever it prunes, folds its keep bits into the
moment coefficients keep*(1 - beta1) and keep*(1 - beta2), and records it as
the state's mask in force; a step takes no mask. Under those coefficients a
pruned coordinate gets a zero gradient, so its moments stay +0.0 and its
weight stays +0.0 (+0.0 - (+0/(sqrt(+0) + eps) + (+0)*decay)*lr), and a kept
weight is -0.0 only if it already was, which an install rules out. So a step
never writes a pruned coordinate and needs no re-zero. Until a mask is
installed the coefficients are the scalars 1 - beta1 and 1 - beta2.

At batch size 1 a step costs ufunc dispatch more than arithmetic. So
`make_optimizer_step` binds the arena, the gradient, the moments, the
scratch and the constants once per run and returns the update as a closure
that reads only the step count and the moment coefficients from the state;
`optimizer_step_and_reset` is one call of a fresh one. The constants are
0-d float64 operands built once (they dispatch faster than Python floats
and round the same), outputs are passed positionally, and a masked step is
the dense step's ufunc sequence with vector coefficients in place of the
scalars.

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
    "install_mask",
    "make_optimizer_step",
    "optimizer_step_and_reset",
]

# AdamW's standard moment decays and epsilon (Loshchilov & Hutter,
# arXiv:1711.05101); the learning rate and weight decay come from
# `TrainConfig`, which checks them when it is built.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    """The learning rate and weight decay, first/second moments over the
    arena, the shared step count, the mask in force (None until
    `install_mask`), and the update's constants, moment coefficients and
    scratch vectors (same length as the moments)."""

    learning_rate: float
    weight_decay: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    mask: SparsityMask | None = field(default=None, init=False)
    _scratch: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )
    _consts: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _coeffs: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.first_moment
        self._scratch = (np.empty_like(m), np.empty_like(m))
        self._consts = tuple(np.array(c, dtype=np.float64) for c in (
            BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2,
            EPSILON, self.weight_decay, self.learning_rate,
        ))
        self._coeffs = self._consts[2:4]  # no mask: the scalars


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


def install_mask(merged: MergedAdapterSet, state: OptimizerState, mask: SparsityMask) -> None:
    """Put `mask` in force: zero the arena's pruned coordinates (as +0.0),
    zero both moments there, fold the keep bits into the moment
    coefficients and record `mask` as `state.mask`. A mask that does not
    fit the moments, or the arena (checked by `mask_apply_inplace`), raises
    `DimensionError` before any byte changes."""
    sizes = {state.first_moment.size, state.second_moment.size}
    if sizes != {mask.keep.size}:
        raise DimensionError(
            f"mask length {mask.keep.size} does not match the moments ({sorted(sizes)})"
        )
    mask_apply_inplace(merged, mask)
    pruned = mask.keep == 0.0
    state.first_moment[pruned] = 0.0
    state.second_moment[pruned] = 0.0
    c1, c2 = state._consts[2:4]
    state._coeffs = (np.multiply(mask.keep, c1), np.multiply(mask.keep, c2))
    state.mask = mask


def make_optimizer_step(
    merged: MergedAdapterSet, grads: MergedAdapterSet, state: OptimizerState
):
    """One AdamW update over the whole arena, bound once: a closure that
    applies it in place under the state's mask in force, read at every
    call, so a mask installed between two calls governs the second. It
    neither resets moments nor re-applies the mask: both happen once, in
    `install_mask`, and the folded coefficients leave every pruned
    coordinate (weight and moments) at +0.0.

    `grads`, a set of the same layout (`DimensionError` otherwise), holds
    the gradient and is never written. Kept coordinates receive the
    standard bias-corrected adaptive-moment update with decoupled weight
    decay.
    """
    if not merged.same_layout(grads):
        raise DimensionError("gradient layout does not match the adapter set")
    beta1, beta2, _, _, eps, decay, lr = state._consts
    arr, g, m, v = merged.flat, grads.flat, state.first_moment, state.second_moment
    s1, s2 = state._scratch

    def step() -> None:
        c1, c2 = state._coeffs
        state.step += 1
        t = state.step
        bias1 = 1.0 - BETA1**t
        bias2 = 1.0 - BETA2**t
        # The textbook update, one elementwise operation at a time and in
        # its order, so every coordinate gets the per-coordinate formula's bits.
        np.multiply(m, beta1, m)
        np.add(m, np.multiply(g, c1, s2), m)             # (keep * (1 - beta1)) * g
        np.multiply(v, beta2, v)
        np.multiply(g, c2, s2)
        np.add(v, np.multiply(s2, g, s2), v)             # (keep * (1 - beta2)) * g * g
        m_hat = m if bias1 == 1.0 else np.divide(m, bias1, s1)  # m / 1.0 is m
        denom = np.sqrt(np.divide(v, bias2, s2), s2)
        np.add(denom, eps, denom)
        update = np.divide(m_hat, denom, s1)
        update += np.multiply(arr, decay, s2)
        np.multiply(update, lr, update)
        np.subtract(arr, update, arr)

    return step


def optimizer_step_and_reset(
    merged: MergedAdapterSet, grads: MergedAdapterSet, state: OptimizerState
) -> None:
    """One call of a fresh `make_optimizer_step(merged, grads, state)`."""
    make_optimizer_step(merged, grads, state)()
