"""Adaptive-moment optimizer with decoupled weight decay over adapter sets.

The optimizer is stateful on purpose: the commit rule requires clearing the
moment estimates at newly pruned coordinates, which is only observable with
per-parameter state. Moments are keyed by tensor id so they survive mask
rebuilds and can be reset index-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import MergedAdapterSet
from .errors import DimensionError, UsageError
from .masking import SparsityMask, mask_apply_inplace

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "init_optimizer",
    "reset_moments",
    "optimizer_step_and_reset",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for the decoupled-weight-decay adaptive-moment update.

    Only the learning rate is pinned by the shared training defaults; the
    moment decays, epsilon, and decay strength follow the optimizer's common
    defaults.
    """

    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01

    def validate(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= b < 1.0:
                raise UsageError(f"{name} must be in [0, 1), got {b}")
        if not self.epsilon > 0:
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")
        if self.weight_decay < 0:
            raise UsageError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class OptimizerState:
    """Per-tensor first/second moments plus the shared step count."""

    config: OptimizerConfig
    first_moment: dict[int, np.ndarray] = field(default_factory=dict)
    second_moment: dict[int, np.ndarray] = field(default_factory=dict)
    step: int = 0


def init_optimizer(
    merged: MergedAdapterSet, config: OptimizerConfig | None = None
) -> OptimizerState:
    """Zero-initialized moments shaped like every trainable tensor."""
    cfg = config or OptimizerConfig()
    cfg.validate()
    state = OptimizerState(config=cfg)
    for tid, _sid, _fac, arr in merged.tensors():
        state.first_moment[tid] = np.zeros_like(arr)
        state.second_moment[tid] = np.zeros_like(arr)
    return state


def reset_moments(state: OptimizerState, newly: dict[int, np.ndarray]) -> None:
    """Zero both moments at the given flat indices (the commit-time reset)."""
    for tid, idx in newly.items():
        m = state.first_moment.get(tid)
        v = state.second_moment.get(tid)
        if m is None or v is None:
            raise DimensionError(f"optimizer has no moments for tensor {tid}")
        if idx.size != m.size:
            raise DimensionError(
                f"reset index length {idx.size} does not match tensor {tid} size {m.size}"
            )
        m.reshape(-1)[idx] = 0.0
        v.reshape(-1)[idx] = 0.0


def optimizer_step_and_reset(
    merged: MergedAdapterSet,
    grads: dict[int, np.ndarray],
    state: OptimizerState,
    mask: SparsityMask | None = None,
) -> None:
    """One in-place update; under a mask, re-zero the pruned coordinates.

    Kept coordinates receive the standard bias-corrected adaptive-moment
    update with decoupled weight decay. Masked coordinates contribute zero
    gradient, so once their moments are cleared at commit time they stay
    exactly zero (parameter and moments alike) for as long as they remain
    pruned — and the mask reapplication at the end keeps the parameters at
    exactly +0.0 regardless.
    """
    state.step += 1
    cfg = state.config
    t = state.step
    bias1 = 1.0 - cfg.beta1**t
    bias2 = 1.0 - cfg.beta2**t
    for tid, _sid, _fac, arr in merged.tensors():
        g = grads.get(tid)
        if g is None:
            raise DimensionError(f"no gradient provided for tensor {tid}")
        if g.shape != arr.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor {tid} shape {arr.shape}"
            )
        if mask is not None:
            g = g * mask.keep_floats(tid, arr.shape)
        m = state.first_moment[tid]
        v = state.second_moment[tid]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        arr -= cfg.learning_rate * (
            m_hat / (np.sqrt(v_hat) + cfg.epsilon) + cfg.weight_decay * arr
        )
    if mask is not None:
        mask_apply_inplace(merged, mask)
