"""Closed-form reward oracles for exercising the controller without a model.

These environments expose the same protocol the training harness does
(baseline_reward / candidate_reward / commit / checksum) but compute rewards
from an explicit landscape: a clean function of the ratio plus Gaussian
evaluation noise. They exist to let controller behavior be measured against
a known ground truth, such as convergence toward a planted optimum; the
test suite builds its noisier landscapes (``tests/landscapes.py``) on
`SyntheticEnv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controller import (
    ControllerConfig,
    ControllerRecord,
    controller_round,
    init_policy,
    select_p_star,
)


@dataclass
class SyntheticEnv:
    """Reward = clean(p) + drift(round) + noise_std(p) * standard normal.

    The optional drift term models the model-improvement confound of a live
    run: rewards measured in later rounds ride on a better-trained model, so
    they dominate the cross-round scan exactly as they do in the harness.
    """

    clean: Callable[[float], float]
    noise_std: Callable[[float], float]
    rng: np.random.Generator
    p_committed: float = 0.0
    drift: Callable[[int], float] | None = None
    round_index: int = 0

    def _eval(self, p: float) -> float:
        level = self.drift(self.round_index) if self.drift else 0.0
        return self.clean(p) + level + self.noise_std(p) * float(self.rng.normal())

    def baseline_reward(self) -> float:
        return self._eval(self.p_committed)

    def candidate_reward(self, p: float) -> float:
        return self._eval(p)

    def commit(self, p_new: float) -> None:
        self.p_committed = p_new

    def checksum(self) -> bytes:
        return b""  # no trainable parameters to corrupt


def quadratic_env(
    rng: np.random.Generator,
    p_target: float,
    noise_std: float = 0.01,
) -> SyntheticEnv:
    """Single planted optimum: clean reward -(p - p_target)^2."""
    return SyntheticEnv(
        clean=lambda p: -((p - p_target) ** 2),
        noise_std=lambda p: noise_std,
        rng=rng,
    )


def run_synthetic(
    cfg: ControllerConfig,
    env: SyntheticEnv,
    seed: int,
    rounds: int = 100,
) -> tuple[list[ControllerRecord], float]:
    """Drive the controller against an oracle for a fixed number of rounds.

    The candidate-sampling stream and the environment's noise stream are
    split from the one seed, so a run is a pure function of (cfg, env
    landscape, seed, rounds).
    """
    children = np.random.SeedSequence(seed).spawn(2)
    rng_policy = np.random.Generator(np.random.PCG64(children[0]))
    env.rng = np.random.Generator(np.random.PCG64(children[1]))
    env.p_committed = cfg.p_init
    policy = init_policy(cfg)
    records = []
    for k in range(rounds):
        env.round_index = k
        policy, rec = controller_round(
            policy, cfg, rng_policy, env, round_index=k,
            step=(k + 1) * cfg.round_every,
        )
        records.append(rec)
    return records, select_p_star(records)
