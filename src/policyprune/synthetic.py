"""Closed-form reward oracles for exercising the controller without a model.

These environments expose the same protocol the training harness does
(baseline_reward / candidate_reward / commit / checksum) but compute rewards
from an explicit landscape: a clean function of the ratio plus Gaussian
evaluation noise. They exist to let controller behavior be measured against
a known ground truth: convergence toward a planted optimum, robustness to
the micro-dev evaluation noise level, and the effect of the exploration
offset on a landscape whose noise grows toward heavy pruning.
"""

from __future__ import annotations

import math
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


def microdev_noise(m: int) -> float:
    """Evaluation-noise std for a micro-dev slice of m examples.

    Mean-of-m estimates shrink as 1/sqrt(m); anchored so the default
    m = 16 gives std 0.01.
    """
    return 0.04 / math.sqrt(m)


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
    curvature: float = 1.0,
) -> SyntheticEnv:
    """Single planted optimum: clean reward -curvature * (p - p_target)^2."""
    return SyntheticEnv(
        clean=lambda p: -curvature * (p - p_target) ** 2,
        noise_std=lambda p: noise_std,
        rng=rng,
    )


def ramped_noise_env(
    rng: np.random.Generator,
    optimum: float = 0.30,
    curvature: float = 1.0,
    noise_base: float = 0.003,
    noise_gain: float = 0.05,
    noise_power: float = 4.0,
    p_min: float = 0.10,
    p_max: float = 0.80,
) -> SyntheticEnv:
    """Clean optimum at low p, but evaluation noise swells toward p_max.

    Heavy-pruning ratios become lottery tickets: occasionally their noisy
    reward spikes above the true optimum. A policy that keeps exploring can
    average this out; one whose spread collapses ends up chasing the spikes.
    """

    def noise(p: float) -> float:
        x = (p - p_min) / (p_max - p_min)
        return noise_base + noise_gain * x**noise_power

    return SyntheticEnv(
        clean=lambda p: -curvature * (p - optimum) ** 2,
        noise_std=noise,
        rng=rng,
    )


def narrow_optimum_env(
    rng: np.random.Generator,
    p_well: float = 0.15,
    well_width: float = 0.05,
    well_height: float = 0.5,
    noise_base: float = 0.002,
    noise_gain: float = 0.04,
    noise_power: float = 4.0,
    drift_height: float = 1.5,
    drift_rounds: float = 12.0,
    p_min: float = 0.10,
    p_max: float = 0.80,
) -> SyntheticEnv:
    """Deceptive landscape: a narrow light-pruning optimum on a flat plateau.

    Clean reward is a Gaussian bump at p_well, essentially zero elsewhere, so
    the optimum is invisible to a policy whose spread has collapsed. Noise
    grows toward p_max, which biases a blind local walk toward heavier
    pruning (the higher-noise candidate wins the within-round max more
    often). The saturating drift term plays the model-improvement confound:
    late rounds dominate the cross-round scan, so the selected ratio reads
    out where the policy ended up. Together these reproduce the failure mode
    the exploration offset exists to prevent: without it, sigma collapses,
    the well is never found, and the committed ratio drifts heavy.
    """

    def clean(p: float) -> float:
        return well_height * math.exp(-((p - p_well) ** 2) / (2 * well_width**2))

    def noise(p: float) -> float:
        x = (p - p_min) / (p_max - p_min)
        return noise_base + noise_gain * x**noise_power

    def drift(k: int) -> float:
        return drift_height * (1.0 - math.exp(-k / drift_rounds))

    return SyntheticEnv(clean=clean, noise_std=noise, rng=rng, drift=drift)


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
