"""Known ground truths the controller tests measure behaviour against.

`microdev_noise` gives the evaluation-noise scale of a micro-dev slice. The
two landscapes are `SyntheticEnv`s: a clean optimum whose evaluation noise
swells toward heavy pruning, and a deceptive narrow optimum that only a
still-exploring policy finds.
"""

from __future__ import annotations

import math

import numpy as np

from policyprune.synthetic import SyntheticEnv


def microdev_noise(m: int) -> float:
    """Evaluation-noise std for a micro-dev slice of m examples.

    Mean-of-m estimates shrink as 1/sqrt(m); anchored so the default
    m = 16 gives std 0.01.
    """
    return 0.04 / math.sqrt(m)


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
