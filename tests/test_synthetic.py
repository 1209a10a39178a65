"""Tests for the synthetic reward environments and the scripted runner."""

import math

import numpy as np
import pytest

from policyprune.controller import ControllerConfig, audit_records
from policyprune.serialize import canonical_json
from policyprune.synthetic import SyntheticEnv, quadratic_env, run_synthetic

from landscapes import microdev_noise, narrow_optimum_env, ramped_noise_env


def test_microdev_noise_anchor_and_scaling():
    # Anchored so the default slice size gives std 0.01.
    assert microdev_noise(16) == pytest.approx(0.01)
    # Mean-of-m estimates shrink as 1/sqrt(m): quartering m doubles the std.
    assert microdev_noise(4) == pytest.approx(2 * microdev_noise(16))
    sizes = [4, 8, 16, 32]
    stds = [microdev_noise(m) for m in sizes]
    assert stds == sorted(stds, reverse=True)


def test_env_evaluates_clean_function_at_the_right_points():
    env = SyntheticEnv(
        clean=lambda p: 10 * p,
        noise_std=lambda p: 0.0,
        rng=np.random.Generator(np.random.PCG64(0)),
        p_committed=0.4,
    )
    assert env.baseline_reward() == pytest.approx(4.0)
    assert env.candidate_reward(0.7) == pytest.approx(7.0)
    env.commit(0.2)
    assert env.p_committed == 0.2
    assert env.baseline_reward() == pytest.approx(2.0)


def test_env_checksum_is_constant_across_probes():
    env = quadratic_env(np.random.Generator(np.random.PCG64(3)), p_target=0.3, noise_std=0.01)
    before = env.checksum()
    env.baseline_reward()
    env.candidate_reward(0.5)
    assert env.checksum() == before


def test_env_noise_uses_the_given_stream():
    rng = np.random.Generator(np.random.PCG64(7))
    env = SyntheticEnv(
        clean=lambda p: 0.0,
        noise_std=lambda p: 2.0,
        rng=rng,
        p_committed=0.4,
    )
    expected = 2.0 * np.random.Generator(np.random.PCG64(7)).normal()
    assert env.baseline_reward() == pytest.approx(expected, abs=1e-15)


def test_env_drift_shifts_rewards_by_round_level():
    env = SyntheticEnv(
        clean=lambda p: -p,
        noise_std=lambda p: 0.0,
        rng=np.random.Generator(np.random.PCG64(0)),
        p_committed=0.4,
        drift=lambda k: 0.5 * k,
    )
    assert env.baseline_reward() == pytest.approx(-0.4)
    env.round_index = 3
    assert env.baseline_reward() == pytest.approx(-0.4 + 1.5)
    assert env.candidate_reward(0.1) == pytest.approx(-0.1 + 1.5)


def test_quadratic_env_shape():
    env = quadratic_env(
        np.random.Generator(np.random.PCG64(0)), p_target=0.25, noise_std=0.0
    )
    assert env.candidate_reward(0.25) == pytest.approx(0.0)
    assert env.candidate_reward(0.35) == pytest.approx(-0.01)
    assert env.candidate_reward(0.15) == pytest.approx(-0.01)


def test_ramped_noise_env_noise_grows_toward_heavy_pruning():
    env = ramped_noise_env(np.random.Generator(np.random.PCG64(0)))
    assert env.noise_std(0.10) == pytest.approx(0.003)
    assert env.noise_std(0.80) == pytest.approx(0.053)
    grid = np.linspace(0.10, 0.80, 15)
    stds = [env.noise_std(p) for p in grid]
    assert all(b >= a for a, b in zip(stds, stds[1:]))


def test_narrow_optimum_env_landscape():
    env = narrow_optimum_env(np.random.Generator(np.random.PCG64(0)))
    # The bump peaks at the well and is negligible a few widths away.
    assert env.clean(0.15) == pytest.approx(0.5)
    assert env.clean(0.15) > env.clean(0.25) > env.clean(0.40)
    assert env.clean(0.60) < 1e-10
    # Drift starts at zero and saturates toward its ceiling.
    assert env.drift is not None
    assert env.drift(0) == pytest.approx(0.0)
    assert env.drift(10_000) == pytest.approx(1.5)
    assert env.drift(5) < env.drift(20) < env.drift(60)
    # Noise still swells toward heavy pruning.
    assert env.noise_std(0.80) > env.noise_std(0.15)


def test_run_synthetic_is_deterministic_and_resets_env_state():
    cfg = ControllerConfig()
    env = quadratic_env(
        np.random.Generator(np.random.PCG64(999)), p_target=0.25, noise_std=0.01
    )
    records_a, p_star_a = run_synthetic(cfg, env, seed=42, rounds=20)
    # Reuse the *same* env object: the runner re-seeds its noise stream and
    # resets the committed ratio, so the replay must be bit-identical.
    records_b, p_star_b = run_synthetic(cfg, env, seed=42, rounds=20)
    lines_a = [canonical_json(r.to_obj()) for r in records_a]
    lines_b = [canonical_json(r.to_obj()) for r in records_b]
    assert lines_a == lines_b
    assert p_star_a == p_star_b

    records_c, _ = run_synthetic(cfg, env, seed=43, rounds=20)
    assert [canonical_json(r.to_obj()) for r in records_c] != lines_a


def test_run_synthetic_round_and_step_bookkeeping():
    cfg = ControllerConfig()
    env = quadratic_env(np.random.Generator(np.random.PCG64(0)), p_target=0.3, noise_std=0.01)
    records, _ = run_synthetic(cfg, env, seed=1, rounds=5)
    assert [r.round for r in records] == [0, 1, 2, 3, 4]
    assert [r.step for r in records] == [10, 20, 30, 40, 50]
    assert records[0].p_curr_before == cfg.p_init


def test_run_synthetic_converges_on_a_clean_quadratic():
    cfg = ControllerConfig()
    env = quadratic_env(np.random.Generator(np.random.PCG64(0)), p_target=0.25, noise_std=0.01)
    records, p_star = run_synthetic(cfg, env, seed=0, rounds=100)
    assert abs(p_star - 0.25) <= 0.05
    assert audit_records(records, cfg) == []


def test_run_synthetic_passes_invariant_audit_on_noisy_landscapes():
    cfg = ControllerConfig()
    for make in (ramped_noise_env, narrow_optimum_env):
        env = make(np.random.Generator(np.random.PCG64(0)))
        records, _ = run_synthetic(cfg, env, seed=7, rounds=30)
        assert audit_records(records, cfg) == []
