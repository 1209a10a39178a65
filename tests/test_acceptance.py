"""Acceptance gate: one test per guarantee the package commits to.

Every tolerance is pinned in-line next to the assertion it guards, and each
test finishes by printing a single pass line naming its criterion, so a
``pytest -v -s`` transcript doubles as the acceptance record. The expensive
shared computations (the twenty planted-optimum controller runs, the live
policy-learning phase at stock settings) run once per session and are reused
by every criterion that audits them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from time import perf_counter

import numpy as np

from policyprune import cli
from policyprune.adapters import (
    FrozenBackbone,
    MergedAdapterSet,
    SiteFactors,
    merge_adapter_sets,
)
from policyprune.baselines import compare_efficiency, format_runtime_table, grid_search
from policyprune.configio import load_run_config
from policyprune.container import load_merged, save_adapters, save_merged
from policyprune.controller import (
    ControllerConfig,
    audit_records,
    controller_round,
    init_policy,
    score_gradients,
)
from policyprune.masking import (
    ImportanceScale,
    build_mask,
    estimate_scale,
    importance_scores,
    prune_threshold,
)
from policyprune.optim import init_optimizer, install_mask
from policyprune.synthetic import quadratic_env, run_synthetic
from policyprune.toytask import (
    ToyTaskConfig,
    gen_toy_data,
    loss_and_gradients,
    model_forward,
    mse_loss,
)
from policyprune.training import (
    LoraConfig,
    MaskedTrainingEnv,
    TrainConfig,
    pipeline_rngs,
    run_pipeline,
    sparsity_policy_learning,
    train_adapter,
    train_and_merge,
)

from landscapes import microdev_noise, narrow_optimum_env

_SMALL_INI = """\
[task]
d_in = 8
d_out = 6
teacher_rank = 2
source_train_n = 48
target_train_n = 32
dev_n = 16
microdev_n = 32
test_n = 16

[lora]
rank = 4

[training]
epochs = 3

[controller]
microdev_n = 8

[grid]
ratios = 0.1, 0.4, 0.7

[run]
seeds = 7
"""


@functools.lru_cache(maxsize=1)
def _stock():
    """The resolved stock run configuration, isolated from the environment."""
    return load_run_config(env={})


@functools.lru_cache(maxsize=1)
def _convergence_runs():
    """Twenty planted-optimum controller runs shared by criteria 5 and 6.

    Returns (controller config, ((target, seed, records, p_star), ...),
    elapsed seconds). The placeholder generator handed to the environment
    factory is replaced by the run's own seeded stream, so each run is a
    pure function of (config, landscape, seed).
    """
    cfg = ControllerConfig()
    runs = []
    t0 = perf_counter()
    for target in (0.25, 0.60):
        for seed in range(10):
            env = quadratic_env(
                np.random.default_rng(0), p_target=target, noise_std=0.01
            )
            records, p_star = run_synthetic(cfg, env, seed, rounds=100)
            runs.append((target, seed, records, p_star))
    elapsed = perf_counter() - t0
    return cfg, tuple(runs), elapsed


@functools.lru_cache(maxsize=1)
def _live_policy_records():
    """Round log of the live policy-learning phase at stock settings.

    Identical inputs to the policy arm the runtime comparison executes
    (same data, same merge, same substreams, early stopping disabled), so
    these records are that arm's records; criteria 6 and 7 audit them.
    """
    cfg = _stock()
    train = dataclasses.replace(cfg.training, early_stop_patience=None)
    data = gen_toy_data(cfg.task, cfg.seed)
    microdev = data.microdev.head(cfg.controller.microdev_n)
    rngs = pipeline_rngs(cfg.seed)
    source = train_adapter(
        data.backbone, data.source_train, cfg.lora, train, rngs["source"]
    )
    target = train_adapter(
        data.backbone, data.target_train, cfg.lora, train, rngs["target"]
    )
    merged_init = merge_adapter_sets(
        [source.adapters, target.adapters], data.backbone.site_ids()
    )
    result = sparsity_policy_learning(
        data.backbone,
        merged_init,
        data.target_train,
        microdev,
        cfg.controller,
        train,
        rngs["phase2_train"],
        rngs["policy"],
        on_round=None,
    )
    return result.records


def _random_merged(rng, sites=("q_proj", "v_proj"), rank=5, d_in=14, d_out=10):
    return MergedAdapterSet(
        [
            SiteFactors(sid, rng.normal(size=(rank, d_in)), rng.normal(size=(d_out, rank)))
            for sid in sites
        ]
    )


def test_criterion_01_prune_counts_are_exact():
    rng = np.random.default_rng(101)
    t0 = perf_counter()
    ties_checked = 0
    for _ in range(1000):
        d = int(rng.integers(40, 400))
        # distinct magnitudes by construction; random signs exercise |.|
        mags = rng.choice(np.arange(1, 8 * d, dtype=np.float64), size=d, replace=False)
        values = mags * rng.choice([-1.0, 1.0], size=d)
        p = float(rng.uniform(0.10, 0.80))
        scores = importance_scores(values, ImportanceScale(float(rng.uniform(0.5, 4.0))))
        k, tau = prune_threshold(scores, p)
        want = math.floor(p * d)
        assert k == want
        assert int((scores <= tau).sum()) == want
        # inject ties exactly at the threshold: pruning may only grow
        kept = np.flatnonzero(scores > tau)
        if kept.size >= 3:
            tied = scores.copy()
            tied[rng.choice(kept, size=3, replace=False)] = tau
            _, tau_tied = prune_threshold(tied, p)
            assert int((tied <= tau_tied).sum()) >= want
            ties_checked += 1
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"criterion 01 PASS - 1000 distinct-entry tensors pruned exactly "
        f"floor(p*d); {ties_checked} tie injections pruned >= floor(p*d); "
        f"{elapsed:.2f}s < 5s"
    )


def test_criterion_02_masks_invariant_to_the_scale_constant():
    rng = np.random.default_rng(202)
    base = estimate_scale(rng.normal(size=(12, 24)))
    for _ in range(100):
        d = int(rng.integers(60, 300))
        values = rng.normal(size=d)
        p = float(rng.uniform(0.10, 0.80))
        scores_ref = importance_scores(values, base)
        _, tau_ref = prune_threshold(scores_ref, p)
        keep_ref = (scores_ref > tau_ref).astype(np.uint8)
        for c in (1e-3, 1.0, 1e3):
            scores_c = importance_scores(values, ImportanceScale(c * base.s))
            _, tau_c = prune_threshold(scores_c, p)
            keep_c = (scores_c > tau_c).astype(np.uint8)
            assert np.array_equal(keep_c, keep_ref)
    # and through the full mask builder on a merged factor set
    merged = _random_merged(rng)
    ref = build_mask(merged, 0.37, base)
    for c in (1e-3, 1.0, 1e3):
        got = build_mask(merged, 0.37, ImportanceScale(c * base.s))
        assert got.keep.dtype == np.float64
        assert np.array_equal(got.keep, ref.keep)
    print(
        "criterion 02 PASS - keep bits identical under scale constants "
        "{1e-3, 1, 1e3} on 100 tensors and a full merged set"
    )


def test_criterion_03_masks_nest_across_ratios():
    rng = np.random.default_rng(303)
    d = 600
    scores = rng.normal(size=d) ** 2
    # plant duplicate values so threshold ties participate in the check
    scores[rng.choice(d, size=60, replace=False)] = scores[0]
    violations = 0
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(0.10, 0.80, size=2))
        p1, p2 = float(lo), float(hi)
        assert p1 < p2
        _, tau1 = prune_threshold(scores, p1)
        _, tau2 = prune_threshold(scores, p2)
        keep1 = scores > tau1
        keep2 = scores > tau2
        # a violation is an index pruned at the lighter ratio but kept at
        # the heavier one
        violations += int((~keep1 & keep2).sum())
    assert violations == 0
    print(
        "criterion 03 PASS - pruned(p1) subset of pruned(p2) on 100 random "
        "pairs p1 < p2, zero violations"
    )


def test_criterion_04_gradients_match_finite_differences():
    rng = np.random.default_rng(404)

    def logpdf(z, mu, sigma):
        return (
            -0.5 * math.log(2 * math.pi)
            - math.log(sigma)
            - 0.5 * ((z - mu) / sigma) ** 2
        )

    checked = 0
    while checked < 100:
        mu = float(rng.uniform(-2.0, 2.0))
        sigma = float(rng.uniform(0.5, 2.0))
        z = float(rng.uniform(-2.0, 2.0))
        # a unit advantage on a single sample exposes the raw score terms
        g_mu, g_sigma = score_gradients([z], [1.0], mu, sigma)
        if abs(g_mu) < 0.05 or abs(g_sigma) < 0.05:
            continue  # keep the relative comparison well conditioned
        h = 1e-6 * max(1.0, abs(mu))
        fd_mu = (logpdf(z, mu + h, sigma) - logpdf(z, mu - h, sigma)) / (2 * h)
        h = 1e-6 * max(1.0, abs(sigma))
        fd_sigma = (logpdf(z, mu, sigma + h) - logpdf(z, mu, sigma - h)) / (2 * h)
        assert abs(g_mu - fd_mu) / abs(fd_mu) <= 1e-6
        assert abs(g_sigma - fd_sigma) / abs(fd_sigma) <= 1e-6
        checked += 1

    sites = ("up", "down")
    backbone = FrozenBackbone(
        sites=tuple((sid, rng.normal(size=(5, 7))) for sid in sites),
    )
    merged = MergedAdapterSet(
        [SiteFactors(sid, rng.normal(size=(3, 7)), rng.normal(size=(5, 3))) for sid in sites]
    )
    x = rng.normal(size=(9, 7))
    y = rng.normal(size=(9, 5))
    _loss, grads = loss_and_gradients(backbone, merged, x, y)
    entries = merged.tensors()
    points = 0
    while points < 10:
        ti = int(rng.integers(len(entries)))
        _tid, _sid, _fac, arr = entries[ti]
        j = int(rng.integers(arr.size))
        g = float(grads.tensors()[ti][3].reshape(-1)[j])
        if abs(g) < 1e-3:
            continue
        h = 1e-4 * max(1.0, abs(arr.reshape(-1)[j]))

        def loss_at(delta, ti=ti, j=j):
            probe = merged.copy()
            probe.tensors()[ti][3].reshape(-1)[j] += delta
            return mse_loss(model_forward(backbone, probe, x), y)

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        assert abs(fd - g) / max(abs(g), abs(fd)) <= 1e-4
        points += 1
    print(
        "criterion 04 PASS - score terms within 1e-6 of central differences "
        "at 100 points; factor gradients within 1e-4 at 10 coordinates"
    )


def test_criterion_05_controller_finds_planted_optima():
    _cfg, runs, elapsed = _convergence_runs()
    counts = {}
    for target in (0.25, 0.60):
        close = sum(
            1
            for t, _seed, _records, p_star in runs
            if t == target and abs(p_star - target) <= 0.05
        )
        counts[target] = close
        assert close >= 8, f"only {close}/10 seeds within 0.05 of {target}"
    assert elapsed < 30.0
    print(
        f"criterion 05 PASS - {counts[0.25]}/10 seeds within 0.05 of 0.25, "
        f"{counts[0.60]}/10 of 0.60, {elapsed:.2f}s < 30s"
    )


def test_criterion_06_round_logs_hold_every_invariant():
    cfg5, runs, _elapsed = _convergence_runs()
    record_sets = [(cfg5, records) for _t, _s, records, _p in runs]
    record_sets.append((_stock().controller, _live_policy_records()))
    rounds = commits = 0
    for cfg, records in record_sets:
        assert audit_records(records, cfg) == []
        for rec in records:
            rounds += 1
            assert 0.10 <= rec.p_curr_before <= 0.80
            assert 0.10 <= rec.p_curr_after <= 0.80
            assert abs(rec.p_curr_after - rec.p_curr_before) <= 0.10 + 1e-12
            assert rec.sigma_after >= 1e-3
            if rec.committed:
                commits += 1
                rels = [c.relative for c in rec.candidates if c.relative is not None]
                assert rels and max(rels) >= 0.0
    assert commits > 0
    print(
        f"criterion 06 PASS - {rounds} rounds over {len(record_sets)} runs: "
        f"all {commits} commits non-regressive, moves <= 0.10, sigma >= 1e-3, "
        f"p_curr within [0.10, 0.80]"
    )


class _ProbeChecksumSpy:
    """Controller-protocol wrapper that checksums around every probe."""

    def __init__(self, env):
        self.env = env
        self.checks: list[bool] = []

    def baseline_reward(self):
        return self.env.baseline_reward()

    def candidate_reward(self, p):
        before = self.env.checksum()
        reward = self.env.candidate_reward(p)
        self.checks.append(self.env.checksum() == before)
        return reward

    def commit(self, p_new):
        self.env.commit(p_new)

    def checksum(self):
        return self.env.checksum()


def test_criterion_07_probes_never_touch_trained_parameters():
    task = ToyTaskConfig(
        d_in=8, d_out=6, teacher_rank=2, source_train_n=48,
        target_train_n=32, dev_n=16, microdev_n=32, test_n=16,
    )
    lora = LoraConfig(rank=4)
    train = TrainConfig(epochs=3)
    ctrl = ControllerConfig(microdev_n=8)
    data = gen_toy_data(task, 7)
    rngs = pipeline_rngs(7)
    source = train_adapter(data.backbone, data.source_train, lora, train, rngs["source"])
    target = train_adapter(data.backbone, data.target_train, lora, train, rngs["target"])
    merged = merge_adapter_sets(
        [source.adapters, target.adapters], data.backbone.site_ids()
    ).copy()
    microdev = data.microdev.head(ctrl.microdev_n)
    scale = estimate_scale(microdev.x)
    opt = init_optimizer(merged, train.learning_rate, train.weight_decay)
    install_mask(merged, opt, build_mask(merged, ctrl.p_init, scale))
    env = MaskedTrainingEnv(
        backbone=data.backbone,
        merged=merged,
        microdev=microdev,
        scale=scale,
        opt_state=opt,
    )
    spy = _ProbeChecksumSpy(env)
    policy = init_policy(ctrl)
    rng = np.random.default_rng(11)
    for k in range(40):
        env.begin_round()
        policy, _rec = controller_round(
            policy, ctrl, rng, spy, round_index=k, step=(k + 1) * ctrl.round_every
        )
    assert len(spy.checks) == 40 * ctrl.candidates
    assert all(spy.checks)
    # the live fine-tuning phase re-runs this audit internally every round
    # and raises on any probe impurity; a clean full run is the evidence
    live = _live_policy_records()
    assert len(live) > 0
    print(
        f"criterion 07 PASS - {len(spy.checks)} probes left parameter "
        f"checksums unchanged; live phase ran {len(live)} audited rounds"
    )


def test_criterion_08_two_runs_beat_the_grid_budget():
    cfg = _stock()
    train = dataclasses.replace(cfg.training, early_stop_patience=None)
    t0 = perf_counter()
    data = gen_toy_data(cfg.task, cfg.seed)
    _source, _target, merged = train_and_merge(data, cfg.lora, train, cfg.seed)
    comp = compare_efficiency(
        data, merged, train, cfg.controller, cfg.seed,
        grid=cfg.grid, repeats=3,
    )
    elapsed = perf_counter() - t0
    assert comp.grasp.run_count == 2
    assert comp.grid.run_count == 8
    assert comp.step_speedup == 4.0  # 8 equal-budget runs over 2, exactly
    assert comp.grasp.speedup >= 3.0, "; ".join(
        f"{rep.method}: best {rep.seconds:.3f}s, median {rep.median_seconds:.3f}s, "
        f"spread {rep.spread_seconds:.3f}s" for rep in (comp.grasp, comp.grid)
    )
    assert f"wall-clock speedup {comp.grasp.speedup:.2f}×" in format_runtime_table(comp)
    assert elapsed < 300.0
    print(
        f"criterion 08 PASS - step speedup exactly {comp.step_speedup:.1f}x, "
        f"wall {comp.grasp.speedup:.2f}x >= 3.0x on this host, "
        f"{elapsed:.1f}s < 300s"
    )


def test_criterion_09_learned_ratio_matches_grid_quality():
    cfg = _stock()
    assert cfg.task.interference >= 0.5
    ratios = []
    for seed in cfg.seeds:
        art = run_pipeline(cfg.task, cfg.lora, cfg.training, cfg.controller, seed)
        microdev = art.data.microdev.head(cfg.controller.microdev_n)
        scale = estimate_scale(microdev.x)
        outcome = grid_search(
            art.data.backbone,
            art.merged_init,
            art.data.target_train,
            art.data.dev,
            scale,
            cfg.training,
            seed,
            grid=cfg.grid,
            test=art.data.test,
        )
        best_dev = outcome.best.dev_loss
        assert art.final.dev_loss <= 1.05 * best_dev
        ratios.append(art.final.dev_loss / best_dev)
    shown = ", ".join(f"{r:.4f}" for r in ratios)
    print(
        f"criterion 09 PASS - final dev over grid best per seed: {shown} "
        f"(all <= 1.05)"
    )


def test_criterion_10_exploration_offset_prevents_heavy_drift():
    means = {}
    for tau in (0.0, 0.01):
        ctrl = ControllerConfig(p_init=0.65, tau_ent=tau)
        stars = []
        for seed in range(5):
            env = narrow_optimum_env(np.random.default_rng(0))
            _records, p_star = run_synthetic(ctrl, env, seed, rounds=60)
            stars.append(p_star)
        means[tau] = sum(stars) / len(stars)
    assert means[0.0] > means[0.01]
    print(
        f"criterion 10 PASS - mean p* over 5 seeds: {means[0.0]:.3f} without "
        f"the offset > {means[0.01]:.3f} with it"
    )


def test_criterion_11_ratio_stable_across_microdev_sizes():
    target = 0.60
    means = []
    for m in (4, 8, 16, 32):
        noise = microdev_noise(m)
        stars = []
        for seed in range(5):
            env = quadratic_env(np.random.default_rng(0), p_target=target, noise_std=noise)
            _records, p_star = run_synthetic(ControllerConfig(), env, seed, rounds=100)
            stars.append(p_star)
        means.append(sum(stars) / len(stars))
    spread = max(means) - min(means)
    assert spread <= 0.05
    shown = ", ".join(f"{v:.4f}" for v in means)
    print(
        f"criterion 11 PASS - mean p* across m in (4, 8, 16, 32): {shown}; "
        f"spread {spread:.4f} <= 0.05"
    )


def test_criterion_12_reruns_byte_identical_and_containers_round_trip(tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(_SMALL_INI)
    out = tmp_path / "out"
    phases = ("train-adapters", "controller", "finalize", "grid")
    for command in phases:
        assert cli.main([command, "--config", str(ini), "--out", str(out)]) == 0
    snapshot = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    # rerun every phase; seeds come from the recorded manifests
    for command in phases:
        assert cli.main([command, "--config", str(ini), "--out", str(out), "--force"]) == 0
    for path, before in snapshot.items():
        assert path.read_bytes() == before, f"{path} changed on rerun"

    merged_path = out / "adapters" / "merged_init.ckpt"
    merged, header = load_merged(merged_path)
    again = tmp_path / "merged_again.ckpt"
    save_merged(again, merged, kind=header.kind, seed=header.seed,
                config_hash=header.config_hash)
    assert again.read_bytes() == merged_path.read_bytes()

    source_path = out / "adapters" / "source.ckpt"
    adapters, ahdr = load_merged(source_path)
    again2 = tmp_path / "source_again.ckpt"
    save_adapters(again2, adapters, kind=ahdr.kind, seed=ahdr.seed,
                  config_hash=ahdr.config_hash)
    assert again2.read_bytes() == source_path.read_bytes()
    print(
        f"criterion 12 PASS - {len(snapshot)} artifact files byte-identical "
        f"across phase reruns; both container kinds round-trip bit-exact"
    )
