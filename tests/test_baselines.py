"""Grid search, no-prune baselines, runtime accounting, and ablation runners."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

import policyprune.baselines as baselines
from policyprune.adapters import merge_adapter_sets
from policyprune.baselines import (
    MICRODEV_SIZES,
    REGULARIZER_SWEEP,
    EfficiencyComparison,
    GridSpec,
    ablate,
    compare_efficiency,
    format_runtime_table,
    grid_run_rng,
    grid_search,
    rolling_pcurr,
    run_noprune_baselines,
    write_grid_csv,
    write_microdev_csv,
    write_regularizer_csv,
    write_rolling_csv,
    write_runtime_csv,
)
from policyprune.controller import ControllerConfig, ControllerRecord
from policyprune.errors import NumericalError, TrainingDivergedError, UsageError
from policyprune.masking import estimate_scale
from policyprune.optim import init_optimizer, optimizer_step_and_reset
from policyprune.toytask import ToyTaskConfig, gen_toy_data, loss_and_gradients, mse_loss
from policyprune.training import (
    LoraConfig,
    TrainConfig,
    final_prune_finetune,
    microdev_loss,
    pipeline_rngs,
    run_pipeline,
    run_scale,
    train_adapter,
    train_and_merge,
)

SMALL = ToyTaskConfig(
    d_in=8,
    d_out=6,
    teacher_rank=2,
    source_train_n=48,
    target_train_n=32,
    dev_n=16,
    microdev_n=32,
    test_n=16,
)
LORA4 = LoraConfig(rank=4)
CTRL8 = ControllerConfig(microdev_n=8)


def _trained_merge(data, train_cfg, seed):
    rngs = pipeline_rngs(seed)
    src = train_adapter(data.backbone, data.source_train, LORA4, train_cfg, rngs["source"])
    tgt = train_adapter(data.backbone, data.target_train, LORA4, train_cfg, rngs["target"])
    return merge_adapter_sets([src.adapters, tgt.adapters], data.backbone.site_ids())


def small_phase1(train_cfg, seed):
    """`SMALL`'s data at `seed` and its phase-1 merge, as a run hands them on."""
    data = gen_toy_data(SMALL, seed)
    return data, train_and_merge(data, LORA4, train_cfg, seed)[2]


def test_grid_spec_validation():
    assert len(GridSpec().ratios) == 8
    with pytest.raises(UsageError):
        GridSpec(ratios=())
    with pytest.raises(UsageError):
        GridSpec(ratios=(0.1, 1.2))
    with pytest.raises(UsageError):
        GridSpec(ratios=(0.3, 0.3))
    with pytest.raises(UsageError):
        GridSpec(ratios=(0.4, 0.2))


def test_default_grid_trains_exactly_eight_runs():
    data = gen_toy_data(SMALL, 5)
    cfg = TrainConfig(epochs=2)
    merged = _trained_merge(data, cfg, 5)
    scale = estimate_scale(data.microdev.x)
    out = grid_search(
        data.backbone, merged, data.target_train, data.dev, scale, cfg, 5,
        grid=GridSpec(), test=data.test,
    )
    assert len(out.points) == 8
    assert [pt.p for pt in out.points] == list(GridSpec().ratios)
    assert all(not pt.failed and pt.steps == 64 for pt in out.points)
    assert out.total_steps == 8 * 64
    assert out.best.dev_loss == min(pt.dev_loss for pt in out.points)


def test_single_ratio_grid_reduces_to_one_final_run():
    data = gen_toy_data(SMALL, 6)
    cfg = TrainConfig(epochs=2)
    merged = _trained_merge(data, cfg, 6)
    scale = estimate_scale(data.microdev.x)
    out = grid_search(
        data.backbone, merged, data.target_train, data.dev, scale, cfg, 6,
        grid=GridSpec(ratios=(0.30,)), test=data.test,
    )
    direct = final_prune_finetune(
        data.backbone, merged, 0.30, data.target_train, data.dev, scale,
        cfg, grid_run_rng(6, 0), p_min=0.10, p_max=0.80, test=data.test,
    )
    assert out.best.p == 0.30
    pt = out.points[0]
    assert pt.dev_loss == direct.dev_loss
    assert pt.test_loss == direct.test_loss
    assert pt.steps == direct.steps_run


def test_grid_prefers_lightest_pruning_when_all_pruning_harms():
    # On the stock task the retrained dev landscape rises with the ratio,
    # so the argmin must land on the smallest grid point.
    task = ToyTaskConfig()
    data = gen_toy_data(task, 1337)
    cfg = TrainConfig()
    merged = _trained_merge(data, cfg, 1337)
    scale = estimate_scale(data.microdev.x)
    out = grid_search(
        data.backbone, merged, data.target_train, data.dev, scale, cfg, 1337,
        grid=GridSpec(), test=data.test,
    )
    assert out.best.p == 0.10
    devs = [pt.dev_loss for pt in out.points]
    assert devs == sorted(devs)


def test_grid_ties_resolve_to_the_smaller_ratio(monkeypatch):
    class _Stub:
        def __init__(self, dev):
            self.dev_loss = dev
            self.test_loss = None
            self.steps_run = 10

    losses = {0.2: 0.5, 0.4: 0.3, 0.6: 0.3, 0.8: 0.9}
    monkeypatch.setattr(
        baselines,
        "final_prune_finetune",
        lambda backbone, merged, p, *a, **k: _Stub(losses[p]),
    )
    out = grid_search(
        None, None, None, None, None, TrainConfig(), 0,
        grid=GridSpec(ratios=(0.2, 0.4, 0.6, 0.8)), test=None,
    )
    assert out.best.p == 0.4  # 0.4 and 0.6 tie; the smaller ratio wins


def test_grid_excludes_diverged_cells_from_the_argmin(monkeypatch):
    class _Stub:
        def __init__(self, dev):
            self.dev_loss = dev
            self.test_loss = None
            self.steps_run = 10

    def fake_run(backbone, merged, p, *a, **k):
        if p == 0.2:
            raise TrainingDivergedError("boom")
        return _Stub({0.4: 0.7, 0.6: 0.2}[p])

    monkeypatch.setattr(baselines, "final_prune_finetune", fake_run)
    out = grid_search(
        None, None, None, None, None, TrainConfig(), 0,
        grid=GridSpec(ratios=(0.2, 0.4, 0.6)), test=None,
    )
    assert out.points[0].failed and out.points[0].dev_loss is None
    assert out.best.p == 0.6

    def always_diverges(*a, **k):
        raise TrainingDivergedError("boom")

    monkeypatch.setattr(baselines, "final_prune_finetune", always_diverges)
    with pytest.raises(NumericalError):
        grid_search(
            None, None, None, None, None, TrainConfig(), 0,
            grid=GridSpec(ratios=(0.2, 0.4)), test=None,
        )


def _reference_noprune_training(data, merged, cfg, rng):
    """An independent plain loop for the unpruned merge: the pipeline's
    batching and optimizer, with early stopping after `patience` epochs
    without a strict dev improvement."""
    opt = init_optimizer(merged, cfg.learning_rate, cfg.weight_decay)
    best = microdev_loss(data.backbone, merged, data.dev)
    bad = 0
    n, size = data.target_train.n, cfg.batch_size
    for _ in range(cfg.epochs):
        # index batches from the same one shuffle draw per epoch
        order = rng.permutation(n)
        for lo in range(0, n, size):
            idx = order[lo : lo + size]
            loss, grads = loss_and_gradients(
                data.backbone, merged, data.target_train.x[idx], data.target_train.y[idx]
            )
            assert np.isfinite(loss)
            optimizer_step_and_reset(merged, grads, opt)
        dev_now = microdev_loss(data.backbone, merged, data.dev)
        if cfg.early_stop_patience is not None:
            if dev_now < best:
                best, bad = dev_now, 0
            else:
                bad += 1
                if bad >= cfg.early_stop_patience:
                    break
    return merged


@pytest.mark.parametrize(
    "batch_size, patience, lr",
    [
        pytest.param(1, 3, 1e-4, id="b1-shuffled"),
        # 32 rows in batches of 7: the last batch is short
        pytest.param(7, 3, 1e-4, id="b7-short-last-batch"),
        # 32 rows in batches of 31: a one-row batch inside a run of wider
        # ones, whose product path BLAS may pick by row count
        pytest.param(31, 3, 1e-4, id="b31-one-row-last-batch"),
        # a large step overshoots the dev minimum: patience 1 stops at epoch 2
        pytest.param(1, 1, 3e-2, id="b1-shuffled-stops-early"),
    ],
)
def test_noprune_baselines_reference_points(batch_size, patience, lr):
    data = gen_toy_data(SMALL, 9)
    cfg = TrainConfig(epochs=3, batch_size=batch_size,
                      early_stop_patience=patience, learning_rate=lr)
    _source, target, merged_init = train_and_merge(data, LORA4, cfg, 9)
    before = merged_init.flat.copy()
    res = run_noprune_baselines(data, merged_init, target.adapters, cfg, 9)
    assert np.array_equal(merged_init.flat, before)  # the caller's merge is left alone
    # the zero-adapter row is exactly the frozen backbone's loss
    pred = sum(data.dev.x @ data.backbone.site(s).T for s in data.backbone.site_ids())
    assert res.zero_adapter_dev == mse_loss(pred, data.dev.y)
    # fitting an adapter to the target task helps over doing nothing
    assert res.target_only_dev < res.zero_adapter_dev
    # the unpruned merge equals an independent plain loop, bit for bit
    merged = _reference_noprune_training(
        data, _trained_merge(data, cfg, 9), cfg, pipeline_rngs(9)["phase3"]
    )
    assert res.merged_noprune_dev == microdev_loss(data.backbone, merged, data.dev)
    assert res.merged_noprune_test == microdev_loss(data.backbone, merged, data.test)


def test_efficiency_comparison_step_accounting_is_exact():
    cfg = TrainConfig(epochs=2, early_stop_patience=None)
    comp = compare_efficiency(*small_phase1(cfg, 3), cfg, CTRL8, 3, grid=GridSpec(), repeats=1)
    assert comp.step_speedup == 4.0  # 8 grid runs / 2 policy runs, exactly
    assert comp.grasp.run_count == 2
    assert comp.grid.run_count == 8
    assert comp.grid.total_steps == 8 * 64
    assert comp.grasp.total_steps == 2 * 64
    assert comp.grid.speedup == 1.0
    assert comp.grasp.speedup == comp.grid.seconds / comp.grasp.seconds
    for rep in (comp.grasp, comp.grid):  # one pass: its median, no spread
        assert (rep.median_seconds, rep.spread_seconds) == (rep.seconds, 0.0)

    table = format_runtime_table(comp)
    assert table.endswith("\ntimed serialized on one host: yes")
    assert "median_s" in table and "spread_s" in table
    assert "4.0×" in table
    assert "policy" in table and "grid" in table


def test_efficiency_comparison_reports_median_and_spread_per_arm(monkeypatch):
    # a scripted clock: passes of (policy, grid) seconds (3, 8), (1, 4), (2, 6)
    ticks = iter([0.0, 3.0, 11.0, 20.0, 21.0, 25.0, 30.0, 32.0, 38.0])
    monkeypatch.setattr(baselines, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    cfg = TrainConfig(epochs=1, early_stop_patience=None)
    comp = compare_efficiency(
        *small_phase1(cfg, 3), cfg, CTRL8, 3, grid=GridSpec(ratios=(0.2, 0.4)), repeats=3
    )
    got = [(r.seconds, r.median_seconds, r.spread_seconds, r.speedup)
           for r in (comp.grasp, comp.grid)]
    assert got == [(1.0, 2.0, 2.0, 4.0), (4.0, 6.0, 4.0, 1.0)]
    table = format_runtime_table(comp)
    assert "     1.000     2.000     2.000    4.00×" in table


def test_efficiency_comparison_with_half_grid_is_two_fold():
    cfg = TrainConfig(epochs=1, early_stop_patience=None)
    comp = compare_efficiency(
        *small_phase1(cfg, 3), cfg, CTRL8, 3,
        grid=GridSpec(ratios=(0.2, 0.4, 0.6, 0.8)), repeats=1,
    )
    assert comp.step_speedup == 2.0


def test_efficiency_comparison_guards():
    data, merged = small_phase1(TrainConfig(), 3)
    with pytest.raises(UsageError):
        compare_efficiency(data, merged, TrainConfig(), CTRL8, 3, grid=GridSpec(), repeats=0)


def test_efficiency_comparison_runs_every_run_at_full_budget():
    """Early stopping in the config moves no step count: both arms spend
    the same budget as with early stopping off."""
    stopping = TrainConfig(epochs=2, early_stop_patience=1, learning_rate=3e-2)
    data, merged = small_phase1(TrainConfig(epochs=2), 3)
    alone = grid_search(
        data.backbone, merged, data.target_train, data.dev, run_scale(data, CTRL8),
        stopping, 3, grid=GridSpec(), test=data.test,
    )
    assert alone.total_steps == 8 * 32  # outside the comparison every cell stops early
    comps = [
        compare_efficiency(data, merged, cfg, CTRL8, 3, grid=GridSpec(), repeats=1)
        for cfg in (stopping, TrainConfig(epochs=2, early_stop_patience=None, learning_rate=3e-2))
    ]
    assert [(c.grasp.total_steps, c.grid.total_steps) for c in comps] == [(2 * 64, 8 * 64)] * 2
    assert comps[0].step_speedup == 4.0


def test_efficiency_comparison_times_the_callers_merge(monkeypatch):
    """Both arms start from the caller's phase 1: the comparison generates no
    data and trains no adapter, and leaves the merge it was given alone."""
    cfg = TrainConfig(epochs=1, early_stop_patience=None)
    data, merged = small_phase1(cfg, 3)
    before = merged.checksum()

    def refuse(*args, **kwargs):
        raise AssertionError("compare_efficiency redid phase 1")

    monkeypatch.setattr(baselines, "gen_toy_data", refuse)
    monkeypatch.setattr(baselines, "train_and_merge", refuse)
    comp = compare_efficiency(data, merged, cfg, CTRL8, 3,
                              grid=GridSpec(ratios=(0.2, 0.4)), repeats=1)
    assert comp.step_speedup == 1.0
    assert merged.checksum() == before


@pytest.fixture(scope="module")
def ablation_rows():
    return ablate(SMALL, LORA4, TrainConfig(epochs=2), CTRL8, seeds=(11,), workers=1)


def test_regularizer_ablation_covers_the_six_cells(ablation_rows):
    rows, _micro = ablation_rows
    assert [(r.beta, r.tau) for r in rows] == list(REGULARIZER_SWEEP)
    assert all(0.10 <= r.p_star <= 0.80 for r in rows)
    assert all(np.isfinite(r.dev_loss) for r in rows)
    with pytest.raises(UsageError):
        ablate(SMALL, LORA4, TrainConfig(epochs=2), CTRL8, seeds=(), workers=1)


def test_microdev_ablation_nests_slices(ablation_rows):
    cfg = TrainConfig(epochs=2)
    _reg, rows = ablation_rows
    assert [r.m for r in rows] == list(MICRODEV_SIZES)
    # a row is exactly the pipeline run with that micro-dev size
    from dataclasses import replace

    direct = run_pipeline(
        SMALL, LORA4, cfg, replace(CTRL8, microdev_n=16), 11
    )
    m16 = next(r for r in rows if r.m == 16)
    assert m16.p_star == direct.p_star
    assert m16.dev_loss == direct.final.dev_loss
    # a pool below the largest size (32) is refused before any run
    with pytest.raises(UsageError, match="micro-dev sizes up to 32"):
        ablate(replace(SMALL, microdev_n=16), LORA4, cfg, CTRL8, seeds=(11,), workers=1)


def _records(ps):
    return [
        ControllerRecord(
            round=i, step=(i + 1) * 10, p_curr_before=p, baseline_reward=0.0,
            p_curr_after=p,
        )
        for i, p in enumerate(ps)
    ]


def test_rolling_pcurr_matches_a_hand_windowed_oracle():
    ps = [round(0.1 * k, 10) for k in range(1, 13)]  # 0.1 .. 1.2
    series = rolling_pcurr(_records(ps))
    assert series[0] == (0, 0.1, 0.0)
    rnd, mean, std = series[4]  # first five records
    assert rnd == 4
    assert mean == pytest.approx(0.3)
    assert std == pytest.approx(np.sqrt(0.02), abs=1e-12)
    rnd, mean, std = series[11]  # full trailing window of ten
    assert rnd == 11
    assert mean == pytest.approx(0.75)
    assert std == pytest.approx(0.2872281323269014, abs=1e-12)


def test_rolling_pcurr_degenerate_windows():
    flat = rolling_pcurr(_records([0.4] * 6))
    for _, mean, std in flat:
        assert mean == pytest.approx(0.4, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(UsageError):
        rolling_pcurr([])


def test_csv_writers_round_trip(tmp_path):
    data = gen_toy_data(SMALL, 5)
    cfg = TrainConfig(epochs=1)
    merged = _trained_merge(data, cfg, 5)
    scale = estimate_scale(data.microdev.x)
    out = grid_search(
        data.backbone, merged, data.target_train, data.dev, scale, cfg, 5,
        grid=GridSpec(ratios=(0.2, 0.6)), test=data.test,
    )
    p = tmp_path / "grid.csv"
    write_grid_csv(p, out)
    rows = list(csv.reader(p.open()))
    assert rows[0] == ["p", "dev_loss", "test_loss", "steps"]
    assert len(rows) == 3
    assert float(rows[1][1]) == out.points[0].dev_loss

    timing = TrainConfig(epochs=1, early_stop_patience=None)
    comp = compare_efficiency(*small_phase1(timing, 5), timing, CTRL8, 5,
                              grid=GridSpec(), repeats=1)
    q = tmp_path / "runtime.csv"
    write_runtime_csv(q, comp)
    rows = list(csv.reader(q.open()))
    assert rows[0] == ["method", "dataset", "runs", "runtime", "speedup"]
    assert [r[0] for r in rows[1:]] == ["grid", "policy"]
    assert int(rows[1][2]) == 8 and int(rows[2][2]) == 2

    reg_rows, mic_rows = ablate(SMALL, LORA4, cfg, CTRL8, seeds=(5,), workers=1)
    reg = tmp_path / "reg.csv"
    write_regularizer_csv(reg, reg_rows)
    rows = list(csv.reader(reg.open()))
    assert rows[0] == ["beta", "tau", "p_star", "dev_loss"]
    assert [(float(r[0]), float(r[1])) for r in rows[1:]] == list(REGULARIZER_SWEEP)

    mic = tmp_path / "mic.csv"
    write_microdev_csv(mic, mic_rows)
    rows = list(csv.reader(mic.open()))
    assert rows[0] == ["m", "p_star", "dev_loss"]
    assert [int(r[0]) for r in rows[1:]] == list(MICRODEV_SIZES)

    rol = tmp_path / "roll.csv"
    write_rolling_csv(rol, rolling_pcurr(_records([0.3, 0.5])))
    rows = list(csv.reader(rol.open()))
    assert rows[0] == ["round", "mean", "std"]
    assert float(rows[2][1]) == pytest.approx(0.4)


def test_worker_pool_grid_equals_the_serial_grid_bit_for_bit():
    # The pool pickles the merged set into each worker, which must rebuild
    # its factor views around the arena; any drift shows up in the rows.
    data = gen_toy_data(SMALL, 8)
    cfg = TrainConfig(epochs=2)
    merged = _trained_merge(data, cfg, 8)
    before = merged.checksum()
    scale = estimate_scale(data.microdev.x)
    args = (data.backbone, merged, data.target_train, data.dev, scale, cfg, 8)
    grid = GridSpec(ratios=(0.10, 0.40, 0.70))
    serial = grid_search(*args, grid=grid, test=data.test, workers=1)
    pooled = grid_search(*args, grid=grid, test=data.test, workers=2)
    assert pooled == serial
    assert merged.checksum() == before
