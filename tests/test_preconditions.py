"""Each precondition that several entry points check is raised by one
function, so every site that checks it gives the same text; the CLI's sites
exit 2 before they claim a directory. One test per rule runs every site.

Counts that must be positive integers go through
`errors.require_positive_int`, so a bool or a float is refused, not read as
1 or sliced with.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from policyprune import training
from policyprune.adapters import MergedAdapterSet
from policyprune.baselines import GridSpec, _pool_map, ablate, compare_efficiency
from policyprune.configio import RunConfig, load_run_config
from policyprune.controller import ControllerConfig
from policyprune.errors import DimensionError, UsageError
from policyprune.masking import estimate_scale, sorted_threshold
from policyprune.optim import init_optimizer
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
    final_phase,
    final_prune_finetune,
    init_adapter_factors,
    microdev_slice,
    sparsity_policy_learning,
)
from test_baselines import LORA4, SMALL
from test_cli import SMALL_INI, run_cli, vouch_p_star


def _raised(call, *args, **kwargs) -> str:
    with pytest.raises(UsageError) as info:
        call(*args, **kwargs)
    return str(info.value)


def _cli_error(capsys, tmp_path, ini_text, *args) -> str:
    """The CLI's error text for `args` under `ini_text`; it exits 2 and
    claims no phase directory."""
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    out = tmp_path / "out"
    before = sorted(p.name for p in out.iterdir()) if out.exists() else []
    capsys.readouterr()
    assert run_cli(args[0], "--config", str(ini), "--out", str(out), *args[1:]) == 2
    assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == before
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


def _merge(seed=3, cfg=SMALL, lora=LORA4):
    data = gen_toy_data(cfg, seed)
    return data, init_adapter_factors(data.backbone, lora, np.random.default_rng(seed))


def test_r1_the_ablation_pool_text_is_the_same_from_the_cli_and_the_library(
        capsys, tmp_path):
    text = ("ablate sweeps micro-dev sizes up to 32, but [task] microdev_n = 16 "
            "generates a smaller pool")
    assert _raised(ablate, replace(SMALL, microdev_n=16), LORA4, TrainConfig(epochs=1),
                   ControllerConfig(microdev_n=8), seeds=(1,), workers=1) == text
    ini = SMALL_INI.replace("microdev_n = 32\n", "microdev_n = 16\n")
    assert _cli_error(capsys, tmp_path, ini, "ablate") == text


@pytest.mark.parametrize("p_star", [0.95, 0.05, math.nan], ids=["above", "below", "nan"])
def test_r2_the_p_star_range_text_is_the_same_from_the_cli_and_the_library(
        capsys, tmp_path, p_star):
    """Only the source of p_star differs: the flag, the file of a controller
    phase or a library argument."""
    text = "p_star {} ({}) outside [controller] p_min … p_max = [0.1, 0.8]"
    ctrl, train_cfg = ControllerConfig(microdev_n=8), TrainConfig(epochs=1)
    data, merged = _merge()
    assert _raised(final_phase, data, merged, p_star, ctrl, train_cfg, 3) == text.format(
        p_star, "argument")
    assert _raised(
        final_prune_finetune, data.backbone, merged, p_star, data.target_train, data.dev,
        estimate_scale(data.microdev.x), train_cfg, np.random.default_rng(0),
        p_min=0.1, p_max=0.8,
    ) == text.format(p_star, "argument")
    ini = tmp_path / "run.ini"
    ini.write_text(SMALL_INI)
    out = tmp_path / "out"
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    assert _cli_error(capsys, tmp_path, SMALL_INI, "finalize", "--p-star",
                      str(p_star)) == text.format(p_star, "flag")
    vouch_p_star(out, f'{{"p_star": {p_star}}}'.replace("nan", "NaN"))
    assert _cli_error(capsys, tmp_path, SMALL_INI, "finalize") == text.format(p_star, "file")


def test_r3_the_microdev_slice_text_is_the_same_from_the_config_and_the_slice():
    text = ("[controller] microdev_n = 33 exceeds the generated micro-dev pool "
            "([task] microdev_n = 32)")
    ctrl = ControllerConfig(microdev_n=33)
    assert _raised(RunConfig, controller=ctrl) == text
    assert _raised(microdev_slice, gen_toy_data(ToyTaskConfig(), 1), ctrl) == text


def test_r4_the_round_budget_text_is_the_same_from_the_config_and_phase_2():
    text = ("[controller] round_every = 289 exceeds the phase-2 step budget 288; "
            "no controller round would run")
    ctrl, train_cfg = ControllerConfig(round_every=289), TrainConfig(epochs=1)
    assert _raised(RunConfig, training=train_cfg, controller=ctrl) == text
    data, merged = _merge(cfg=ToyTaskConfig(), lora=LoraConfig())
    assert _raised(sparsity_policy_learning, data.backbone, merged, data.target_train,
                   data.microdev.head(16), ctrl, train_cfg, np.random.default_rng(1),
                   np.random.default_rng(2)) == text


def test_r4_phase_2_refuses_its_round_budget_before_any_optimizer_step(monkeypatch):
    """Phase 2 never stops early, so the budget is known before the first
    step; one round past it trains nothing, and one round at it trains the
    whole budget."""
    calls = []
    step = training.loss_and_gradients

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(training, "loss_and_gradients", counted)
    data, merged = _merge()
    budget = training.total_steps(TrainConfig(epochs=2), SMALL.target_train_n)

    def phase_2(round_every):
        return sparsity_policy_learning(
            data.backbone, merged, data.target_train, data.microdev.head(8),
            ControllerConfig(microdev_n=8, round_every=round_every), TrainConfig(epochs=2),
            np.random.default_rng(1), np.random.default_rng(2))

    with pytest.raises(UsageError, match=f"exceeds the phase-2 step budget {budget}"):
        phase_2(budget + 1)
    assert calls == []
    assert len(phase_2(budget).records) == 1 and len(calls) == budget


def test_r5_the_ratio_range_text_is_the_same_at_every_site():
    """`sorted_threshold`, both probe paths of the live environment (which
    check the ratio in `_prunes_only_zeros`) and the grid."""
    text = "prune ratio must lie in [0, 1], got 1.5"
    assert _raised(sorted_threshold, np.arange(4.0), 1.5) == text
    data, merged = _merge()
    opt = init_optimizer(merged, 1e-3, 0.0)
    env = MaskedTrainingEnv(data.backbone, merged, data.microdev.head(8),
                            estimate_scale(data.microdev.x), opt)
    assert _raised(env.candidate_reward, 1.5) == text
    assert _raised(env.commit, 1.5) == text
    assert _raised(GridSpec, ratios=(0.1, 1.5)) == text


def test_r6_the_empty_seed_list_text_is_the_same_from_the_config_and_the_sweep(tmp_path):
    text = "seed list must not be empty"
    assert _raised(RunConfig, seeds=()) == text
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseeds =\n")
    assert _raised(load_run_config, ini, env={}) == text
    assert _raised(ablate, SMALL, LORA4, TrainConfig(epochs=1),
                   ControllerConfig(microdev_n=8), seeds=(), workers=1) == text


def test_r7_the_empty_adapter_set_text_is_the_same_from_the_forward_and_the_step():
    """The step checks it before the shape rule: a target of the wrong width
    still gets this text."""
    text = "adapter set has no sites"
    data = gen_toy_data(SMALL, 1)
    empty = MergedAdapterSet()
    assert _raised(model_forward, data.backbone, empty, data.dev.x) == text
    assert _raised(loss_and_gradients, data.backbone, empty, data.dev.x,
                   data.dev.y[:, :-1]) == text


def test_r8_the_shape_mismatch_text_is_the_same_from_the_loss_and_the_step():
    data, merged = _merge()
    x, y = data.dev.x, data.dev.y[:, :-1]
    text = f"prediction shape {data.dev.y.shape} != target shape {y.shape}"
    for call in (lambda: mse_loss(model_forward(data.backbone, merged, x), y),
                 lambda: loss_and_gradients(data.backbone, merged, x, y)):
        with pytest.raises(DimensionError) as info:
            call()
        assert str(info.value) == text


@pytest.mark.parametrize("name, call", [
    ("rank", lambda: LoraConfig(rank=True)),
    ("n", lambda: gen_toy_data(SMALL, 1).microdev.head(True)),
    ("n", lambda: gen_toy_data(SMALL, 1).microdev.head(2.5)),
    ("workers", lambda: _pool_map(abs, [-1, -2], True)),
    ("repeats", lambda: compare_efficiency(
        SMALL, LORA4, TrainConfig(epochs=1, early_stop_patience=None),
        ControllerConfig(microdev_n=8), 1, repeats=1.0)),
], ids=["adapter-rank-true", "head-true", "head-float", "pool-workers-true",
        "efficiency-repeats-float"])
def test_a_count_that_is_a_bool_or_a_float_is_refused(name, call):
    with pytest.raises(UsageError, match=f"^{name} must be a positive integer, got "):
        call()


def test_head_keeps_its_upper_bound():
    split = gen_toy_data(SMALL, 1).microdev
    assert split.head(split.n).n == split.n
    assert _raised(split.head, split.n + 1) == (
        f"requested {split.n + 1} examples from a split of {split.n}")
