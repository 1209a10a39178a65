"""Config resolution: defaults, INI overlay, flag precedence, hashing."""

import dataclasses
from pathlib import Path

import pytest

from policyprune.baselines import GridSpec
from policyprune.configio import (
    DEFAULT_SEEDS,
    OUT_ENV_VAR,
    RunConfig,
    config_hash,
    load_run_config,
    render_ini,
)
from policyprune.controller import SIGMA_FLOOR, ControllerConfig
from policyprune.errors import UsageError
from policyprune.toytask import ToyTaskConfig
from policyprune.training import LoraConfig, TrainConfig


def test_stock_defaults():
    cfg = load_run_config(env={})
    assert cfg.task == ToyTaskConfig()
    assert cfg.lora == LoraConfig(rank=8, alpha=32.0)
    assert cfg.training == TrainConfig(
        learning_rate=1e-4, batch_size=1, epochs=10, weight_decay=0.01,
        early_stop_patience=3,
    )
    assert cfg.controller == ControllerConfig(
        p_min=0.10, p_max=0.80, p_init=0.40, round_every=10, candidates=3,
        microdev_n=16, eta=0.05, beta=0.05, tau_ent=0.01, delta_max=0.10,
    )
    assert cfg.grid == GridSpec()
    assert len(cfg.grid.ratios) == 8
    assert cfg.seeds == DEFAULT_SEEDS == (42, 1337, 9001)
    assert cfg.seed == 42
    assert cfg.out == "runs"


def test_file_overrides_defaults_and_flags_override_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[training]\nepochs = 4\nearly_stop_patience = none\n"
        "[controller]\np_init = 0.2\n"
        "[run]\nseeds = 5, 6\nout = filedir\n"
    )
    cfg = load_run_config(ini, env={})
    assert cfg.training.epochs == 4
    assert cfg.training.early_stop_patience is None
    assert cfg.training.batch_size == 1  # untouched keys keep defaults
    assert cfg.controller.p_init == 0.2
    assert cfg.seeds == (5, 6)
    assert cfg.out == "filedir"

    cfg = load_run_config(ini, seed=99, out="flagdir", env={})
    assert cfg.seeds == (99,)
    assert cfg.out == "flagdir"
    assert cfg.training.epochs == 4  # flags replace only what they name


def test_env_var_supplies_default_out_below_file_and_flags(tmp_path):
    env = {OUT_ENV_VAR: "envdir"}
    assert load_run_config(env=env).out == "envdir"
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nout = filedir\n")
    assert load_run_config(ini, env=env).out == "filedir"
    assert load_run_config(ini, out="flagdir", env=env).out == "flagdir"


def test_resolved_ini_round_trips(tmp_path):
    cfg = load_run_config(env={})
    path = tmp_path / "resolved.ini"
    path.write_text(render_ini(cfg))
    assert load_run_config(path, env={}) == cfg

    custom = dataclasses.replace(
        cfg,
        training=dataclasses.replace(cfg.training, learning_rate=3.7e-3,
                                     early_stop_patience=None),
        grid=GridSpec((0.125, 0.25)),
        seeds=(1, 2, 3),
    )
    path.write_text(render_ini(custom))
    assert load_run_config(path, env={}) == custom


def test_hash_covers_pipeline_sections_only():
    base = load_run_config(env={})
    h = config_hash(base)
    assert h == config_hash(dataclasses.replace(base, seeds=(1,), out="elsewhere"))
    for changed in (
        dataclasses.replace(base, task=dataclasses.replace(base.task, d_in=25)),
        dataclasses.replace(base, lora=dataclasses.replace(base.lora, rank=4)),
        dataclasses.replace(base, training=dataclasses.replace(base.training, epochs=9)),
        dataclasses.replace(
            base, controller=dataclasses.replace(base.controller, eta=0.06)
        ),
        dataclasses.replace(base, grid=GridSpec((0.1, 0.5))),
    ):
        assert config_hash(changed) != h
    # stable across processes: pinned prefix guards accidental format drift
    assert len(h) == 64 and h == config_hash(load_run_config(env={}))


def test_rejects_unknown_names_and_bad_values(tmp_path):
    cases = {
        "unknown_section.ini": "[warp]\nx = 1\n",
        "unknown_key.ini": "[training]\nlr = 3\n",
        "bad_value.ini": "[training]\nepochs = soon\n",
        "empty_seeds.ini": "[run]\nseeds = ,\n",
        "bad_grid.ini": "[grid]\nratios = 0.5, 0.2\n",
        # `none` is the one spelling of no patience
        "off_patience.ini": "[training]\nearly_stop_patience = off\n",
        "empty_patience.ini": "[training]\nearly_stop_patience =\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(UsageError):
            load_run_config(path, env={})
    # no section has a dropout, shuffle or sigma_floor key
    for text in ("[lora]\ndropout = 0.05\n", "[training]\nshuffle = true\n",
                 "[controller]\nsigma_floor = 1e-3\n"):
        path = tmp_path / "removed_key.ini"
        path.write_text(text)
        with pytest.raises(UsageError, match="unknown key"):
            load_run_config(path, env={})


def test_missing_config_file_is_a_usage_error(tmp_path):
    with pytest.raises(UsageError, match="not found"):
        load_run_config(tmp_path / "nope.ini", env={})


def test_values_must_live_under_a_section(tmp_path):
    path = tmp_path / "top_level.ini"
    path.write_text("epochs = 3\n[task]\nd_in = 8\n")
    with pytest.raises(UsageError):
        load_run_config(path, env={})


def test_validation_runs_on_the_resolved_config(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[controller]\np_init = 0.95\n")  # outside [p_min, p_max]
    with pytest.raises(UsageError):
        load_run_config(ini, env={})
    with pytest.raises(UsageError):
        load_run_config(seed=-3, env={})


def test_only_the_resolved_seeds_and_out_are_checked(tmp_path):
    # a value a flag overrides never reaches a config, so it cannot fail one
    assert load_run_config(out="x", env={OUT_ENV_VAR: ""}).out == "x"
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseeds = -1\n")
    assert load_run_config(ini, seed=5, env={}).seeds == (5,)
    with pytest.raises(UsageError, match="non-negative"):
        load_run_config(ini, env={})


@pytest.mark.parametrize("config, bad, message", [
    (ToyTaskConfig, {"dev_n": 0}, "dev_n must be a positive integer"),
    (LoraConfig, {"rank": 0}, "rank must be a positive integer"),
    (TrainConfig, {"epochs": 0}, "epochs must be a positive integer"),
    (ControllerConfig, {"p_init": 0.95}, "p_init 0.95 outside"),
    (GridSpec, {"ratios": ()}, "at least one ratio"),
    (RunConfig, {"seeds": ()}, "seed list must not be empty"),
    (RunConfig, {"out": ""}, "output directory must not be empty"),
    (RunConfig, {"controller": ControllerConfig(microdev_n=33)}, "exceeds the generated"),
    (RunConfig, {"seeds": (True,)}, "seeds must be non-negative integers, got True"),
])
def test_every_config_checks_itself_when_built_and_when_replaced(config, bad, message):
    with pytest.raises(UsageError, match=message):
        config(**bad)
    with pytest.raises(UsageError, match=message):
        dataclasses.replace(config(), **bad)


def test_a_controller_config_cannot_change_after_it_is_checked():
    cfg = ControllerConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.p_init = 0.95


@pytest.mark.parametrize("text, message", [
    ("[controller]\np_min = 0.40\np_max = 0.405\n",
     r"prune range too narrow: the initial sigma \(p_max - p_min\)/6 = "
     r"0.000833\d* is below the sigma floor 0.001"),
    ("[training]\nepochs = 1\n[controller]\nround_every = 289\n",
     "round_every = 289 exceeds the phase-2 step budget 288"),
    ("[controller]\nmicrodev_n = 33\n",
     r"microdev_n = 33 exceeds the generated micro-dev pool \(\[task\] microdev_n = 32\)"),
], ids=["sigma_floor", "round_every", "microdev_n"])
def test_a_controller_that_cannot_run_is_rejected_at_load(tmp_path, text, message):
    # each of these would otherwise fail only once phase 2 is under way
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(UsageError, match=message):
        load_run_config(ini, env={})


def test_controller_limits_at_their_bounds_load(tmp_path):
    ini = tmp_path / "edge.ini"
    ini.write_text("[training]\nepochs = 1\n[controller]\nround_every = 288\n"
                   "microdev_n = 32\np_min = 0.40\np_max = 0.406\n")
    cfg = load_run_config(ini, env={})
    assert (cfg.controller.round_every, cfg.controller.microdev_n) == (288, 32)
    # the narrowest range whose initial sigma still reaches the floor
    assert (cfg.controller.p_max - cfg.controller.p_min) / 6 >= SIGMA_FLOOR


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("section, key", [
    ("training", "learning_rate"),
    ("training", "weight_decay"),
    ("controller", "eta"),
    ("controller", "beta"),
    ("controller", "tau_ent"),
    ("controller", "delta_max"),
])
def test_non_finite_settings_are_usage_errors(tmp_path, section, key, value):
    # NaN fails every comparison and inf passes a sign check, so each key
    # needs its finiteness checked on its own
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(UsageError, match=key):
        load_run_config(ini, env={})


@pytest.mark.parametrize("config, key, value", [
    (ControllerConfig, "round_every", 2.5),
    (ControllerConfig, "candidates", 2.0),
    (ControllerConfig, "microdev_n", 16.0),
    (ControllerConfig, "round_every", True),
    (TrainConfig, "batch_size", True),
    (TrainConfig, "epochs", True),
    (TrainConfig, "early_stop_patience", 2.5),
    (TrainConfig, "early_stop_patience", True),
])
def test_integer_settings_reject_floats_and_bools(config, key, value):
    # a float count fails deep inside the run (a TypeError in rng.normal or
    # a slice) or silently misplaces rounds, and a bool passes as 1
    with pytest.raises(UsageError, match=f"{key} must be a positive integer"):
        config(**{key: value})
    config(**{key: 2})


@pytest.mark.parametrize("config, key, value", [
    (LoraConfig, "alpha", 2),
    (TrainConfig, "learning_rate", 1),
    (TrainConfig, "weight_decay", 0),
    (ControllerConfig, "p_max", 1),
    (ControllerConfig, "eta", 1),
    (ToyTaskConfig, "interference", 1),
    (ToyTaskConfig, "noise_std", 0),
])
def test_real_settings_reject_bools(config, key, value):
    # a bool passes every range check as 0 or 1, and `render_ini` would
    # write it as a word `load_run_config` refuses; ints are real numbers
    with pytest.raises(UsageError, match=f"{key} must be an int or a float, got True"):
        config(**{key: True})
    config(**{key: value})


def test_grid_ratios_reject_bools():
    with pytest.raises(UsageError, match="ratio must be an int or a float, got True"):
        GridSpec(ratios=(0.1, True))
    assert GridSpec(ratios=(0, 1)).ratios == (0, 1)


def test_readme_ini_block_is_the_stock_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    path = tmp_path / "readme.ini"
    path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert load_run_config(path, env={}) == load_run_config(env={})
