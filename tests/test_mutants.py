"""Mutants of the live pipeline: can the suite see a fault on the live side?

Each mutant is a `monkeypatch` of one live-side name on the small config the
CLI tests run, and each test asserts the behavioural check meant to flag it.
A mutant whose check does not exist yet is a strict xfail whose reason names
the ROADMAP item that adds the check; the marker goes in the change that
lands it. A pinned fingerprint or a line-by-line mechanics test does not
count as a check here: it fails on every change, bug or fix alike.

- m1: `MaskedTrainingEnv.commit` installs nothing.
- m2: `MaskedTrainingEnv.candidate_reward` returns the live reward.
- m3: phase 2 returns `p_min`.
- m4: phase 3 (`final_phase`) prunes at `p_min` whatever `p_star` says.
"""

import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from policyprune import baselines, cli, training
from policyprune.configio import load_run_config
from policyprune.controller import audit_records
from policyprune.toytask import gen_toy_data
from policyprune.training import MaskedTrainingEnv

from test_cli import SMALL_INI

SEED = 7


@functools.lru_cache(maxsize=1)
def _small():
    """The small config and its phase 1 at `SEED`: (config, data, merge)."""
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "small.ini"
        ini.write_text(SMALL_INI)
        cfg = load_run_config(ini, env={})
    data = gen_toy_data(cfg.task, SEED)
    merged_init = training.train_and_merge(data, cfg.lora, cfg.training, SEED)[2]
    return cfg, data, merged_init


def _policy_phase():
    cfg, data, merged_init = _small()
    return training.policy_phase(data, merged_init, cfg.controller, cfg.training, SEED)


def _prunes_at_least(p: float):
    """Phase 3 at `p` through the library's `final_phase`: whether each
    tensor prunes at least floor(p * d_t) entries."""
    cfg, data, merged_init = _small()
    mask = training.final_phase(data, merged_init, p, cfg.controller, cfg.training, SEED).mask
    sizes = np.diff(mask.offsets).tolist()
    return all(d - kept >= math.floor(p * d) for d, kept in zip(sizes, mask.kept))


def test_the_checks_pass_without_a_mutant():
    assert audit_records(_policy_phase().records, _small()[0].controller) == []
    assert _prunes_at_least(0.5)


@pytest.mark.xfail(strict=True, reason=(
    "no killer yet: ROADMAP item 1(a) adds the audit_records invariant that the "
    "live model's realized fraction matches the floor(p*d) counts of p_curr_after"
))
def test_m1_a_commit_that_installs_nothing_fails_the_audit(monkeypatch):
    monkeypatch.setattr(MaskedTrainingEnv, "commit", lambda self, p_new: None)
    policy = _policy_phase()
    assert policy.commits  # the mutant is live: commits happen and change nothing
    assert audit_records(policy.records, _small()[0].controller)


@pytest.mark.xfail(strict=True, reason=(
    "no killer yet: ROADMAP item 6 adds the controller's health line, which "
    "warns when more than half of the probes carry no signal"
))
def test_m2_probes_that_return_the_live_reward_draw_a_warning(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(MaskedTrainingEnv, "candidate_reward",
                        lambda self, p: self.baseline_reward())
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    out = tmp_path / "out"
    for command in ("train-adapters", "controller"):
        assert cli.main([command, "--config", str(ini), "--out", str(out)]) == 0
    assert "no signal" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason=(
    "no killer yet: ROADMAP item 2 adds the phase-2 regret test on its interior "
    "preset; on this config the 5-stream median test curve is lowest at 0.15 and "
    "p_min reads within 1% of it, so no regret check can see m3 here"
))
def test_m3_phase_2_returning_p_min_fails_the_regret_test(monkeypatch):
    cfg = _small()[0]
    monkeypatch.setattr(training, "select_p_star", lambda records: cfg.controller.p_min)
    assert _policy_phase().p_star == cfg.controller.p_min  # the mutant is live
    # the killer runs phase 2 on item 2's preset and bounds p_star's regret
    assert (Path(__file__).parents[1] / "configs" / "interior.ini").is_file()


def test_m4_a_final_run_that_prunes_at_p_min_prunes_too_little(monkeypatch):
    real = training.final_phase

    def at_p_min(data, merged_init, p_star, controller_cfg, train_cfg, seed):
        return real(data, merged_init, controller_cfg.p_min, controller_cfg, train_cfg, seed)

    # every binding of phase 3; grid cells call `final_prune_finetune` and stay as they are
    for module in (training, cli, baselines):
        monkeypatch.setattr(module, "final_phase", at_p_min)
    assert not _prunes_at_least(0.5)
