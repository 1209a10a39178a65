import hashlib
import json
import math
import os

import numpy as np
import pytest

from policyprune.controller import (
    SIGMA_FLOOR,
    CandidateOutcome,
    ControllerConfig,
    ControllerRecord,
    PolicyState,
    append_round_log,
    audit_records,
    centered_advantages,
    commit_decision,
    controller_round,
    init_policy,
    read_round_log,
    relative_reward,
    reward_from_loss,
    sample_candidates,
    score_gradients,
    select_p_star,
    policy_update,
)
from policyprune.errors import ProbePurityError, RewardError, StorageError, UsageError
from policyprune.serialize import canonical_json_line


class ScriptedEnv:
    """Reward landscape as a plain function of p; counts commits."""

    def __init__(self, baseline, reward_fn, fail_candidates=False,
                 fail_baseline=False, impure=False):
        self._baseline = baseline
        self._fn = reward_fn
        self._fail_candidates = fail_candidates
        self._fail_baseline = fail_baseline
        self._impure = impure
        self._probes = 0
        self.commits = []

    def baseline_reward(self):
        if self._fail_baseline:
            return float("nan")
        return self._baseline

    def candidate_reward(self, p):
        self._probes += 1
        if self._fail_candidates is True:
            return float("nan")
        if self._fail_candidates == "first" and self._probes == 1:
            raise RewardError("probe failed")
        return self._fn(p)

    def commit(self, p_new):
        self.commits.append(p_new)

    def checksum(self):
        return np.float64(self._probes if self._impure else 0).tobytes()


def test_init_policy_default_range():
    pol = init_policy(ControllerConfig())
    assert pol.mu == 0.40 and pol.p_curr == 0.40
    assert pol.sigma == pytest.approx(0.7 / 6, abs=1e-15)


def test_init_policy_unit_range():
    pol = init_policy(ControllerConfig(p_min=0.0, p_max=1.0, p_init=0.5))
    assert pol.sigma == pytest.approx(1 / 6, abs=1e-15)


def test_config_validation_rejects_bad_ranges():
    with pytest.raises(UsageError):
        ControllerConfig(p_min=0.5, p_max=0.5)
    with pytest.raises(UsageError):
        ControllerConfig(p_init=0.05)
    with pytest.raises(UsageError):
        ControllerConfig(candidates=0)
    with pytest.raises(UsageError):
        ControllerConfig(delta_max=0.0)
    with pytest.raises(UsageError):
        ControllerConfig(beta=-0.1)


def test_sample_candidates_clamps_and_keeps_raw_z():
    cfg = ControllerConfig()
    pol = PolicyState(mu=0.78, sigma=0.3, p_curr=0.4)
    rng = np.random.default_rng(0)
    zs, ps = sample_candidates(pol, cfg, rng)
    assert len(zs) == len(ps) == cfg.candidates
    assert all(cfg.p_min <= p <= cfg.p_max for p in ps)
    # with this wide sigma some draw must exceed the range, proving z is raw
    assert any(z != p for z, p in zip(zs, ps))


def test_sample_candidates_deterministic():
    cfg = ControllerConfig()
    pol = init_policy(cfg)
    a = sample_candidates(pol, cfg, np.random.default_rng(42))
    b = sample_candidates(pol, cfg, np.random.default_rng(42))
    assert a == b


def test_reward_from_loss():
    assert reward_from_loss(1.25) == -1.25
    assert reward_from_loss(0.0) == 0.0
    assert reward_from_loss(-0.3) == 0.3
    assert reward_from_loss(1e308) == -1e308
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(RewardError):
            reward_from_loss(bad)


def test_relative_reward():
    assert relative_reward(-1.2, -1.3) == pytest.approx(0.1)
    assert relative_reward(-0.5, -0.5) == 0.0
    assert relative_reward(-2.0, -1.0) == -1.0


def test_centered_advantages():
    assert centered_advantages([1.0, 2.0, 3.0]) == [-1.0, 0.0, 1.0]
    assert centered_advantages([0.7, 0.7, 0.7]) == pytest.approx([0.0] * 3, abs=1e-15)
    got = centered_advantages([0.1, -0.3])
    assert got == pytest.approx([0.2, -0.2])
    rng = np.random.default_rng(13)
    for _ in range(25):
        rewards = list(rng.normal(size=rng.integers(1, 9)))
        assert abs(sum(centered_advantages(rewards))) < 1e-12


def test_score_gradients_symmetric_pair():
    mu, sigma = 0.37, 0.1
    g_mu, g_sigma = score_gradients([mu + sigma, mu - sigma], [1.0, -1.0], mu, sigma)
    assert g_mu == pytest.approx(10.0, abs=1e-10)
    assert g_sigma == 0.0


def test_score_gradients_degenerate_cases():
    assert score_gradients([0.5, 0.3], [0.0, 0.0], 0.4, 0.1) == (0.0, 0.0)
    g_mu, _ = score_gradients([0.4], [5.0], 0.4, 0.1)
    assert g_mu == 0.0
    with pytest.raises(UsageError, match="below floor"):
        score_gradients([0.5], [1.0], 0.4, 1e-4)


def test_score_gradients_check_sigma_against_the_given_floor():
    zs, advantages = [0.5, 0.3], [1.0, -1.0]
    with pytest.raises(UsageError, match="below floor"):
        score_gradients(zs, advantages, 0.4, SIGMA_FLOOR / 10)
    g_mu, g_sigma = score_gradients(zs, advantages, 0.4, SIGMA_FLOOR)
    assert math.isfinite(g_mu) and math.isfinite(g_sigma)


def test_score_terms_match_log_density_derivatives():
    def logpdf(z, mu, sigma):
        return -0.5 * math.log(2 * math.pi * sigma**2) - (z - mu) ** 2 / (
            2 * sigma**2
        )

    h = 1e-6
    for z, mu, sigma in [(0.52, 0.4, 0.12), (0.31, 0.45, 0.08), (0.9, 0.4, 0.2)]:
        fd_mu = (logpdf(z, mu + h, sigma) - logpdf(z, mu - h, sigma)) / (2 * h)
        fd_sigma = (logpdf(z, mu, sigma + h) - logpdf(z, mu, sigma - h)) / (2 * h)
        assert (z - mu) / sigma**2 == pytest.approx(fd_mu, rel=1e-6)
        assert ((z - mu) ** 2 - sigma**2) / sigma**3 == pytest.approx(
            fd_sigma, rel=1e-6, abs=1e-6
        )


def test_policy_update_hand_values():
    cfg = ControllerConfig()
    pol = PolicyState(mu=0.5, sigma=0.05, p_curr=0.4)
    out = policy_update(pol, g_mu=0.0, g_sigma=0.0, cfg=cfg)
    assert out.mu == pytest.approx(0.49975, abs=1e-15)
    assert out.sigma == pytest.approx(0.06, abs=1e-15)


def test_policy_update_sigma_floor_single_expression():
    cfg = ControllerConfig(tau_ent=0.0004)
    pol = PolicyState(mu=0.4, sigma=0.0, p_curr=0.4)
    # sigma + eta*g_sigma + tau = 0.0004 -> floored at 1e-3
    out = policy_update(pol, g_mu=0.0, g_sigma=0.0, cfg=cfg)
    assert out.sigma == 1e-3


def test_rounds_still_run_once_sigma_reaches_the_floor():
    cfg = ControllerConfig(tau_ent=0.0)
    # sigma + eta*g_sigma = 0 -> floored
    policy = policy_update(PolicyState(mu=0.4, sigma=0.0, p_curr=0.4), 0.0, 0.0, cfg)
    assert policy.sigma == SIGMA_FLOOR
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0 - (p - 0.45) ** 2)
    rng = np.random.default_rng(0)
    records = []
    for k in range(3):
        policy, rec = controller_round(policy, cfg, rng, env, k, (k + 1) * 10)
        records.append(rec)
    assert not any(rec.failed for rec in records)
    assert all(rec.sigma_after >= SIGMA_FLOOR for rec in records)
    assert audit_records(records, cfg) == []


def test_policy_update_clamps_mu_to_range():
    cfg = ControllerConfig()
    pol = PolicyState(mu=0.78, sigma=0.1, p_curr=0.78)
    out = policy_update(pol, g_mu=10.0, g_sigma=0.0, cfg=cfg)
    assert out.mu == cfg.p_max


def test_commit_decision_cases():
    cfg = ControllerConfig()
    assert commit_decision([0.55], [0.02], 0.40, cfg) == (True, 0.50)
    assert commit_decision([0.35], [0.01], 0.40, cfg) == (True, 0.35)
    # a tie goes to the first candidate
    assert commit_decision([0.45, 0.35], [0.01, 0.01], 0.40, cfg) == (True, 0.45)
    assert commit_decision([0.3, 0.5], [-0.01, -0.01], 0.40, cfg) == (False, 0.40)
    cfg2 = ControllerConfig(p_min=0.10, p_max=0.80)
    assert commit_decision([0.02], [0.5], 0.15, cfg2) == (True, 0.10)
    with pytest.raises(UsageError):
        commit_decision([], [], 0.4, cfg)


def _run_round(env, seed=7, cfg=None, policy=None):
    cfg = cfg or ControllerConfig()
    policy = policy or init_policy(cfg)
    rng = np.random.default_rng(seed)
    return controller_round(policy, cfg, rng, env, round_index=0, step=10)


def test_round_records_relative_rewards_exactly():
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0 - (p - 0.5) ** 2)
    policy, rec = _run_round(env)
    assert rec.baseline_reward == -1.0
    for c in rec.candidates:
        assert c.relative == c.reward - rec.baseline_reward
    assert not rec.failed
    assert rec.mu_after == policy.mu and rec.sigma_after == policy.sigma


def test_round_commits_only_on_nonnegative_reward():
    # strictly worse everywhere: no candidate can be committed
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -2.0)
    policy, rec = _run_round(env)
    assert not rec.committed and env.commits == []
    assert rec.p_curr_after == rec.p_curr_before == policy.p_curr
    # flat landscape: best relative reward is 0, commit allowed
    env2 = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0)
    policy2, rec2 = _run_round(env2)
    assert rec2.committed and len(env2.commits) == 1
    assert abs(rec2.p_curr_after - rec2.p_curr_before) <= 0.10 + 1e-12


def test_round_with_nan_baseline_changes_nothing():
    cfg = ControllerConfig()
    start = init_policy(cfg)
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: 0.0, fail_baseline=True)
    policy, rec = _run_round(env, cfg=cfg, policy=start)
    assert rec.failed and not rec.committed
    assert rec.baseline_reward is None
    assert policy is start
    assert env.commits == []
    # candidate draws still logged so the rng stream is auditable
    assert len(rec.candidates) == cfg.candidates
    assert all(c.reward is None for c in rec.candidates)


def test_round_skips_failed_candidate_and_renormalizes():
    env = ScriptedEnv(
        baseline=-1.0, reward_fn=lambda p: -1.0 + 0.1 * p, fail_candidates="first"
    )
    policy, rec = _run_round(env)
    assert not rec.failed
    dead = [c for c in rec.candidates if c.reward is None]
    alive = [c for c in rec.candidates if c.reward is not None]
    assert len(dead) == 1 and len(alive) == 2
    rels = [c.relative for c in alive]
    assert abs(sum(r - sum(rels) / len(rels) for r in rels)) < 1e-12


def test_round_with_all_candidates_failed_is_failed():
    cfg = ControllerConfig()
    start = init_policy(cfg)
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: 0.0, fail_candidates=True)
    policy, rec = _run_round(env, cfg=cfg, policy=start)
    assert rec.failed and not rec.committed
    assert rec.baseline_reward == -1.0
    assert policy is start and env.commits == []


def test_round_detects_impure_probe():
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0, impure=True)
    with pytest.raises(ProbePurityError):
        _run_round(env)


def test_round_sequence_is_deterministic(tmp_path):
    def run(path):
        cfg = ControllerConfig()
        policy = init_policy(cfg)
        rng = np.random.default_rng(42)
        env = ScriptedEnv(baseline=-1.0,
                          reward_fn=lambda p: -1.0 - 0.2 * (p - 0.45) ** 2)
        records = []
        for k in range(12):
            policy, rec = controller_round(policy, cfg, rng, env, k, (k + 1) * 10)
            records.append(rec)
            append_round_log(path, rec)
        return records

    r1 = run(tmp_path / "a.jsonl")
    r2 = run(tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert audit_records(r1, ControllerConfig()) == []
    assert audit_records(r2, ControllerConfig()) == []


RAISE = object()  # a scripted reward that raises RewardError
NAN, INF = float("nan"), float("inf")


def _slope(p):
    return -1.0 + 0.1 * (p - 0.3)


# (baseline, one reward per probe) per round; a callable reward is a function of p
EDGE_SCRIPT = [
    (-1.0, [_slope] * 4),
    (-1.0, [-0.9, -0.9, -0.95, -0.9]),      # candidates tie on the best reward
    (-1.0, [NAN, _slope, _slope, _slope]),  # one NaN candidate
    (-1.0, [_slope, RAISE, _slope, _slope]),
    (-1.0, [NAN, RAISE, NAN, NAN]),         # every candidate fails
    (NAN, []),                              # NaN baseline
    (RAISE, []),
    (-0.5, [-0.7, -0.5, -0.6, -0.5]),       # best relative reward exactly 0.0
    (-0.5, [-0.6, -0.7, -0.55, -0.8]),      # best relative reward negative
    (-1.0, [_slope] * 4),
    (-1.0, [_slope] * 4),
    (-INF, [-INF, -1.0, -2.0, -1.0]),       # -inf minus -inf: relative NaN
]
# SHA-256 of the round log of EDGE_SCRIPT followed by select_p_star's float.hex()
EDGE_PIN = "25d4f0af02e5554bb20f575865e37b48f915cf458c88db12065ecf5e10051e22"


class QueueEnv:
    """Rewards read from a script, one round at a time; records commits."""

    def __init__(self, script):
        self._rounds = iter(script)
        self._probes = iter(())
        self.commits = []

    @staticmethod
    def _value(reward, p=None):
        if reward is RAISE:
            raise RewardError("scripted failure")
        return reward(p) if callable(reward) else reward

    def baseline_reward(self):
        baseline, probes = next(self._rounds)
        self._probes = iter(probes)
        return self._value(baseline)

    def candidate_reward(self, p):
        return self._value(next(self._probes), p)

    def commit(self, p_new):
        self.commits.append(p_new)

    def checksum(self):
        return b""


def test_round_edge_paths_match_their_pin(tmp_path):
    # The stock runs never reach most of these paths; the pin fixes every
    # logged byte and the pick.
    cfg = ControllerConfig(candidates=4)
    policy = PolicyState(mu=0.45, sigma=0.35, p_curr=0.45)
    rng, env, path = np.random.default_rng(11), QueueEnv(EDGE_SCRIPT), tmp_path / "r.jsonl"
    records = []
    for k in range(len(EDGE_SCRIPT)):
        policy, rec = controller_round(policy, cfg, rng, env, k, k + 1)
        records.append(rec)
        append_round_log(path, rec)
    p_star = select_p_star(records)

    ps = [c.p for rec in records for c in rec.candidates]
    assert cfg.p_min in ps and cfg.p_max in ps                       # clamps at both bounds
    assert [rec.failed for rec in records] == [False] * 4 + [True] * 3 + [False] * 5
    assert records[5].baseline_reward is None and records[6].baseline_reward is None
    assert records[7].committed and max(c.relative for c in records[7].candidates) == 0.0
    assert not records[8].committed and records[8].p_curr_after == records[8].p_curr_before
    assert math.isnan(records[11].candidates[0].relative)
    assert len(env.commits) == sum(rec.committed for rec in records)
    digest = hashlib.sha256(path.read_bytes() + p_star.hex().encode()).hexdigest()
    assert digest == EDGE_PIN


class LossEnv:
    """Micro-dev losses read from a script, one round at a time, and scored
    through `reward_from_loss` as the live env scores them."""

    def __init__(self, script):
        self._queue = QueueEnv(script)
        self.commits = self._queue.commits

    def baseline_reward(self):
        return reward_from_loss(self._queue.baseline_reward())

    def candidate_reward(self, p):
        return reward_from_loss(self._queue.candidate_reward(p))

    def commit(self, p_new):
        self._queue.commit(p_new)

    def checksum(self):
        return b""


def test_non_finite_losses_fail_the_round_or_drop_the_probe(tmp_path):
    # An overflowed live loss once gave -inf - (-inf) = NaN relative rewards
    # that survived: mu went NaN, sigma fell to the floor, the round still
    # committed, and the next round drew NaN ratios.
    cfg = ControllerConfig(candidates=4)
    script = [
        (1.0, [0.9, 1.1, 0.95, 1.0]),
        (INF, [INF, 1.0, 2.0, 1.0]),        # infinite baseline: the round fails
        (1.0, [INF, 0.9, INF, 1.2]),        # infinite probes are dropped
        (1.0, [INF, INF, INF, INF]),        # every probe infinite: the round fails
        (1.0, [0.9, 1.1, 0.95, 1.0]),
    ]
    policy = PolicyState(mu=0.45, sigma=0.35, p_curr=0.45)
    rng, env, path = np.random.default_rng(11), LossEnv(script), tmp_path / "r.jsonl"
    records = []
    for k in range(len(script)):
        policy, rec = controller_round(policy, cfg, rng, env, k, k + 1)
        records.append(rec)
        append_round_log(path, rec)

    assert [rec.failed for rec in records] == [False, True, False, True, False]
    assert records[1].baseline_reward is None and not records[1].committed
    assert [c.reward for c in records[2].candidates] == [None, -0.9, None, -1.2]
    for rec in records:
        assert math.isfinite(rec.mu_after) and math.isfinite(rec.sigma_after)
        assert all(math.isfinite(c.z) and math.isfinite(c.p) for c in rec.candidates)
        assert all(math.isfinite(c.relative) for c in rec.candidates if c.relative is not None)
    assert len(env.commits) == sum(rec.committed for rec in records)
    assert audit_records(read_round_log(path), cfg) == []


def test_audit_flags_a_non_finite_policy_read_back_from_the_log(tmp_path):
    cfg = ControllerConfig()
    path = tmp_path / "r.jsonl"
    for k, (mu, sigma) in enumerate([(NAN, SIGMA_FLOOR), (0.4, INF), (-INF, 0.1)]):
        append_round_log(path, ControllerRecord(
            round=k, step=k + 1, p_curr_before=0.4, baseline_reward=-1.0,
            candidates=[CandidateOutcome(z=0.5, p=0.5, reward=-1.0, relative=0.0)],
            committed=True, p_curr_after=0.5, mu_after=mu, sigma_after=sigma,
        ))
    records = read_round_log(path)
    assert (records[0].mu_after, records[1].sigma_after, records[2].mu_after) == (None,) * 3
    problems = audit_records(records, cfg)
    assert problems == [
        "round 0: mu_after is not finite (None)",
        "round 1: sigma_after is not finite (None)",
        "round 2: mu_after is not finite (None)",
    ]
    # in memory, before the log turns them into null
    live = [ControllerRecord(0, 1, 0.4, -1.0, [], False, True, 0.4, NAN, INF)]
    assert audit_records(live, cfg) == [
        "round 0: mu_after is not finite (nan)",
        "round 0: sigma_after is not finite (inf)",
    ]


def test_select_p_star_single_round():
    rec = ControllerRecord(
        round=0, step=10, p_curr_before=0.4, baseline_reward=-1.0,
        candidates=[
            CandidateOutcome(z=0.5, p=0.5, reward=-0.8, relative=0.2),
            CandidateOutcome(z=0.7, p=0.7, reward=-1.1, relative=-0.1),
        ],
        committed=True, p_curr_after=0.5, mu_after=0.45, sigma_after=0.1,
    )
    assert select_p_star([rec]) == 0.5


def test_select_p_star_baseline_dominates_when_all_candidates_negative():
    recs = []
    for k, (pc, base) in enumerate([(0.40, -1.2), (0.45, -1.05), (0.50, -1.4)]):
        recs.append(
            ControllerRecord(
                round=k, step=(k + 1) * 10, p_curr_before=pc,
                baseline_reward=base,
                candidates=[CandidateOutcome(z=0.6, p=0.6, reward=base - 0.2,
                                             relative=-0.2)],
                committed=False, p_curr_after=pc, mu_after=0.4, sigma_after=0.1,
            )
        )
    assert select_p_star(recs) == 0.45


def test_select_p_star_tie_prefers_earliest_round_then_smaller_p():
    def rec(k, p_b, base, cand_p, rel):
        return ControllerRecord(
            round=k, step=(k + 1) * 10, p_curr_before=p_b, baseline_reward=base,
            candidates=[CandidateOutcome(z=cand_p, p=cand_p,
                                         reward=base + rel, relative=rel)],
            committed=False, p_curr_after=p_b, mu_after=0.4, sigma_after=0.1,
        )

    # equal implied reward -0.9 in rounds 0 and 1 -> round 0's p wins
    assert select_p_star([rec(0, 0.4, -1.0, 0.55, 0.1),
                          rec(1, 0.4, -1.0, 0.3, 0.1)]) == 0.55
    # equal implied reward within one round -> smaller p wins
    one = ControllerRecord(
        round=0, step=10, p_curr_before=0.4, baseline_reward=-1.0,
        candidates=[
            CandidateOutcome(z=0.6, p=0.6, reward=-0.9, relative=0.1),
            CandidateOutcome(z=0.2, p=0.2, reward=-0.9, relative=0.1),
        ],
        committed=False, p_curr_after=0.4, mu_after=0.4, sigma_after=0.1,
    )
    assert select_p_star([one]) == 0.2
    with pytest.raises(UsageError):
        select_p_star([])


def test_select_p_star_equals_the_sort_based_pick_on_tied_rewards():
    # Ratcheted logs look like this: most probes tie the baseline exactly,
    # the same baseline repeats across rounds, and ratios repeat.
    def sort_pick(records):
        entries = []
        for rec in records:
            if rec.baseline_reward is None:
                continue
            entries.append((rec.baseline_reward, rec.round, rec.p_curr_before))
            for c in rec.candidates:
                if c.relative is not None:
                    entries.append((rec.baseline_reward + c.relative, rec.round, c.p))
        entries.sort(key=lambda e: (-e[0], e[1], e[2]))
        return entries[0][2]

    rng = np.random.default_rng(5)
    for trial in range(50):
        records = []
        for k in range(int(rng.integers(1, 12))):
            base = None if rng.random() < 0.1 else float(rng.choice([-1.0, -0.5]))
            cands = []
            for _ in range(int(rng.integers(1, 5))):
                p = float(rng.choice([0.1, 0.3, 0.5]))
                rel = None if rng.random() < 0.1 else float(rng.choice([0.0, 0.0, -0.5, 0.5]))
                cands.append(CandidateOutcome(z=p, p=p, reward=None, relative=rel))
            records.append(ControllerRecord(
                round=k, step=k, p_curr_before=float(rng.choice([0.1, 0.5])),
                baseline_reward=base, candidates=cands, committed=False,
                p_curr_after=0.5, mu_after=0.4, sigma_after=0.1,
            ))
        if all(r.baseline_reward is None for r in records):
            continue
        assert select_p_star(records) == sort_pick(records), trial


def test_round_log_json_round_trip(tmp_path):
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0 - 0.1 * p)
    cfg = ControllerConfig()
    policy = init_policy(cfg)
    rng = np.random.default_rng(3)
    records = []
    for k in range(5):
        policy, rec = controller_round(policy, cfg, rng, env, k, (k + 1) * 10)
        records.append(rec)
    path = tmp_path / "rounds.jsonl"
    for rec in records:
        append_round_log(path, rec)
    back = read_round_log(path)
    assert [r.to_obj() for r in back] == [r.to_obj() for r in records]
    # the log is exactly the canonical lines, one per record
    assert path.read_bytes() == "".join(
        canonical_json_line(r.to_obj()) for r in records
    ).encode()
    # every line is standalone JSON with sorted keys
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        assert list(obj) == sorted(obj)
    # a record line with an extra key still loads; one missing a field does not
    obj = records[0].to_obj()
    extra = tmp_path / "extra.jsonl"
    extra.write_text(json.dumps({**obj, "note": "ignored"}) + "\n")
    assert [r.to_obj() for r in read_round_log(extra)] == [obj]
    del obj["mu_after"]
    short = tmp_path / "short.jsonl"
    short.write_text(json.dumps(obj) + "\n")
    with pytest.raises(StorageError, match="mu_after"):
        read_round_log(short)
    short.write_text("5\n")  # valid JSON, but not a record
    with pytest.raises(StorageError):
        read_round_log(short)


@pytest.mark.parametrize("tail", [b"\xff\n", b'{"note": "caf\xe9"}\n'], ids=["lone-byte", "latin-1"])
def test_a_round_log_line_that_is_not_utf8_is_a_storage_error(tmp_path, tail):
    path = tmp_path / "rounds.jsonl"
    path.write_bytes(canonical_json_line(_logged_records(1)[0].to_obj()).encode() + tail)
    with pytest.raises(StorageError, match="malformed round log"):
        read_round_log(path)


def _logged_records(n):
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0 - 0.1 * p)
    cfg = ControllerConfig()
    policy, rng, records = init_policy(cfg), np.random.default_rng(3), []
    for k in range(n):
        policy, rec = controller_round(policy, cfg, rng, env, k, (k + 1) * 10)
        records.append(rec)
    return records


def test_append_round_log_writes_each_canonical_line(tmp_path, monkeypatch):
    path = tmp_path / "rounds.jsonl"
    expected = b""
    for rec in _logged_records(3):
        append_round_log(path, rec)
        expected += canonical_json_line(rec.to_obj()).encode()
        assert path.read_bytes() == expected
    # a short write leaves the rest for the next call
    real_write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real_write(fd, bytes(data[:1]))

    rec = _logged_records(4)[3]
    line = canonical_json_line(rec.to_obj()).encode()
    with monkeypatch.context() as m:
        m.setattr(os, "write", one_byte)
        append_round_log(path, rec)
    assert len(calls) == len(line)
    assert path.read_bytes() == expected + line
    # created with the permissions a buffered append would give it
    with open(tmp_path / "reference", "ab"):
        pass
    assert path.stat().st_mode == (tmp_path / "reference").stat().st_mode


def _adversarial_records():
    """Records on the canonical encoder's edge cases: None rewards,
    non-finite floats, -0.0 beside 0.0, ints equal to floats, 5e-324 and
    1e+16, and a failed round with no candidates."""
    inf, nan = math.inf, math.nan
    yield ControllerRecord(round=0, step=1, p_curr_before=0.4, baseline_reward=None,
                           failed=True, p_curr_after=0.4, mu_after=0.4, sigma_after=0.1)
    yield ControllerRecord(
        round=1, step=2, p_curr_before=0.3, baseline_reward=-0.5,
        candidates=[CandidateOutcome(0.2, 0.2, None, None),
                    CandidateOutcome(nan, 0.1, -inf, -inf),
                    CandidateOutcome(inf, 0.8, -0.5, 0.0)],
        p_curr_after=0.3, mu_after=nan, sigma_after=inf,
    )
    # -0.0 and 0.0 compare (and hash) equal, as do 1 and 1.0, 0 and False
    yield ControllerRecord(
        round=0, step=1, p_curr_before=0.0, baseline_reward=-0.0,
        candidates=[CandidateOutcome(-0.0, 0.0, -0.0, 0.0),
                    CandidateOutcome(0.0, -0.0, 0.0, -0.0),
                    CandidateOutcome(1.0, 1.0, -0.0, 0.0)],
        committed=True, p_curr_after=-0.0, mu_after=1.0, sigma_after=0.0,
    )
    yield ControllerRecord(
        round=7, step=80, p_curr_before=5e-324, baseline_reward=-1e16,
        candidates=[CandidateOutcome(1e-5, 1e-5, -1e16, 0.0),
                    CandidateOutcome(1e16, 0.8, -1e-5, 1e16 - 1e-5),
                    CandidateOutcome(-5e-324, 0.1, 5e-324, 1e16 + 5e-324)],
        committed=True, p_curr_after=1e-5, mu_after=-5e-324, sigma_after=1e16,
    )
    # integer bounds leave p_curr, and every candidate clamped to p_min, an int
    cfg = ControllerConfig(p_init=0, p_min=0)
    env = ScriptedEnv(baseline=-1.0, reward_fn=lambda p: -1.0 - p)
    policy, rng = init_policy(cfg), np.random.default_rng(5)
    for k in range(3):
        policy, rec = controller_round(policy, cfg, rng, env, k, k + 1)
        yield rec


def test_append_round_log_matches_the_canonical_encoder_on_adversarial_records(tmp_path):
    records = list(_adversarial_records())
    assert type(records[-3].p_curr_before) is int
    assert any(type(c.p) is int for r in records[-3:] for c in r.candidates)
    path, expected = tmp_path / "rounds.jsonl", b""
    for rec in records:
        append_round_log(path, rec)
        expected += canonical_json_line(rec.to_obj()).encode()
        assert path.read_bytes() == expected
    assert b'"baseline_reward":-0.0,' in expected and b'"relative":0.0,' in expected
    assert b"null" in expected and b"5e-324" in expected and b"1e+16" in expected
    assert b'"candidates":[]' in expected


def test_append_round_log_raises_storage_error_on_an_unwritable_path(tmp_path):
    rec = _logged_records(1)[0]
    for path in (tmp_path, tmp_path / "missing" / "rounds.jsonl"):
        with pytest.raises(StorageError):
            append_round_log(path, rec)


def test_audit_flags_violations():
    cfg = ControllerConfig()
    bad = ControllerRecord(
        round=0, step=10, p_curr_before=0.40, baseline_reward=-1.0,
        candidates=[CandidateOutcome(z=0.6, p=0.6, reward=-1.5, relative=-0.5)],
        committed=True, p_curr_after=0.60, mu_after=0.5, sigma_after=1e-5,
    )
    problems = audit_records([bad], cfg)
    assert any("sigma" in p for p in problems)
    assert any("delta_max" in p for p in problems)
    assert any("non-negative" in p for p in problems)
