"""Gaussian sparsity policy: the online controller that learns the prune ratio.

A scalar Gaussian policy N(mu, sigma^2) proposes candidate prune ratios. Each
controller round evaluates the current committed model on a fixed micro-dev
slice (the baseline), probes C candidate ratios on temporary masked copies,
and updates (mu, sigma) with a score-function gradient over mean-centered
advantages. A candidate is committed only when its relative reward is
non-negative, and the committed ratio moves by at most delta_max per round.
The raw Gaussian draw z is used in the gradient terms; the clamped ratio p is
what gets masked and evaluated (clamping treated as truncation, gradients
passed through).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ProbePurityError, RewardError, StorageError, UsageError, require_positive_int, require_real,
)
from .serialize import canonical_json_line

SIGMA_FLOOR = 1e-3  # smallest sigma the policy keeps


def clamp(x: float, lo: float, hi: float) -> float:
    """min(max(x, lo), hi), with the same comparisons and no builtin calls."""
    x = lo if lo > x else x
    return hi if hi < x else x


@dataclass(frozen=True)
class ControllerConfig:
    p_min: float = 0.10
    p_max: float = 0.80
    p_init: float = 0.40
    round_every: int = 10        # K: optimizer steps between rounds
    candidates: int = 3          # C: probes per round
    microdev_n: int = 16         # m: micro-dev examples
    eta: float = 0.05            # controller learning rate
    beta: float = 0.05           # mean-anchoring weight
    tau_ent: float = 0.01        # constant exploration offset added to sigma
    delta_max: float = 0.10      # largest committed move per round

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations stay strings here
            check = require_positive_int if f.type == "int" else require_real
            check(f.name, getattr(self, f.name))
        if not (0.0 <= self.p_min < self.p_max <= 1.0):
            raise UsageError(
                f"need 0 <= p_min < p_max <= 1, got [{self.p_min}, {self.p_max}]"
            )
        if not (self.p_min <= self.p_init <= self.p_max):
            raise UsageError(
                f"p_init {self.p_init} outside [{self.p_min}, {self.p_max}]"
            )
        if not all(math.isfinite(v) for v in (self.delta_max, self.eta, self.beta, self.tau_ent)):
            raise UsageError("delta_max, eta, beta and tau_ent must be finite")
        if self.delta_max <= 0 or self.eta <= 0:
            raise UsageError("delta_max and eta must be positive")
        if self.beta < 0 or self.tau_ent < 0:
            raise UsageError("beta and tau_ent must be non-negative")
        if (sigma := (self.p_max - self.p_min) / 6.0) < SIGMA_FLOOR:
            raise UsageError(
                f"prune range too narrow: the initial sigma (p_max - p_min)/6 = "
                f"{sigma} is below the sigma floor {SIGMA_FLOOR}"
            )


@dataclass
class PolicyState:
    mu: float
    sigma: float
    p_curr: float


def init_policy(cfg: ControllerConfig) -> PolicyState:
    """mu starts at p_init; sigma spans the range at (p_max - p_min)/6."""
    return PolicyState(
        mu=cfg.p_init, sigma=(cfg.p_max - cfg.p_min) / 6.0, p_curr=cfg.p_init
    )


def sample_candidates(
    policy: PolicyState, cfg: ControllerConfig, rng: np.random.Generator
) -> tuple[list[float], list[float]]:
    """Draw C raw values z ~ N(mu, sigma^2): the zs and their clamped ps."""
    zs = rng.normal(loc=policy.mu, scale=policy.sigma, size=cfg.candidates).tolist()
    return zs, [clamp(z, cfg.p_min, cfg.p_max) for z in zs]


def reward_from_loss(loss: float) -> float:
    """Negative micro-dev loss. A NaN or infinite loss raises `RewardError`:
    it would poison the round (-inf minus -inf is a NaN relative reward), so
    a round fails on such a baseline and drops such a probe."""
    if not math.isfinite(loss):
        raise RewardError(f"micro-dev loss is not finite ({loss})")
    return -loss


def relative_reward(reward_candidate: float, reward_baseline: float) -> float:
    return reward_candidate - reward_baseline


def centered_advantages(rewards: list[float]) -> list[float]:
    mean = sum(rewards) / len(rewards)
    return [r - mean for r in rewards]


def score_gradients(
    zs: list[float], advantages: list[float], mu: float, sigma: float
) -> tuple[float, float]:
    """Monte-Carlo score-function estimators over draws z_i, advantages A_i.

    g_mu = (1/C) sum A_i (z_i - mu) / sigma^2
    g_sigma = (1/C) sum A_i ((z_i - mu)^2 - sigma^2) / sigma^3
    sigma must be at least `SIGMA_FLOOR`.
    """
    if sigma < SIGMA_FLOOR:
        raise UsageError(f"sigma {sigma} below floor {SIGMA_FLOOR}")
    var, cube = sigma**2, sigma**3
    g_mu = g_sigma = 0.0
    for z, a in zip(zs, advantages):
        g_mu += a * (z - mu) / var
        g_sigma += a * ((z - mu) ** 2 - var) / cube
    return g_mu / len(zs), g_sigma / len(zs)


def policy_update(
    policy: PolicyState, g_mu: float, g_sigma: float, cfg: ControllerConfig
) -> PolicyState:
    """Gradient step with mean anchoring toward p_curr and a sigma offset.

    mu    <- clamp(mu + eta*g_mu - eta*beta*(mu - p_curr), p_min, p_max)
    sigma <- max(SIGMA_FLOOR, sigma + eta*g_sigma + tau_ent)
    """
    mu = policy.mu + cfg.eta * g_mu - cfg.eta * cfg.beta * (policy.mu - policy.p_curr)
    mu = clamp(mu, cfg.p_min, cfg.p_max)
    sigma = max(SIGMA_FLOOR, policy.sigma + cfg.eta * g_sigma + cfg.tau_ent)
    return PolicyState(mu=mu, sigma=sigma, p_curr=policy.p_curr)


def commit_decision(
    ps: list[float], rels: list[float], p_curr: float, cfg: ControllerConfig
) -> tuple[bool, float]:
    """(committed, p_new) for ratios p_i with relative rewards R_i.

    The first best candidate wins only if its relative reward is >= 0; the
    move is clipped to delta_max and the result clamped back into the range.
    """
    if not rels:
        raise UsageError("commit decision needs at least one candidate")
    r_best = max(rels)
    if r_best < 0.0:
        return False, p_curr
    dp = clamp(ps[rels.index(r_best)] - p_curr, -cfg.delta_max, cfg.delta_max)
    return True, clamp(p_curr + dp, cfg.p_min, cfg.p_max)


@dataclass
class CandidateOutcome:
    z: float
    p: float
    reward: float | None      # absolute micro-dev reward of the probe
    relative: float | None    # reward minus the round baseline


@dataclass
class ControllerRecord:
    round: int
    step: int
    p_curr_before: float
    baseline_reward: float | None
    candidates: list[CandidateOutcome] = field(default_factory=list)
    committed: bool = False
    failed: bool = False
    p_curr_after: float = 0.0
    mu_after: float = 0.0
    sigma_after: float = 0.0

    def to_obj(self) -> dict:
        obj = self.__dict__.copy()
        obj["candidates"] = [c.__dict__.copy() for c in self.candidates]
        return obj

    @classmethod
    def from_obj(cls, obj: dict) -> ControllerRecord:
        rec = _from_fields(cls, obj)
        rec.candidates = [_from_fields(CandidateOutcome, c) for c in rec.candidates]
        return rec


def _from_fields(cls, obj: dict):
    """`cls` built from its fields' keys in `obj`: a missing key raises
    KeyError, an extra key is ignored."""
    return cls(**{f.name: obj[f.name] for f in fields(cls)})


def controller_round(
    policy: PolicyState,
    cfg: ControllerConfig,
    rng: np.random.Generator,
    env,
    round_index: int,
    step: int,
) -> tuple[PolicyState, ControllerRecord]:
    """Run one full round against an environment.

    The environment supplies the model side of the protocol:
      baseline_reward() -> float   reward of the committed masked model
      candidate_reward(p) -> float score p without touching the parameters
      commit(p_new)                put the mask at p_new in force: zero the
                                   pruned coordinates and their optimizer state
      checksum() -> bytes          the float64 parameter bytes for the purity
                                   audit: a value that compares equal iff the
                                   parameters are unchanged bit for bit

    One pass over the drawn candidates probes each clamped p, records its
    `CandidateOutcome` and collects the survivors' z, p and relative reward
    as flat lists; the advantages, score gradients, policy update and commit
    decision then run once over those lists.

    A baseline that is NaN or raises `RewardError` (as `reward_from_loss`
    does on a NaN or infinite loss) fails the round outright (no update, no
    commit). Such a candidate is dropped and the advantage mean renormalizes
    over survivors; if every candidate fails the round fails.
    """
    p_curr = policy.p_curr
    before = env.checksum()
    try:
        baseline = env.baseline_reward()
    except RewardError:
        baseline = float("nan")
    zs, ps = sample_candidates(policy, cfg, rng)
    outcomes, alive_z, alive_p, alive_rel = [], [], [], []
    if math.isnan(baseline):
        # still consume the candidate draws so the rng stream position is
        # independent of reward outcomes
        baseline, outcomes = None, [CandidateOutcome(z, p, None, None) for z, p in zip(zs, ps)]
    else:
        for z, p in zip(zs, ps):
            try:
                r = env.candidate_reward(p)
            except RewardError:
                r = float("nan")
            if math.isnan(r):
                outcomes.append(CandidateOutcome(z, p, None, None))
                continue
            rel = relative_reward(r, baseline)
            outcomes.append(CandidateOutcome(z, p, r, rel))
            alive_z.append(z)
            alive_p.append(p)
            alive_rel.append(rel)
    _audit_purity(env, before)
    if not alive_rel:
        return policy, ControllerRecord(round_index, step, p_curr, baseline, outcomes,
                                        False, True, p_curr, policy.mu, policy.sigma)

    g_mu, g_sigma = score_gradients(alive_z, centered_advantages(alive_rel),
                                    policy.mu, policy.sigma)
    new_policy = policy_update(policy, g_mu, g_sigma, cfg)
    committed, p_new = commit_decision(alive_p, alive_rel, p_curr, cfg)
    if committed:
        env.commit(p_new)
        new_policy.p_curr = p_new
    return new_policy, ControllerRecord(round_index, step, p_curr, baseline, outcomes,
                                        committed, False, new_policy.p_curr,
                                        new_policy.mu, new_policy.sigma)


def _audit_purity(env, before: bytes) -> None:
    after = env.checksum()
    if after != before:
        changed = np.frombuffer(before, np.uint64) != np.frombuffer(after, np.uint64)
        raise ProbePurityError(
            "probe left the trained parameters modified "
            f"({np.count_nonzero(changed)} coordinates differ)"
        )


def select_p_star(records: list[ControllerRecord]) -> float:
    """Ratio with the highest implied micro-dev reward across all rounds.

    Every round contributes (p_curr, baseline) plus (p_i, baseline + R_i)
    per surviving candidate. Ties prefer the earliest round, then smaller p;
    a NaN implied reward never wins over an earlier entry, as in a keyed `min`.
    """
    best = None  # (implied_reward, round, p) of the pick so far
    for rec in records:
        base = rec.baseline_reward
        if base is None:
            continue
        r, p = base, rec.p_curr_before
        for c in rec.candidates:
            if c.relative is not None:
                rc = base + c.relative
                if rc > r or (rc == r and c.p < p):
                    r, p = rc, c.p
        if best is None or r > best[0] or (r == best[0] and (rec.round, p) < best[1:]):
            best = (r, rec.round, p)
    if best is None:
        raise UsageError("no usable rounds to select a ratio from")
    return best[2]


def audit_records(records: list[ControllerRecord], cfg: ControllerConfig) -> list[str]:
    """Invariant violations across a round log; empty list means clean."""
    problems = []
    for rec in records:
        tag = f"round {rec.round}"
        for name in ("mu_after", "sigma_after"):
            value = getattr(rec, name)
            if value is None or not math.isfinite(value):  # a NaN is logged as null
                problems.append(f"{tag}: {name} is not finite ({value})")
        if rec.sigma_after is not None and rec.sigma_after < SIGMA_FLOOR - 1e-15:
            problems.append(f"{tag}: sigma {rec.sigma_after} below floor")
        if abs(rec.p_curr_after - rec.p_curr_before) > cfg.delta_max + 1e-12:
            problems.append(f"{tag}: committed move exceeds delta_max")
        if rec.baseline_reward is not None:
            rels = [c.relative for c in rec.candidates if c.relative is not None]
            for c in rec.candidates:
                if c.reward is not None and c.relative is not None:
                    if c.relative != c.reward - rec.baseline_reward:
                        problems.append(f"{tag}: relative reward inconsistent")
            if rec.committed:
                if not rels or max(rels) < 0.0:
                    problems.append(f"{tag}: commit without non-negative reward")
            if len(rels) >= 1:
                mean = sum(rels) / len(rels)
                if abs(sum(r - mean for r in rels)) > 1e-12:
                    problems.append(f"{tag}: advantages not centered")
        if rec.failed and rec.committed:
            problems.append(f"{tag}: failed round marked committed")
        if rec.failed and rec.p_curr_after != rec.p_curr_before:
            problems.append(f"{tag}: failed round moved p_curr")
    return problems


def append_round_log(path, record: ControllerRecord) -> None:
    """One open, write and close per record: the log is valid after every
    round. The line is `canonical_json_line(record.to_obj())`."""
    data = memoryview(canonical_json_line(record.to_obj()).encode())
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise StorageError(f"cannot append round log {path}: {exc}") from exc


def read_round_log(path) -> list[ControllerRecord]:
    records = []
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(ControllerRecord.from_obj(json.loads(line)))
    except OSError as exc:
        raise StorageError(f"cannot read round log {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise StorageError(f"malformed round log {path}: {exc}") from exc
    return records
