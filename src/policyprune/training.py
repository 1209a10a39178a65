"""Three-phase pipeline harness on the synthetic task.

Phase 1 trains one low-rank adapter set per task on the frozen backbone (the
two at once where two CPUs are usable) and merges them into stacked factors
(the pre-controller merged initialization).
Phase 2 continues target fine-tuning from that initialization with a
controller round interleaved every K optimizer steps, learning the global
prune ratio online. Phase 3 restarts from the same pre-controller merged
initialization, builds the mask once at the learned ratio, and fine-tunes
with the mask fixed, early-stopping on the dev split.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .adapters import FrozenBackbone, MergedAdapterSet, SiteFactors, merge_adapter_sets
from .controller import (
    ControllerConfig,
    ControllerRecord,
    controller_round,
    init_policy,
    reward_from_loss,
    select_p_star,
)
from .errors import TrainingDivergedError, UsageError, require_positive_int, require_real
from .masking import (  # noqa: F401 (prune_threshold: perfbench traces this binding)
    ImportanceScale,
    SparsityMask,
    build_mask,
    estimate_scale,
    importance_scores,
    keep_above,
    prune_threshold,
    require_ratio,
    sorted_threshold,
)
from .optim import OptimizerState, init_optimizer, install_mask, make_optimizer_step
from .optim import optimizer_step_and_reset  # noqa: F401 (perfbench traces this binding)
from .toytask import DataSplit, ToyData, ToyTaskConfig, gen_toy_data, run_stream
from .toytask import loss_and_gradients  # noqa: F401 (perfbench traces this binding)
from .toytask import make_loss_and_gradients, model_forward, mse_loss

__all__ = [
    "LoraConfig",
    "TrainConfig",
    "AdapterTrainResult",
    "MaskedTrainingEnv",
    "PolicyLearningResult",
    "FinalRunResult",
    "RunArtifacts",
    "steps_per_epoch",
    "total_steps",
    "init_adapter_factors",
    "train_adapter",
    "train_and_merge",
    "usable_cpus",
    "pool_map",
    "require_round_fits",
    "require_microdev_fits",
    "require_p_star_in_range",
    "microdev_slice",
    "microdev_loss",
    "sparsity_policy_learning",
    "final_prune_finetune",
    "pipeline_rngs",
    "run_scale",
    "policy_phase",
    "final_phase",
    "run_pipeline",
]


@dataclass(frozen=True)
class LoraConfig:
    """Adapter shape and scaling."""

    rank: int = 8
    alpha: float = 32.0

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def __post_init__(self) -> None:
        require_positive_int("rank", self.rank)
        require_real("alpha", self.alpha)
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise UsageError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class TrainConfig:
    """Shared optimizer-loop settings for all three phases.

    The step budget of a run is epochs * ceil(n_train / batch_size).
    `early_stop_patience` counts consecutive end-of-epoch dev evaluations
    without improvement before stopping (phase 3 only); None disables early
    stopping, which also keeps step counts exactly at the budget. The
    learning rate and weight decay feed the AdamW update (`optim`).
    """

    learning_rate: float = 1e-4
    batch_size: int = 1
    epochs: int = 10
    weight_decay: float = 0.01
    early_stop_patience: int | None = 3

    def __post_init__(self) -> None:
        require_real("learning_rate", self.learning_rate)
        require_real("weight_decay", self.weight_decay)
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise UsageError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        require_positive_int("batch_size", self.batch_size)
        require_positive_int("epochs", self.epochs)
        if self.early_stop_patience is not None:
            require_positive_int("early_stop_patience", self.early_stop_patience)


def steps_per_epoch(n: int, batch_size: int) -> int:
    return -(-n // batch_size)


def total_steps(cfg: TrainConfig, n: int) -> int:
    """The run's step budget: epochs * ceil(n / batch_size)."""
    return cfg.epochs * steps_per_epoch(n, cfg.batch_size)


def require_round_fits(round_every: int, budget: int) -> None:
    """Raise `UsageError` unless a round every `round_every` steps fits in `budget` steps."""
    if round_every > budget:
        raise UsageError(
            f"[controller] round_every = {round_every} exceeds the phase-2 step "
            f"budget {budget}; no controller round would run"
        )


def init_adapter_factors(
    backbone: FrozenBackbone, lora_cfg: LoraConfig, rng: np.random.Generator
) -> MergedAdapterSet:
    """Fresh single-adapter factors per site: the one form an adapter has,
    trained, merged and saved.

    A starts Gaussian, B starts zero, so the initial update is exactly zero.
    LoRA's alpha/rank scale is folded into A here, once, so the forward
    pass, the merge and the checkpoint all carry scale 1.
    """
    sites = []
    for sid in backbone.site_ids():
        d_out, d_in = backbone.site(sid).shape
        a = lora_cfg.scale * rng.normal(
            0.0, 1.0 / math.sqrt(d_in), size=(lora_cfg.rank, d_in)
        )
        b = np.zeros((d_out, lora_cfg.rank))
        sites.append(SiteFactors(sid, a, b))
    return MergedAdapterSet(sites)


@dataclass
class AdapterTrainResult:
    # a wrapper only because perfbench reads `train_adapter(...).adapters`
    adapters: MergedAdapterSet


def _train_loop(
    backbone: FrozenBackbone, merged: MergedAdapterSet, split: DataSplit,
    train_cfg: TrainConfig, rng: np.random.Generator, opt: OptimizerState,
    on_step=None, on_epoch=None,
) -> tuple[int, bool]:
    """The epoch/batch loop of every phase.

    Each step is one optimizer step under the mask installed in `opt` (none
    trains dense). `on_step(step)` runs after each step with the 1-based
    step count: phase 2's controller rounds, which may install a new mask.
    `on_epoch()` runs after each epoch and returns True to stop: phase 3's
    dev early stopping. Returns the number of steps run and whether
    `on_epoch` stopped the run.

    Both halves of the step are bound when the run starts: one
    `make_loss_and_gradients` closure per batch row count (the full batch
    and a short last one) writing one gradient set, and one
    `make_optimizer_step` closure, which reads the mask's coefficients at
    every call, so a mask `on_step` installs governs the next step.
    """
    step = 0
    grads = merged.empty_like()
    size, n = train_cfg.batch_size, split.n
    xs, ys = np.empty_like(split.x), np.empty_like(split.y)  # each epoch's shuffle
    by_rows = {}  # one loss-and-gradients closure per batch row count
    batches = []
    for lo in range(0, n, size):
        x, y = xs[lo : lo + size], ys[lo : lo + size]
        if x.shape not in by_rows:
            by_rows[x.shape] = make_loss_and_gradients(backbone, merged, grads, x.shape, y.shape)
        batches.append((x, y, by_rows[x.shape]))
    update = make_optimizer_step(merged, grads, opt)
    for _ in range(train_cfg.epochs):
        # one shuffle draw and one gather per epoch into the buffers the
        # batches view
        order = rng.permutation(n)
        np.take(split.x, order, 0, xs)
        np.take(split.y, order, 0, ys)
        for x, y, loss_and_grads in batches:
            loss = loss_and_grads(x, y)
            step += 1
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"training loss became non-finite ({loss}) at step {step}"
                )
            update()
            if on_step is not None:
                on_step(step)
        if on_epoch is not None and on_epoch():
            return step, True
    return step, False


def train_adapter(
    backbone: FrozenBackbone,
    split: DataSplit,
    lora_cfg: LoraConfig,
    train_cfg: TrainConfig,
    rng: np.random.Generator,
) -> AdapterTrainResult:
    """Phase 1: fit one adapter set to one task; the backbone stays frozen."""
    adapters = init_adapter_factors(backbone, lora_cfg, rng)
    opt = init_optimizer(adapters, train_cfg.learning_rate, train_cfg.weight_decay)
    _train_loop(backbone, adapters, split, train_cfg, rng, opt)
    return AdapterTrainResult(adapters=adapters)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, cells: list, workers: int) -> list:
    """Map `fn` over `cells` on a pool of min(`workers`, len(cells)) processes.

    Results come back in input order. Every cell carries or derives its own
    generator and copies its inputs, so the outputs are identical at any
    pool width; workers only return rows — the parent alone writes
    artifacts. A width of 1 maps in this process. Workers start by `fork`
    where the platform has it, and by the platform's default method
    elsewhere. A forked worker inherits the loaded modules: two start in
    about 0.02 s on a 2-CPU VM, where two spawned ones took 0.37 s, more
    than all of phase 1 (0.2 s). The executor forks every worker before it
    starts its own thread, and the package starts no other, so a worker
    forks from a threaded process only where the caller runs threads. An
    exception a cell raises is raised here, from the first failing cell in
    input order.

    The grid and the sweeps take their width from the caller; phase 1
    (`train_and_merge`) takes min(2, `usable_cpus()`) where `fork` exists
    and 1 where it does not.
    """
    require_positive_int("workers", workers)
    width = min(workers, len(cells))
    if width <= 1:
        return [fn(c) for c in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork") if hasattr(os, "fork") else None
    with ProcessPoolExecutor(max_workers=width, mp_context=ctx) as pool:
        return list(pool.map(fn, cells))


def _adapter_cell(args: tuple) -> AdapterTrainResult:
    """One phase-1 adapter, through this module's `train_adapter` binding."""
    return train_adapter(*args)


def train_and_merge(
    data: ToyData, lora_cfg: LoraConfig, train_cfg: TrainConfig, seed: int
) -> tuple[AdapterTrainResult, AdapterTrainResult, MergedAdapterSet]:
    """Phase 1: the source and target adapters and their merge (merged_init).

    The two adapters are independent, so on two usable CPUs they train at
    once, one worker process each; on one, or with no `fork`, they train
    here in turn. Each has its own stream, so the bytes are the same.
    """
    rngs = pipeline_rngs(seed)
    cells = [(data.backbone, split, lora_cfg, train_cfg, rngs[key])
             for key, split in (("source", data.source_train), ("target", data.target_train))]
    width = min(2, usable_cpus()) if hasattr(os, "fork") else 1
    source, target = pool_map(_adapter_cell, cells, width)
    merged = merge_adapter_sets([source.adapters, target.adapters], data.backbone.site_ids())
    return source, target, merged


def require_microdev_fits(m: int, pool: int) -> None:
    """Raise `UsageError` unless an m-example micro-dev slice fits a pool of `pool`."""
    if m > pool:
        raise UsageError(
            f"[controller] microdev_n = {m} exceeds the generated micro-dev pool "
            f"([task] microdev_n = {pool})"
        )


def microdev_slice(data: ToyData, controller_cfg: ControllerConfig) -> DataSplit:
    """The controller's micro-dev slice: the head of the generated pool."""
    require_microdev_fits(controller_cfg.microdev_n, data.microdev.n)
    return data.microdev.head(controller_cfg.microdev_n)


def microdev_loss(
    backbone: FrozenBackbone, merged: MergedAdapterSet, split: DataSplit
) -> float:
    """Mean loss over a fixed evaluation slice; pure, no gradients."""
    return mse_loss(model_forward(backbone, merged, split.x), split.y)


@dataclass
class MaskedTrainingEnv:
    """The live-model side of the controller protocol.

    Baseline probes read the committed masked parameters in place; candidate
    probes evaluate the masked factors in a scratch arena, so the trained
    parameters are untouched (the round audits this by comparing
    `checksum()`, the arena's bytes, bit for bit). A commit that changes
    keep bits installs its mask (`install_mask`): the arena and both moments
    are zeroed at every pruned coordinate, and the mask in force lives in
    `opt_state.mask`.

    A ratio's mask flows one way: `_thresholds(p)` gives each tensor's
    (k, tau), and one compare keeps the scores above them.
    Within a round the parameters are fixed, so the round scores them once
    and counts each tensor's zero scores. When those are exactly the zero
    weights (no nonzero |w|*s underflows to 0 or is NaN, checked once per
    round), a ratio p with p*d_t < zeros_t + 1, i.e. floor(p*d_t) <= zeros_t,
    in every tensor t prunes only zeros. Its thresholds are (0, -inf) where
    k = 0 and (k, 0.0) elsewhere, exactly what `sorted_threshold` returns,
    and a probe at it returns the round's one live reward (one forward per
    round): its trial arena is the live arena bit for bit. Any other ratio
    reads its thresholds off one sort of each tensor's scores, made at most
    once per round. Every path rejects a ratio outside [0, 1]. Probes
    multiply with `ndarray.dot` on the sets' cached transposed views, as
    the training step does: `np.dot`'s C routine without its
    `__array_function__` dispatcher, so `np.dot`'s bits (see `toytask`).

    Invariant: the arena is masked, with every zero +0.0. The caller
    installs the mask before construction (`_masked_start`) and each commit
    that changes bits installs its own; an install normalizes zeros, and a
    step leaves pruned coordinates at +0.0 and makes no kept weight -0.0.
    So the live pruned set lies inside the zero set, and a commit to a
    zero-only ratio selects the live bits when each tensor's live kept
    count is its nonzero count where floor(p*d_t) > 0 (equal counts make
    the sets equal) and d_t where it is 0. Such a commit installs nothing:
    an install would change no bit of the arena, the moments or the
    coefficients. Every other commit installs a mask built from a fresh
    `keep_above` array.
    """

    backbone: FrozenBackbone
    merged: MergedAdapterSet
    microdev: DataSplit
    scale: ImportanceScale
    opt_state: OptimizerState

    def __post_init__(self):
        # The backbone term of the micro-dev forward never changes (frozen
        # weights, fixed slice), so probes only recompute the adapter term.
        self._base = sum(
            self.microdev.x.dot(self.backbone.transposed[s.site_id])
            for s in self.merged.sites
        )
        self._trial = self.merged.empty_like()
        self._keep = np.empty_like(self.merged.flat)
        self._sizes = np.diff(self.merged.offsets).tolist()
        self._scores: np.ndarray | None = None
        self._sorted: list[np.ndarray] | None = None
        self._nonzero: list[int] = []
        self._caps: list[tuple[int, int]] = []
        self._live_loss: float | None = None
        self._live_reward: float | None = None

    def begin_round(self) -> None:
        """Drop the cached scores, live loss and live reward; call after any
        parameter change."""
        self._scores = self._live_loss = self._live_reward = None

    def _score(self) -> None:
        """Score the live parameters and count their nonzeros, once per
        round."""
        if self._scores is None:
            flat, offs = self.merged.flat, self.merged.offsets
            self._scores = importance_scores(flat, self.scale)
            self._sorted = None
            self._nonzero = np.add.reduceat(self._scores > 0.0, offs[:-1]).tolist()
            if sum(self._nonzero) == np.count_nonzero(flat):
                # scores <= 0 mark exactly the zero weights: cap_t = zeros_t + 1
                self._caps = [(d, d - n + 1) for d, n in zip(self._sizes, self._nonzero)]
            else:
                self._caps = [(d, 0) for d in self._sizes]  # p*d < 0 never holds

    def _prunes_only_zeros(self, p: float) -> bool:
        """Whether ratio p prunes only exact zeros: p*d_t < zeros_t + 1 (that
        is, floor(p*d_t) <= zeros_t) in every tensor t. Rejects p outside
        [0, 1], NaN included, whichever path the caller then takes."""
        require_ratio(p)
        self._score()
        for d, cap in self._caps:
            if p * d >= cap:  # p is not NaN here
                return False
        return True

    def _thresholds(self, p: float, zero_only: bool) -> list[tuple[int, float]]:
        """Per-tensor (k, tau) at ratio p, as `prune_threshold` gives them:
        off the zero counts when p prunes only zeros (`zero_only`, the
        answer of `_prunes_only_zeros(p)`), else off the round's one sort."""
        if zero_only:
            return [(k, 0.0) if (k := math.floor(p * d)) else (0, -math.inf)
                    for d in self._sizes]
        if self._sorted is None:
            offs = self.merged.offsets
            self._sorted = [np.sort(self._scores[lo:hi]) for lo, hi in zip(offs, offs[1:])]
        return [sorted_threshold(srt, p) for srt in self._sorted]

    def _probe_loss(self, params: MergedAdapterSet) -> float:
        x, pred = self.microdev.x, self._base
        for a_t, b_t in params.transposed:
            pred = pred + x.dot(a_t).dot(b_t)
        return mse_loss(pred, self.microdev.y)

    def _live(self) -> float:
        """The live reward, one forward per round; a non-finite live loss
        raises `RewardError` on every call."""
        if self._live_reward is None:
            if self._live_loss is None:
                self._live_loss = self._probe_loss(self.merged)
            self._live_reward = reward_from_loss(self._live_loss)
        return self._live_reward

    def baseline_reward(self) -> float:
        return self._live()

    def candidate_reward(self, p: float) -> float:
        if self._prunes_only_zeros(p):
            return self._live()
        keep = keep_above(self._scores, self.merged.offsets, self._thresholds(p, False),
                          out=self._keep)
        np.multiply(self.merged.flat, keep, self._trial.flat)
        return reward_from_loss(self._probe_loss(self._trial))

    def commit(self, p_new: float) -> None:
        zero_only = self._prunes_only_zeros(p_new)
        thresholds = self._thresholds(p_new, zero_only)
        if not zero_only or any(
            kept != (n if k else d) for kept, n, d, (k, _tau)
            in zip(self.opt_state.mask.kept, self._nonzero, self._sizes, thresholds)
        ):
            offs = self.merged.offsets
            install_mask(self.merged, self.opt_state,
                         SparsityMask(keep_above(self._scores, offs, thresholds), offs))
        self.begin_round()

    def checksum(self) -> bytes:
        """The arena's bytes: equal snapshots mean no parameter bit changed."""
        return self.merged.flat.tobytes()


@dataclass
class PolicyLearningResult:
    records: list[ControllerRecord]
    p_star: float
    steps_run: int

    @property
    def commits(self) -> int:
        return sum(rec.committed for rec in self.records)


def _masked_start(
    merged_init: MergedAdapterSet, p: float, scale: ImportanceScale, train_cfg: TrainConfig
) -> tuple[MergedAdapterSet, OptimizerState]:
    """Phases 2 and 3 start alike: a copy and a fresh optimizer with the
    mask at p installed."""
    merged = merged_init.copy()
    opt = init_optimizer(merged, train_cfg.learning_rate, train_cfg.weight_decay)
    install_mask(merged, opt, build_mask(merged, p, scale))
    return merged, opt


def sparsity_policy_learning(
    backbone: FrozenBackbone,
    merged_init: MergedAdapterSet,
    target_train: DataSplit,
    microdev: DataSplit,
    controller_cfg: ControllerConfig,
    train_cfg: TrainConfig,
    rng_train: np.random.Generator,
    rng_policy: np.random.Generator,
    on_round,
) -> PolicyLearningResult:
    """Phase 2: fine-tune under the committed mask, one controller round
    every `round_every` steps, and select p_star from the round log.

    `merged_init` is never modified; the phase trains a copy.
    `on_round`, unless None, is called with each record as soon as its round
    finishes — the hook that lets callers persist an append-only log that
    stays valid even when the run is cut short. The phase never stops
    early, so a round interval past its step budget fails before any step.
    """
    require_round_fits(controller_cfg.round_every, total_steps(train_cfg, target_train.n))
    scale = estimate_scale(microdev.x)
    merged, opt = _masked_start(merged_init, controller_cfg.p_init, scale, train_cfg)
    env = MaskedTrainingEnv(
        backbone=backbone,
        merged=merged,
        microdev=microdev,
        scale=scale,
        opt_state=opt,
    )
    policy = init_policy(controller_cfg)
    records: list[ControllerRecord] = []

    def round_hook(step: int) -> None:
        nonlocal policy
        if step % controller_cfg.round_every:
            return
        env.begin_round()
        policy, rec = controller_round(
            policy,
            controller_cfg,
            rng_policy,
            env,
            round_index=len(records),
            step=step,
        )
        records.append(rec)
        if on_round is not None:
            on_round(rec)

    steps, _ = _train_loop(
        backbone, merged, target_train, train_cfg, rng_train, opt,
        on_step=round_hook,
    )
    return PolicyLearningResult(
        records=records,
        p_star=select_p_star(records),
        steps_run=steps,
    )


def require_p_star_in_range(p_star: float, p_min: float, p_max: float, source: str) -> None:
    """Raise `UsageError` unless p_min <= p_star <= p_max (NaN fails); `source` says
    where p_star came from."""
    if not p_min <= p_star <= p_max:
        raise UsageError(
            f"p_star {p_star} ({source}) outside [controller] p_min … p_max "
            f"= [{p_min}, {p_max}]"
        )


@dataclass
class FinalRunResult:
    """Phase 3's pruned model, its mask and its step count, with its dev and
    test losses after the last epoch run."""

    merged: MergedAdapterSet
    mask: SparsityMask
    steps_run: int
    dev_loss: float
    test_loss: float
    stopped_early: bool


def final_prune_finetune(
    backbone: FrozenBackbone,
    merged_init: MergedAdapterSet,
    p_star: float,
    target_train: DataSplit,
    dev: DataSplit,
    scale: ImportanceScale,
    train_cfg: TrainConfig,
    rng: np.random.Generator,
    p_min: float,
    p_max: float,
    test: DataSplit,
) -> FinalRunResult:
    """Phase 3: restart from the pre-controller merge, mask once, train.

    The mask is built at p_star from the merged initialization and never
    rebuilt. Early stopping watches the dev split at each epoch end (the dev
    split must be disjoint from the controller's micro-dev slice; the data
    generator guarantees this). The trained model is then scored on `test`.
    """
    require_p_star_in_range(p_star, p_min, p_max, "argument")
    merged, opt = _masked_start(merged_init, p_star, scale, train_cfg)
    dev_history = [microdev_loss(backbone, merged, dev)]
    patience = train_cfg.early_stop_patience

    def early_stop_hook() -> bool:
        dev_history.append(microdev_loss(backbone, merged, dev))
        # stop after `patience` epochs past the first strict dev minimum
        best = min(range(len(dev_history)), key=dev_history.__getitem__)
        return patience is not None and len(dev_history) - 1 - best >= patience

    steps, stopped = _train_loop(
        backbone, merged, target_train, train_cfg, rng, opt,
        on_epoch=early_stop_hook,
    )
    return FinalRunResult(
        merged=merged,
        mask=opt.mask,
        steps_run=steps,
        dev_loss=dev_history[-1],
        test_loss=microdev_loss(backbone, merged, test),
        stopped_early=stopped,
    )


@dataclass
class RunArtifacts:
    """Everything one pipeline run produces, in memory."""

    data: ToyData
    target_adapters: MergedAdapterSet
    merged_init: MergedAdapterSet
    policy: PolicyLearningResult
    final: FinalRunResult

    @property
    def p_star(self) -> float:
        return self.policy.p_star


def pipeline_rngs(seed: int) -> dict[str, np.random.Generator]:
    """The training-side streams of one run: children 3-7 of the run seed
    (the table is at `toytask.run_stream`)."""
    keys = ("source", "target", "phase2_train", "policy", "phase3")
    return {key: run_stream(seed, i) for i, key in enumerate(keys, start=3)}


def run_scale(data: ToyData, controller_cfg: ControllerConfig) -> ImportanceScale:
    """The run's importance scale: `estimate_scale` of its micro-dev slice,
    the one both the controller's probes and every fixed-ratio mask use."""
    return estimate_scale(microdev_slice(data, controller_cfg).x)


def policy_phase(
    data: ToyData, merged_init: MergedAdapterSet, controller_cfg: ControllerConfig,
    train_cfg: TrainConfig, seed: int, on_round=None,
) -> PolicyLearningResult:
    """Phase 2 of the run at `seed`: learn p_star on the run's micro-dev
    slice, training on the `phase2_train` stream and sampling on `policy`."""
    rngs = pipeline_rngs(seed)
    return sparsity_policy_learning(
        data.backbone, merged_init, data.target_train, microdev_slice(data, controller_cfg),
        controller_cfg, train_cfg, rngs["phase2_train"], rngs["policy"], on_round=on_round,
    )


def final_phase(
    data: ToyData, merged_init: MergedAdapterSet, p_star: float,
    controller_cfg: ControllerConfig, train_cfg: TrainConfig, seed: int,
) -> FinalRunResult:
    """Phase 3 of the run at `seed`: prune at p_star (inside the controller's
    range) with the run's scale, fine-tune on the `phase3` stream, and
    report the test loss."""
    return final_prune_finetune(
        data.backbone, merged_init, p_star, data.target_train, data.dev,
        run_scale(data, controller_cfg), train_cfg, pipeline_rngs(seed)["phase3"],
        p_min=controller_cfg.p_min, p_max=controller_cfg.p_max, test=data.test,
    )


def run_pipeline(
    task_cfg: ToyTaskConfig,
    lora_cfg: LoraConfig,
    train_cfg: TrainConfig,
    controller_cfg: ControllerConfig,
    seed: int,
) -> RunArtifacts:
    """All three phases end to end as a pure function of configs and seed.

    The controller's `microdev_n` selects how much of the generated micro-dev
    pool the run actually uses (a head slice, so smaller sizes nest inside
    larger ones); both the probe rewards and the importance scale see only
    that slice.
    """
    data = gen_toy_data(task_cfg, seed)
    _source, target, merged_init = train_and_merge(data, lora_cfg, train_cfg, seed)
    policy = policy_phase(data, merged_init, controller_cfg, train_cfg, seed)
    final = final_phase(data, merged_init, policy.p_star, controller_cfg, train_cfg, seed)
    return RunArtifacts(
        data=data,
        target_adapters=target.adapters,
        merged_init=merged_init,
        policy=policy,
        final=final,
    )
