"""Grid-search and no-prune baselines, runtime accounting, and ablation runners.

Everything here reuses the same three-phase machinery the policy pipeline
runs on, so comparisons differ only in how the prune ratio is selected:
the grid trains one full run per candidate ratio and picks the best dev
loss, while the policy pipeline spends one run learning the ratio and one
run finalizing it.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapters import FrozenBackbone, MergedAdapterSet
from .controller import ControllerConfig, ControllerRecord
from .errors import (
    NumericalError, TrainingDivergedError, UsageError, require_positive_int, require_real,
)
from .masking import ImportanceScale, require_ratio
from .toytask import DataSplit, ToyData, ToyTaskConfig, gen_toy_data, mse_loss, run_stream
from .training import (
    LoraConfig,
    TrainConfig,
    final_phase,
    final_prune_finetune,
    microdev_loss,
    pipeline_rngs,
    policy_phase,
    pool_map,
    run_scale,
    train_and_merge,
)

__all__ = [
    "GridSpec",
    "GridPoint",
    "GridOutcome",
    "RuntimeReport",
    "EfficiencyComparison",
    "NopruneBaselines",
    "RegularizerCell",
    "MicrodevCell",
    "REGULARIZER_SWEEP",
    "MICRODEV_SIZES",
    "grid_run_rng",
    "grid_search",
    "run_noprune_baselines",
    "compare_efficiency",
    "format_runtime_table",
    "require_seeds",
    "require_ablation_pool",
    "ablate",
    "rolling_pcurr",
    "write_grid_csv",
    "write_runtime_csv",
    "write_regularizer_csv",
    "write_microdev_csv",
    "write_rolling_csv",
]

# (anchoring weight, exploration offset) cells of the regularizer ablation.
REGULARIZER_SWEEP: tuple[tuple[float, float], ...] = (
    (0.05, 0.01),
    (0.05, 0.0),
    (0.05, 0.05),
    (0.01, 0.01),
    (0.0, 0.01),
    (0.0, 0.0),
)

MICRODEV_SIZES: tuple[int, ...] = (4, 8, 16, 32)


@dataclass(frozen=True)
class GridSpec:
    """The candidate prune ratios a grid search trains through."""

    ratios: tuple[float, ...] = (0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80)

    def __post_init__(self) -> None:
        if not self.ratios:
            raise UsageError("a grid needs at least one ratio")
        for r in self.ratios:
            require_real("ratio", r)
            require_ratio(r)
        if any(b <= a for a, b in zip(self.ratios, self.ratios[1:])):
            raise UsageError("grid ratios must be strictly increasing")


def grid_run_rng(seed: int, index: int) -> np.random.Generator:
    """The index-th grid cell's stream: child 10 + index of the run seed
    (see `toytask.run_stream`)."""
    return run_stream(seed, 10 + index)


@dataclass(frozen=True)
class GridPoint:
    p: float
    dev_loss: float | None
    test_loss: float | None
    steps: int
    failed: bool = False


@dataclass(frozen=True)
class GridOutcome:
    points: tuple[GridPoint, ...]
    best: GridPoint

    @property
    def total_steps(self) -> int:
        return sum(pt.steps for pt in self.points)


def _grid_cell(args: tuple) -> GridPoint:
    """One grid cell: prune at a fixed ratio, fine-tune, report the row."""
    backbone, merged_init, p, index, target_train, dev, scale, train_cfg, seed, test = args
    try:
        fin = final_prune_finetune(
            backbone, merged_init, p, target_train, dev, scale,
            train_cfg, grid_run_rng(seed, index), p_min=0.0, p_max=1.0, test=test,
        )
    except TrainingDivergedError:
        return GridPoint(p=p, dev_loss=None, test_loss=None, steps=0, failed=True)
    return GridPoint(
        p=p, dev_loss=fin.dev_loss, test_loss=fin.test_loss, steps=fin.steps_run
    )


def grid_search(
    backbone: FrozenBackbone,
    merged_init: MergedAdapterSet,
    target_train: DataSplit,
    dev: DataSplit,
    scale: ImportanceScale,
    train_cfg: TrainConfig,
    seed: int,
    grid: GridSpec,
    test: DataSplit,
    workers: int = 1,
) -> GridOutcome:
    """One full prune-then-train run per ratio; best = lowest dev loss.

    Every cell starts from the same merged initialization and training
    config; only the fixed prune ratio differs. A diverging cell is kept in
    the table as failed and excluded from the argmin. Ties go to the
    smaller ratio. `workers` > 1 spreads the independent cells over a
    process pool without changing any result. Each row reports the cell's
    loss on `test` as well.
    """
    cells = [
        (backbone, merged_init, p, i, target_train, dev, scale, train_cfg, seed, test)
        for i, p in enumerate(grid.ratios)
    ]
    points: list[GridPoint] = pool_map(_grid_cell, cells, workers)
    survivors = [pt for pt in points if not pt.failed]
    if not survivors:
        raise NumericalError("every grid cell diverged; no best ratio exists")
    best = min(survivors, key=lambda pt: pt.dev_loss)  # ascending order → ties to smaller p
    return GridOutcome(points=tuple(points), best=best)


@dataclass(frozen=True)
class NopruneBaselines:
    """Dev/test losses of the three reference points with no ratio search."""

    zero_adapter_dev: float
    zero_adapter_test: float
    target_only_dev: float
    target_only_test: float
    merged_noprune_dev: float
    merged_noprune_test: float


def _backbone_loss(backbone: FrozenBackbone, split: DataSplit) -> float:
    pred = sum(split.x @ backbone.site(sid).T for sid in backbone.site_ids())
    return mse_loss(pred, split.y)


def run_noprune_baselines(
    data: ToyData,
    merged_init: MergedAdapterSet,
    target_adapters: MergedAdapterSet,
    train_cfg: TrainConfig,
    seed: int,
) -> NopruneBaselines:
    """Reference points: frozen backbone, target-only adapter, unpruned merge.

    `merged_init` and `target_adapters` are the caller's phase 1 (see
    `train_and_merge`); neither is modified. The unpruned merge is the
    final-run phase at ratio 0, which prunes nothing, trained on the
    pipeline's own phase-3 stream.
    """
    backbone = data.backbone
    # ratio 0 keeps every coordinate, so the scale never decides anything
    fin = final_prune_finetune(
        backbone, merged_init, 0.0, data.target_train, data.dev, ImportanceScale(1.0),
        train_cfg, pipeline_rngs(seed)["phase3"], p_min=0.0, p_max=1.0, test=data.test,
    )
    return NopruneBaselines(
        zero_adapter_dev=_backbone_loss(backbone, data.dev),
        zero_adapter_test=_backbone_loss(backbone, data.test),
        target_only_dev=microdev_loss(backbone, target_adapters, data.dev),
        target_only_test=microdev_loss(backbone, target_adapters, data.test),
        merged_noprune_dev=fin.dev_loss,
        merged_noprune_test=fin.test_loss,
    )


@dataclass(frozen=True)
class RuntimeReport:
    """One side of the runtime comparison table."""

    method: str
    run_count: int
    total_steps: int
    seconds: float  # best of the timed passes
    speedup: float  # reference best / this method's best
    median_seconds: float
    spread_seconds: float  # slowest pass minus fastest


def _runtime_report(method: str, runs: int, steps: int, passes: list[float],
                    reference: float) -> RuntimeReport:
    best = min(passes)
    return RuntimeReport(method, runs, steps, best, reference / best,
                         statistics.median(passes), max(passes) - best)


@dataclass(frozen=True)
class EfficiencyComparison:
    grasp: RuntimeReport
    grid: RuntimeReport

    @property
    def step_speedup(self) -> float:
        return self.grid.total_steps / self.grasp.total_steps


def compare_efficiency(
    data: ToyData,
    merged_init: MergedAdapterSet,
    train_cfg: TrainConfig,
    controller_cfg: ControllerConfig,
    seed: int,
    grid: GridSpec,
    repeats: int,
) -> EfficiencyComparison:
    """Time the 2-run policy pipeline against the full grid on one host.

    Both arms start from the caller's data and phase-1 merge (see
    `train_and_merge`), which neither modifies, and run serialized in this
    process. The passes interleave (policy, grid, policy, grid, …), so a
    drift in host speed hits both arms alike. Each arm's wall clock is the
    best of its `repeats` passes (the standard way to time under scheduler
    noise), reported with the median and spread of the passes; the work is
    deterministic, so repeats change nothing but the clock. It is a
    fixed-budget measurement: every run of both arms spends its full step
    budget, whatever early stopping `train_cfg` sets.
    """
    require_positive_int("repeats", repeats)
    train_cfg = replace(train_cfg, early_stop_patience=None)
    scale = run_scale(data, controller_cfg)

    grasp_seconds, grid_seconds = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        policy = policy_phase(data, merged_init, controller_cfg, train_cfg, seed)
        final = final_phase(data, merged_init, policy.p_star, controller_cfg, train_cfg, seed)
        t1 = time.perf_counter()
        outcome = grid_search(
            data.backbone, merged_init, data.target_train, data.dev,
            scale, train_cfg, seed, grid=grid, test=data.test,
        )
        grasp_seconds.append(t1 - t0)
        grid_seconds.append(time.perf_counter() - t1)

    grasp_steps = policy.steps_run + final.steps_run
    t_grid = min(grid_seconds)
    return EfficiencyComparison(
        grasp=_runtime_report("policy", 2, grasp_steps, grasp_seconds, t_grid),
        grid=_runtime_report("grid", len(grid.ratios), outcome.total_steps, grid_seconds, t_grid),
    )


def format_runtime_table(comp: EfficiencyComparison) -> str:
    """Human-readable block for the runtime comparison."""
    lines = [
        f"{'method':<8} {'dataset':<16} {'runs':>4} {'steps':>8} {'runtime_s':>10} "
        f"{'median_s':>9} {'spread_s':>9} {'speedup':>8}",
    ]
    for rep in (comp.grid, comp.grasp):
        lines.append(
            f"{rep.method:<8} {'toy-regression':<16} {rep.run_count:>4} {rep.total_steps:>8} "
            f"{rep.seconds:>10.3f} {rep.median_seconds:>9.3f} {rep.spread_seconds:>9.3f} "
            f"{rep.speedup:>7.2f}×"
        )
    lines.append(
        f"optimizer-step speedup {comp.step_speedup:.1f}×; "
        f"wall-clock speedup {comp.grasp.speedup:.2f}× on this host"
    )
    lines.append("timed serialized on one host: yes")
    return "\n".join(lines)


@dataclass(frozen=True)
class RegularizerCell:
    beta: float
    tau: float
    p_star: float
    dev_loss: float


def _pipeline_cell(args: tuple) -> tuple[float, float]:
    """Phases 2 and 3 of one run from its seed's phase 1; returns (p_star,
    final dev loss)."""
    data, merged_init, train_cfg, controller_cfg, seed = args
    policy = policy_phase(data, merged_init, controller_cfg, train_cfg, seed)
    final = final_phase(data, merged_init, policy.p_star, controller_cfg, train_cfg, seed)
    return policy.p_star, final.dev_loss


def require_seeds(seeds: tuple[int, ...]) -> None:
    """Raise `UsageError` if the seed list is empty."""
    if not seeds:
        raise UsageError("seed list must not be empty")


def _sweep(
    task_cfg: ToyTaskConfig, lora_cfg: LoraConfig, train_cfg: TrainConfig,
    controller_cfgs: list[ControllerConfig], seeds: tuple[int, ...], workers: int,
) -> list[tuple[float, float]]:
    """One policy pipeline per (controller config, seed), on a pool of `workers`;
    per config, the mean selected ratio and mean final dev loss over the seeds.

    Phase 1 depends on no controller setting, so each seed's data and merge
    are built once and every config at that seed runs phases 2 and 3 from
    them, as `run_pipeline` would."""
    require_seeds(seeds)
    starts = {}
    for seed in seeds:
        data = gen_toy_data(task_cfg, seed)
        starts[seed] = data, train_and_merge(data, lora_cfg, train_cfg, seed)[2]
    cells = [(*starts[seed], train_cfg, cfg, seed) for cfg in controller_cfgs for seed in seeds]
    results = pool_map(_pipeline_cell, cells, workers)
    n = len(seeds)
    return [
        (float(np.mean([c[0] for c in chunk])), float(np.mean([c[1] for c in chunk])))
        for chunk in (results[j * n: (j + 1) * n] for j in range(len(controller_cfgs)))
    ]


@dataclass(frozen=True)
class MicrodevCell:
    m: int
    p_star: float
    dev_loss: float


def require_ablation_pool(task_cfg: ToyTaskConfig) -> None:
    """Raise `UsageError` unless the task's micro-dev pool holds every `MICRODEV_SIZES` size."""
    if (largest := max(MICRODEV_SIZES)) > task_cfg.microdev_n:
        raise UsageError(
            f"ablate sweeps micro-dev sizes up to {largest}, but [task] microdev_n "
            f"= {task_cfg.microdev_n} generates a smaller pool"
        )


def ablate(
    task_cfg: ToyTaskConfig,
    lora_cfg: LoraConfig,
    train_cfg: TrainConfig,
    controller_cfg: ControllerConfig,
    seeds: tuple[int, ...],
    workers: int,
) -> tuple[list[RegularizerCell], list[MicrodevCell]]:
    """Both ablations in one sweep: one policy pipeline per seed and per
    (anchoring, exploration) cell of `REGULARIZER_SWEEP` or micro-dev size m
    of `MICRODEV_SIZES`, so each seed trains phase 1 once for all of them.

    Every cell sees the same seed set; rows report the mean selected ratio
    and mean final dev loss over those seeds. All sizes share one generated
    pool per seed, head-sliced to m, so the 4-example slice is literally the
    first quarter of the 16-example one. `workers` > 1 spreads the
    independent (cell, seed) runs over a process pool.
    """
    require_ablation_pool(task_cfg)
    cfgs = [replace(controller_cfg, beta=beta, tau_ent=tau) for beta, tau in REGULARIZER_SWEEP]
    cfgs += [replace(controller_cfg, microdev_n=m) for m in MICRODEV_SIZES]
    means = _sweep(task_cfg, lora_cfg, train_cfg, cfgs, seeds, workers)
    n_reg = len(REGULARIZER_SWEEP)
    regularizers = [
        RegularizerCell(beta=beta, tau=tau, p_star=p_star, dev_loss=dev_loss)
        for (beta, tau), (p_star, dev_loss) in zip(REGULARIZER_SWEEP, means[:n_reg])
    ]
    microdev = [
        MicrodevCell(m=m, p_star=p_star, dev_loss=dev_loss)
        for m, (p_star, dev_loss) in zip(MICRODEV_SIZES, means[n_reg:])
    ]
    return regularizers, microdev


def rolling_pcurr(records: list[ControllerRecord]) -> list[tuple[int, float, float]]:
    """Mean and population std of the committed ratio over each round's
    trailing window of 10 rounds; the first nine rounds average all rounds so far.
    """
    if not records:
        raise UsageError("cannot summarize an empty controller log")
    ps = [r.p_curr_after for r in records]
    out = []
    for i, rec in enumerate(records):
        w = np.asarray(ps[max(0, i - 9): i + 1])
        out.append((rec.round, float(w.mean()), float(w.std())))
    return out


def _write_csv(path, header: list[str], rows) -> None:
    """One CSV table. The csv module writes floats by repr, so values read
    back bit for bit, and None as an empty cell."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_grid_csv(path, outcome: GridOutcome) -> None:
    rows = [(pt.p, pt.dev_loss, pt.test_loss, pt.steps) for pt in outcome.points]
    _write_csv(path, ["p", "dev_loss", "test_loss", "steps"], rows)


def write_runtime_csv(path, comp: EfficiencyComparison) -> None:
    reports = (comp.grid, comp.grasp)
    rows = [(r.method, "toy-regression", r.run_count, r.seconds, r.speedup) for r in reports]
    _write_csv(path, ["method", "dataset", "runs", "runtime", "speedup"], rows)


def write_regularizer_csv(path, rows: list[RegularizerCell]) -> None:
    _write_csv(path, ["beta", "tau", "p_star", "dev_loss"],
               [(r.beta, r.tau, r.p_star, r.dev_loss) for r in rows])


def write_microdev_csv(path, rows: list[MicrodevCell]) -> None:
    _write_csv(path, ["m", "p_star", "dev_loss"], [(r.m, r.p_star, r.dev_loss) for r in rows])


def write_rolling_csv(path, series: list[tuple[int, float, float]]) -> None:
    _write_csv(path, ["round", "mean", "std"], series)
