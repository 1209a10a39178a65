"""Synthetic regression task standing in for source/target fine-tuning corpora.

A frozen multi-site linear backbone defines the base model. Two teachers are
built on top of it: the source teacher adds a low-rank perturbation at every
site, and the target teacher adds a different low-rank perturbation whose
direction conflicts with the source one by a configurable amount. Training
data for both tasks is sampled from the corresponding teacher with Gaussian
observation noise, so a low-rank adapter of sufficient rank can realize
either task exactly.

The training step is bound once per batch shape: `make_loss_and_gradients`
checks the shapes, makes the buffers and returns a closure that the training
loop calls at every step, and `loss_and_gradients` is one call of a fresh
one. The closure multiplies with `ndarray.dot`, which calls `np.dot`'s C
routine without its `__array_function__` dispatcher; on these 2-D float64
operands that routine makes the same BLAS call as `@`, so the same bits,
with less dispatch than the `matmul` ufunc. Its transposed operands are the
views the backbone and the adapter set build once
(`FrozenBackbone.transposed`, `MergedAdapterSet.transposed`); it writes its
intermediates into buffers of its own, and sums the site outputs and forms
the residual and its gradient scale in place, in the same order.
`model_forward` stays on `@` as the plain reference the tests hold the step
to, bit for bit.

The step scans x and y for NaN/Inf only when the loss is not finite: any
such entry makes it so (inf * 0 is NaN), so it still raises `UsageError`
before a gradient is written, and rows that `DataSplit` already checked are
not scanned again at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .adapters import FrozenBackbone, MergedAdapterSet, matrix
from .errors import DimensionError, UsageError, require_positive_int, require_real

__all__ = [
    "ToyTaskConfig",
    "DataSplit",
    "ToyData",
    "site_names",
    "run_stream",
    "gen_toy_data",
    "teacher_forward",
    "model_forward",
    "mse_loss",
    "make_loss_and_gradients",
    "loss_and_gradients",
]

_BASE_SITE_NAMES = ("q_proj", "v_proj", "k_proj", "o_proj")


def site_names(n_sites: int) -> list[str]:
    """Stable site identifiers; the default two mirror Q/V injection."""
    names = list(_BASE_SITE_NAMES[:n_sites])
    names += [f"proj{i}" for i in range(len(names), n_sites)]
    return names


@dataclass(frozen=True)
class ToyTaskConfig:
    """Shapes, split sizes, and teacher geometry for one synthetic task pair.

    `interference` in [0, 1] rotates the target teacher's input directions
    against the source teacher's: 0 keeps them exactly orthogonal, 1 makes
    the target demand the opposite of what the source adapter learned.
    `teacher_rank` is the rank of each planted perturbation; adapters with
    rank >= teacher_rank can realize the task exactly.

    `target_strength` and `source_strength` scale the two perturbations'
    output energy. The defaults make the source perturbation carry twice
    the target's energy, mimicking a well-trained donor adapter merged
    onto a task with little data: the source block then dominates the
    magnitude order, marginal pruning eats into target-signal coordinates,
    and the controller has a real penalty to learn from when it probes
    higher ratios.

    `microdev_n` sizes the generated micro-dev pool, which is deliberately
    larger than the 16-example slice the controller consumes by default:
    runs head-slice the pool, so size sweeps nest inside one generation
    instead of regenerating data. The evaluation block draws dev first and
    the pool after it from one stream, which makes enlarging the pool a
    pure extension — every other split except test is unchanged.
    """

    d_in: int = 24
    d_out: int = 16
    n_sites: int = 2
    teacher_rank: int = 4
    target_strength: float = 0.5
    source_strength: float = 1.0
    source_train_n: int = 384
    target_train_n: int = 288
    dev_n: int = 64
    microdev_n: int = 32
    test_n: int = 128
    noise_std: float = 0.05
    interference: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):  # every int setting is a size or a count
            if f.type == "int":  # annotations stay strings here
                require_positive_int(f.name, getattr(self, f.name))
            else:
                require_real(f.name, getattr(self, f.name))
        if self.d_in < 2 * self.teacher_rank:
            raise UsageError(
                "d_in must be at least 2 * teacher_rank so orthogonal source "
                f"and target directions exist, got d_in={self.d_in}, "
                f"teacher_rank={self.teacher_rank}"
            )
        if not (0.0 <= self.interference <= 1.0):
            raise UsageError(f"interference must be in [0, 1], got {self.interference}")
        if not (self.noise_std >= 0.0 and math.isfinite(self.noise_std)):
            raise UsageError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        for name in ("target_strength", "source_strength"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise UsageError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class DataSplit:
    """A fixed batch of inputs and regression targets."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", matrix(self.x))
        object.__setattr__(self, "y", matrix(self.y))
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionError(
                f"split has {self.x.shape[0]} inputs but {self.y.shape[0]} targets"
            )
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def head(self, n: int) -> "DataSplit":
        """The first n examples (used for nested micro-dev slices)."""
        require_positive_int("n", n)
        if n > self.n:
            raise UsageError(f"requested {n} examples from a split of {self.n}")
        return DataSplit(self.x[:n], self.y[:n])


@dataclass(frozen=True)
class ToyData:
    """Everything one (cfg, seed) pair generates, regenerable bit-exactly."""

    backbone: FrozenBackbone
    source_train: DataSplit
    target_train: DataSplit
    dev: DataSplit
    microdev: DataSplit
    test: DataSplit


def _teacher_site(
    rng: np.random.Generator, cfg: ToyTaskConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One site's frozen weight plus its source and target perturbations."""
    w = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_in), size=(cfg.d_out, cfg.d_in))
    r = cfg.teacher_rank
    # Orthonormal input directions: the first r rows drive the source task,
    # the next r are reserved for the target rotation below.
    raw = rng.normal(size=(2 * r, cfg.d_in))
    q, _ = np.linalg.qr(raw.T)
    v = q.T
    v_src, v_orth = v[:r], v[r : 2 * r]
    i = cfg.interference
    denom = math.sqrt((1.0 - i) ** 2 + i**2)
    v_tgt = ((1.0 - i) * v_orth - i * v_src) / denom
    u = rng.normal(0.0, 1.0 / math.sqrt(r), size=(cfg.d_out, r))
    return (
        matrix(w),
        matrix(cfg.source_strength * (u @ v_src)),
        matrix(cfg.target_strength * (u @ v_tgt)),
    )


def teacher_forward(
    backbone: FrozenBackbone, deltas: dict[str, np.ndarray], x: np.ndarray
) -> np.ndarray:
    """Noise-free teacher outputs: sum over sites of x @ (W_s + D_s)^T."""
    out = None
    for sid in backbone.site_ids():
        y = x @ (backbone.site(sid) + deltas[sid]).T
        out = y if out is None else out + y
    return out


def _sample_split(
    rng: np.random.Generator,
    n: int,
    backbone: FrozenBackbone,
    deltas: dict[str, np.ndarray],
    noise_std: float,
) -> DataSplit:
    d_in = backbone.site(backbone.site_ids()[0]).shape[1]
    x = rng.normal(size=(n, d_in))
    y = teacher_forward(backbone, deltas, x)
    if noise_std > 0:
        y = y + noise_std * rng.normal(size=y.shape)
    return DataSplit(x, y)


# Every stochastic stage of a run draws from its own child stream of the
# run seed, `run_stream(seed, i)`, at a fixed index, so no stage's stream
# depends on another stage's outcome:
#   0-2     teacher construction, source sampling, target sampling (`gen_toy_data`)
#   3-7     `pipeline_rngs`: "source" and "target" (the phase-1 adapters),
#           "phase2_train", "policy" (controller sampling) and "phase3"
#   10 + i  grid cell i (`grid_run_rng`), clear of the run it shadows


def run_stream(seed: int, i: int) -> np.random.Generator:
    """Child stream i of the run seed: the i-th child of any spawn of
    `SeedSequence(seed)` into more than i children."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(i + 1)[i]))


def gen_toy_data(cfg: ToyTaskConfig, seed: int) -> ToyData:
    """Generate the task pair and all splits as a pure function of (cfg, seed).

    The teacher, the source splits and the target splits each draw from
    their own stream (children 0-2, see `run_stream`), so every split is
    reproducible bit-for-bit. The dev and micro-dev splits are sliced from
    one block of draws, which makes them disjoint by construction.
    """
    rng_teacher, rng_source, rng_target = (run_stream(seed, i) for i in range(3))

    names = site_names(cfg.n_sites)
    weights, d_src, d_tgt = [], {}, {}
    for sid in names:
        w, ds, dt = _teacher_site(rng_teacher, cfg)
        weights.append((sid, w))
        d_src[sid] = ds
        d_tgt[sid] = dt
    backbone = FrozenBackbone(sites=tuple(weights))

    source_train = _sample_split(
        rng_source, cfg.source_train_n, backbone, d_src, cfg.noise_std
    )
    target_train = _sample_split(
        rng_target, cfg.target_train_n, backbone, d_tgt, cfg.noise_std
    )
    evaluation = _sample_split(
        rng_target, cfg.dev_n + cfg.microdev_n, backbone, d_tgt, cfg.noise_std
    )
    dev = DataSplit(evaluation.x[: cfg.dev_n], evaluation.y[: cfg.dev_n])
    microdev = DataSplit(evaluation.x[cfg.dev_n :], evaluation.y[cfg.dev_n :])
    test = _sample_split(rng_target, cfg.test_n, backbone, d_tgt, cfg.noise_std)

    return ToyData(
        backbone=backbone,
        source_train=source_train,
        target_train=target_train,
        dev=dev,
        microdev=microdev,
        test=test,
    )


def model_forward(
    backbone: FrozenBackbone, merged: MergedAdapterSet, x: np.ndarray
) -> np.ndarray:
    """Student outputs: sum over sites of x @ W^T + (x @ a^T) @ b^T.

    Factor scalings are already folded into the stacked factors, so the
    low-rank product carries scale 1 here. Masks are applied by zeroing
    coordinates in the factors themselves, never inside the forward pass.
    """
    x = matrix(x)
    out = None
    for s in merged.sites:
        w = backbone.site(s.site_id)
        if x.shape[1] != w.shape[1]:
            raise DimensionError(
                f"input cols {x.shape[1]} do not match site d_in {w.shape[1]}"
            )
        y = x @ w.T + (x @ s.a.T) @ s.b.T
        out = y if out is None else out + y
    _require_sites(merged)
    return out


def _require_sites(merged: MergedAdapterSet) -> None:
    """Raise `UsageError` if the set has no sites."""
    if not merged.sites:
        raise UsageError("adapter set has no sites")


def mse_loss(pred: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error over all examples and output coordinates."""
    _require_loss_shapes(pred.shape, y.shape)
    diff = pred - y
    return float(np.add.reduce(diff * diff, axis=None)) / diff.size


def _require_loss_shapes(pred_shape: tuple, y_shape: tuple) -> None:
    """Raise unless predictions of `pred_shape` and targets of `y_shape`
    have one shape (`DimensionError`) with at least one entry (`UsageError`)."""
    if pred_shape != y_shape:
        raise DimensionError(f"prediction shape {pred_shape} != target shape {y_shape}")
    if not math.prod(pred_shape):
        raise UsageError(f"cannot take the loss of an empty batch (shape {pred_shape})")


def make_loss_and_gradients(
    backbone: FrozenBackbone,
    merged: MergedAdapterSet,
    grads: MergedAdapterSet,
    x_shape: tuple,
    y_shape: tuple,
):
    """The training step for an x of `x_shape` and a y of `y_shape`, bound
    once: a closure `step(x, y)` that returns the MSE loss and writes its
    exact analytic gradient into `grads`, a set laid out like `merged`.

    With E = pred - y and G = 2 E / (n * d_out):
      dL/db = G^T (x a^T)        dL/da = (G b)^T x

    Every check runs here, once: both shapes must be 2-D, fit the set and
    the backbone and match `grads`'s layout (`DimensionError`; an unknown
    site, a set with no sites or an empty batch is a `UsageError`). The
    closure takes C-contiguous float64 x and y of those shapes, reads the
    factors through `merged`'s views and overwrites its own buffers with
    `ndarray.dot` products at every call. Only a non-finite loss has x and
    y scanned for NaN/Inf (`matrix`, `UsageError`), before `grads` is
    written; from finite inputs, that loss is returned for the caller to
    judge.
    """
    if len(x_shape) != 2 or len(y_shape) != 2:
        raise DimensionError(
            f"expected 2-D x and y, got ndim={len(x_shape)} and ndim={len(y_shape)}"
        )
    if not merged.same_layout(grads):
        raise DimensionError("gradient layout does not match the adapter set")
    rows, d_in = x_shape
    d_out = merged.sites[0].b.shape[0] if merged.sites else None
    forward, backward = [], []
    for s, g, (a_t, b_t) in zip(merged.sites, grads.sites, merged.transposed):
        try:
            w_t = backbone.transposed[s.site_id]
        except KeyError:
            raise UsageError(f"unknown site {s.site_id!r}") from None
        if a_t.shape[0] != d_in or w_t.shape != (d_in, d_out) or b_t.shape[1] != d_out:
            raise DimensionError(f"x of shape {x_shape} does not fit the set")
        h, site_out = np.empty((rows, a_t.shape[1])), np.empty((rows, d_out))
        gb = np.empty((rows, b_t.shape[0]))
        forward.append((a_t, w_t, b_t, h, site_out, np.empty((rows, d_out))))
        backward.append((s.b, gb, gb.T, g.a, h, g.b))
    _require_sites(merged)
    _require_loss_shapes((rows, d_out), y_shape)
    pred = forward[0][4]  # the first site's output buffer holds the sum
    sums = [site_out for _a_t, _w_t, _b_t, _h, site_out, _hb in forward[1:]]
    pred_t = pred.T
    size, scale = pred.size, np.array(2.0 / pred.size)

    def step(x: np.ndarray, y: np.ndarray) -> float:
        for a_t, w_t, b_t, h, site_out, hb in forward:
            x.dot(a_t, h)
            x.dot(w_t, site_out)
            site_out += h.dot(b_t, hb)
        for site_out in sums:
            np.add(pred, site_out, pred)
        diff = np.subtract(pred, y, pred)
        loss = float(np.add.reduce(diff * diff, axis=None)) / size
        if not math.isfinite(loss):
            matrix(x)  # raises UsageError on a NaN/Inf entry; finite inputs pass
            matrix(y)
        np.multiply(diff, scale, diff)  # G, in place
        for b, gb, gb_t, ga, h, gbb in backward:
            pred.dot(b, gb)
            gb_t.dot(x, ga)
            pred_t.dot(h, gbb)
        return loss

    return step


def loss_and_gradients(
    backbone: FrozenBackbone, merged: MergedAdapterSet, x: np.ndarray, y: np.ndarray
) -> tuple[float, MergedAdapterSet]:
    """One step of `make_loss_and_gradients` on x and y (converted to
    C-contiguous float64): the loss and a new gradient set laid out like
    `merged`, so `grads.tensors()` lists each tensor's gradient view and
    `grads.flat` holds the whole of it."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    grads = merged.empty_like()
    return make_loss_and_gradients(backbone, merged, grads, x.shape, y.shape)(x, y), grads
