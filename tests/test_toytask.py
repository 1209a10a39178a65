"""Tests for the synthetic task generator and the linear student model."""

import hashlib
import math

import numpy as np
import pytest

from policyprune.adapters import MergedAdapterSet, SiteFactors
from policyprune.baselines import grid_run_rng
from policyprune.errors import DimensionError, TrainingDivergedError, UsageError
from policyprune.masking import ImportanceScale, build_mask, mask_apply_inplace
from policyprune.toytask import (
    DataSplit,
    ToyTaskConfig,
    gen_toy_data,
    loss_and_gradients,
    make_loss_and_gradients,
    model_forward,
    _teacher_site,
    mse_loss,
    run_stream,
    site_names,
    teacher_forward,
)
from policyprune.training import (
    LoraConfig,
    TrainConfig,
    init_adapter_factors,
    pipeline_rngs,
    train_adapter,
)


def random_adapter_set(data, rank, rng):
    sites = []
    for sid in data.backbone.site_ids():
        w = data.backbone.site(sid)
        d_out, d_in = w.shape
        sites.append(
            SiteFactors(
                sid,
                rng.normal(size=(rank, d_in)),
                rng.normal(size=(d_out, rank)),
            )
        )
    return MergedAdapterSet(sites)


def data_checksum(data):
    arrays = [w for _, w in data.backbone.sites]
    for split in (data.source_train, data.target_train, data.dev, data.microdev, data.test):
        arrays += [split.x, split.y]
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def planted_deltas(data, cfg, seed):
    """The source and target perturbations planted in `data`, rebuilt from
    the teacher stream (child 0 of the seed, one `_teacher_site` per site)
    once the rebuilt frozen weights are checked against the backbone's."""
    rng = run_stream(seed, 0)
    d_src, d_tgt = {}, {}
    for sid in data.backbone.site_ids():
        w, d_src[sid], d_tgt[sid] = _teacher_site(rng, cfg)
        assert w.tobytes() == data.backbone.site(sid).tobytes()
    return d_src, d_tgt


def test_site_names_default_pair_and_extension():
    assert site_names(2) == ["q_proj", "v_proj"]
    assert site_names(5) == ["q_proj", "v_proj", "k_proj", "o_proj", "proj4"]


def test_generation_is_bit_exact_for_a_fixed_seed():
    cfg = ToyTaskConfig()
    assert data_checksum(gen_toy_data(cfg, 42)) == data_checksum(gen_toy_data(cfg, 42))
    assert data_checksum(gen_toy_data(cfg, 42)) != data_checksum(gen_toy_data(cfg, 43))


def test_every_named_stream_draws_as_its_spawn_did():
    """Each stage's stream is the child its own spawn gave it before the
    streams shared `run_stream`: children 0-2 of a 3-way spawn for the data,
    3-7 of an 8-way spawn for `pipeline_rngs`, and 10 + j of a (11 + j)-way
    spawn for grid cell j."""

    def spawned(seed, i, n):
        kids = np.random.SeedSequence(seed).spawn(n)
        return np.random.Generator(np.random.PCG64(kids[i])).random(4).tolist()

    keys = ("source", "target", "phase2_train", "policy", "phase3")
    for seed in (42, 1337, 9001):
        for i in range(8):
            assert run_stream(seed, i).random(4).tolist() == spawned(seed, i, 8)
        for i in range(3):
            assert run_stream(seed, i).random(4).tolist() == spawned(seed, i, 3)
        rngs = pipeline_rngs(seed)
        for i, key in enumerate(keys, start=3):
            assert rngs[key].random(4).tolist() == spawned(seed, i, 8), key
        for j in range(8):
            assert grid_run_rng(seed, j).random(4).tolist() == spawned(seed, 10 + j, 11 + j)


def test_split_sizes_and_shapes():
    cfg = ToyTaskConfig(
        d_in=10,
        d_out=6,
        n_sites=2,
        teacher_rank=3,
        source_train_n=20,
        target_train_n=12,
        dev_n=8,
        microdev_n=4,
        test_n=5,
    )
    data = gen_toy_data(cfg, 0)
    assert data.source_train.x.shape == (20, 10)
    assert data.source_train.y.shape == (20, 6)
    assert data.target_train.n == 12
    assert data.dev.n == 8
    assert data.microdev.n == 4
    assert data.test.n == 5
    assert data.backbone.site(data.backbone.site_ids()[0]).shape == (6, 10)


def test_dev_and_microdev_are_disjoint():
    data = gen_toy_data(ToyTaskConfig(), 7)
    dev_rows = {row.tobytes() for row in data.dev.x}
    micro_rows = {row.tobytes() for row in data.microdev.x}
    assert dev_rows.isdisjoint(micro_rows)


def test_interference_controls_teacher_alignment():
    def mean_cosine(interference, seed=11):
        cfg = ToyTaskConfig(interference=interference)
        d_src, d_tgt = planted_deltas(gen_toy_data(cfg, seed), cfg, seed)
        cosines = []
        for sid in d_src:
            a, b = d_src[sid], d_tgt[sid]
            cosines.append(
                float(np.sum(a * b))
                / (np.linalg.norm(a) * np.linalg.norm(b))
            )
        return float(np.mean(cosines))

    assert mean_cosine(0.0) == pytest.approx(0.0, abs=1e-10)
    assert mean_cosine(1.0) == pytest.approx(-1.0, abs=1e-10)
    assert mean_cosine(0.5) < -0.5


def test_teacher_perturbation_energies_follow_the_configured_strengths():
    for i in (0.0, 0.3, 0.8, 1.0):
        cfg = ToyTaskConfig(interference=i, target_strength=0.5, source_strength=0.2)
        d_src, d_tgt = planted_deltas(gen_toy_data(cfg, 3), cfg, 3)
        for sid in d_src:
            ratio = np.linalg.norm(d_src[sid]) / np.linalg.norm(d_tgt[sid])
            assert ratio == pytest.approx(0.4, rel=1e-12)


def test_noise_free_task_is_realizable_by_a_rank_limited_adapter():
    cfg = ToyTaskConfig(noise_std=0.0, teacher_rank=3)
    data = gen_toy_data(cfg, 5)
    _d_src, d_tgt = planted_deltas(data, cfg, 5)
    sites = []
    for sid in data.backbone.site_ids():
        # Exact rank-3 factorization of the planted target perturbation.
        u, s, vt = np.linalg.svd(d_tgt[sid], full_matrices=False)
        r = cfg.teacher_rank
        sites.append(SiteFactors(sid, s[:r, None] * vt[:r], u[:, :r]))
    merged = MergedAdapterSet(sites)
    for split in (data.target_train, data.dev, data.microdev, data.test):
        pred = model_forward(data.backbone, merged, split.x)
        assert mse_loss(pred, split.y) < 1e-20


def test_model_forward_matches_per_site_projection_sum():
    data = gen_toy_data(ToyTaskConfig(n_sites=3), 9)
    rng = np.random.default_rng(0)
    merged = random_adapter_set(data, rank=4, rng=rng)
    x = data.dev.x[:6]
    expected = sum(
        x @ (data.backbone.site(s.site_id) + s.b @ s.a).T for s in merged.sites
    )
    np.testing.assert_allclose(model_forward(data.backbone, merged, x), expected, rtol=1e-12)
    with pytest.raises(DimensionError):
        model_forward(data.backbone, merged, x[:, :-1])


def test_model_forward_of_a_masked_merge_matches_the_dense_masked_update():
    data = gen_toy_data(ToyTaskConfig(n_sites=2), 23)
    merged = random_adapter_set(data, rank=3, rng=np.random.default_rng(23))
    mask = build_mask(merged, 0.4, ImportanceScale(1.0))
    x = data.dev.x[:5]
    expected = 0.0
    for i, s in enumerate(merged.sites):
        lo, mid, hi = mask.offsets[2 * i:2 * i + 3]
        keep_a = mask.keep[lo:mid].reshape(s.a.shape)
        keep_b = mask.keep[mid:hi].reshape(s.b.shape)
        dense = data.backbone.site(s.site_id) + (s.b * keep_b) @ (s.a * keep_a)
        expected = expected + x @ dense.T
    masked = merged.copy()
    mask_apply_inplace(masked, mask)
    got = model_forward(data.backbone, masked, x)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_noise_free_targets_equal_teacher_forward():
    cfg = ToyTaskConfig(noise_std=0.0)
    data = gen_toy_data(cfg, 2)
    _d_src, d_tgt = planted_deltas(data, cfg, 2)
    np.testing.assert_allclose(
        data.target_train.y,
        teacher_forward(data.backbone, d_tgt, data.target_train.x),
        rtol=0,
        atol=0,
    )


def test_analytic_gradients_match_central_finite_differences():
    data = gen_toy_data(ToyTaskConfig(), 13)
    rng = np.random.default_rng(99)
    merged = random_adapter_set(data, rank=5, rng=rng)
    x, y = data.target_train.x[:8], data.target_train.y[:8]
    _, grads = loss_and_gradients(data.backbone, merged, x, y)

    tensors, grad_views = merged.tensors(), grads.tensors()
    h = 1e-6
    for _ in range(10):
        ti = rng.integers(len(tensors))
        _tid, _sid, _fac, arr = tensors[ti]
        i = int(rng.integers(arr.shape[0]))
        j = int(rng.integers(arr.shape[1]))
        orig = arr[i, j]
        arr[i, j] = orig + h
        up = mse_loss(model_forward(data.backbone, merged, x), y)
        arr[i, j] = orig - h
        down = mse_loss(model_forward(data.backbone, merged, x), y)
        arr[i, j] = orig
        fd = (up - down) / (2 * h)
        rel = abs(grad_views[ti][3][i, j] - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4


def test_config_validation_errors():
    with pytest.raises(UsageError):
        ToyTaskConfig(d_in=6, teacher_rank=4)
    with pytest.raises(UsageError):
        ToyTaskConfig(interference=1.5)
    with pytest.raises(UsageError):
        ToyTaskConfig(noise_std=-0.1)
    with pytest.raises(UsageError):
        ToyTaskConfig(dev_n=0)


def test_split_head_is_nested_and_bounds_checked():
    data = gen_toy_data(ToyTaskConfig(microdev_n=32), 1)
    head = data.microdev.head(8)
    np.testing.assert_array_equal(head.x, data.microdev.x[:8])
    inner = data.microdev.head(4)
    np.testing.assert_array_equal(inner.x, head.x[:4])
    with pytest.raises(UsageError):
        data.microdev.head(33)


def test_splits_are_read_only():
    data = gen_toy_data(ToyTaskConfig(), 4)
    with pytest.raises(ValueError):
        data.dev.x[0, 0] = 1.0


def _matmul_loss_and_gradients(backbone, merged, x, y):
    """`loss_and_gradients` in its own operation order, every product by `@`."""
    hidden, pred = [], None
    for s in merged.sites:
        h = x @ s.a.T
        hidden.append(h)
        site_out = x @ backbone.site(s.site_id).T + h @ s.b.T
        pred = site_out if pred is None else pred + site_out
    diff = pred - y
    loss = float(np.add.reduce(diff * diff, axis=None)) / diff.size
    g_out = (2.0 / diff.size) * diff
    grads = [((g_out @ s.b).T @ x, g_out.T @ h) for s, h in zip(merged.sites, hidden)]
    return loss, np.concatenate([g.ravel() for pair in grads for g in pair])


@pytest.mark.parametrize("rows", [slice(3, 4), slice(91, 96)], ids=["batch-of-1", "short-batch"])
def test_loss_and_gradients_equal_the_matmul_reference_bit_for_bit(rows):
    data = gen_toy_data(ToyTaskConfig(), 5)
    merged = random_adapter_set(data, 16, np.random.default_rng(6))
    x, y = data.target_train.x[rows], data.target_train.y[rows]
    ref_loss, ref_grads = _matmul_loss_and_gradients(data.backbone, merged, x, y)
    loss, grads = loss_and_gradients(data.backbone, merged, x, y)
    assert loss == ref_loss
    assert (grads.flat == ref_grads).all()
    bound = merged.empty_like()
    step = make_loss_and_gradients(data.backbone, merged, bound, x.shape, y.shape)
    for _ in range(2):  # a second call overwrites every buffer with the same bits
        assert step(x, y) == ref_loss
        assert (bound.flat == ref_grads).all()


def test_one_step_closure_per_row_count_equals_the_matmul_reference():
    """The training loop binds one step closure per batch row count, all
    writing one gradient set; closures for 1, 5 and 3 rows, called in turn
    and right after a call that raised on a NaN input, still give the
    reference's bits on every call, and follow the factors as they change."""
    data = gen_toy_data(ToyTaskConfig(), 5)
    merged = random_adapter_set(data, 16, np.random.default_rng(6))
    xs, ys = data.target_train.x, data.target_train.y
    grads = merged.empty_like()
    steps = {rows: make_loss_and_gradients(data.backbone, merged, grads,
                                           (rows, xs.shape[1]), (rows, ys.shape[1]))
             for rows in (1, 3, 5)}
    lo = 0
    for rows, nan_first in ((1, False), (5, False), (1, True), (3, True), (5, False)):
        x, y = xs[lo : lo + rows], ys[lo : lo + rows]
        lo += rows
        if nan_first:
            bad = x.copy()
            bad[-1, -1] = np.nan
            with np.errstate(invalid="ignore"), pytest.raises(UsageError, match="finite"):
                steps[rows](bad, y)
        ref_loss, ref_grads = _matmul_loss_and_gradients(data.backbone, merged, x, y)
        assert steps[rows](x, y) == ref_loss
        assert (grads.flat == ref_grads).all(), rows
        merged.flat *= 0.75  # the closures read the factors through the set's views


def _bad_input_sets(data):
    """Stock-shaped dense factors, fresh factors (B = 0), and a set masked
    at p = 0.8 whose A factors are zero in the first 12 input columns (those
    columns carry the smallest magnitudes, so the mask prunes them whole)."""
    rng = np.random.default_rng(12)
    dense = random_adapter_set(data, 16, rng)
    fresh = init_adapter_factors(data.backbone, LoraConfig(), rng)
    shrunk = random_adapter_set(data, 16, rng)
    for s in shrunk.sites:
        s.a[:, :12] *= 1e-9
    masked = shrunk.copy()
    mask_apply_inplace(masked, build_mask(shrunk, 0.8, ImportanceScale(1.0)))
    assert all((s.a[:, :12] == 0.0).all() for s in masked.sites)
    assert not fresh.flat[fresh.offsets[1]:fresh.offsets[2]].any()  # site 1's B
    return {"stock": dense, "fresh": fresh, "masked": masked}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_a_non_finite_input_entry_raises_before_any_gradient_is_written(bad):
    """The NaN/Inf scan runs only when the loss is not finite; a bad entry
    anywhere in x or y always makes it so, whatever the factors (even where
    every A column the entry meets is zero), so each still raises
    `UsageError` and leaves the gradient buffer untouched."""
    data = gen_toy_data(ToyTaskConfig(), 5)
    x, y = data.target_train.x[:2], data.target_train.y[:2]
    for name, merged in _bad_input_sets(data).items():
        out = merged.empty_like()
        out.flat[:] = 7.0
        step = make_loss_and_gradients(data.backbone, merged, out, x.shape, y.shape)
        for which, arr in (("x", x), ("y", y)):
            for idx in np.ndindex(arr.shape):
                bad_arr = arr.copy()
                bad_arr[idx] = bad
                args = (bad_arr, y) if which == "x" else (x, bad_arr)
                with np.errstate(invalid="ignore", over="ignore"):
                    with pytest.raises(UsageError, match="finite"):
                        step(*args)
                assert (out.flat == 7.0).all(), (name, which, idx)
        assert math.isfinite(step(x, y))


def test_loss_inputs_of_the_wrong_shape_raise_dimension_errors():
    data = gen_toy_data(ToyTaskConfig(), 5)
    merged = random_adapter_set(data, 16, np.random.default_rng(6))
    x, y = data.target_train.x[:3], data.target_train.y[:3]
    for args in ((x[0], y), (x, y[0]), (x[None], y), (x, y[None]), (x[:, :-1], y), (x, y[:2])):
        with pytest.raises(DimensionError):
            loss_and_gradients(data.backbone, merged, *args)
    nan_x = x[:, :-1].copy()
    nan_x[0, 0] = np.nan
    with pytest.raises(UsageError):  # either check may speak first; both are usage errors
        loss_and_gradients(data.backbone, merged, nan_x, y)


def test_finite_inputs_whose_loss_overflows_return_it_and_training_diverges():
    data = gen_toy_data(ToyTaskConfig(), 5)
    merged = random_adapter_set(data, 16, np.random.default_rng(6))
    x, y = 1e200 * data.target_train.x[:4], data.target_train.y[:4]
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = loss_and_gradients(data.backbone, merged, x, y)
        assert not math.isfinite(loss)
        with pytest.raises(TrainingDivergedError):
            train_adapter(data.backbone, DataSplit(x, y), LoraConfig(), TrainConfig(epochs=1),
                          np.random.default_rng(7))


def test_an_empty_batch_is_a_usage_error():
    data = gen_toy_data(ToyTaskConfig(), 5)
    merged = random_adapter_set(data, 16, np.random.default_rng(6))
    x, y = data.target_train.x[:0], data.target_train.y[:0]
    with pytest.raises(UsageError, match="empty batch"):
        loss_and_gradients(data.backbone, merged, x, y)
    with pytest.raises(UsageError, match="empty batch"):
        mse_loss(model_forward(data.backbone, merged, x), y)
