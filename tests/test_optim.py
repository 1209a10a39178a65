"""Tests for the stateful optimizer and the mask install that enforces a mask."""

import numpy as np
import pytest

from policyprune.adapters import MergedAdapterSet, SiteFactors, matrix
from policyprune.errors import DimensionError, UsageError
from policyprune.masking import ImportanceScale, SparsityMask, build_mask, mask_apply_inplace
from policyprune.optim import (
    BETA1,
    BETA2,
    EPSILON,
    OptimizerState,
    init_optimizer,
    install_mask,
    optimizer_step_and_reset,
)
from policyprune.training import TrainConfig

LR, DECAY = TrainConfig().learning_rate, TrainConfig().weight_decay  # the stock pair


def one_site_set():
    return MergedAdapterSet(
        [
            SiteFactors(
                "q",
                matrix([[1.0, -2.0]]),
                matrix([[0.5], [1.5]]),
            )
        ]
    )


def grads_for(merged, values):
    """A gradient set laid out like `merged`, tensor id -> nested values."""
    grads = merged.empty_like()
    for tid, _, _, view in grads.tensors():
        view[...] = values[tid]
    return grads


def ones_mask(merged):
    mask = build_mask(merged, 0.0, ImportanceScale(1.0))  # k = 0 keeps everything
    assert mask.keep.all()
    return mask


def test_first_step_moves_by_lr_times_sign_without_decay():
    # At step 1 the bias corrections cancel exactly: m_hat = g, v_hat = g^2,
    # so each coordinate moves by -lr * g/(|g|+eps), i.e. lr times -sign(g).
    merged = one_site_set()
    state = init_optimizer(merged, learning_rate=0.1, weight_decay=0.0)
    grads = grads_for(merged, {1: [[0.5, 0.25]], 2: [[-1.0], [4.0]]})
    optimizer_step_and_reset(merged, grads, state)
    a = merged.sites[0].a
    b = merged.sites[0].b
    assert a == pytest.approx(np.array([[0.9, -2.1]]), abs=1e-7)
    assert b == pytest.approx(np.array([[0.6], [1.4]]), abs=1e-7)
    assert state.step == 1


def test_decoupled_decay_shrinks_parameters_toward_zero():
    merged = one_site_set()
    state = init_optimizer(merged, learning_rate=0.1, weight_decay=0.01)
    grads = grads_for(merged, {1: [[0.5, 0.25]], 2: [[-1.0], [4.0]]})
    optimizer_step_and_reset(merged, grads, state)
    # Same as above plus the decay term -lr * wd * param.
    assert merged.sites[0].a == pytest.approx(
        np.array([[0.9 - 0.001, -2.1 + 0.002]]), abs=1e-7
    )


def test_two_steps_match_the_published_update_equations():
    # Independent transcription of the textbook update, scalar at a time,
    # at AdamW's standard moment decays and epsilon.
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    assert (BETA1, BETA2, EPSILON) == (b1, b2, eps)
    merged = one_site_set()
    state = init_optimizer(merged, learning_rate=lr, weight_decay=0.0)
    g1 = {1: [[0.3, -0.7]], 2: [[0.1], [0.2]]}
    g2 = {1: [[-0.2, 0.4]], 2: [[0.5], [-0.1]]}

    expect = {1: [[1.0, -2.0]], 2: [[0.5], [1.5]]}
    m = {tid: [[0.0] * len(r) for r in v] for tid, v in expect.items()}
    v2 = {tid: [[0.0] * len(r) for r in v] for tid, v in expect.items()}
    for t, g in ((1, g1), (2, g2)):
        for tid in expect:
            for i, row in enumerate(expect[tid]):
                for j in range(len(row)):
                    gij = g[tid][i][j]
                    m[tid][i][j] = b1 * m[tid][i][j] + (1 - b1) * gij
                    v2[tid][i][j] = b2 * v2[tid][i][j] + (1 - b2) * gij * gij
                    mh = m[tid][i][j] / (1 - b1**t)
                    vh = v2[tid][i][j] / (1 - b2**t)
                    expect[tid][i][j] -= lr * mh / (vh**0.5 + eps)

    optimizer_step_and_reset(merged, grads_for(merged, g1), state)
    optimizer_step_and_reset(merged, grads_for(merged, g2), state)
    assert merged.sites[0].a == pytest.approx(np.array(expect[1]), abs=1e-12)
    assert merged.sites[0].b == pytest.approx(np.array(expect[2]), abs=1e-12)
    assert state.step == 2


def test_all_ones_mask_and_no_reset_is_a_plain_step():
    grads_raw = {1: [[0.5, 0.25]], 2: [[-1.0], [4.0]]}
    plain = one_site_set()
    state_p = init_optimizer(plain, LR, DECAY)
    optimizer_step_and_reset(plain, grads_for(plain, grads_raw), state_p)

    masked = one_site_set()
    state_m = init_optimizer(masked, LR, DECAY)
    install_mask(masked, state_m, ones_mask(masked))
    optimizer_step_and_reset(masked, grads_for(masked, grads_raw), state_m)
    assert plain.checksum() == masked.checksum()
    np.testing.assert_array_equal(state_p.first_moment, state_m.first_moment)
    np.testing.assert_array_equal(state_p.second_moment, state_m.second_moment)


def test_pruned_coordinate_stays_exactly_zero_despite_gradient():
    merged = one_site_set()
    scale = ImportanceScale(1.0)
    mask = build_mask(merged, 0.5, scale)  # prunes the smaller half per tensor
    state = init_optimizer(merged, LR, DECAY)
    install_mask(merged, state, mask)
    grads = grads_for(merged, {1: [[10.0, 10.0]], 2: [[10.0], [10.0]]})
    for _ in range(3):
        optimizer_step_and_reset(merged, grads, state)
    pruned_vals = merged.flat[mask.keep == 0]
    assert pruned_vals.size and np.all(pruned_vals == 0.0)
    assert not np.any(np.signbit(pruned_vals))


def test_commit_reset_zeroes_moments_immediately_and_they_stay_zero():
    merged = one_site_set()
    scale = ImportanceScale(1.0)
    loose = build_mask(merged, 0.0, scale)
    tight = build_mask(merged, 0.5, scale)
    state = init_optimizer(merged, LR, DECAY)
    install_mask(merged, state, loose)
    grads = grads_for(merged, {1: [[1.0, 1.0]], 2: [[1.0], [1.0]]})
    optimizer_step_and_reset(merged, grads, state)
    assert np.all(state.first_moment != 0.0)

    newly = (loose.keep == 1.0) & (tight.keep == 0.0)
    assert newly.any()
    install_mask(merged, state, tight)
    assert state.mask is tight
    assert np.all(state.first_moment[newly] == 0.0)
    assert np.all(state.second_moment[newly] == 0.0)
    assert np.all(state.first_moment[~newly] != 0.0)

    # Masked gradients keep the cleared moments at exactly zero afterwards.
    for _ in range(4):
        optimizer_step_and_reset(merged, grads, state)
    assert np.all(state.first_moment[newly] == 0.0)
    assert np.all(state.second_moment[newly] == 0.0)


def test_shape_and_config_errors():
    merged = one_site_set()
    state = init_optimizer(merged, LR, DECAY)
    wider = MergedAdapterSet([SiteFactors("q", np.zeros((1, 3)), np.zeros((2, 1)))])
    with pytest.raises(DimensionError):
        optimizer_step_and_reset(merged, wider, state)
    renamed = MergedAdapterSet([SiteFactors("v", np.zeros((1, 2)), np.zeros((2, 1)))])
    with pytest.raises(DimensionError):
        optimizer_step_and_reset(merged, renamed, state)
    with pytest.raises(DimensionError):
        install_mask(merged, state, SparsityMask(np.ones(3), [0, 1, 3]))
    # the training config owns the optimizer's settings and their checks
    with pytest.raises(UsageError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(UsageError):
        TrainConfig(weight_decay=-0.1)


def reference_step(arr, g, m, v, t, lr, decay, keep=None):
    """The update as written before the keep bits were folded into the
    moment coefficients: the gradient is masked first, then the textbook
    update runs one elementwise operation at a time, then the re-zero."""
    if keep is not None:
        g = g * keep
    m *= BETA1
    m += g * (1.0 - BETA1)
    v *= BETA2
    v += (g * (1.0 - BETA2)) * g
    m_hat = m / (1.0 - BETA1**t)
    denom = np.sqrt(v / (1.0 - BETA2**t))
    denom += EPSILON
    update = m_hat / denom
    update += arr * decay
    update *= lr
    arr -= update
    if keep is not None:
        arr *= keep
        arr += 0.0


def two_site_set(rng):
    return MergedAdapterSet(
        [SiteFactors(sid, rng.normal(size=(4, 9)), rng.normal(size=(6, 4))) for sid in "qv"]
    )


def signed_gradient(rng, merged):
    """A gradient with exact zeros of both signs among its normal draws."""
    grads = merged.empty_like()
    g = rng.normal(size=grads.flat.size)
    g[rng.random(g.size) < 0.1] = 0.0
    g[rng.random(g.size) < 0.1] = -0.0
    grads.flat[...] = g
    return grads


def _bytes(merged, state):
    return merged.flat.tobytes(), state.first_moment.tobytes(), state.second_moment.tobytes()


def _reference_commit(ref_arr, ref_m, ref_v, old_keep, new_keep):
    """The commit as written before `install_mask`: apply the new mask, then
    clear the moments only where it newly prunes."""
    ref_arr *= new_keep
    ref_arr += 0.0
    newly = (old_keep == 1.0) & (new_keep == 0.0)
    ref_m[newly] = 0.0
    ref_v[newly] = 0.0
    return newly


def test_steps_equal_the_mask_first_reference_bit_for_bit():
    # Masked steps under mask A, a commit to a new mask B object (moments
    # reset where B newly prunes), then steps under an all-ones mask, which
    # are the dense textbook steps; parameters and both moments are compared
    # by bytes after every step. The run passes step 356, from which
    # 1 - beta1**t is exactly 1.0.
    rng = np.random.default_rng(3)
    merged = two_site_set(rng)
    lr = 3e-3
    state = init_optimizer(merged, lr, DECAY)
    scale = ImportanceScale(1.0)
    mask_a = build_mask(merged, 0.3, scale)
    ref_arr, ref_m, ref_v = merged.flat.copy(), np.zeros(merged.flat.size), np.zeros(merged.flat.size)
    ref_arr *= mask_a.keep
    ref_arr += 0.0
    install_mask(merged, state, mask_a)
    t = 0

    def run(keep, steps):
        nonlocal t
        for _ in range(steps):
            t += 1
            grads = signed_gradient(rng, merged)
            optimizer_step_and_reset(merged, grads, state)
            reference_step(ref_arr, grads.flat, ref_m, ref_v, t, lr, DECAY, keep)
            assert _bytes(merged, state) == (ref_arr.tobytes(), ref_m.tobytes(), ref_v.tobytes())

    run(mask_a.keep, 200)
    mask_b = build_mask(merged, 0.5, scale)  # the commit's new mask object
    assert _reference_commit(ref_arr, ref_m, ref_v, mask_a.keep, mask_b.keep).any()
    install_mask(merged, state, mask_b)
    assert _bytes(merged, state) == (ref_arr.tobytes(), ref_m.tobytes(), ref_v.tobytes())
    run(mask_b.keep, 200)
    ones = ones_mask(merged)
    _reference_commit(ref_arr, ref_m, ref_v, mask_b.keep, ones.keep)
    install_mask(merged, state, ones)
    run(None, 180)
    assert state.step == 580


def _old_masked_step(arr, g, m, v, t, lr, decay, keep):
    """The step as it was when it took a mask: the keep bits folded into the
    moment coefficients, the textbook order, then the re-zero of the pruned
    coordinates."""
    c1, c2 = keep * (1.0 - BETA1), keep * (1.0 - BETA2)
    m *= BETA1
    m += g * c1
    v *= BETA2
    v += (g * c2) * g
    bias1 = 1.0 - BETA1**t
    m_hat = m if bias1 == 1.0 else m / bias1
    denom = np.sqrt(v / (1.0 - BETA2**t))
    denom += EPSILON
    update = m_hat / denom
    update += arr * decay
    update *= lr
    arr -= update
    arr *= keep
    arr += 0.0


def test_installs_give_the_bytes_of_the_old_commit_sequence_over_a_chain_of_commits():
    """Each commit of the chain installs its mask; the old sequence applies
    it, clears the moments only where it newly prunes, and steps with the
    per-step mask and its re-zero. The chain tightens, loosens (releasing
    coordinates), repeats a mask's bits in a new object and prunes nothing;
    arena and moments agree by bytes after every commit and every step."""
    rng = np.random.default_rng(29)
    merged = two_site_set(rng)
    lr = 1e-2
    state = init_optimizer(merged, lr, DECAY)
    scale = ImportanceScale(1.0)
    ref_arr, ref_m, ref_v = merged.flat.copy(), np.zeros(merged.flat.size), np.zeros(merged.flat.size)
    old_keep = np.ones(merged.flat.size)
    released = 0
    t = 0
    for p in (0.3, 0.6, 0.2, 0.2, 0.7, 0.0, 0.5):
        mask = build_mask(merged, p, scale)
        _reference_commit(ref_arr, ref_m, ref_v, old_keep, mask.keep)
        released += np.count_nonzero((old_keep == 0.0) & (mask.keep == 1.0))
        install_mask(merged, state, mask)
        assert state.mask is mask
        assert _bytes(merged, state) == (ref_arr.tobytes(), ref_m.tobytes(), ref_v.tobytes()), p
        for _ in range(40):
            t += 1
            grads = signed_gradient(rng, merged)
            optimizer_step_and_reset(merged, grads, state)
            _old_masked_step(ref_arr, grads.flat, ref_m, ref_v, t, lr, DECAY, mask.keep)
            assert _bytes(merged, state) == (ref_arr.tobytes(), ref_m.tobytes(),
                                             ref_v.tobytes()), (p, t)
        old_keep = mask.keep
    assert released > 0


def test_a_step_never_writes_a_pruned_coordinate():
    """Under masks installed at several ratios, a looser one releasing
    coordinates among them, steps on gradients with +0.0, -0.0 and huge
    entries leave the arena and both moments at every pruned coordinate
    byte for byte as the install left them (+0.0), and no kept weight is
    -0.0."""
    rng = np.random.default_rng(41)
    merged = two_site_set(rng)
    state = init_optimizer(merged, 1e-2, DECAY)
    scale = ImportanceScale(1.0)
    unmasked = merged.copy()  # scored unmasked, a looser mask keeps pruned entries
    released = 0
    previous = np.ones(merged.flat.size)
    for p in (0.2, 0.7, 0.4, 0.9, 0.1):
        mask = build_mask(unmasked, p, scale)
        released += np.count_nonzero((previous == 0.0) & (mask.keep == 1.0))
        install_mask(merged, state, mask)
        pruned = mask.keep == 0.0
        assert pruned.any()
        installed = [a[pruned].tobytes() for a in (merged.flat, state.first_moment,
                                                   state.second_moment)]
        assert installed == [np.zeros(np.count_nonzero(pruned)).tobytes()] * 3
        for _ in range(25):
            grads = signed_gradient(rng, merged)
            g = grads.flat
            g[rng.random(g.size) < 0.1] = 1e150
            g[rng.random(g.size) < 0.1] = -1e150
            optimizer_step_and_reset(merged, grads, state)
            assert [a[pruned].tobytes() for a in (merged.flat, state.first_moment,
                                                  state.second_moment)] == installed, p
            assert not np.signbit(merged.flat[~pruned][merged.flat[~pruned] == 0.0]).any()
            assert np.isfinite(merged.flat).all()
        previous = mask.keep
    assert released > 0


def test_a_state_built_by_its_constructor_steps_like_init_optimizer():
    rng = np.random.default_rng(8)
    merged = two_site_set(rng)
    mask = build_mask(merged, 0.4, ImportanceScale(1.0))
    state = init_optimizer(merged, 1e-2, DECAY)
    install_mask(merged, state, mask)
    for _ in range(5):
        optimizer_step_and_reset(merged, signed_gradient(rng, merged), state)
    twin = merged.copy()
    twin_state = OptimizerState(state.learning_rate, state.weight_decay,
                                state.first_moment.copy(), state.second_moment.copy(),
                                state.step)
    install_mask(twin, twin_state, mask)
    assert _bytes(merged, state) == _bytes(twin, twin_state)
    ones = ones_mask(merged)
    for step_mask in (mask, mask, ones, mask):
        if step_mask is not state.mask:
            install_mask(merged, state, step_mask)
            install_mask(twin, twin_state, step_mask)
        grads = signed_gradient(rng, merged)
        optimizer_step_and_reset(merged, grads, state)
        optimizer_step_and_reset(twin, grads, twin_state)
        assert _bytes(merged, state) == _bytes(twin, twin_state)


def test_a_mask_of_another_size_is_a_dimension_error():
    """A mask that fits neither the arena nor the moments, the arena but not
    the moments, or the moments but not the arena, raises before any byte
    changes or any mask is put in force."""
    merged = one_site_set()
    other = MergedAdapterSet([SiteFactors("q", np.ones((1, 3)), np.ones((2, 1)))])
    mask = build_mask(other, 0.5, ImportanceScale(1.0))
    state = init_optimizer(merged, LR, DECAY)
    grads = grads_for(merged, {1: [[1.0, 1.0]], 2: [[1.0], [1.0]]})
    optimizer_step_and_reset(merged, grads, state)  # moments that a reset would change
    before = _bytes(merged, state)
    with pytest.raises(DimensionError):
        install_mask(merged, state, mask)
    with pytest.raises(DimensionError):
        mask_apply_inplace(merged, mask)
    fits_arena = build_mask(merged, 0.5, ImportanceScale(1.0))
    with pytest.raises(DimensionError):
        install_mask(merged, init_optimizer(other, LR, DECAY), fits_arena)
    narrow = init_optimizer(other, LR, DECAY)
    with pytest.raises(DimensionError):
        install_mask(other, narrow, fits_arena)
    other_bytes = other.flat.tobytes()
    with pytest.raises(DimensionError):  # fits the moments, not the arena
        install_mask(other, state, fits_arena)
    assert other.flat.tobytes() == other_bytes
    assert _bytes(merged, state) == before and state.step == 1 and state.mask is None
    assert not narrow.first_moment.any() and narrow.mask is None
