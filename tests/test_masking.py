
import numpy as np
import pytest

from policyprune.adapters import MergedAdapterSet, SiteFactors
from policyprune.errors import DegenerateScaleError, DimensionError, UsageError
from policyprune.masking import (
    ImportanceScale,
    SparsityMask,
    build_mask,
    estimate_scale,
    importance_scores,
    keep_above,
    mask_apply_inplace,
    prune_threshold,
    sorted_threshold,
)


def _merged_from_flat(values):
    """One site whose A factor is the given 1 x d row; B is a dummy 1x1."""
    a = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return MergedAdapterSet([SiteFactors("q", a, np.array([[1.0]]))])


def _bits(mask, tid):
    """Tensor tid's keep bits: its slice of the mask's one keep vector."""
    return mask.keep[mask.offsets[tid - 1]:mask.offsets[tid]]


def _tau(merged, tid, p):
    """Tensor tid's (k, tau) at ratio p, as `build_mask` thresholds it at
    scale 1."""
    lo, hi = merged.offsets[tid - 1], merged.offsets[tid]
    return prune_threshold(importance_scores(merged.flat, ImportanceScale(1.0))[lo:hi], p)


def _applied(merged, mask):
    """A copy of `merged` with the mask applied."""
    out = merged.copy()
    mask_apply_inplace(out, mask)
    return out


def test_estimate_scale_hand_value():
    got = estimate_scale([np.array([3.0, 4.0]), np.array([0.0, 0.0])])
    assert got.s == 2.5  # mean of norms 5 and 0


def test_estimate_scale_unit_and_constant_cases():
    assert estimate_scale([np.array([1.0, 0.0, 0.0])]).s == 1.0
    v = np.array([1.0, 2.0, 2.0])  # norm 3
    assert estimate_scale([v, v, v, v]).s == 3.0


def test_estimate_scale_errors():
    with pytest.raises(UsageError):
        estimate_scale([])
    with pytest.raises(DegenerateScaleError):
        estimate_scale([np.zeros(3), np.zeros(3)])
    with pytest.raises(DimensionError):
        estimate_scale([np.zeros(3), np.zeros(4)])
    with pytest.raises(DegenerateScaleError):
        ImportanceScale(-1.0)


def test_importance_scores_hand_value():
    got = importance_scores(np.array([-2.0, 1.0, 0.0]), ImportanceScale(2.0))
    np.testing.assert_array_equal(got, [4.0, 2.0, 0.0])


def test_importance_ordering_independent_of_scale():
    rng = np.random.default_rng(17)
    vals = rng.normal(size=64)
    base = np.argsort(importance_scores(vals, ImportanceScale(1.0)))
    for s in (1e-6, 0.5, 3.0, 1e6):
        np.testing.assert_array_equal(
            np.argsort(importance_scores(vals, ImportanceScale(s))), base
        )


def test_prune_threshold_hand_values():
    scores = np.array([0.1, 0.5, 0.3, 0.9])
    assert prune_threshold(scores, 0.5) == (2, 0.3)
    assert prune_threshold(scores, 0.0) == (0, float("-inf"))
    assert prune_threshold(scores, 1.0) == (4, 0.9)
    with pytest.raises(UsageError):
        prune_threshold(scores, 1.5)
    with pytest.raises(UsageError):
        prune_threshold(np.array([]), 0.5)


def test_build_mask_hand_value():
    merged = _merged_from_flat([0.1, 0.5, 0.3, 0.9])
    mask = build_mask(merged, 0.5, ImportanceScale(1.0))
    np.testing.assert_array_equal(_bits(mask, 1), [0, 1, 0, 1])
    assert _tau(merged, 1, 0.5) == (2, 0.3)
    assert mask.kept[0] == 2.0


def test_keep_above_equals_the_per_tensor_compare():
    rng = np.random.default_rng(5)
    merged = MergedAdapterSet(
        [SiteFactors(sid, rng.normal(size=(3, 7)), rng.normal(size=(5, 3))) for sid in "qv"]
    )
    scores = importance_scores(merged.flat, ImportanceScale(1.0))
    offs = merged.offsets
    for p in (0.0, 0.3, 0.7, 1.0):
        thresholds = [prune_threshold(scores[lo:hi], p) for lo, hi in zip(offs, offs[1:])]
        expected = np.concatenate(
            [scores[lo:hi] > tau for lo, hi, (_k, tau) in zip(offs, offs[1:], thresholds)]
        )
        keep = keep_above(scores, offs, thresholds)
        np.testing.assert_array_equal(keep, expected)
        mask = SparsityMask(keep, offs)
        assert mask.keep is keep and mask.keep.dtype == np.float64
        np.testing.assert_array_equal(mask.keep, expected)


def test_mask_keep_bits_are_read_only():
    # an install folds a mask's bits into the optimizer's coefficients, so
    # the bits must not change under it
    merged = _merged_from_flat([0.1, 0.5, 0.3, 0.9])
    mask = build_mask(merged, 0.5, ImportanceScale(1.0))
    with pytest.raises(ValueError):
        mask.keep[0] = 1.0
    with pytest.raises(ValueError):
        _bits(mask, 1)[...] = 1.0
    with pytest.raises(ValueError):
        np.multiply(mask.keep, 2.0, mask.keep)
    np.testing.assert_array_equal(_bits(mask, 1), [0, 1, 0, 1])
    # the constructor makes prebuilt bits read-only too
    keep = np.ones(merged.flat.size)
    SparsityMask(keep, merged.offsets)
    with pytest.raises(ValueError):
        keep[0] = 0.0


def test_mask_thresholds_and_kept_counts_equal_the_per_tensor_loop():
    rng = np.random.default_rng(6)
    merged = MergedAdapterSet(
        [SiteFactors(sid, rng.normal(size=(3, 7)), rng.normal(size=(5, 3))) for sid in "qkv"]
    )
    merged.flat[::4] = 0.0  # zero weights tie at score 0
    scores = importance_scores(merged.flat, ImportanceScale(1.0))
    offs = merged.offsets
    for p in (0.0, 0.1, 0.3, 0.7, 1.0):
        thresholds = [prune_threshold(scores[lo:hi], p) for lo, hi in zip(offs, offs[1:])]
        mask = SparsityMask(keep_above(scores, offs, thresholds), offs)
        assert mask.offsets == offs
        assert len(mask.kept) == len(offs) - 1
        for tid, (lo, hi) in enumerate(zip(offs, offs[1:]), start=1):
            bits = mask.keep[lo:hi]
            np.testing.assert_array_equal(bits, scores[lo:hi] > thresholds[tid - 1][1])
            assert mask.kept[tid - 1] == np.count_nonzero(bits)


def test_build_mask_ties_prune_all_tied_entries():
    merged = _merged_from_flat([0.3, 0.3, 0.5, 0.9])
    mask = build_mask(merged, 0.25, ImportanceScale(1.0))
    # k=1 but both entries tied at tau=0.3 go
    np.testing.assert_array_equal(_bits(mask, 1), [0, 0, 1, 1])
    assert _tau(merged, 1, 0.25) == (1, 0.3)
    assert (4 - mask.kept[0]) / 4 == 0.5


def test_build_mask_low_ratio_floor():
    merged = _merged_from_flat(np.arange(1.0, 11.0))
    mask = build_mask(merged, 0.10, ImportanceScale(1.0))
    assert int(10 - mask.kept[0]) == 1


def test_mask_scale_invariance():
    rng = np.random.default_rng(23)
    merged = MergedAdapterSet(
        [SiteFactors("q", rng.normal(size=(4, 7)), rng.normal(size=(5, 4)))]
    )
    base = build_mask(merged, 0.4, ImportanceScale(1.0))
    for c in (1e-3, 0.7, 42.0, 1e5):
        other = build_mask(merged, 0.4, ImportanceScale(c))
        np.testing.assert_array_equal(base.keep, other.keep)


def test_mask_nestedness():
    rng = np.random.default_rng(31)
    merged = MergedAdapterSet(
        [SiteFactors("q", rng.normal(size=(3, 11)), rng.normal(size=(6, 3)))]
    )
    scale = ImportanceScale(1.0)
    ratios = np.linspace(0.0, 1.0, 9)
    masks = [build_mask(merged, p, scale) for p in ratios]
    for lo, hi in zip(masks, masks[1:]):
        pruned_lo = lo.keep == 0
        pruned_hi = hi.keep == 0
        assert np.all(pruned_hi[pruned_lo]), "pruned sets must be nested in p"


def test_realized_fraction_bounds():
    rng = np.random.default_rng(37)
    for trial in range(20):
        vals = rng.normal(size=rng.integers(5, 40))
        if trial % 3 == 0:
            vals[rng.integers(0, vals.size)] = vals[0]  # induce a tie
        merged = _merged_from_flat(vals)
        p = float(rng.uniform(0.0, 1.0))
        mask = build_mask(merged, p, ImportanceScale(1.0))
        (k, tau), d = _tau(merged, 1, p), vals.size
        fraction = (d - mask.kept[0]) / d
        assert fraction >= k / d
        n_tied = int(np.sum(importance_scores(vals, ImportanceScale(1.0)) == tau))
        assert fraction <= (k + n_tied) / d


def test_mask_apply_zeroes_exactly_and_is_idempotent():
    rng = np.random.default_rng(41)
    merged = MergedAdapterSet(
        [SiteFactors("q", rng.normal(size=(2, 8)), rng.normal(size=(4, 2)))]
    )
    mask = build_mask(merged, 0.5, ImportanceScale(2.0))
    once = _applied(merged, mask)
    twice = _applied(once, mask)
    assert once.checksum() == twice.checksum()
    originals = {tid: arr.ravel() for tid, _, _, arr in merged.tensors()}
    for tid, _, _, arr in once.tensors():
        bits = _bits(mask, tid)
        flat = arr.ravel()
        assert np.all(flat[bits == 0] == 0.0)
        np.testing.assert_array_equal(flat[bits == 1], originals[tid][bits == 1])


def test_mask_apply_identity_and_annihilation():
    rng = np.random.default_rng(43)
    merged = MergedAdapterSet(
        [SiteFactors("q", rng.normal(size=(2, 4)), rng.normal(size=(3, 2)))]
    )
    keep_all = build_mask(merged, 0.0, ImportanceScale(1.0))
    same = _applied(merged, keep_all)
    assert same.checksum() == merged.checksum()
    drop_all = build_mask(merged, 1.0, ImportanceScale(1.0))
    gone = _applied(merged, drop_all)
    for _, _, _, arr in gone.tensors():
        assert np.all(arr == 0.0)


def test_zero_weights_always_pruned_first():
    merged = _merged_from_flat([0.0, 2.0, 0.0, 3.0, 1.0])
    mask = build_mask(merged, 0.2, ImportanceScale(1.0))  # k=1, tau=0
    np.testing.assert_array_equal(_bits(mask, 1), [0, 1, 0, 1, 1])


def test_rebuild_at_same_ratio_after_apply_is_stable():
    # zeros created by pruning sort first, so rebuilding at the same p
    # reproduces the same mask
    rng = np.random.default_rng(47)
    merged = MergedAdapterSet(
        [SiteFactors("q", rng.normal(size=(3, 9)), rng.normal(size=(5, 3)))]
    )
    scale = ImportanceScale(1.3)
    m1 = build_mask(merged, 0.45, scale)
    applied = _applied(merged, m1)
    m2 = build_mask(applied, 0.45, scale)
    np.testing.assert_array_equal(m1.keep, m2.keep)


def _partition_threshold(scores, p):
    """The k-th smallest score by `np.partition`, independent of any sort."""
    k = int(np.floor(p * scores.size))
    return (k, float(np.partition(scores, k - 1)[k - 1])) if k else (0, float("-inf"))


def test_sorted_thresholds_equal_prune_threshold_at_every_k():
    rng = np.random.default_rng(17)
    d = 37
    distinct = rng.permutation(np.arange(1.0, d + 1.0))
    # the live phase's ratcheted state: most pruned entries tie at exactly 0.0
    ratcheted = distinct.copy()
    ratcheted[rng.choice(d, size=25, replace=False)] = 0.0
    repeated = np.round(rng.uniform(0.0, 3.0, size=d))
    for scores in (distinct, ratcheted, repeated):
        ordered = np.sort(scores)
        seen = set()
        for p in [0.0, 1.0] + [(k + 0.5) / d for k in range(d)]:
            k, tau = sorted_threshold(ordered, p)
            assert (k, tau) == _partition_threshold(scores, p)
            assert prune_threshold(scores, p) == (k, tau)
            seen.add(k)
        assert seen == set(range(d + 1))
        assert sorted_threshold(ordered, 0.0) == (0, float("-inf"))
    assert sorted_threshold(np.sort(ratcheted), 0.5)[1] == 0.0
    for bad in (-0.1, 1.1):
        with pytest.raises(UsageError):
            sorted_threshold(np.sort(distinct), bad)
