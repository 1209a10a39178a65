import hashlib
import pickle

import numpy as np
import pytest

from policyprune.adapters import (
    FrozenBackbone,
    LoraAdapter,
    matrix,
    merge_adapter_sets,
    merge_adapters,
)
from policyprune.container import load_merged, save_merged
from policyprune.errors import DimensionError, UsageError
from policyprune.training import LoraConfig, init_adapter_factors


def _delta(ad: LoraAdapter) -> np.ndarray:
    """An adapter's dense update, (alpha/rank) * B @ A, as its one-adapter merge."""
    a, b = merge_adapters([ad], ad.site_id)
    return b @ a


def test_lora_delta_rank1_hand_value():
    ad = LoraAdapter("q", a=[[2.0, 3.0]], b=[[1.0], [0.0]], rank=1, alpha=1.0)
    expected = np.array([[2.0, 3.0], [0.0, 0.0]])
    np.testing.assert_array_equal(_delta(ad), expected)


def test_lora_delta_rank2_scaled_hand_value():
    # alpha/rank = 2, so delta = 2 * B @ A
    ad = LoraAdapter(
        "v",
        a=[[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]],
        b=[[1.0, 2.0], [3.0, 4.0]],
        rank=2,
        alpha=4.0,
    )
    expected = np.array([[2.0, 4.0, 8.0], [6.0, 8.0, 20.0]])
    np.testing.assert_array_equal(_delta(ad), expected)


def test_lora_delta_is_sum_of_scaled_outer_products():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(4, 3))
    ad = LoraAdapter("q", a=a, b=b, rank=3, alpha=6.0)
    dense = sum(2.0 * np.outer(b[:, j], a[j]) for j in range(3))
    np.testing.assert_allclose(_delta(ad), dense, atol=1e-12)


def test_merge_product_equals_sum_of_deltas():
    a1 = LoraAdapter("q", a=[[2.0, 3.0]], b=[[1.0], [0.0]], rank=1, alpha=1.0)
    a2 = LoraAdapter("q", a=[[1.0, -1.0]], b=[[0.5], [2.0]], rank=1, alpha=8.0)
    am, bm = merge_adapters([a1, a2], "q")
    expected = np.array([[6.0, -1.0], [16.0, -16.0]])
    np.testing.assert_array_equal(bm @ am, expected)
    np.testing.assert_array_equal(
        bm @ am, a1.scale * (a1.b @ a1.a) + a2.scale * (a2.b @ a2.a)
    )


def test_merge_random_adapters_matches_dense_sum():
    rng = np.random.default_rng(11)
    ads = [
        LoraAdapter(
            "k",
            a=rng.normal(size=(r, 6)),
            b=rng.normal(size=(4, r)),
            rank=r,
            alpha=alpha,
        )
        for r, alpha in [(2, 8.0), (3, 6.0)]
    ]
    am, bm = merge_adapters(ads, "k")
    assert am.shape == (5, 6) and bm.shape == (4, 5)
    dense = sum(ad.scale * (ad.b @ ad.a) for ad in ads)
    np.testing.assert_allclose(bm @ am, dense, atol=1e-10)


def test_merge_order_does_not_change_product():
    rng = np.random.default_rng(5)
    ads = [
        LoraAdapter("q", a=rng.normal(size=(2, 4)), b=rng.normal(size=(3, 2)),
                    rank=2, alpha=4.0)
        for _ in range(2)
    ]
    am1, bm1 = merge_adapters(ads, "q")
    am2, bm2 = merge_adapters(ads[::-1], "q")
    np.testing.assert_allclose(bm1 @ am1, bm2 @ am2, atol=1e-12)


def test_merge_rejects_mismatched_sites_and_dims():
    a1 = LoraAdapter("q", a=[[1.0, 0.0]], b=[[1.0], [1.0]], rank=1, alpha=1.0)
    a2 = LoraAdapter("v", a=[[1.0, 0.0]], b=[[1.0], [1.0]], rank=1, alpha=1.0)
    with pytest.raises(UsageError):
        merge_adapters([a1, a2], "q")
    a3 = LoraAdapter("q", a=[[1.0, 0.0, 0.0]], b=[[1.0], [1.0]], rank=1, alpha=1.0)
    with pytest.raises(DimensionError):
        merge_adapters([a1, a3], "q")
    with pytest.raises(UsageError):
        merge_adapters([], "q")


def test_merged_set_tensor_ids_run_in_site_order():
    rng = np.random.default_rng(3)
    sets = [
        [
            LoraAdapter(sid, a=rng.normal(size=(1, 3)), b=rng.normal(size=(2, 1)),
                        rank=1, alpha=2.0)
            for sid in ("q", "v")
        ]
        for _ in range(2)
    ]
    merged = merge_adapter_sets(sets, ["q", "v"])
    ids = [(tid, sid, fac) for tid, sid, fac, _ in merged.tensors()]
    assert ids == [(1, "q", "A"), (2, "q", "B"), (3, "v", "A"), (4, "v", "B")]
    # copy is deep: mutating the copy leaves the original untouched
    cp = merged.copy()
    cp.sites[0].a[:] = 0.0
    assert not np.array_equal(cp.sites[0].a, merged.sites[0].a)
    assert cp.checksum() != merged.checksum()


def test_backbone_arrays_are_read_only():
    bb = FrozenBackbone(sites=(("q", np.zeros((2, 2))),))
    with pytest.raises(ValueError):
        bb.site("q")[0, 0] = 1.0
    with pytest.raises(UsageError):
        bb.site("nope")


def test_matrix_validation():
    with pytest.raises(DimensionError):
        matrix([1.0, 2.0])
    with pytest.raises(DimensionError):
        matrix(np.zeros((1, 2, 2)))
    with pytest.raises(UsageError):
        matrix([[np.nan, 0.0]])
    m = matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64 and m.flags["C_CONTIGUOUS"]


def test_adapter_shape_invariants():
    with pytest.raises(DimensionError):
        LoraAdapter("q", a=[[1.0, 2.0]], b=[[1.0, 0.0], [0.0, 1.0]], rank=1, alpha=1.0)
    with pytest.raises(UsageError):
        LoraAdapter("q", a=[[1.0, 2.0]], b=[[1.0], [0.0]], rank=0, alpha=1.0)


def test_every_merged_set_is_one_arena_of_views(tmp_path):
    rng = np.random.default_rng(4)
    sets = [
        [
            LoraAdapter(sid, a=rng.normal(size=(2, 5)), b=rng.normal(size=(3, 2)),
                        rank=2, alpha=4.0)
            for sid in ("q", "v")
        ]
        for _ in range(2)
    ]
    merged = merge_adapter_sets(sets, ["q", "v"])
    backbone = FrozenBackbone(
        sites=tuple((sid, rng.normal(size=(3, 5))) for sid in ("q", "v"))
    )
    fresh = init_adapter_factors(backbone, LoraConfig(rank=2), rng)
    save_merged(tmp_path / "m.ckpt", merged)
    loaded, _ = load_merged(tmp_path / "m.ckpt")
    unpickled = pickle.loads(pickle.dumps(merged))
    assert unpickled.checksum() == merged.checksum()
    assert not np.shares_memory(unpickled.flat, merged.flat)
    for m in (merged, fresh, loaded, unpickled):
        assert m.flat.dtype == np.float64 and m.flat.flags.c_contiguous
        # tensor-id order, each factor row-major: the checkpoint's order
        np.testing.assert_array_equal(
            m.flat, np.concatenate([arr.ravel() for _, _, _, arr in m.tensors()])
        )
        for tid, _sid, fac, arr in m.tensors():
            site = m.sites[(tid - 1) // 2]
            assert arr.base is m.flat and getattr(site, fac.lower()) is arr
        before = m.checksum()
        m.sites[-1].a[0, 0] += 1.0
        assert m.checksum() != before
        cp = m.copy()
        assert not np.shares_memory(cp.flat, m.flat)
        assert cp.checksum() == m.checksum()
        # the checksum is SHA-256 over the layout's repr, then the arena
        layout = tuple((s.site_id, s.a.shape, s.b.shape) for s in m.sites)
        for c in (m, cp):
            assert c.checksum() == hashlib.sha256(
                repr(layout).encode() + c.flat.tobytes()
            ).hexdigest()
