import hashlib
import pickle

import numpy as np
import pytest

from policyprune.adapters import (
    FrozenBackbone,
    MergedAdapterSet,
    SiteFactors,
    matrix,
    merge_adapter_sets,
)
from policyprune.container import ContainerHeader, load_merged, save_merged, write_container
from policyprune.errors import DimensionError, UsageError
from policyprune.training import LoraConfig, init_adapter_factors


def _set(*sites) -> MergedAdapterSet:
    """A set of (site_id, a, b) triples."""
    return MergedAdapterSet(SiteFactors(sid, np.asarray(a, float), np.asarray(b, float))
                            for sid, a, b in sites)


def _random_sets(rng, ranks, site_ids=("q",), d_in=6, d_out=4):
    return [_set(*((sid, rng.normal(size=(r, d_in)), rng.normal(size=(d_out, r)))
                   for sid in site_ids)) for r in ranks]


def test_lora_delta_rank2_scaled_hand_value(tmp_path):
    # raw LoRA factors at alpha/rank = 2 read back as a set whose b @ a is
    # the adapter's delta, 2 * B @ A
    path = tmp_path / "raw.ckpt"
    header = ContainerHeader(kind="source", sites=["v"], ranks={"v": 2}, alphas={"v": 4.0})
    write_container(path, header, [("v.A", np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])),
                                   ("v.B", np.array([[1.0, 2.0], [3.0, 4.0]]))])
    loaded, _header = load_merged(path)
    (site,) = loaded.sites
    expected = np.array([[2.0, 4.0, 8.0], [6.0, 8.0, 20.0]])
    np.testing.assert_array_equal(site.b @ site.a, expected)


def test_merge_product_equals_sum_of_deltas():
    s1 = _set(("q", [[2.0, 3.0]], [[1.0], [0.0]]))
    s2 = _set(("q", [[8.0, -8.0]], [[0.5], [2.0]]))
    merged = merge_adapter_sets([s1, s2], ["q"])
    (m,) = merged.sites
    expected = np.array([[6.0, -1.0], [16.0, -16.0]])
    np.testing.assert_array_equal(m.b @ m.a, expected)
    np.testing.assert_array_equal(
        m.b @ m.a, sum(s.sites[0].b @ s.sites[0].a for s in (s1, s2))
    )


def test_merge_random_adapters_matches_dense_sum():
    sets = _random_sets(np.random.default_rng(11), ranks=(2, 3))
    (m,) = merge_adapter_sets(sets, ["q"]).sites
    assert m.a.shape == (5, 6) and m.b.shape == (4, 5)
    dense = sum(s.sites[0].b @ s.sites[0].a for s in sets)
    np.testing.assert_allclose(m.b @ m.a, dense, atol=1e-10)


def test_merge_order_does_not_change_product():
    sets = _random_sets(np.random.default_rng(5), ranks=(2, 2), site_ids=("q", "v"))
    forward = merge_adapter_sets(sets, ["q", "v"])
    backward = merge_adapter_sets(sets[::-1], ["q", "v"])
    for m1, m2 in zip(forward.sites, backward.sites, strict=True):
        np.testing.assert_allclose(m1.b @ m1.a, m2.b @ m2.a, atol=1e-12)


def test_merge_rejects_mismatched_sites_and_dims():
    q = _set(("q", [[1.0, 0.0]], [[1.0], [1.0]]))
    v = _set(("v", [[1.0, 0.0]], [[1.0], [1.0]]))
    with pytest.raises(UsageError, match="no adapters to merge at site 'q'"):
        merge_adapter_sets([v], ["q"])
    with pytest.raises(UsageError):
        merge_adapter_sets([], ["q"])
    wide = _set(("q", [[1.0, 0.0, 0.0]], [[1.0], [1.0]]))
    tall = _set(("q", [[1.0, 0.0]], [[1.0], [1.0], [1.0]]))
    for other in (wide, tall):
        with pytest.raises(DimensionError):
            merge_adapter_sets([q, other], ["q"])


def test_merged_set_tensor_ids_run_in_site_order():
    sets = _random_sets(np.random.default_rng(3), ranks=(1, 1), site_ids=("q", "v"),
                        d_in=3, d_out=2)
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


def test_every_merged_set_is_one_arena_of_views(tmp_path):
    rng = np.random.default_rng(4)
    sets = _random_sets(rng, ranks=(2, 2), site_ids=("q", "v"), d_in=5, d_out=3)
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
