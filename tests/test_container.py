import struct

import numpy as np
import pytest

from policyprune.adapters import MergedAdapterSet, SiteFactors
from policyprune.container import (
    MAGIC,
    ContainerHeader,
    load_merged,
    read_container,
    save_merged,
    write_container,
)
from policyprune.errors import StorageError


def _adapters(rng):
    return MergedAdapterSet(
        SiteFactors(sid, rng.normal(size=(2, 5)), rng.normal(size=(4, 2)))
        for sid in ("q", "v")
    )


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    ads = _adapters(rng)
    p1, p2 = tmp_path / "a.adpk", tmp_path / "b.adpk"
    save_merged(p1, ads, kind="source", seed=42, config_hash="ab" * 32)
    loaded, header = load_merged(p1)
    save_merged(p2, loaded, kind=header.kind, seed=header.seed,
                config_hash=header.config_hash)
    assert p1.read_bytes() == p2.read_bytes()


def test_values_survive_exactly(tmp_path):
    rng = np.random.default_rng(1337)
    ads = _adapters(rng)
    path = tmp_path / "c.adpk"
    save_merged(path, ads, kind="target")
    loaded, header = load_merged(path)
    assert header.kind == "target"
    assert header.sites == ["q", "v"]
    assert header.ranks == {"q": 2, "v": 2}
    assert header.alphas == {"q": 2.0, "v": 2.0}
    assert header.seed is None and header.config_hash is None
    for orig, back in zip(ads.sites, loaded.sites):
        np.testing.assert_array_equal(orig.a, back.a)
        np.testing.assert_array_equal(orig.b, back.b)
        assert back.a.flags["C_CONTIGUOUS"] and back.a.dtype == np.float64


def test_merged_round_trip_preserves_checksum(tmp_path):
    rng = np.random.default_rng(9001)
    merged = MergedAdapterSet(
        [
            SiteFactors("q", rng.normal(size=(4, 5)), rng.normal(size=(3, 4))),
            SiteFactors("v", rng.normal(size=(4, 5)), rng.normal(size=(3, 4))),
        ]
    )
    path = tmp_path / "m.adpk"
    save_merged(path, merged, seed=7, config_hash="00" * 32)
    back, header = load_merged(path)
    assert back.checksum() == merged.checksum()
    assert header.kind == "merged"
    # merged factors carry scale 1: alpha equals the stacked rank
    assert header.alphas == {"q": 4.0, "v": 4.0}
    # loaded arrays are private copies, not views of a shared read buffer
    back.sites[0].a[0, 0] += 1.0
    reread, _ = load_merged(path)
    assert reread.checksum() == merged.checksum()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.adpk"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(StorageError, match="magic"):
        read_container(path)


def test_rejects_truncation(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "t.adpk"
    save_merged(path, _adapters(rng), kind="source")
    whole = path.read_bytes()
    for cut in (len(MAGIC) + 4, len(whole) // 2, len(whole) - 5):
        path.write_bytes(whole[:cut])
        with pytest.raises(StorageError):
            read_container(path)


def test_rejects_trailing_garbage(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "g.adpk"
    save_merged(path, _adapters(rng), kind="source")
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(StorageError, match="trailing"):
        read_container(path)


def test_missing_file_is_storage_error(tmp_path):
    with pytest.raises(StorageError, match="cannot open"):
        read_container(tmp_path / "nope.adpk")


_DEFECTS = {  # defect -> (ranks, alphas, records written, NaN in A, header sites)
    "nan_factor": ({"q": 2}, {"q": 2.0}, ("q.A", "q.B"), True, ["q"]),
    "missing_rank": ({}, {"q": 2.0}, ("q.A", "q.B"), False, ["q"]),
    "zero_rank": ({"q": 0}, {"q": 2.0}, ("q.A", "q.B"), False, ["q"]),
    "rank_mismatch": ({"q": 3}, {"q": 2.0}, ("q.A", "q.B"), False, ["q"]),
    "missing_alpha": ({"q": 2}, {}, ("q.A", "q.B"), False, ["q"]),
    "missing_record": ({"q": 2}, {"q": 2.0}, ("q.A",), False, ["q"]),
    # the header's JSON types are kept, so none of these is coerced to a rank
    # of 2 or an alpha of 1.0 or 4.0
    "float_rank": ({"q": 2.7}, {"q": 2.0}, ("q.A", "q.B"), False, ["q"]),
    "bool_rank": ({"q": True}, {"q": 2.0}, ("q.A", "q.B"), False, ["q"]),
    "bool_alpha": ({"q": 2}, {"q": True}, ("q.A", "q.B"), False, ["q"]),
    "string_alpha": ({"q": 2}, {"q": "4"}, ("q.A", "q.B"), False, ["q"]),
    "alpha_past_float_range": ({"q": 2}, {"q": 10**400}, ("q.A", "q.B"), False, ["q"]),
    # a site listed twice would add its term to every forward twice; a
    # repeated record would let the last one win; a record no site owns
    # would be dropped unread
    "site_listed_twice": ({"q": 2}, {"q": 2.0}, ("q.A", "q.B"), False, ["q", "q"]),
    "site_not_a_name": ({"q": 2}, {"q": 2.0}, ("q.A", "q.B"), False, [["q"]]),
    "record_written_twice": ({"q": 2}, {"q": 2.0}, ("q.A", "q.A", "q.B"), False, ["q"]),
    "record_of_no_site": ({"q": 2}, {"q": 2.0}, ("q.A", "q.B", "junk.A"), False, ["q"]),
}


@pytest.mark.parametrize("defect", list(_DEFECTS))
def test_malformed_adapter_records_are_storage_errors(tmp_path, defect):
    ranks, alphas, written, nan, sites = _DEFECTS[defect]
    a, b = np.ones((2, 3)), np.ones((4, 2))
    if nan:
        a[0, 1] = np.nan
    path = tmp_path / "bad.ckpt"
    header = ContainerHeader(kind="merged", sites=sites, ranks=ranks, alphas=alphas)
    write_container(path, header, [(n, a if n.endswith(".A") else b) for n in written])
    with pytest.raises(StorageError) as err:
        load_merged(path)
    assert str(path) in str(err.value) and "'q'" in str(err.value)


def test_header_with_a_mistyped_field_is_a_storage_error(tmp_path):
    head = (b'{"alphas":{"q":2.0},"config_hash":null,"kind":"merged","ranks":[2],'
            b'"seed":null,"sites":["q"],"tensor_names":[]}')
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(head)) + head)
    with pytest.raises(StorageError, match="malformed container header"):
        read_container(path)


@pytest.mark.parametrize("field", ["header", "tensor name"])
def test_bytes_that_are_not_utf8_are_storage_errors(tmp_path, field):
    names = ["q.A"] if field == "header" else ["q.\u00e9"]
    head = ContainerHeader(kind="merged", sites=["q"], ranks={"q": 2}, alphas={"q": 2.0},
                           tensor_names=names).to_json().encode("utf-8")
    name = "q.\u00e9".encode("latin-1")  # a lone 0xe9 byte does not decode
    if field == "header":
        head = head.replace(b"q.A", name)
    blob = (MAGIC + struct.pack("<Q", len(head)) + head + struct.pack("<I", len(name)) + name
            + struct.pack("<II", 1, 1) + b"\0" * 8)
    path = tmp_path / "latin1.ckpt"
    path.write_bytes(blob)
    with pytest.raises(StorageError, match=f"{field} is not UTF-8"):
        read_container(path)


@pytest.mark.parametrize("claim", ["header_length", "tensor_shape"])
def test_lengths_larger_than_the_file_are_storage_errors(tmp_path, claim):
    """Lengths are checked against the bytes left in the file before any
    read; both claims here are too large to allocate at all."""
    head = ContainerHeader(kind="merged", sites=["q"], ranks={"q": 2}, alphas={"q": 2.0},
                           tensor_names=["q.A", "q.B"]).to_json().encode("utf-8")
    if claim == "header_length":
        blob = MAGIC + struct.pack("<Q", 2**62) + head
    else:
        blob = (MAGIC + struct.pack("<Q", len(head)) + head
                + struct.pack("<I", 3) + b"q.A" + struct.pack("<II", 2**31, 2**31) + b"\0" * 64)
    path = tmp_path / "huge.ckpt"
    path.write_bytes(blob)
    with pytest.raises(StorageError, match="truncated container"):
        load_merged(path)
