"""Self-describing binary checkpoint container for adapter tensors.

Layout:

    8 bytes   magic b"ADPACK01"
    8 bytes   header length, unsigned little-endian
    N bytes   header: canonical JSON (kind, sites, ranks, alphas, seed,
              config_hash, tensor names in order)
    records   one per tensor, in header order:
                u32 name length, name utf-8,
                u32 rows, u32 cols,
                rows*cols float64 little-endian row-major

Round-trips are bit-exact: write -> read -> write produces identical bytes.
A merged checkpoint is an adapter checkpoint: each site's stacked factor
pair is one adapter record whose alpha equals the stacked rank, i.e. an
effective scale of exactly 1, because constituent scalings were folded in
at merge time. Both kinds are written by one record writer and read by
`load_adapters`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .adapters import LoraAdapter, MergedAdapterSet, SiteFactors
from .errors import DimensionError, StorageError, UsageError
from .serialize import canonical_json

MAGIC = b"ADPACK01"


@dataclass
class ContainerHeader:
    kind: str
    sites: list[str]
    ranks: dict[str, int]
    alphas: dict[str, float]
    seed: int | None = None
    config_hash: str | None = None
    tensor_names: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return canonical_json({
            **self.__dict__,
            "ranks": {k: int(v) for k, v in self.ranks.items()},
            "alphas": {k: float(v) for k, v in self.alphas.items()},
        })

    @classmethod
    def from_json(cls, text: str) -> "ContainerHeader":
        import json

        try:
            raw = json.loads(text)
            return cls(
                kind=raw["kind"],
                sites=list(raw["sites"]),
                ranks={k: int(v) for k, v in raw["ranks"].items()},
                alphas={k: float(v) for k, v in raw["alphas"].items()},
                seed=raw["seed"],
                config_hash=raw["config_hash"],
                tensor_names=list(raw["tensor_names"]),
            )
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            raise StorageError(f"malformed container header: {exc}") from exc


def write_container(
    path, header: ContainerHeader, tensors: list[tuple[str, np.ndarray]]
) -> None:
    header.tensor_names = [name for name, _ in tensors]
    header_bytes = header.to_json().encode("utf-8")
    try:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(header_bytes)))
            f.write(header_bytes)
            for name, arr in tensors:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                if arr.ndim != 2:
                    raise StorageError(
                        f"tensor {name!r} must be 2-D, got ndim={arr.ndim}"
                    )
                name_bytes = name.encode("utf-8")
                f.write(struct.pack("<I", len(name_bytes)))
                f.write(name_bytes)
                f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
                f.write(arr.astype("<f8", copy=False).tobytes(order="C"))
    except OSError as exc:
        raise StorageError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_exact(f, n: int, what: str, size: int) -> bytes:
    """n bytes of the `size`-byte file `f`; a length larger than what is
    left is a storage error before any read, so it never allocates."""
    data = f.read(n) if n <= size - f.tell() else b""
    if len(data) != n:
        raise StorageError(f"truncated container: expected {n} bytes for {what}")
    return data


def _read_text(f, n: int, what: str, size: int) -> str:
    """`_read_exact`'s n bytes decoded as UTF-8; bytes that do not decode
    are a storage error."""
    try:
        return _read_exact(f, n, what, size).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StorageError(f"malformed container: {what} is not UTF-8 ({exc})") from exc


def read_container(path) -> tuple[ContainerHeader, list[tuple[str, np.ndarray]]]:
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot open checkpoint {path}: {exc}") from exc
    with f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise StorageError(f"{path} is not an adapter container (bad magic)")
        (header_len,) = struct.unpack("<Q", _read_exact(f, 8, "header length", size))
        header = ContainerHeader.from_json(_read_text(f, header_len, "header", size))
        tensors = []
        for expect_name in header.tensor_names:
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, "name length", size))
            name = _read_text(f, name_len, "tensor name", size)
            if name != expect_name:
                raise StorageError(
                    f"container record order mismatch: header says "
                    f"{expect_name!r}, file has {name!r}"
                )
            rows, cols = struct.unpack("<II", _read_exact(f, 8, "tensor shape", size))
            data = _read_exact(f, rows * cols * 8, f"tensor {name!r}", size)
            arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols)
            tensors.append((name, arr.astype(np.float64).copy(order="C")))
        if f.read(1):
            raise StorageError(f"{path} has trailing bytes after last tensor")
    return header, tensors


def _write_adapter_records(path, sites, kind, seed, config_hash) -> None:
    """Write one A/B record pair per (site_id, a, b, alpha); rank is A's rows."""
    header = ContainerHeader(
        kind=kind,
        sites=[sid for sid, _a, _b, _alpha in sites],
        ranks={sid: a.shape[0] for sid, a, _b, _alpha in sites},
        alphas={sid: alpha for sid, _a, _b, alpha in sites},
        seed=seed,
        config_hash=config_hash,
    )
    write_container(path, header, [
        (f"{sid}.{factor}", m)
        for sid, a, b, _alpha in sites for factor, m in (("A", a), ("B", b))
    ])


def save_adapters(
    path,
    adapters: list[LoraAdapter],
    kind: str,
    seed: int | None = None,
    config_hash: str | None = None,
) -> None:
    """Write one adapter per site as raw (unscaled) A/B factor records."""
    _write_adapter_records(
        path, [(ad.site_id, ad.a, ad.b, ad.alpha) for ad in adapters],
        kind, seed, config_hash,
    )


def load_adapters(path) -> tuple[list[LoraAdapter], ContainerHeader]:
    """Every site's adapter; a record the header does not describe is a
    storage error naming the file and the site."""
    header, tensors = read_container(path)
    by_name = dict(tensors)
    adapters = []
    for sid in header.sites:
        try:
            adapters.append(LoraAdapter(
                sid, a=by_name[f"{sid}.A"], b=by_name[f"{sid}.B"],
                rank=header.ranks[sid], alpha=header.alphas[sid],
            ))
        except (KeyError, DimensionError, UsageError) as exc:
            raise StorageError(
                f"checkpoint {path}: site {sid!r} has a missing or malformed "
                f"factor, rank or alpha ({exc!r})"
            ) from exc
    return adapters, header


def save_merged(
    path,
    merged: MergedAdapterSet,
    kind: str = "merged",
    seed: int | None = None,
    config_hash: str | None = None,
) -> None:
    """Write the stacked factors as adapter records with alpha = rank, so
    alpha/rank is exactly 1: the scalings were folded in at merge time."""
    _write_adapter_records(
        path, [(s.site_id, s.a, s.b, float(s.a.shape[0])) for s in merged.sites],
        kind, seed, config_hash,
    )


def load_merged(path) -> tuple[MergedAdapterSet, ContainerHeader]:
    """An adapter checkpoint as stacked factors, alpha/rank folded into A
    (a factor of exactly 1 for what `save_merged` wrote)."""
    adapters, header = load_adapters(path)
    return MergedAdapterSet(
        SiteFactors(ad.site_id, ad.scale * ad.a, ad.b) for ad in adapters
    ), header
