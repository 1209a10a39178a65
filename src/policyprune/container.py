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
Every checkpoint, a trained adapter set or a merge, holds a
`MergedAdapterSet`: `save_merged` writes each site's A/B pair with
alpha = rank, and `load_merged` folds alpha/rank into A, a factor of
exactly 1 for what `save_merged` writes and LoRA's scale for a checkpoint
that recorded raw factors with their own alpha.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .adapters import MergedAdapterSet, SiteFactors, matrix
from .errors import DimensionError, StorageError, UsageError, require_positive_int, require_real
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
        return canonical_json(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "ContainerHeader":
        """The header as its JSON says it: ranks and alphas keep their JSON
        types, which `load_merged` checks per site."""
        import json

        try:
            raw = json.loads(text)
            return cls(
                kind=raw["kind"],
                sites=list(raw["sites"]),
                ranks=dict(raw["ranks"].items()),
                alphas=dict(raw["alphas"].items()),
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


def save_merged(
    path,
    merged: MergedAdapterSet,
    kind: str,
    seed: int | None,
    config_hash: str | None = None,
) -> None:
    """Write one A/B record pair per site with alpha = rank, so the fold
    `load_merged` applies is exactly 1."""
    header = ContainerHeader(
        kind=kind,
        sites=[s.site_id for s in merged.sites],
        ranks={s.site_id: s.a.shape[0] for s in merged.sites},
        alphas={s.site_id: float(s.a.shape[0]) for s in merged.sites},
        seed=seed,
        config_hash=config_hash,
    )
    write_container(path, header, [
        (f"{s.site_id}.{factor}", m)
        for s in merged.sites for factor, m in (("A", s.a), ("B", s.b))
    ])


def load_merged(path) -> tuple[MergedAdapterSet, ContainerHeader]:
    """Every site's factors with alpha/rank folded into A. A site the header
    lists twice, a record name written twice, a record no site owns, and a
    record the header does not describe are storage errors naming the
    file."""
    header, tensors = read_container(path)
    sites, names = header.sites, [name for name, _ in tensors]
    if any(type(sid) is not str for sid in sites) or len(set(sites)) != len(sites):
        raise StorageError(f"checkpoint {path}: sites {sites!r} are not distinct names")
    owned = {f"{sid}.{factor}" for sid in sites for factor in "AB"}
    if len(set(names)) != len(names) or not owned.issuperset(names):
        raise StorageError(
            f"checkpoint {path}: records {names!r} are not at most one A and one B "
            f"per site of {sites!r}"
        )
    by_name = dict(tensors)
    factors = []
    for sid in sites:
        try:
            a, b = matrix(by_name[f"{sid}.A"]), matrix(by_name[f"{sid}.B"])
            rank, alpha = header.ranks[sid], header.alphas[sid]
            require_positive_int("rank", rank)
            if a.shape[0] != rank or b.shape[1] != rank:
                raise DimensionError(
                    f"A rows ({a.shape[0]}) and B cols ({b.shape[1]}) must both "
                    f"equal rank {rank}"
                )
            # a JSON number, not a bool or a string; an int past the float
            # range overflows in the fold below
            require_real("alpha", alpha)
            if not 0 < alpha < math.inf:
                raise UsageError(f"alpha must be a positive finite number, got {alpha!r}")
            factors.append(SiteFactors(sid, alpha / rank * a, b))
        except (KeyError, OverflowError, DimensionError, UsageError) as exc:
            raise StorageError(
                f"checkpoint {path}: site {sid!r} has a missing or malformed "
                f"factor, rank or alpha ({exc!r})"
            ) from exc
    return MergedAdapterSet(factors), header


# the name `cli` writes the source and target checkpoints under, so
# perfbench traces those writes apart from the merged ones
save_adapters = save_merged
