"""Canonical JSON and hashing helpers shared by checkpoints, logs, manifests.

Canonical form: sorted keys, compact separators, non-finite floats mapped to
null. Equal inputs always serialize to identical bytes, which is what makes
byte-for-byte rerun checks and container round-trips possible.
"""

from __future__ import annotations

import hashlib
import json
import math


def _sanitize(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN/Inf -> null.
    Sanitizes only if the encoder rejects a non-finite float: same text."""
    try:
        return _ENCODER.encode(obj)
    except ValueError:
        return _ENCODER.encode(_sanitize(obj))


def canonical_json_line(obj) -> str:
    return canonical_json(obj) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
