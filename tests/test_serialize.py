"""Canonical JSON: the encode-first fast path gives the sanitize-first text."""

import json

import numpy as np
import pytest

from policyprune.serialize import _sanitize, canonical_json

NAN, INF = float("nan"), float("inf")


def _sanitize_first(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@pytest.mark.parametrize(
    "obj",
    [
        {"b": 0.1, "a": [1.5, -2.0, 1e-300, 5e-324, 1.7976931348623157e308], "c": 3},
        {"loss": NAN, "ok": True, "none": None},
        [INF, -INF, 0.0, -0.0],
        {"t": (1.0, (2.0, NAN)), "l": [[{"z": -INF, "y": (3, "s")}]], "d": {"k": {}}},
        (0.25, [INF], {"x": (NAN,)}),
        {"f": np.float64(0.1), "g": np.float64("nan"), "h": [np.float64(-np.inf)]},
    ],
    ids=["finite", "nan", "infinities", "nested", "tuple-top", "float64"],
)
def test_fast_path_equals_the_sanitize_first_form(obj):
    assert canonical_json(obj) == _sanitize_first(obj)
