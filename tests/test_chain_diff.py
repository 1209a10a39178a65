"""The chain-diff tool's tree comparison, on hand-made directories."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import chain_diff  # noqa: E402


@pytest.fixture()
def trees(tmp_path):
    """Two identical trees, with a nested directory as a phase has."""
    roots = tmp_path / "parent", tmp_path / "change"
    for root in roots:
        (root / "adapters").mkdir(parents=True)
        (root / "adapters" / "manifest.json").write_bytes(b'{"seed":42}\n')
        (root / "grid.csv").write_bytes(b"p,dev_loss\n0.1,0.5\n")
    return roots


def test_identical_trees_have_no_differences(trees):
    assert chain_diff.tree_diff(*trees) == []


def test_one_changed_byte_is_a_difference(trees):
    parent, change = trees
    (change / "adapters" / "manifest.json").write_bytes(b'{"seed":43}\n')
    assert chain_diff.tree_diff(parent, change) == ["differs: adapters/manifest.json"]


def test_an_extra_file_is_a_difference(trees):
    parent, change = trees
    (change / "adapters" / "extra.ckpt").write_bytes(b"")
    assert chain_diff.tree_diff(parent, change) == ["only in change: adapters/extra.ckpt"]


def test_a_missing_file_is_a_difference(trees):
    parent, change = trees
    (change / "grid.csv").unlink()
    assert chain_diff.tree_diff(parent, change) == ["only in parent: grid.csv"]
