"""Every name a package module imports is used there, exported in its
`__all__`, or a binding the benchmark's traced pass patches in it.

An import that none of these explains is left over, typically from a
deleted helper. The benchmark's tables are read from `perfbench/spans.py`
the way `test_bench_bindings.py` reads them, without importing it.
"""

import ast
from pathlib import Path

from test_bench_bindings import _tables

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "policyprune"


def _patched_bindings() -> set[tuple[str, str]]:
    tables = _tables()
    sites = [site for sites in tables["SPANNED"].values() for site in sites]
    return {tuple(site) for site in sites + list(tables["COUNTED"].values())}


def _unexplained_imports(source: str, kept: set[str]) -> list[str]:
    """Names `source` imports and never loads, exports or lists in `kept`."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in loaded | exported | kept
    )


def test_every_import_of_every_module_is_used_exported_or_traced():
    patched = _patched_bindings()
    assert ("training", "prune_threshold") in patched
    unexplained = {}
    for path in sorted(PACKAGE.glob("*.py")):
        kept = {attr for mod, attr in patched if mod == path.stem}
        names = _unexplained_imports(path.read_text(encoding="utf-8"), kept)
        if names:
            unexplained[path.name] = names
    assert unexplained == {}


def test_an_import_left_behind_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .masking import build_mask, mask_from_keep, prune_threshold\n"
        "__all__ = ['build_mask']\n"
        "def f():\n"
        "    return np.zeros(1)\n"
    )
    assert _unexplained_imports(source, {"prune_threshold"}) == ["mask_from_keep (line 3)"]
    assert _unexplained_imports(source, set()) == [
        "mask_from_keep (line 3)", "prune_threshold (line 3)",
    ]
