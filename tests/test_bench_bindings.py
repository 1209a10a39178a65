"""The benchmark's traced pass patches package names from outside.

`perfbench/spans.py` lists, per traced layer, the (module, attribute)
bindings it replaces; its install step crashes if a refactor drops one.
This test reads those tables without importing the benchmark and checks
that every binding still resolves.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tables() -> dict[str, object]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
    }


def test_every_benchmark_binding_resolves():
    tables = _tables()
    bindings = [site for sites in tables["SPANNED"].values() for site in sites]
    bindings += list(tables["COUNTED"].values())
    assert ("cli", "train_adapter") in bindings
    assert ("adapters", "MergedAdapterSet.tensors") in bindings
    missing = []
    for mod, attr in bindings:
        owner = importlib.import_module(f"policyprune.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    assert missing == []
