"""README's "Key entry points" table names objects the package has.

Every backticked name in the table's first column must resolve: a dotted
`module.name` in the `policyprune` package, or a bare name, which belongs to
the module named before it in the same row. A renamed or deleted function
then fails here instead of leaving a stale row.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _entry_point_table(readme: str) -> str:
    return readme.split("Key entry points:\n\n", 1)[1].split("\n\n", 1)[0]


def _unresolved(table: str) -> list[str]:
    """`module.name` for each name of the table's first column that the
    package does not define."""
    missing = []
    for row in table.splitlines()[2:]:  # skip the header and its rule
        module = None
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            if "." in name:
                module, name = name.split(".", 1)
            obj = importlib.import_module(f"policyprune.{module}")
            for part in name.split("."):
                if not hasattr(obj, part):
                    missing.append(f"{module}.{name}")
                    break
                obj = getattr(obj, part)
    return missing


def test_every_key_entry_point_resolves():
    table = _entry_point_table(README.read_text(encoding="utf-8"))
    assert len(table.splitlines()) > 2
    assert _unresolved(table) == []


def test_a_stale_entry_point_is_caught():
    table = (
        "| Where | What |\n| --- | --- |\n"
        "| `training.policy_phase`, `final_phase` | phases 2 and 3 |\n"
        "| `baselines.ablate_regularizers`, `ablate_microdev` | the old sweeps |\n"
        "| `controller.ControllerConfig.p_init`, `controller.nope` | a field |\n"
    )
    assert _unresolved(table) == [
        "baselines.ablate_regularizers", "baselines.ablate_microdev", "controller.nope",
    ]
