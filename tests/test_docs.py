"""README's code and names stay true to the package.

Every backticked name in the "Key entry points" table's first column must
resolve: a dotted `module.name` in the `policyprune` package, or a bare
name, which belongs to the module named before it in the same row. A
renamed or deleted function then fails here instead of leaving a stale row.
The "Library quickstart" block runs as written, the INI block is the stock
config with every key on its own line, and the "Demos" section names
exactly the scripts under `demos/`.
"""

import importlib
import re
from pathlib import Path

from policyprune import configio
from policyprune.configio import load_run_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _section(readme: str, heading: str) -> str:
    """The text under `## heading`, up to the next `## ` heading."""
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


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


def test_the_library_quickstart_runs(capsys):
    quickstart = _section(README.read_text(encoding="utf-8"), "Library quickstart")
    block = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    p_star, losses, fraction = capsys.readouterr().out.splitlines()
    assert 0.0 < float(p_star) < 1.0 and 0.0 < float(fraction) < 1.0
    assert all(float(loss) > 0.0 for loss in losses.split())


def test_the_readme_ini_block_is_the_stock_config(tmp_path):
    block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    assert load_run_config(path, env={}) == load_run_config(env={})
    sections = dict(re.findall(r"^\[(\w+)\]\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
    missing = [
        f"[{section}] {key}"
        for section, keys in configio._KEYS.items() for key in keys
        if not re.search(rf"^{key} =", sections.get(section, ""), re.M)
    ]
    assert missing == []


def test_the_demos_section_names_every_demo():
    demos = _section(README.read_text(encoding="utf-8"), "Demos")
    assert sorted(re.findall(r"^- `([^`]+\.py)`", demos, re.M)) == sorted(
        p.name for p in (ROOT / "demos").glob("*.py"))
