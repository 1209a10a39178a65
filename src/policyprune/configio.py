"""Run configuration: defaults, INI config files, flag overrides, hashing.

Precedence is fixed: built-in defaults, then the config file, then
command-line flags. Every value lives in one of six INI sections, listed
once in the ``_SECTIONS`` table: ``[task]``, ``[lora]``, ``[training]`` and
``[controller]`` map to their config dataclasses, ``[grid]`` to
``GridSpec``, and ``[run]`` to the ``RunConfig`` fields that are not
sections (``seeds``, ``out``). A section's keys are exactly those fields,
and each value is parsed by a converter chosen by the field's annotation;
parsing, rendering and hashing all walk that one table. Unknown sections or
keys are usage errors rather than silent no-ops, so a typo cannot quietly
run the defaults.

``config_hash`` fingerprints the pipeline-relevant sections only: the seed
list and output directory say where a run lands, not what it computes, so
two runs of the same experiment at different seeds or paths share a hash
while any change to task, adapter, training, controller, or grid settings
produces a new one. ``render_ini`` writes the fully resolved configuration
back out, less the output directory, so every run directory records the
exact values it ran with and its bytes do not depend on where it sits.

Every default lives on its dataclass, and every config dataclass checks
its values when it is built, `dataclasses.replace` included, so a config
that exists is valid. `RunConfig` adds the checks that span sections.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import os
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import GridSpec, require_seeds
from .controller import ControllerConfig
from .errors import StorageError, UsageError
from .serialize import canonical_json, sha256_text
from .toytask import ToyTaskConfig
from .training import LoraConfig, TrainConfig, total_steps
from .training import require_microdev_fits, require_round_fits

__all__ = [
    "DEFAULT_SEEDS",
    "OUT_ENV_VAR",
    "DEFAULT_OUT",
    "RunConfig",
    "load_run_config",
    "config_hash",
    "render_ini",
]

DEFAULT_SEEDS: tuple[int, ...] = (42, 1337, 9001)
OUT_ENV_VAR = "POLICYPRUNE_OUT"
DEFAULT_OUT = "runs"


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: per-phase configs, seeds, output root."""

    task: ToyTaskConfig = field(default_factory=ToyTaskConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    out: str = DEFAULT_OUT

    @property
    def seed(self) -> int:
        """Primary seed: single-run subcommands use the first of the list."""
        return self.seeds[0]

    def __post_init__(self) -> None:
        require_seeds(self.seeds)
        for s in self.seeds:
            if type(s) is not int or s < 0:  # a bool is not a seed
                raise UsageError(f"seeds must be non-negative integers, got {s!r}")
        if not self.out:
            raise UsageError("output directory must not be empty")
        ctrl, task = self.controller, self.task
        require_microdev_fits(ctrl.microdev_n, task.microdev_n)
        require_round_fits(ctrl.round_every, total_steps(self.training, task.target_train_n))


# --- the section table ------------------------------------------------------

# Each INI section and the dataclass whose fields are its keys; `[run]` holds
# the RunConfig fields that are not sections themselves.
_SECTIONS: dict[str, type] = {
    "task": ToyTaskConfig,
    "lora": LoraConfig,
    "training": TrainConfig,
    "controller": ControllerConfig,
    "grid": GridSpec,
    "run": RunConfig,
}
_KEYS = {  # section -> key -> field annotation
    section: {f.name: f.type for f in dataclasses.fields(cls) if f.name not in _SECTIONS}
    for section, cls in _SECTIONS.items()
}


def _values(cfg: RunConfig, section: str) -> dict:
    obj = cfg if section == "run" else getattr(cfg, section)
    return {name: getattr(obj, name) for name in _KEYS[section]}


def _to_opt_int(raw: str) -> int | None:
    # `none`, the spelling `render_ini` writes, is the one way to say no value
    return None if raw.strip() == "none" else int(raw)


def _to_list(conv, raw: str) -> tuple:
    # an empty list is left to the config's own check (seeds, grid ratios)
    return tuple(conv(p) for p in raw.split(",") if p.strip())


# keyed by field annotation, which deferred annotations keep as strings
_CONVERTERS = {
    "int": int,
    "float": float,
    "int | None": _to_opt_int,
    "str": str.strip,
    "tuple[int, ...]": functools.partial(_to_list, int),
    "tuple[float, ...]": functools.partial(_to_list, float),
}


def _parse_ini(text: str) -> dict[str, dict]:
    """Section → key → converted value; unknown names and bad values are
    usage errors."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"config file is not valid INI: {exc}") from exc
    valid_sections = f"[{'], ['.join(_SECTIONS)}]"
    if cp.defaults():
        raise UsageError(
            f"config values must live under a section header ({valid_sections}), "
            f"found top-level keys {sorted(cp.defaults())}"
        )
    out: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise UsageError(
                f"unknown config section [{section}]; valid sections are "
                f"{valid_sections}"
            )
        keys = _KEYS[section]
        out[section] = {}
        for key, raw in cp[section].items():
            if key not in keys:
                raise UsageError(
                    f"unknown key {key!r} in [{section}]; valid keys are "
                    f"{', '.join(keys)}"
                )
            try:
                out[section][key] = _CONVERTERS[keys[key]](raw)
            except ValueError as exc:
                raise UsageError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})"
                ) from exc
    return out


def _ini_fields(text: str) -> dict:
    """The `RunConfig` fields an INI document sets: `[run]` keys as they
    are, every other section as its config built from the document's keys
    over the defaults."""
    resolved: dict = {}
    for section, overrides in _parse_ini(text).items():
        if section == "run":
            resolved.update(overrides)
        else:
            resolved[section] = _SECTIONS[section](**overrides)
    return resolved


def load_run_config(
    path=None,
    *,
    seed: int | None = None,
    out: str | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Resolve a full run configuration.

    `path` is an optional INI file; `seed` and `out` are the command-line
    overrides and win over the file. With no file the defaults run as-is.
    The environment variable named by `OUT_ENV_VAR` supplies the default
    output root, below the file and flags in precedence. The `RunConfig`
    is built once from the resolved values, so a file value that a flag
    overrides is never checked.
    """
    environ = os.environ if env is None else env
    resolved = {"out": environ.get(OUT_ENV_VAR, DEFAULT_OUT)}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise UsageError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise StorageError(f"cannot read config file {p}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file {p} is not UTF-8 text: {exc}") from exc
        resolved.update(_ini_fields(text))
    if seed is not None:
        resolved["seeds"] = (int(seed),)
    if out is not None:
        resolved["out"] = str(out)
    return RunConfig(**resolved)


# --- hashing and rendering -------------------------------------------------


def config_hash(cfg: RunConfig) -> str:
    """Content hash of the pipeline sections (seeds and out excluded)."""
    return sha256_text(canonical_json(
        {section: _values(cfg, section) for section in _SECTIONS if section != "run"}
    ))


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def render_ini(cfg: RunConfig) -> str:
    """The fully resolved configuration as INI text, less the output root.

    `load_run_config` on the rendered text reproduces `cfg` exactly except
    for `out` (floats are written with `repr`, which round-trips). The root
    says where a run lands, not what it computes, so leaving it out keeps
    the text the same under any `--out`.
    """
    lines = [f"# resolved run configuration; content hash {config_hash(cfg)}", ""]
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        lines += [f"{k} = {_fmt(v)}" for k, v in _values(cfg, section).items()
                  if (section, k) != ("run", "out")]
        lines.append("")
    return "\n".join(lines)
