"""Run configuration: defaults, INI config files, flag overrides, hashing.

Precedence is fixed: built-in defaults, then the config file, then
command-line flags. Every value lives in one of six INI sections —
``[task]``, ``[lora]``, ``[training]``, ``[controller]``, ``[grid]``,
``[run]`` — whose keys are exactly the field names of the corresponding
config dataclasses (plus ``ratios`` under ``[grid]`` and ``seeds``/``out``
under ``[run]``). Unknown sections or keys are usage errors rather than
silent no-ops, so a typo cannot quietly run the defaults.

``config_hash`` fingerprints the pipeline-relevant sections only: the seed
list and output directory say where a run lands, not what it computes, so
two runs of the same experiment at different seeds or paths share a hash
while any change to task, adapter, training, controller, or grid settings
produces a new one. ``render_ini`` writes the fully resolved configuration
back out so every run directory records the exact values it ran with.

The default LoRA block records ``dropout = 0.05`` (the published recipe's
value); on this deterministic linear trainer dropout is carried and hashed
but is a mathematical no-op.
"""

import configparser
import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from .baselines import GridSpec
from .controller import ControllerConfig
from .errors import StorageError, UsageError
from .serialize import canonical_json, sha256_text
from .toytask import ToyTaskConfig
from .training import LoraConfig, TrainConfig

__all__ = [
    "DEFAULT_SEEDS",
    "OUT_ENV_VAR",
    "DEFAULT_OUT",
    "RunConfig",
    "load_run_config",
    "apply_ini",
    "config_hash",
    "render_ini",
]

DEFAULT_SEEDS: tuple[int, ...] = (42, 1337, 9001)
OUT_ENV_VAR = "POLICYPRUNE_OUT"
DEFAULT_OUT = "runs"


def _default_lora() -> LoraConfig:
    return LoraConfig(dropout=0.05)


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: per-phase configs, seeds, output root."""

    task: ToyTaskConfig = field(default_factory=ToyTaskConfig)
    lora: LoraConfig = field(default_factory=_default_lora)
    training: TrainConfig = field(default_factory=TrainConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    out: str = DEFAULT_OUT

    @property
    def seed(self) -> int:
        """Primary seed: single-run subcommands use the first of the list."""
        return self.seeds[0]

    def validate(self) -> "RunConfig":
        self.task.validate()
        self.lora.validate()
        self.training.validate()
        self.controller.validate()
        self.grid.validate()
        if not self.seeds:
            raise UsageError("seed list must not be empty")
        for s in self.seeds:
            if not isinstance(s, int) or s < 0:
                raise UsageError(f"seeds must be non-negative integers, got {s!r}")
        if not self.out:
            raise UsageError("output directory must not be empty")
        return self


# --- value parsing ---------------------------------------------------------

_BOOL_STATES = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _to_int(raw: str) -> int:
    return int(raw.strip())


def _to_float(raw: str) -> float:
    return float(raw.strip())


def _to_bool(raw: str) -> bool:
    key = raw.strip().lower()
    if key not in _BOOL_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return _BOOL_STATES[key]


def _to_opt_int(raw: str) -> int | None:
    key = raw.strip().lower()
    if key in ("none", "off", ""):
        return None
    return int(key)


# dataclass field annotations are stored as strings (deferred annotations)
_CONVERTERS = {
    "int": _to_int,
    "float": _to_float,
    "bool": _to_bool,
    "int | None": _to_opt_int,
}


def _to_number_list(raw: str, conv, what: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{what} must be a non-empty comma-separated list, got {raw!r}")
    try:
        return tuple(conv(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad {what} entry in {raw!r}: {exc}") from exc


_DATACLASS_SECTIONS: dict[str, type] = {
    "task": ToyTaskConfig,
    "lora": LoraConfig,
    "training": TrainConfig,
    "controller": ControllerConfig,
}


def _known_keys(section: str) -> tuple[str, ...]:
    if section in _DATACLASS_SECTIONS:
        return tuple(f.name for f in dataclasses.fields(_DATACLASS_SECTIONS[section]))
    if section == "grid":
        return ("ratios",)
    if section == "run":
        return ("seeds", "out")
    raise KeyError(section)


def _parse_ini(text: str) -> dict[str, dict[str, str]]:
    """Raw section → key → string, with unknown names rejected up front."""
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise UsageError(f"config file is not valid INI: {exc}") from exc
    if cp.defaults():
        raise UsageError(
            "config values must live under a section header "
            f"([{'], ['.join(sorted(_DATACLASS_SECTIONS) + ['grid', 'run'])}]), "
            f"found top-level keys {sorted(cp.defaults())}"
        )
    out: dict[str, dict[str, str]] = {}
    valid_sections = sorted(_DATACLASS_SECTIONS) + ["grid", "run"]
    for section in cp.sections():
        if section not in valid_sections:
            raise UsageError(
                f"unknown config section [{section}]; valid sections are "
                f"[{'], ['.join(valid_sections)}]"
            )
        known = _known_keys(section)
        for key in cp[section]:
            if key not in known:
                raise UsageError(
                    f"unknown key {key!r} in [{section}]; valid keys are "
                    f"{', '.join(known)}"
                )
        out[section] = dict(cp[section])
    return out


def _section_overrides(section: str, raw: dict[str, str]) -> dict:
    cls = _DATACLASS_SECTIONS[section]
    overrides = {}
    for f in dataclasses.fields(cls):
        if f.name not in raw:
            continue
        conv = _CONVERTERS[f.type]
        try:
            overrides[f.name] = conv(raw[f.name])
        except ValueError as exc:
            raise UsageError(
                f"bad value for [{section}] {f.name}: {raw[f.name]!r} ({exc})"
            ) from exc
    return overrides


def apply_ini(cfg: RunConfig, text: str) -> RunConfig:
    """Overlay an INI document on `cfg`; absent keys keep their values."""
    sections = _parse_ini(text)
    replacements: dict = {}
    for section in _DATACLASS_SECTIONS:
        if section in sections:
            overrides = _section_overrides(section, sections[section])
            if overrides:
                replacements[section] = dataclasses.replace(
                    getattr(cfg, section), **overrides
                )
    if "grid" in sections and "ratios" in sections["grid"]:
        ratios = _to_number_list(sections["grid"]["ratios"], float, "[grid] ratios")
        replacements["grid"] = GridSpec(ratios=ratios)
    if "run" in sections:
        run = sections["run"]
        if "seeds" in run:
            replacements["seeds"] = _to_number_list(run["seeds"], int, "[run] seeds")
        if "out" in run:
            replacements["out"] = run["out"].strip()
    return dataclasses.replace(cfg, **replacements) if replacements else cfg


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
    output root, below the file and flags in precedence.
    """
    environ = os.environ if env is None else env
    cfg = RunConfig(out=environ.get(OUT_ENV_VAR, DEFAULT_OUT))
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise UsageError(f"config file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise StorageError(f"cannot read config file {p}: {exc}") from exc
        cfg = apply_ini(cfg, text)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(int(seed),))
    if out is not None:
        cfg = dataclasses.replace(cfg, out=str(out))
    return cfg.validate()


# --- hashing and rendering -------------------------------------------------


def _hash_payload(cfg: RunConfig) -> dict:
    payload = {s: dataclasses.asdict(getattr(cfg, s)) for s in _DATACLASS_SECTIONS}
    payload["grid"] = {"ratios": list(cfg.grid.ratios)}
    return payload


def config_hash(cfg: RunConfig) -> str:
    """Content hash of the pipeline sections (seeds and out excluded)."""
    return sha256_text(canonical_json(_hash_payload(cfg)))


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_ini(cfg: RunConfig) -> str:
    """The fully resolved configuration as INI text.

    `load_run_config` on the rendered text reproduces `cfg` exactly
    (floats are written with `repr`, which round-trips).
    """
    lines = [f"# resolved run configuration; content hash {config_hash(cfg)}", ""]
    for section, cls in _DATACLASS_SECTIONS.items():
        obj = getattr(cfg, section)
        lines.append(f"[{section}]")
        for f in dataclasses.fields(cls):
            lines.append(f"{f.name} = {_fmt(getattr(obj, f.name))}")
        lines.append("")
    lines.append("[grid]")
    lines.append("ratios = " + ", ".join(repr(r) for r in cfg.grid.ratios))
    lines.append("")
    lines.append("[run]")
    lines.append("seeds = " + ", ".join(str(s) for s in cfg.seeds))
    lines.append(f"out = {cfg.out}")
    lines.append("")
    return "\n".join(lines)
