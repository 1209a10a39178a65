"""Command-line pipeline orchestration.

Six subcommands cover the three pipeline phases and the three experiment
tables::

    policyprune train-adapters   # phase 1: two adapters + merged checkpoint
    policyprune controller       # phase 2: learn p_star, stream a round log
    policyprune finalize         # phase 3: prune once at p_star, fine-tune
    policyprune grid             # exhaustive per-ratio baseline table
    policyprune ablate           # regularizer and micro-dev-size sweeps
    policyprune report           # runtime comparison + rolling ratio series

Every phase writes into its own directory under the output root (flag
``--out``, else the config file, else ``$POLICYPRUNE_OUT``, else ``runs/``)
and finishes by writing ``manifest.json`` — the marker that the phase
completed — recording the seed, the resolved-config content hash, the
SHA-256 of every file the phase wrote, and the parent file it consumed. A
phase directory with content is never overwritten without ``--force``.
Downstream phases refuse a parent produced under another config hash or
whose file no longer matches its manifest, and run at its seed, which
``--seed`` may only repeat. All but ``ablate`` start from the verified merged
checkpoint; a controller file (``finalize``'s ``p_star`` unless ``--p-star``
is given, ``report``'s round log) counts only if it was learned on that
merge. No artifact carries a timestamp or the output root, so a rerun at
the same seed reproduces every byte under any root, but for ``report``'s
wall-clock ``runtime.csv``, ``report.txt`` and so its ``manifest.json``.

Exit codes: 0 success, 2 usage errors (including bad flags), 3 storage
failures, 4 numerical failures such as diverged training.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import shutil
import sys
from pathlib import Path

from .baselines import (
    ablate,
    compare_efficiency,
    format_runtime_table,
    grid_search,
    require_ablation_pool,
    rolling_pcurr,
    write_grid_csv,
    write_microdev_csv,
    write_regularizer_csv,
    write_rolling_csv,
    write_runtime_csv,
)
from .configio import RunConfig, config_hash, load_run_config, render_ini
from .container import load_merged, save_adapters, save_merged
from .controller import append_round_log, read_round_log
from .errors import PolicyPruneError, StorageError, UsageError
from .adapters import merge_adapter_sets  # noqa: F401 (perfbench traces this binding)
from .serialize import canonical_json_line, sha256_file
from .toytask import gen_toy_data
from .training import final_phase, policy_phase, run_scale, train_and_merge
from .training import require_p_star_in_range
from .training import (  # noqa: F401 (perfbench traces these bindings)
    final_prune_finetune,
    sparsity_policy_learning,
    train_adapter,
)

__all__ = ["main", "build_parser", "PHASE_DIRS"]

PHASE_DIRS = {
    "train-adapters": "adapters",
    "controller": "controller",
    "finalize": "final",
    "grid": "grid",
    "ablate": "ablate",
    "report": "report",
}


# --- shared plumbing ---------------------------------------------------------


def _phase_dir(root: Path, command: str) -> Path:
    return root / PHASE_DIRS[command]


def _claim_phase_dir(cfg: RunConfig, command: str, force: bool,
                     seeds: tuple[int, ...]) -> Path:
    """A clean phase directory holding the resolved config at `seeds`, the
    seeds the phase runs at; existing output needs --force."""
    d = _phase_dir(Path(cfg.out), command)
    if d.exists() and any(d.iterdir()):
        if not force:
            raise StorageError(
                f"output already exists: {d} (pass --force to redo this phase)"
            )
        try:
            shutil.rmtree(d)
        except OSError as exc:
            raise StorageError(f"cannot clear {d}: {exc}") from exc
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create output directory {d}: {exc}") from exc
    _write_text(d / "resolved.ini", render_ini(dataclasses.replace(cfg, seeds=seeds)))
    return d


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _write_manifest(
    d: Path, command: str, seed: int, chash: str, parent: dict | None
) -> None:
    """The completion marker: a SHA-256 of every file the phase wrote."""
    payload = {
        "phase": command,
        "seed": int(seed),
        "config_hash": chash,
        "parent": parent,
        "files": {f.name: sha256_file(f) for f in sorted(d.iterdir())},
    }
    _write_text(d / "manifest.json", canonical_json_line(payload))


def _require_upstream(path: Path, command: str, hint: str) -> None:
    """`path`, a file the `command` phase writes, must exist: if it does not,
    a `UsageError` (exit 2) names it and the phase to run, then `hint`."""
    if not path.is_file():
        raise UsageError(f"missing {path}; run `policyprune {command}` first{hint}")


def _read_manifest(root: Path, command: str) -> dict:
    path = _phase_dir(root, command) / "manifest.json"
    _require_upstream(path, command, "")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise StorageError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise StorageError(f"manifest {path} is not a JSON object")
    for key in ("phase", "seed", "config_hash", "files"):
        if key not in data:
            raise StorageError(f"manifest {path} is missing the {key!r} field")
    if not isinstance(data["files"], dict) or type(data["seed"]) is not int:
        raise StorageError(
            f"manifest {path} needs an object of files and an integer seed"
        )
    return data


def _verified_parent(root: Path, command: str, name: str, chash: str,
                     seed: int | None):
    """A file of a completed upstream phase, checked against its manifest:
    the same config hash, the same seed (when `seed` is not None) and the
    bytes the manifest recorded. A mismatched hash or seed exits 2.

    Returns (path, parent_manifest, parent_record_for_manifest).
    """
    man = _read_manifest(root, command)
    if man["config_hash"] != chash:
        raise UsageError(
            f"config mismatch: the {command} phase was produced under config hash "
            f"{str(man['config_hash'])[:12]}… but the current resolved config "
            f"hashes to {chash[:12]}…; rerun that phase or restore the config"
        )
    if seed is not None and seed != man["seed"]:
        raise UsageError(
            f"seed mismatch: the {command} phase ran at seed {man['seed']} but "
            f"this phase runs at seed {seed}; rerun that phase at seed {seed} "
            f"or run this one at seed {man['seed']}"
        )
    path = _phase_dir(root, command) / name
    _require_upstream(path, command, "")
    actual = sha256_file(path)
    if actual != man["files"].get(name):
        raise StorageError(
            f"{path} does not match the hash in its manifest "
            f"(file corrupted or edited); rerun {command}"
        )
    parent = {"path": f"{PHASE_DIRS[command]}/{name}", "sha256": actual}
    return path, man, parent


def _from_merge(cfg: RunConfig, seed: int | None):
    """The start of controller, finalize, grid and report: the config hash,
    the verified merged-init checkpoint with its parent record, the merge's
    seed (which `seed`, when not None, must equal) and that seed's task data."""
    chash = config_hash(cfg)
    ckpt, man, parent = _verified_parent(
        Path(cfg.out), "train-adapters", "merged_init.ckpt", chash, seed
    )
    merged_init, _header = load_merged(ckpt)
    return chash, merged_init, parent, man["seed"], gen_toy_data(cfg.task, man["seed"])


def _require_same_merge(controller_manifest: dict, merge_parent: dict) -> None:
    """A controller phase's files hold only for the merge it learned on: its
    manifest's parent must be `merge_parent`, the current merge's record."""
    if controller_manifest.get("parent") != merge_parent:
        raise StorageError(
            "lineage mismatch: the controller phase learned on another merge than "
            "the train-adapters phase's current merged_init.ckpt; rerun controller"
        )


# --- subcommands -------------------------------------------------------------


def cmd_train_adapters(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    seed = cfg.seed
    d = _claim_phase_dir(cfg, "train-adapters", args.force, (seed,))
    source, target, merged = train_and_merge(
        gen_toy_data(cfg.task, seed), cfg.lora, cfg.training, seed
    )
    save_adapters(d / "source.ckpt", source.adapters, kind="source",
                  seed=seed, config_hash=chash)
    save_adapters(d / "target.ckpt", target.adapters, kind="target",
                  seed=seed, config_hash=chash)
    save_merged(d / "merged_init.ckpt", merged, kind="merged-init",
                seed=seed, config_hash=chash)
    _write_manifest(d, "train-adapters", seed, chash, parent=None)
    print(f"adapters trained (seed {seed}); checkpoints in {d}")
    return 0


def cmd_controller(cfg: RunConfig, args) -> int:
    chash, merged_init, parent, seed, data = _from_merge(cfg, args.seed)
    d = _claim_phase_dir(cfg, "controller", args.force, (seed,))
    log_path = d / "rounds.jsonl"
    policy = policy_phase(
        data, merged_init, cfg.controller, cfg.training, seed,
        on_round=functools.partial(append_round_log, log_path),
    )
    p_star_payload = {
        "p_star": policy.p_star,
        "rounds": len(policy.records),
        "commits": policy.commits,
    }
    _write_text(d / "p_star.json", canonical_json_line(p_star_payload))
    _write_manifest(d, "controller", seed, chash, parent)
    print(
        f"p_star = {policy.p_star} after {len(policy.records)} rounds "
        f"({policy.commits} commits); log in {log_path}"
    )
    return 0


def _resolve_p_star(root: Path, chash: str, seed: int, merge_parent: dict,
                    args) -> tuple[float, str]:
    """--p-star, else the p_star file of a completed controller phase run
    under this config at this seed on the merge `merge_parent` records."""
    if args.p_star is not None:
        return float(args.p_star), "flag"
    manifest = _phase_dir(root, "controller") / "manifest.json"
    _require_upstream(manifest, "controller", " or pass --p-star")
    path, man, _parent = _verified_parent(root, "controller", "p_star.json", chash, seed)
    _require_same_merge(man, merge_parent)
    try:
        return float(json.loads(path.read_text(encoding="utf-8"))["p_star"]), "file"
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON
        raise UsageError(f"cannot parse p_star file {path}: {exc}") from exc


def cmd_finalize(cfg: RunConfig, args) -> int:
    chash, merged_init, parent, seed, data = _from_merge(cfg, args.seed)
    p_star, p_star_source = _resolve_p_star(Path(cfg.out), chash, seed, parent, args)
    require_p_star_in_range(p_star, cfg.controller.p_min, cfg.controller.p_max, p_star_source)
    d = _claim_phase_dir(cfg, "finalize", args.force, (seed,))
    fin = final_phase(data, merged_init, p_star, cfg.controller, cfg.training, seed)
    save_merged(d / "final.ckpt", fin.merged, kind="final",
                seed=seed, config_hash=chash)
    per_tensor = []
    for (_tid, sid, fac, view), kept in zip(fin.merged.tensors(), fin.mask.kept):
        size = view.size
        per_tensor.append({"tensor": f"{sid}.{fac}", "d": size,
                           "pruned": size - int(kept), "fraction": (size - kept) / size})
    metrics = {
        "p_star": p_star,
        "p_star_source": p_star_source,
        "dev_loss": fin.dev_loss,
        "test_loss": fin.test_loss,
        "steps": fin.steps_run,
        "stopped_early": fin.stopped_early,
        "realized_fraction": fin.mask.overall_fraction(),
        "per_tensor": per_tensor,
    }
    _write_text(d / "metrics.json", canonical_json_line(metrics))
    _write_manifest(d, "finalize", seed, chash, parent)
    print(
        f"final model pruned at p_star = {p_star} "
        f"(realized fraction {metrics['realized_fraction']:.4f}); "
        f"dev loss {fin.dev_loss}, test loss {fin.test_loss}"
    )
    return 0


def cmd_grid(cfg: RunConfig, args) -> int:
    chash, merged_init, parent, seed, data = _from_merge(cfg, args.seed)
    d = _claim_phase_dir(cfg, "grid", args.force, (seed,))
    outcome = grid_search(
        data.backbone, merged_init, data.target_train, data.dev,
        run_scale(data, cfg.controller), cfg.training, seed,
        grid=cfg.grid, test=data.test, workers=args.workers,
    )
    write_grid_csv(d / "grid.csv", outcome)
    _write_manifest(d, "grid", seed, chash, parent)
    failed = sum(1 for pt in outcome.points if pt.failed)
    print(
        f"grid searched {len(outcome.points)} ratios "
        f"({failed} failed); best p = {outcome.best.p}; table in {d / 'grid.csv'}"
    )
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    chash = config_hash(cfg)
    require_ablation_pool(cfg.task)
    d = _claim_phase_dir(cfg, "ablate", args.force, cfg.seeds)
    reg_rows, micro_rows = ablate(
        cfg.task, cfg.lora, cfg.training, cfg.controller,
        seeds=cfg.seeds, workers=args.workers,
    )
    write_regularizer_csv(d / "regularizers.csv", reg_rows)
    write_microdev_csv(d / "microdev.csv", micro_rows)
    _write_manifest(d, "ablate", cfg.seed, chash, parent=None)
    print(
        f"ablations done over seeds {list(cfg.seeds)}: "
        f"{len(reg_rows)} regularizer cells, {len(micro_rows)} micro-dev sizes; "
        f"tables in {d}"
    )
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    log_path, ctrl, parent = _verified_parent(
        Path(cfg.out), "controller", "rounds.jsonl", config_hash(cfg), args.seed
    )
    chash, merged_init, merge_parent, seed, data = _from_merge(cfg, ctrl["seed"])
    _require_same_merge(ctrl, merge_parent)
    records = read_round_log(log_path)
    d = _claim_phase_dir(cfg, "report", args.force, (seed,))
    series = rolling_pcurr(records)
    write_rolling_csv(d / "rolling.csv", series)
    comp = compare_efficiency(
        data, merged_init, cfg.training, cfg.controller, seed,
        grid=cfg.grid, repeats=args.repeats,
    )
    write_runtime_csv(d / "runtime.csv", comp)
    table = format_runtime_table(comp)
    _write_text(d / "report.txt", table + "\n")
    _write_manifest(d, "report", seed, chash, parent)
    print(table)
    return 0


# --- argument parsing --------------------------------------------------------


def _at_least_one(text: str) -> int:
    """An integer flag value of at least 1, checked while parsing, so a bad
    value exits 2 before any phase directory is claimed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="INI config file (defaults < file < flags)")
    common.add_argument("--seed", type=int, default=None,
                        help="run seed of train-adapters and ablate; a downstream "
                             "phase runs at its parent's seed, which this may "
                             "only repeat")
    common.add_argument("--out", metavar="DIR", default=None,
                        help="output root (default: $POLICYPRUNE_OUT or runs/)")
    common.add_argument("--force", action="store_true",
                        help="redo a phase whose output already exists")

    parser = argparse.ArgumentParser(
        prog="policyprune",
        description="Merge two low-rank adapters, learn a prune ratio online, "
                    "prune once, fine-tune — plus grid/ablation baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-adapters", parents=[common],
                       help="phase 1: train both adapters (at once on two usable CPUs), "
                            "write the merged checkpoint")
    p.set_defaults(func=cmd_train_adapters)

    p = sub.add_parser("controller", parents=[common],
                       help="phase 2: learn the prune ratio, stream the round log")
    p.set_defaults(func=cmd_controller)

    p = sub.add_parser("finalize", parents=[common],
                       help="phase 3: prune once at p_star and fine-tune")
    p.add_argument("--p-star", dest="p_star", type=float, default=None,
                   help="prune ratio to use (instead of the controller phase's p_star)")
    p.set_defaults(func=cmd_finalize)

    p = sub.add_parser("grid", parents=[common],
                       help="train one model per grid ratio, emit the table")
    p.add_argument("--workers", type=_at_least_one, default=1,
                   help="process pool width for independent grid cells")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate", parents=[common],
                       help="regularizer and micro-dev-size sweeps")
    p.add_argument("--workers", type=_at_least_one, default=1,
                   help="process pool width for independent sweep cells")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", parents=[common],
                       help="rolling ratio series and runtime comparison from the merge")
    p.add_argument("--repeats", type=_at_least_one, default=3,
                   help="timing passes per arm, interleaved; each arm's best is reported")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed=args.seed, out=args.out)
        return args.func(cfg, args)
    except PolicyPruneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return StorageError.exit_code


if __name__ == "__main__":
    sys.exit(main())
