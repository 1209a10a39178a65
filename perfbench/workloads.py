"""The benchmark's workloads: set-up, one timed iteration, and its checks.

Every workload times a policy arm against a grid arm, because every run
reports every end-to-end metric. A workload runs on a panel of task seeds:
set-up builds one merge per seed, and iteration i runs on seed i mod the
panel size. The README in this directory says why each workload exists and
which metrics each layer should move.

Times are laps of a `hostclock.Clock`, in nominal seconds. Library calls
go through module attributes (``training.train_adapter``, not a name
imported from it), so the traced run's patches apply to the benchmark's
own calls as well as to the package's internal ones.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from policyprune import (
    adapters,
    baselines,
    cli,
    configio,
    container,
    controller,
    masking,
    serialize,
    toytask,
    training,
)
from policyprune.errors import PolicyPruneError

from hostclock import Clock


@dataclasses.dataclass
class Sample:
    """What one timed iteration measured, in nominal seconds, plus its raw
    wall seconds; `check` turns the payload into an outcome."""

    chain_s: float
    policy_s: float
    grid_s: float
    controller_s: float
    wall_s: float
    payload: dict


@dataclasses.dataclass
class Checked:
    outcome: dict          # exact values that must repeat on every iteration
    steps: int
    rounds: int
    dev_loss_ratio: float
    attempted: int
    failed: int
    problems: list[str]


def stock_config(seed: int, out: Path) -> configio.RunConfig:
    return configio.load_run_config(seed=seed, out=str(out), env={})


def build_merge(cfg: configio.RunConfig, seed: int, d: Path):
    """Phase 1 in library form: data, two adapters, the merge, and its
    checkpoints written, hashed and read back as the CLI does."""
    data = toytask.gen_toy_data(cfg.task, seed)
    rngs = training.pipeline_rngs(seed)
    source = training.train_adapter(
        data.backbone, data.source_train, cfg.lora, cfg.training, rngs["source"])
    target = training.train_adapter(
        data.backbone, data.target_train, cfg.lora, cfg.training, rngs["target"])
    merged = adapters.merge_adapter_sets(
        [source.adapters, target.adapters], data.backbone.site_ids())
    d.mkdir(parents=True, exist_ok=True)
    container.save_adapters(d / "source.ckpt", source.adapters, kind="source", seed=seed)
    container.save_adapters(d / "target.ckpt", target.adapters, kind="target", seed=seed)
    container.save_merged(d / "merged_init.ckpt", merged, kind="merged-init", seed=seed)
    for name in ("source.ckpt", "target.ckpt", "merged_init.ckpt"):
        serialize.sha256_file(d / name)
    loaded, _header = container.load_merged(d / "merged_init.ckpt")
    shutil.rmtree(d)
    if loaded.checksum() != merged.checksum():
        raise PolicyPruneError("merged checkpoint did not read back bit for bit")
    return data, loaded


def round_counts(records) -> dict:
    probes = [c for r in records for c in r.candidates]
    return {
        "rounds": len(records),
        "failed_rounds": sum(r.failed for r in records),
        "commits": sum(r.committed for r in records),
        "probes": len(probes),
        "signal_probes": sum(c.relative is not None and c.relative != 0.0
                             for c in probes),
    }


class StockChain:
    """`policyprune` CLI, stock config, fresh output root per iteration:
    train-adapters, then controller + finalize (the policy arm) and grid
    (the grid arm), alternating which arm goes first."""

    PHASES = ("train-adapters", "controller", "finalize", "grid")

    def __init__(self, seeds: list[int], workdir: Path, clock: Clock):
        self.seeds = seeds
        self.workdir = workdir
        self.clock = clock
        self.cfg = stock_config(seeds[0], workdir)
        self.merge_checksums: dict[int, str] = {}

    def setup(self, j: int, d: Path) -> None:
        _data, merged = build_merge(self.cfg, self.seeds[j], d)
        self.merge_checksums[j] = merged.checksum()

    @staticmethod
    def _cli(command: str, root: Path, seed: int) -> tuple[int, str]:
        args = [command, "--out", str(root), "--seed", str(seed)]
        if command == "grid":
            args += ["--workers", "1"]
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli.main(args)
        return code, buf.getvalue()

    def iterate(self, i: int) -> Sample:
        # a fixed-width name keeps resolved.ini the same size on every iteration
        root = self.workdir / f"iter-{i:04d}"
        order = ["train-adapters"]
        order += (["controller", "finalize", "grid"] if i % 2 == 0
                  else ["grid", "controller", "finalize"])
        seed = self.seeds[i % len(self.seeds)]
        secs, codes, logs = {}, {}, {}
        wall0 = self.clock.wall_s
        self.clock.start()
        for command in order:
            codes[command], logs[command] = self._cli(command, root, seed)
            secs[command] = self.clock.lap()
            if codes[command] != 0:
                break
        return Sample(
            chain_s=sum(secs.values()),
            policy_s=secs.get("controller", 0.0) + secs.get("finalize", 0.0),
            grid_s=secs.get("grid", 0.0),
            controller_s=secs.get("controller", 0.0),
            wall_s=self.clock.wall_s - wall0,
            payload={"root": root, "codes": codes, "logs": logs, "j": i % len(self.seeds)},
        )

    def check(self, sample: Sample) -> Checked:
        root, codes = sample.payload["root"], sample.payload["codes"]
        problems = [f"{c} exited {code}: {sample.payload['logs'][c].strip()}"
                    for c, code in codes.items() if code != 0]
        if problems or len(codes) < len(self.PHASES):
            shutil.rmtree(root, ignore_errors=True)
            return Checked({}, 0, 0, float("nan"), len(self.PHASES), len(problems) or 1,
                           problems or ["chain stopped early"])
        problems += self._verify_manifests(root)
        merged, _ = container.load_merged(root / "adapters" / "merged_init.ckpt")
        if merged.checksum() != self.merge_checksums[sample.payload["j"]]:
            problems.append("CLI merged_init.ckpt differs from the library merge")
        records = controller.read_round_log(root / "controller" / "rounds.jsonl")
        problems += controller.audit_records(records, self.cfg.controller)
        counts = round_counts(records)
        p_star = json.loads((root / "controller" / "p_star.json").read_text())
        metrics = json.loads((root / "final" / "metrics.json").read_text())
        if metrics["p_star"] != p_star["p_star"]:
            problems.append("finalize used another p_star than the controller chose")
        grid = self._read_grid(root / "grid" / "grid.csv")
        n_src, n_tgt = self.cfg.task.source_train_n, self.cfg.task.target_train_n
        steps = {
            "phase1": (training.total_steps(self.cfg.training, n_src)
                       + training.total_steps(self.cfg.training, n_tgt)),
            "phase2": training.total_steps(self.cfg.training, n_tgt),
            "phase3": metrics["steps"],
            "grid": sum(row["steps"] for row in grid),
        }
        if counts["rounds"] != steps["phase2"] // self.cfg.controller.round_every:
            problems.append("round count does not match the phase-2 step budget")
        alive = [row["dev_loss"] for row in grid if row["dev_loss"] is not None]
        failed_cells = len(grid) - len(alive)
        files = {str(p.relative_to(root)): p.stat().st_size
                 for p in sorted(root.rglob("*")) if p.is_file()}
        outcome = {
            "p_star": p_star["p_star"],
            "dev_loss": metrics["dev_loss"],
            "test_loss": metrics["test_loss"],
            "grid": grid,
            "steps": steps,
            "file_bytes": files,
            **counts,
        }
        shutil.rmtree(root)
        return Checked(
            outcome=outcome,
            steps=sum(steps.values()),
            rounds=counts["rounds"],
            dev_loss_ratio=metrics["dev_loss"] / min(alive) if alive else float("nan"),
            attempted=len(self.PHASES) + counts["rounds"] + len(grid),
            failed=counts["failed_rounds"] + failed_cells + bool(problems),
            problems=problems,
        )

    def _verify_manifests(self, root: Path) -> list[str]:
        """Every artifact hash matches; every later phase names the
        adapters checkpoint as its parent; one seed and config hash."""
        problems = []
        mans = {}
        for command in self.PHASES:
            d = root / cli.PHASE_DIRS[command]
            mans[command] = man = json.loads((d / "manifest.json").read_text())
            for name, digest in man["files"].items():
                if serialize.sha256_file(d / name) != digest:
                    problems.append(f"{command}: {name} does not match its manifest")
        ckpt = mans["train-adapters"]["files"]["merged_init.ckpt"]
        for command in self.PHASES[1:]:
            if mans[command]["parent"] != {"path": "adapters/merged_init.ckpt",
                                           "sha256": ckpt}:
                problems.append(f"{command}: parent is not the adapters checkpoint")
        if len({(m["seed"], m["config_hash"]) for m in mans.values()}) != 1:
            problems.append("phases disagree on seed or config hash")
        return problems

    @staticmethod
    def _read_grid(path: Path) -> list[dict]:
        rows = path.read_text().splitlines()[1:]
        out = []
        for row in rows:
            p, dev, test, steps = row.split(",")
            out.append({"p": float(p), "dev_loss": float(dev) if dev else None,
                        "test_loss": float(test) if test else None,
                        "steps": int(steps)})
        return out


class PolicyVsGrid:
    """In-process policy arm (phase 2 + phase 3) against the 8-cell grid,
    both from the merge built in set-up, early stopping off, alternating
    which arm goes first. `probe_heavy` swaps in the round-heavy settings."""

    PROBE_HEAVY = {"round_every": 1, "candidates": 8, "microdev_n": 32}
    PROBE_HEAVY_EPOCHS = 3

    def __init__(self, seeds: list[int], workdir: Path, clock: Clock,
                 probe_heavy: bool = False):
        self.seeds = seeds
        self.workdir = workdir
        self.clock = clock
        self.cfg = stock_config(seeds[0], workdir)
        self.ccfg = self.cfg.controller
        self.tcfg = dataclasses.replace(self.cfg.training, early_stop_patience=None)
        if probe_heavy:
            self.ccfg = dataclasses.replace(self.ccfg, **self.PROBE_HEAVY)
            self.tcfg = dataclasses.replace(self.tcfg, epochs=self.PROBE_HEAVY_EPOCHS)
        self.prepared: dict[int, tuple] = {}

    def setup(self, j: int, d: Path) -> None:
        data, merged = build_merge(self.cfg, self.seeds[j], d)
        microdev = data.microdev.head(self.ccfg.microdev_n)
        self.prepared[j] = (data, merged, microdev, masking.estimate_scale(microdev.x))

    def _policy_arm(self, j: int, log: Path):
        data, merged, microdev, scale = self.prepared[j]
        rngs = training.pipeline_rngs(self.seeds[j])
        policy = training.sparsity_policy_learning(
            data.backbone, merged, data.target_train, microdev,
            self.ccfg, self.tcfg, rngs["phase2_train"], rngs["policy"],
            on_round=functools.partial(controller.append_round_log, log),
        )
        phase2_s = self.clock.lap()
        final = training.final_prune_finetune(
            data.backbone, merged, policy.p_star, data.target_train,
            data.dev, scale, self.tcfg, rngs["phase3"],
            p_min=self.ccfg.p_min, p_max=self.ccfg.p_max, test=data.test,
        )
        return policy, final, phase2_s, phase2_s + self.clock.lap()

    def _grid_arm(self, j: int):
        data, merged, _microdev, scale = self.prepared[j]
        outcome = baselines.grid_search(
            data.backbone, merged, data.target_train, data.dev, scale,
            self.tcfg, self.seeds[j], grid=self.cfg.grid, test=data.test, workers=1,
        )
        return outcome, self.clock.lap()

    def iterate(self, i: int) -> Sample:
        j, log = i % len(self.seeds), self.workdir / f"rounds-{i}.jsonl"
        wall0 = self.clock.wall_s
        self.clock.start()
        if i % 2 == 0:
            policy, final, ctrl_s, policy_s = self._policy_arm(j, log)
            grid, grid_s = self._grid_arm(j)
        else:
            grid, grid_s = self._grid_arm(j)
            policy, final, ctrl_s, policy_s = self._policy_arm(j, log)
        return Sample(
            chain_s=policy_s + grid_s, policy_s=policy_s, grid_s=grid_s,
            controller_s=ctrl_s, wall_s=self.clock.wall_s - wall0,
            payload={"policy": policy, "final": final, "grid": grid, "log": log},
        )

    def check(self, sample: Sample) -> Checked:
        policy, final, grid = (sample.payload[k] for k in ("policy", "final", "grid"))
        log = sample.payload["log"]
        problems = list(controller.audit_records(policy.records, self.ccfg))
        logged = controller.read_round_log(log)
        if [r.to_obj() for r in logged] != [r.to_obj() for r in policy.records]:
            problems.append("round log does not read back as the in-memory records")
        log_bytes = log.stat().st_size
        log.unlink()
        counts = round_counts(policy.records)
        steps = {"phase2": policy.steps_run, "phase3": final.steps_run,
                 "grid": grid.total_steps}
        if steps["grid"] != 4 * (steps["phase2"] + steps["phase3"]):
            problems.append(f"grid/policy step ratio is not 4.0: {steps}")
        failed_cells = sum(pt.failed for pt in grid.points)
        outcome = {
            "p_star": policy.p_star,
            "dev_loss": final.dev_loss,
            "test_loss": final.test_loss,
            "grid": [dataclasses.asdict(pt) for pt in grid.points],
            "steps": steps,
            "log_bytes": log_bytes,
            **counts,
        }
        return Checked(
            outcome=outcome,
            steps=sum(steps.values()),
            rounds=counts["rounds"],
            dev_loss_ratio=final.dev_loss / grid.best.dev_loss,
            attempted=2 + counts["rounds"] + len(grid.points),
            failed=counts["failed_rounds"] + failed_cells + bool(problems),
            problems=problems,
        )


def make(name: str, seeds: list[int], workdir: Path, clock: Clock):
    if name == "stock-chain":
        return StockChain(seeds, workdir, clock)
    if name in ("policy-vs-grid", "probe-heavy"):
        return PolicyVsGrid(seeds, workdir, clock, probe_heavy=name == "probe-heavy")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("stock-chain", "policy-vs-grid", "probe-heavy")
