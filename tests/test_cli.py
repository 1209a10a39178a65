"""End-to-end command-line behavior: artifacts, manifests, exit codes."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from policyprune import cli, training
from policyprune.configio import load_run_config, render_ini
from policyprune.container import load_merged, save_merged
from policyprune.controller import read_round_log
from policyprune.errors import TrainingDivergedError
from policyprune.serialize import sha256_file
from policyprune.training import run_pipeline

SMALL_INI = """\
[task]
d_in = 8
d_out = 6
teacher_rank = 2
source_train_n = 48
target_train_n = 32
dev_n = 16
microdev_n = 32
test_n = 16

[lora]
rank = 4

[training]
epochs = 3

[controller]
microdev_n = 8

[grid]
ratios = 0.1, 0.4, 0.7

[run]
seeds = 7
"""


def run_cli(*args: str) -> int:
    return cli.main(list(args))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def digests(d: Path) -> dict[str, str]:
    return {p.name: sha256_file(p) for p in d.iterdir()}


def vouch_p_star(out: Path, text: str, **manifest) -> None:
    """A controller phase of `text` as its p_star.json, with a manifest that
    vouches for those bytes at the merge's seed and config hash, learned on
    the merge as its parent record, unless `manifest` sets other fields."""
    ctrl = out / "controller"
    ctrl.mkdir()
    (ctrl / "p_star.json").write_text(text)
    merge = read_json(out / "adapters" / "manifest.json")
    parent = {"path": "adapters/merged_init.ckpt",
              "sha256": merge["files"]["merged_init.ckpt"]}
    (ctrl / "manifest.json").write_text(json.dumps({
        "phase": "controller", "seed": merge["seed"],
        "config_hash": merge["config_hash"], "parent": parent,
        "files": {"p_star.json": sha256_file(ctrl / "p_star.json")}, **manifest,
    }))


def assert_manifest_covers_its_directory(d: Path) -> None:
    """The manifest hashes exactly the files its phase wrote."""
    files = read_json(d / "manifest.json")["files"]
    assert files == {n: h for n, h in digests(d).items() if n != "manifest.json"}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One completed train-adapters → controller → finalize → grid chain."""
    root = tmp_path_factory.mktemp("chain")
    ini = root / "small.ini"
    ini.write_text(SMALL_INI)
    out = root / "out"
    for command in ("train-adapters", "controller", "finalize", "grid"):
        assert run_cli(command, "--config", str(ini), "--out", str(out)) == 0
    return ini, out


@pytest.fixture()
def fresh(tmp_path):
    ini = tmp_path / "small.ini"
    ini.write_text(SMALL_INI)
    return ini, tmp_path / "out"


def test_train_adapters_writes_checkpoints_and_manifest(chain):
    _ini, out = chain
    d = out / "adapters"
    for name in ("source.ckpt", "target.ckpt", "merged_init.ckpt",
                 "resolved.ini", "manifest.json"):
        assert (d / name).is_file()
    man = read_json(d / "manifest.json")
    assert man["phase"] == "train-adapters"
    assert man["seed"] == 7
    assert man["parent"] is None
    for name, digest in man["files"].items():
        assert sha256_file(d / name) == digest
    # the checkpoint itself carries the producing config hash
    _merged, header = load_merged(d / "merged_init.ckpt")
    assert header.config_hash == man["config_hash"]
    assert header.seed == 7


def test_every_manifest_hashes_every_file_of_its_phase(chain):
    _ini, out = chain
    for sub in ("adapters", "controller", "final", "grid"):
        assert_manifest_covers_its_directory(out / sub)


def test_the_same_chain_under_another_root_writes_identical_trees(chain, tmp_path):
    ini, out = chain
    other = tmp_path / "elsewhere" / "out"
    for command in ("train-adapters", "controller", "finalize", "grid"):
        assert run_cli(command, "--config", str(ini), "--out", str(other)) == 0
    for sub in ("adapters", "controller", "final", "grid"):
        assert digests(other / sub) == digests(out / sub)


def test_resolved_config_is_persisted_faithfully(chain):
    ini, out = chain
    cfg = load_run_config(ini, out=str(out), env={})
    assert (out / "adapters" / "resolved.ini").read_text() == render_ini(cfg)


def test_controller_log_round_arithmetic_and_p_star_file(chain):
    ini, out = chain
    cfg = load_run_config(ini, env={})
    records = read_round_log(out / "controller" / "rounds.jsonl")
    budget = cfg.training.epochs * cfg.task.target_train_n  # batch_size 1
    assert len(records) == budget // cfg.controller.round_every
    ps = read_json(out / "controller" / "p_star.json")
    assert cfg.controller.p_min <= ps["p_star"] <= cfg.controller.p_max
    assert ps["rounds"] == len(records)
    assert read_json(out / "controller" / "manifest.json")["seed"] == 7


def test_cli_chain_reproduces_the_library_pipeline(chain):
    ini, out = chain
    cfg = load_run_config(ini, env={})
    art = run_pipeline(cfg.task, cfg.lora, cfg.training, cfg.controller, cfg.seed)
    ps = read_json(out / "controller" / "p_star.json")
    metrics = read_json(out / "final" / "metrics.json")
    assert ps["p_star"] == art.p_star
    assert metrics["p_star"] == art.p_star
    assert metrics["dev_loss"] == art.final.dev_loss
    assert metrics["test_loss"] == art.final.test_loss
    assert metrics["steps"] == art.final.steps_run
    assert metrics["p_star_source"] == "file"
    # realized fraction: every tensor pruned at least floor(p* d)/d
    for row in metrics["per_tensor"]:
        assert row["pruned"] >= int(art.p_star * row["d"])
        assert row["fraction"] == row["pruned"] / row["d"]


def test_downstream_phases_verify_parent_hashes(chain):
    _ini, out = chain
    man = read_json(out / "controller" / "manifest.json")
    assert man["parent"]["path"] == "adapters/merged_init.ckpt"
    assert man["parent"]["sha256"] == sha256_file(out / "adapters" / "merged_init.ckpt")
    fin = read_json(out / "final" / "manifest.json")
    assert fin["config_hash"] == man["config_hash"]


def test_grid_csv_has_one_row_per_ratio(chain, capsys):
    _ini, out = chain
    lines = (out / "grid" / "grid.csv").read_text().strip().splitlines()
    assert lines[0] == "p,dev_loss,test_loss,steps"
    assert len(lines) == 1 + 3
    assert [ln.split(",")[0] for ln in lines[1:]] == ["0.1", "0.4", "0.7"]


def test_report_emits_rolling_series_and_runtime_table(chain):
    ini, out = chain
    assert run_cli("report", "--config", str(ini), "--out", str(out),
                   "--repeats", "1") == 0
    d = out / "report"
    rolling = (d / "rolling.csv").read_text().strip().splitlines()
    records = read_round_log(out / "controller" / "rounds.jsonl")
    assert rolling[0] == "round,mean,std"
    assert len(rolling) == 1 + len(records)
    runtime = (d / "runtime.csv").read_text().strip().splitlines()
    assert runtime[0] == "method,dataset,runs,runtime,speedup"
    methods = [ln.split(",")[0] for ln in runtime[1:]]
    assert methods == ["grid", "policy"]
    assert f"{float(runtime[2].split(',')[4]):.2f}×" in (d / "report.txt").read_text()
    assert_manifest_covers_its_directory(d)
    assert read_json(d / "manifest.json")["parent"] == {
        "path": "controller/rounds.jsonl",
        "sha256": sha256_file(out / "controller" / "rounds.jsonl"),
    }


def test_a_report_rerun_reproduces_its_rolling_series_and_resolved_config(
    chain, tmp_path
):
    """Only the wall-clock files (runtime.csv, report.txt, and so the
    manifest) may differ between two report runs."""
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out, ignore=shutil.ignore_patterns("report"))
    runs = []
    for _ in range(2):
        assert run_cli("report", "--config", str(ini), "--out", str(out),
                       "--repeats", "1", "--force") == 0
        runs.append({n: (out / "report" / n).read_bytes()
                     for n in ("rolling.csv", "resolved.ini")})
    assert runs[0] == runs[1]


def test_report_refuses_a_round_log_its_manifest_does_not_match(chain, capsys, tmp_path):
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out, ignore=shutil.ignore_patterns("report"))
    log = out / "controller" / "rounds.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:-1]))  # drop the last round
    assert run_cli("report", "--config", str(ini), "--out", str(out),
                   "--repeats", "1") == 3
    assert "does not match" in capsys.readouterr().err
    assert not (out / "report").exists()


def test_report_refuses_a_merged_checkpoint_its_manifest_does_not_match(
    chain, capsys, tmp_path
):
    """Report times both arms from the chain's merge, so it checks that
    checkpoint's bytes as controller, finalize and grid do."""
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out, ignore=shutil.ignore_patterns("report"))
    ckpt = out / "adapters" / "merged_init.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 0xFF
    ckpt.write_bytes(bytes(blob))
    assert run_cli("report", "--config", str(ini), "--out", str(out),
                   "--repeats", "1") == 3
    err = capsys.readouterr().err
    assert str(ckpt) in err and "does not match" in err
    assert not (out / "report").exists()


def remerge(out: Path) -> None:
    """Replace the merged checkpoint with a rescaled merge and re-hash it in
    the adapters manifest, as a train-adapters rerun under another program
    version would leave it: a valid phase 1 that no controller learned on."""
    d = out / "adapters"
    ckpt = d / "merged_init.ckpt"
    merged, header = load_merged(ckpt)
    merged.flat *= 1.5
    save_merged(ckpt, merged, kind=header.kind, seed=header.seed,
                config_hash=header.config_hash)
    man = read_json(d / "manifest.json")
    man["files"]["merged_init.ckpt"] = sha256_file(ckpt)
    (d / "manifest.json").write_text(json.dumps(man))


@pytest.mark.parametrize("command, flags, phase_dir", [
    ("finalize", (), "final"),
    ("report", ("--repeats", "1"), "report"),
])
def test_a_controller_phase_learned_on_another_merge_exits_3_and_claims_nothing(
    chain, capsys, tmp_path, command, flags, phase_dir
):
    """The controller's p_star and round log hold for the merge it learned on;
    once train-adapters holds another one, finalize and report refuse them,
    while finalize --p-star, which reads no controller file, still runs."""
    ini, src_out = chain
    out = tmp_path / "out"
    for phase in ("adapters", "controller"):
        shutil.copytree(src_out / phase, out / phase)
    remerge(out)
    assert run_cli(command, "--config", str(ini), "--out", str(out), *flags) == 3
    err = capsys.readouterr().err
    assert "controller phase learned on another merge" in err
    assert "train-adapters" in err and "rerun controller" in err
    assert not (out / phase_dir).exists()
    if command == "finalize":
        assert run_cli(command, "--config", str(ini), "--out", str(out),
                       "--p-star", "0.3") == 0


def test_rerun_without_force_is_refused_then_reruns_byte_identically(fresh):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    d = out / "adapters"
    before = {p.name: sha256_file(p) for p in d.iterdir()}
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 3
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out),
                   "--force") == 0
    after = {p.name: sha256_file(p) for p in d.iterdir()}
    assert after == before


@pytest.mark.parametrize("section, setting", [
    ("training", "weight_decay = nan"), ("training", "weight_decay = inf"),
    ("controller", "eta = nan"), ("controller", "eta = inf"),
    ("controller", "beta = nan"), ("controller", "tau_ent = inf"),
    ("controller", "delta_max = inf"),
])
def test_a_non_finite_setting_exits_2_before_any_phase_directory(
    tmp_path, capsys, section, setting
):
    ini = tmp_path / "bad.ini"
    ini.write_text(SMALL_INI.replace(f"[{section}]\n", f"[{section}]\n{setting}\n"))
    out = tmp_path / "out"
    for command in ("train-adapters", "controller"):
        assert run_cli(command, "--config", str(ini), "--out", str(out)) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("[controller]\n", "[controller]\np_min = 0.40\np_max = 0.405\n", "prune range too narrow"),
    ("[controller]\n", "[controller]\nround_every = 100000\n", "exceeds the phase-2 step budget"),
    ("microdev_n = 8\n", "microdev_n = 64\n", "exceeds the generated micro-dev pool"),
], ids=["sigma_floor", "round_every", "microdev_n"])
def test_a_controller_setting_that_cannot_run_exits_2_from_every_subcommand(
    tmp_path, capsys, old, new, message
):
    """A controller that cannot run fails at load, before any phase claims a
    directory, so the corrected rerun needs no --force."""
    ini = tmp_path / "bad.ini"
    ini.write_text(SMALL_INI.replace(old, new))
    out = tmp_path / "out"
    for command in cli.PHASE_DIRS:
        assert run_cli(command, "--config", str(ini), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def exit_code(*args: str) -> int:
    """`cli.main`'s exit status, whether it returns or argparse exits."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command, flag, parent_phases", [
    ("grid", "--workers", ("adapters",)),
    ("ablate", "--workers", ()),
    ("report", "--repeats", ("adapters", "controller")),
], ids=["grid", "ablate", "report"])
def test_a_flag_below_one_exits_2_and_claims_no_phase_directory(
    chain, tmp_path, capsys, command, flag, parent_phases
):
    """The bad flag exits 2 with nothing of the phase on disk, so the
    corrected rerun needs no --force."""
    ini, src_out = chain
    out = tmp_path / "out"
    out.mkdir()
    for phase in parent_phases:
        shutil.copytree(src_out / phase, out / phase)
    assert exit_code(command, "--config", str(ini), "--out", str(out), flag, "0") == 2
    assert not (out / command).exists()
    assert flag in capsys.readouterr().err
    assert exit_code(command, "--config", str(ini), "--out", str(out), flag, "1") == 0
    assert (out / command / "manifest.json").is_file()


def test_controller_without_adapters_names_the_missing_path(fresh, capsys):
    ini, out = fresh
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(out / "adapters" / "manifest.json") in err
    assert "train-adapters" in err


def test_controller_without_the_merged_checkpoint_names_the_missing_path(
    chain, capsys, tmp_path
):
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out / "adapters", out / "adapters")
    (out / "adapters" / "merged_init.ckpt").unlink()
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(out / "adapters" / "merged_init.ckpt") in err
    assert "train-adapters" in err
    assert not (out / "controller").exists()


def test_cross_phase_config_mismatch_is_a_hard_error(fresh, capsys, tmp_path):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    drifted = tmp_path / "drift.ini"
    drifted.write_text(SMALL_INI.replace("epochs = 3", "epochs = 4"))
    assert run_cli("controller", "--config", str(drifted), "--out", str(out)) == 2
    assert "config mismatch" in capsys.readouterr().err


def test_finalize_rejects_a_p_star_file_from_another_config(fresh, capsys):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    vouch_p_star(out, json.dumps({"p_star": 0.3}), config_hash="0" * 64)
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 2
    assert "config mismatch: the controller phase" in capsys.readouterr().err
    assert not (out / "final").exists()


def test_finalize_refuses_a_controller_phase_at_another_seed_than_the_merge(
    chain, capsys, tmp_path
):
    """A merge redone at seed 11 under a seed-7 controller phase: the
    controller's p_star was learned on another backbone, so finalize refuses
    it, while --p-star, which reads no controller phase, still runs."""
    ini, src_out = chain
    out = tmp_path / "out"
    for phase in ("adapters", "controller"):
        shutil.copytree(src_out / phase, out / phase)
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out),
                   "--seed", "11", "--force") == 0
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "seed mismatch: the controller phase ran at seed 7" in err
    assert not (out / "final").exists()
    assert run_cli("finalize", "--config", str(ini), "--out", str(out),
                   "--p-star", "0.3") == 0
    assert read_json(out / "final" / "manifest.json")["seed"] == 11


def test_a_downstream_phase_renders_the_seed_it_runs_at(fresh):
    """A flagless controller on a merge made at --seed 11 runs at seed 11,
    and its resolved.ini says 11, not the config file's seeds = 7."""
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out),
                   "--seed", "11") == 0
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 0
    for sub in ("adapters", "controller"):
        assert read_json(out / sub / "manifest.json")["seed"] == 11
        assert load_run_config(out / sub / "resolved.ini", env={}).seeds == (11,)


def test_report_rejects_a_controller_phase_from_another_config(chain, capsys, tmp_path):
    _ini, out = chain
    drifted = tmp_path / "drift.ini"
    drifted.write_text(SMALL_INI.replace("epochs = 3", "epochs = 4"))
    assert run_cli("report", "--config", str(drifted), "--out", str(out)) == 2
    assert "config mismatch" in capsys.readouterr().err


def test_corrupted_parent_checkpoint_is_a_storage_error(fresh, capsys):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    ckpt = out / "adapters" / "merged_init.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[-1] ^= 0xFF
    ckpt.write_bytes(bytes(blob))
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 3
    assert "does not match" in capsys.readouterr().err


_MALFORMED_MANIFESTS = {
    "not-utf8": lambda man: b'{"phase": "train-adapters \xff"}',
    "number": lambda man: b"5",
    "null": lambda man: b"null",
    "files-a-list": lambda man: json.dumps({**man, "files": list(man["files"])}).encode(),
    "seed-none": lambda man: json.dumps({**man, "seed": None}).encode(),
    "seed-a-word": lambda man: json.dumps({**man, "seed": "seven"}).encode(),
}


@pytest.mark.parametrize("defect", list(_MALFORMED_MANIFESTS))
def test_a_malformed_parent_manifest_is_a_storage_error(chain, capsys, tmp_path, defect):
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out / "adapters", out / "adapters")
    path = out / "adapters" / "manifest.json"
    path.write_bytes(_MALFORMED_MANIFESTS[defect](read_json(path)))
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "manifest" in err
    assert not (out / "controller").exists()


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(SMALL_INI.replace("[run]", "# caf\xe9\n[run]").encode("latin-1"))
    out = tmp_path / "out"
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 2
    assert "not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_finalize_p_star_flag_overrides_the_file(chain, tmp_path):
    ini, src_out = chain
    # reuse the finished adapters+controller phases in a copy we may mutate
    out = tmp_path / "out"
    shutil.copytree(src_out, out)
    assert run_cli("finalize", "--config", str(ini), "--out", str(out),
                   "--force", "--p-star", "0.25") == 0
    metrics = read_json(out / "final" / "metrics.json")
    assert metrics["p_star"] == 0.25
    assert metrics["p_star_source"] == "flag"
    assert metrics["realized_fraction"] == pytest.approx(0.25, abs=0.05)


def test_finalize_refuses_a_p_star_file_its_manifest_does_not_match(chain, capsys, tmp_path):
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out, ignore=shutil.ignore_patterns("final"))
    path = out / "controller" / "p_star.json"
    payload = read_json(path)
    assert payload["p_star"] != 0.5
    path.write_text(json.dumps({**payload, "p_star": 0.5}))
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "does not match" in err
    assert not (out / "final").exists()


@pytest.mark.parametrize("p_star, source", [
    ("0.95", "flag"), ("nan", "flag"), (0.95, "file"), (float("nan"), "file"),
], ids=["flag-above", "flag-nan", "file-above", "file-nan"])
def test_finalize_checks_p_star_against_the_range_before_claiming_final(
    chain, capsys, tmp_path, p_star, source
):
    """A p_star outside [controller] p_min … p_max, NaN included, exits 2
    with nothing of the phase on disk, so the corrected rerun needs no
    --force."""
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out / "adapters", out / "adapters")
    if source == "flag":
        args = ("--p-star", p_star)
    else:  # a p_star file its controller manifest vouches for
        vouch_p_star(out, json.dumps({"p_star": p_star}))
        args = ()
    assert run_cli("finalize", "--config", str(ini), "--out", str(out), *args) == 2
    assert "outside [controller] p_min … p_max = [0.1, 0.8]" in capsys.readouterr().err
    assert not (out / "final").exists()
    assert run_cli("finalize", "--config", str(ini), "--out", str(out),
                   "--p-star", "0.3") == 0


def test_finalize_force_with_a_bad_p_star_keeps_the_completed_phase(chain, capsys, tmp_path):
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out)
    before = digests(out / "final")
    assert run_cli("finalize", "--config", str(ini), "--out", str(out),
                   "--force", "--p-star", "0.95") == 2
    assert "outside [controller] p_min" in capsys.readouterr().err
    assert digests(out / "final") == before


def test_ablate_refuses_a_pool_below_the_largest_microdev_size_before_claiming(
    tmp_path, capsys
):
    """`[task] microdev_n = 16` suits every other subcommand, but the
    micro-dev sweep reaches 32: ablate exits 2 before any run or directory."""
    ini = tmp_path / "pool16.ini"
    ini.write_text(SMALL_INI.replace("microdev_n = 32\n", "microdev_n = 16\n"))
    out = tmp_path / "out"
    assert run_cli("ablate", "--config", str(ini), "--out", str(out)) == 2
    assert "micro-dev sizes up to 32" in capsys.readouterr().err
    assert not out.exists()


def test_finalize_without_controller_suggests_what_to_run(fresh, capsys):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "controller" in err and "--p-star" in err


def test_finalize_reads_no_p_star_file_without_a_controller_manifest(fresh, capsys):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    (out / "controller").mkdir()
    (out / "controller" / "p_star.json").write_text(json.dumps({"p_star": 0.3}))
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert str(out / "controller" / "manifest.json") in err and "--p-star" in err
    assert not (out / "final").exists()


def test_finalize_rejects_malformed_p_star_file(fresh, capsys):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    vouch_p_star(out, "{not json")
    assert run_cli("finalize", "--config", str(ini), "--out", str(out)) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_train_adapters_exits_4_when_a_phase_1_worker_diverges(fresh, capsys, monkeypatch):
    ini, out = fresh
    ini.write_text(SMALL_INI.replace("epochs = 3\n", "epochs = 50\nlearning_rate = 1e6\n"))
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 4
    assert "training loss became non-finite" in capsys.readouterr().err
    assert not (out / "adapters" / "manifest.json").exists()


def test_interrupted_controller_leaves_a_parseable_partial_log(
    fresh, capsys, monkeypatch
):
    ini, out = fresh
    assert run_cli("train-adapters", "--config", str(ini), "--out", str(out)) == 0
    real = training.sparsity_policy_learning

    def cut_short(*args, **kwargs):
        on_round = kwargs["on_round"]
        seen = []
        def spy(rec):
            seen.append(rec)
            on_round(rec)
            if len(seen) == 2:
                raise TrainingDivergedError("cut short for the test")
        kwargs["on_round"] = spy
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "sparsity_policy_learning", cut_short)
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 4
    log = out / "controller" / "rounds.jsonl"
    records = read_round_log(log)
    assert len(records) == 2
    assert [r.round for r in records] == [0, 1]
    assert not (out / "controller" / "manifest.json").exists()
    # rerunning after the interruption needs --force (partial output exists)
    monkeypatch.setattr(training, "sparsity_policy_learning", real)
    assert run_cli("controller", "--config", str(ini), "--out", str(out)) == 3
    assert run_cli("controller", "--config", str(ini), "--out", str(out),
                   "--force") == 0
    assert (out / "controller" / "manifest.json").exists()


def test_report_without_controller_lists_what_to_run_first(fresh, capsys):
    ini, out = fresh
    assert run_cli("report", "--config", str(ini), "--out", str(out)) == 2
    assert "controller" in capsys.readouterr().err


def test_ablate_emits_both_fixed_schema_tables(fresh):
    ini, out = fresh
    assert run_cli("ablate", "--config", str(ini), "--out", str(out),
                   "--workers", "4") == 0
    d = out / "ablate"
    reg = (d / "regularizers.csv").read_text().strip().splitlines()
    assert reg[0] == "beta,tau,p_star,dev_loss"
    assert len(reg) == 1 + 6
    micro = (d / "microdev.csv").read_text().strip().splitlines()
    assert micro[0] == "m,p_star,dev_loss"
    assert len(micro) == 1 + 4
    assert [ln.split(",")[0] for ln in micro[1:]] == ["4", "8", "16", "32"]
    assert_manifest_covers_its_directory(d)


def test_unwritable_output_root_is_an_io_error(fresh, capsys):
    ini, _out = fresh
    assert run_cli("train-adapters", "--config", str(ini),
                   "--out", "/dev/null/x") == 3
    assert "/dev/null/x" in capsys.readouterr().err


def test_env_var_sets_the_default_output_root(fresh, monkeypatch, tmp_path):
    ini, _out = fresh
    envroot = tmp_path / "envroot"
    monkeypatch.setenv("POLICYPRUNE_OUT", str(envroot))
    assert run_cli("train-adapters", "--config", str(ini)) == 0
    assert (envroot / "adapters" / "manifest.json").is_file()


def test_unknown_subcommand_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["controller", "finalize", "grid", "report"])
def test_a_seed_flag_other_than_the_parents_exits_2_and_claims_no_directory(
    chain, capsys, tmp_path, command
):
    """A downstream phase runs at its parent's seed; --seed may only repeat
    it, so seed 11 on the seed-7 chain would train against another backbone."""
    ini, src_out = chain
    out = tmp_path / "out"
    shutil.copytree(src_out, out,
                    ignore=shutil.ignore_patterns(cli.PHASE_DIRS[command]))
    assert run_cli(command, "--config", str(ini), "--out", str(out),
                   "--seed", "11") == 2
    err = capsys.readouterr().err
    assert "seed mismatch" in err and "ran at seed 7" in err
    assert not (out / cli.PHASE_DIRS[command]).exists()


def test_the_same_seed_flag_on_every_command_writes_the_flagless_tree(chain, tmp_path):
    ini, out = chain
    other = tmp_path / "out"
    for command in ("train-adapters", "controller", "finalize", "grid"):
        assert run_cli(command, "--config", str(ini), "--out", str(other),
                       "--seed", "7") == 0
    for sub in ("adapters", "controller", "final", "grid"):
        assert digests(other / sub) == digests(out / sub)
