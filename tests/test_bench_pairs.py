"""The paired-benchmark tool's summary, on hand-made run results."""

import importlib.util
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "rounds_per_s", "better": "higher", "bound": 0.25},
           {"name": "controller_s", "better": "lower", "bound": 0.25}]


def _result(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}


def _pairs(parent, change, name):
    return [{"parent": _result(**{name: p}), "change": _result(**{name: c})}
            for p, c in zip(parent, change)]


def _row(pairs, name):
    (row,) = [r for r in bench_pairs.summarize(pairs, METRICS) if r["metric"] == name]
    return row


def test_a_gain_is_claimed_on_nine_wins_in_ten_and_a_gap_above_the_parent_iqr():
    parent = [100.0 + i for i in range(10)]
    change = [99.0] + [110.0 + i for i in range(1, 10)]  # loses pair 0 only
    row = _row(_pairs(parent, change, "rounds_per_s"), "rounds_per_s")
    q1, med, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert row["parent"] == (q1, med, q3) == (102.25, 104.5, 106.75)
    assert row["change"][1] == 114.5
    assert (row["n"], row["wins"], row["parent_iqr"], row["claim"]) == (10, 9, 4.5, True)


@pytest.mark.parametrize("parent, change, wins", [
    # every pair won, but the medians lie within the parent's IQR
    ([1.0 + 0.1 * i for i in range(10)], [0.99 + 0.1 * i for i in range(10)], 10),
    # a wide gap, but 8 wins of 9 is under nine tenths
    ([1.0] * 9, [0.5] * 8 + [2.0], 8),
    # ties count for neither side
    ([1.0] * 10, [1.0] * 10, 0),
    # better in the wrong direction: higher seconds lose
    ([1.0] * 10, [2.0] * 10, 0),
])
def test_no_claim_without_the_wins_or_the_gap(parent, change, wins):
    row = _row(_pairs(parent, change, "controller_s"), "controller_s")
    assert (row["wins"], row["claim"]) == (wins, False)


@pytest.mark.parametrize("name, parent, change, regressed", [
    # higher is better: the bound is 25% of the parent's median of 100
    ("rounds_per_s", [100.0] * 10, [76.0] * 10, False),
    ("rounds_per_s", [100.0] * 10, [74.0] * 10, True),
    ("rounds_per_s", [95.0, 105.0] * 5, [70.0, 79.0] * 5, True),  # medians 100 and 74.5
    # lower is better: the bound is 25% of the parent's median of 2.0 s
    ("controller_s", [2.0] * 10, [2.4] * 10, False),
    ("controller_s", [2.0] * 10, [2.6] * 10, True),
    ("controller_s", [1.0, 3.0] * 5, [2.4, 2.7] * 5, True),  # medians 2.0 and 2.55
], ids=["higher-within", "higher-regressed", "higher-medians",
        "lower-within", "lower-regressed", "lower-medians"])
def test_a_median_worse_by_more_than_the_bound_is_a_regression(
        monkeypatch, capsys, name, parent, change, regressed):
    """The change's median against the parent's, with the metric's bound read
    as a share of the parent's median; any regression makes `main` exit 1."""
    pairs = _pairs(parent, change, name)
    row = _row(pairs, name)
    assert (row["regressed"], row["claim"]) == (regressed, False)
    values = {"parent": iter(parent), "change": iter(change)}

    def run_once(command, root):
        side = "change" if root == bench_pairs.ROOT else "parent"
        return _result(**{name: next(values[side])})

    monkeypatch.setattr(bench_pairs, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload", "probe-heavy",
                             "--pairs", "10"]) == int(regressed)
    assert ("YES" in capsys.readouterr().out) == regressed


def test_missing_or_failed_change_runs_count_as_lost_pairs():
    """The win share is over every pair run: a change run that gave no
    result, reported incorrect or failed operations loses its pair, and a
    missing parent run leaves a pair nobody won. Quartiles cover each
    side's runs that gave a result."""
    pairs = _pairs([1.0 + 0.01 * i for i in range(10)], [0.5] * 10, "controller_s")
    assert _row(pairs, "controller_s")["claim"]
    pairs[1]["change"] = None
    row = _row(pairs, "controller_s")
    assert (row["n"], row["wins"], row["claim"]) == (10, 9, True)
    pairs[2]["change"] = _result(correct=False, controller_s=0.5)
    row = _row(pairs, "controller_s")
    assert (row["n"], row["wins"], row["claim"]) == (10, 8, False)
    pairs = _pairs([1.0] * 10, [0.5] * 10, "controller_s")
    pairs[3]["parent"] = None
    row = _row(pairs, "controller_s")
    assert (row["n"], row["wins"], row["claim"]) == (10, 9, True)
    assert row["parent"] == (1.0, 1.0, 1.0) and row["change"] == (0.5, 0.5, 0.5)


def test_no_claim_when_a_larger_share_of_the_change_operations_failed():
    """A change run with failed operations loses its pair, and any larger
    failed share than the parent's voids the claim even on 9 wins in 10."""
    pairs = _pairs([1.0] * 10, [0.5] * 10, "controller_s")
    pairs[0]["change"] = _result(failed=1, controller_s=0.5)
    row = _row(pairs, "controller_s")
    assert (row["wins"], row["claim"]) == (9, False)
    pairs[5]["parent"] = _result(failed=1, controller_s=1.0)
    assert bench_pairs.failed_share(pairs, "change") == bench_pairs.failed_share(pairs, "parent")
    assert _row(pairs, "controller_s")["claim"]


def test_failed_runs_are_reported():
    pairs = _pairs([1.0, 1.1, 1.2], [0.5, 0.6, 0.7], "controller_s")
    pairs[1]["change"] = None
    pairs[2]["parent"] = _result(correct=False, failed=3, controller_s=1.2)
    assert bench_pairs.run_problems(pairs) == [
        "pair 1 change: no result",
        "pair 2 parent: correct=False failed=3 of 10",
    ]
    assert [r["metric"] for r in bench_pairs.summarize(pairs, METRICS)] == ["controller_s"]


@pytest.mark.parametrize("data_filter", [True, False], ids=["data-filter", "no-filter"])
def test_unpack_writes_the_committed_files_of_a_ref(tmp_path, monkeypatch, data_filter):
    """`unpack` extracts a ref's committed files, uncommitted edits left
    out, with or without tarfile's data filter (Python before 3.11.4)."""
    if not data_filter:  # the tarfile of Python 3.10 to 3.11.3
        tarfile = bench_pairs.tarfile
        extractall = tarfile.TarFile.extractall

        def old_extractall(self, path=".", members=None, *, numeric_owner=False):
            return extractall(self, path, members, numeric_owner=numeric_owner)

        monkeypatch.delattr(tarfile, "data_filter", raising=False)
        monkeypatch.setattr(tarfile.TarFile, "extractall", old_extractall)
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("VALUE = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "pkg"], ["commit", "-qm", "one"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    (repo / "pkg" / "mod.py").write_text("VALUE = 2\n")
    dest = tmp_path / "dest"
    dest.mkdir()
    bench_pairs.unpack("HEAD", dest, repo=repo)
    assert (dest / "pkg" / "mod.py").read_text() == "VALUE = 1\n"
    assert sorted(p.name for p in dest.rglob("*")) == ["mod.py", "pkg"]


def test_main_runs_the_benchmark_length_alternately_against_a_required_parent(
        monkeypatch, capsys):
    """Each pair runs both sides with `BENCHMARK.json`'s run length and
    `--trace 0`, the first side alternating; `--parent` is required."""
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "probe-heavy"])
    capsys.readouterr()
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    unpacked, runs = [], []
    monkeypatch.setattr(bench_pairs, "unpack", lambda ref, dest: unpacked.append(ref))

    def run_once(command, root):
        runs.append(("change" if root == bench_pairs.ROOT else "parent", command))
        return _result(rounds_per_s=2.0 if runs[-1][0] == "change" else 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload", "probe-heavy",
                             "--pairs", "3"]) == 0
    assert unpacked == ["HEAD~1"]
    assert [side for side, _ in runs] == ["parent", "change", "change", "parent",
                                         "parent", "change"]
    assert {tuple(c) for _, c in runs} == {(
        *spec["command"], "--workload", "probe-heavy", "--seed", "42",
        "--seconds", str(spec["run_seconds"]), "--trace", "0")}
    out = capsys.readouterr().out
    assert "rounds_per_s" in out and "holds" in out


def test_the_last_stdout_line_is_one_json_object_of_every_pair_and_every_row(
        monkeypatch, capsys):
    """The line holds the host's usable CPUs and Python and NumPy versions,
    each pair's parsed results, each summary row (both sides' quartiles,
    wins, the parent's IQR, claim, regressed) and the run problems, so a
    saved line keeps the spread of the runs and what they ran on."""
    results = {"parent": iter([_result(controller_s=v) for v in (1.0, 2.0, 1.5)]),
               "change": iter([_result(controller_s=0.5), None,
                               _result(correct=False, controller_s=0.75)])}

    def run_once(command, root):
        return next(results["change" if root == bench_pairs.ROOT else "parent"])

    monkeypatch.setattr(bench_pairs, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", "HEAD~1", "--workload", "probe-heavy",
                             "--pairs", "3"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    keys = ("workload", "seed", "parent", "run_seconds", "usable_cpus", "python", "numpy")
    assert {k: line[k] for k in keys} == {
        "workload": "probe-heavy", "seed": 42, "parent": "HEAD~1",
        "run_seconds": spec["run_seconds"], "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__}
    pairs = [{"parent": _result(controller_s=1.0), "change": _result(controller_s=0.5)},
             {"parent": _result(controller_s=2.0), "change": None},
             {"parent": _result(controller_s=1.5),
              "change": _result(correct=False, controller_s=0.75)}]
    assert line["pairs"] == pairs
    assert line["summary"] == [{
        "metric": "controller_s", "n": 3, "parent": [1.25, 1.5, 1.75],
        "change": [0.5625, 0.625, 0.6875], "wins": 1, "parent_iqr": 0.5,
        "claim": False, "regressed": False}]
    assert line["problems"] == bench_pairs.run_problems(pairs) == [
        "pair 1 change: no result", "pair 2 change: correct=False failed=0 of 10"]
