"""Paired benchmark runs: a parent commit against the working tree.

Run from the root of a checkout::

    python3 tools/bench_pairs.py --parent HEAD~1 --workload probe-heavy --seed 42 --pairs 10
    python3 tools/bench_pairs.py --parent main --workload stock-chain --pairs 5

The parent ref's committed files are unpacked (`git archive`) into a
temporary directory. Each pair then runs the benchmark command that
`BENCHMARK.json` declares once in that copy and once in the working tree,
for the run length `BENCHMARK.json` sets and with `--trace 0`, and the side
that goes first alternates from pair to pair, so a drift in host speed hits
both sides alike. Each run's result is the last line of its standard output.

For every end-to-end metric the summary gives each side's median and
quartiles over its runs that gave a result, how many of the pairs run the
change won (in the better direction `BENCHMARK.json` gives; ties count for
neither side, and a pair whose change run gave no result, reported
`correct: false` or counted failed operations is lost), the parent's
interquartile range, and whether a gain may be claimed: the change wins at
least nine tenths of all pairs run, its median is better than the parent's
by more than the parent's interquartile range, and no larger share of its
operations failed than of the parent's. It also gives whether the metric
regressed: the change's median is worse than the parent's median by more
than the metric's `bound` from `BENCHMARK.json`, read as a share of the
parent's median (a bound of 0.25 on a parent median of 2.0 s flags a change
median above 2.5 s). Runs that exit nonzero, print no result, report
`correct: false` or count failed operations are listed. The last line of
standard output is one JSON object holding the workload, seed, parent ref,
run length, what a gain may hang on (`usable_cpus`, the CPUs the runs
inherit, and this interpreter's `python` and `numpy` versions), every
pair's parsed results (`null` for a run that gave none), every summary
row as `summarize` returns it and the run problems, so a saved line
records the spread and not only one run. The tool exits 1 when any run had
such a problem or any metric regressed. The temporary copy is removed on
exit, and each run has ended before the next starts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _sound(res: dict | None) -> bool:
    return res is not None and bool(res.get("correct")) and not res.get("failed")


def _value(res: dict | None, name: str) -> float | None:
    metric = None if res is None else res["metrics"].get(name)
    return None if metric is None else metric["value"]


def failed_share(pairs: list[dict], side: str) -> float:
    """The share of `side`'s attempted operations that failed, over its runs
    that gave a result."""
    runs = [p[side] for p in pairs if p[side] is not None]
    attempted = sum(r.get("attempted") or 0 for r in runs)
    return sum(r.get("failed") or 0 for r in runs) / attempted if attempted else 0.0


def summarize(pairs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per end-to-end metric that both sides reported at least once.
    `pairs[i]` maps "parent" and "change" to a run's parsed last line, or
    None for a run that gave none; `metrics` is `BENCHMARK.json`'s
    `end_to_end` list. `n` is the number of pairs run, the denominator of
    the win share. `regressed` holds when the change's median is worse than
    the parent's by more than the metric's `bound` times the parent's
    median."""
    sound_share = failed_share(pairs, "change") <= failed_share(pairs, "parent")
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [v for p in pairs if (v := _value(p[side], name)) is not None]
                  for side in SIDES}
        if not all(values.values()):
            continue
        wins = 0
        for pair in pairs:
            p, c = _value(pair["parent"], name), _value(pair["change"], name)
            if _sound(pair["change"]) and p is not None and c is not None:
                wins += (c > p) if higher else (c < p)
        stats = {side: quartiles(values[side]) for side in SIDES}
        iqr = stats["parent"][2] - stats["parent"][0]
        gap = stats["change"][1] - stats["parent"][1]
        worse = -gap if higher else gap
        rows.append({
            "metric": name,
            "n": len(pairs),
            "parent": stats["parent"],
            "change": stats["change"],
            "wins": wins,
            "parent_iqr": iqr,
            "claim": 10 * wins >= 9 * len(pairs) and -worse > iqr and sound_share,
            "regressed": worse > metric["bound"] * abs(stats["parent"][1]),
        })
    return rows


def run_problems(pairs: list[dict]) -> list[str]:
    """Each run that gave no result, reported incorrect or failed operations."""
    problems = []
    for i, pair in enumerate(pairs):
        for side in SIDES:
            res = pair[side]
            if res is None:
                problems.append(f"pair {i} {side}: no result")
            elif not _sound(res):
                problems.append(f"pair {i} {side}: correct={res.get('correct')} "
                                f"failed={res.get('failed')} of {res.get('attempted')}")
    return problems


def unpack(ref: str, dest: Path, repo: Path = ROOT) -> None:
    """The committed files of `ref` in the git repository `repo`, written
    under `dest` (through tarfile's "data" filter where this Python has it:
    3.11.4 and later)."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=repo,
                         capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **safe)


def run_once(command: list[str], root: Path) -> dict | None:
    """One benchmark run in `root`; its parsed last stdout line, or None."""
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def host() -> dict:
    """The CPUs this process may run on, which every benchmark run inherits,
    and the Python and NumPy versions installed for it."""
    return {"usable_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", required=True,
                        help="the ref to compare the working tree against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    command = spec["command"] + ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        roots = {"parent": Path(tmp), "change": ROOT}
        unpack(args.parent, roots["parent"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(command, roots[side]) for side in order}
            pairs.append(pair)
            for side in order:
                res = pair[side]
                values = "-" if res is None else " ".join(
                    f"{k}={fmt(m['value'])}" for k, m in res["metrics"].items())
                print(f"pair {i} {side}: {values}", flush=True)
    print(f"{args.workload} seed {args.seed}: {args.parent} (parent) against the "
          f"working tree (change), {len(pairs)} pairs of {seconds} s")
    print(f"  {'metric':<16} {'n':>3} {'parent q1/med/q3':>34} "
          f"{'change q1/med/q3':>34} {'wins':>5} {'parent IQR':>11}  claim  regressed")
    rows = summarize(pairs, spec["end_to_end"])
    for row in rows:
        sides = ["/".join(map(fmt, row[side])) for side in SIDES]
        print(f"  {row['metric']:<16} {row['n']:>3} {sides[0]:>34} {sides[1]:>34} "
              f"{row['wins']:>5} {fmt(row['parent_iqr']):>11}  "
              f"{'holds' if row['claim'] else 'no':<5}  "
              f"{'YES' if row['regressed'] else 'no'}")
    problems = run_problems(pairs)
    for problem in problems:
        print(f"  RUN PROBLEM {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "parent": args.parent,
                      "run_seconds": seconds, **host(), "pairs": pairs, "summary": rows,
                      "problems": problems}))
    return 1 if problems or any(row["regressed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
