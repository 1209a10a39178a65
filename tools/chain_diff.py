"""The CLI chain's output trees at a parent commit against the working tree.

Run from the root of a checkout::

    python3 tools/chain_diff.py --parent HEAD~1
    python3 tools/chain_diff.py --parent main --seeds 42,1337,9001

The parent ref's committed files are unpacked (`bench_pairs.unpack`) into a
temporary directory. At each seed, every CLI phase runs under the stock
config with `--seed`: `train-adapters`, `controller`, `finalize` and `grid`,
then `ablate` and `report --repeats 1`, once from that copy and once from
the working tree, each side into its own output root. The two roots must
hold the same files with the same bytes, except for `report`'s wall-clock
files (`WALL_CLOCK`), whose bytes are not compared. A change meant to keep
every bit of every phase passes when they do. The last
line of standard output is one JSON object holding the parent ref, the
seeds, each seed's differences (a file only one side wrote, or one whose
bytes differ) and each command that exited nonzero. The tool exits 1 on any
difference or failed command. The temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, SIDES, unpack

COMMANDS = (("train-adapters",), ("controller",), ("finalize",), ("grid",), ("ablate",),
            ("report", "--repeats", "1"))
# the files that hold a time measurement, and so differ between any two runs
WALL_CLOCK = {"report/runtime.csv", "report/report.txt", "report/manifest.json"}


def tree_diff(parent: Path, change: Path) -> list[str]:
    """Each file, by its path under the root, that only one root holds or,
    outside `WALL_CLOCK`, whose bytes differ between the two; empty when the
    trees match."""
    files = [{p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
             for root in (parent, change)]
    return ([f"only in parent: {n}" for n in sorted(files[0] - files[1])]
            + [f"only in change: {n}" for n in sorted(files[1] - files[0])]
            + [f"differs: {n}" for n in sorted(files[0] & files[1] - WALL_CLOCK)
               if (parent / n).read_bytes() != (change / n).read_bytes()])


def run_chain(checkout: Path, out: Path, seed: int) -> str | None:
    """The `COMMANDS` of `checkout`'s package at `seed` into `out`; the
    first failure, or None."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for command, *flags in COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "policyprune.cli", command, *flags,
             "--seed", str(seed), "--out", str(out)],
            cwd=checkout, env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            return f"{command} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the ref to compare the working tree against")
    parser.add_argument("--seeds", default="42,1337,9001",
                        help="comma-separated seeds, one chain per side at each")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    differences, failures = {}, []
    with tempfile.TemporaryDirectory(prefix="chain-diff-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent", "change": ROOT}
        unpack(args.parent, checkouts["parent"])
        for seed in seeds:
            outs = {side: Path(tmp) / f"out-{side}-{seed}" for side in SIDES}
            for side in SIDES:
                failure = run_chain(checkouts[side], outs[side], seed)
                if failure:
                    failures.append(f"{side} seed {seed}: {failure}")
            differences[seed] = tree_diff(outs["parent"], outs["change"])
            print(f"seed {seed}: {len(differences[seed])} differences", flush=True)
            for line in differences[seed]:
                print(f"  {line}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"parent": args.parent, "seeds": seeds,
                      "differences": differences, "failures": failures}))
    return 1 if failures or any(differences.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
