"""policyprune benchmark: one workload per run, or every workload in turn.

Run from the root of a checkout (nothing to build; the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload stock-chain --seed 42 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all          # every workload, timed and traced

``--trace 0`` times the workload with nothing patched and prints the
end-to-end metrics; ``--trace 1`` is the separate traced run and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch
files go under ``.perfbench_out/`` in the checkout; the traced run leaves its
spans there as ``trace-<workload>.npz``.

The benchmark runs in this one process and changes no machine setting. It
pins the BLAS thread variables to 1 in its own environment before NumPy
loads, and records what it inherited.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_BLAS_ENV = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
os.environ.update({k: "1" for k in BLAS_THREAD_VARS})

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("stock-chain", "policy-vs-grid", "probe-heavy")
# Task seeds per run. On about one stock seed in ten the controller settles
# above p_min and the final dev loss is up to twice the grid's best (seed 14:
# 2.18x), so one seed alone, or the median of three, would make
# dev_loss_ratio jump between runs; the median of five holds.
PANEL = 5
MIN_ITERATIONS = PANEL + 1

# name -> (unit, better); the same list BENCHMARK.json declares.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "chain_s": ("s", "lower"),
    "policy_s": ("s", "lower"),
    "grid_s": ("s", "lower"),
    "controller_s": ("s", "lower"),
    "wall_speedup": ("x", "higher"),
    "steps_per_s": ("1/s", "higher"),
    "rounds_per_s": ("1/s", "higher"),
    "dev_loss_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def import_package():
    """Import policyprune from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "policyprune" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'policyprune'}; run from a policyprune checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import policyprune

    if Path(policyprune.__file__).resolve().parent != src / "policyprune":
        sys.exit(f"error: imported policyprune from {policyprune.__file__}, not {src}")


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env_inherited": INHERITED_BLAS_ENV,
        "blas_env_set": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "machine_settings": "none changed: no governor, cache, affinity or cgroup "
                            "setting is touched; only this process's environment",
    }


def well_sampled(values: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    import numpy as np

    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1 - q / 100) >= 10:
            return f"p{q:g}", float(np.percentile(values, q))
    return None


def task_seeds(seed: int) -> list[int]:
    """The run's panel: --seed itself, then seeds derived from it."""
    import numpy as np

    return [seed] + [int(np.random.SeedSequence([seed, j]).generate_state(1)[0])
                     for j in range(1, PANEL)]


def measure(name: str, seed: int, seconds: float, tracer, clock) -> dict:
    """Set up once per panel seed, then run iterations for `seconds`."""
    import workloads

    workdir = OUT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(name, task_seeds(seed), workdir, clock)
    segment = 0

    def enter(seg_id):
        if tracer is not None:
            tracer.segment = seg_id

    setup_s, setup_segs = [], []
    for j in range(PANEL):
        segment += 1
        enter(segment)
        setup_segs.append(segment)
        clock.start()
        wl.setup(j, workdir / f"setup-{j}")
        setup_s.append(clock.lap())

    samples, checks, iter_segs, firsts = [], [], [], {}
    problems: list[str] = []
    attempted = failed = 0
    t_start = perf_counter()
    durations: list[float] = []
    i = 0
    # stop before an iteration that would likely end past the window
    while i < MIN_ITERATIONS or (perf_counter() - t_start
                                 + statistics.median(durations) <= seconds):
        t_iter = perf_counter()
        segment += 1
        enter(segment)
        timed_seg = segment
        try:
            sample = wl.iterate(i)
            segment += 1
            enter(segment)  # checks are traced apart from the timed work
            checked = wl.check(sample)
        except Exception as exc:  # a failed iteration is reported, not fatal
            traceback.print_exc()
            attempted += 1
            failed += 1
            problems.append(f"iteration {i}: {type(exc).__name__}: {exc}")
            durations.append(perf_counter() - t_iter)
            i += 1
            continue
        sample.payload = None  # keep memory flat however many iterations run
        first = firsts.setdefault(i % PANEL, checked)
        if checked.outcome != first.outcome:
            checked.problems.append("outcome differs from the first iteration on its seed")
            checked.failed += 1
        attempted += checked.attempted
        failed += checked.failed
        problems += [f"iteration {i}: {p}" for p in checked.problems]
        samples.append(sample)
        checks.append(checked)
        iter_segs.append((timed_seg, i % PANEL))
        durations.append(perf_counter() - t_iter)
        i += 1
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s, "samples": samples, "checks": checks,
        "references": clock.references,
        "attempted": attempted, "failed": failed, "problems": problems,
        "setup_segs": setup_segs, "iter_segs": iter_segs, "firsts": firsts,
    }


def end_to_end(run: dict) -> dict[str, list[float]]:
    """Every end-to-end metric's samples; one-sample lists are whole-run values."""
    s, c = run["samples"], run["checks"]
    policy = [x.policy_s for x in s]
    grid = [x.grid_s for x in s]
    return {
        "setup_s": run["setup_s"],
        "chain_s": [x.chain_s for x in s],
        "policy_s": policy,
        "grid_s": grid,
        "controller_s": [x.controller_s for x in s],
        "wall_speedup": [statistics.median(grid) / statistics.median(policy)],
        "steps_per_s": [k.steps / x.chain_s for x, k in zip(s, c)],
        "rounds_per_s": [k.rounds / x.controller_s for x, k in zip(s, c)],
        "dev_loss_ratio": [k.dev_loss_ratio for k in run["firsts"].values()],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
    }


def per_layer(run: dict, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced run, and any count that changed
    between iterations (or between set-up repetitions)."""
    import spans

    problems = []
    iters = [seg for seg, _j in run["iter_segs"]]
    setups = run["setup_segs"]
    # iterations on one panel seed must count alike (each set-up has its own seed)
    iter_groups = [g for g in ([seg for seg, j in run["iter_segs"] if j == jj]
                               for jj in range(PANEL)) if g]
    table = tracer.layer_table(setups + iters)
    metrics: dict[str, tuple[float, str]] = {}

    def exact(layer: str, key: str, groups: list[list[int]]) -> int:
        for segs in groups:
            values = {table[layer][key][s] for s in segs}
            if len(values) > 1:
                problems.append(f"{layer} {key} differ between segments: {sorted(values)}")
        return table[layer][key][groups[0][0]]

    for layer in spans.SPANNED:
        row = table[layer]
        in_iters = any(row["calls"][s] for s in iters)
        segs, groups = (iters, iter_groups) if in_iters else (setups, [[setups[0]]])
        metrics[f"{layer}.calls"] = (exact(layer, "calls", groups), "count")
        durations = row["durations"]
        us = float(statistics.median(durations)) * 1e6 if durations.size else 0.0
        metrics[f"{layer}.us"] = (us, "us")
        metrics[f"{layer}.self_s"] = (statistics.median(row["self_s"][s] for s in segs), "s")
        if layer in spans.INCLUSIVE_LAYERS:
            metrics[f"{layer}.s"] = (statistics.median(row["s"][s] for s in segs), "s")
        if layer in spans.BYTE_LAYERS:
            metrics[f"{layer}.bytes"] = (exact(layer, "bytes", groups), "bytes")
    for layer in spans.COUNTED:
        metrics[f"{layer}.calls"] = (exact(layer, "calls", iter_groups), "count")

    ref = run["firsts"][min(run["firsts"])].outcome  # --seed itself, unless it failed
    steps = ref["steps"]
    for phase in ("phase1", "phase2", "phase3", "grid"):
        metrics[f"steps.{phase}"] = (steps.get(phase, 0), "count")
    for key in ("rounds", "probes", "commits", "signal_probes"):
        metrics[f"controller.{key}"] = (ref[key], "count")
    metrics["controller.commit_rate"] = (ref["commits"] / ref["rounds"], "ratio")
    metrics["controller.probe_signal_share"] = (ref["signal_probes"] / ref["probes"], "ratio")
    written = sum(ref["file_bytes"].values()) if "file_bytes" in ref else ref["log_bytes"]
    metrics["io.bytes_written"] = (written, "bytes")
    ratios = [k.dev_loss_ratio for k in run["firsts"].values()]
    metrics["quality.dev_loss_ratio_max"] = (max(ratios), "ratio")
    metrics["trace.chain_s"] = (statistics.median(x.chain_s for x in run["samples"]), "s")
    metrics["host.reference_ms"] = (1e3 * statistics.median(run["references"]), "ms")
    return metrics, problems


def print_table(name: str, seed: int, metric_samples: dict, run: dict) -> None:
    from hostclock import REFERENCE_S

    print(f"workload {name}  seed {seed}  iterations {len(run['samples'])}  "
          f"attempted {run['attempted']}  failed {run['failed']}")
    print(f"  times in nominal seconds; wall seconds per iteration: median "
          f"{statistics.median(x.wall_s for x in run['samples']):.4f}; reference loop: "
          f"median {1e3 * statistics.median(run['references']):.2f} ms "
          f"(nominal {1e3 * REFERENCE_S:.0f} ms)")
    print(f"  {'metric':<16} {'unit':<6} {'n':>4} {'median':>14} {'tail':>22}")
    for metric, values in metric_samples.items():
        tail = well_sampled(values)
        tail_text = f"{tail[0]} {tail[1]:.6g}" if tail else "-"
        print(f"  {metric:<16} {END_TO_END[metric][0]:<6} {len(values):>4} "
              f"{statistics.median(values):>14.6g} {tail_text:>22}")


def run_one(args) -> int:
    import_package()
    from hostclock import Clock
    from spans import Tracer

    print("host " + json.dumps(host_info(), sort_keys=True))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    clock = Clock(sampling=tracer is None)
    try:
        run = measure(args.workload, args.seed, args.seconds, tracer, clock)
    finally:
        clock.close()
        if tracer is not None:
            tracer.uninstall()
    if not run["checks"]:
        print("\n".join(run["problems"]), file=sys.stderr)
        return 1
    samples = end_to_end(run)
    print_table(args.workload, args.seed, samples, run)
    if tracer is not None:
        layer_metrics, count_problems = per_layer(run, tracer)
        run["problems"] += count_problems
        run["failed"] += len(count_problems)
        tracer.write(OUT / f"trace-{args.workload}.npz")
        out = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        for k, (v, u) in layer_metrics.items():
            print(f"  layer {k:<58} {v:>14.6g} {u}")
    else:
        out = {k: {"value": statistics.median(v), "unit": END_TO_END[k][0]}
               for k, v in samples.items()}
    for p in run["problems"]:
        print(f"  FAILED CHECK {p}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": out,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, timed then traced, each in its own process in turn;
    prints the end-to-end medians and the tracing overhead per workload."""
    results = {}
    for name in WORKLOADS:
        for mode in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(mode)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results[name, mode] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary (medians; tracing overhead is the traced minus the timed chain_s)")
    ok = True
    for name in WORKLOADS:
        timed, traced = results[name, 0], results[name, 1]
        ok &= timed["correct"] and traced["correct"]
        base = timed["metrics"]["chain_s"]["value"]
        over = traced["metrics"]["trace.chain_s"]["value"] - base
        values = "  ".join(f"{k}={m['value']:.6g}{m['unit']}"
                           for k, m in timed["metrics"].items())
        print(f"{name}: correct={timed['correct'] and traced['correct']} "
              f"attempted={timed['attempted']} failed={timed['failed']}  {values}")
        print(f"{name}: tracing overhead {over:+.4f} s on a chain_s base of "
              f"{base:.4f} s ({100 * over / base:+.1f}%)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed: task data and every run stream (held-out: 1337)")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="how long the timed iterations run, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
