#!/usr/bin/env python3
"""The spanqa benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload train-acceptance --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Inputs are generated from `--seed` and cached under `perfbench/.cache` (see
inputs.py). The workload then runs in fresh single-threaded child processes
(see workload.py) with OpenBLAS/OpenMP pinned to one thread:

  * nine set-up probes, each a new process that imports spanqa and loads the
    inputs; `setup_s` is the median over them and the measured run;
  * the measured run, the workload's closed loop for `--seconds`;
  * with `--trace 1`, also one traced pass, whose per-layer numbers are
    printed instead of the end-to-end ones, with the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines above it give the
environment and every metric by name and unit. The exit code is 1 when an
operation raised or an output check failed, and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from workload import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600  # the first run in a checkout trains the predict model
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "span_epochs_per_s": "span-epochs/s",
    "predict_reports_per_s": "reports/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "f1_average": "0-100",
    "f1_minimum": "0-100",
    "span_recovery_pct": "%",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".ms_p50", ".ms_p90")):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "_per_pair", "_per_report")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(spec: dict, mode: str, seconds: float) -> dict:
    """Run workload.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--spec", json.dumps(spec),
           "--mode", mode, "--seconds", str(seconds), "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchmarkError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def prepare(workload: str, seed: int, size: str) -> dict:
    """Prepare inputs in a child process, so this one stays small.

    A child's ru_maxrss starts from its parent's peak on Linux, so the
    parent must not grow past the workload processes it measures.
    """
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=PREPARE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"preparing inputs exceeded {PREPARE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"preparing inputs failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], res: dict) -> dict[str, float]:
    lat = list(res["report_seconds"].values())
    if not lat or not res["span_epochs_per_s"]:
        raise BenchmarkError("no operation completed")
    return {
        "setup_s": statistics.median(setups),
        "span_epochs_per_s": res["span_epochs_per_s"],
        "predict_reports_per_s": len(lat) / sum(lat),
        "predict_ms_p50": 1000 * percentile(lat, 0.5),
        "predict_ms_p90": 1000 * percentile(lat, 0.9),
        "peak_rss_mb": res["peak_rss_mb"],
        **res["quality"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "spanqa" / "__init__.py").is_file():
        print(f"perfbench: no spanqa sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        spec = prepare(args.workload, args.seed, args.size)
        setups = [run_child(spec, "setup", 0)["setup_s"] for _ in range(SETUP_PROBES)]
        measured = run_child(spec, "run", args.seconds)
        metrics = end_to_end(setups + [measured["setup_s"]], measured)
        traced = run_child(spec, "trace", args.seconds) if args.trace else None
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    attempted, failed = measured["attempted"], measured["failed"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"main calls {measured['calls']}  measured {measured['measured_s']:.1f} s")
    print("env " + json.dumps({**measured["env"], "seed": args.seed}, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'predict samples':<24} {len(measured['report_seconds']):>14d} reports, "
          f"each the fastest of {measured['classify_calls'] / len(measured['report_seconds']):.1f} "
          "classify_report calls on average")
    if args.workload == "train-acceptance":
        print(f"  {'train_span_epochs_per_s':<24} {metrics['span_epochs_per_s']:>14.4f} "
              f"span-epochs/s (median of {measured['calls']} train() calls)")
    print(f"  {'failed_frac':<24} {failed / max(attempted, 1):>14.4f} ratio "
          f"({failed} of {attempted} operations)")

    if traced is None:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        # How much tracing slows the timed calls; both runs use one seed.
        layers["trace.overhead_pct"] = 100 * (measured["main_rate"] / traced["main_rate"] - 1)
        print(f"traced pass: {traced['trace_self_total_s']:.3f} s of self time in "
              f"{traced['trace_wall_s']:.3f} s traced; tracing overhead "
              f"{layers['trace.overhead_pct']:.1f}%")
        for name, value in layers.items():
            print(f"  {name:<40} {value:>16.6f} {layer_unit(name)}")
        reported = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
