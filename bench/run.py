"""varsign benchmark: end-to-end and per-layer numbers for one workload.

Usage, from the repository root:

    python3 bench/run.py --workload wide-alphabet --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads: wide-alphabet, deep-words, cli-cold (see DESIGN.md).  Each runs
in its own fresh interpreter (bench/worker.py) as a closed loop with one
client.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 a separate traced run reports the per-layer metrics, size
counters, scaling series and tracing overhead.  Set-up time is measured here,
from starting an interpreter until it reports that its workload is ready; it
is taken SETUP_SAMPLES times per run, before and after the measured loop, and
the median is reported.  Timings are scaled to reference machine speed (see
calibration.py); the unscaled wall-clock figures are printed as comments.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 on success and non-zero,
with no result printed, when the benchmark cannot run (for example when the
library sources are not next to this directory).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("wide-alphabet", "deep-words", "cli-cold")
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _start_worker(args, deadline):
    """Run one worker; return (seconds until it reported ready, its last
    stdout line).  The worker is killed if it outlives the deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return ready, rest.strip().splitlines()[-1] if rest.strip() else ""


def run_workload(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, wall_setups = [], []

    def sample_setups(count):
        for _ in range(count):
            before = calibration.seconds()
            ready, _ = _start_worker([*base, "--setup-only"], deadline)
            wall_setups.append(ready)
            setups.append(ready * calibration.scale(before, calibration.seconds()))

    # Set-up samples are split between the start and the end of the run so
    # that one slow stretch of the machine does not move all of them.
    if not trace:
        sample_setups(SETUP_SAMPLES // 2)
    _, line = _start_worker(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result = json.loads(line)
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["wall_clock"]["setup_s"] = statistics.median(wall_setups)
    return result


def _report(workload, result):
    print(f"# {workload}: {result['attempted']} operations in {result['rounds']} "
          f"rounds, {result['failed']} failed, correct={result['correct']}")
    for cause, count in sorted(result["failures"].items()):
        print(f"#   failed {count}x  {cause}")
    for name, value in result.get("wall_clock", {}).items():
        print(f"# wall clock, unscaled: {name} {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name}: {value} {unit}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "varsign" / "__init__.py").is_file() or \
            not (ROOT / "presets").is_dir():
        print("bench: the varsign sources (src/varsign, presets/) are not next to "
              "this directory; run from a full checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every worker it starts, so that the
        # calibration runs and the measured work share a core.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(_report(workload, result)), flush=True)
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
