"""One workload in a fresh interpreter: set up, signal "ready", run the
closed loop, check every result, and print one JSON line of measurements.

run.py starts this file; it is not meant to be run by hand.  The loop has a
single client that issues the next operation only after the previous one has
returned.  It runs whole rounds until the time spent inside operations
reaches --seconds and at least MIN_OPS operations have run.

Each operation's wall time is scaled to reference speed (see
calibration.py) by the calibration runs on either side of it, taken before
every round, after it, and after any operation that ends more than
CALIBRATE_EVERY_S after the last one.

Each round's results are checked once the round is over, outside the timed
interval, and only the verdicts and a few numbers are kept, so memory does
not grow with the number of operations.  The checks recompute only what the
operations themselves already put into the tail memo, so they leave no
warmer cache for later rounds.
"""
from __future__ import annotations

import argparse
import array
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import varsign  # noqa: E402
from varsign.errors import VarsignError  # noqa: E402

import calibration  # noqa: E402
import workloads  # noqa: E402

# p90 needs ten samples beyond it.
MIN_OPS = 100
CALIBRATE_EVERY_S = 0.25


def _nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _judge(op, outcome, error):
    if error is not None:
        if isinstance(error, VarsignError):
            return ("refused", type(error).__name__)
        return ("wrong", "".join(traceback.format_exception(error)).strip())
    try:
        return op.check(outcome)
    except Exception:
        return ("wrong", "check raised: " + traceback.format_exc().strip())


class Log:
    """What a run keeps of its operations: the scaled and the wall-clock
    latencies of the ones that passed, failures by cause, and (when
    `sizes`) the size counters of the returned values."""

    def __init__(self, sizes=False):
        self.sizes = sizes
        self.attempted = 0
        self.busy = 0.0             # scaled to reference speed
        self.wall_busy = 0.0
        self.ok = array.array("d")  # scaled latencies of passed operations
        self.wall_ok = array.array("d")
        self.failures = Counter()   # "category: system operation: reason"
        self.wrong = 0
        self.den_bits = []
        self.digit_counts = []

    def run_round(self, ops, before=None, after=None):
        """Time every operation of one round, then judge the results."""
        clock = time.perf_counter
        timed = []
        speeds = [calibration.seconds()]
        if before:
            before()
        try:
            mark = clock()
            for op in ops:
                start = clock()
                try:
                    outcome, error = op.call(), None
                except Exception as exc:        # judged below, untimed
                    outcome, error = None, exc
                end = clock()
                timed.append((op, outcome, error, end - start, len(speeds) - 1))
                if end - mark >= CALIBRATE_EVERY_S:
                    speeds.append(calibration.seconds())
                    mark = clock()
        finally:
            if after:
                after()
        speeds.append(calibration.seconds())
        for op, outcome, error, elapsed, segment in timed:
            scale = calibration.scale(speeds[segment], speeds[segment + 1])
            self._record(op, outcome, _judge(op, outcome, error), elapsed, scale)

    def _record(self, op, outcome, verdict, elapsed, scale):
        self.attempted += 1
        self.busy += elapsed * scale
        self.wall_busy += elapsed
        if self.sizes and outcome is not None:
            self.den_bits.extend(v.denominator.bit_length() for v in op.values(outcome))
            if op.digits is not None:
                count = op.digits(outcome)
                if count is not None:
                    self.digit_counts.append(count)
        if verdict is None:
            self.ok.append(elapsed * scale)
            self.wall_ok.append(elapsed)
            return
        category, reason = verdict
        key = f"{category}: {op.system} {op.kind}: {reason.splitlines()[-1]}"
        self.failures[key] += 1
        if category == "wrong":
            self.wrong += 1
            if self.failures[key] == 1:
                print(f"wrong result: {op.system} {op.kind}\n{reason}", file=sys.stderr)

    @property
    def failed(self):
        return self.attempted - len(self.ok)

    def timings(self, ok, busy):
        """ops_per_s, p50 and p90 in ms.  A failed operation counts as
        beyond every percentile; should a percentile land on one, it reads
        as the whole measured interval."""
        latencies = sorted(ok) + [busy] * self.failed
        return (len(ok) / busy,
                _nearest_rank(latencies, 0.50) * 1e3,
                _nearest_rank(latencies, 0.90) * 1e3)


def timed_run(workload, seconds):
    log = Log()
    rounds = 0
    while log.wall_busy < seconds or log.attempted < MIN_OPS:
        log.run_round(workload.round(rounds))
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops_per_s, p50, p90 = log.timings(log.ok, log.busy)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall = dict(zip(("ops_per_s", "latency_p50_ms", "latency_p90_ms"),
                    log.timings(log.wall_ok, log.wall_busy)))
    return {"attempted": log.attempted, "failed": log.failed,
            "correct": log.wrong == 0, "failures": log.failures,
            "rounds": rounds, "metrics": metrics, "wall_clock": wall}


def traced_run(workload, seconds, seed):
    """Rounds 0..n-1, each run twice: once with the tracer installed and once
    without, the traced copy first in every other round so that both modes
    meet warm and cold caches equally often.  n is even and fixed by --seconds
    alone, so the traced work (and every call count) is the same on every
    run with this seed."""
    import scaling
    import tracing

    metrics = dict(scaling.series(seed))
    tracer = tracing.Tracer()
    rounds = 2 * max(1, round(seconds * workload.trace_rounds_per_s / 2))
    plain, traced = Log(), Log(sizes=True)
    for k in range(rounds):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                traced.run_round(workload.round(k), tracer.install, tracer.uninstall)
            else:
                plain.run_round(workload.round(k))
    metrics.update(tracer.metrics(scale=traced.busy / traced.wall_busy))
    bits = sorted(traced.den_bits)
    digits = traced.digit_counts
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics.update({
        "expansion.result_den_bits.p50": (_nearest_rank(bits, 0.5) if bits else 0, "bits"),
        "expansion.result_den_bits.max": (bits[-1] if bits else 0, "bits"),
        "encoder.digits_per_encode.mean": (
            statistics.fmean(digits) if digits else 0.0, "count"),
        "trace.overhead_ratio": (
            (plain.attempted / plain.busy) / (traced.attempted / traced.busy), "ratio"),
        "failed_ops_ratio": (failed / attempted, "ratio"),
    })
    # The known-defect probe runs untraced, after the rounds; its operations
    # are not the workload's, so they count only towards `correct`.
    wrong = plain.wrong + traced.wrong
    failures = plain.failures + traced.failures
    for metric, ops in workloads.defect_probe(seed):
        probe = Log()
        probe.run_round(ops)
        metrics[metric] = (probe.failed / probe.attempted, "ratio")
        wrong += probe.wrong
        failures.update({f"probe {key}": n for key, n in probe.failures.items()})
    return {"attempted": attempted, "failed": failed,
            "correct": wrong == 0,
            "failures": failures,
            "rounds": 2 * rounds, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if Path(varsign.__file__).resolve().parent != ROOT / "src" / "varsign":
        print(f"varsign imported from {varsign.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    workload.prepare()
    if args.trace:
        result = traced_run(workload, args.seconds, args.seed)
    else:
        result = timed_run(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
