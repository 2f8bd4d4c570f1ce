"""Scaling series: direct calls into one layer at a few sizes each, so that
asymptotic changes are judged on a series rather than on one point.

Every point is the median time of a few calls on seeded inputs, taken with
tracing off and scaled to reference speed (see calibration.py).  s = 1000
and s = 10^6 are left out: on the seed commit they take seconds each and
cannot be repeated within one run.
"""
from __future__ import annotations

import json
import random
import statistics
import time
from fractions import Fraction

from varsign import classics, encoder, expansion, specfile

import calibration


def _median_ms(calls) -> float:
    """Median time of the calls, scaled to reference speed."""
    times = []
    for call in calls:
        before = calibration.seconds()
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        times.append(elapsed * calibration.scale(before, calibration.seconds()))
    return statistics.median(times) * 1e3


def _encode_s(rng, s, count):
    sys_ = classics.make_classic(classics.s_adic(s))
    tol = Fraction(1, 2**30)
    targets = [Fraction(rng.randrange(1, 10**9), 10**9) for _ in range(count)]
    return _median_ms(lambda x=x: encoder.encode(sys_, x, tol) for x in targets)


def _encode_maxlen(rng, max_len, count):
    sys_ = classics.make_classic(classics.nega_s_adic(2))
    tol = Fraction(1, 2**600)      # never reached: every call runs to max_len
    targets = [
        expansion.eval_prefix(expansion.word(sys_, [rng.randint(0, 1) for _ in range(300)]))
        for _ in range(count)
    ]
    return _median_ms(
        lambda x=x: encoder.encode(sys_, x, tol, max_len=max_len) for x in targets)


def _value_range_cold(depth, count):
    # A fresh system per call, so the tail memo starts empty every time.
    systems = [classics.make_classic(classics.example_b()) for _ in range(count)]
    return _median_ms(lambda s=s: expansion.value_range(s, depth) for s in systems)


def _parse_uniform(s, count):
    text = json.dumps({"nb": {"kind": "empty"},
                       "columns": {"kind": "explicit", "list": [{"uniform": {"s": s}}]}})
    return _median_ms(lambda: specfile.parse_spec(text) for _ in range(count))


def series(seed: int) -> dict:
    """name -> (milliseconds, "ms")."""
    rng = random.Random(seed)
    points = {
        "scale.encode_s16_ms": _encode_s(rng, 16, 7),
        "scale.encode_s64_ms": _encode_s(rng, 64, 7),
        "scale.encode_s256_ms": _encode_s(rng, 256, 5),
        "scale.encode_maxlen64_ms": _encode_maxlen(rng, 64, 5),
        "scale.encode_maxlen128_ms": _encode_maxlen(rng, 128, 5),
        "scale.encode_maxlen256_ms": _encode_maxlen(rng, 256, 5),
        "scale.value_range_depth250_ms": _value_range_cold(250, 3),
        "scale.value_range_depth500_ms": _value_range_cold(500, 3),
        "scale.parse_uniform_s1000_ms": _parse_uniform(1000, 5),
        "scale.parse_uniform_s10000_ms": _parse_uniform(10000, 3),
    }
    return {name: (value, "ms") for name, value in points.items()}
