"""Per-layer spans for traced benchmark runs, recorded from outside the
library.

`Tracer.install()` replaces each public function in `TARGETS` with a timing
wrapper under every name the loaded `varsign` modules bind it to (for
example `varsign.encoder.tail_bounds` as well as
`varsign.expansion.tail_bounds`), and methods on their class, so that spans
nest the way the calls do.  `uninstall()` puts the originals back.

Spans are aggregated as they close rather than kept one by one: a traced run
makes hundreds of thousands of calls.  For each target the tracer keeps the
number of calls, the busy time (sum of span durations) and the self time
(busy time minus the time of the spans nested directly inside).  None of the
targets calls itself, so busy time never counts one interval twice.
"""
from __future__ import annotations

import sys
import time

# (module under varsign, function or Class.method)
TARGETS = (
    ("specfile", "parse_spec"),
    ("system", "DigitSystem.validate"),
    ("system", "FiniteColumn.weight"),
    ("expansion", "eval_prefix"),
    ("expansion", "prefix_weight"),
    ("expansion", "tail_bounds"),
    ("expansion", "value_range"),
    ("expansion", "eval_enclosure"),
    ("cylinders", "cylinder_bounds"),
    ("cylinders", "metric_ratio"),
    ("cylinders", "placement"),
    ("encoder", "encode"),
    ("encoder", "theorem_check"),
    ("encoder", "roundtrip_verify"),
    ("cli", "main"),
)

METRIC_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS)


def _varsign_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "varsign" or n.startswith("varsign."))]


class Tracer:
    def __init__(self):
        # name -> [calls, busy seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in METRIC_NAMES}
        self._stack = []        # child-time accumulators of the open spans
        self._wrappers = {}     # original -> wrapper
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, name, fn):
        wrapper = self._wrappers.get(fn)
        if wrapper is not None:
            return wrapper
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children[0]
                if stack:
                    stack[-1][0] += duration

        self._wrappers[fn] = span
        return span

    def _patch(self, owner, attribute, original, wrapper):
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = _varsign_modules()
        for module_name, qualname in TARGETS:
            module = sys.modules.get(f"varsign.{module_name}")
            if module is None:      # e.g. varsign.cli outside cli-cold
                continue
            name = f"{module_name}.{qualname}"
            owner_name, _, attribute = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, original, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def metrics(self, scale=1.0) -> dict:
        """Per-target metrics, with times multiplied by `scale` (the run's
        factor to reference speed, see calibration.py)."""
        out = {}
        for name, (calls, busy, own) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.busy_ms"] = (busy * scale * 1e3, "ms")
            out[f"{name}.self_ms"] = (own * scale * 1e3, "ms")
        return out
