"""Write cli_pool.json: the cli-cold argument pool with the exit code and
the SHA-256 of the --format machine stdout that this checkout produces for
every entry.

    python3 bench/record_cli_pool.py

The committed file was recorded on the seed commit; the cli-cold workload
checks every call against it.  Re-record only for an intended change of
machine output, and say so in CHANGES.md.

The pool is drawn from a fixed seed, independent of the benchmark's --seed:
for every (command, preset) pair it holds VARIANTS argument lists (one for
validate and range, which take none of the seeded arguments) with valid
digits, bases, targets inside the representable range, and ranks.
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import varsign.cli  # noqa: E402
from varsign import expansion, specfile  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 1801
VARIANTS = 12
COMMANDS = ("validate", "range", "eval", "encode", "cylinder", "placement", "theorem")
PRESETS = ("cantor-2345", "example-a", "example-b", "gap-halves",
           "geometric-halves", "mixed-ternary", "nega-binary")


def _digit_list(rng, sys_, length):
    return ",".join(str(d) for d in workloads.random_digits(rng, sys_, length))


def _args(rng, command, sys_):
    if command == "eval":
        return ["--digits", _digit_list(rng, sys_, rng.randint(1, 10))]
    if command == "cylinder":
        return ["--base", _digit_list(rng, sys_, rng.randint(1, 8))]
    if command == "placement":
        rank = rng.randint(0, 5)
        col = sys_.column(rank + 1)
        digit = rng.randint(0, 3 if col.is_infinite else col.top_digit - 1)
        base = ["--base", _digit_list(rng, sys_, rank)] if rank else []
        return [*base, "--digit", str(digit)]
    if command == "encode":
        lo, hi = expansion.value_range(sys_)
        q = rng.randint(2, 720)
        p = rng.randint(math.ceil(lo.lo * q), math.floor(hi.hi * q))
        return ["--x", f"{p}/{q}"]
    return ["--rank", str(rng.randint(1, 12))]


def build_pool():
    rng = random.Random(POOL_SEED)
    capture = workloads.Capture()
    groups = []
    for command in COMMANDS:
        for preset in PRESETS:
            sys_ = specfile.load_spec(workloads.ROOT / "presets" / f"{preset}.json")
            count = 1 if command in ("validate", "range") else VARIANTS
            variants = []
            for _ in range(count):
                args = [] if count == 1 else _args(rng, command, sys_)
                code, text = capture.run(
                    varsign.cli, workloads.cli_argv(command, preset, args))
                variants.append({"args": args, "exit": code,
                                 "sha256": workloads.stdout_digest(text)})
            groups.append({"command": command, "preset": preset, "variants": variants})
    return {"pool_seed": POOL_SEED, "groups": groups}


def main():
    pool = build_pool()
    workloads.CLI_POOL.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    exits = {}
    for group in pool["groups"]:
        for variant in group["variants"]:
            exits[variant["exit"]] = exits.get(variant["exit"], 0) + 1
    print(f"wrote {workloads.CLI_POOL.name}: exit codes {exits}")


if __name__ == "__main__":
    main()
