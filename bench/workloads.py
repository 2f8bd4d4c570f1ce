"""The three benchmark workloads: their systems, their seeded inputs, and the
independent checks of every result.

Constructing a workload is its set-up: the imports it needs plus
`parse_spec` of every system it keeps.  `prepare()` then derives the
per-seed input parameters, and `round(k)` hands out round k: a seeded list
with the same operations per system in every round, so a run that completes
whole rounds has the same mix whatever its length.

Each operation is timed on its own.  Its check runs later, outside the timed
interval, and answers with one of:

* ``None``: the result passed every check;
* ``("refused", why)``: the call answered "gap" for a target known to be
  representable (a raised varsign error is judged the same way by the
  caller).  The operation failed without handing back a wrong value;
* ``("wrong", why)``: an independent route contradicts the result.

Code here calls the library through module attributes
(``expansion.eval_prefix(...)``), never through names bound at import, so
that traced runs see every call the workloads make.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from varsign import classics, cylinders, encoder, expansion, specfile
from varsign.numerics import Enclosure
from varsign.system import SignSet

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CLI_POOL = BENCH_DIR / "cli_pool.json"

# Steps of the low-discrepancy digit-level sequences in wide-alphabet, one
# per pair of leading positions.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3))
_RATIONAL = re.compile(r'"(-?\d+/\d+)"')


def _classic_spec(name, **params) -> str:
    return json.dumps({"columns": {"kind": "classic", "name": name, "params": params}})


class Op:
    """One call into the library plus what its check needs."""

    __slots__ = ("kind", "system", "call", "check", "values", "digits")

    def __init__(self, kind, system_name, call, check, values, digits=None):
        self.kind = kind
        self.system = system_name
        self.call = call        # () -> result; the only part that is timed
        self.check = check      # result -> None | (category, reason)
        self.values = values    # result -> rationals the call returned
        self.digits = digits    # result -> digit count (encodes only)


def _endpoints(*encs):
    return [v for e in encs for v in (e.lo, e.hi)]


def _seeded(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


# ---------------------------------------------------------------------------
# Checks shared by the library workloads


def _check_word(w, kind):
    """Two evaluation routes, plus the closed-form oracle for classics."""
    value = expansion.eval_prefix(w)
    if expansion.eval_signed_product(w) != value:
        return ("wrong", "eval_prefix != eval_signed_product")
    if kind is not None and classics.oracle_eval(kind, w.digits) != value:
        return ("wrong", "eval_prefix != oracle_eval")
    return None


def _check_encode(sys_, kind, x, tol, max_len, result):
    """roundtrip_verify, the residual against an independent enclosure of the
    returned word, the residual width against the stop rule, and the word's
    value by the independent routes."""
    if result.status == "gap":
        return ("refused", "gap for a representable target")
    digits = result.digits
    depth = expansion.DEFAULT_DEPTH
    if not encoder.roundtrip_verify(sys_, x, result, depth):
        return ("wrong", "roundtrip_verify failed")
    enc = expansion.eval_enclosure(digits, max(depth, len(digits) + 2))
    if result.residual != Enclosure(x - enc.hi, x - enc.lo):
        return ("wrong", "residual differs from the word's enclosure")
    width = result.residual.width
    if result.status == "converged":
        if width > tol:
            return ("wrong", "converged with a residual wider than the tolerance")
    elif result.status == "max-depth-reached":
        if len(digits) != max_len or width <= tol:
            return ("wrong", "max-depth-reached with a wrong length or width")
    else:
        return ("wrong", f"unknown status {result.status!r}")
    return _check_word(digits, kind)


def _encode_op(name, sys_, kind, x, tol, max_len):
    return Op(
        "encode", name,
        lambda: encoder.encode(sys_, x, tol, max_len=max_len),
        lambda r: _check_encode(sys_, kind, x, tol, max_len, r),
        lambda r: _endpoints(r.residual),
        lambda r: len(r.digits),
    )


# ---------------------------------------------------------------------------
# wide-alphabet


class WideAlphabet:
    """`encode` at the default tolerance (2^-30) and depth over long-lived
    systems with large finite alphabets.  Digit selection in `encode` and
    `FiniteColumn.weight` do nearly all the work; each target needs only
    about five digits, so the prefix and tail layers stay small."""

    name = "wide-alphabet"
    tolerance = Fraction(1, 2**30)
    max_len = 64
    steered = 5         # leading digits set by the balanced levels
    trace_rounds_per_s = 0.5

    # (name, spec text, oracle kind or None), cheapest encode first
    SYSTEMS = (
        ("s-adic-64", _classic_spec("s-adic", s=64), classics.s_adic(64)),
        # Non-uniform, non-increasing column (100 - k)/5050 on every position,
        # all positions marked: gap-free, so every target converges.
        ("explicit-100", json.dumps({
            "nb": {"kind": "all"},
            "columns": {"kind": "explicit",
                        "list": [{"finite": [f"{100 - k}/5050" for k in range(100)]}],
                        "extend": "repeat-last"}}), None),
        ("nega-s-adic-96", _classic_spec("nega-s-adic", s=96), classics.nega_s_adic(96)),
        ("s-adic-128", _classic_spec("s-adic", s=128), classics.s_adic(128)),
        ("cantor-mixed", _classic_spec("cantor", q=[64, 160, 96, 256, 128]),
         classics.cantor([64, 160, 96, 256, 128])),
        ("nega-s-adic-192", _classic_spec("nega-s-adic", s=192), classics.nega_s_adic(192)),
        ("s-adic-256", _classic_spec("s-adic", s=256), classics.s_adic(256)),
        ("nega-s-adic-512", _classic_spec("nega-s-adic", s=512), classics.nega_s_adic(512)),
    )
    # Systems with two operations per round, so that a round has ten: the
    # median and the 90th percentile of a run then fall in the middle of
    # these systems' costs rather than on the edge between two systems.
    DOUBLED = ("cantor-mixed", "nega-s-adic-512")

    def __init__(self, seed: int):
        self.seed = seed
        self.systems = [(name, specfile.parse_spec(text), kind)
                        for name, text, kind in self.SYSTEMS]

    def prepare(self):
        rng = random.Random(self.seed)
        self.denominator = rng.randrange(10**9, 2 * 10**9)
        self.slots = [entry for entry in self.systems
                      for _ in range(2 if entry[0] in self.DOUBLED else 1)]
        self.offsets = [[rng.random() for _ in _STEPS] for _ in self.slots]

    def _digits(self, sys_, offsets, k):
        """Leading digits of round k's target.  Choosing digit d costs d
        steps of the digit scan, each re-summing up to d entries, so an
        encode costs about the sum of its digits squared.  The squared
        digit levels of each pair of positions (1-2, 3-4) therefore add up
        to a fixed share of the squared alphabet sizes, from a seeded
        Kronecker sequence, and position 5 sits at level 1/2: every encode
        on a system costs about the same, while the digits sweep the whole
        alphabet."""
        sizes = [sys_.column(n).top_digit + 1 for n in range(1, self.steered + 1)]
        levels = [0.5] * self.steered
        for (a, b), offset, step in zip(((0, 1), (2, 3)), offsets, _STEPS):
            if sizes[a] > sizes[b]:
                a, b = b, a
            v = (offset + k * step) % 1.0
            levels[a] = v
            levels[b] = (0.5 * (sizes[a]**2 + sizes[b]**2) - v * sizes[a]**2) / sizes[b]**2
        return [min(q - 1, int(math.sqrt(level) * q)) for q, level in zip(sizes, levels)]

    def round(self, k: int) -> list:
        rng = _seeded(self.seed, k)
        ops = []
        for (name, sys_, kind), offsets in zip(self.slots, self.offsets):
            # The target is a seeded point inside the cylinder of the
            # balanced leading digits.
            digits = self._digits(sys_, offsets, k)
            enc = expansion.eval_enclosure(expansion.word(sys_, digits))
            x = enc.lo + enc.width * Fraction(rng.randrange(1, self.denominator),
                                              self.denominator)
            ops.append(_encode_op(name, sys_, kind, x, self.tolerance, self.max_len))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# deep-words


def _read_preset(name: str) -> str:
    return (ROOT / "presets" / f"{name}.json").read_text(encoding="utf-8")


def random_digits(rng, sys_, rank):
    digits = []
    for n in range(1, rank + 1):
        col = sys_.column(n)
        digits.append(rng.randint(0, 3 if col.is_infinite else col.top_digit))
    return tuple(digits)


def _check_eval_enclosure(w, kind, enc):
    if not enc.contains(expansion.eval_prefix(w)):
        # The word followed by zeros has exactly the prefix value.
        return ("wrong", "enclosure misses the word's own value")
    return _check_word(w, kind)


def _check_cylinder_bounds(w, kind, depth, bounds):
    inf_enc, sup_enc = bounds
    enc = expansion.eval_enclosure(w, depth)
    if (inf_enc.lo, sup_enc.hi) != (enc.lo, enc.hi):
        return ("wrong", "cylinder hull differs from eval_enclosure")
    if not inf_enc.lo <= expansion.eval_prefix(w) <= sup_enc.hi:
        return ("wrong", "cylinder misses the word's own value")
    return _check_word(w, kind)


def _check_placement(sys_, w, digit, depth, rep):
    """kappa1/kappa2 against the endpoint differences of the two child
    cylinders, computed through cylinder_bounds instead."""
    inf_c, sup_c = cylinders.cylinder_bounds(
        cylinders.cylinder(sys_, w.digits + (digit,)), depth)
    inf_n, sup_n = cylinders.cylinder_bounds(
        cylinders.cylinder(sys_, w.digits + (digit + 1,)), depth)
    if not rep.kappa1.intersects(sup_c.sub(inf_n)):
        return ("wrong", "kappa1 disagrees with the child cylinders")
    if not rep.kappa2.intersects(sup_n.sub(inf_c)):
        return ("wrong", "kappa2 disagrees with the child cylinders")
    if rep.nu1 != rep.kappa1.neg() or rep.nu2 != rep.kappa2.neg():
        return ("wrong", "nu is not -kappa")
    marked = sys_.signs.contains(len(w) + 1)
    if rep.orientation != ("right-to-left" if marked else "left-to-right"):
        return ("wrong", "orientation disagrees with the sign set")
    return None


UNSORTED_COLUMN_SPEC = json.dumps({
    "nb": {"kind": "list", "members": [1]},
    "columns": {"kind": "explicit", "list": [{"finite": ["1/10", "9/10"]}],
                "extend": "repeat-last"}})
DEEP_TOLERANCE = Fraction(1, 2**512)
DEEP_MAX_LEN = 256


def _deep_encode_op(name, sys_, kind, rng):
    """encode to 256 digits of `eval_prefix` of a seeded word of rank
    50-200: the target is exactly representable."""
    target_word = expansion.word(sys_, random_digits(rng, sys_, rng.randint(50, 200)))
    x = expansion.eval_prefix(target_word)
    return _encode_op(name, sys_, kind, x, DEEP_TOLERANCE, DEEP_MAX_LEN)


# (metric name, system name, spec text or None for presets/<name>.json)
DEFECTS = (
    ("defect.unsorted_column.failed_ratio", "unsorted-column", UNSORTED_COLUMN_SPEC),
    ("defect.example_a_deep.failed_ratio", "example-a", None),
)
DEFECT_PROBE_SIZE = 40


def defect_probe(seed: int):
    """Yield (metric name, ops): DEFECT_PROBE_SIZE deep encodes of seeded
    representable targets on each system that the seed commit refuses some
    of.  On unsorted-column encode raises RangeError (ROADMAP item 2); on
    example-a, encode answers "gap" past position 38, where tails at depth
    n + 2 fall back to [0, 1].  The probe is the same on every run with this
    seed, so its failed share is exact."""
    for i, (metric, name, text) in enumerate(DEFECTS):
        sys_ = specfile.parse_spec(text or _read_preset(name))
        rng = _seeded(seed, -1 - i)
        yield metric, [_deep_encode_op(name, sys_, None, rng)
                       for _ in range(DEFECT_PROBE_SIZE)]


class DeepWords:
    """Long words on small or infinite alphabets over long-lived systems:
    `encode` to 256 digits at a tolerance of 2^-512 (past DEFAULT_DEPTH), and
    `eval_enclosure`, `cylinder_bounds` and `placement` on words of rank
    50-200 at depth rank + 40.  The prefix walk and the tail layer dominate;
    digit scans are trivial (s <= 3, or the geometric early exit).  The
    systems in NO_ENCODE get the last three operations only."""

    name = "deep-words"
    trace_rounds_per_s = 2.0

    # (name, spec text or None for presets/<name>.json, oracle kind or None)
    SYSTEMS = (
        ("nega-binary", None, classics.nega_s_adic(2)),
        ("mixed-ternary", None,
         classics.mixed_sign(3, SignSet.residue_classes(3, (0,), 1))),
        ("gap-halves", None, None),
        ("geometric-halves", None, None),
        ("example-a", None, None),
        # ROADMAP item 2: an increasing column breaks the extremal-digit rule,
        # so value_range is too narrow and encode rejects some representable
        # targets.
        ("unsorted-column", UNSORTED_COLUMN_SPEC, None),
    )
    # Systems whose deep encodes the seed commit refuses for some
    # representable targets.  The timed loop gives them no encode, so that no
    # operation of the workload fails; defect_probe measures the refusals.
    NO_ENCODE = ("example-a", "unsorted-column")

    def __init__(self, seed: int):
        self.seed = seed
        self.systems = [
            (name, specfile.parse_spec(text or _read_preset(name)), kind)
            for name, text, kind in self.SYSTEMS
        ]

    def prepare(self):
        pass

    def round(self, k: int) -> list:
        rng = _seeded(self.seed, k)
        ops = []
        for name, sys_, kind in self.systems:
            if name not in self.NO_ENCODE:
                ops.append(_deep_encode_op(name, sys_, kind, rng))
            ops.append(self._eval_op(name, sys_, kind, rng))
            ops.append(self._cylinder_op(name, sys_, kind, rng))
            ops.append(self._placement_op(name, sys_, kind, rng))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _eval_op(name, sys_, kind, rng):
        rank = rng.randint(50, 200)
        w = expansion.word(sys_, random_digits(rng, sys_, rank))
        depth = rank + 40
        return Op("eval_enclosure", name,
                  lambda: expansion.eval_enclosure(w, depth),
                  lambda r: _check_eval_enclosure(w, kind, r),
                  lambda r: _endpoints(r))

    @staticmethod
    def _cylinder_op(name, sys_, kind, rng):
        rank = rng.randint(50, 200)
        cyl = cylinders.cylinder(sys_, random_digits(rng, sys_, rank))
        depth = rank + 40
        return Op("cylinder_bounds", name,
                  lambda: cylinders.cylinder_bounds(cyl, depth),
                  lambda r: _check_cylinder_bounds(cyl.base, kind, depth, r),
                  lambda r: _endpoints(*r))

    @staticmethod
    def _placement_op(name, sys_, kind, rng):
        rank = rng.randint(50, 200)
        w = expansion.word(sys_, random_digits(rng, sys_, rank))
        col = sys_.column(rank + 1)
        digit = rng.randint(0, 2 if col.is_infinite else col.top_digit - 1)
        depth = rank + 40
        return Op("placement", name,
                  lambda: cylinders.placement(sys_, w, digit, depth),
                  lambda r: _check_placement(sys_, w, digit, depth, r),
                  lambda r: _endpoints(r.kappa1, r.kappa2))


# ---------------------------------------------------------------------------
# cli-cold


def cli_argv(command, preset, args):
    spec = str(ROOT / "presets" / f"{preset}.json")
    return [command, "--spec", spec, "--format", "machine", *args]


class Capture:
    """Reusable stdout and stderr buffers for in-process CLI calls.  click
    caches a wrapper per stream object and never drops it while the stream
    lives, so a fresh buffer per call would pile up in that cache."""

    def __init__(self):
        self.out = io.StringIO()
        self.err = io.StringIO()

    def run(self, cli, argv):
        """One call of cli.main(argv); returns (exit code, stdout text)."""
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            code = cli.main(argv)
        return code, self.out.getvalue()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_cli(expected, outcome):
    code, text = outcome
    if code != expected["exit"]:
        return ("wrong", f"exit code {code}, expected {expected['exit']}")
    if stdout_digest(text) != expected["sha256"]:
        return ("wrong", "machine output differs from the recorded digest")
    return None


def _cli_digits(outcome):
    code, text = outcome
    return len(json.loads(text)["digits"]) if text else None


class CliCold:
    """In-process `varsign.cli.main([..., "--format", "machine"])` over all
    7 commands x 7 presets.  Every call loads its spec again, so spec
    parsing, `validate`, a cold tail build at depth 40 and rendering dominate.

    The seeded arguments come from `cli_pool.json`, a fixed pool of argument
    variants per (command, preset) with the exit code and stdout digest the
    seed commit produced for each; the seed picks the order and the
    variants."""

    name = "cli-cold"
    trace_rounds_per_s = 4.0

    def __init__(self, seed: int):
        import varsign.cli

        self.seed = seed
        self.cli = varsign.cli
        self.capture = Capture()
        self.groups = json.loads(CLI_POOL.read_text(encoding="utf-8"))["groups"]

    def prepare(self):
        pass

    def round(self, k: int) -> list:
        rng = _seeded(self.seed, k)
        ops = []
        for group in self.groups:
            variant = rng.choice(group["variants"])
            argv = cli_argv(group["command"], group["preset"], variant["args"])
            digits = _cli_digits if group["command"] == "encode" else None
            ops.append(Op(
                group["command"], group["preset"],
                lambda argv=argv: self.capture.run(self.cli, argv),
                lambda r, v=variant: _check_cli(v, r),
                lambda r: [Fraction(t) for t in _RATIONAL.findall(r[1])],
                digits,
            ))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (WideAlphabet, DeepWords, CliCold)}
