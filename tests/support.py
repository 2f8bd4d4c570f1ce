"""Shared generators and brute-force oracles for the test suite.

`random_column` always draws non-increasing entries.  The per-position
extremal recipe used by the tail machinery realizes the true
infimum/supremum only on such columns, so brute-force comparisons stay
meaningful.  (With an increasing column, picking the locally extreme digit
can be globally suboptimal.)  `random_any_column` also draws unsorted,
singleton and geometric columns; it serves tests that compare the tail
layer with `reference_tail_bounds`, which follows the same recipe.
`drawn_systems` is the hypothesis strategy over every column shape, for
identities that hold whatever the tails are.
"""
import copy
from fractions import Fraction
import glob
import json
import math
import os
import random

from hypothesis import strategies as st

from varsign import (
    DEFAULT_DEPTH,
    DigitSystem,
    EncodeResult,
    Enclosure,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    RangeError,
    RuleColumns,
    SignSet,
    load_spec,
    tail_bounds,
    uniform_column,
    word,
)


PRESETS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "presets")
# One column (1/10, 9/10) whose top digit has the larger entry.
UNSORTED_COLUMN_SPEC = json.dumps({
    "nb": {"kind": "list", "members": [1]},
    "columns": {"kind": "explicit", "list": [{"finite": ["1/10", "9/10"]}],
                "extend": "repeat-last"}})


def preset_systems() -> list:
    """The systems of presets/*.json, sorted by file name."""
    return [load_spec(path)
            for path in sorted(glob.glob(os.path.join(PRESETS, "*.json")))]


def random_column(rng: random.Random, max_digits: int = 4) -> FiniteColumn:
    k = rng.randint(2, max_digits)
    weights = sorted((rng.randint(1, 9) for _ in range(k)), reverse=True)
    total = sum(weights)
    return FiniteColumn(tuple(Fraction(w, total) for w in weights))


def random_any_column(rng: random.Random, max_digits: int = 4):
    """A random valid column: sorted, unsorted or singleton finite, or
    geometric."""
    pick = rng.randrange(4)
    if pick == 0:
        return random_column(rng, max_digits)
    if pick == 1:
        weights = [rng.randint(1, 9) for _ in range(rng.randint(2, max_digits))]
        total = sum(weights)
        return FiniteColumn(tuple(Fraction(w, total) for w in weights))
    if pick == 2:
        return FiniteColumn((Fraction(1),))
    ratio = Fraction(rng.randint(1, 7), 8)
    return GeometricColumn(1 - ratio, ratio)


def random_sign_rule(rng: random.Random, horizon: int = 12,
                     nesting: int = 2) -> tuple:
    """A random sign-set description: a tuple naming a constructor and its
    arguments, e.g. ("list", (2, 5)) or ("complement", ("odd",)).  Listed
    positions may lie past `horizon`; complements nest up to `nesting` deep."""
    pick = rng.randrange(7 if nesting > 0 else 6)
    if pick == 0:
        return ("none",)
    if pick == 1:
        return ("every",)
    if pick == 2:
        return ("odd",)
    if pick == 3:
        return ("even",)
    if pick == 4:
        members = [n for n in range(1, horizon + 1) if rng.random() < 0.4]
        if rng.random() < 0.3:
            members.append(rng.randint(horizon + 1, 4 * horizon))
        return ("list", tuple(members))
    if pick == 5:
        modulus = rng.randint(1, 4)
        count = rng.randint(1, modulus)
        residues = tuple(sorted({rng.randrange(modulus) for _ in range(count)}))
        return ("residues", modulus, residues, rng.randint(0, 2))
    return ("complement", random_sign_rule(rng, horizon, nesting - 1))


def build_signs(rule: tuple) -> SignSet:
    kind, *args = rule
    if kind == "none":
        return SignSet.none()
    if kind == "every":
        return SignSet.every()
    if kind == "odd":
        return SignSet.odd()
    if kind == "even":
        return SignSet.even()
    if kind == "list":
        return SignSet.from_list(args[0])
    if kind == "residues":
        return SignSet.residue_classes(*args)
    return SignSet.complement(build_signs(args[0]))


def random_signs(rng: random.Random, horizon: int = 12) -> SignSet:
    return build_signs(random_sign_rule(rng, horizon))


def reference_contains(rule: tuple, n: int) -> bool:
    """Membership of position n, read off the description kind by kind: an
    independent route against which SignSet.contains is tested."""
    kind, *args = rule
    if kind == "none":
        return False
    if kind == "every":
        return True
    if kind == "odd":
        return n % 2 == 1
    if kind == "even":
        return n % 2 == 0
    if kind == "list":
        return n in args[0]
    if kind == "residues":
        modulus, residues, start_k = args
        return n % modulus in residues and n // modulus >= start_k
    return not reference_contains(args[0], n)


def reference_periodicity(rule: tuple) -> tuple:
    """(preperiod, period) of each kind, as the tail seed expects them."""
    kind, *args = rule
    if kind in ("none", "every"):
        return (0, 1)
    if kind in ("odd", "even"):
        return (0, 2)
    if kind == "list":
        return (max(args[0], default=0), 1)
    if kind == "residues":
        modulus, _, start_k = args
        return (modulus * (start_k + 1), modulus)
    return reference_periodicity(args[0])


def reference_marked_beyond(rule: tuple, bound: int, marked: bool) -> bool:
    """Whether some position past `bound` has membership `marked`, found by
    scanning past the preperiod for one full period."""
    pre, period = reference_periodicity(rule)
    return any(reference_contains(rule, t) == marked
               for t in range(bound + 1, max(bound, pre) + period + 1))


def random_finite_system(rng: random.Random, support: int = 10,
                         max_digits: int = 4) -> DigitSystem:
    """Random system with real columns up to `support`, forced single-digit
    columns beyond.  Every value is an exact rational reached by rank
    `support`; all tail enclosures are exact points."""
    cols = tuple(random_column(rng, max_digits) for _ in range(support))
    cols += (FiniteColumn((Fraction(1),)),)
    return DigitSystem(random_signs(rng), ListColumns(cols, "repeat-last"))


def random_periodic_system(rng: random.Random, max_period: int = 3,
                           max_digits: int = 4) -> DigitSystem:
    cols = tuple(
        random_column(rng, max_digits)
        for _ in range(rng.randint(1, max_period))
    )
    return DigitSystem(random_signs(rng), ListColumns(cols, "cycle"))


# Hypothesis strategies for valid columns: finite (sorted, unsorted or
# singleton), uniform and geometric.
FINITE_COLUMNS = st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
    lambda ws: FiniteColumn(tuple(Fraction(w, sum(ws)) for w in ws)))
UNIFORM_COLUMNS = st.integers(2, 5).map(uniform_column)
GEOMETRIC_COLUMNS = st.integers(1, 7).map(
    lambda k: GeometricColumn(1 - Fraction(k, 8), Fraction(k, 8)))


@st.composite
def drawn_systems(draw) -> DigitSystem:
    """A system over finite (sorted, unsorted or singleton), uniform and
    geometric columns, listed and cycled or repeating the last, or a rule
    cycling them that claims the vanishing product only when it holds,
    under a random sign set of any kind."""
    cols = tuple(draw(st.lists(
        st.one_of(FINITE_COLUMNS, UNIFORM_COLUMNS, GEOMETRIC_COLUMNS),
        min_size=1, max_size=4)))
    signs = build_signs(random_sign_rule(draw(st.randoms(use_true_random=False))))
    shape = draw(st.sampled_from(("cycle", "repeat-last", "rule")))
    if shape != "rule":
        return DigitSystem(signs, ListColumns(cols, shape))
    vanishing = draw(st.booleans()) and all(col.sup_entry < 1 for col in cols)
    return DigitSystem(signs, RuleColumns(lambda n: cols[(n - 1) % len(cols)],
                                          vanishing_product=vanishing))


def random_word_digits(rng: random.Random, system: DigitSystem,
                       length: int) -> tuple:
    digits = []
    for n in range(1, length + 1):
        col = system.column(n)
        if col.is_infinite:
            digits.append(rng.randint(0, 6))
        else:
            digits.append(rng.randint(0, col.top_digit))
    return tuple(digits)


def rational_between(rng: random.Random, lo: Fraction, hi: Fraction,
                     denominator: int = 2 ** 16) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(0, denominator), denominator)


def walk_prefix(system: DigitSystem, digits) -> tuple:
    """Exact (value, remaining weight) of a digit prefix, computed directly
    from column data: an independent route used for brute forcing."""
    value = Fraction(0)
    weight = Fraction(1)
    for n, d in enumerate(digits, 1):
        col = system.column(n)
        sign = -1 if system.signs.contains(n) else 1
        value += sign * col.weight(d) * weight
        weight *= col.entry(d)
    return value, weight


def extension_values(system: DigitSystem, base, total_length: int) -> list:
    """Exact values of every digit word of length total_length that extends
    base.  Requires finite columns throughout."""
    start_value, start_weight = walk_prefix(system, base)
    out = []

    def rec(n, value, weight):
        if n > total_length:
            out.append(value)
            return
        col = system.column(n)
        sign = -1 if system.signs.contains(n) else 1
        for i in range(col.top_digit + 1):
            rec(n + 1, value + sign * col.weight(i) * weight,
                weight * col.entry(i))

    rec(len(tuple(base)) + 1, start_value, start_weight)
    return out


def reference_extremal(system: DigitSystem, t: int, low: bool) -> tuple:
    """(weight, entry) of the digit that drives one side of the series at
    position t: the top digit (limit (1, 0) for infinite columns) on the low
    side of marked positions and the high side of unmarked ones, digit 0
    otherwise.  The top digit's weight is summed from the entries."""
    col = system.column(t)
    if system.signs.contains(t) != low:
        return Fraction(0), col.entry(0)
    if col.is_infinite:
        return Fraction(1), Fraction(0)
    top = col.top_digit
    return sum((col.entry(i) for i in range(top)), Fraction(0)), col.entry(top)


def reference_tail_seed(system: DigitSystem, depth: int, low: bool) -> tuple:
    """(lo, hi) of one tail magnitude past `depth`, by the rules of the tail
    layer in plain Fraction arithmetic."""
    signs, cols = system.signs, system.columns
    members = signs.has_members_beyond(depth)
    nonmembers = signs.has_nonmembers_beyond(depth)
    contributors, others = (members, nonmembers) if low else (nonmembers, members)
    if not contributors:
        return Fraction(0), Fraction(0)
    per = cols.periodicity()
    # Columns repeat past per[0], so depth + per[0] + per[1] reaches a full
    # period past the preperiod wherever depth lies.
    if per is not None and all(
        system.column(t).top_digit == 0
        for t in range(depth + 1, depth + per[0] + per[1] + 1)
    ):
        return Fraction(0), Fraction(0)
    if not others and cols.claims_vanishing_product():
        return Fraction(1), Fraction(1)
    if per is not None:
        pre = max(per[0], signs.periodicity()[0])
        period = math.lcm(per[1], signs.periodicity()[1])
        if depth >= pre:
            partial, running = Fraction(0), Fraction(1)
            for t in range(depth + 1, depth + period + 1):
                a, q = reference_extremal(system, t, low)
                partial += running * a
                running *= q
            if running < 1:
                point = partial / (1 - running)
                return point, point
            if partial == 0:
                return Fraction(0), Fraction(0)
    return Fraction(0), Fraction(1)


def reference_tail_bounds(system: DigitSystem, depth: int) -> dict:
    """position -> the signed (lo, hi) tail enclosures at every position
    0..depth-1, by the plain Fraction backward recursion
    R(t-1) = a~_t + q~_t * R(t) from the seed at `depth`: an independent
    route against which `tail_bounds` is tested."""
    low_lo, low_hi = reference_tail_seed(system, depth, low=True)
    high_lo, high_hi = reference_tail_seed(system, depth, low=False)
    out = {}
    for t in range(depth, 0, -1):
        a, q = reference_extremal(system, t, low=True)
        low_lo, low_hi = a + q * low_lo, a + q * low_hi
        a, q = reference_extremal(system, t, low=False)
        high_lo, high_hi = a + q * high_lo, a + q * high_hi
        out[t - 1] = (Enclosure(-low_hi, -low_lo), Enclosure(high_lo, high_hi))
    return out


def reference_encode(system: DigitSystem, x, tolerance, max_len: int = 64,
                     depth: int = DEFAULT_DEPTH) -> EncodeResult:
    """`encode` in absolute coordinates: the greedy smallest-digit loop over
    plain Fraction prefix value `base` and weight, with each digit's hull
    rebuilt as base + weight * (sign*weight(c) + entry(c) * tail).  An
    independent route against which `encode` is tested."""
    x, tolerance = Fraction(x), Fraction(tolerance)
    lo0, hi0 = tail_bounds(system, 0, max(depth, 2))
    if not lo0.lo <= x <= hi0.hi:
        raise RangeError(f"{x} outside [{lo0.lo}, {hi0.hi}]")
    digits = []
    base, weight = Fraction(0), Fraction(1)
    hull = Enclosure(lo0.lo, hi0.hi)

    def result(status, gap_position=None):
        residual = Enclosure(x - hull.hi, x - hull.lo)
        return EncodeResult(word(system, digits), residual, status, gap_position)

    for n in range(1, max_len + 1):
        lo_t, hi_t = tail_bounds(system, n, max(depth, n + 2))
        col = system.column(n)
        marked = system.signs.contains(n)
        sign = -1 if marked else 1

        def hull_of(c):
            child = base + sign * col.weight(c) * weight
            w = weight * col.entry(c)
            return Enclosure(child + w * lo_t.lo, child + w * hi_t.hi)

        chosen = None
        if not (col.is_infinite and x == (hull.lo if marked else hull.hi)):
            c = 0
            while col.digit_valid(c):
                candidate = hull_of(c)
                if candidate.contains(x):
                    chosen = c
                    receding = candidate.lo if marked else candidate.hi
                    if x == receding and col.digit_valid(c + 1) \
                            and hull_of(c + 1).contains(x):
                        chosen = c + 1
                    break
                reach = weight * (2 * col.weight(c) - 1)
                if col.is_infinite and (base - reach < x if marked
                                        else base + reach > x):
                    break
                c += 1
        if chosen is None:
            return result("gap", n)
        hull = hull_of(chosen)
        digits.append(chosen)
        base += sign * col.weight(chosen) * weight
        weight *= col.entry(chosen)
        if hull.width <= tolerance:
            return result("converged")
    return result("max-depth-reached")


# ---------------------------------------------------------------------------
# Spec documents and their mutations

HERE = os.path.dirname(os.path.abspath(__file__))

# One document per classic name.
CLASSIC_DOCUMENTS = (
    {"columns": {"kind": "classic", "name": "s-adic", "params": {"s": 3}}},
    {"columns": {"kind": "classic", "name": "nega-s-adic", "params": {"s": 2}}},
    {"columns": {"kind": "classic", "name": "cantor", "params": {"q": [2, 3]}}},
    {"columns": {"kind": "classic", "name": "nega-cantor", "params": {"q": [3, 2]}}},
    {"nb": {"kind": "even"},
     "columns": {"kind": "classic", "name": "mixed", "params": {"s": 2}}},
    {"columns": {"kind": "classic", "name": "example-a", "params": {}}},
    {"columns": {"kind": "classic", "name": "example-b", "params": {}}},
)

# JSON values put in place of each value of a document: wrong types, values
# out of range, and values that are right somewhere else in the schema.
BAD_JSON_VALUES = (
    None, True, False, 0, -1, 1, 2.5, 10**13, float("inf"),
    "x", "", "1/0", "-1/2", [], [0], {}, {"kind": "odd"},
)


def spec_documents() -> list:
    """Every preset, every golden spec and one document per classic name."""
    paths = sorted(glob.glob(os.path.join(HERE, os.pardir, "presets", "*.json")))
    paths += sorted(glob.glob(os.path.join(HERE, "golden", "specs", "*.json")))
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs + [copy.deepcopy(doc) for doc in CLASSIC_DOCUMENTS]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def spec_mutations(doc) -> list:
    """JSON texts of doc with one change each: every value replaced by each
    of BAD_JSON_VALUES, every object field deleted, and an extra field added
    to every object."""
    texts = []
    for path in _paths(doc):
        for bad in BAD_JSON_VALUES:
            texts.append(json.dumps(_changed(doc, path, lambda _: copy.deepcopy(bad))))
        if path and isinstance(_at(doc, path[:-1]), dict):
            texts.append(json.dumps(_changed(doc, path, None)))
        if isinstance(_at(doc, path), dict):
            texts.append(json.dumps(_changed(doc, path, lambda obj: {**obj, "extra": 1})))
    return texts


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _changed(doc, path, change):
    """A copy of doc with the value at path replaced by change(value), or
    deleted from its object when change is None."""
    if not path:
        return change(copy.deepcopy(doc))
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if change is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = change(parent[path[-1]])
    return doc
