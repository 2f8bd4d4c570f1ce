"""Digit words, exact prefix evaluation, and certified tail enclosures.

A digit word d_1..d_n picks one digit per position. Its exact partial value
is

    sum_k  sign(k) * weight(d_k, k) * product_{j<k} entry(d_j, j)

with sign(k) = -1 on the marked positions (`signs.contains(k)`) and +1
elsewhere, and the values of all infinite continuations fill a closed
interval around it. The continuation interval is certified by two
nonnegative tail sums, one per direction, built from the extremal (weight,
entry) pairs: the tail at position n sums a~_t * prod q~ over t > n. Tails
are computed by the backward recursion R(t) = a~_t + q~_t * R(t+1) from a
seed enclosure past the truncation depth; the seed is [0, 1] in general
(giving the telescoping remainder bound, width <= prod of extremal entries)
and an exact point when the structure beyond the depth is fully known (no
contributing positions, all-singleton columns, all-contributing with a
vanishing product, or an eventually periodic pattern solved by its fixed
point).

An infinite column's limit pair (weight 1, entry 0) drives one side, the
low side on a marked position and the high side elsewhere, and pins that
side's tail before it to exactly 1, whatever lies beyond. So a side's tail
at n is settled once its first reset past n lies at or before the depth:
the walk down from that reset serves every depth from there on. Each side
keeps its settled tails by position and, per depth, the tails that depend
on the depth; a query reads one of them or scans upward from n for the
first reset or kept tail to walk down from.

When the seeds are exact, the tails do not depend on the truncation depth
at all: past the preperiod pre of the eventually periodic structure
(columns and sign set together, period `period`), every seed takes the
same branch, and an exact seed is the fixed point of the recursion over
one period. So tails repeat with that period from pre on, and every exact
query of a system is rewritten to depth pre + period, at its position's
phase, before its tables are read.

The prefix walk and the tail recursion read one step table per system: per
position the term sign, a digit memo of the column's (weight, entry) pairs
(which holds its column) and the two extremal pairs, built lazily only as
far as a word or a tail reaches, and shared by phase past pre + period when
the columns are periodic. Both tails are carried as nonnegative magnitudes
through one side walk (`_side_walk`), the low one negated only when stored;
the periodic seed is read from the same walk over one period.

This module is the only one that seeds, recurses or caches tails, and the
only one that builds or reads step tables; the rest of the package reads
them through `prefix_walk`, `prefix_weight` and `tail_bounds`, reads the
tails at position n at the depth `read_depth` gives, and asks `tail_phase`
which positions repeat one another. Its caches live in one record per
system, keyed weakly, so they never keep a system alive.

This module is the engine only. The independent routes to a word's value,
against which `prefix_walk` is tested, live in `oracles`, which never
imports this module.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .errors import DomainError, ParameterError
from .numerics import Enclosure, ONE, ZERO
# Re-exported only because bench/workloads.py reads expansion.eval_signed_product.
from .oracles import eval_signed_product  # noqa: F401
from .system import DigitSystem

DEFAULT_DEPTH = 40


# ---------------------------------------------------------------------------
# Digit words


@dataclass(frozen=True)
class DigitWord:
    """A finite digit choice d_1..d_n bound to its system; may be empty."""

    system: DigitSystem
    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        for pos, d in enumerate(self.digits, 1):
            if not self.system.column(pos).digit_valid(d):
                raise DomainError(f"digit {d!r} invalid at position {pos}")

    def __len__(self):
        return len(self.digits)


def word(system: DigitSystem, digits) -> DigitWord:
    return DigitWord(system, tuple(digits))


# ---------------------------------------------------------------------------
# The prefix walk


def _over_common(x: Fraction, y: Fraction) -> tuple:
    """(X, Y, c) with x = X/c and y = Y/c over their least common
    denominator c."""
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return x.numerator, y.numerator, xd
    c = math.lcm(xd, yd)
    return x.numerator * (c // xd), y.numerator * (c // yd), c


class _Digits(dict):
    """A column's digit memo: digit d -> (a, q, c), its weight a/c and
    entry q/c over their least common denominator, filled on first read."""

    __slots__ = ("col",)

    def __init__(self, col):
        self.col = col

    def __missing__(self, d: int) -> tuple:
        triple = self[d] = _over_common(self.col.weight(d), self.col.entry(d))
        return triple


def prefix_walk(w: DigitWord) -> tuple:
    """(value, weight) of the word in one pass: the signed sum of digit
    weights times running entry products, and the product of the chosen
    entries (1 for the empty word).

    The walk carries integers over one unreduced denominator den: value is
    num/den and weight is wnum/den. With a digit's weight and entry written
    as a/c and q/c, a step makes num*c + sign*a*wnum, wnum*q and den*c, so
    no step takes a gcd; both results are reduced once, on return. Signs,
    columns and (a, q, c) are read from the system's step table.
    """
    num, wnum, den = 0, 1, 1
    for (sign, memo, _, _), d in zip(_steps(w.system, len(w.digits)), w.digits):
        a, q, c = memo[d]
        num = num * c + sign * a * wnum
        wnum *= q
        den *= c
    return Fraction(num, den), Fraction(wnum, den)


def eval_prefix(w: DigitWord) -> Fraction:
    """Signed sum of digit weights times running entry products."""
    return prefix_walk(w)[0]


def prefix_weight(w: DigitWord) -> Fraction:
    """Product of the chosen entries over the word (1 for the empty word),
    carried as entry numerators over one unreduced denominator and reduced
    once, from the same step table as `prefix_walk`."""
    num = den = 1
    for (_, memo, _, _), d in zip(_steps(w.system, len(w.digits)), w.digits):
        _, q, c = memo[d]
        num *= q
        den *= c
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Tail enclosures


def _structure_period(sys: DigitSystem) -> tuple:
    """(pre, period) of columns and sign set together: both repeat with
    period past position pre. A provider without periodicity (rule columns)
    counts as (0, 1); its seed never takes the periodic branch."""
    col_pre, col_period = sys.columns.periodicity() or (0, 1)
    sign_pre, sign_period = sys.signs.periodicity()
    return max(col_pre, sign_pre), math.lcm(col_period, sign_period)


# Where each side's (a, q, c) sits in a step record; each side also keys its
# tail stores by it.
_LOW, _HIGH = 2, 3


class _SystemRecord:
    """What this module caches for one system: its step table and its tail
    tables.

    The step table `steps` holds one record per position 1..len(steps):
    (term sign, digit memo, low, high), where the memo (`_Digits`) holds
    the column, maps a digit to the (a, q, c) of its weight a/c and entry
    q/c and is shared by every position of the same column, and low and
    high are the (a, q, c) of the digits driving the series to its infimum
    and to its supremum there (see `_step`): the steps `_side_walk` takes
    on each side's tail magnitude. It is a tuple, replaced by a longer one
    as walks and tails reach further, so a reader's snapshot never changes
    and concurrent extensions cannot misalign positions. With periodic columns
    (`shared`), positions past pre + period read the record of their phase,
    and the table stops there; rule columns get one record per position.

    Each side keeps its signed tails in two stores (see `tail_bounds`).
    `settled[side]` maps n to (r, tail), where r is the side's first reset
    past n and the tail is the same at every depth from r on; `tables[side]`
    maps a depth to a dict n -> tail of the tails that depend on it, those
    of positions with no reset of the side up to the depth. No query reads
    one key from both. (pre, period) is that of the structure, and `exact`
    says whether both seeds at pre + period are points: None until a query
    at that depth or deeper decides it. `infinite` is false when no column
    is infinite, so that no side ever resets; rule columns may always have
    one. Every write stores the one exact value of its key, and a reader
    starts a walk from any entry it finds, so concurrent callers cannot
    corrupt a store.
    """

    __slots__ = ("steps", "memos", "shared", "tables", "settled", "infinite",
                 "pre", "period", "exact")

    def __init__(self, sys: DigitSystem):
        periodic = sys.columns.periodicity()
        self.steps = ()
        self.memos = {}
        self.shared = periodic is not None
        self.tables = {_LOW: {}, _HIGH: {}}
        self.settled = {_LOW: {}, _HIGH: {}}
        self.infinite = periodic is None or any(
            sys.column(t).is_infinite for t in range(1, sum(periodic) + 1))
        self.pre, self.period = _structure_period(sys)
        self.exact = None


# system -> _SystemRecord, weakly keyed so that the tables live exactly as
# long as their system.
_RECORDS = weakref.WeakKeyDictionary()


def _record(sys: DigitSystem) -> _SystemRecord:
    rec = _RECORDS.get(sys)
    if rec is None:
        rec = _RECORDS[sys] = _SystemRecord(sys)
    return rec


# The limit (weight, entry) = (1, 0) of an infinite column's digits.
_LIMIT = (1, 0, 1)
# Each side's signed tail just before its reset: the point 1, negated on the
# low side.
_RESET = {_LOW: Enclosure.point(-1), _HIGH: Enclosure.point(1)}


def _step(sys: DigitSystem, memos: dict, t: int) -> tuple:
    """The step record of position t (see `_SystemRecord`).

    The top digit (the limit for infinite columns) drives the low side on
    marked positions and the high side elsewhere; digit 0 drives the other.
    """
    col = sys.column(t)
    # Keyed by identity; the memo holds the column, so the key cannot be reused.
    memo = memos.get(id(col))
    if memo is None:
        memo = memos[id(col)] = _Digits(col)
    bottom = memo[0]
    top = _LIMIT if col.is_infinite else memo[col.top_digit]
    if sys.signs.contains(t):
        return -1, memo, top, bottom
    return 1, memo, bottom, top


def _steps(sys: DigitSystem, last: int, first: int = 1) -> tuple:
    """The step records of positions first..last, in order. Records are
    built only up to position last, so a rule column is first asked for a
    position when a walk or a tail reaches it."""
    rec = _record(sys)
    known = rec.steps
    end = min(last, rec.pre + rec.period) if rec.shared else last
    if len(known) < end:
        memos = rec.memos
        known += tuple(_step(sys, memos, t) for t in range(len(known) + 1, end + 1))
        if len(known) > len(rec.steps):
            rec.steps = known
    if last <= len(known):
        return known[first - 1:last]
    # Past pre + period, position t reads phase pre + (t - pre - 1) % period.
    start = max(first, end + 1)
    phase = (start - rec.pre - 1) % rec.period
    repeats = islice(cycle(known[rec.pre:]), phase, phase + last - start + 1)
    return known[first - 1:] + tuple(repeats)


def _side_walk(steps: tuple, side: int, num_lo: int, num_hi: int, den: int):
    """Walk one side's tail magnitude back over steps, from the last record
    to the first, from [num_lo/den, num_hi/den] past the last; yield the
    unreduced (num_lo, num_hi, den) at the position before each record.

    The step is M(t-1) = a~_t + q~_t * M(t) on both endpoints: with a~ = A/c
    and q~ = Q/c, num/den becomes (A*den + Q*num)/(c*den), with no gcd. The
    limit pair (1, 0) of an infinite column drops the carried tail, so the
    walk restarts there at the point 1 over 1.
    """
    for step in reversed(steps):
        a, q, c = step[side]
        if q:
            num_lo, num_hi, den = a * den + q * num_lo, a * den + q * num_hi, c * den
        else:
            num_lo = num_hi = a
            den = c
        yield num_lo, num_hi, den


def _tail_seed(sys: DigitSystem, depth: int, side: int) -> Enclosure:
    """The signed enclosure of one side's tail past position depth: the low
    side's magnitude negated, or the high side's."""
    signs = sys.signs
    cols = sys.columns
    # The low side sums the marked positions, the high side the others.
    contributors, others = signs.has_members_beyond, signs.has_nonmembers_beyond
    if side == _HIGH:
        contributors, others = others, contributors
    periodic = cols.periodicity()
    rec = _record(sys)
    # Past the provider's preperiod one period of singleton columns means
    # forced digits forever, each of weight 0 and entry 1: no tail.
    if not contributors(depth) or (periodic is not None and all(
            sys.column(t).top_digit == 0
            for t in range(depth + 1, max(depth, periodic[0]) + periodic[1] + 1))):
        seed = Enclosure.point(0)
    elif not others(depth) and cols.claims_vanishing_product():
        # Every later position contributes 1 - entry; the sum telescopes to 1
        # minus a vanishing product.
        seed = Enclosure.point(1)
    elif periodic is not None and depth >= rec.pre:
        # One period from [0, 1] gives [A, A + B] for its map R -> A + B*R,
        # whose fixed point is A / (1 - B); B < 1, as one period of singleton
        # columns has taken the point 0 above.
        period = _steps(sys, depth + rec.period, depth + 1)
        for num_lo, num_hi, den in _side_walk(period, side, 0, 1, 1):
            pass
        seed = Enclosure.point(Fraction(num_lo, den - num_hi + num_lo))
    else:
        seed = Enclosure(ZERO, ONE)
    return seed.neg() if side == _LOW else seed


def tail_bounds(sys: DigitSystem, n: int, depth: int = DEFAULT_DEPTH) -> tuple:
    """Signed tail enclosures at position n: (lo, hi) with lo enclosing the
    downward tail (-minimal sum, <= 0) and hi the upward tail (>= 0).

    Requires depth > n; each enclosure's width is at most the product of the
    extremal entries over positions n+1..depth (and is often exactly 0).

    A query at depth >= pre + period (`_structure_period`) on a system whose
    seeds there are both points is first rewritten to depth pre + period, at
    position n below pre and pre + (n - pre) % period from pre on. That is
    the same Fraction pair as at the caller's depth: from pre on every seed
    takes the same branch, and an exact seed is the fixed point of the
    recursion over one period, so exact tails repeat with that period.

    Each side is then read from one of its two stores (`_SystemRecord`): at
    n in the depth's table, or settled at n when its first reset r lies at
    or before the depth. On a miss, positions t = n + 1 upward are scanned
    for the first that starts a walk down to n: a reset of the side at t,
    from the point 1 at t - 1, giving settled tails; a settled t whose reset
    lies at or before the depth; a t in the depth's table; or the depth
    itself, from the side's seed there. Resets are looked for only on
    systems with an infinite column, and before the stores at each t, so a
    depth's table never walks past a reset of its side and a settled tail
    always keeps its first reset. Stores grow backward only as far as the
    lowest position asked for.
    """
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"position must be >= 0, got {n!r}")
    if not isinstance(depth, int) or depth <= n:
        raise ParameterError(f"tail depth must exceed position {n}, got {depth!r}")
    rec = _record(sys)
    canonical = rec.pre + rec.period
    if depth >= canonical:
        if rec.exact is None:
            # Decided once, by a query that pays for each side's seed at pre +
            # period; exact seeds start that depth's tables.
            seeds = {side: _tail_seed(sys, canonical, side) for side in (_LOW, _HIGH)}
            rec.exact = all(seed.is_point for seed in seeds.values())
            if rec.exact:
                for side, seed in seeds.items():
                    rec.tables[side].setdefault(canonical, {canonical: seed})
        if rec.exact:
            depth = canonical
            if n >= rec.pre:
                n = rec.pre + (n - rec.pre) % rec.period
    return _side_tail(sys, rec, _LOW, n, depth), _side_tail(sys, rec, _HIGH, n, depth)


def _side_tail(sys: DigitSystem, rec: _SystemRecord, side: int, n: int, depth: int):
    """One side's signed tail at n for a query at depth, read from its stores
    or walked down to n from the first start the scan of `tail_bounds`
    finds; each walked entry is kept in the store of its start, and only
    the kept entries are reduced, the low side's negated."""
    table = rec.tables[side].get(depth)
    if table is not None:
        tail = table.get(n)
        if tail is not None:
            return tail
    settled = rec.settled[side]
    hit = settled.get(n)
    if hit is not None and hit[0] <= depth:
        return hit[1]
    low = side == _LOW
    for t in range(n + 1, depth + 1):
        # A reset at t comes first: a settled tail at t keeps a later one.
        if rec.infinite and sys.signs.contains(t) == low and sys.column(t).is_infinite:
            t -= 1
            store, reset, tail = settled, t + 1, _RESET[side]
            settled[t] = reset, tail
            break
        hit = settled.get(t)
        if hit is not None and hit[0] <= depth:
            store, (reset, tail) = settled, hit
            break
        if table is not None and t in table:
            store, reset, tail = table, None, table[t]
            break
    else:
        store = rec.tables[side].setdefault(depth, {depth: _tail_seed(sys, depth, side)})
        reset, tail = None, store[depth]
    start = _over_common(-tail.hi, -tail.lo) if low else _over_common(tail.lo, tail.hi)
    for num_lo, num_hi, den in _side_walk(_steps(sys, t, n + 1), side, *start):
        t -= 1
        tail = _reduced(-num_hi, -num_lo, den) if low else _reduced(num_lo, num_hi, den)
        store[t] = tail if reset is None else (reset, tail)
    return tail


def _reduced(num_lo: int, num_hi: int, den: int) -> Enclosure:
    """Enclosure [num_lo/den, num_hi/den], each endpoint reduced once."""
    lo = Fraction(num_lo, den)
    return Enclosure(lo, lo if num_lo == num_hi else Fraction(num_hi, den))


def tail_phase(sys: DigitSystem, n: int):
    """The phase of position n in the system's repeating structure, or None.

    Positions past pre + period (`_structure_period`) with equal phase have
    the same column and sign, and, when the seed at pre + period is exact,
    the same tails at n - 1 and at n: `read_depth` reads both past pre +
    period, where every query is rewritten to depth pre + period. None for
    rule columns, whose tails may repeat while the columns change with n,
    for inexact tails, and for positions up to pre + period.
    """
    rec = _record(sys)
    if not rec.shared or n <= rec.pre + rec.period:
        return None
    if rec.exact is None:
        tail_bounds(sys, n, n + 1)      # decides the seed at pre + period
    return (n - rec.pre - 1) % rec.period if rec.exact else None


def read_depth(depth: int, n: int) -> int:
    """The tail depth for reading position n: depth, raised so that the
    tails at n and at n + 1 both meet `tail_bounds`' depth > position."""
    return max(depth, n + 2)


def value_range(sys: DigitSystem, depth: int = DEFAULT_DEPTH) -> tuple:
    """Enclosures of the least and greatest representable values."""
    return tail_bounds(sys, 0, depth)


def word_bounds(w: DigitWord, depth: int) -> tuple:
    """(value, inf, sup): the word's exact value and enclosures of the
    infimum and supremum of its continuations, each value + weight * tail,
    from one prefix walk and one tail lookup. Requires depth > len(w)."""
    value, weight = prefix_walk(w)
    lo, hi = tail_bounds(w.system, len(w), depth)
    return value, lo.scale(weight).shift(value), hi.scale(weight).shift(value)


def eval_enclosure(w: DigitWord, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Enclosure of the set of values of all infinite continuations of w."""
    if not isinstance(depth, int) or depth <= len(w):
        raise ParameterError(
            f"tail depth must exceed word length {len(w)}, got {depth!r}"
        )
    _, inf, sup = word_bounds(w, depth)
    return inf.hull(sup)
