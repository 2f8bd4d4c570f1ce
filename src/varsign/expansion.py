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

When the seed is exact, the tails do not depend on the truncation depth at
all: past the preperiod pre of the eventually periodic structure (columns
and sign set together, period `period`), every seed takes the same branch,
and an exact seed is the fixed point of the recursion over one period. So
tails repeat with that period from pre on, and every exact query of a
system is served from one canonical table at depth pre + period.

The other queries (an inexact seed, or a query shallower than pre + period)
rest on the reset rule. An infinite column's limit pair (weight 1, entry 0)
drives one side of the tail, the low side on a marked position and the high
side elsewhere, and pins that side's tail before it to exactly 1, whatever
lies beyond. So a side's tail at n is the walk from its first reset past n,
an exact point independent of the depth once that reset lies at or before
the depth. Tails whose two sides both reset are kept by position, with the
later reset, and serve every query at least that deep. The other queries
read one table per (system, depth).

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
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .errors import DomainError, ParameterError
from .numerics import Enclosure, ONE, ZERO
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
# Exact evaluation (two independent routes)


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


def eval_signed_product(w: DigitWord) -> Fraction:
    """Same value by the signed-column route: per-entry signed sums times
    signed running products, the column sign -1 where the marking changes
    from position n-1 (0 is unmarked) to n. Must agree with eval_prefix
    exactly; the two routes share no sign logic.

    The total and the signed running product are num/den and prod/den over
    one unreduced denominator: each position puts its entries 0..d over the
    least common denominator c of theirs and multiplies den by c, so the
    result is reduced once, on return. Each (column, digit) is put over its
    denominator once per call."""
    sys = w.system
    num, prod, den = 0, 1, 1
    marked_before = False
    # (id(col), d) -> (col, sum of entries 0..d-1, entry d, c), numerators
    # over c; holding the column keeps its id from being reused.
    seen = {}
    for pos, d in enumerate(w.digits, 1):
        marked = sys.signs.contains(pos)
        cs = -1 if marked != marked_before else 1
        marked_before = marked
        col = sys.column(pos)
        kept = seen.get((id(col), d))
        if kept is None:
            entries = [col.entry(i) for i in range(d + 1)]
            c = math.lcm(*(e.denominator for e in entries))
            kept = seen[id(col), d] = (
                col, sum(e.numerator * (c // e.denominator) for e in entries[:d]),
                entries[d].numerator * (c // entries[d].denominator), c)
        _, below, entry, c = kept
        num = num * c + cs * below * prod
        prod *= cs * entry
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

    The tail tables are {depth: `_Table`}, with the (pre, period) of the
    structure and whether the seed at depth pre + period is exact: None
    until a query at that depth or deeper decides it. `resets` maps a
    position n to (r, tails): tails that hold at every depth >= r, because
    each side resets at or before r (see `tail_bounds`). `infinite` is false
    when no column is infinite, so that no side ever resets; rule columns
    may always have one. Every write stores the one exact value of its key,
    so concurrent callers cannot corrupt a table.
    """

    __slots__ = ("steps", "memos", "shared", "tables", "resets", "infinite",
                 "pre", "period", "exact")

    def __init__(self, sys: DigitSystem):
        periodic = sys.columns.periodicity()
        self.steps = ()
        self.memos = {}
        self.shared = periodic is not None
        self.tables = {}
        self.resets = {}
        self.infinite = periodic is None or any(
            sys.column(t).is_infinite for t in range(1, sum(periodic) + 1))
        self.pre, self.period = _structure_period(sys)
        self.exact = None


class _Table(dict):
    """The tails at one depth: position -> (lo, hi), seeded at the depth and
    filled downward. Every position from `low` up to the depth is filled;
    `low` moves down only after the positions it passes are written, so a
    reader takes it in one step and always walks from a filled position."""

    __slots__ = ("low",)

    def __init__(self, depth: int, seed: tuple):
        super().__init__({depth: seed})
        self.low = depth


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


# Where each side's (a, q, c) sits in a step record.
_LOW, _HIGH = 2, 3


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


def _tail_seed(sys: DigitSystem, depth: int) -> tuple:
    """Signed enclosures (lo, hi) of the downward and upward tails past
    position depth: the low side's magnitude negated, and the high side's."""
    signs = sys.signs
    cols = sys.columns
    members = signs.has_members_beyond(depth)
    nonmembers = signs.has_nonmembers_beyond(depth)
    periodic = cols.periodicity()
    # Past the provider's preperiod one period of singleton columns means
    # forced digits forever, each of weight 0 and entry 1: no tail.
    singleton = periodic is not None and all(
        sys.column(t).top_digit == 0
        for t in range(depth + 1, max(depth, periodic[0]) + periodic[1] + 1))
    rec = _record(sys)
    seeds = []
    for side, contributors_beyond, others_beyond in (
            (_LOW, members, nonmembers), (_HIGH, nonmembers, members)):
        if not contributors_beyond or singleton:
            seeds.append(Enclosure.point(0))
        elif not others_beyond and cols.claims_vanishing_product():
            # Every later position contributes 1 - entry; the sum telescopes
            # to 1 minus a vanishing product.
            seeds.append(Enclosure.point(1))
        elif periodic is not None and depth >= rec.pre:
            # One period from [0, 1] gives [A, A + B] for its map R -> A + B*R,
            # whose fixed point is A / (1 - B); B < 1, as one period of
            # singleton columns has taken the point 0 above.
            period = _steps(sys, depth + rec.period, depth + 1)
            for num_lo, num_hi, den in _side_walk(period, side, 0, 1, 1):
                pass
            seeds.append(Enclosure.point(Fraction(num_lo, den - num_hi + num_lo)))
        else:
            seeds.append(Enclosure(ZERO, ONE))
    low, high = seeds
    return low.neg(), high


def tail_bounds(sys: DigitSystem, n: int, depth: int = DEFAULT_DEPTH) -> tuple:
    """Signed tail enclosures at position n: (lo, hi) with lo enclosing the
    downward tail (-minimal sum, <= 0) and hi the upward tail (>= 0).

    Requires depth > n; each enclosure's width is at most the product of the
    extremal entries over positions n+1..depth (and is often exactly 0).

    With pre and period of the structure (`_structure_period`), a query at
    depth >= pre + period on a system whose seeds at pre + period are both
    points reads the one canonical table at depth pre + period, at position
    n below pre and pre + (n - pre) % period from pre on. That is the same
    Fraction pair as at the caller's depth: from pre on every seed takes the
    same branch, and an exact seed is the fixed point of the recursion over
    one period, so exact tails repeat with that period.

    Other queries rest on the reset rule: an infinite column's limit pair
    (weight 1, entry 0) drives one side, and the walk restarts that side at
    the point 1 there, whatever lies beyond. So a side's tail at n is the
    walk from its first reset past n, an exact point that does not depend on
    the depth once the reset lies at or before it. The first resets are
    looked for over the positions that the table at this depth would walk:
    n + 1 up to its lowest filled position, or up to the depth before the
    table exists; not at all on systems without an infinite column. When
    both sides reset there, the pair is kept by position with the later of
    the two resets, and a query at any depth from that reset on reads it.
    Otherwise the query uses the table per (system, depth), which grows
    backward from its seed only as far as the lowest position asked for.
    """
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"position must be >= 0, got {n!r}")
    if not isinstance(depth, int) or depth <= n:
        raise ParameterError(f"tail depth must exceed position {n}, got {depth!r}")
    rec = _record(sys)
    tables = rec.tables
    canonical = rec.pre + rec.period
    if depth >= canonical:
        if rec.exact is None:
            # Decided once, by a query that pays for pre + period steps.
            lo, hi = seed = _tail_seed(sys, canonical)
            exact = lo.is_point and hi.is_point
            if exact:
                tables.setdefault(canonical, _Table(canonical, seed))
            rec.exact = exact
        if rec.exact:
            if n >= rec.pre:
                n = rec.pre + (n - rec.pre) % rec.period
            return _table_walk(sys, tables[canonical], n)
    known = rec.resets.get(n)
    if known is not None and known[0] <= depth:
        return known[1]
    table = tables.get(depth)
    # The table's walk would read positions n + 1..bound: look for the
    # resets there, unless no column can reset or n's resets lie too deep.
    bound = depth if table is None else table.low
    if n < bound and rec.infinite and known is None:
        found = _reset_walk(sys, rec.resets, n, bound)
        if found is not None:
            return found
    if table is None:
        table = tables[depth] = _Table(depth, _tail_seed(sys, depth))
    return _table_walk(sys, table, n)


def _table_walk(sys: DigitSystem, table: _Table, n: int) -> tuple:
    """The tails at n from a table, walking both sides' magnitudes from its
    lowest filled position down to n (`_side_walk`); only the stored entries
    are reduced, the low side negated."""
    hit = table.get(n)
    if hit is not None:
        return hit
    t = table.low
    lo, hi = table[t]
    steps = _steps(sys, t, n + 1)
    lows = _side_walk(steps, _LOW, *_over_common(-lo.hi, -lo.lo))
    highs = _side_walk(steps, _HIGH, *_over_common(hi.lo, hi.hi))
    for (m_lo, m_hi, m_den), high in zip(lows, highs):
        t -= 1
        table[t] = (_reduced(-m_hi, -m_lo, m_den), _reduced(*high))
    if n < table.low:
        table.low = n
    return table[n]


def _reset_walk(sys: DigitSystem, resets: dict, n: int, bound: int):
    """The tails at n when both sides reset at or before position `bound`,
    else None. A side resets where an infinite column's limit pair drives
    it: the low side on marked positions, the high side elsewhere (`_step`).
    Only the columns up to the later first reset are asked for. Each side
    walks from the point 1 before its first reset past n; every position
    below both first resets has the same ones, so all of them are kept in
    `resets`, with the later reset."""
    firsts = {}
    for t in range(n + 1, bound + 1):
        if sys.column(t).is_infinite:
            firsts.setdefault(_LOW if sys.signs.contains(t) else _HIGH, t)
            if len(firsts) == 2:
                break
    else:
        return None
    steps = _steps(sys, t - 1, n + 1)
    # walks[side][k] is the side's magnitude at position firsts[side] - 1 - k.
    walks = {side: [(1, 1, 1), *_side_walk(steps[:first - 1 - n], side, 1, 1, 1)]
             for side, first in firsts.items()}
    for m in range(n, min(firsts.values())):
        low, _, den = walks[_LOW][firsts[_LOW] - 1 - m]
        high = walks[_HIGH][firsts[_HIGH] - 1 - m]
        resets[m] = t, (_reduced(-low, -low, den), _reduced(*high))
    return resets[n][1]


def _reduced(num_lo: int, num_hi: int, den: int) -> Enclosure:
    """Enclosure [num_lo/den, num_hi/den], each endpoint reduced once."""
    lo = Fraction(num_lo, den)
    return Enclosure(lo, lo if num_lo == num_hi else Fraction(num_hi, den))


def tail_phase(sys: DigitSystem, n: int):
    """The phase of position n in the system's repeating structure, or None.

    Positions past pre + period (`_structure_period`) with equal phase have
    the same column and sign, and, when the seed at pre + period is exact,
    the same tails at n - 1 and at n: `read_depth` reads both past pre +
    period, where every query takes the canonical table. None for rule
    columns, whose tails may repeat while the columns change with n, for
    inexact tails, and for positions up to pre + period.
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
