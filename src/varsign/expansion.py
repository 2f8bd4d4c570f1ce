"""Digit words, exact prefix evaluation, and certified tail enclosures.

A digit word d_1..d_n picks one digit per position. Its exact partial value
is

    sum_k  term_sign(k) * weight(d_k, k) * product_{j<k} entry(d_j, j)

and the values of all infinite continuations fill a closed interval around
it. The continuation interval is certified by two nonnegative tail sums, one
per direction, built from the extremal (weight, entry) pairs: the tail at
position n sums a~_t * prod q~ over t > n. Tails are computed by the backward
recursion R(t) = a~_t + q~_t * R(t+1) from a seed enclosure past the
truncation depth; the seed is [0, 1] in general (giving the telescoping
remainder bound, width <= prod of extremal entries) and an exact point when
the structure beyond the depth is fully known (no contributing positions,
all-singleton columns, all-contributing with a vanishing product, or an
eventually periodic pattern solved by its fixed point).

When the seed is exact, the tails do not depend on the truncation depth at
all: past the preperiod pre of the eventually periodic structure (columns
and sign set together, period `period`), every seed takes the same branch,
and an exact seed is the fixed point of the recursion over one period. So
tails repeat with that period from pre on, and every exact query of a
system is served from one canonical table at depth pre + period. A system
whose seed is inexact, or a query shallower than pre + period, keeps one
table per (system, depth).

This module is the only one that seeds, recurses or caches tails; the rest
of the package reads them through `tail_bounds`. The cache is keyed weakly
on the system, so it never keeps a system alive.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

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
    """(X, Y, c) with x = X/c and y = Y/c, without a gcd."""
    xd, yd = x.denominator, y.denominator
    if xd == yd:
        return x.numerator, y.numerator, xd
    return x.numerator * yd, y.numerator * xd, xd * yd


def prefix_walk(w: DigitWord) -> tuple:
    """(value, weight) of the word in one pass: the signed sum of digit
    weights times running entry products, and the product of the chosen
    entries (1 for the empty word).

    The walk carries integers over one unreduced denominator den: value is
    num/den and weight is wnum/den. With a digit's weight and entry written
    as a/c and q/c, a step makes num*c + sign*a*wnum, wnum*q and den*c, so
    no step takes a gcd; both results are reduced once, on return.
    """
    sys = w.system
    num, wnum, den = 0, 1, 1
    for pos, d in enumerate(w.digits, 1):
        col = sys.column(pos)
        a, q, c = _over_common(col.weight(d), col.entry(d))
        num = num * c + sys.term_sign(pos) * a * wnum
        wnum *= q
        den *= c
    return Fraction(num, den), Fraction(wnum, den)


def eval_prefix(w: DigitWord) -> Fraction:
    """Signed sum of digit weights times running entry products."""
    return prefix_walk(w)[0]


def prefix_weight(w: DigitWord) -> Fraction:
    """Product of the chosen entries over the word (1 for the empty word),
    as the product of their numerators over the product of their
    denominators, reduced once."""
    sys = w.system
    num = den = 1
    for pos, d in enumerate(w.digits, 1):
        entry = sys.column(pos).entry(d)
        num *= entry.numerator
        den *= entry.denominator
    return Fraction(num, den)


def eval_signed_product(w: DigitWord) -> Fraction:
    """Same value by the signed-column route: per-entry signed sums times
    signed running products. Must agree with eval_prefix exactly; the two
    routes share no sign logic."""
    sys = w.system
    total = ZERO
    signed_weight = ONE
    for pos, d in enumerate(w.digits, 1):
        cs = sys.column_sign(pos)
        col = sys.column(pos)
        step = ZERO
        for i in range(d):
            step += cs * col.entry(i)
        total += step * signed_weight
        signed_weight *= cs * col.entry(d)
    return total


# ---------------------------------------------------------------------------
# Tail enclosures


def _extremal(sys: DigitSystem, t: int) -> tuple:
    """The (weight, entry) pairs of the digits driving the series to its
    infimum and to its supremum at position t, as (low, high).

    The top digit (limit (1, 0) for infinite columns) drives the low side on
    marked positions and the high side elsewhere; digit 0 drives the other.
    """
    col = sys.column(t)
    if col.is_infinite:
        top = (ONE, ZERO)
    else:
        k = col.top_digit
        top = (col.weight(k), col.entry(k))
    bottom = (ZERO, col.entry(0))
    return (top, bottom) if sys.signs.contains(t) else (bottom, top)


def _structure_period(sys: DigitSystem) -> tuple:
    """(pre, period) of columns and sign set together: both repeat with
    period past position pre. A provider without periodicity (rule columns)
    counts as (0, 1); its seed never takes the periodic branch."""
    col_pre, col_period = sys.columns.periodicity() or (0, 1)
    sign_pre, sign_period = sys.signs.periodicity()
    return max(col_pre, sign_pre), math.lcm(col_period, sign_period)


def _tail_seed(sys: DigitSystem, depth: int, low: bool) -> Enclosure:
    """Enclosure of the low (or high) tail magnitude past position depth."""
    signs = sys.signs
    cols = sys.columns
    members = signs.has_members_beyond(depth)
    nonmembers = signs.has_nonmembers_beyond(depth)
    contributors_beyond, others_beyond = (
        (members, nonmembers) if low else (nonmembers, members)
    )

    if not contributors_beyond:
        return Enclosure.point(0)
    periodic = cols.periodicity()
    if periodic is not None:
        # Past the provider's preperiod one period of singleton columns means
        # forced digits forever, each of weight 0 and entry 1: no tail.
        window = range(depth + 1, max(depth, periodic[0]) + periodic[1] + 1)
        if all(sys.column(t).top_digit == 0 for t in window):
            return Enclosure.point(0)
    if not others_beyond and cols.claims_vanishing_product():
        # Every later position contributes 1 - entry; the sum telescopes to
        # 1 minus a vanishing product.
        return Enclosure.point(1)

    if periodic is not None:
        pre, period = _structure_period(sys)
        if depth >= pre:
            # partial/den and running/den over one period, den unreduced.
            partial, running, den = 0, 1, 1
            for t in range(depth + 1, depth + period + 1):
                a, q, c = _over_common(*_extremal(sys, t)[0 if low else 1])
                partial = partial * c + running * a
                running *= q
                den *= c
            if running < den:
                # R = partial + running * R over one period.
                return Enclosure.point(Fraction(partial, den - running))
            if partial == 0:
                return Enclosure.point(0)

    return Enclosure(ZERO, ONE)


class _SystemTails:
    """The tail tables of one system, {depth: {position: (lo, hi)}}, with
    the (pre, period) of its structure and whether its seed at depth
    pre + period is exact: None until a query at that depth or deeper
    decides it.

    Positions are filled from a table's depth downward, so a table's last
    key is its lowest position; every write stores the one exact value of
    its key, so concurrent callers cannot corrupt a table.
    """

    __slots__ = ("tables", "pre", "period", "exact")

    def __init__(self, sys: DigitSystem):
        self.tables = {}
        self.pre, self.period = _structure_period(sys)
        self.exact = None


# system -> _SystemTails, weakly keyed so that the tables live exactly as
# long as their system.
_TAILS = weakref.WeakKeyDictionary()


def _seeded_table(sys: DigitSystem, depth: int) -> dict:
    return {depth: (
        _tail_seed(sys, depth, low=True).neg(),
        _tail_seed(sys, depth, low=False),
    )}


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
    one period, so exact tails repeat with that period. Other queries use a
    table per (system, depth). A table grows backward from its seed only as
    far as the lowest position asked for.
    """
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"position must be >= 0, got {n!r}")
    if not isinstance(depth, int) or depth <= n:
        raise ParameterError(f"tail depth must exceed position {n}, got {depth!r}")
    tails = _TAILS.get(sys)
    if tails is None:
        tails = _TAILS[sys] = _SystemTails(sys)
    tables = tails.tables
    canonical = tails.pre + tails.period
    if depth >= canonical:
        if tails.exact is None:
            # Decided once, by a query that pays for pre + period steps.
            table = _seeded_table(sys, canonical)
            lo, hi = table[canonical]
            tails.exact = lo.is_point and hi.is_point
            if tails.exact:
                tables.setdefault(canonical, table)
        if tails.exact:
            if n >= tails.pre:
                n = tails.pre + (n - tails.pre) % tails.period
            depth = canonical
    table = tables.get(depth)
    if table is None:
        table = tables[depth] = _seeded_table(sys, depth)
    hit = table.get(n)
    if hit is not None:
        return hit
    # R(t-1) = a~_t + q~_t * R(t) per side (negated on the low side), from
    # the lowest filled position down to n. Each side carries the numerators
    # of both endpoints over one unreduced denominator: with a~ = A/c and
    # q~ = Q/c, num/den becomes (A*den + Q*num)/(c*den). Only the stored
    # entries are reduced. The limit pair (1, 0) of an infinite column drops
    # the carried tail, so its side restarts at the point -1 or 1 over 1.
    lowest = next(reversed(table))
    lo, hi = table[lowest]
    lo_a, lo_b, lo_den = _over_common(lo.lo, lo.hi)
    hi_a, hi_b, hi_den = _over_common(hi.lo, hi.hi)
    for t in range(lowest, n, -1):
        low, high = _extremal(sys, t)
        a, q, c = _over_common(*low)
        if q:
            lo_a, lo_b = q * lo_a - a * lo_den, q * lo_b - a * lo_den
            lo_den *= c
        else:
            lo_a = lo_b = -a
            lo_den = c
        a, q, c = _over_common(*high)
        if q:
            hi_a, hi_b = a * hi_den + q * hi_a, a * hi_den + q * hi_b
            hi_den *= c
        else:
            hi_a = hi_b = a
            hi_den = c
        table[t - 1] = (_reduced(lo_a, lo_b, lo_den), _reduced(hi_a, hi_b, hi_den))
    return table[n]


def _reduced(num_lo: int, num_hi: int, den: int) -> Enclosure:
    """Enclosure [num_lo/den, num_hi/den], each endpoint reduced once."""
    lo = Fraction(num_lo, den)
    return Enclosure(lo, lo if num_lo == num_hi else Fraction(num_hi, den))


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
