"""Representability conditions and the greedy digit encoder.

theorem_check verifies, per position n and adjacent digit pair (i, i+1), the
inequality that makes consecutive cylinders cover the range without gaps:

    marked n:    entry(i) * (1 - omega2)  <=  entry(i+1) * omega1
    unmarked n:  entry(i) * (1 - omega1)  <=  entry(i+1) * omega2

with both sides as enclosures; "holds" and "fails" are only reported when
the enclosures separate, so a verdict is never an artifact of truncation.
For geometric columns both sides divide by entry(i), leaving a condition on
the constant ratio alone: one representative pair decides the whole column.

encode runs the expansion map of the chosen cylinder (Renyi's T(x) = (x - d)/q,
read for varying columns and signs): it carries r = (x - value)/weight and
tolerance/weight, so the parent hull is the tail span [tl, th] and digit c's
hull is sign*weight(c) + entry(c)*[tl, th]. It takes the smallest digit whose
hull contains r (a gap if none does); the residual, read back once as
prefix_weight(word)*(r - hull), certifies convergence. The sign of position n
is `signs.contains(n)`, and its tails are read at `read_depth(depth, n)`, the
depth at which `roundtrip_verify` and the CLI `eval` read the finished word.

The next digit depends only on the state (phase, r), where the phase
(`tail_phase`) names what repeats with the system's structure: column, sign
and tails. So on a periodic system with exact tails, a rational target's
digits are eventually periodic (Renyi; Schmidt for Pisot bases), and once a
state repeats encode stops stepping. It copies the cycle's digits forward,
and finds the first position that passes the stop test from the cycle alone:
a whole cycle multiplies tol by one factor, 1 / the product of the cycle's
entries, and leaves r and the hull as they were. The result is the one the
step loop would reach.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, RangeError
from .numerics import Enclosure
from .expansion import (
    DEFAULT_DEPTH,
    DigitWord,
    eval_enclosure,
    prefix_weight,
    read_depth,
    tail_bounds,
    tail_phase,
    word,
)
from .system import DigitSystem

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class PairCheck:
    """One adjacent-pair condition: position, lower digit, verdict, sides.

    covers_column is True when this single check decides every pair of the
    column (constant-ratio infinite columns)."""

    position: int
    digit: int
    status: str
    left: Enclosure
    right: Enclosure
    covers_column: bool


@dataclass(frozen=True)
class TheoremVerdict:
    depth: int
    checks: tuple
    overall: str            # "holds-to-depth" | "fails-at" | "undecided"
    failure: "tuple | None"  # (position, digit) of the first failing pair


def _pair_status(left: Enclosure, right: Enclosure) -> str:
    if left.hi <= right.lo:
        return HOLDS
    if left.lo > right.hi:
        return FAILS
    return UNDECIDED


def theorem_check(sys: DigitSystem, depth: int,
                  tail_depth: int = DEFAULT_DEPTH) -> TheoremVerdict:
    """Check the covering conditions for all positions n <= depth."""
    if not isinstance(depth, int) or depth < 1:
        raise ParameterError(f"check depth must be >= 1, got {depth!r}")
    if not isinstance(tail_depth, int) or tail_depth <= depth:
        raise ParameterError(
            f"tail depth must exceed check depth {depth}, got {tail_depth!r}"
        )
    checks = []
    for n in range(1, depth + 1):
        lo, omega1 = tail_bounds(sys, n, tail_depth)
        omega2 = lo.neg()
        if sys.signs.contains(n):
            shrink, grow = omega2, omega1
        else:
            shrink, grow = omega1, omega2
        one_minus = Enclosure.point(1).sub(shrink)
        col = sys.column(n)
        if col.is_infinite:
            pairs = ((0, True),)
        else:
            pairs = tuple((i, False) for i in range(col.top_digit))
        for i, covers in pairs:
            left = one_minus.scale(col.entry(i))
            right = grow.scale(col.entry(i + 1))
            status = _pair_status(left, right)
            checks.append(PairCheck(n, i, status, left, right, covers))
    failures = [(c.position, c.digit) for c in checks if c.status == FAILS]
    if failures:
        overall = "fails-at"
    elif any(c.status == UNDECIDED for c in checks):
        overall = UNDECIDED
    else:
        overall = "holds-to-depth"
    return TheoremVerdict(depth=depth, checks=tuple(checks), overall=overall,
                          failure=failures[0] if failures else None)


@dataclass(frozen=True)
class EncodeResult:
    digits: DigitWord
    residual: Enclosure
    status: str              # "converged" | "max-depth-reached" | "gap"
    gap_position: "int | None"


def encode(sys: DigitSystem, x, tolerance, max_len: int = 64,
           depth: int = DEFAULT_DEPTH) -> EncodeResult:
    """Greedy smallest-digit encoding of x with a certified residual."""
    x = Fraction(x)
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if not isinstance(max_len, int) or max_len < 1:
        raise ParameterError(f"max_len must be >= 1, got {max_len!r}")
    if not isinstance(depth, int) or depth < 1:
        raise ParameterError(f"depth must be >= 1, got {depth!r}")

    lo0, hi0 = tail_bounds(sys, 0, read_depth(depth, 0))
    if not (lo0.lo <= x <= hi0.hi):
        raise RangeError(f"{x} outside the representable range [{lo0.lo}, {hi0.hi}]")

    digits = []
    r, tol = x, tolerance   # (x - value) / weight and tolerance / weight
    hull = Enclosure(lo0.lo, hi0.hi)
    seen = {}       # (phase, r) before a position -> that position
    trail = []      # (r, tol, hull) after each position

    def result(status, gap_position=None):
        # x - hull, read back from weight * (r - hull) once, on return.
        w = word(sys, digits)
        residual = Enclosure(r - hull.hi, r - hull.lo).scale(prefix_weight(w))
        return EncodeResult(w, residual, status, gap_position)

    for n in range(1, max_len + 1):
        phase = tail_phase(sys, n)
        if phase is not None:
            first = seen.setdefault((phase, r), n)
            if first < n:
                # Positions first..n-1 repeat from n on; first > pre + period
                # >= 1, so trail[first - 2] holds the tol before first.
                cycle = digits[first - 1:]
                end, status = _cycle_stop(trail[first - 1:], first,
                                          tol / trail[first - 2][1], max_len)
                digits += [cycle[(t - first) % len(cycle)] for t in range(n, end + 1)]
                r, _, hull = trail[first - 1 + (end - first) % len(cycle)]
                return result(status)
        lo_t, hi_t = tail_bounds(sys, n, read_depth(depth, n))
        tails = Enclosure(lo_t.lo, hi_t.hi)
        col = sys.column(n)
        marked = sys.signs.contains(n)
        sign = -1 if marked else 1
        chosen = None

        def hull_of(c):
            q, offset = col.entry(c), sign * col.weight(c)
            return Enclosure(offset + q * tails.lo, offset + q * tails.hi)

        # Digit hulls sweep toward one end of the parent hull as the digit
        # grows (upward at unmarked positions, downward at marked ones).
        # Over an infinite alphabet that end is a limit no finite digit reaches.
        if not (col.is_infinite and r == (hull.lo if marked else hull.hi)):
            c = 0
            while col.digit_valid(c):
                candidate = hull_of(c)
                if candidate.contains(r):
                    chosen = c
                    # On an exact shared boundary, prefer the neighbour digit:
                    # the receding endpoint of this hull may only be attained
                    # in the limit, while the neighbour starts right on r.
                    receding = candidate.lo if marked else candidate.hi
                    if r == receding and col.digit_valid(c + 1) \
                            and hull_of(c + 1).contains(r):
                        chosen = c + 1
                    break
                # Digits above c stay beyond sign * (2*weight(c) - 1); once
                # that line passes r, none can contain it.
                if col.is_infinite and 2 * col.weight(c) - 1 > sign * r:
                    break
                c += 1
        if chosen is None:
            return result("gap", n)
        digits.append(chosen)
        entry = col.entry(chosen)
        r = (r - sign * col.weight(chosen)) / entry
        tol /= entry
        hull = tails
        if hull.width <= tol:
            return result("converged")
        trail.append((r, tol, hull))

    return result("max-depth-reached")


def _cycle_stop(cycle: list, first: int, growth: Fraction, max_len: int) -> tuple:
    """(end, status) of an encode whose states repeat from position first on,
    with `cycle` the (r, tol, hull) after each position of one cycle, every
    one of them failing the stop test, and `growth` the factor that a whole
    cycle multiplies tol by.

    Position first + i + k*period (k >= 1) has the r and hull of cycle[i]
    and tol times growth**k, so it stops when growth**k reaches cycle[i]'s
    ratio hull.width / tol (> 1, since the first cycle did not stop).
    Positions run in the order (k, i): whole cycles k, then offset i. So the
    first position to stop has the least k at which growth**k reaches the
    least ratio, found by one bisection over exact powers up to the last
    whole cycle that starts by max_len, and then the least i whose ratio
    that power reaches. A stop past max_len is no stop.
    """
    period = len(cycle)
    ratios = [hull.width / tol for _, tol, hull in cycle]
    least = min(ratios)
    lo, hi = 0, (max_len - first) // period
    if growth ** hi < least:                # hi == 0 too: growth**0 = 1 < least
        return max_len, "max-depth-reached"
    while hi - lo > 1:                      # growth**lo < least <= growth**hi
        mid = (lo + hi) // 2
        if growth ** mid < least:
            lo = mid
        else:
            hi = mid
    power = growth ** hi
    i = next(i for i, ratio in enumerate(ratios) if ratio <= power)
    stop = first + i + hi * period
    return (stop, "converged") if stop <= max_len else (max_len, "max-depth-reached")


def roundtrip_verify(sys: DigitSystem, x, result: EncodeResult,
                     depth: int = DEFAULT_DEPTH) -> bool:
    """True when the enclosure of the encoded word still contains x."""
    x = Fraction(x)
    eff = read_depth(depth, len(result.digits))
    return eval_enclosure(result.digits, eff).contains(x)
