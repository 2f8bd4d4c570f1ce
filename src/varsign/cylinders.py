"""Cylinder geometry: bounds, lengths, refinement ratios, adjacency.

The cylinder of a base word is the closed set of values of all its
continuations. Its endpoints are the base's exact partial value plus the
base weight times the two extremal tails, so every geometric quantity here
is an Enclosure read from the public `word_bounds`, `prefix_weight` and
`tail_bounds` of the expansion module. Each endpoint a function returns is
one expression in those values, reduced once, not a chain of interval
operations: `word_bounds` builds the cylinder's endpoints from the prefix
walk's integers, and placement builds each kappa endpoint as weight * (lead
+ q_a*omega_a + q_b*omega_b), a point when both tails are points.

Placement compares the cylinders of adjacent digits c and c+1 at the first
free position. kappa1 is (sup of the c-cylinder) - (inf of the (c+1)-cylinder)
and kappa2 the reverse difference; nu1/nu2 are their negations. On a marked
position (`signs.contains`) the digits run right-to-left and kappa1 is
strictly positive; on an unmarked one they run left-to-right and kappa2 is
strictly positive. The other difference - the applicable kappa - decides
whether the two cylinders overlap in an interval, touch in one point, or
leave a gap.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError, DomainError, ParameterError
from .numerics import Enclosure, ZERO
from .expansion import (
    DEFAULT_DEPTH,
    DigitWord,
    prefix_weight,
    tail_bounds,
    word,
    word_bounds,
)
from .system import DigitSystem


@dataclass(frozen=True)
class Cylinder:
    """A nonempty base word naming the set of its continuations."""

    base: DigitWord

    def __post_init__(self):
        if len(self.base) < 1:
            raise ConstructionError("cylinder rank must be >= 1")

    @property
    def system(self) -> DigitSystem:
        return self.base.system

    @property
    def rank(self) -> int:
        return len(self.base)


def cylinder(system: DigitSystem, digits) -> Cylinder:
    return Cylinder(word(system, digits))


def cylinder_bounds(cyl: Cylinder, depth: int = DEFAULT_DEPTH) -> tuple:
    """(inf enclosure, sup enclosure) of the cylinder's value set."""
    if not isinstance(depth, int) or depth <= cyl.rank:
        raise ParameterError(
            f"tail depth must exceed rank {cyl.rank}, got {depth!r}"
        )
    return word_bounds(cyl.base, depth)[1:]


def cylinder_length(cyl: Cylinder, depth: int = DEFAULT_DEPTH) -> Enclosure:
    inf_enc, sup_enc = cylinder_bounds(cyl, depth)
    return sup_enc.sub(inf_enc)


def metric_ratio(cyl: Cylinder, next_digit: int, depth: int = DEFAULT_DEPTH) -> Enclosure:
    """Enclosure of |child cylinder| / |parent cylinder| for one more digit.

    The ratio is the child's entry times the quotient of the two total tail
    spans; it must always intersect the enclosure of the direct length
    quotient. Requires depth > rank + 2 so both spans are certified.
    """
    n = cyl.rank
    if not isinstance(depth, int) or depth <= n + 2:
        raise ParameterError(f"tail depth must exceed rank + 2 = {n + 2}, got {depth!r}")
    col = cyl.system.column(n + 1)
    if not col.digit_valid(next_digit):
        raise DomainError(f"digit {next_digit} invalid at position {n + 1}")
    lo, hi = tail_bounds(cyl.system, n + 1, depth)
    span_child = hi.sub(lo)
    lo, hi = tail_bounds(cyl.system, n, depth)
    span_parent = hi.sub(lo)
    try:
        return span_child.scale(col.entry(next_digit)).div(span_parent)
    except DomainError:
        raise DomainError(
            "parent cylinder length not bounded away from zero at this depth"
        ) from None


@dataclass(frozen=True)
class PlacementReport:
    """Adjacent-cylinder geometry at one position.

    kappa1/kappa2 are the two endpoint differences, nu1/nu2 their negations,
    omega1/omega2 the upward/downward unit tails at the position (both within
    [0, 1]). overlap_class is decided by the sign of the applicable kappa:
    "interval", "one-point" (exact zero), "empty", or "undecided" when the
    enclosure straddles zero with positive width. overlap_or_gap_measure
    encloses the union measure when overlapping, the gap when disjoint, zero
    at a touch, and the hull of both readings when undecided.
    """

    position: int
    digit: int
    kappa1: Enclosure
    kappa2: Enclosure
    nu1: Enclosure
    nu2: Enclosure
    omega1: Enclosure
    omega2: Enclosure
    orientation: str
    overlap_class: str
    overlap_or_gap_measure: Enclosure


def _kappa(weight, lead, q_a, omega_a: Enclosure, q_b, omega_b: Enclosure) -> Enclosure:
    """weight * (lead + q_a*omega_a + q_b*omega_b), endpoint by endpoint:
    the weight and both entries are positive, so each end of the tails
    gives the same end of the result, and point tails give a point."""
    lo = weight * (lead + q_a * omega_a.lo + q_b * omega_b.lo)
    if omega_a.is_point and omega_b.is_point:
        return Enclosure(lo, lo)
    return Enclosure(lo, weight * (lead + q_a * omega_a.hi + q_b * omega_b.hi))


def placement(system: DigitSystem, base, digit: int,
              depth: int = DEFAULT_DEPTH) -> PlacementReport:
    """Compare the cylinders of `digit` and `digit`+1 after `base`.

    `base` may be empty: the pair then sits at position 1.
    """
    base_word = base if isinstance(base, DigitWord) else word(system, base)
    if base_word.system is not system:
        raise ConstructionError("base word bound to a different system")
    n = len(base_word) + 1
    if not isinstance(depth, int) or depth <= n:
        raise ParameterError(f"tail depth must exceed position {n}, got {depth!r}")
    col = system.column(n)
    if not col.digit_valid(digit) or not col.digit_valid(digit + 1):
        raise DomainError(f"adjacent pair ({digit}, {digit + 1}) invalid at position {n}")

    weight = prefix_weight(base_word)
    lo, omega1 = tail_bounds(system, n, depth)
    omega2 = lo.neg()
    q_c = col.entry(digit)
    q_next = col.entry(digit + 1)
    marked = system.signs.contains(n)

    # kappa1 = sup(c) - inf(c+1): leading term +q_c on marked positions,
    # -q_c otherwise; kappa2 swaps both the leading sign and the tails.
    lead = q_c if marked else -q_c
    kappa1 = _kappa(weight, lead, q_c, omega1, q_next, omega2)
    kappa2 = _kappa(weight, -lead, q_next, omega1, q_c, omega2)

    applicable, other = (kappa2, kappa1) if marked else (kappa1, kappa2)
    if applicable.is_point and applicable.lo == 0:
        overlap_class = "one-point"
        measure = Enclosure.point(0)
    elif applicable.lo > 0:
        overlap_class = "interval"
        measure = other
    elif applicable.hi < 0:
        overlap_class = "empty"
        measure = applicable.neg()
    else:
        overlap_class = "undecided"
        gap_reading = Enclosure(max(ZERO, -applicable.hi), max(ZERO, -applicable.lo))
        measure = other.hull(gap_reading)

    return PlacementReport(
        position=n,
        digit=digit,
        kappa1=kappa1,
        kappa2=kappa2,
        nu1=kappa1.neg(),
        nu2=kappa2.neg(),
        omega1=omega1,
        omega2=omega2,
        orientation="right-to-left" if marked else "left-to-right",
        overlap_class=overlap_class,
        overlap_or_gap_measure=measure,
    )
