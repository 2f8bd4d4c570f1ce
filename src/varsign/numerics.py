"""Exact scalar and interval arithmetic used by every other module.

Scalars are arbitrary-precision rationals. The stdlib `fractions.Fraction`
already keeps the canonical reduced form with a positive denominator; this
module adds the guarded constructor, the "p/q" wire format, and `Enclosure`,
a closed rational interval that certifies a real quantity obtained by
truncating an infinite series. All interval operations are outward-exact:
the result interval contains every value the operation can take on members
of the operands, with no rounding anywhere.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, DomainError

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(numerator, denominator=1) -> Fraction:
    """Build a rational, rejecting a zero denominator up front."""
    if denominator == 0:
        raise ConstructionError("rational with zero denominator")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or the integer shorthand "p") into a reduced rational."""
    s = text.strip()
    p, sep, q = s.partition("/")
    try:
        num = int(p)
        den = int(q) if sep else 1
    except ValueError:
        raise ConstructionError(f"not a rational: {text!r}") from None
    return rat(num, den)


def format_rational(x: Fraction) -> str:
    """Canonical wire form "p/q" (reduced, q > 0), e.g. "0/1", "-5/3".

    Raises DomainError when a part has more decimal digits than Python's
    int-to-str limit (`sys.get_int_max_str_digits()`) allows."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        bits = max(abs(x.numerator), x.denominator).bit_length()
        raise DomainError(
            f"rational of about {int(bits * math.log10(2)) + 1} decimal digits "
            f"exceeds the int-to-str limit of {sys.get_int_max_str_digits()} "
            "digits") from None


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ConstructionError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x) -> "Enclosure":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def hull(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(min(self.lo, other.lo), max(self.hi, other.hi))

    def add(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def scale(self, factor) -> "Enclosure":
        factor = Fraction(factor)
        if factor >= 0:
            return Enclosure(self.lo * factor, self.hi * factor)
        return Enclosure(self.hi * factor, self.lo * factor)

    def shift(self, offset) -> "Enclosure":
        offset = Fraction(offset)
        return Enclosure(self.lo + offset, self.hi + offset)

    def neg(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def div(self, other: "Enclosure") -> "Enclosure":
        # Only division by an interval strictly on one side of zero is
        # well-defined; anything else cannot be bounded.
        if other.lo > 0 or other.hi < 0:
            quotients = (
                self.lo / other.lo,
                self.lo / other.hi,
                self.hi / other.lo,
                self.hi / other.hi,
            )
            return Enclosure(min(quotients), max(quotients))
        raise DomainError("division by an enclosure touching zero")

    def __str__(self):
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def parse_enclosure(doc) -> Enclosure:
    """Parse the wire form {"lo": "p/q", "hi": "p/q"}."""
    try:
        return Enclosure(parse_rational(doc["lo"]), parse_rational(doc["hi"]))
    except (TypeError, KeyError):
        raise ConstructionError(f"not an enclosure: {doc!r}") from None


def format_enclosure(a: Enclosure) -> dict:
    return {"lo": format_rational(a.lo), "hi": format_rational(a.hi)}
