"""Classical specializations built as ordinary digit systems, plus
closed-form oracles for them.

A classic is its bases and its sign set: s-adic, nega-s-adic, Cantor,
nega-Cantor and mixed-sign expansions are the general system with uniform
columns of the given bases (the last repeating) and a fixed or given set of
marked positions. The two paper examples are rule columns instead. The spec
names of the classics and their parameters belong to `specfile`.

The oracles evaluate digit words by direct power sums (no digit weights, no
sign exponents, no tail machinery), so they are an independent route against
which the generic evaluator is tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, DomainError
from .numerics import rat
from .system import (
    DigitSystem,
    GeometricColumn,
    ListColumns,
    RuleColumns,
    SignSet,
    uniform_column,
)


@dataclass(frozen=True)
class ClassicKind:
    """A named specialization: its bases q_1, q_2, ... (the last repeats;
    empty for the rule-column examples) and its set of marked positions."""

    tag: str
    qs: tuple
    signs: SignSet


def _base(s) -> int:
    if not isinstance(s, int):
        raise ConstructionError(f"base must be an integer, got {s!r}")
    if s < 2:
        raise ConstructionError("base must be >= 2")
    return s


def s_adic(s: int) -> ClassicKind:
    """Base-s expansions: no marked positions, uniform columns."""
    return ClassicKind("s_adic", (_base(s),), SignSet.none())


def nega_s_adic(s: int) -> ClassicKind:
    """Alternating base-s expansions: odd positions marked."""
    return ClassicKind("nega_s_adic", (_base(s),), SignSet.odd())


def _check_bases(qs) -> tuple:
    qs = tuple(qs)
    if not qs:
        raise ConstructionError("need at least one base")
    if any(not isinstance(q, int) for q in qs):
        raise ConstructionError(f"every base must be an integer, got {qs!r}")
    if any(q < 2 for q in qs):
        raise ConstructionError("every base must be >= 2")
    return qs


def cantor(qs) -> ClassicKind:
    """Mixed-base expansions with per-position bases q_1, q_2, ...; the last
    base repeats past the given prefix."""
    return ClassicKind("cantor", _check_bases(qs), SignSet.none())


def nega_cantor(qs) -> ClassicKind:
    """Mixed-base expansions with alternating signs (odd positions marked)."""
    return ClassicKind("nega_cantor", _check_bases(qs), SignSet.odd())


def mixed_sign(s: int, signs: SignSet) -> ClassicKind:
    """Base-s expansions with an arbitrary set of marked positions."""
    s = _base(s)
    if not isinstance(signs, SignSet):
        raise ConstructionError("signs must be a SignSet")
    return ClassicKind("mixed_sign", (s,), signs)


def example_a() -> ClassicKind:
    """All-infinite geometric columns entry(i) = n/(n+1)**(i+1), positions
    congruent to 1 or 2 mod 4 marked from the second block on."""
    return ClassicKind("example_a", (), SignSet.residue_classes(4, (1, 2), start_k=1))


def example_b() -> ClassicKind:
    """No marked positions; column 1 is (1/2, 1/2), odd columns are uniform,
    even columns geometric entry(i) = 2**i * (n+1)/(n+3)**(i+1)."""
    return ClassicKind("example_b", (), SignSet.none())


def _example_a_column(n: int) -> GeometricColumn:
    return GeometricColumn(rat(n, n + 1), rat(1, n + 1))


def _example_b_column(n: int):
    if n == 1:
        return uniform_column(2)
    if n % 2 == 1:
        return uniform_column(n)
    return GeometricColumn(rat(n + 1, n + 3), rat(2, n + 3))


def make_classic(kind: ClassicKind) -> DigitSystem:
    if kind.tag == "example_a":
        # Sup entries n/(n+1): the running product is 1/(n+1).
        columns = RuleColumns(_example_a_column, vanishing_product=True)
    elif kind.tag == "example_b":
        # Sup entries are at most max(1/2, (n+1)/(n+3)) < 1 with uniform
        # 1/n columns interleaved.
        columns = RuleColumns(_example_b_column, vanishing_product=True)
    else:
        columns = ListColumns(tuple(uniform_column(q) for q in kind.qs))
    return DigitSystem(kind.signs, columns)


def oracle_eval(kind: ClassicKind, digits) -> Fraction:
    """Closed-form value of a digit word, by direct power sums only.

    Each sum is read by Horner's rule: with value num / (b_1 * ... * b_n),
    position n + 1 makes num * b_{n+1} + sign * d over b_1 * ... * b_{n+1},
    where b is the base (negated on every position for nega-Cantor), so the
    result is reduced once, on return."""
    digits = tuple(digits)
    tag = kind.tag

    if tag in ("s_adic", "nega_s_adic", "mixed_sign"):
        s = kind.qs[0]
        num = 0
        for n, d in enumerate(digits, 1):
            if not (isinstance(d, int) and 0 <= d < s):
                raise DomainError(f"digit {d!r} invalid at position {n}")
            if tag == "s_adic":
                sign = 1
            elif tag == "nega_s_adic":
                sign = -1 if n % 2 else 1
            else:
                sign = -1 if kind.signs.contains(n) else 1
            num = num * s + sign * d
        return Fraction(num, s ** len(digits))

    if tag in ("cantor", "nega_cantor"):
        qs = kind.qs
        num, den = 0, 1
        for n, d in enumerate(digits, 1):
            base = qs[n - 1] if n <= len(qs) else qs[-1]
            if not (isinstance(d, int) and 0 <= d < base):
                raise DomainError(f"digit {d!r} invalid at position {n}")
            b = -base if tag == "nega_cantor" else base
            num = num * b + d
            den *= b
        return Fraction(num, den)

    raise DomainError(f"no independent closed form for {tag!r}")
