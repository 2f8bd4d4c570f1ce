"""Classical specializations built as ordinary digit systems, plus
closed-form oracles for them.

The oracles evaluate digit words by direct power sums (no digit weights, no
sign exponents, no tail machinery), so they are an independent route against
which the generic evaluator is tested.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, DomainError
from .numerics import ZERO, rat
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
    """A named specialization plus its parameters."""

    tag: str
    s: "int | None" = None
    qs: "tuple | None" = None
    signs: "SignSet | None" = None
    columns: "tuple | None" = None
    extend: str = "repeat-last"


def s_adic(s: int) -> ClassicKind:
    """Base-s expansions: no marked positions, uniform columns."""
    if int(s) < 2:
        raise ConstructionError("base must be >= 2")
    return ClassicKind("s_adic", s=int(s))


def nega_s_adic(s: int) -> ClassicKind:
    """Alternating base-s expansions: odd positions marked."""
    if int(s) < 2:
        raise ConstructionError("base must be >= 2")
    return ClassicKind("nega_s_adic", s=int(s))


def _check_bases(qs) -> tuple:
    qs = tuple(int(q) for q in qs)
    if not qs:
        raise ConstructionError("need at least one base")
    if any(q < 2 for q in qs):
        raise ConstructionError("every base must be >= 2")
    return qs


def cantor(qs) -> ClassicKind:
    """Mixed-base expansions with per-position bases q_1, q_2, ...; the last
    base repeats past the given prefix."""
    return ClassicKind("cantor", qs=_check_bases(qs))


def nega_cantor(qs) -> ClassicKind:
    """Mixed-base expansions with alternating signs (odd positions marked)."""
    return ClassicKind("nega_cantor", qs=_check_bases(qs))


def mixed_sign(s: int, signs: SignSet) -> ClassicKind:
    """Base-s expansions with an arbitrary set of marked positions."""
    if int(s) < 2:
        raise ConstructionError("base must be >= 2")
    if not isinstance(signs, SignSet):
        raise ConstructionError("signs must be a SignSet")
    return ClassicKind("mixed_sign", s=int(s), signs=signs)


def odd_sign_columns(columns, extend="repeat-last") -> ClassicKind:
    """Odd positions marked over arbitrary explicit columns."""
    return ClassicKind("odd_sign_columns", columns=tuple(columns), extend=extend)


def example_a() -> ClassicKind:
    """All-infinite geometric columns entry(i) = n/(n+1)**(i+1), positions
    congruent to 1 or 2 mod 4 marked from the second block on."""
    return ClassicKind("example_a")


def example_b() -> ClassicKind:
    """No marked positions; column 1 is (1/2, 1/2), odd columns are uniform,
    even columns geometric entry(i) = 2**i * (n+1)/(n+3)**(i+1)."""
    return ClassicKind("example_b")


def _example_a_column(n: int) -> GeometricColumn:
    return GeometricColumn(rat(n, n + 1), rat(1, n + 1))


def _example_b_column(n: int):
    if n == 1:
        return uniform_column(2)
    if n % 2 == 1:
        return uniform_column(n)
    return GeometricColumn(rat(n + 1, n + 3), rat(2, n + 3))


def make_classic(kind: ClassicKind) -> DigitSystem:
    tag = kind.tag
    if tag == "s_adic":
        return DigitSystem(SignSet.none(), ListColumns((uniform_column(kind.s),)))
    if tag == "nega_s_adic":
        return DigitSystem(SignSet.odd(), ListColumns((uniform_column(kind.s),)))
    if tag == "cantor":
        cols = tuple(uniform_column(q) for q in kind.qs)
        return DigitSystem(SignSet.none(), ListColumns(cols))
    if tag == "nega_cantor":
        cols = tuple(uniform_column(q) for q in kind.qs)
        return DigitSystem(SignSet.odd(), ListColumns(cols))
    if tag == "mixed_sign":
        return DigitSystem(kind.signs, ListColumns((uniform_column(kind.s),)))
    if tag == "odd_sign_columns":
        return DigitSystem(SignSet.odd(), ListColumns(kind.columns, kind.extend))
    if tag == "example_a":
        return DigitSystem(
            SignSet.residue_classes(4, (1, 2), start_k=1),
            # Sup entries n/(n+1): the running product is 1/(n+1).
            RuleColumns(_example_a_column, vanishing_product=True),
        )
    if tag == "example_b":
        return DigitSystem(
            SignSet.none(),
            # Sup entries are at most max(1/2, (n+1)/(n+3)) < 1 with uniform
            # 1/n columns interleaved.
            RuleColumns(_example_b_column, vanishing_product=True),
        )
    raise DomainError(f"unknown classic kind {tag!r}")


def oracle_eval(kind: ClassicKind, digits) -> Fraction:
    """Closed-form value of a digit word, by direct power sums only."""
    digits = tuple(int(d) for d in digits)
    tag = kind.tag

    if tag in ("s_adic", "nega_s_adic", "mixed_sign"):
        s = kind.s
        total = ZERO
        power = 1
        for n, d in enumerate(digits, 1):
            if not 0 <= d < s:
                raise DomainError(f"digit {d} invalid at position {n}")
            power *= s
            if tag == "s_adic":
                sign = 1
            elif tag == "nega_s_adic":
                sign = -1 if n % 2 else 1
            else:
                sign = -1 if kind.signs.contains(n) else 1
            total += Fraction(sign * d, power)
        return total

    if tag in ("cantor", "nega_cantor"):
        qs = kind.qs
        total = ZERO
        denom = 1
        for n, d in enumerate(digits, 1):
            base = qs[n - 1] if n <= len(qs) else qs[-1]
            if not 0 <= d < base:
                raise DomainError(f"digit {d} invalid at position {n}")
            denom *= -base if tag == "nega_cantor" else base
            total += Fraction(d, denom)
        return total

    raise DomainError(f"no independent closed form for {tag!r}")


CLASSIC_NAMES = (
    "s-adic",
    "nega-s-adic",
    "cantor",
    "nega-cantor",
    "mixed",
    "example-a",
    "example-b",
)


def classic_by_name(name: str, params: dict, signs: "SignSet | None" = None) -> ClassicKind:
    """Resolve a CLI/file name plus parameters to a ClassicKind.

    Only "mixed" takes a sign set; the other kinds fix their own. A refused
    name or sign set sets `argument` to "name" or "signs".
    """
    params = dict(params or {})
    if name not in CLASSIC_NAMES:
        raise ConstructionError(f"unknown classic name {name!r}", "name")
    if name == "mixed":
        if signs is None:
            raise ConstructionError('classic "mixed" needs a sign set', "signs")
    elif signs is not None:
        raise ConstructionError(f'classic {name!r} fixes its own sign set', "signs")

    def take(key):
        if key not in params:
            raise ConstructionError(f"classic {name!r} needs parameter {key!r}")
        return params.pop(key)

    if name == "s-adic":
        kind = s_adic(take("s"))
    elif name == "nega-s-adic":
        kind = nega_s_adic(take("s"))
    elif name == "cantor":
        kind = cantor(take("q"))
    elif name == "nega-cantor":
        kind = nega_cantor(take("q"))
    elif name == "mixed":
        kind = mixed_sign(take("s"), signs)
    elif name == "example-a":
        kind = example_a()
    else:
        kind = example_b()
    if params:
        raise ConstructionError(
            f"classic {name!r} got unexpected parameters {sorted(params)}"
        )
    return kind
