"""Digit systems: a sign set over positions plus one weight column per position.

A system assigns to every position n >= 1 a column of positive rational
weights summing to 1 (finite, or infinite geometric), and marks a subset of
positions as negative; `signs.contains(n)` is the only sign query. Position n
contributes with sign (-1)^e(n), where the exponent e(n) is 1 on marked
positions and 2 elsewhere; the exponent of the virtual position 0 is 0, which
fixes the column signs (-1)^(e(n-1) + e(n)), -1 exactly where the marking
changes from position n-1 to n. The column signs telescope to the term signs.

Columns are valid by construction: each constructor refuses parameters that
would give an entry <= 0 or a sum other than 1 with a `ConstructionError`, so
every certified tail and bound downstream may rely on both conditions.
Columns are indexed by digits from 0 and answer `is_infinite`, `top_digit`,
`digit_valid`, `entry`, `weight` and `sup_entry`; providers answer `column`,
`periodicity` and `claims_vanishing_product`. `weight(i)` is the sum of the
entries below digit i, the quantity the series evaluator multiplies by the
running product of entries; the mass from digit i on is 1 - weight(i).

A column's constants are decided once: `is_infinite` is a constant of its
class, and `top_digit` and `sup_entry` are fixed when the column is built,
so reading them computes nothing. The one exception is an explicit finite
column's `sup_entry`, kept lazy with its prefix-sum table because each takes
a pass over the entries. A uniform column of s digits (every classic and
every `uniform` spec) is symbolic: it stores only s, and answers every query
in O(1) whatever s. An explicit finite column checks its entries once when
built and answers `weight` in O(1) from an exact prefix-sum table built on
the first call, so loading a spec never builds it. A geometric column is
infinite and answers from closed forms in its ratio.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

from .errors import ConstructionError, DomainError, ParameterError
from .numerics import ONE, ZERO

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# Sign sets


@dataclass(frozen=True)
class SignSet:
    """The set of positions whose series term carries a negative sign.

    Every sign set is kept in one eventually periodic normal form: position
    n >= 1 is marked iff

        ((n in flips) != (n >= start and n % period in residues)) != negated

    that is, a periodic residue rule switched on at `start`, with finitely
    many positions `flips` toggled and the whole set optionally negated.
    Construct through the classmethods; membership is queried with
    `contains(n)`. The constructor refuses fields outside the normal form: a
    field that is not an integer, a period below 1, a residue outside
    [0, period), a negative start or a flipped position below 1.
    `periodicity()` returns (preperiod, period) such that membership(t) ==
    membership(t + period) for all t > preperiod, and the `has_*_beyond`
    queries take time proportional to the number of flips, however large the
    listed positions or the period are.
    """

    flips: frozenset = frozenset()
    start: int = 0
    period: int = 1
    residues: frozenset = frozenset()
    negated: bool = False

    def __post_init__(self):
        fields = (self.start, self.period, *self.flips, *self.residues)
        if not all(isinstance(v, int) for v in fields):
            raise ConstructionError("sign-set positions and periods must be integers")
        if self.period < 1:
            raise ConstructionError("period must be >= 1")
        if any(not 0 <= r < self.period for r in self.residues):
            raise ConstructionError("residues must lie in [0, period)")
        if self.start < 0:
            raise ConstructionError("start must be >= 0")
        if any(f < 1 for f in self.flips):
            raise ConstructionError("listed positions must be >= 1")

    @classmethod
    def none(cls) -> "SignSet":
        return cls()

    @classmethod
    def every(cls) -> "SignSet":
        return cls(residues=frozenset({0}))

    @classmethod
    def odd(cls) -> "SignSet":
        return cls(period=2, residues=frozenset({1}))

    @classmethod
    def even(cls) -> "SignSet":
        return cls(period=2, residues=frozenset({0}))

    @classmethod
    def from_list(cls, members) -> "SignSet":
        return cls(flips=frozenset(members))

    @classmethod
    def residue_classes(cls, modulus, residues, start_k=0) -> "SignSet":
        """Positions of the form modulus*k + r with r in residues, k >= start_k."""
        residues = frozenset(residues)
        if not all(isinstance(v, int) for v in (modulus, start_k, *residues)):
            raise ConstructionError("modulus, residues and start index must be integers")
        if modulus < 1:
            raise ConstructionError("modulus must be >= 1")
        if start_k < 0:
            raise ConstructionError("start index must be >= 0")
        if not residues:
            raise ConstructionError("need at least one residue")
        if any(not (0 <= r < modulus) for r in residues):
            raise ConstructionError("residues must lie in [0, modulus)")
        # Block start_k is listed; the rule runs from block start_k + 1 on,
        # which keeps the preperiod at modulus * (start_k + 1).
        first = modulus * start_k
        return cls(
            flips=frozenset(first + r for r in residues if first + r >= 1),
            start=first + modulus,
            period=modulus,
            residues=residues,
        )

    @classmethod
    def complement(cls, inner: "SignSet") -> "SignSet":
        return replace(inner, negated=not inner.negated)

    def contains(self, n: int) -> bool:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"position must be a positive integer, got {n!r}")
        periodic = n >= self.start and n % self.period in self.residues
        return ((n in self.flips) != periodic) != self.negated

    def periodicity(self) -> tuple:
        return (max(self.flips | {self.start}), self.period)

    def has_members_beyond(self, bound: int) -> bool:
        return self._any_beyond(bound, self.negated)

    def has_nonmembers_beyond(self, bound: int) -> bool:
        return self._any_beyond(bound, not self.negated)

    def _any_beyond(self, bound: int, negated: bool) -> bool:
        """Whether a position past bound is marked in the set with this
        `negated` field: its members, or with the field flipped its
        complement's."""
        # Past the start and the last flip, the marked residue classes repeat.
        marked = len(self.residues)
        if (self.period - marked if negated else marked) > 0:
            return True
        # Otherwise a position at or past the start is marked iff flipped, and
        # one below the start iff flipped != negated.
        if any(f > bound and f >= self.start for f in self.flips):
            return True
        below = sum(1 for f in self.flips if bound < f < self.start)
        if negated:
            return self.start - 1 - bound > below
        return below > 0


# ---------------------------------------------------------------------------
# Columns


def _finite_digit(col, i: int) -> int:
    """i, when it is a digit of the finite column col; else a DomainError.

    The one check behind `entry` and `weight` of both finite column classes.
    """
    if not (isinstance(i, int) and 0 <= i <= col.top_digit):
        raise DomainError(f"digit {i} outside 0..{col.top_digit}")
    return i


@dataclass(frozen=True)
class FiniteColumn:
    """An explicit finite column of weights indexed by digits 0..top_digit.

    Built from `finite` spec lists and hand-made columns; uniform columns
    use the symbolic `UniformColumn` instead. The constructor refuses an
    empty column, an entry <= 0 and entries whose sum is not 1, and fixes
    `top_digit` then. `weight(i)` is read from `_prefix`, the exact sums of
    the first 0..s entries, and `sup_entry` is the largest entry; both take
    a pass over the entries, so both are built on the first read and kept
    on the instance: loading a spec, which builds every column, builds
    neither. None of the three is a dataclass field, so equality, hashing
    and `repr` ignore them.
    """

    entries: tuple
    is_infinite = False

    def __post_init__(self):
        if not self.entries:
            raise ConstructionError("empty column")
        entries = tuple(Fraction(q) for q in self.entries)
        for i, q in enumerate(entries):
            if q <= 0:
                raise ConstructionError(f"entry {q} at digit {i} not positive")
        total = sum(entries, ZERO)
        if total != 1:
            raise ConstructionError(f"column sum {total} != 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "top_digit", len(entries) - 1)

    def digit_valid(self, i: int) -> bool:
        return isinstance(i, int) and 0 <= i <= self.top_digit

    def entry(self, i: int) -> Fraction:
        return self.entries[_finite_digit(self, i)]

    @cached_property
    def _prefix(self) -> tuple:
        return tuple(accumulate(self.entries, initial=ZERO))

    def weight(self, i: int) -> Fraction:
        return self._prefix[_finite_digit(self, i)]

    @cached_property
    def sup_entry(self) -> Fraction:
        return max(self.entries)


@dataclass(frozen=True)
class UniformColumn:
    """The column of s equal entries 1/s, digits 0..s-1, in closed form.

    Only s is a field; the constructor fixes `top_digit` = s - 1 and
    `sup_entry` = 1/s, the one entry, so every query is O(1) whatever s:
    weight(i) = i/s.
    """

    s: int
    is_infinite = False

    def __post_init__(self):
        if not isinstance(self.s, int) or self.s < 2:
            raise ConstructionError("uniform column needs at least 2 digits")
        object.__setattr__(self, "top_digit", self.s - 1)
        object.__setattr__(self, "sup_entry", Fraction(1, self.s))

    def digit_valid(self, i: int) -> bool:
        return isinstance(i, int) and 0 <= i < self.s

    def entry(self, i: int) -> Fraction:
        _finite_digit(self, i)
        return self.sup_entry

    def weight(self, i: int) -> Fraction:
        return Fraction(_finite_digit(self, i), self.s)


@dataclass(frozen=True)
class GeometricColumn:
    """The built-in infinite column rule: entry(i) = scale * ratio**i.

    The constructor refuses a ratio outside (0, 1) and scale + ratio != 1,
    so the entries are positive and sum to 1; it fixes `sup_entry` = scale,
    the entry of digit 0, and the column has no `top_digit` (None). The mass
    from digit i on is ratio**i, which makes digit weights exact:
    weight(i) = 1 - ratio**i. Each digit's pair (weight(i), entry(i)) is
    computed once, from one power of the ratio, and kept in `_pairs`, a dict
    on the instance that is not a dataclass field, so equality, hashing and
    `repr` ignore it. The digit is checked before the lookup: 1.0 hashes
    like 1, and must still be refused.
    """

    scale: Fraction
    ratio: Fraction
    is_infinite = True
    top_digit = None

    def __post_init__(self):
        scale, ratio = Fraction(self.scale), Fraction(self.ratio)
        if not 0 < ratio < 1:
            raise ConstructionError(f"ratio {ratio} outside (0, 1)")
        if scale + ratio != 1:
            raise ConstructionError(f"column sum {scale / (1 - ratio)} != 1")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "sup_entry", scale)
        object.__setattr__(self, "_pairs", {})

    def digit_valid(self, i: int) -> bool:
        return isinstance(i, int) and i >= 0

    def _pair(self, i: int) -> tuple:
        if not self.digit_valid(i):
            raise DomainError(f"digit must be >= 0, got {i!r}")
        pair = self._pairs.get(i)
        if pair is None:
            power = self.ratio**i
            pair = self._pairs[i] = (1 - power, self.scale * power)
        return pair

    def entry(self, i: int) -> Fraction:
        return self._pair(i)[1]

    def weight(self, i: int) -> Fraction:
        return self._pair(i)[0]


def uniform_column(s: int) -> UniformColumn:
    """The column of s equal weights 1/s (digits 0..s-1)."""
    return UniformColumn(s)


# ---------------------------------------------------------------------------
# Column providers


@dataclass(frozen=True)
class ListColumns:
    """Explicit columns for the first positions, extended by a policy.

    extend="cycle" repeats the whole list; extend="repeat-last" keeps the
    final column forever. Both make the provider eventually periodic.
    """

    columns: tuple
    extend: str = "repeat-last"

    def __post_init__(self):
        if not self.columns:
            raise ConstructionError("provider needs at least one column")
        if self.extend not in ("cycle", "repeat-last"):
            raise ConstructionError(f"unknown extension policy {self.extend!r}")
        object.__setattr__(self, "columns", tuple(self.columns))

    def column(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"position must be a positive integer, got {n!r}")
        count = len(self.columns)
        if n <= count:
            return self.columns[n - 1]
        if self.extend == "cycle":
            return self.columns[(n - 1) % count]
        return self.columns[-1]

    def periodicity(self) -> tuple:
        count = len(self.columns)
        if self.extend == "cycle":
            return (0, count)
        return (count - 1, 1)

    def claims_vanishing_product(self) -> bool:
        """True when one period's sup-entry product is strictly below 1,
        which drives the running product to 0 geometrically."""
        pre, period = self.periodicity()
        product = ONE
        for t in range(pre + 1, pre + period + 1):
            product *= self.column(t).sup_entry
        return product < 1


class RuleColumns:
    """Columns produced by an arbitrary rule n -> column.

    Used for families whose columns vary for every position and therefore
    fit no finite list + extension. The rule's author may certify that the
    running sup-entry product vanishes (`vanishing_product=True`); without
    that the provider makes no structural claims.
    """

    def __init__(self, rule, vanishing_product=False):
        self._rule = rule
        self._vanishing = bool(vanishing_product)
        self._memo = {}

    def column(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"position must be a positive integer, got {n!r}")
        col = self._memo.get(n)
        if col is None:
            col = self._rule(n)
            self._memo[n] = col
        return col

    def periodicity(self):
        return None

    def claims_vanishing_product(self) -> bool:
        return self._vanishing


# ---------------------------------------------------------------------------
# Validation report


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    condition3: str
    condition3_product: Fraction


# ---------------------------------------------------------------------------
# The system


class DigitSystem:
    """A sign set plus a column provider; immutable once constructed.

    All accessors are pure and the system holds no cache of its own; tail
    enclosures and the per-position step table are cached by the expansion
    module.
    """

    def __init__(self, signs: SignSet, columns):
        if not isinstance(signs, SignSet):
            raise ConstructionError("signs must be a SignSet")
        for name in ("column", "periodicity", "claims_vanishing_product"):
            if not callable(getattr(columns, name, None)):
                raise ConstructionError(f"column provider lacks {name}()")
        self.signs = signs
        self.columns = columns

    def column(self, n: int):
        return self.columns.column(n)

    def validate(self, depth: int) -> ValidationReport:
        """The shrinking-product certificate, with the product of
        sup-entries over the columns up to `depth`.

        Columns are valid by construction, so building them here is the
        only column check: a rule whose column at some position <= depth is
        invalid raises its `ConstructionError`. The vanishing-product
        condition is certified from the provider's structure alone
        (`claims_vanishing_product`): no finite product, however small,
        proves that the infinite one vanishes. The condition is never
        reported as violated, only as not certified.
        """
        if not isinstance(depth, int) or depth < 1:
            raise ParameterError(f"validation depth must be >= 1, got {depth!r}")
        product = ONE
        for n in range(1, depth + 1):
            product *= self.column(n).sup_entry
        certified = self.columns.claims_vanishing_product()
        return ValidationReport(
            depth=depth,
            condition3=CERTIFIED if certified else INCONCLUSIVE,
            condition3_product=product,
        )
