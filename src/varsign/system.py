"""Digit systems: a sign set over positions plus one weight column per position.

A system assigns to every position n >= 1 a column of positive rational
weights summing to 1 (finite, or infinite geometric), and marks a subset of
positions as negative. Position n contributes with sign (-1)^sign_exponent(n)
where the exponent is 1 on marked positions and 2 elsewhere; the exponent of
the virtual position 0 is 0, which fixes the alternating column signs.

Columns are indexed by digits from 0. `weight(i)` is the sum of the entries
below digit i (the amount of mass to the left of the digit), the quantity the
series evaluator multiplies by the running product of entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstructionError, DomainError, ParameterError
from .numerics import ONE, ZERO, rat

CERTIFIED = "CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"

# Threshold for the numeric branch of the shrinking-product certificate.
PRODUCT_THRESHOLD = Fraction(1, 2**64)


# ---------------------------------------------------------------------------
# Sign sets


@dataclass(frozen=True)
class SignSet:
    """The set of positions whose series term carries a negative sign.

    Construct through the classmethods; membership is queried with
    `contains(n)` for positions n >= 1. Every rule is eventually periodic,
    which the tail machinery exploits: `periodicity()` returns (preperiod,
    period) such that membership(t) == membership(t + period) for all
    t > preperiod.
    """

    kind: str
    members: frozenset = frozenset()
    modulus: int = 0
    residues: frozenset = frozenset()
    start_k: int = 0
    inner: "SignSet | None" = None

    _KINDS = ("empty", "all", "odd", "even", "list", "residues", "complement")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConstructionError(f"unknown sign-set kind {self.kind!r}")

    @classmethod
    def none(cls) -> "SignSet":
        return cls("empty")

    @classmethod
    def every(cls) -> "SignSet":
        return cls("all")

    @classmethod
    def odd(cls) -> "SignSet":
        return cls("odd")

    @classmethod
    def even(cls) -> "SignSet":
        return cls("even")

    @classmethod
    def from_list(cls, members) -> "SignSet":
        members = frozenset(int(m) for m in members)
        if any(m < 1 for m in members):
            raise ConstructionError("listed positions must be >= 1")
        return cls("list", members=members)

    @classmethod
    def residue_classes(cls, modulus, residues, start_k=0) -> "SignSet":
        """Positions of the form modulus*k + r with r in residues, k >= start_k."""
        modulus = int(modulus)
        start_k = int(start_k)
        residues = frozenset(int(r) for r in residues)
        if modulus < 1:
            raise ConstructionError("modulus must be >= 1")
        if start_k < 0:
            raise ConstructionError("start index must be >= 0")
        if not residues:
            raise ConstructionError("need at least one residue")
        if any(not (0 <= r < modulus) for r in residues):
            raise ConstructionError("residues must lie in [0, modulus)")
        return cls("residues", modulus=modulus, residues=residues, start_k=start_k)

    @classmethod
    def complement(cls, inner: "SignSet") -> "SignSet":
        return cls("complement", inner=inner)

    def contains(self, n: int) -> bool:
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"position must be a positive integer, got {n!r}")
        k = self.kind
        if k == "empty":
            return False
        if k == "all":
            return True
        if k == "odd":
            return n % 2 == 1
        if k == "even":
            return n % 2 == 0
        if k == "list":
            return n in self.members
        if k == "residues":
            r = n % self.modulus
            return r in self.residues and (n - r) // self.modulus >= self.start_k
        return not self.inner.contains(n)

    def periodicity(self) -> tuple:
        k = self.kind
        if k in ("empty", "all"):
            return (0, 1)
        if k in ("odd", "even"):
            return (0, 2)
        if k == "list":
            return (max(self.members, default=0), 1)
        if k == "residues":
            return (self.modulus * (self.start_k + 1), self.modulus)
        return self.inner.periodicity()

    def _window_beyond(self, bound: int) -> range:
        # Membership beyond `bound` is decided by the stretch up to the
        # preperiod plus one full period: everything later repeats it.
        pre, period = self.periodicity()
        return range(bound + 1, max(bound, pre) + period + 1)

    def has_members_beyond(self, bound: int) -> bool:
        return any(self.contains(t) for t in self._window_beyond(bound))

    def has_nonmembers_beyond(self, bound: int) -> bool:
        return any(not self.contains(t) for t in self._window_beyond(bound))

    def members_up_to(self, limit: int) -> list:
        """The increasing enumeration of members, cut at `limit`."""
        return [n for n in range(1, limit + 1) if self.contains(n)]


# ---------------------------------------------------------------------------
# Columns


@dataclass(frozen=True)
class FiniteColumn:
    """A finite column of weights indexed by digits 0..top_digit."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ConstructionError("empty column")
        object.__setattr__(
            self, "entries", tuple(Fraction(q) for q in self.entries)
        )

    @property
    def is_infinite(self) -> bool:
        return False

    @property
    def is_singleton(self) -> bool:
        return len(self.entries) == 1

    @property
    def top_digit(self) -> int:
        return len(self.entries) - 1

    def digit_valid(self, i: int) -> bool:
        return isinstance(i, int) and 0 <= i <= self.top_digit

    def entry(self, i: int) -> Fraction:
        if not self.digit_valid(i):
            raise DomainError(f"digit {i} outside 0..{self.top_digit}")
        return self.entries[i]

    def weight(self, i: int) -> Fraction:
        if not self.digit_valid(i):
            raise DomainError(f"digit {i} outside 0..{self.top_digit}")
        return sum(self.entries[:i], ZERO)

    def tail(self, k: int) -> Fraction:
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"tail index must be >= 0, got {k!r}")
        return sum(self.entries[k:], ZERO)

    @property
    def total(self) -> Fraction:
        return sum(self.entries, ZERO)

    @property
    def sup_entry(self) -> Fraction:
        return max(self.entries)


@dataclass(frozen=True)
class GeometricColumn:
    """The built-in infinite column rule: entry(i) = scale * ratio**i.

    The exact tail sum_{i>=k} entry(i) = scale * ratio**k / (1 - ratio) makes
    digit weights and truncation checks exact. A valid column has
    0 < ratio < 1 and scale = 1 - ratio (so the entries sum to 1); invalid
    parameters are flagged by validation rather than rejected here.
    """

    scale: Fraction
    ratio: Fraction

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "ratio", Fraction(self.ratio))

    @property
    def is_infinite(self) -> bool:
        return True

    @property
    def is_singleton(self) -> bool:
        return False

    @property
    def top_digit(self) -> None:
        return None

    def digit_valid(self, i: int) -> bool:
        return isinstance(i, int) and i >= 0

    def entry(self, i: int) -> Fraction:
        if not self.digit_valid(i):
            raise DomainError(f"digit must be >= 0, got {i!r}")
        return self.scale * self.ratio**i

    def tail(self, k: int) -> Fraction:
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"tail index must be >= 0, got {k!r}")
        if not 0 < self.ratio < 1:
            raise DomainError("geometric tail needs ratio in (0, 1)")
        return self.scale * self.ratio**k / (1 - self.ratio)

    def weight(self, i: int) -> Fraction:
        return self.tail(0) - self.tail(i)

    @property
    def total(self) -> Fraction:
        return self.tail(0)

    @property
    def sup_entry(self) -> Fraction:
        if not 0 < self.ratio < 1:
            raise DomainError("geometric sup needs ratio in (0, 1)")
        return self.scale


def uniform_column(s: int) -> FiniteColumn:
    """The column of s equal weights 1/s (digits 0..s-1)."""
    s = int(s)
    if s < 2:
        raise ConstructionError("uniform column needs at least 2 digits")
    return FiniteColumn((rat(1, s),) * s)


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
        try:
            product = ONE
            for t in range(pre + 1, pre + period + 1):
                product *= self.column(t).sup_entry
        except DomainError:
            return False
        return product < 1

    def all_singleton_beyond(self, bound: int) -> bool:
        pre, period = self.periodicity()
        window = range(bound + 1, max(bound, pre) + period + 1)
        return all(self.column(t).is_singleton for t in window)


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

    def all_singleton_beyond(self, bound: int) -> bool:
        return False


# ---------------------------------------------------------------------------
# Validation report


@dataclass(frozen=True)
class ColumnFailure:
    position: int
    digit: "int | None"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    failures: tuple
    condition3: str
    condition3_product: "Fraction | None"

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# The system


class DigitSystem:
    """A sign set plus a column provider; immutable once constructed.

    All accessors are pure and the system holds no cache of its own; tail
    enclosures are cached by the expansion module.
    """

    def __init__(self, signs: SignSet, columns):
        if not isinstance(signs, SignSet):
            raise ConstructionError("signs must be a SignSet")
        for name in ("column", "periodicity", "claims_vanishing_product",
                     "all_singleton_beyond"):
            if not callable(getattr(columns, name, None)):
                raise ConstructionError(f"column provider lacks {name}()")
        self.signs = signs
        self.columns = columns

    def column(self, n: int):
        return self.columns.column(n)

    def sign_exponent(self, n: int) -> int:
        """Exponent of (-1) at position n: 1 on marked positions, else 2."""
        return 1 if self.signs.contains(n) else 2

    def term_sign(self, n: int) -> int:
        """(-1)**sign_exponent(n)."""
        return -1 if self.signs.contains(n) else 1

    def column_sign(self, n: int) -> int:
        """(-1)**(sign_exponent(n-1) + sign_exponent(n)) with exponent 0 at
        the virtual position 0; the product of column signs telescopes to the
        term sign."""
        prev = 0 if n == 1 else self.sign_exponent(n - 1)
        return -1 if (prev + self.sign_exponent(n)) % 2 else 1

    def digit_valid(self, i: int, n: int) -> bool:
        return self.column(n).digit_valid(i)

    def digit_weight(self, i: int, n: int) -> Fraction:
        """Mass below digit i in column n (exact, also for infinite columns)."""
        return self.column(n).weight(i)

    def extremal_low(self, n: int) -> tuple:
        """(weight, entry) of the digit driving the series to its infimum at
        position n: the top digit on marked positions (limit (1, 0) for
        infinite columns), digit 0 elsewhere."""
        col = self.column(n)
        if self.signs.contains(n):
            if col.is_infinite:
                return (ONE, ZERO)
            return (col.weight(col.top_digit), col.entry(col.top_digit))
        return (ZERO, col.entry(0))

    def extremal_high(self, n: int) -> tuple:
        """Mirror of extremal_low: digit 0 on marked positions, top digit
        (or its (1, 0) limit) elsewhere."""
        col = self.column(n)
        if self.signs.contains(n):
            return (ZERO, col.entry(0))
        if col.is_infinite:
            return (ONE, ZERO)
        return (col.weight(col.top_digit), col.entry(col.top_digit))

    def validate(self, depth: int) -> ValidationReport:
        """Exact per-column checks up to `depth`, plus the shrinking-product
        certificate.

        Checks per column: every entry positive, entries sum to 1 exactly
        (geometric columns via their closed-form tail). The product of
        sup-entries over the checked columns certifies the vanishing-product
        condition when it reaches the numeric threshold or when the provider
        carries a structural certificate; the condition is never reported as
        violated, only as not yet certified.
        """
        if not isinstance(depth, int) or depth < 1:
            raise ParameterError(f"validation depth must be >= 1, got {depth!r}")
        failures = []
        product = ONE
        product_known = True
        for n in range(1, depth + 1):
            col = self.column(n)
            if col.is_infinite:
                if col.scale <= 0:
                    failures.append(ColumnFailure(n, 0, f"entry {col.scale} not positive"))
                if not 0 < col.ratio < 1:
                    failures.append(ColumnFailure(n, None, f"ratio {col.ratio} outside (0, 1)"))
                    product_known = False
                    continue
                if col.total != 1:
                    failures.append(ColumnFailure(n, None, f"column sum {col.total} != 1"))
            else:
                for i, q in enumerate(col.entries):
                    if q <= 0:
                        failures.append(ColumnFailure(n, i, f"entry {q} not positive"))
                if col.total != 1:
                    failures.append(ColumnFailure(n, None, f"column sum {col.total} != 1"))
            product *= col.sup_entry
        certified = product_known and (
            product <= PRODUCT_THRESHOLD or self.columns.claims_vanishing_product()
        )
        return ValidationReport(
            depth=depth,
            failures=tuple(failures),
            condition3=CERTIFIED if certified else INCONCLUSIVE,
            condition3_product=product if product_known else None,
        )
