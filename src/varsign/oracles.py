"""Independent routes to a digit word's exact value.

The engine (`expansion.prefix_walk`) gives a word's value as the signed sum
of digit weights times running entry products, from a per-system step table.
The routes here compute the same value another way, and the tests and the
benchmark's checks compare the two:

- `eval_signed_product` reads per-entry signed sums and signed running
  products from the column data, with a column sign of its own;
- `oracle_eval` reads a classic's word by direct power sums, with no digit
  weights, no sign exponents and no tail machinery.

The library itself never calls them. So that they stay independent of the
engine, this module imports no package module but `errors`, `numerics` and
`system`, and never `expansion`: a word is taken by duck typing, as anything
with `.system` and `.digits`, and a classic as anything with `.tag`, `.qs`
and `.signs`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


def eval_signed_product(w) -> Fraction:
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


def oracle_eval(kind, digits) -> Fraction:
    """Closed-form value of a digit word of the classic `kind`, by direct
    power sums only.

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
