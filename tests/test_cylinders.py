import random
from fractions import Fraction

import pytest

from varsign import (
    ConstructionError,
    DigitSystem,
    DomainError,
    Enclosure,
    FiniteColumn,
    ListColumns,
    SignSet,
    cylinder,
    cylinder_bounds,
    cylinder_length,
    make_classic,
    metric_ratio,
    nega_s_adic,
    parse_spec,
    placement,
    s_adic,
    theorem_check,
    uniform_column,
)
from varsign.encoder import FAILS, HOLDS

from support import (
    UNSORTED_COLUMN_SPEC,
    extension_values,
    preset_systems,
    random_finite_system,
    random_word_digits,
)

SEED = 0xc71


def gap_system() -> DigitSystem:
    """First column (1/2, 1/3, 1/6) with the first position marked, uniform
    halves afterwards.  Rank-1 cylinders leave a gap of length 1/6."""
    first = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return DigitSystem(SignSet.from_list([1]),
                       ListColumns((first, uniform_column(2))))


def test_rank_one_cylinders_of_gap_system():
    sys = gap_system()
    expected = {
        0: (Fraction(0), Fraction(1, 2)),
        1: (Fraction(-1, 2), Fraction(-1, 6)),
        2: (Fraction(-5, 6), Fraction(-2, 3)),
    }
    for digit, (lo, hi) in expected.items():
        inf_enc, sup_enc = cylinder_bounds(cylinder(sys, (digit,)), 40)
        assert inf_enc.is_point and inf_enc.lo == lo
        assert sup_enc.is_point and sup_enc.hi == hi
        assert cylinder_length(cylinder(sys, (digit,)), 40).lo == hi - lo


def test_cylinder_requires_digits():
    sys = make_classic(s_adic(2))
    cyl = cylinder(sys, (1, 0))
    assert cyl.system is sys and cyl.base.digits == (1, 0) and cyl.rank == 2
    with pytest.raises(ConstructionError):
        cylinder(sys, ())
    with pytest.raises(DomainError):
        cylinder(sys, (2,))


def test_bounds_need_room_below_depth():
    sys = make_classic(s_adic(2))
    with pytest.raises(DomainError):
        cylinder_bounds(cylinder(sys, (1, 0)), 2)


def test_nesting_on_random_finite_systems():
    rng = random.Random(SEED)
    for _ in range(60):
        sys = random_finite_system(rng, support=8, max_digits=3)
        col1 = sys.column(1)
        d1 = rng.randint(0, col1.top_digit)
        parent = cylinder(sys, (d1,))
        d2 = rng.randint(0, sys.column(2).top_digit)
        child = cylinder(sys, (d1, d2))
        pi, ps = cylinder_bounds(parent, 10)
        ci, cs = cylinder_bounds(child, 10)
        assert pi.lo <= ci.lo and cs.hi <= ps.hi


def test_bounds_match_brute_force_on_truncated_system():
    rng = random.Random(SEED + 1)
    sys = random_finite_system(rng, support=6, max_digits=3)
    digits = (0, min(1, sys.column(2).top_digit))
    inf_enc, sup_enc = cylinder_bounds(cylinder(sys, digits), 8)
    values = extension_values(sys, digits, 6)
    assert inf_enc.is_point and inf_enc.lo == min(values)
    assert sup_enc.is_point and sup_enc.hi == max(values)


def test_metric_ratio_for_uniform_binary():
    sys = make_classic(s_adic(2))
    cyl = cylinder(sys, (1,))
    for digit in (0, 1):
        ratio = metric_ratio(cyl, digit, 40)
        assert ratio.is_point and ratio.lo == Fraction(1, 2)


def test_metric_ratio_rejects_degenerate_parent():
    # all columns singleton: every cylinder is one point, lengths are zero
    sys = DigitSystem(SignSet.none(),
                      ListColumns((FiniteColumn((Fraction(1),)),)))
    cyl = cylinder(sys, (0,))
    with pytest.raises(DomainError):
        metric_ratio(cyl, 0, 10)


def test_placement_abutting_binary():
    sys = make_classic(s_adic(2))
    rep = placement(sys, (), 0, 40)
    assert rep.orientation == "left-to-right"
    assert rep.overlap_class == "one-point"
    assert rep.kappa1.is_point and rep.kappa1.lo == 0
    assert rep.nu1.lo == 0
    assert rep.omega1.is_point and rep.omega1.lo == 1
    assert rep.omega2.is_point and rep.omega2.lo == 0
    assert rep.overlap_or_gap_measure.is_point
    assert rep.overlap_or_gap_measure.lo == 0


def test_placement_gap_system():
    sys = gap_system()
    rep = placement(sys, (), 0, 40)
    assert rep.orientation == "right-to-left"
    assert rep.overlap_class == "empty"
    assert rep.kappa2.is_point and rep.kappa2.lo == Fraction(-1, 6)
    assert rep.nu2.lo == Fraction(1, 6)
    assert rep.overlap_or_gap_measure.lo == Fraction(1, 6)
    # deeper pairs abut: uniform halves tile their parent exactly
    deeper = placement(sys, (1,), 0, 40)
    assert deeper.overlap_class == "one-point"


def test_placement_overlapping_pair():
    # first position marked with column (1/3, 2/3), uniform halves after:
    # rank-1 cylinders are [0, 1/3] and [-1/3, 1/3], overlapping on [0, 1/3]
    first = FiniteColumn((Fraction(1, 3), Fraction(2, 3)))
    sys = DigitSystem(SignSet.from_list([1]),
                      ListColumns((first, uniform_column(2))))
    rep = placement(sys, (), 0, 40)
    assert rep.overlap_class == "interval"
    assert rep.kappa2.lo == Fraction(1, 3)
    # the union measure equals the other endpoint difference
    assert rep.overlap_or_gap_measure.lo == Fraction(2, 3)
    inf0, sup0 = cylinder_bounds(cylinder(sys, (0,)), 40)
    inf1, sup1 = cylinder_bounds(cylinder(sys, (1,)), 40)
    union = max(sup0.hi, sup1.hi) - min(inf0.lo, inf1.lo)
    assert rep.overlap_or_gap_measure.contains(union)


def test_placement_normalized_bounds():
    rng = random.Random(SEED + 2)
    for _ in range(60):
        sys = random_finite_system(rng, support=6, max_digits=3)
        n = rng.randint(1, 4)
        base = tuple(
            rng.randint(0, sys.column(k).top_digit) for k in range(1, n)
        )
        col = sys.column(n)
        digit = rng.randint(0, col.top_digit - 1)
        rep = placement(sys, base, digit, 8)
        applicable = rep.kappa2 if sys.signs.contains(n) else rep.kappa1
        weight = Fraction(1)
        for k, d in enumerate(base, 1):
            weight *= sys.column(k).entry(d)
        scaled = applicable.scale(1 / weight) if weight != 1 else applicable
        assert -col.entry(digit) <= scaled.lo
        assert scaled.hi <= col.entry(digit + 1)


def test_applicable_kappa_from_zero_with_width_is_undecided():
    # Applicable kappa [0, h] with h > 0: the cylinders may touch in one
    # point or overlap in an interval, so placement may claim neither.
    cols = ListColumns((FiniteColumn((Fraction(2, 7), Fraction(3, 7), Fraction(2, 7))),
                        FiniteColumn((Fraction(1, 2), Fraction(1, 2)))), "repeat-last")
    sys = DigitSystem(SignSet.from_list([4, 57]), cols)
    rep = placement(sys, (), 0, 5)
    assert rep.orientation == "left-to-right"
    assert rep.kappa1 == Enclosure(Fraction(0), Fraction(5, 112))
    assert rep.overlap_class == "undecided"
    assert rep.overlap_or_gap_measure == rep.kappa2.hull(Enclosure.point(0))
    # The covering inequality is not strict, so no gap is certain here.
    check = theorem_check(sys, 1, 5).checks[0]
    assert (check.position, check.digit, check.status) == (1, 0, HOLDS)


def test_placement_and_theorem_check_agree_at_every_pair():
    # Both read the covering inequality of pair (i, i+1) at position n from
    # the tails at n: theorem_check's sides differ by the applicable kappa
    # divided by the base weight, so `holds` means lo >= 0 and `fails`
    # means hi < 0. A geometric column's one check stands for every pair.
    rng = random.Random(SEED + 3)
    systems = preset_systems() + [parse_spec(UNSORTED_COLUMN_SPEC)]
    systems += [random_finite_system(rng, support=6) for _ in range(16)]
    rank, depth = 8, 12
    orientations, statuses = set(), set()
    for sys in systems:
        for check in theorem_check(sys, rank, depth).checks:
            n = check.position
            digits = range(4) if check.covers_column else (check.digit,)
            for digit in digits:
                base = random_word_digits(rng, sys, n - 1)
                rep = placement(sys, base, digit, depth)
                applicable = rep.kappa2 if sys.signs.contains(n) else rep.kappa1
                assert (check.status == HOLDS) == (applicable.lo >= 0), (sys, n, digit)
                assert (check.status == FAILS) == (applicable.hi < 0), (sys, n, digit)
                orientations.add(rep.orientation)
                statuses.add(check.status)
    assert orientations == {"left-to-right", "right-to-left"}
    assert {HOLDS, FAILS} <= statuses


def test_placement_requires_valid_pair():
    sys = make_classic(s_adic(2))
    with pytest.raises(DomainError):
        placement(sys, (), 1, 40)  # digit 2 does not exist
    with pytest.raises(DomainError):
        placement(sys, (), -1, 40)
