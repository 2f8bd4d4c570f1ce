import dataclasses
import random
import time
from fractions import Fraction

import pytest

from varsign import (
    CERTIFIED,
    ConstructionError,
    DigitSystem,
    DomainError,
    Enclosure,
    FiniteColumn,
    GeometricColumn,
    INCONCLUSIVE,
    ListColumns,
    RuleColumns,
    SignSet,
    UniformColumn,
    eval_prefix,
    eval_signed_product,
    make_classic,
    parse_spec,
    s_adic,
    theorem_check,
    uniform_column,
    value_range,
    word,
)
from varsign.specfile import MAX_DIGITS
from support import (
    build_signs,
    random_sign_rule,
    reference_contains,
    reference_marked_beyond,
    reference_periodicity,
)

SEED = 0x5EED


def test_sign_set_kinds():
    assert not SignSet.none().contains(3)
    assert SignSet.every().contains(3)
    assert SignSet.odd().contains(3) and not SignSet.odd().contains(4)
    assert SignSet.even().contains(4) and not SignSet.even().contains(3)
    listed = SignSet.from_list([2, 5])
    assert listed.contains(5) and not listed.contains(4)


def test_sign_set_residues_with_start_block():
    # n % 4 in {1, 2}, counted only from the second block on
    s = SignSet.residue_classes(4, (1, 2), start_k=1)
    assert not s.contains(1) and not s.contains(2)
    assert s.contains(5) and s.contains(6)
    assert not s.contains(7) and not s.contains(8)
    assert s.contains(9) and s.contains(10)


def test_sign_set_complement():
    odd = SignSet.odd()
    comp = SignSet.complement(odd)
    for n in range(1, 20):
        assert comp.contains(n) != odd.contains(n)


def test_sign_set_rejects_bad_input():
    with pytest.raises(ConstructionError):
        SignSet.from_list([0])
    with pytest.raises(ConstructionError):
        SignSet.residue_classes(0, (0,))
    with pytest.raises(ConstructionError):
        SignSet.residue_classes(4, (4,))
    with pytest.raises(ConstructionError):
        SignSet.residue_classes(4, ())


@pytest.mark.parametrize("fields", [
    {"period": 0},
    {"period": -3, "residues": frozenset({0})},
    {"period": 2, "residues": frozenset({5})},
    {"period": 2, "residues": frozenset({-1, 1})},
    {"start": -1},
    {"flips": frozenset({0})},
    {"flips": frozenset({4, -2}), "negated": True},
])
def test_sign_set_refuses_fields_outside_normal_form(fields):
    with pytest.raises(ConstructionError):
        SignSet(**fields)
    with pytest.raises(ConstructionError):
        dataclasses.replace(SignSet.odd(), **fields)


def test_sign_set_refuses_positions_that_are_not_integers():
    with pytest.raises(ConstructionError):
        SignSet.from_list([1.5, 2.9])
    with pytest.raises(ConstructionError):
        SignSet.residue_classes(3.7, (1.2,), 0.5)
    with pytest.raises(ConstructionError):
        SignSet(period=2.0, residues=frozenset({1}))


@pytest.mark.parametrize("args", [
    (4, (1,), "2"),
    (4, ("1",)),
    ("4", (1,)),
    (None, (1,)),
    (4, (1,), None),
    (4, (None,)),
])
def test_residue_classes_checks_types_before_comparing(args):
    # Comparing these with integers would raise a bare TypeError.
    with pytest.raises(ConstructionError, match="integers"):
        SignSet.residue_classes(*args)


def test_sign_set_normal_form_edges_still_construct():
    assert SignSet(period=3, residues=frozenset({0, 2}), start=0).contains(3)
    assert not SignSet(period=5).has_members_beyond(0)
    assert SignSet(flips=frozenset({1}), start=0, period=1).contains(1)


def test_sign_set_horizon_scans():
    listed = SignSet.from_list([2, 5])
    assert listed.has_members_beyond(4)
    assert not listed.has_members_beyond(5)
    assert listed.has_nonmembers_beyond(100)
    assert SignSet.every().has_members_beyond(10 ** 9)
    assert not SignSet.every().has_nonmembers_beyond(1)
    assert SignSet.odd().has_members_beyond(10 ** 6)


def test_sign_sets_agree_with_reference():
    rng = random.Random(SEED)
    for _ in range(1500):
        rule = random_sign_rule(rng, horizon=rng.choice((5, 12, 30)), nesting=3)
        signs = build_signs(rule)
        assert signs.periodicity() == reference_periodicity(rule), rule
        for n in range(1, 80):
            assert signs.contains(n) == reference_contains(rule, n), (rule, n)
        for bound in range(40):
            assert signs.has_members_beyond(bound) == reference_marked_beyond(
                rule, bound, True), (rule, bound)
            assert signs.has_nonmembers_beyond(bound) == reference_marked_beyond(
                rule, bound, False), (rule, bound)


@pytest.mark.parametrize("signs, expected", [
    (SignSet.none(), (0, 1)),
    (SignSet.every(), (0, 1)),
    (SignSet.odd(), (0, 2)),
    (SignSet.even(), (0, 2)),
    (SignSet.from_list([]), (0, 1)),
    (SignSet.from_list([3, 17, 5]), (17, 1)),
    (SignSet.residue_classes(4, (1, 2)), (4, 4)),
    (SignSet.residue_classes(4, (0,)), (4, 4)),
    (SignSet.residue_classes(4, (1, 2), start_k=1), (8, 4)),
    (SignSet.residue_classes(5, (0, 4), start_k=3), (20, 5)),
    (SignSet.complement(SignSet.odd()), (0, 2)),
    (SignSet.complement(SignSet.from_list([9])), (9, 1)),
    (SignSet.complement(SignSet.complement(SignSet.residue_classes(3, (2,), 2))),
     (9, 3)),
])
def test_sign_set_periodicity_pinned(signs, expected):
    # The tail seed takes its periodic branch only from the preperiod on, so
    # these values fix which tail enclosures are exact at small depths.
    assert signs.periodicity() == expected


FAR_LIST = SignSet.from_list([10 ** 18])
FAR_RESIDUE = SignSet.residue_classes(10 ** 12, [10 ** 12 - 1])


@pytest.mark.parametrize("signs, members, nonmembers", [
    (FAR_LIST, True, True),
    (SignSet.complement(FAR_LIST), True, True),
    (FAR_RESIDUE, True, True),
    (SignSet.complement(FAR_RESIDUE), True, True),
])
def test_far_positions_answer_in_closed_form(signs, members, nonmembers):
    assert signs.has_members_beyond(40) == members
    assert signs.has_nonmembers_beyond(40) == nonmembers
    system = DigitSystem(signs, ListColumns(
        (FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
         uniform_column(2))))
    lo, hi = value_range(system, 40)
    assert lo.lo <= lo.hi <= hi.lo <= hi.hi
    assert theorem_check(system, 8).checks


def test_far_list_past_its_last_member():
    assert not FAR_LIST.has_members_beyond(10 ** 18)
    assert FAR_LIST.has_members_beyond(10 ** 18 - 1)
    complement = SignSet.complement(FAR_LIST)
    assert not complement.has_nonmembers_beyond(10 ** 18)
    assert complement.has_nonmembers_beyond(10 ** 18 - 1)
    assert FAR_RESIDUE.contains(10 ** 12 - 1)
    assert not FAR_RESIDUE.contains(10 ** 12)


def test_finite_column_accessors():
    col = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert not col.is_infinite
    assert col.top_digit == 2
    assert col.digit_valid(2) and not col.digit_valid(3)
    assert col.entry(1) == Fraction(1, 3)
    assert col.weight(0) == 0
    assert col.weight(2) == Fraction(5, 6)
    assert col.sup_entry == Fraction(1, 2)


def _random_weights(rng, size, ordered):
    weights = [rng.randint(1, 9) for _ in range(size)]
    if ordered:
        weights.sort(reverse=True)
    return weights


def _column_of(weights):
    total = sum(weights)
    return FiniteColumn(tuple(Fraction(w, total) for w in weights))


def test_finite_column_weight_and_tail_match_plain_sums():
    # The entries share one denominator, so the plain sums of entries[:i]
    # are integer sums of the weights over that denominator.
    rng = random.Random(SEED)
    for size in (1, 2, 3, 17, 600, *(rng.randint(4, 600) for _ in range(3))):
        for ordered in (True, False):
            weights = _random_weights(rng, size, ordered)
            total = sum(weights)
            # one column builds its table from the top digit, the other from 0
            by_top, by_bottom = _column_of(weights), _column_of(weights)
            assert by_top.weight(size - 1) == Fraction(total - weights[-1], total)
            assert by_bottom.weight(0) == 0
            for i in range(size):
                below = Fraction(sum(weights[:i]), total)
                assert by_top.weight(i) == below
                assert by_bottom.weight(i) == below


def test_finite_column_rejects_digits_outside_alphabet():
    col = _column_of(_random_weights(random.Random(SEED), 5, False))
    for bad in (-1, 5, 10 ** 9, 1.0, "1", None):
        with pytest.raises(DomainError):
            col.weight(bad)
    # the built table holds s + 1 sums, so digit s must still be refused
    col.weight(2)
    with pytest.raises(DomainError):
        col.weight(5)


def test_finite_column_table_is_invisible():
    weights = _random_weights(random.Random(SEED), 40, False)
    used, fresh = _column_of(weights), _column_of(weights)
    used.weight(7)
    assert "_prefix" in vars(used) and "_prefix" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_prefix" not in repr(used)


def test_finite_column_sup_entry_is_kept():
    weights = _random_weights(random.Random(SEED), 40, False)
    used, fresh = _column_of(weights), _column_of(weights)
    assert used.sup_entry == Fraction(max(weights), sum(weights))
    assert "sup_entry" in vars(used) and "sup_entry" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_parse_spec_builds_no_prefix_table():
    entries = ", ".join(['"1/1000"'] * 1000)
    system = parse_spec(
        '{"nb": {"kind": "odd"},'
        ' "columns": {"kind": "explicit", "list": [{"finite": [%s]}]}}' % entries
    )
    assert isinstance(system.column(1), FiniteColumn)
    assert "_prefix" not in vars(system.column(1))


def test_geometric_column_closed_forms():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    assert col.is_infinite
    assert col.entry(3) == Fraction(1, 16)
    assert col.weight(2) == Fraction(3, 4)
    assert col.digit_valid(10 ** 9)
    with pytest.raises(ConstructionError):
        GeometricColumn(Fraction(1, 2), Fraction(3, 2))


def test_geometric_column_matches_old_formulas():
    # The closed forms in the ratio against the general formulas
    # tail(k) = scale * ratio**k / (1 - ratio) and weight(i) = tail(0) - tail(i),
    # asked twice: the second pass reads each digit's kept pair, which is
    # invisible to equality, hashing and repr.
    rng = random.Random(SEED + 3)
    for _ in range(20):
        den = rng.randint(2, 10 ** 6)
        ratio = Fraction(rng.randint(1, den - 1), den)
        scale = 1 - ratio
        col, fresh = GeometricColumn(scale, ratio), GeometricColumn(scale, ratio)

        def old_tail(k):
            return scale * ratio**k / (1 - ratio)

        for _ in range(2):
            for i in range(61):
                assert col.weight(i) == old_tail(0) - old_tail(i)
                assert col.entry(i) == scale * ratio**i
        assert col.weight(60) is col.weight(60) and col.entry(7) is col.entry(7)
        assert col == fresh and hash(col) == hash(fresh)
        assert repr(col) == repr(fresh)


def test_geometric_column_keeps_its_errors():
    # 1.0 and Fraction(1) hash like digit 1, whose pair is kept by then: the
    # digit is checked before the lookup.
    col = GeometricColumn(Fraction(1, 3), Fraction(2, 3))
    assert (col.weight(1), col.entry(1)) == (Fraction(1, 3), Fraction(2, 9))
    for bad in (-1, 1.0, Fraction(1), "1", None):
        for query in (col.weight, col.entry):
            with pytest.raises(DomainError, match="digit"):
                query(bad)
    for ratio in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ConstructionError, match="ratio"):
            GeometricColumn(1 - ratio, ratio)


def test_uniform_column():
    col = uniform_column(4)
    assert col.top_digit == 3
    assert col.entry(2) == Fraction(1, 4)
    with pytest.raises(ConstructionError):
        uniform_column(1)


def test_uniform_column_matches_finite_column_of_equal_entries():
    rng = random.Random(SEED)
    for s in range(2, 601):
        uni = uniform_column(s)
        fin = FiniteColumn((Fraction(1, s),) * s)
        assert isinstance(uni, UniformColumn)
        assert (uni.top_digit, uni.is_infinite) == (fin.top_digit, fin.is_infinite)
        # The finite column compares all s entries for these two checks;
        # every alphabet up to 64 and a sample beyond keep the suite quick.
        whole = s <= 64 or s % 50 == 0
        if whole:
            assert fin.sup_entry == Fraction(1, s)
            signs = SignSet.odd()
            assert (DigitSystem(signs, ListColumns((uni,))).validate(3)
                    == DigitSystem(signs, ListColumns((fin,))).validate(3))
        assert uni.sup_entry == Fraction(1, s)
        if s <= 40:
            digits = range(s)
        else:
            digits = {0, 1, s // 3, s // 2, s - 2, s - 1, rng.randrange(s)}
        for i in digits:
            assert uni.digit_valid(i) and fin.digit_valid(i)
            assert uni.entry(i) == fin.entry(i)
            assert uni.weight(i) == fin.weight(i)
        for bad in (-1, s, s + 5, 1.0, "1", None):
            assert not uni.digit_valid(bad) and not fin.digit_valid(bad)
            for col in (uni, fin):
                with pytest.raises(DomainError):
                    col.entry(bad)
                with pytest.raises(DomainError):
                    col.weight(bad)


def test_uniform_column_refuses_fewer_than_two_digits():
    # uniform_column never rounds: 2.5 is not a column of 2 digits.
    for bad in (1, 0, -4, 2.0, 2.5, "3"):
        with pytest.raises(ConstructionError):
            UniformColumn(bad)
        with pytest.raises(ConstructionError):
            uniform_column(bad)


def test_largest_uniform_alphabets_are_symbolic():
    start = time.perf_counter()
    for spec in (
        '{"nb": {"kind": "odd"}, "columns": {"kind": "explicit",'
        ' "list": [{"uniform": {"s": %d}}]}}' % MAX_DIGITS,
        '{"columns": {"kind": "classic", "name": "s-adic",'
        ' "params": {"s": %d}}}' % MAX_DIGITS,
    ):
        system = parse_spec(spec)
        col = system.column(1)
        assert isinstance(col, UniformColumn) and col.top_digit == MAX_DIGITS - 1
        assert col.weight(MAX_DIGITS - 1) == 1 - Fraction(1, MAX_DIGITS)
        value_range(system)
    # a column of MAX_DIGITS entries would take tens of seconds to build
    assert time.perf_counter() - start < 5


def test_classic_columns_are_uniform():
    assert make_classic(s_adic(7)).column(3) == UniformColumn(7)


def test_list_columns_extension_rules():
    a = uniform_column(2)
    b = uniform_column(3)
    rep = ListColumns((a, b), "repeat-last")
    assert rep.column(1) is a and rep.column(2) is b
    assert rep.column(7) is b
    cyc = ListColumns((a, b), "cycle")
    assert cyc.column(3) is a and cyc.column(4) is b
    with pytest.raises(ConstructionError):
        ListColumns((), "repeat-last")
    with pytest.raises(ConstructionError):
        ListColumns((a,), "sideways")


def test_list_columns_vanishing_claim():
    assert ListColumns((uniform_column(2),)).claims_vanishing_product()
    stuck = ListColumns((FiniteColumn((Fraction(1),)),))
    assert not stuck.claims_vanishing_product()
    # One digit forever: every value is 0. The sign set's preperiod lies
    # past the depth, so only the singleton columns make the tails exact.
    lo, hi = value_range(DigitSystem(SignSet.from_list((100,)), stuck), 40)
    assert lo == hi == Enclosure.point(0)


def test_rule_columns_memoize_and_stay_modest():
    calls = []

    def rule(n):
        calls.append(n)
        return uniform_column(2)

    cols = RuleColumns(rule)
    cols.column(3)
    cols.column(3)
    assert calls == [3]
    assert cols.periodicity() is None
    assert not cols.claims_vanishing_product()


def test_sign_laws():
    sys = DigitSystem(SignSet.odd(), ListColumns((uniform_column(2),)))
    assert sys.signs.contains(1) and not sys.signs.contains(2)
    # eval_signed_product's column sign at n is -1 where the marking of n
    # differs from n-1 (position 0 unmarked); its products telescope to the
    # term sign, so a lone digit 1 at position n reads sign(n) / 2^n.
    for n, value in ((1, Fraction(-1, 2)), (2, Fraction(1, 4)), (3, Fraction(-1, 8))):
        assert eval_signed_product(word(sys, (0,) * (n - 1) + (1,))) == value
    # Positions 2 and 3 marked: column signs +, -, +, - at positions 1..4.
    pair = DigitSystem(SignSet.from_list([2, 3]), ListColumns((uniform_column(2),)))
    assert [pair.signs.contains(n) for n in range(1, 5)] == [False, True, True, False]
    for n, value in ((1, Fraction(1, 2)), (2, Fraction(-1, 4)),
                     (3, Fraction(-1, 8)), (4, Fraction(1, 16))):
        assert eval_signed_product(word(pair, (0,) * (n - 1) + (1,))) == value
    flat = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    assert not flat.signs.contains(1) and not flat.signs.contains(2)
    assert eval_signed_product(word(flat, (1, 1))) == Fraction(3, 4)


def test_validate_flags_bad_columns():
    # A bad column is refused when it is built, so no system can hold one.
    with pytest.raises(ConstructionError, match="sum"):
        FiniteColumn((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ConstructionError, match="digit 1"):
        FiniteColumn((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ConstructionError, match="digit 0"):
        FiniteColumn((Fraction(0), Fraction(1)))


def test_validate_flags_bad_geometric():
    with pytest.raises(ConstructionError, match="sum"):
        GeometricColumn(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ConstructionError, match="ratio"):
        GeometricColumn(Fraction(1, 2), Fraction(3, 2))


def test_rule_column_invalid_past_the_checked_depth_raises():
    # The columns turn bad at position 50, past what validate(10) builds;
    # a word reaching position 50 must fail rather than escape value_range.
    def rule(n):
        if n < 50:
            return uniform_column(2)
        return GeometricColumn(Fraction(2, 3), Fraction(1, 2))

    sys = DigitSystem(SignSet.none(), RuleColumns(rule))
    assert sys.validate(10).condition3 == INCONCLUSIVE
    assert eval_prefix(word(sys, [1] * 49)) == 1 - Fraction(1, 2 ** 49)
    with pytest.raises(ConstructionError, match="sum"):
        eval_prefix(word(sys, [1] * 49 + [5]))


def test_condition3_certified_by_provider_claim_at_depth_64():
    # The product 2^-64 certifies nothing by itself; the provider's claim
    # (one period's sup-entry product is 1/2) does.
    sys = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    report = sys.validate(64)
    assert report.condition3 == CERTIFIED
    assert report.condition3_product == Fraction(1, 2 ** 64)


def test_condition3_certified_by_provider_claim():
    # period product < 1, even though the checked prefix product stays large
    sys = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    report = sys.validate(4)
    assert report.condition3 == CERTIFIED


def test_condition3_small_product_without_structure_is_inconclusive():
    # Seventy halving columns, then singletons forever: the product up to
    # depth 80 is 2^-70 and stays there, so it never vanishes.
    cols = ListColumns((uniform_column(2),) * 70 + (FiniteColumn((Fraction(1),)),))
    report = DigitSystem(SignSet.none(), cols).validate(80)
    assert report.condition3_product == Fraction(1, 2 ** 70)
    assert report.condition3 == INCONCLUSIVE
    rule = RuleColumns(lambda n: uniform_column(2))
    report = DigitSystem(SignSet.none(), rule).validate(100)
    assert report.condition3_product == Fraction(1, 2 ** 100)
    assert report.condition3 == INCONCLUSIVE


def test_condition3_inconclusive_without_structure():
    cols = RuleColumns(lambda n: uniform_column(2))
    sys = DigitSystem(SignSet.none(), cols)
    report = sys.validate(4)
    assert report.condition3 == INCONCLUSIVE


def test_digit_system_rejects_incomplete_providers():
    with pytest.raises(ConstructionError):
        DigitSystem(SignSet.none(), object())
    with pytest.raises(ConstructionError):
        DigitSystem("odd", ListColumns((uniform_column(2),)))
