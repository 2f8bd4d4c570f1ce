import random
from fractions import Fraction

import pytest

from varsign import (
    CERTIFIED,
    ConstructionError,
    DigitSystem,
    DomainError,
    FiniteColumn,
    GeometricColumn,
    INCONCLUSIVE,
    ListColumns,
    RuleColumns,
    SignSet,
    parse_spec,
    uniform_column,
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


def test_sign_set_horizon_scans():
    listed = SignSet.from_list([2, 5])
    assert listed.has_members_beyond(4)
    assert not listed.has_members_beyond(5)
    assert listed.has_nonmembers_beyond(100)
    assert SignSet.every().has_members_beyond(10 ** 9)
    assert not SignSet.every().has_nonmembers_beyond(1)
    assert SignSet.odd().has_members_beyond(10 ** 6)
    assert listed.members_up_to(4) == [2]


def test_finite_column_accessors():
    col = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    assert not col.is_infinite
    assert col.top_digit == 2
    assert col.digit_valid(2) and not col.digit_valid(3)
    assert col.entry(1) == Fraction(1, 3)
    assert col.weight(0) == 0
    assert col.weight(2) == Fraction(5, 6)
    assert col.tail(1) == Fraction(1, 2)
    assert col.total == 1
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
    # and entries[k:] are integer sums of the weights over that denominator.
    rng = random.Random(SEED)
    for size in (1, 2, 3, 17, 600, *(rng.randint(4, 600) for _ in range(3))):
        for ordered in (True, False):
            weights = _random_weights(rng, size, ordered)
            total = sum(weights)
            # one column builds its table from weight, the other from tail
            by_weight, by_tail = _column_of(weights), _column_of(weights)
            assert by_weight.weight(size - 1) == Fraction(total - weights[-1], total)
            assert by_tail.tail(size) == 0
            for i in range(size):
                below = Fraction(sum(weights[:i]), total)
                assert by_weight.weight(i) == below
                assert by_tail.weight(i) == below
            for k in range(size + 3):
                above = Fraction(sum(weights[k:]), total)
                assert by_weight.tail(k) == above
                assert by_tail.tail(k) == above


def test_finite_column_rejects_digits_outside_alphabet():
    col = _column_of(_random_weights(random.Random(SEED), 5, False))
    for bad in (-1, 5, 10 ** 9, 1.0, "1", None):
        with pytest.raises(DomainError):
            col.weight(bad)
    for bad in (-1, 1.0, None):
        with pytest.raises(DomainError):
            col.tail(bad)
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


def test_parse_spec_builds_no_prefix_table():
    system = parse_spec(
        '{"nb": {"kind": "odd"},'
        ' "columns": {"kind": "explicit", "list": [{"uniform": {"s": 1000}}]}}'
    )
    assert "_prefix" not in vars(system.column(1))


def test_geometric_column_closed_forms():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    assert col.is_infinite
    assert col.entry(3) == Fraction(1, 16)
    assert col.weight(2) == Fraction(3, 4)
    assert col.tail(2) == Fraction(1, 4)
    assert col.total == 1
    assert col.digit_valid(10 ** 9)
    with pytest.raises(DomainError):
        GeometricColumn(Fraction(1, 2), Fraction(3, 2)).tail(0)


def test_uniform_column():
    col = uniform_column(4)
    assert col.top_digit == 3
    assert col.entry(2) == Fraction(1, 4)
    with pytest.raises(ConstructionError):
        uniform_column(1)


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
    assert stuck.all_singleton_beyond(0)


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
    assert not cols.all_singleton_beyond(5)


def test_sign_laws():
    sys = DigitSystem(SignSet.odd(), ListColumns((uniform_column(2),)))
    assert sys.sign_exponent(1) == 1 and sys.sign_exponent(2) == 2
    assert sys.term_sign(1) == -1 and sys.term_sign(2) == 1
    # column sign at n compares position n with n-1 (exponent 0 at rank 0)
    assert sys.column_sign(1) == -1
    assert sys.column_sign(2) == -1
    assert sys.column_sign(3) == -1
    flat = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    assert flat.column_sign(1) == 1 and flat.column_sign(2) == 1


def test_extremal_pairs():
    col = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    sys = DigitSystem(SignSet.from_list([1]), ListColumns((col, uniform_column(2))))
    # marked position: low side realizes the top digit, high side digit 0
    assert sys.extremal_low(1) == (Fraction(5, 6), Fraction(1, 6))
    assert sys.extremal_high(1) == (Fraction(0), Fraction(1, 2))
    # unmarked position: the roles swap
    assert sys.extremal_low(2) == (Fraction(0), Fraction(1, 2))
    assert sys.extremal_high(2) == (Fraction(1, 2), Fraction(1, 2))
    # infinite columns use the limiting pair (1, 0)
    geo = DigitSystem(SignSet.none(),
                      ListColumns((GeometricColumn(Fraction(1, 2), Fraction(1, 2)),)))
    assert geo.extremal_high(1) == (Fraction(1), Fraction(0))


def test_validate_flags_bad_columns():
    bad_sum = DigitSystem(
        SignSet.none(),
        ListColumns((FiniteColumn((Fraction(1, 2), Fraction(1, 3))),)),
    )
    report = bad_sum.validate(3)
    assert not report.ok
    assert report.failures[0].position == 1
    assert "sum" in report.failures[0].message

    bad_entry = DigitSystem(
        SignSet.none(),
        ListColumns((FiniteColumn((Fraction(3, 2), Fraction(-1, 2))),)),
    )
    report = bad_entry.validate(2)
    assert not report.ok
    assert report.failures[0].digit == 1


def test_validate_flags_bad_geometric():
    off_total = DigitSystem(
        SignSet.none(),
        ListColumns((GeometricColumn(Fraction(1, 3), Fraction(1, 2)),)),
    )
    report = off_total.validate(2)
    assert not report.ok
    # a ratio outside (0,1) is reported, not raised
    divergent = DigitSystem(
        SignSet.none(),
        ListColumns((GeometricColumn(Fraction(1, 2), Fraction(3, 2)),)),
    )
    report = divergent.validate(2)
    assert not report.ok


def test_condition3_certified_by_threshold():
    sys = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    report = sys.validate(64)
    assert report.ok
    assert report.condition3 == CERTIFIED
    assert report.condition3_product == Fraction(1, 2 ** 64)


def test_condition3_certified_by_provider_claim():
    # period product < 1, even though the checked prefix product stays large
    sys = DigitSystem(SignSet.none(), ListColumns((uniform_column(2),)))
    report = sys.validate(4)
    assert report.condition3 == CERTIFIED


def test_condition3_inconclusive_without_structure():
    cols = RuleColumns(lambda n: uniform_column(2))
    sys = DigitSystem(SignSet.none(), cols)
    report = sys.validate(4)
    assert report.ok
    assert report.condition3 == INCONCLUSIVE


def test_digit_system_rejects_incomplete_providers():
    with pytest.raises(ConstructionError):
        DigitSystem(SignSet.none(), object())
    with pytest.raises(ConstructionError):
        DigitSystem("odd", ListColumns((uniform_column(2),)))
