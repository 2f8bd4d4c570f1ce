import json
import random
from fractions import Fraction

import pytest

from varsign import (
    CERTIFIED,
    ConstructionError,
    DomainError,
    SignSet,
    cantor,
    example_a,
    example_b,
    eval_prefix,
    make_classic,
    mixed_sign,
    nega_cantor,
    nega_s_adic,
    oracle_eval,
    parse_spec,
    s_adic,
    word,
)

SEED = 0xc1a5


def test_constructor_guards():
    with pytest.raises(ConstructionError):
        s_adic(1)
    with pytest.raises(ConstructionError):
        nega_s_adic(0)
    with pytest.raises(ConstructionError):
        cantor(())
    with pytest.raises(ConstructionError):
        cantor((2, 1))
    with pytest.raises(ConstructionError):
        mixed_sign(2, "odd")


def test_oracle_frozen_values():
    assert oracle_eval(s_adic(3), (1, 0, 2)) == Fraction(11, 27)
    assert oracle_eval(nega_s_adic(2), (1, 1)) == Fraction(-1, 4)
    assert oracle_eval(cantor((2, 3)), (1, 2)) == Fraction(5, 6)
    assert oracle_eval(nega_cantor((2, 3)), (1, 1)) == Fraction(-1, 3)
    assert oracle_eval(mixed_sign(2, SignSet.odd()), (1, 1)) == Fraction(-1, 4)


def test_oracle_validates_digits():
    with pytest.raises(DomainError):
        oracle_eval(s_adic(2), (2,))
    with pytest.raises(DomainError):
        oracle_eval(cantor((2, 3)), (0, 3))


def test_oracle_refuses_systems_without_closed_form():
    with pytest.raises(DomainError):
        oracle_eval(example_a(), (0,))
    with pytest.raises(DomainError):
        oracle_eval(example_b(), (0,))


def test_oracle_matches_engine_spot_checks():
    rng = random.Random(SEED)
    for kind in (s_adic(2), s_adic(5), nega_s_adic(3),
                 cantor((2, 3, 4)), nega_cantor((3, 2)),
                 mixed_sign(3, SignSet.even())):
        sys = make_classic(kind)
        for _ in range(25):
            length = rng.randint(1, 9)
            digits = tuple(
                rng.randint(0, sys.column(n).top_digit)
                for n in range(1, length + 1)
            )
            assert eval_prefix(word(sys, digits)) == oracle_eval(kind, digits)


def test_cantor_repeats_last_base():
    kind = cantor((2, 3))
    sys = make_classic(kind)
    assert sys.column(5).top_digit == 2
    digits = (1, 2, 2, 1)
    # position 3 onward keeps base 3
    expected = Fraction(1, 2) + Fraction(2, 6) + Fraction(2, 18) + Fraction(1, 54)
    assert oracle_eval(kind, digits) == expected
    assert eval_prefix(word(sys, digits)) == expected


def test_mixed_sign_generalizes_the_alternating_form():
    digits = (1, 0, 1, 1)
    assert oracle_eval(mixed_sign(2, SignSet.odd()), digits) == \
        oracle_eval(nega_s_adic(2), digits)


def test_example_a_structure():
    sys = make_classic(example_a())
    assert not sys.signs.contains(1) and not sys.signs.contains(2)
    assert sys.signs.contains(5) and sys.signs.contains(6)
    assert not sys.signs.contains(7)
    col = sys.column(3)
    assert col.is_infinite
    assert col.entry(0) == Fraction(3, 4)
    assert col.entry(1) == Fraction(3, 16)


def test_example_b_structure():
    sys = make_classic(example_b())
    assert not sys.signs.contains(1) and not sys.signs.contains(4)
    one = sys.column(1)
    assert one.top_digit == 1 and one.entry(0) == Fraction(1, 2)
    odd = sys.column(5)
    assert odd.top_digit == 4 and odd.entry(2) == Fraction(1, 5)
    even = sys.column(4)
    assert even.is_infinite
    assert even.entry(0) == Fraction(5, 7)
    assert even.entry(1) == Fraction(10, 49)


def test_example_systems_validate_deeply():
    for kind in (example_a(), example_b()):
        report = make_classic(kind).validate(64)
        assert report.condition3 == CERTIFIED


# Spec name -> (params, nb, the classic it names).
SPEC_NAMES = {
    "s-adic": ({"s": 4}, None, s_adic(4)),
    "nega-s-adic": ({"s": 3}, None, nega_s_adic(3)),
    "cantor": ({"q": [2, 3]}, None, cantor((2, 3))),
    "nega-cantor": ({"q": [3, 2, 5]}, None, nega_cantor((3, 2, 5))),
    "mixed": ({"s": 2}, {"kind": "odd"}, mixed_sign(2, SignSet.odd())),
    "example-a": ({}, None, example_a()),
    "example-b": ({}, None, example_b()),
}


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_spec_names_build_their_classics(name):
    params, nb, kind = SPEC_NAMES[name]
    doc = {"columns": {"kind": "classic", "name": name, "params": params}}
    if nb is not None:
        doc["nb"] = nb
    parsed = parse_spec(json.dumps(doc))
    built = make_classic(kind)
    assert parsed.signs == built.signs
    assert [parsed.column(n) for n in range(1, 9)] == \
        [built.column(n) for n in range(1, 9)]
