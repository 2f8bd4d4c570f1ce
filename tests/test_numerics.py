import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varsign import (
    ConstructionError,
    DomainError,
    Enclosure,
    format_enclosure,
    format_rational,
    parse_enclosure,
    parse_rational,
    rat,
)

rationals = st.fractions(max_denominator=10 ** 6)


def test_rat_rejects_zero_denominator():
    with pytest.raises(ConstructionError):
        rat(1, 0)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(ConstructionError):
        parse_rational("3/0")
    with pytest.raises(ConstructionError):
        parse_rational("1.5")
    with pytest.raises(ConstructionError):
        parse_rational("")


@given(rationals)
def test_rational_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_always_shows_denominator():
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_format_refuses_parts_past_the_int_to_str_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int-to-str conversion is unlimited in this interpreter")
    assert format_rational(Fraction(-(10 ** limit - 1), 3)) == f"-{'3' * limit}/1"
    with pytest.raises(DomainError, match=(
            f"^rational of about {limit + 2} decimal digits exceeds the "
            f"int-to-str limit of {limit} digits$")):
        format_rational(Fraction(1, 10 ** (limit + 1)))


def test_enclosure_orientation():
    with pytest.raises(ConstructionError):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_basics():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.width == Fraction(1, 6)
    assert not e.is_point
    assert e.contains(Fraction(2, 5))
    assert not e.contains(Fraction(2))
    p = Enclosure.point(Fraction(1, 3))
    assert p.is_point and p.width == 0
    assert e.hull(p) == e
    assert e.encloses(p)
    assert e.intersects(p)
    assert not p.intersects(Enclosure.point(Fraction(1, 2)))


@given(rationals, rationals, rationals, rationals)
def test_interval_product_soundness(a, b, c, d):
    x = Enclosure(min(a, b), max(a, b))
    y = Enclosure(min(c, d), max(c, d))
    assert x.add(y).contains(x.lo + y.lo)
    assert x.sub(y).contains(x.hi - y.lo)


def test_scale_flips_on_negative_factor():
    e = Enclosure(Fraction(1), Fraction(2))
    assert e.scale(Fraction(-1)) == Enclosure(Fraction(-2), Fraction(-1))
    assert e.neg() == e.scale(Fraction(-1))
    assert e.shift(Fraction(3)) == Enclosure(Fraction(4), Fraction(5))


def test_division_needs_nonzero_divisor():
    top = Enclosure(Fraction(1), Fraction(2))
    assert top.div(Enclosure(Fraction(1, 2), Fraction(1))) == \
        Enclosure(Fraction(1), Fraction(4))
    with pytest.raises(DomainError):
        top.div(Enclosure(Fraction(-1), Fraction(1)))
    with pytest.raises(DomainError):
        top.div(Enclosure(Fraction(0), Fraction(1)))


def test_enclosure_serialization():
    e = Enclosure(Fraction(-1, 3), Fraction(2, 5))
    doc = format_enclosure(e)
    assert doc == {"lo": "-1/3", "hi": "2/5"}
    assert parse_enclosure(doc) == e
