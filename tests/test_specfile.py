import glob
import os
from fractions import Fraction

import pytest

from varsign import SpecError, load_spec, parse_spec, value_range
from varsign.cli import main
from varsign.specfile import MAX_DIGITS

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")


def test_every_preset_loads():
    paths = sorted(glob.glob(os.path.join(PRESETS, "*.json")))
    assert paths, "preset directory should not be empty"
    for path in paths:
        system = load_spec(path)
        system.validate(4)


def test_explicit_document_roundtrip():
    text = """
    {
      "nb": {"kind": "list", "members": [1]},
      "columns": {
        "kind": "explicit",
        "list": [
          {"finite": ["1/2", "1/3", "1/6"]},
          {"uniform": {"s": 2}}
        ],
        "extend": "repeat-last"
      }
    }
    """
    system = parse_spec(text)
    lo, hi = value_range(system, 40)
    assert (lo.lo, hi.hi) == (Fraction(-5, 6), Fraction(1, 2))


def test_geometric_column_document():
    text = """
    {
      "nb": {"kind": "odd"},
      "columns": {"kind": "explicit",
                  "list": [{"geometric": {"c": "1/2", "r": "1/2"}}]}
    }
    """
    system = parse_spec(text)
    assert system.column(3).is_infinite


def test_classic_document_with_params():
    system = parse_spec(
        '{"columns": {"kind": "classic", "name": "cantor", "params": {"q": [2, 3]}}}'
    )
    assert system.column(1).top_digit == 1
    assert system.column(2).top_digit == 2


def test_mixed_classic_requires_sign_set():
    with pytest.raises(SpecError) as err:
        parse_spec('{"columns": {"kind": "classic", "name": "mixed", "params": {"s": 2}}}')
    assert "sign set" in str(err.value)
    assert err.value.where == "$"
    system = parse_spec(
        '{"nb": {"kind": "even"},'
        ' "columns": {"kind": "classic", "name": "mixed", "params": {"s": 2}}}'
    )
    assert system.signs.contains(2)


def test_other_classics_reject_sign_set():
    with pytest.raises(SpecError) as err:
        parse_spec(
            '{"nb": {"kind": "odd"},'
            ' "columns": {"kind": "classic", "name": "s-adic", "params": {"s": 2}}}'
        )
    assert err.value.where == "nb"


def test_bad_json_reports_position():
    with pytest.raises(SpecError) as err:
        parse_spec('{"nb": }')
    message = str(err.value)
    assert "line 1" in message and "column" in message


def test_schema_errors_carry_paths():
    with pytest.raises(SpecError) as err:
        parse_spec('{"columns": {"kind": "explicit", "list": [{"finite": ["1/2", "x"]}]}}')
    assert "columns.list[0].finite[1]" in str(err.value)

    with pytest.raises(SpecError) as err:
        parse_spec(
            '{"nb": {"kind": "list", "members": [1, "two"]},'
            ' "columns": {"kind": "explicit", "list": [{"uniform": {"s": 2}}]}}'
        )
    assert "nb.members[1]" in str(err.value)

    with pytest.raises(SpecError) as err:
        parse_spec('{"columns": {"kind": "classic", "name": "nope"}}')
    assert err.value.where == "columns.name"


def test_unknown_fields_rejected():
    with pytest.raises(SpecError):
        parse_spec('{"foo": 1, "columns": {"kind": "classic", "name": "example-a"}}')
    with pytest.raises(SpecError):
        parse_spec(
            '{"nb": {"kind": "odd", "members": [1]},'
            ' "columns": {"kind": "explicit", "list": [{"uniform": {"s": 2}}]}}'
        )


def test_column_sum_failures_surface_as_spec_errors():
    with pytest.raises(SpecError) as err:
        parse_spec(
            '{"nb": {"kind": "odd"},'
            ' "columns": {"kind": "explicit", "list": [{"finite": ["1/2", "1/3"]}]}}'
        )
    assert "sum" in str(err.value)
    with pytest.raises(SpecError):
        parse_spec(
            '{"nb": {"kind": "odd"},'
            ' "columns": {"kind": "explicit",'
            ' "list": [{"geometric": {"c": "1/3", "r": "1/2"}}]}}'
        )


def test_bad_column_is_reported_at_its_place_in_the_list():
    with pytest.raises(SpecError) as err:
        parse_spec(
            '{"nb": {"kind": "odd"},'
            ' "columns": {"kind": "explicit",'
            ' "list": [{"uniform": {"s": 2}}, {"finite": ["1/2", "1/3"]}]}}'
        )
    assert err.value.where == "columns.list[1]"
    assert "sum" in str(err.value)


def test_nested_complement_sign_set():
    text = """
    {
      "nb": {"kind": "complement", "of": {"kind": "odd"}},
      "columns": {"kind": "explicit", "list": [{"uniform": {"s": 3}}]}
    }
    """
    system = parse_spec(text)
    assert system.signs.contains(2) and not system.signs.contains(3)


def test_missing_file():
    with pytest.raises(SpecError):
        load_spec("/nonexistent/system.json")


@pytest.mark.parametrize("text, where", [
    ('{"nb": {"kind": "odd"}, "columns": {"kind": "explicit",'
     ' "list": [{"uniform": {"s": 1000000000000}}]}}',
     "columns.list[0].uniform.s"),
    ('{"nb": {"kind": "odd"}, "columns": {"kind": "explicit",'
     ' "list": [{"uniform": {"s": 2}}, {"uniform": {"s": %d}}]}}' % (MAX_DIGITS + 1),
     "columns.list[1].uniform.s"),
    ('{"columns": {"kind": "classic", "name": "s-adic",'
     ' "params": {"s": 1000000000000}}}',
     "columns.params.s"),
    ('{"columns": {"kind": "classic", "name": "nega-s-adic",'
     ' "params": {"s": 1000000000000}}}',
     "columns.params.s"),
    ('{"nb": {"kind": "odd"}, "columns": {"kind": "classic", "name": "mixed",'
     ' "params": {"s": %d}}}' % (MAX_DIGITS + 1),
     "columns.params.s"),
    ('{"columns": {"kind": "classic", "name": "cantor",'
     ' "params": {"q": [2, 1000000000000]}}}',
     "columns.params.q[1]"),
])
def test_oversized_alphabets_rejected_before_building(text, where):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.where == where
    assert str(MAX_DIGITS) in str(err.value)


def test_oversized_finite_list_rejected_before_parsing_entries():
    # The entries are not even rationals: the length alone is refused.
    text = ('{"nb": {"kind": "odd"}, "columns": {"kind": "explicit", "list":'
            ' [{"finite": [' + ", ".join(["0"] * (MAX_DIGITS + 1)) + ']}]}}')
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.where == "columns.list[0].finite"


@pytest.mark.parametrize("params, where", [
    ('"s": "x"', "columns.params.s"),
    ('"s": "1000000000000"', "columns.params.s"),
    ('"s": 1e400', "columns.params.s"),
    ('"s": 2.5', "columns.params.s"),
    ('"s": true', "columns.params.s"),
    ('"q": 5', "columns.params.q"),
    ('"q": ["7", 3]', "columns.params.q[0]"),
    ('"q": [7, 3.9]', "columns.params.q[1]"),
    ('"s": 1', "columns.params"),
    ('', "columns.params"),
    ('"q": []', "columns.params"),
    ('"s": 2, "t": 3', "columns.params"),
])
def test_classic_parameters_must_be_integers(params, where):
    name = "cantor" if '"q"' in params else "s-adic"
    text = ('{"columns": {"kind": "classic", "name": "%s", "params": {%s}}}'
            % (name, params))
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.where == where


def _nested_complements(depth: int) -> str:
    return ('{"nb": ' + '{"kind": "complement", "of": ' * depth + '{"kind": "odd"}'
            + "}" * depth
            + ', "columns": {"kind": "explicit", "list": [{"uniform": {"s": 2}}]}}')


def test_nesting_past_the_recursion_limit_is_a_spec_error(tmp_path):
    shallow = parse_spec(_nested_complements(101))
    assert shallow.signs.contains(2) and not shallow.signs.contains(3)
    text = _nested_complements(1200)
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.where == "$"
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["range", "--spec", str(path)]) == 2


def test_overlong_integer_literal_is_a_spec_error(tmp_path):
    text = ('{"columns": {"kind": "classic", "name": "s-adic",'
            ' "params": {"s": ' + "9" * 5000 + "}}}")
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert err.value.where == "$"
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["range", "--spec", str(path)]) == 2
