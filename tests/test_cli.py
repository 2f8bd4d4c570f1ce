import json
import os

from varsign import parse_enclosure, parse_rational
from varsign.cli import main

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")


def preset(name: str) -> str:
    return os.path.join(PRESETS, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_text(capsys):
    code, out, err = run(capsys, "validate", "--spec", preset("nega-binary.json"))
    assert code == 0
    assert "ok: true" in out
    assert "condition3: CERTIFIED" in out


def test_validate_machine(capsys):
    code, out, _ = run(capsys, "validate", "--spec", preset("nega-binary.json"),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["command"] == "validate"
    assert list(doc) == sorted(doc)


def test_validate_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"nb": {"kind": "odd"},'
        ' "columns": {"kind": "explicit", "list": [{"finite": ["1/2", "1/3"]}]}}'
    )
    code, out, err = run(capsys, "validate", "--spec", str(bad))
    assert code == 2
    assert "spec error" in err


def test_range_machine_values(capsys):
    code, out, _ = run(capsys, "range", "--spec", preset("nega-binary.json"),
                       "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert parse_enclosure(doc["infimum"]).lo == parse_rational("-2/3")
    assert parse_enclosure(doc["supremum"]).hi == parse_rational("1/3")


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "--spec", preset("nega-binary.json"),
                       "--digits", "1,1", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["prefix_value"] == "-1/4"
    assert doc["digits"] == [1, 1]


def test_encode_converges(capsys):
    code, out, _ = run(capsys, "encode", "--spec", preset("nega-binary.json"),
                       "--x", "-1/4", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert doc["digits"][:2] == [1, 1]


def test_encode_gap_exit_code(capsys):
    code, out, err = run(capsys, "encode", "--spec", preset("gap-halves.json"),
                         "--x", "-1/12", "--format", "machine")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "gap" and doc["gap_position"] == 1
    assert "gap" in err


def test_encode_gap_message_claims_only_the_greedy_search(capsys):
    code, _, err = run(capsys, "encode", "--spec", preset("gap-halves.json"),
                       "--x", "-1/12")
    assert code == 3
    assert "no digit at position 1 after the chosen prefix" in err
    assert "sits in a gap" not in err


def test_encode_out_of_range_exit_code(capsys):
    code, _, err = run(capsys, "encode", "--spec", preset("nega-binary.json"),
                       "--x", "7/2")
    assert code == 3
    assert "error" in err


def test_cylinder_command(capsys):
    code, out, _ = run(capsys, "cylinder", "--spec", preset("nega-binary.json"),
                       "--base", "1", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert parse_enclosure(doc["length"]).lo == parse_rational("1/2")
    assert len(doc["ratios"]) == 2


def test_placement_command(capsys):
    code, out, _ = run(capsys, "placement", "--spec", preset("gap-halves.json"),
                       "--digit", "0", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["overlap_class"] == "empty"
    assert parse_enclosure(doc["measure"]).lo == parse_rational("1/6")


def test_theorem_command(capsys):
    code, out, _ = run(capsys, "theorem", "--spec", preset("gap-halves.json"),
                       "--rank", "4", "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall"] == "fails-at"
    assert doc["failure"] == {"digit": 0, "position": 1}


def test_usage_errors(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 1
    code, _, err = run(capsys, "eval", "--spec", preset("nega-binary.json"),
                       "--digits", "1,x")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_spec_error_exit_code(capsys):
    code, _, err = run(capsys, "validate", "--spec", "/does/not/exist.json")
    assert code == 2
    assert "spec error" in err


def test_machine_output_deterministic(capsys):
    args = ("theorem", "--spec", preset("nega-binary.json"), "--rank", "3",
            "--format", "machine")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
