import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from varsign import (Enclosure, encode, load_spec, parse_enclosure, parse_rational,
                     placement, theorem_check, word)
from varsign.cli import _wire, main

PRESETS = os.path.join(os.path.dirname(__file__), os.pardir, "presets")


def preset(name: str) -> str:
    return os.path.join(PRESETS, name)


NEGA = preset("nega-binary.json")


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


@pytest.mark.parametrize("argv", [
    ["cylinder", "--base", "1,0,1"],
    ["placement", "--base", "1,0,1", "--digit", "0"],
])
def test_depth_reaches_past_the_compared_position(capsys, argv):
    # Both commands read tails at position len(base) + 1, so the depth is
    # raised to len(base) + 3 however small --depth is.
    code, out, _ = run(capsys, *argv, "--spec", NEGA, "--depth", "1", "--format", "machine")
    assert code == 0
    assert json.loads(out)["depth"] == 6


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


def wire(value):
    """`value` as `_run` writes it, read back from JSON."""
    return json.loads(json.dumps(value, sort_keys=True, default=_wire))


def enc(lo, hi):
    return {"lo": lo, "hi": hi}


def test_wire_writes_rationals_enclosures_and_words():
    nega = load_spec(NEGA)
    assert wire(Fraction(-6, 4)) == "-3/2"
    assert wire(Fraction(0)) == "0/1"
    assert wire(Enclosure(Fraction(-1, 12), Fraction(1, 6))) == enc("-1/12", "1/6")
    assert wire(word(nega, (1, 0, 1))) == [1, 0, 1]
    assert wire(word(nega, ())) == []


def test_wire_writes_records_as_the_command_bodies_did():
    """Each record is the object of its fields, with the keys and strings
    that the commands wrote field by field before `_wire` existed."""
    nega = load_spec(NEGA)
    assert wire(nega.validate(40)) == {
        "depth": 40, "condition3": "CERTIFIED", "condition3_product": "1/1099511627776"}
    assert wire(encode(nega, Fraction(-1, 4), Fraction(1, 2**30), max_len=2)) == {
        "digits": [1, 1], "status": "max-depth-reached", "gap_position": None,
        "residual": enc("-1/12", "1/6")}
    assert wire(placement(nega, (), 0, 40)) == {
        "position": 1, "digit": 0,
        "kappa1": enc("1/1", "1/1"), "kappa2": enc("0/1", "0/1"),
        "nu1": enc("-1/1", "-1/1"), "nu2": enc("0/1", "0/1"),
        "omega1": enc("2/3", "2/3"), "omega2": enc("1/3", "1/3"),
        "orientation": "right-to-left", "overlap_class": "one-point",
        "overlap_or_gap_measure": enc("0/1", "0/1")}
    halves = load_spec(preset("geometric-halves.json"))
    assert wire(theorem_check(nega, 1).checks + theorem_check(halves, 1).checks) == [
        {"position": 1, "digit": 0, "status": "holds", "left": enc("1/3", "1/3"),
         "right": enc("1/3", "1/3"), "covers_column": False},
        {"position": 1, "digit": 0, "status": "holds", "left": enc("1/4", "1/4"),
         "right": enc("1/4", "1/4"), "covers_column": True},
    ]


@pytest.mark.parametrize("value", [load_spec(NEGA), object(), {1, 2}])
def test_wire_refuses_other_objects(value):
    with pytest.raises(TypeError):
        _wire(value)
    with pytest.raises(TypeError):
        wire({"value": value})


HELP = os.path.join(os.path.dirname(__file__), "golden", "help")
MISSING = "/does/not/exist.json"


def help_screen(name):
    with open(os.path.join(HELP, f"{name}.out"), encoding="utf-8", newline="") as fh:
        return fh.read()


def usage_error(command, message):
    """stderr of a usage error reported with the usage lines of `command`
    (None for the top level)."""
    prog = f"varsign {command}" if command else "varsign"
    usage = f"{prog} [OPTIONS]" if command else f"{prog} [OPTIONS] COMMAND [ARGS]..."
    return f"Usage: {usage}\nTry '{prog} --help' for help.\n\nError: {message}\n"


RANGE_DEPTH_7 = ('{"command": "range", "depth": 7, "infimum": {"hi": "-2/3", "lo": '
                 '"-2/3"}, "supremum": {"hi": "1/3", "lo": "1/3"}}\n')
RANGE_DEPTH_40 = RANGE_DEPTH_7.replace('"depth": 7', '"depth": 40')

# The argv contract: (argv, exit code, exact stdout, exact stderr).
CONTRACT = [
    # A value is `--opt value` or `--opt=value`, and always the next token.
    (["range", f"--spec={NEGA}", "--format=machine", "--depth=7"], 0, RANGE_DEPTH_7, ""),
    (["encode", "--spec", NEGA, "--x", "-1/4", "--format", "machine", "--max-len", "2"], 0,
     '{"command": "encode", "digits": [1, 1], "gap_position": null, "residual": '
     '{"hi": "1/6", "lo": "-1/12"}, "status": "max-depth-reached", "tolerance": '
     '"1/1073741824", "x": "-1/4"}\n', ""),
    (["placement", "--spec", NEGA, "--base", "", "--digit", "0", "--format", "machine"], 0,
     '{"command": "placement", "depth": 40, "digit": 0, "kappa1": {"hi": "1/1", "lo": '
     '"1/1"}, "kappa2": {"hi": "0/1", "lo": "0/1"}, "measure": {"hi": "0/1", "lo": '
     '"0/1"}, "nu1": {"hi": "-1/1", "lo": "-1/1"}, "nu2": {"hi": "0/1", "lo": "0/1"}, '
     '"omega1": {"hi": "2/3", "lo": "2/3"}, "omega2": {"hi": "1/3", "lo": "1/3"}, '
     '"orientation": "right-to-left", "overlap_class": "one-point", "position": 1}\n', ""),
    (["placement", "--spec", NEGA, "--digit", "-1"], 3, "",
     "error: adjacent pair (-1, 0) invalid at position 1\n"),
    (["cylinder", "--spec", NEGA, "--base", ""], 1, "",
     usage_error("cylinder", "expected a comma-separated digit list")),
    (["range", "--spec", NEGA, "--depth", "--help"], 1, "", usage_error(
        "range", "Invalid value for '--depth': '--help' is not a valid integer.")),
    # A repeated option takes its last value.
    (["range", "--spec", MISSING, "--spec", NEGA, "--format", "machine"], 0, RANGE_DEPTH_40, ""),
    (["range", "--spec", NEGA, "--format", "machine", "--depth", "3", "--depth=7"], 0,
     RANGE_DEPTH_7, ""),
    # Integers go through int().
    (["range", "--spec", NEGA, "--depth", " 7", "--format", "machine"], 0, RANGE_DEPTH_7, ""),
    # Usage errors: exit 1, usage lines and the message on stderr.
    (["validate"], 1, "", usage_error("validate", "Missing option '--spec'.")),
    (["eval", "--spec", NEGA], 1, "", usage_error("eval", "Missing option '--digits'.")),
    (["validate", "--spec"], 1, "", "Error: Option '--spec' requires an argument.\n"),
    (["range", "--help", "--depth"], 1, "", "Error: Option '--depth' requires an argument.\n"),
    (["range", "--help=1"], 1, "", "Error: Option '--help' does not take a value.\n"),
    (["validate", "--spec", NEGA, "--bogus"], 1, "",
     usage_error("validate", "No such option '--bogus'.")),
    (["validate", "-h"], 1, "", usage_error("validate", "No such option '-h'.")),
    (["validate", "-xyz"], 1, "", usage_error("validate", "No such option '-x'.")),
    (["validate", "--version"], 1, "", usage_error("validate", "No such option '--version'.")),
    (["--version"], 1, "", usage_error(None, "No such option '--version'.")),
    (["validate", "--sp", NEGA], 1, "", usage_error("validate", "No such option '--sp'.")),
    (["validate", "--spec", NEGA, "x"], 1, "",
     usage_error("validate", "Got unexpected extra argument (x)")),
    (["validate", "--spec", NEGA, "--", "x"], 1, "",
     usage_error("validate", "Got unexpected extra argument (x)")),
    (["validate", "--spec", NEGA, "-"], 1, "",
     usage_error("validate", "Got unexpected extra argument (-)")),
    (["validate", "--spec", NEGA, "x", "--", "--help"], 1, "",
     usage_error("validate", "Got unexpected extra arguments (x --help)")),
    (["range", "--spec", NEGA, "--depth", "abc"], 1, "", usage_error(
        "range", "Invalid value for '--depth': 'abc' is not a valid integer.")),
    (["range", "--spec", NEGA, "--format", "xml"], 1, "", usage_error(
        "range", "Invalid value for '--format': 'xml' is not one of 'text', 'machine'.")),
    (["nonsense"], 1, "", usage_error(None, "No such command 'nonsense'.")),
    (["--"], 1, "", usage_error(None, "Missing command.")),
    (["--", "range", "--spec", NEGA, "--format", "machine"], 0, RANGE_DEPTH_40, ""),
    (["eval", "--spec", NEGA, "--digits", "1,x"], 1, "",
     usage_error("eval", "bad digit list '1,x'")),
    (["encode", "--spec", NEGA, "--x", "abc"], 1, "",
     usage_error("encode", "not a rational: 'abc'")),
    # No arguments: the top-level help on stderr.
    ([], 1, "", help_screen("varsign")),
    # --help wins over a bad value or a missing option, not over an unknown one.
    (["--help"], 0, help_screen("varsign"), ""),
    (["range", "--depth", "abc", "--help"], 0, help_screen("range"), ""),
    (["eval", "--help"], 0, help_screen("eval"), ""),
    (["range", "--help", "--bogus"], 1, "", usage_error("range", "No such option '--bogus'.")),
    (["range", "--bogus", "--help"], 1, "", usage_error("range", "No such option '--bogus'.")),
    # Spec errors exit 2, domain errors exit 3.
    (["range", "--spec", NEGA, "--spec", MISSING], 2, "",
     f"spec error: cannot read spec file: [Errno 2] No such file or directory: '{MISSING}'\n"),
    (["encode", "--spec", NEGA, "--x", "7/2"], 3, "",
     "error: 7/2 outside the representable range [-2/3, 1/3]\n"),
    (["encode", "--spec", preset("gap-halves.json"), "--x", "-1/12", "--format", "machine"], 3,
     '{"command": "encode", "digits": [], "gap_position": 1, "residual": {"hi": "3/4", '
     '"lo": "-7/12"}, "status": "gap", "tolerance": "1/1073741824", "x": "-1/12"}\n',
     "gap: no digit at position 1 after the chosen prefix has a hull that contains -1/12; "
     "other prefixes were not searched\n"),
    # --depth is at most 20000, the documented ceiling: a larger value exits 2
    # before the spec loads, and --help still wins. The ceiling itself is
    # taken, on a system whose tails are cheap.
    (["range", "--spec", NEGA, "--depth", "20000", "--format", "machine"], 0,
     RANGE_DEPTH_7.replace('"depth": 7', '"depth": 20000'), ""),
    (["range", "--spec", NEGA, "--depth", "20001"], 2, "",
     "Error: Invalid value for '--depth': 20001 is above the ceiling of 20000.\n"),
    (["validate", "--spec", MISSING, "--depth=20001"], 2, "",
     "Error: Invalid value for '--depth': 20001 is above the ceiling of 20000.\n"),
    (["range", "--spec", NEGA, "--depth", "9" * 29], 2, "",
     f"Error: Invalid value for '--depth': {'9' * 29} is above the ceiling of 20000.\n"),
    (["theorem", "--depth", "20001", "--help"], 0, help_screen("theorem"), ""),
    # --rank, --max-len and --table-limit have ceilings of their own, refused
    # the same way; a missing spec keeps a row cheap even if the check is lost.
    (["theorem", "--spec", MISSING, "--rank", "401"], 2, "",
     "Error: Invalid value for '--rank': 401 is above the ceiling of 400.\n"),
    (["encode", "--spec", MISSING, "--x", "1/3", "--max-len=1001"], 2, "",
     "Error: Invalid value for '--max-len': 1001 is above the ceiling of 1000.\n"),
    (["cylinder", "--spec", MISSING, "--base", "1", "--table-limit", str(10**9)], 2, "",
     f"Error: Invalid value for '--table-limit': {10**9} is above the ceiling of 2000.\n"),
    (["cylinder", "--spec", NEGA, "--base", "1", "--table-limit", "2001"], 2, "",
     "Error: Invalid value for '--table-limit': 2001 is above the ceiling of 2000.\n"),
    # --digit is at most 1048576 (2^20, the most digits a spec column has).
    # The ceiling itself is taken: on an infinite column its rational passes
    # the int-to-str limit quickly.
    (["placement", "--spec", MISSING, "--digit", "1048577"], 2, "",
     "Error: Invalid value for '--digit': 1048577 is above the ceiling of 1048576.\n"),
    (["placement", "--spec", preset("geometric-halves.json"), "--digit", "1048576"], 3, "",
     "error: rational of about 315655 decimal digits exceeds the int-to-str limit "
     f"of {sys.get_int_max_str_digits()} digits\n"),
    # validate prints the exact sup-entry product, whose denominator passes the
    # int-to-str limit well below the --depth ceiling on most presets.
    (["validate", "--spec", preset("example-b.json"), "--depth", "3000"], 3, "",
     "error: rational of about 4568 decimal digits exceeds the int-to-str limit "
     f"of {sys.get_int_max_str_digits()} digits\n"),
    # A value past Python's int-to-str limit is a domain error, not a traceback.
    (["eval", "--spec", NEGA, "--digits", ",".join(["1"] * 20000)], 3, "",
     "error: rational of about 6021 decimal digits exceeds the int-to-str limit "
     f"of {sys.get_int_max_str_digits()} digits\n"),
]


def row_id(argv):
    """The row's argv with spec paths cut to their file names and long
    arguments shortened."""
    args = (re.sub(r"[^=]*/(?=[^/]*\.json$)", "", a) for a in argv)
    return " ".join(a if len(a) <= 30 else a[:24] + "..." for a in args) or "(no arguments)"


@pytest.mark.parametrize("argv, code, out, err", CONTRACT,
                         ids=[row_id(row[0]) for row in CONTRACT])
def test_argv_contract(capsys, argv, code, out, err):
    got_code, got_out, got_err = run(capsys, *argv)
    # An option-name suggestion ("Did you mean ...?") is not part of the contract.
    got_err = re.sub(r" \(?Did you mean .*\?\)?$", "", got_err, flags=re.M)
    assert (got_code, got_out, got_err) == (code, out, err)


def test_import_loads_only_the_standard_library():
    """The CLI has no runtime dependency: importing it in a fresh interpreter
    adds no top-level module outside the standard library except varsign.
    Only the modules the import adds are checked, since site hooks of the
    installation may load others at start-up."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import varsign.cli\n"
              "print(*{m.partition('.')[0] for m in set(sys.modules) - before})\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert set(done.stdout.split()) - set(sys.stdlib_module_names) == {"varsign"}
