"""Golden CLI output: every command on every preset, byte for byte.

Each case runs the CLI in-process with `--format machine` on a preset (or on
a spec under `golden/specs/` that no preset covers) and compares its stdout with `golden/<case>.out` and its exit code with `golden/exit_codes.json`.
The same case run with `--format text` must give the same exit code and the
stdout in `golden/text/<case>.out`.  `varsign --help` and every command's
`--help` are recorded under `golden/help/`.
The files record the intended output; a change to them is a change in
behaviour and must be deliberate.  Re-record after such a change with

    PYTHONPATH=src python tests/test_golden.py --record
"""
import contextlib
import io
import json
import os
import re
import sys
from unittest import mock

import pytest

from varsign.cli import _render, main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
PRESETS = os.path.join(HERE, os.pardir, "presets")
# Specs that only the golden cases use, kept out of presets/.
SPECS = os.path.join(GOLDEN, "specs")
EXIT_CODES = os.path.join(GOLDEN, "exit_codes.json")
TEXT = os.path.join(GOLDEN, "text")
HELP = os.path.join(GOLDEN, "help")

# preset -> command -> fixed arguments (all valid for that preset)
ARGS = {
    "cantor-2345": {
        "eval": ["--digits", "1,0,2,1,2"],
        "encode": ["--x", "54/140"],
        "cylinder": ["--base", "1,2,2,0,1"],
        "placement": ["--base", "1,2,3", "--digit", "1"],
        "theorem": ["--rank", "7"],
    },
    "example-a": {
        "eval": ["--digits", "2,1,0,0,2,3,2"],
        "encode": ["--x", "42/536"],
        "cylinder": ["--base", "0,2,1,0,1,2,3"],
        "placement": ["--base", "3,0,2,1", "--digit", "3"],
        "theorem": ["--rank", "12"],
    },
    "example-b": {
        "eval": ["--digits", "1,0,1,2,2,2,6,0,7"],
        "encode": ["--x", "67/134"],
        "cylinder": ["--base", "0,3,1,3,4,0"],
        "placement": ["--base", "0,0,2,2,2", "--digit", "0"],
        "theorem": ["--rank", "6"],
    },
    "gap-halves": {
        "eval": ["--digits", "1,0,0,0,1,1,1,0"],
        "encode": ["--x", "-175/229"],
        "cylinder": ["--base", "2,0,0,0,1,0"],
        "placement": ["--base", "0,0", "--digit", "0"],
        "theorem": ["--rank", "6"],
    },
    "geometric-halves": {
        "eval": ["--digits", "3,1"],
        "encode": ["--x", "-64/83"],
        "cylinder": ["--base", "1,2,1,0,1,0"],
        "placement": ["--base", "2,1,2,3", "--digit", "3"],
        "theorem": ["--rank", "12"],
    },
    "mixed-ternary": {
        "eval": ["--digits", "0,2,1,1,1,2,0,1,1,1"],
        "encode": ["--x", "296/535"],
        "cylinder": ["--base", "2,1,2,1,0,1,1"],
        "placement": ["--base", "2,1,1,1,2", "--digit", "0"],
        "theorem": ["--rank", "7"],
    },
    "nega-binary": {
        "eval": ["--digits", "0,1,0,1,1,1,1"],
        "encode": ["--x", "-316/673"],
        "cylinder": ["--base", "1,0,0,1,1,1,0"],
        "placement": ["--digit", "0"],
        "theorem": ["--rank", "11"],
    },
}
COMMANDS = ("validate", "range", "eval", "encode", "cylinder", "placement", "theorem")

# case name -> (command, preset, arguments)
CASES = {
    f"{command}-{preset}": (command, preset, ARGS[preset].get(command, []))
    for preset in sorted(ARGS)
    for command in COMMANDS
}
# A target in the gap between the rank-1 cylinders: exit code 3.
CASES["encode-gap-halves-gap"] = ("encode", "gap-halves", ["--x", "-1/12"])
# Words longer than --depth: the CLI raises the tail depth past the word.
CASES["eval-nega-binary-deep"] = (
    "eval", "nega-binary", ["--depth", "8", "--digits", "1,0,1,1,0,0,1,0,1,1,1,0"])
CASES["encode-example-a-short-depth"] = (
    "encode", "example-a", ["--depth", "6", "--x", "7/19", "--tol", "1/1000000"])

# Sign sets no preset reaches: every position, the even ones, a complemented
# residue rule, and a listed position past the depth with its complement.
SIGN_ARGS = {
    "signs-all": {
        "encode": ["--x", "-37/100"],
        "placement": ["--base", "2,1,0", "--digit", "0"],
    },
    "signs-even": {
        "encode": ["--x", "1/3"],
        "placement": ["--base", "1,1,2", "--digit", "0"],
    },
    "signs-complement-residues": {
        "encode": ["--x", "-1/3"],
        "placement": ["--base", "2,0,1", "--digit", "1"],
    },
    "signs-list-far": {
        "encode": ["--x", "3/5"],
        "placement": ["--base", "0,2", "--digit", "1"],
    },
    "signs-complement-list": {
        "encode": ["--x", "-3/5"],
        "placement": ["--base", "2,1,0", "--digit", "1"],
    },
}
for _spec, _args in SIGN_ARGS.items():
    _args["range"] = []
    _args["theorem"] = ["--rank", "8"]
    for _command in ("range", "theorem", "encode", "placement"):
        CASES[f"{_command}-{_spec}"] = (_command, _spec, _args[_command])

# Tails no preset reaches: example-b far past the default depth (rule columns
# with uniform columns of up to 200 digits), a 1000-digit uniform column in a
# cycle under a residue rule, and marked geometric columns at depth 120.
CASES["range-example-b-depth200"] = ("range", "example-b", ["--depth", "200"])
CASES["theorem-example-b-rank20"] = ("theorem", "example-b", ["--rank", "20"])
TAIL_ARGS = {
    "uniform-cycle": {
        "range": [],
        "theorem": ["--rank", "1"],
        "encode": ["--x", "3/10"],
        "placement": ["--base", "1,517", "--digit", "1"],
    },
    "geometric-marked": {
        "range": ["--depth", "120"],
        "theorem": ["--depth", "120", "--rank", "12"],
        "encode": ["--depth", "120", "--x", "-2/7"],
        "placement": ["--depth", "120", "--base", "2,1,3", "--digit", "1"],
    },
}
for _spec, _args in TAIL_ARGS.items():
    for _command, _argv in _args.items():
        CASES[f"{_command}-{_spec}"] = (_command, _spec, _argv)
# Seventy halving columns, then singleton columns forever: the sup-entry
# product up to depth 80 is 2^-70, but it never vanishes, so condition 3 is
# not certified.
CASES["validate-singleton-after-halves"] = (
    "validate", "singleton-after-halves", ["--depth", "80"])


# help case name -> arguments
HELP_CASES = {"varsign": ["--help"]}
HELP_CASES.update((command, [command, "--help"]) for command in COMMANDS)


def run_main(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def run_case(name, fmt="machine"):
    """(exit code, stdout) of one case in the given output format."""
    command, preset, args = CASES[name]
    spec = os.path.join(PRESETS, f"{preset}.json")
    if not os.path.exists(spec):
        spec = os.path.join(SPECS, f"{preset}.json")
    return run_main([command, "--spec", spec, "--format", fmt, *args])


def run_help(name):
    """(exit code, stdout) of one help case, wrapped at 80 columns."""
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return run_main(HELP_CASES[name])


def golden_path(name, directory=GOLDEN):
    return os.path.join(directory, f"{name}.out")


def read_golden(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def write_golden(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_output_matches_golden(name):
    with open(EXIT_CODES, encoding="utf-8") as fh:
        expected_code = json.load(fh)[name]
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        expected_out = fh.read()
    code, out = run_case(name)
    assert code == expected_code
    assert out == expected_out


def test_golden_directory_holds_exactly_the_cases():
    with open(EXIT_CODES, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(CASES)
    outs = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".out"))
    assert outs == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_output_matches_golden(name):
    with open(EXIT_CODES, encoding="utf-8") as fh:
        expected_code = json.load(fh)[name]
    code, out = run_case(name, "text")
    assert code == expected_code
    assert out == read_golden(golden_path(name, TEXT))


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden(name):
    code, out = run_help(name)
    assert code == 0
    assert out == read_golden(golden_path(name, HELP))


RATIONAL = re.compile(r"-?\d+/\d+")


def rationals(value):
    """Every "p/q" string in a machine document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return {r for item in value for r in rationals(item)}
    return {value} if isinstance(value, str) and RATIONAL.fullmatch(value) else set()


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_shows_every_machine_field(name):
    """The text is the machine document rendered: `_render` of the parsed
    machine stdout prints it exactly, and it names every field and rational."""
    doc = json.loads(run_case(name)[1])
    text = run_case(name, "text")[1]
    rendered = io.StringIO()
    with contextlib.redirect_stdout(rendered):
        _render(doc)
    assert text == rendered.getvalue()
    keys = {line.partition(":")[0] for line in text.splitlines()}
    assert set(doc) <= keys
    assert rationals(doc) <= set(RATIONAL.findall(text))


def test_text_and_help_directories_hold_exactly_the_cases():
    for directory, cases in ((TEXT, CASES), (HELP, HELP_CASES)):
        outs = sorted(f[:-4] for f in os.listdir(directory) if f.endswith(".out"))
        assert outs == sorted(cases)


def record():
    for directory in (GOLDEN, TEXT, HELP):
        os.makedirs(directory, exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], out = run_case(name)
        write_golden(golden_path(name), out)
        write_golden(golden_path(name, TEXT), run_case(name, "text")[1])
    for name in sorted(HELP_CASES):
        write_golden(golden_path(name, HELP), run_help(name)[1])
    with open(EXIT_CODES, "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
