"""Command line front end.

Every command loads a digit system from a JSON spec file (see specfile),
works at a bounded depth, and returns one document: a dict of its results as
library values (rationals, enclosures, digit words and result records).
`_run` writes each document once, as one JSON line with sorted keys, and
`_wire` decides the wire form: an enclosure is {"lo": ..., "hi": ...}, a
rational a "p/q" string, a digit word its digit list, and a result record
the object of its fields.  `--format machine` prints that line; it is the
stable interface.  `--format text` (the default) parses it back and prints
it through `_render`, one `key: value` line per field, so the text is a
rendering of the machine document.  All arithmetic is exact, so repeated
runs with the same inputs produce byte-identical output.

The command line is `varsign COMMAND --spec FILE [OPTIONS]`.  One table,
`_COMMANDS`, names each command's body and options; a small argv loop reads
it, and the `--help` screens are generated from it at a fixed width of 78
columns.  An option's value is written `--opt value` or `--opt=value` and is
always the next token, so `--x -1/4` and `--base ""` work; a repeated option
keeps its last value, and integers are read with `int()`.  `--help` wins over
a bad or missing value but not over an unknown option.  Everything is
written with `print`, to `sys.stdout` and `sys.stderr` as they are at the
time of the call.

Exit codes: 0 success, 1 usage error, 2 bad spec (including a column whose
entries are not positive or do not sum to 1) or an integer option above its
ceiling (`_CEILINGS`), 3 domain error (value out of range, digit word hits a
gap, division by a length that is not bounded away from zero, or a rational
past the int-to-str limit).
"""
from __future__ import annotations

import json
import sys
from dataclasses import is_dataclass
from fractions import Fraction

from .cylinders import cylinder, cylinder_bounds, metric_ratio, placement
from .encoder import encode, theorem_check
from .errors import SpecError, VarsignError
from .expansion import (DEFAULT_DEPTH, DigitWord, read_depth, value_range, word,
                        word_bounds)
from .numerics import Enclosure, format_enclosure, format_rational, parse_rational
from .specfile import MAX_DIGITS, load_spec

DEFAULT_TOLERANCE = "1/1073741824"  # 2**-30
# Ceilings on the integer options that size a command's work, refused before
# the spec loads. The slowest preset command at each (CPython 3.11, x86-64):
# at --depth, example-a `validate` (0.3-0.6 s); at --rank, example-b
# `theorem` (1.1-1.9 s, 5.9 MB of output); at --max-len, an example-b
# `encode` that never meets its tolerance (1.7-2.9 s); at --table-limit,
# example-b `cylinder` on an infinite column (about 1 s, 9.4 MB). A --digit
# past MAX_DIGITS names no digit of a spec column; on an infinite column its
# cost grows with the digit, and at the ceiling geometric-halves and
# example-a `placement` exit 3 at the int-to-str limit in about 0.03 s.
MAX_DEPTH = 20_000
_CEILINGS = {"--depth": MAX_DEPTH, "--rank": 400, "--max-len": 1_000,
             "--table-limit": 2_000, "--digit": MAX_DIGITS}
_WIDTH = 78  # help screens wrap here, whatever the terminal's width


class _UsageError(Exception):
    """A bad command line (exit `code`, 1 unless given). It is printed after
    the usage lines unless `usage` is false."""

    def __init__(self, message: str, usage: bool = True, code: int = 1):
        super().__init__(message)
        self.usage = usage
        self.code = code


def _parse_digits(text: str, allow_empty: bool = False) -> tuple:
    text = text.strip()
    if not text:
        if allow_empty:
            return ()
        raise _UsageError("expected a comma-separated digit list")
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"bad digit list {text!r}") from None


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except VarsignError as exc:
        raise _UsageError(str(exc)) from None


def _wire(value):
    """The JSON form of a library value in a document: an enclosure as
    {"lo": ..., "hi": ...}, a rational as "p/q", a digit word as its digit
    list, and any other dataclass record as the object of its fields. Any
    other object is a TypeError, so no internals are written."""
    # Enclosures come first: they are most of the values in a document.
    if isinstance(value, Enclosure):
        return format_enclosure(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, DigitWord):
        return value.digits
    if is_dataclass(type(value)):
        return vars(value)
    raise TypeError(f"no wire form for {type(value).__name__}")


def _text(value) -> str:
    """One document value as text: an enclosure as [lo, hi], a list
    comma-joined, an object as `k=v` pairs, a string bare, and any other
    scalar as in JSON."""
    if isinstance(value, dict):
        if value.keys() == {"lo", "hi"}:
            return f"[{value['lo']}, {value['hi']}]"
        return " ".join(f"{k}={_text(v)}" for k, v in sorted(value.items()))
    if isinstance(value, list):
        return ",".join(_text(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def _render(doc: dict) -> None:
    """Print a document as one `key: value` line per field in sorted key
    order; a list of objects is `key:` then one indented line per object."""
    lines = []
    for key, value in sorted(doc.items()):
        if isinstance(value, list) and all(isinstance(v, dict) for v in value):
            lines.append(f"{key}:")
            lines.extend("  " + _text(v) for v in value)
        else:
            lines.append(f"{key}: {_text(value)}")
    print("\n".join(lines))


def validate(system, depth):
    """Certify that the product of column sup-entries vanishes."""
    return {
        **vars(system.validate(depth)),
        # Columns are checked when built, so these two fields are constant.
        "ok": True,
        "failures": [],
    }


def range_cmd(system, depth):
    """Enclose the least and greatest representable values."""
    lo, hi = value_range(system, depth)
    return {
        "depth": depth,
        "infimum": lo,
        "supremum": hi,
    }


def eval_cmd(system, depth, digits):
    """Evaluate a digit word: exact prefix value plus a value enclosure."""
    w = word(system, _parse_digits(digits))
    use_depth = read_depth(depth, len(w))
    value, inf, sup = word_bounds(w, use_depth)
    return {
        "depth": use_depth,
        "digits": w,
        # Formatted here, before `_wire` writes the rest, so a word whose
        # value passes the int-to-str limit is reported by that value's size.
        "prefix_value": format_rational(value),
        "enclosure": inf.hull(sup),
    }


def encode_cmd(system, depth, target, tol, max_len):
    """Greedily pick digits whose cylinders keep containing x."""
    x = _rational_arg(target)
    tolerance = _rational_arg(tol)
    result = encode(system, x, tolerance, max_len=max_len, depth=depth)
    doc = {**vars(result), "x": x, "tolerance": tolerance}
    if result.status != "gap":
        return doc
    print(f"gap: no digit at position {result.gap_position} after the "
          f"chosen prefix has a hull that contains {format_rational(x)}; other "
          "prefixes were not searched", file=sys.stderr)
    return doc, 3


def cylinder_cmd(system, depth, base, table_limit):
    """Report cylinder endpoints, length, and child length ratios."""
    cyl = cylinder(system, _parse_digits(base))
    # metric_ratio reads the child position rank + 1.
    use_depth = read_depth(depth, cyl.rank + 1)
    inf_enc, sup_enc = cylinder_bounds(cyl, use_depth)
    col = system.column(cyl.rank + 1)
    ratios = []
    digit = 0
    while col.digit_valid(digit) and len(ratios) < table_limit:
        ratios.append({"digit": digit, "ratio": metric_ratio(cyl, digit, use_depth)})
        digit += 1
    return {
        "base": cyl.base,
        "depth": use_depth,
        "infimum": inf_enc,
        "supremum": sup_enc,
        "length": sup_enc.sub(inf_enc),
        "ratios": ratios,
    }


def placement_cmd(system, depth, base, digit):
    """Compare the cylinders of consecutive digits at one position."""
    prefix = _parse_digits(base, allow_empty=True)
    use_depth = read_depth(depth, len(prefix) + 1)
    doc = {**vars(placement(system, prefix, digit, use_depth)), "depth": use_depth}
    doc["measure"] = doc.pop("overlap_or_gap_measure")
    return doc


def theorem_cmd(system, depth, rank):
    """Check the interval-filling condition on adjacent digit pairs."""
    verdict = theorem_check(system, rank, tail_depth=read_depth(depth, rank))
    return {
        "rank": verdict.depth,
        "overall": verdict.overall,
        "failure": (
            None if verdict.failure is None
            else {"position": verdict.failure[0], "digit": verdict.failure[1]}
        ),
        "checks": verdict.checks,
    }


# An option is (flag, kind, default, help). Its kind is `int`, a tuple of
# choices, or the metavar of a text value; a default of None makes it required.
_COMMON = (
    ("--spec", "FILE", None, "JSON system description."),
    ("--depth", int, DEFAULT_DEPTH,
     "Positions of exact expansion before certified tail bounds."),
    ("--format", ("text", "machine"), "text",
     "Human-readable text or one JSON document."),
)

# command -> (body, its own options). The body is called with the loaded
# system, the depth and its own options' values in this order, and returns
# its document or (document, exit code); `_wire` writes the values in it.
_COMMANDS = {
    "validate": (validate, ()),
    "range": (range_cmd, ()),
    "eval": (eval_cmd, (
        ("--digits", "D1,D2,...", None, "Digit word, most significant first."),
    )),
    "encode": (encode_cmd, (
        ("--x", "P/Q", None, "Rational value to encode."),
        ("--tol", "P/Q", DEFAULT_TOLERANCE, "Stop once the residual is this narrow."),
        ("--max-len", int, 64, "Digit budget before giving up."),
    )),
    "cylinder": (cylinder_cmd, (
        ("--base", "D1,D2,...", None, "Digit word naming the cylinder."),
        ("--table-limit", int, 8, "How many child ratios to tabulate."),
    )),
    "placement": (placement_cmd, (
        ("--base", "D1,D2,...", "",
         "Digit word before the compared position (may be empty)."),
        ("--digit", int, None, "Lower digit of the adjacent pair."),
    )),
    "theorem": (theorem_cmd, (
        ("--rank", int, 8, "Check adjacent pairs at positions 1..rank."),
    )),
}
_SUMMARY = "Exact arithmetic for sign-variable positional number systems."
_HELP = ("--help", "Show this message and exit.")


def _usage(command) -> str:
    if command is None:
        return "Usage: varsign [OPTIONS] COMMAND [ARGS]..."
    return f"Usage: varsign {command} [OPTIONS]"


def _option_row(flag, kind, default, text) -> tuple:
    if kind is int:
        kind = "INTEGER"
    elif isinstance(kind, tuple):
        kind = f"[{'|'.join(kind)}]"
    if default is None:
        text += "  [required]"
    elif default != "":
        text += f"  [default: {default}]"
    return f"{flag} {kind}", text


def _help(command=None) -> str:
    """The help screen of `command`, or of the program when it is None."""
    import textwrap  # only help screens wrap, so start-up does not pay for it

    if command is None:
        summary = _SUMMARY
        limit = _WIDTH - 6 - max(map(len, _COMMANDS))
        sections = {"Options": [_HELP], "Commands": [
            (name, textwrap.shorten(_COMMANDS[name][0].__doc__, limit, placeholder="..."))
            for name in sorted(_COMMANDS)]}
    else:
        body, own = _COMMANDS[command]
        summary = body.__doc__
        options = [_option_row(*option) for option in (*_COMMON, *own)]
        sections = {"Options": [*options, _HELP]}
    lines = [_usage(command), "", f"  {summary}"]
    for heading, rows in sections.items():
        # Two columns: terms padded to the longest plus two spaces, and
        # text wrapped in the rest of the width.
        first = max(len(term) for term, _ in rows) + 2
        lines += ["", f"{heading}:"]
        lines += [textwrap.fill(text, _WIDTH, initial_indent=f"  {term:<{first}}",
                                subsequent_indent=" " * (first + 2))
                  for term, text in rows]
    return "\n".join(lines)


def _option(arg: str, rest, options: dict) -> tuple:
    """(flag, value) of the option token `arg`. The value follows `=` or is
    the next token of `rest`, whatever it looks like; --help has none."""
    flag, eq, value = arg.partition("=")
    if flag == "--help":
        if eq:
            raise _UsageError("Option '--help' does not take a value.", usage=False)
        return flag, None
    if flag not in options:
        # An unknown token with one dash reads as a cluster of one-letter
        # options, and its first letter is the one reported.
        raise _UsageError(f"No such option '{flag if arg[1] == '-' else arg[:2]}'.")
    if not eq:
        value = next(rest, None)
        if value is None:
            raise _UsageError(f"Option '{flag}' requires an argument.", usage=False)
    return flag, value


def _is_option(arg: str) -> bool:
    return arg[:1] == "-" and arg != "-"


def _value(flag: str, kind, text: str):
    """An option's text as its kind's value."""
    if kind is int:
        try:
            value = int(text)
        except ValueError:
            raise _UsageError(f"Invalid value for '{flag}': {text!r} is not a "
                              "valid integer.") from None
        ceiling = _CEILINGS.get(flag)
        if ceiling is not None and value > ceiling:
            raise _UsageError(f"Invalid value for '{flag}': {value} is above the "
                              f"ceiling of {ceiling}.", usage=False, code=2)
        return value
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _UsageError(f"Invalid value for '{flag}': {text!r} is not one "
                          f"of {choices}.")
    return text


def _run(command: str, rest) -> int:
    """Parse a command's arguments (the iterator `rest`), run its body and
    print its document. Errors are reported in this order: the argv loop's
    own, then --help, then each given value in the order first given, then a
    missing required option, then extra arguments."""
    body, own = _COMMANDS[command]
    options = {option[0]: option for option in (*_COMMON, *own)}
    given, extra, wants_help = {}, [], False
    for arg in rest:
        if arg == "--":
            extra.extend(rest)
        elif not _is_option(arg):
            extra.append(arg)
        else:
            flag, value = _option(arg, rest, options)
            if value is None:
                wants_help = True
            else:
                given[flag] = value  # the last value wins, in its first place
    if wants_help:
        print(_help(command))
        return 0
    values = {flag: _value(flag, options[flag][1], text)
              for flag, text in given.items()}
    for flag, _, default, _ in options.values():
        if flag not in values:
            if default is None:
                raise _UsageError(f"Missing option '{flag}'.")
            values[flag] = default
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise _UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    result = body(load_spec(values["--spec"]), values["--depth"],
                  *(values[option[0]] for option in own))
    doc, code = result if isinstance(result, tuple) else (result, 0)
    doc["command"] = command
    line = json.dumps(doc, sort_keys=True, default=_wire)
    if values["--format"] == "machine":
        print(line)
    else:
        _render(json.loads(line))
    return code


def main(argv=None) -> int:
    """Run one command line (by default `sys.argv[1:]`) and return its exit
    code, printing to the current `sys.stdout` and `sys.stderr`."""
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        print(_help(), file=sys.stderr)
        return 1
    command = name = None
    try:
        # The program's only option, --help, comes before the command name.
        wants_help = False
        rest = iter(args)
        for arg in rest:
            if not _is_option(arg):
                name = arg
                break
            if arg != "--":
                _option(arg, rest, {})  # raises unless it is --help
                wants_help = True
        if wants_help:
            print(_help())
            return 0
        if name is None:
            raise _UsageError("Missing command.")
        if name not in _COMMANDS:
            raise _UsageError(f"No such command {name!r}.")
        command = name
        return _run(command, rest)
    except _UsageError as exc:
        if exc.usage:
            prog = "varsign" if command is None else f"varsign {command}"
            print(f"{_usage(command)}\nTry '{prog} --help' for help.\n", file=sys.stderr)
        print(f"Error: {exc}", file=sys.stderr)
        return exc.code
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except VarsignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
