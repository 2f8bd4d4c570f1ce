"""Command line front end.

Every command loads a digit system from a JSON spec file (see specfile),
works at a bounded depth, and builds one document: its results, with
rationals as "p/q" strings and enclosures as {"lo": ..., "hi": ...}.
`--format machine` prints the document as one JSON line with sorted keys;
that is the stable interface.  `--format text` (the default) prints the same
document through `_render`, one `key: value` line per field.  All arithmetic
is exact, so repeated runs with the same inputs produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 bad spec (including a column whose
entries are not positive or do not sum to 1), 3 domain error (value out of
range, digit word hits a gap, division by a length that is not bounded away
from zero).
"""
from __future__ import annotations

import functools
import json
import sys

import click

from .cylinders import cylinder, cylinder_bounds, metric_ratio, placement
from .encoder import encode, theorem_check
from .errors import SpecError, VarsignError
from .expansion import DEFAULT_DEPTH, read_depth, value_range, word, word_bounds
from .numerics import format_enclosure, format_rational, parse_rational
from .specfile import load_spec

DEFAULT_TOLERANCE = "1/1073741824"  # 2**-30


def _parse_digits(text: str, allow_empty: bool = False) -> tuple:
    text = text.strip()
    if not text:
        if allow_empty:
            return ()
        raise click.UsageError("expected a comma-separated digit list")
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad digit list {text!r}") from None


def _rational_arg(text: str):
    try:
        return parse_rational(text)
    except VarsignError as exc:
        raise click.UsageError(str(exc)) from None


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
    click.echo("\n".join(lines))


_spec_option = click.option(
    "--spec", "spec_path", required=True, metavar="FILE",
    help="JSON system description.")
_depth_option = click.option(
    "--depth", default=DEFAULT_DEPTH, show_default=True,
    help="Positions of exact expansion before certified tail bounds.")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "machine"]), default="text",
    show_default=True, help="Human-readable text or one JSON document.")


@click.group()
def cli():
    """Exact arithmetic for sign-variable positional number systems."""


def _command(name: str):
    """Register `body(system, depth, **own_options)`, which returns its
    document or (document, exit code), as command `name` with the common
    options in front of its own."""
    def register(body):
        # wraps carries over the body's docstring (the help) and own options.
        @functools.wraps(body)
        def run(spec_path, depth, fmt, **options):
            result = body(load_spec(spec_path), depth, **options)
            doc, code = result if isinstance(result, tuple) else (result, 0)
            doc["command"] = name
            if fmt == "machine":
                click.echo(json.dumps(doc, sort_keys=True))
            else:
                _render(doc)
            return code
        return cli.command(name)(_spec_option(_depth_option(_format_option(run))))
    return register


@_command("validate")
def validate(system, depth):
    """Certify that the product of column sup-entries vanishes."""
    report = system.validate(depth)
    return {
        "depth": report.depth,
        # Columns are checked when built, so these two fields are constant.
        "ok": True,
        "failures": [],
        "condition3": report.condition3,
        "condition3_product": format_rational(report.condition3_product),
    }


@_command("range")
def range_cmd(system, depth):
    """Enclose the least and greatest representable values."""
    lo, hi = value_range(system, depth)
    return {
        "depth": depth,
        "infimum": format_enclosure(lo),
        "supremum": format_enclosure(hi),
    }


@_command("eval")
@click.option("--digits", required=True, metavar="D1,D2,...",
              help="Digit word, most significant first.")
def eval_cmd(system, depth, digits):
    """Evaluate a digit word: exact prefix value plus a value enclosure."""
    w = word(system, _parse_digits(digits))
    use_depth = read_depth(depth, len(w))
    value, inf, sup = word_bounds(w, use_depth)
    return {
        "depth": use_depth,
        "digits": list(w.digits),
        "prefix_value": format_rational(value),
        "enclosure": format_enclosure(inf.hull(sup)),
    }


@_command("encode")
@click.option("--x", "target", required=True, metavar="P/Q",
              help="Rational value to encode.")
@click.option("--tol", default=DEFAULT_TOLERANCE, show_default=True,
              metavar="P/Q", help="Stop once the residual is this narrow.")
@click.option("--max-len", default=64, show_default=True,
              help="Digit budget before giving up.")
def encode_cmd(system, depth, target, tol, max_len):
    """Greedily pick digits whose cylinders keep containing x."""
    x = _rational_arg(target)
    tolerance = _rational_arg(tol)
    result = encode(system, x, tolerance, max_len=max_len, depth=depth)
    doc = {
        "x": format_rational(x),
        "tolerance": format_rational(tolerance),
        "digits": list(result.digits.digits),
        "status": result.status,
        "gap_position": result.gap_position,
        "residual": format_enclosure(result.residual),
    }
    if result.status != "gap":
        return doc
    click.echo(f"gap: no digit at position {result.gap_position} after the "
               f"chosen prefix has a hull that contains {doc['x']}; other "
               "prefixes were not searched", err=True)
    return doc, 3


@_command("cylinder")
@click.option("--base", required=True, metavar="D1,D2,...",
              help="Digit word naming the cylinder.")
@click.option("--table-limit", default=8, show_default=True,
              help="How many child ratios to tabulate.")
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
        ratio = metric_ratio(cyl, digit, use_depth)
        ratios.append({"digit": digit, "ratio": format_enclosure(ratio)})
        digit += 1
    return {
        "base": list(cyl.base.digits),
        "depth": use_depth,
        "infimum": format_enclosure(inf_enc),
        "supremum": format_enclosure(sup_enc),
        "length": format_enclosure(sup_enc.sub(inf_enc)),
        "ratios": ratios,
    }


@_command("placement")
@click.option("--base", default="", metavar="D1,D2,...",
              help="Digit word before the compared position (may be empty).")
@click.option("--digit", required=True, type=int,
              help="Lower digit of the adjacent pair.")
def placement_cmd(system, depth, base, digit):
    """Compare the cylinders of consecutive digits at one position."""
    prefix = _parse_digits(base, allow_empty=True)
    use_depth = read_depth(depth, len(prefix) + 1)
    rep = placement(system, prefix, digit, use_depth)
    return {
        "position": rep.position,
        "digit": rep.digit,
        "depth": use_depth,
        "kappa1": format_enclosure(rep.kappa1),
        "kappa2": format_enclosure(rep.kappa2),
        "nu1": format_enclosure(rep.nu1),
        "nu2": format_enclosure(rep.nu2),
        "omega1": format_enclosure(rep.omega1),
        "omega2": format_enclosure(rep.omega2),
        "orientation": rep.orientation,
        "overlap_class": rep.overlap_class,
        "measure": format_enclosure(rep.overlap_or_gap_measure),
    }


@_command("theorem")
@click.option("--rank", default=8, show_default=True,
              help="Check adjacent pairs at positions 1..rank.")
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
        "checks": [
            {
                "position": c.position,
                "digit": c.digit,
                "status": c.status,
                "left": format_enclosure(c.left),
                "right": format_enclosure(c.right),
                "covers_column": c.covers_column,
            }
            for c in verdict.checks
        ],
    }


def main(argv=None) -> int:
    """Run the CLI without letting click call sys.exit directly."""
    try:
        result = cli.main(args=argv, prog_name="varsign", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except SpecError as exc:
        click.echo(f"spec error: {exc}", err=True)
        return 2
    except VarsignError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
