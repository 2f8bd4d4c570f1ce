"""Command line front end.

Every command loads a digit system from a JSON spec file (see specfile),
works at a bounded depth, and reports either human-readable text or a single
machine-readable JSON document with sorted keys.  All arithmetic is exact, so
repeated runs with the same inputs produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 bad spec or failed validation,
3 domain error (value out of range, digit word hits a gap, division by a
length that is not bounded away from zero).
"""
from __future__ import annotations

import json
import sys

import click

from .cylinders import cylinder, cylinder_bounds, metric_ratio, placement
from .encoder import encode, theorem_check
from .errors import SpecError, VarsignError
from .expansion import DEFAULT_DEPTH, eval_enclosure, eval_prefix, value_range, word
from .numerics import format_enclosure, format_rational, parse_rational
from .specfile import load_spec
from .system import CERTIFIED

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


def _emit(doc: dict, fmt: str, lines) -> None:
    if fmt == "machine":
        click.echo(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


_spec_option = click.option(
    "--spec", "spec_path", required=True, metavar="FILE",
    help="JSON system description.")
_depth_option = click.option(
    "--depth", default=DEFAULT_DEPTH, show_default=True,
    help="Positions of exact expansion before certified tail bounds.")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "machine"]), default="text",
    show_default=True, help="Human-readable text or one JSON document.")


def _common(func):
    return _spec_option(_depth_option(_format_option(func)))


@click.group()
def cli():
    """Exact arithmetic for sign-variable positional number systems."""


@cli.command()
@_common
def validate(spec_path, depth, fmt):
    """Check column positivity, unit sums, and the vanishing-product rule."""
    system = load_spec(spec_path)
    report = system.validate(depth)
    doc = {
        "command": "validate",
        "depth": report.depth,
        "ok": report.ok,
        "failures": [
            {"position": f.position, "digit": f.digit, "message": f.message}
            for f in report.failures
        ],
        "condition3": report.condition3,
        "condition3_product": (
            None if report.condition3_product is None
            else format_rational(report.condition3_product)
        ),
    }
    lines = [f"checked positions 1..{report.depth}"]
    if report.ok:
        lines.append("column conditions: ok")
    else:
        lines.append("column conditions: FAILED")
        for f in report.failures:
            where = f"position {f.position}"
            if f.digit is not None:
                where += f", digit {f.digit}"
            lines.append(f"  {where}: {f.message}")
    tag = "certified" if report.condition3 == CERTIFIED else "inconclusive"
    extra = ""
    if report.condition3_product is not None:
        extra = f" (sup-entry product {format_rational(report.condition3_product)})"
    lines.append(f"vanishing-product condition: {tag}{extra}")
    _emit(doc, fmt, lines)
    return 0 if report.ok else 2


@cli.command("range")
@_common
def range_cmd(spec_path, depth, fmt):
    """Enclose the least and greatest representable values."""
    system = load_spec(spec_path)
    lo, hi = value_range(system, depth)
    doc = {
        "command": "range",
        "depth": depth,
        "infimum": format_enclosure(lo),
        "supremum": format_enclosure(hi),
    }
    lines = [
        f"infimum within {lo}",
        f"supremum within {hi}",
        f"all values lie in [{format_rational(lo.lo)}, {format_rational(hi.hi)}]",
    ]
    _emit(doc, fmt, lines)


@cli.command("eval")
@_common
@click.option("--digits", required=True, metavar="D1,D2,...",
              help="Digit word, most significant first.")
def eval_cmd(spec_path, depth, fmt, digits):
    """Evaluate a digit word: exact prefix value plus a value enclosure."""
    system = load_spec(spec_path)
    w = word(system, _parse_digits(digits))
    use_depth = max(depth, len(w) + 2)
    enc = eval_enclosure(w, use_depth)
    value = eval_prefix(w)
    doc = {
        "command": "eval",
        "depth": use_depth,
        "digits": list(w.digits),
        "prefix_value": format_rational(value),
        "enclosure": format_enclosure(enc),
    }
    lines = [
        f"prefix value: {format_rational(value)}",
        f"value enclosure: {enc}",
        f"enclosure width: {format_rational(enc.width)}",
    ]
    _emit(doc, fmt, lines)


@cli.command("encode")
@_common
@click.option("--x", "target", required=True, metavar="P/Q",
              help="Rational value to encode.")
@click.option("--tol", default=DEFAULT_TOLERANCE, show_default=True,
              metavar="P/Q", help="Stop once the residual is this narrow.")
@click.option("--max-len", default=64, show_default=True,
              help="Digit budget before giving up.")
def encode_cmd(spec_path, depth, fmt, target, tol, max_len):
    """Greedily pick digits whose cylinders keep containing x."""
    system = load_spec(spec_path)
    x = _rational_arg(target)
    tolerance = _rational_arg(tol)
    result = encode(system, x, tolerance, max_len=max_len, depth=depth)
    doc = {
        "command": "encode",
        "x": format_rational(x),
        "tolerance": format_rational(tolerance),
        "digits": list(result.digits.digits),
        "status": result.status,
        "gap_position": result.gap_position,
        "residual": format_enclosure(result.residual),
    }
    lines = [
        "digits: " + ",".join(str(d) for d in result.digits.digits),
        f"status: {result.describe()}",
        f"residual: {result.residual}",
    ]
    _emit(doc, fmt, lines)
    if result.status == "gap":
        click.echo(
            f"no cylinder of rank {result.gap_position} contains "
            f"{format_rational(x)}: the value sits in a gap",
            err=True,
        )
        return 3
    return 0


@cli.command("cylinder")
@_common
@click.option("--base", required=True, metavar="D1,D2,...",
              help="Digit word naming the cylinder.")
@click.option("--table-limit", default=8, show_default=True,
              help="How many child ratios to tabulate.")
def cylinder_cmd(spec_path, depth, fmt, base, table_limit):
    """Report cylinder endpoints, length, and child length ratios."""
    system = load_spec(spec_path)
    cyl = cylinder(system, _parse_digits(base))
    use_depth = max(depth, cyl.rank + 3)
    inf_enc, sup_enc = cylinder_bounds(cyl, use_depth)
    length = sup_enc.sub(inf_enc)
    col = system.column(cyl.rank + 1)
    ratios = []
    digit = 0
    while col.digit_valid(digit) and len(ratios) < table_limit:
        ratios.append((digit, metric_ratio(cyl, digit, use_depth)))
        digit += 1
    doc = {
        "command": "cylinder",
        "base": list(cyl.base.digits),
        "depth": use_depth,
        "infimum": format_enclosure(inf_enc),
        "supremum": format_enclosure(sup_enc),
        "length": format_enclosure(length),
        "ratios": [{"digit": d, "ratio": format_enclosure(r)} for d, r in ratios],
    }
    lines = [
        f"rank: {cyl.rank}",
        f"infimum within {inf_enc}",
        f"supremum within {sup_enc}",
        f"length within {length}",
        "child length ratios:",
    ]
    for d, r in ratios:
        lines.append(f"  digit {d}: {r}")
    _emit(doc, fmt, lines)


@cli.command("placement")
@_common
@click.option("--base", default="", metavar="D1,D2,...",
              help="Digit word before the compared position (may be empty).")
@click.option("--digit", required=True, type=int,
              help="Lower digit of the adjacent pair.")
def placement_cmd(spec_path, depth, fmt, base, digit):
    """Compare the cylinders of consecutive digits at one position."""
    system = load_spec(spec_path)
    prefix = _parse_digits(base, allow_empty=True)
    use_depth = max(depth, len(prefix) + 3)
    rep = placement(system, prefix, digit, use_depth)
    doc = {
        "command": "placement",
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
    lines = [
        f"position {rep.position}, digits {rep.digit} and {rep.digit + 1}",
        f"orientation: {rep.orientation}",
        f"kappa1 within {rep.kappa1}",
        f"kappa2 within {rep.kappa2}",
        f"upward tail omega1 within {rep.omega1}",
        f"downward tail omega2 within {rep.omega2}",
        f"overlap class: {rep.overlap_class}",
        f"overlap/gap measure within {rep.overlap_or_gap_measure}",
    ]
    _emit(doc, fmt, lines)


@cli.command("theorem")
@_common
@click.option("--rank", default=8, show_default=True,
              help="Check adjacent pairs at positions 1..rank.")
def theorem_cmd(spec_path, depth, fmt, rank):
    """Check the interval-filling condition on adjacent digit pairs."""
    system = load_spec(spec_path)
    verdict = theorem_check(system, rank, tail_depth=max(depth, rank + 2))
    doc = {
        "command": "theorem",
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
    lines = [f"verdict: {verdict.overall} (positions 1..{verdict.depth})"]
    if verdict.failure is not None:
        pos, dig = verdict.failure
        bad = next(
            c for c in verdict.checks
            if c.position == pos and c.digit == dig
        )
        lines.append(f"first failing pair: position {pos}, digits {dig} and {dig + 1}")
        lines.append(f"  left side within {bad.left}")
        lines.append(f"  right side within {bad.right}")
    else:
        undecided = sum(1 for c in verdict.checks if c.status == "undecided")
        lines.append(f"pairs checked: {len(verdict.checks)}, undecided: {undecided}")
    _emit(doc, fmt, lines)


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
