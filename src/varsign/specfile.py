"""Loading digit systems from JSON documents.

A document names the marked-position set and the columns:

    {
      "nb": {"kind": "odd"},
      "columns": {"kind": "explicit",
                  "list": [{"finite": ["1/2", "1/3", "1/6"]},
                           {"uniform": {"s": 2}},
                           {"geometric": {"c": "1/2", "r": "1/2"}}],
                  "extend": "repeat-last"}
    }

or defers to a named classic:

    {"columns": {"kind": "classic", "name": "nega-s-adic", "params": {"s": 2}}}

This module owns the whole schema: the fields of every object, the classic
names with the one parameter each takes, and the path at which each refusal
is reported. Only the classic "mixed" accepts (and requires) a top-level
"nb". The classic parameters are JSON integers ("s") or arrays of them
("q"); all rationals are strings "p/q" or "p". No column may have more than
MAX_DIGITS digits; larger ones are refused before any entry is built. A
refusal by the library's constructors (a column entry <= 0 or a sum other
than 1, a base below 2, a bad sign-set parameter) becomes a SpecError at the
object it was built from, e.g. "columns.list[1]", "columns.params" or "nb".
Errors carry the JSON path (or line/column for malformed JSON) so they are
easy to trace.
"""
from __future__ import annotations

import json

from .classics import (
    cantor,
    example_a,
    example_b,
    make_classic,
    mixed_sign,
    nega_cantor,
    nega_s_adic,
    s_adic,
)
from .errors import SpecError, VarsignError
from .numerics import parse_rational
from .system import (
    DigitSystem,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    SignSet,
    uniform_column,
)

# Largest alphabet a spec may ask for; it still admits s = 10**6.
MAX_DIGITS = 2**20

# Classic name -> (constructor, its one parameter or None); "mixed" also
# takes the document's "nb".
_CLASSICS = {
    "s-adic": (s_adic, "s"),
    "nega-s-adic": (nega_s_adic, "s"),
    "cantor": (cantor, "q"),
    "nega-cantor": (nega_cantor, "q"),
    "mixed": (mixed_sign, "s"),
    "example-a": (example_a, None),
    "example-b": (example_b, None),
}


def _object(value, where: str, required=(), optional=None) -> dict:
    """The JSON object `value`, which must have every field in `required`
    and, unless `optional` is None, no field outside required + optional."""
    if not isinstance(value, dict):
        raise SpecError("expected an object", where=where)
    for key in required:
        if key not in value:
            raise SpecError(f"missing required field {key!r}", where=where)
    if optional is not None:
        extra = value.keys() - {*required, *optional}
        if extra:
            raise SpecError(f"unexpected fields {sorted(extra)}", where=where)
    return value


def _built(where: str, build, *args):
    """build(*args), with a refusal by the library reported at `where`."""
    try:
        return build(*args)
    except VarsignError as exc:
        raise SpecError(str(exc), where=where) from exc


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SpecError("expected an array", where=where)
    return value


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError("expected an integer", where=where)
    return value


def _ints(value, where: str, item=_as_int) -> tuple:
    """A JSON array whose entries `item` reads as integers."""
    return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where)))


def _size(value, where: str) -> int:
    """An alphabet size, refused above MAX_DIGITS before any column is built."""
    size = _as_int(value, where)
    if size > MAX_DIGITS:
        raise SpecError(f"more than {MAX_DIGITS} digits", where=where)
    return size


def _as_rational(value, where: str):
    if not isinstance(value, str):
        raise SpecError('expected a rational string like "2/3"', where=where)
    return _built(where, parse_rational, value)


def _parse_signs(obj, where: str) -> SignSet:
    kind = _object(obj, where, ("kind",))["kind"]
    if not isinstance(kind, str) or kind not in _SIGN_KINDS:
        raise SpecError(f"unknown sign-set kind {kind!r}", where=f"{where}.kind")
    build, required, optional = _SIGN_KINDS[kind]
    _object(obj, where, ("kind", *required), optional)
    # A loop: a comprehension's frame would halve the depth "of" can nest.
    args = []
    for key in required + optional:
        if key in obj:
            args.append(_SIGN_FIELDS[key](obj[key], f"{where}.{key}"))
    return _built(where, build, *args)


# Sign-set kind -> (constructor, its required fields in argument order, the
# optional ones after them), and how each field is read.
_SIGN_KINDS = {
    "empty": (SignSet.none, (), ()),
    "all": (SignSet.every, (), ()),
    "odd": (SignSet.odd, (), ()),
    "even": (SignSet.even, (), ()),
    "list": (SignSet.from_list, ("members",), ()),
    "residues": (SignSet.residue_classes, ("modulus", "residues"), ("start_k",)),
    "complement": (SignSet.complement, ("of",), ()),
}
_SIGN_FIELDS = {
    "members": _ints,
    "modulus": _as_int,
    "residues": _ints,
    "start_k": _as_int,
    "of": _parse_signs,
}


def _parse_column(obj, where: str):
    if len(_object(obj, where)) != 1:
        raise SpecError(
            'expected exactly one of "finite", "geometric", "uniform"', where=where
        )
    (key, value), = obj.items()
    if key == "finite":
        entries = _as_list(value, f"{where}.finite")
        if not entries:
            raise SpecError("needs at least one entry", where=f"{where}.finite")
        _size(len(entries), f"{where}.finite")
        return _built(where, FiniteColumn, tuple(
            _as_rational(e, f"{where}.finite[{i}]") for i, e in enumerate(entries)
        ))
    if key == "geometric":
        value = _object(value, f"{where}.geometric", ("c", "r"), ())
        return _built(where, GeometricColumn,
                      _as_rational(value["c"], f"{where}.geometric.c"),
                      _as_rational(value["r"], f"{where}.geometric.r"))
    if key == "uniform":
        value = _object(value, f"{where}.uniform", ("s",), ())
        return _built(where, uniform_column, _size(value["s"], f"{where}.uniform.s"))
    raise SpecError(f"unknown column kind {key!r}", where=where)


def _classic(doc: dict, columns: dict) -> DigitSystem:
    name = columns["name"]
    if not isinstance(name, str):
        raise SpecError("expected a string", where="columns.name")
    if name not in _CLASSICS:
        raise SpecError(f"unknown classic name {name!r}", where="columns.name")
    build, param = _CLASSICS[name]
    params = _object(columns.get("params", {}), "columns.params",
                     (param,) if param else (), ())
    args = []
    if param == "s":
        args.append(_size(params["s"], "columns.params.s"))
    elif param == "q":
        args.append(_ints(params["q"], "columns.params.q", _size))
    if name == "mixed":
        if "nb" not in doc:
            raise SpecError('classic "mixed" needs a sign set', where="$")
        args.append(_parse_signs(doc["nb"], "nb"))
    elif "nb" in doc:
        raise SpecError(f"classic {name!r} fixes its own sign set", where="nb")
    return make_classic(_built("columns.params", build, *args))


def _explicit(doc: dict, columns: dict) -> DigitSystem:
    items = _as_list(columns["list"], "columns.list")
    if not items:
        raise SpecError("needs at least one column", where="columns.list")
    extend = columns.get("extend", "repeat-last")
    if extend not in ("repeat-last", "cycle"):
        raise SpecError(f"unknown extension rule {extend!r}", where="columns.extend")
    parsed = tuple(
        _parse_column(item, f"columns.list[{i}]") for i, item in enumerate(items)
    )
    signs = _parse_signs(_object(doc, "$", ("nb",))["nb"], "nb")
    return DigitSystem(signs, ListColumns(parsed, extend))


def parse_spec(text: str) -> DigitSystem:
    """Parse a JSON document into a digit system whose columns are all
    positive and sum to 1, since their constructors refuse anything else."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON: {exc.msg}", where=f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # Nesting deeper than the interpreter's recursion limit, or an
        # integer literal longer than int() accepts.
        raise SpecError(f"invalid JSON: {exc}", where="$") from exc
    try:
        return _system(doc)
    except RecursionError as exc:
        # The decoder nests a little deeper than the walk of its result.
        raise SpecError("nested too deeply", where="$") from exc


def _system(doc) -> DigitSystem:
    doc = _object(doc, "$", ("columns",), ("nb",))
    columns = _object(doc["columns"], "columns", ("kind",))
    kind = columns["kind"]
    if kind == "classic":
        return _classic(doc, _object(columns, "columns", ("kind", "name"), ("params",)))
    if kind == "explicit":
        return _explicit(doc, _object(columns, "columns", ("kind", "list"), ("extend",)))
    raise SpecError(f"unknown columns kind {kind!r}", where="columns.kind")


def load_spec(path) -> DigitSystem:
    """Read and parse a spec document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    return parse_spec(text)
