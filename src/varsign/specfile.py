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

Only the classic "mixed" accepts (and requires) a top-level "nb".
All rationals are strings "p/q" or "p".  No column may have more than
MAX_DIGITS digits; larger ones are refused before any entry is built.
Errors carry the JSON path (or line/column for malformed JSON) so they are
easy to trace.
"""
from __future__ import annotations

import json

from .classics import classic_by_name, make_classic
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

_NB_KINDS = ("empty", "all", "odd", "even", "list", "residues", "complement")

# Largest alphabet a spec may ask for; it still admits s = 10**6.
MAX_DIGITS = 2**20


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpecError(f"missing required field {key!r}", where=where)
    return obj[key]


def _as_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError("expected an object", where=where)
    return value


def _as_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SpecError("expected an array", where=where)
    return value


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError("expected an integer", where=where)
    return value


def _check_alphabet(size, where: str) -> None:
    """Refuse a column of more than MAX_DIGITS digits before it is built.

    `size` is read with int(), as the classics read their parameters; a value
    that int() rejects is left to the checks of whatever consumes it.
    """
    try:
        size = int(size)
    except (TypeError, ValueError, OverflowError):
        return
    if size > MAX_DIGITS:
        raise SpecError(f"more than {MAX_DIGITS} digits", where=where)


def _as_rational(value, where: str):
    if not isinstance(value, str):
        raise SpecError('expected a rational string like "2/3"', where=where)
    try:
        return parse_rational(value)
    except VarsignError as exc:
        raise SpecError(str(exc), where=where) from exc


def _parse_signs(obj, where: str) -> SignSet:
    obj = _as_dict(obj, where)
    kind = _need(obj, "kind", where)
    if kind not in _NB_KINDS:
        raise SpecError(f"unknown sign-set kind {kind!r}", where=f"{where}.kind")
    known = {"kind"}
    try:
        if kind == "empty":
            result = SignSet.none()
        elif kind == "all":
            result = SignSet.every()
        elif kind == "odd":
            result = SignSet.odd()
        elif kind == "even":
            result = SignSet.even()
        elif kind == "list":
            known.add("members")
            members = _as_list(_need(obj, "members", where), f"{where}.members")
            result = SignSet.from_list(
                _as_int(m, f"{where}.members[{i}]") for i, m in enumerate(members)
            )
        elif kind == "residues":
            known.update(("modulus", "residues", "start_k"))
            modulus = _as_int(_need(obj, "modulus", where), f"{where}.modulus")
            residues = _as_list(_need(obj, "residues", where), f"{where}.residues")
            residues = tuple(
                _as_int(r, f"{where}.residues[{i}]") for i, r in enumerate(residues)
            )
            start_k = obj.get("start_k", 0)
            result = SignSet.residue_classes(
                modulus, residues, _as_int(start_k, f"{where}.start_k")
            )
        else:
            known.add("of")
            result = SignSet.complement(_parse_signs(_need(obj, "of", where), f"{where}.of"))
    except SpecError:
        raise
    except VarsignError as exc:
        raise SpecError(str(exc), where=where) from exc
    extra = set(obj) - known
    if extra:
        raise SpecError(f"unexpected fields {sorted(extra)}", where=where)
    return result


def _parse_column(obj, where: str):
    obj = _as_dict(obj, where)
    if len(obj) != 1:
        raise SpecError(
            'expected exactly one of "finite", "geometric", "uniform"', where=where
        )
    (key, value), = obj.items()
    try:
        if key == "finite":
            entries = _as_list(value, f"{where}.finite")
            if not entries:
                raise SpecError("needs at least one entry", where=f"{where}.finite")
            _check_alphabet(len(entries), f"{where}.finite")
            return FiniteColumn(
                tuple(
                    _as_rational(e, f"{where}.finite[{i}]")
                    for i, e in enumerate(entries)
                )
            )
        if key == "geometric":
            value = _as_dict(value, f"{where}.geometric")
            scale = _as_rational(_need(value, "c", f"{where}.geometric"),
                                 f"{where}.geometric.c")
            ratio = _as_rational(_need(value, "r", f"{where}.geometric"),
                                 f"{where}.geometric.r")
            extra = set(value) - {"c", "r"}
            if extra:
                raise SpecError(f"unexpected fields {sorted(extra)}",
                                where=f"{where}.geometric")
            return GeometricColumn(scale, ratio)
        if key == "uniform":
            value = _as_dict(value, f"{where}.uniform")
            s = _as_int(_need(value, "s", f"{where}.uniform"), f"{where}.uniform.s")
            extra = set(value) - {"s"}
            if extra:
                raise SpecError(f"unexpected fields {sorted(extra)}",
                                where=f"{where}.uniform")
            _check_alphabet(s, f"{where}.uniform.s")
            return uniform_column(s)
    except SpecError:
        raise
    except VarsignError as exc:
        raise SpecError(str(exc), where=where) from exc
    raise SpecError(f"unknown column kind {key!r}", where=where)


def parse_spec(text: str) -> DigitSystem:
    """Parse a JSON document into a validated digit system."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON: {exc.msg}", where=f"line {exc.lineno} column {exc.colno}"
        ) from exc
    doc = _as_dict(doc, "$")
    extra = set(doc) - {"nb", "columns"}
    if extra:
        raise SpecError(f"unexpected fields {sorted(extra)}", where="$")

    columns = _as_dict(_need(doc, "columns", "$"), "columns")
    kind = _need(columns, "kind", "columns")

    if kind == "classic":
        name = _need(columns, "name", "columns")
        if not isinstance(name, str):
            raise SpecError("expected a string", where="columns.name")
        params = columns.get("params", {})
        params = _as_dict(params, "columns.params")
        extra = set(columns) - {"kind", "name", "params"}
        if extra:
            raise SpecError(f"unexpected fields {sorted(extra)}", where="columns")
        if "s" in params:
            _check_alphabet(params["s"], "columns.params.s")
        if isinstance(params.get("q"), list):
            for i, q in enumerate(params["q"]):
                _check_alphabet(q, f"columns.params.q[{i}]")
        signs = None
        if "nb" in doc:
            signs = _parse_signs(doc["nb"], "nb")
        try:
            system = make_classic(classic_by_name(name, params, signs))
        except SpecError:
            raise
        except VarsignError as exc:
            raise SpecError(str(exc), where="columns") from exc
        check_depth = 4
    elif kind == "explicit":
        items = _as_list(_need(columns, "list", "columns"), "columns.list")
        if not items:
            raise SpecError("needs at least one column", where="columns.list")
        extend = columns.get("extend", "repeat-last")
        if extend not in ("repeat-last", "cycle"):
            raise SpecError(
                f"unknown extension rule {extend!r}", where="columns.extend"
            )
        extra = set(columns) - {"kind", "list", "extend"}
        if extra:
            raise SpecError(f"unexpected fields {sorted(extra)}", where="columns")
        parsed = tuple(
            _parse_column(item, f"columns.list[{i}]") for i, item in enumerate(items)
        )
        signs = _parse_signs(_need(doc, "nb", "$"), "nb")
        try:
            system = DigitSystem(signs, ListColumns(parsed, extend))
        except VarsignError as exc:
            raise SpecError(str(exc), where="columns") from exc
        check_depth = len(parsed)
    else:
        raise SpecError(f"unknown columns kind {kind!r}", where="columns.kind")

    try:
        report = system.validate(check_depth)
    except VarsignError as exc:
        raise SpecError(str(exc), where="columns") from exc
    if report.failures:
        first = report.failures[0]
        raise SpecError(
            f"column check failed at position {first.position}, digit "
            f"{first.digit}: {first.message}",
            where="columns",
        )
    return system


def load_spec(path) -> DigitSystem:
    """Read and parse a spec document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    return parse_spec(text)
