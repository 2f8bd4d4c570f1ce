"""Layering: no module of the package reaches into another module's privates.

Each module keeps its underscore names to itself.  Another module may use
only what is public, so the code behind a private name can change in one
place.  The check parses `src/varsign/*.py` and reports

- `from .<module> import _name` (and the absolute `from varsign...` form);
- `obj._name` where `obj` is not `self`/`cls` and `_name` is not an
  attribute this same module defines (on a class body or through `self`).

Dunder names (`__init__`, `__all__`, ...) are not private.

It also keeps the cross-check routes independent: `eval_signed_product`,
`classics.oracle_eval` and `tests/support.walk_prefix` recompute word values,
and `tests/support.reference_encode` encodes, with plain Fractions, so none
of them may use the integer prefix walk they are compared with, nor the
per-system step table it reads.
"""
import ast
import glob
import os

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "varsign")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _own_attributes(tree):
    """Private attribute names the module itself defines."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own.add(item.name)
                targets = []
                if isinstance(item, ast.Assign):
                    targets = item.targets
                elif isinstance(item, ast.AnnAssign):
                    targets = [item.target]
                own.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                own.add(node.attr)
    return {name for name in own if _private(name)}


def violations(source, filename="<module>"):
    """Human-readable layering violations in one module's source."""
    tree = ast.parse(source, filename)
    own = _own_attributes(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "varsign"
            for alias in node.names:
                if internal and _private(alias.name):
                    origin = "." * node.level + (node.module or "")
                    found.append(f"{filename}:{node.lineno}: imports "
                                 f"{alias.name} from {origin}")
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                continue
            if node.attr in own:
                continue
            found.append(f"{filename}:{node.lineno}: reads {ast.unparse(node)}")
    return found


def test_no_module_uses_another_modules_privates():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            found += violations(fh.read(), os.path.basename(path))
    assert not found, "\n".join(found)


def test_checker_flags_private_imports_and_attributes():
    assert violations("from .expansion import _tail_magnitude, word\n")
    assert violations("from varsign.expansion import _LOW\n")
    assert violations("def f(sys):\n    return sys._tail_memo\n")
    assert violations("from . import expansion\nexpansion._extremal(1, 2, 3)\n")


def test_checker_allows_own_and_public_names():
    assert not violations("from .expansion import tail_bounds, __doc__\n")
    assert not violations("from math import _private_looking\n")
    own = (
        "class A:\n"
        "    _KINDS = ()\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "    def same(self, other):\n"
        "        return self._KINDS, other._memo, type(self).__name__\n"
    )
    assert not violations(own)


# (file, function) of each independent route, and the names of the prefix
# walk and its step table that it must not reach.
INDEPENDENT_ROUTES = (
    (os.path.join(SRC, "expansion.py"), "eval_signed_product"),
    (os.path.join(SRC, "classics.py"), "oracle_eval"),
    (os.path.join(HERE, "support.py"), "walk_prefix"),
    (os.path.join(HERE, "support.py"), "reference_encode"),
)
WALK = {"prefix_walk", "prefix_weight", "_over_common", "eval_prefix", "word_bounds",
        "_steps", "_step", "_Digits", "_record", "_RECORDS"}


def walk_uses(source, function):
    """Names of the prefix walk referenced in the body of `function`."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            used = set()
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    used.add(inner.id)
                elif isinstance(inner, ast.Attribute):
                    used.add(inner.attr)
            return used & WALK
    raise LookupError(f"no top-level function {function}")


def test_cross_check_routes_do_not_use_the_prefix_walk():
    for path, function in INDEPENDENT_ROUTES:
        with open(path, encoding="utf-8") as fh:
            assert not walk_uses(fh.read(), function), (path, function)


def test_route_checker_flags_the_walk():
    assert walk_uses("def f(w):\n    return prefix_walk(w)[0]\n", "f")
    assert walk_uses("def f(w):\n    return expansion.prefix_weight(w)\n", "f")
    assert walk_uses("def f(x, y):\n    return _over_common(x, y)\n", "f")
    assert walk_uses("def f(s, n):\n    return expansion._steps(s, n)\n", "f")
    assert not walk_uses("def f(w):\n    return walk_prefix(w)\n", "f")
