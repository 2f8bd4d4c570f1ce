"""Layering: no module of the package reaches into another module's privates.

Each module keeps its underscore names to itself.  Another module may use
only what is public, so the code behind a private name can change in one
place.  The check parses `src/varsign/*.py` and reports

- `from .<module> import _name` (and the absolute `from varsign...` form);
- `obj._name` where `obj` is not `self`/`cls` and `_name` is not an
  attribute this same module defines (on a class body or through `self`).

Dunder names (`__init__`, `__all__`, ...) are not private.

`tests/support.py` is checked the same way.

It also keeps the cross-check routes independent of the engine they are
compared with (`expansion`, the integer prefix walk and its step tables), by
module rather than by the engine's names, so a change inside the engine
needs no edit here:

- `oracles` (`eval_signed_product`, `oracle_eval`) imports no package
  module but `errors`, `numerics` and `system`;
- `tests/support.py`, whose `walk_prefix` and `reference_encode` recompute
  word values and encodes with plain Fractions, binds nothing from
  `expansion` but `tail_bounds` and `word`.
"""
import ast
import glob
import os
import types

import support

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
    for path in [*sorted(glob.glob(os.path.join(SRC, "*.py"))),
                 os.path.join(HERE, "support.py")]:
        with open(path, encoding="utf-8") as fh:
            found += violations(fh.read(), os.path.basename(path))
    assert not found, "\n".join(found)


def test_checker_flags_private_imports_and_attributes():
    assert violations("from .expansion import _tail_magnitude, word\n")
    assert violations("from varsign.expansion import _SIDE\n")
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


# The package modules the independent routes of `oracles` may import.
ORACLE_IMPORTS = {"errors", "numerics", "system"}
# What tests/support.py may take from the engine: the references there
# rebuild word values and encodes themselves, and only read tails and build
# words through the engine.
SUPPORT_ENGINE_USES = {"tail_bounds", "word"}


def package_imports(source):
    """Names of the package modules a module's source imports, in any form:
    `from .m import x`, `from . import m`, `import varsign.m` and
    `from varsign(.m) import x`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "varsign":
                    continue
                module = module[len("varsign."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "varsign" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_oracles_import_no_engine_module():
    with open(os.path.join(SRC, "oracles.py"), encoding="utf-8") as fh:
        assert package_imports(fh.read()) <= ORACLE_IMPORTS


def test_import_rule_finds_every_form_of_package_import():
    assert package_imports("from .expansion import word\n") == {"expansion"}
    assert package_imports("from . import expansion, errors\n") == {"expansion", "errors"}
    assert package_imports("import varsign.expansion as e\n") == {"expansion"}
    assert package_imports("from varsign.expansion import word\n") == {"expansion"}
    assert package_imports("from varsign import expansion\n") == {"expansion"}
    assert package_imports("def f():\n    from .cylinders import cylinder\n") == {"cylinders"}
    assert package_imports("import math\nfrom fractions import Fraction\n") == set()


def engine_bindings(namespace):
    """Names in `namespace` bound to an object of the engine module
    `varsign.expansion` (a function, a class or an instance of one of its
    classes, or the module itself), found from each object's home module."""
    def home(obj):
        if isinstance(obj, types.ModuleType):
            return obj.__name__
        return getattr(obj, "__module__", None)

    return {name for name, obj in namespace.items() if home(obj) == "varsign.expansion"}


def test_support_takes_only_tails_and_words_from_the_engine():
    assert engine_bindings(vars(support)) <= SUPPORT_ENGINE_USES


def test_engine_binding_rule_finds_objects_by_home_module():
    import varsign
    from varsign import expansion, oracles

    assert engine_bindings({"walk": varsign.prefix_walk}) == {"walk"}
    assert engine_bindings({"expansion": expansion}) == {"expansion"}
    assert engine_bindings({"w": varsign.word(varsign.make_classic(varsign.s_adic(2)), (1,))}) \
        == {"w"}
    # The re-export in the engine module is the oracle's own function.
    assert not engine_bindings({"e": expansion.eval_signed_product, "o": oracles,
                                "walk_prefix": support.walk_prefix, "depth": 40})


def test_re_exported_oracles_are_the_oracles_own_functions():
    import varsign
    from varsign import classics, expansion, oracles

    assert varsign.eval_signed_product is expansion.eval_signed_product \
        is oracles.eval_signed_product
    assert varsign.oracle_eval is classics.oracle_eval is oracles.oracle_eval
