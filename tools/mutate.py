"""Mutation testing of one module, with the standard library only.

    python tools/mutate.py src/varsign/encoder.py [TEST PATH ...]

Each mutant changes one node of the module's syntax tree: a comparison
(< and <=, > and >=, == and !=, is and is not, in and not in swap), an
arithmetic operator (+ and -, * and /, // and *, % and //), `and` and `or`,
a dropped `not` or unary minus, an integer constant n -> n + 1, True and
False, or the ends `.lo` and `.hi` of an enclosure swap. Docstrings are left
alone. For every mutant the tool writes the unparsed tree over the module in
a copy of the repository (src, tests, presets and bench, in a temporary
directory, so TMPDIR chooses where) and runs pytest there with -x, on the given test paths (default: tests). A
mutant is killed when the run fails, timed out when it exceeds three times
the unmutated run's time plus 10 s, and survives when it passes.

Every run, the unmutated one included, is also capped at MEMORY_CAP bytes of
address space (RLIMIT_AS, inherited by the processes it starts), so a
mutant that turns a bounded walk into an unbounded one cannot exhaust the
host. A run that hits the cap fails (a MemoryError or a refused
allocation), so its mutant counts as killed.

The result goes to MUTANTS.json at the repository root, which keeps one
section per module under "modules", keyed by the module's path: counts, and
one entry per mutant with its enclosing function, line, change and status.
A sweep replaces only its own module's section. A survivor's "note" (why it
is equivalent, or which test should kill it) is kept from that module's
previous section while the mutant keeps its id.
"""
from __future__ import annotations

import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "presets", "bench", "pyproject.toml")
OUT = os.path.join(ROOT, "MUTANTS.json")
# The unmutated suite peaks near 70 MB of resident memory and passes under
# a 128 MiB address-space cap (CPython 3.11, x86-64); this leaves 4x that.
MEMORY_CAP = 512 * 2**20

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
}
# The two ends of an Enclosure.
LOHI = {"lo": "hi", "hi": "lo"}


def _docstrings(tree) -> set:
    """ids of the docstring nodes, which no mutant touches."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _points(tree):
    """Yield (node, slot, function, description) for every mutation point,
    in one fixed order. slot names what to change: an index into a
    Compare's ops, "op", "attr", "operand" or "value"."""
    skip = _docstrings(tree)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{function}.{node.name}" if function else node.name
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, k, function, f"{type(op).__name__} -> {SWAPS[type(op)].__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                yield node, "op", function, \
                    f"{type(node.op).__name__} -> {SWAPS[type(node.op)].__name__}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            yield node, "operand", function, f"drop {type(node.op).__name__}"
        elif isinstance(node, ast.Attribute) and node.attr in LOHI:
            yield node, "attr", function, f".{node.attr} -> .{LOHI[node.attr]}"
        elif isinstance(node, ast.Constant) and id(node) not in skip:
            if isinstance(node.value, bool):
                yield node, "value", function, f"{node.value} -> {not node.value}"
            elif isinstance(node.value, int):
                yield node, "value", function, f"{node.value} -> {node.value + 1}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "")


class _Drop(ast.NodeTransformer):
    """Replaces one UnaryOp node by its operand."""

    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        if node is self.target:
            return node.operand
        return self.generic_visit(node)


def mutants(source: str):
    """Yield (id, function, line, description, mutated source)."""
    count = sum(1 for _ in _points(ast.parse(source)))
    taken = set()
    for index in range(count):
        tree = ast.parse(source)
        node, slot, function, description = list(_points(tree))[index]
        line, col = node.lineno, node.col_offset
        if isinstance(slot, int):
            node.ops[slot] = SWAPS[type(node.ops[slot])]()
        elif slot == "op":
            node.op = SWAPS[type(node.op)]()
        elif slot == "attr":
            node.attr = LOHI[node.attr]
        elif slot == "operand":
            tree = _Drop(node).visit(tree)
        elif isinstance(node.value, bool):
            node.value = not node.value
        else:
            node.value += 1
        ident = f"{function or '<module>'}:{line}:{col}:{description}"
        # Nested operators can start at the same column: a - b - c.
        while ident in taken:
            ident += "'"
        taken.add(ident)
        yield ident, function, line, description, ast.unparse(tree)


def _cap_memory() -> None:
    """Runs in the child before pytest starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run(copy: str, tests: list, timeout=None) -> str:
    """"passed", "failed" or "timed-out": one pytest run in the copy."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return "timed-out"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    module = os.path.relpath(os.path.abspath(argv[0]), ROOT)
    tests = argv[1:] or ["tests"]
    with open(os.path.join(ROOT, module), encoding="utf-8") as fh:
        source = fh.read()
    sections = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            sections = json.load(fh)["modules"]
    notes = {m["id"]: m["note"] for m in sections.get(module, {}).get("mutants", ())
             if "note" in m}

    with tempfile.TemporaryDirectory(prefix="mutate-") as copy:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(copy, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, os.path.join(copy, name))
        start = time.perf_counter()
        if _run(copy, tests) != "passed":
            print("the unmutated tests fail; no mutant can be judged", file=sys.stderr)
            return 1
        baseline = time.perf_counter() - start
        target = os.path.join(copy, module)
        results = []
        for ident, function, line, description, mutated in mutants(source):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutated)
            outcome = _run(copy, tests, timeout=3 * baseline + 10)
            status = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            entry = {"id": ident, "function": function, "line": line,
                     "mutation": description, "status": status}
            if status == "survived" and ident in notes:
                entry["note"] = notes[ident]
            results.append(entry)
            print(f"{entry['status']:8s} {ident}", flush=True)

    counts = {status: sum(1 for r in results if r["status"] == status)
              for status in ("killed", "timed-out", "survived")}
    sections[module] = {
        "command": "python -m pytest -x -q -p no:cacheprovider " + " ".join(tests),
        "total": len(results),
        **counts,
        "mutants": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"modules": dict(sorted(sections.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"{len(results)} mutants, {counts['survived']} survived; wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
