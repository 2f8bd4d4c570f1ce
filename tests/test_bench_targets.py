"""The benchmark still resolves against the package.

`bench/tracing.py` wraps each `(module, "function")` or
`(module, "Class.method")` pair in `TARGETS` by replacing it on its module or
class.  A rename, or a method turned into a property, would make a traced run
fail or time the wrong thing, so every pair is resolved here.  The tracing
module is executed from its source text, so nothing is written next to it.
The other benchmark modules are only parsed: every package name they use
must exist, or a deleted public name would fail the benchmark's runs.
"""
import ast
import glob
import importlib
import inspect
import os
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, os.pardir, "bench")
TRACING = os.path.join(BENCH, "tracing.py")
# Package modules the benchmark reads as `module.name`.
BENCH_MODULES = ("classics", "cylinders", "encoder", "expansion", "specfile")


def _tracing_module():
    module = types.ModuleType("bench_tracing")
    with open(TRACING, encoding="utf-8") as handle:
        source = handle.read()
    exec(compile(source, TRACING, "exec"), module.__dict__)
    return module


def test_every_tracer_target_is_a_plain_function():
    targets = _tracing_module().TARGETS
    assert targets
    for module_name, qualname in targets:
        module = importlib.import_module(f"varsign.{module_name}")
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            assert inspect.isclass(owner), qualname
            # the tracer replaces the entry in the class's own namespace
            target = vars(owner).get(attribute)
        else:
            target = getattr(module, attribute, None)
        assert inspect.isfunction(target), f"{module_name}.{qualname}"


def _package_names_used(path):
    """(module, name) for every package name the file at path uses: as
    `module.name` for a module of BENCH_MODULES, or in `from varsign...
    import name` and `import varsign...`."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in BENCH_MODULES):
            yield f"varsign.{node.value.id}", node.attr
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "varsign"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                if module.split(".")[0] == "varsign":
                    yield module, name


def test_every_package_name_the_benchmark_uses_exists():
    paths = sorted(glob.glob(os.path.join(BENCH, "*.py")))
    assert paths
    used = {pair for path in paths for pair in _package_names_used(path)}
    assert ("varsign.classics", "make_classic") in used
    missing = []
    for module_name, name in sorted(used):
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                missing.append(f"{module_name}.{name}")
    assert not missing
