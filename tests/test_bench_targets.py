"""The benchmark's tracer targets still name plain functions of the package.

`bench/tracing.py` wraps each `(module, "function")` or
`(module, "Class.method")` pair in `TARGETS` by replacing it on its module or
class.  A rename, or a method turned into a property, would make a traced run
fail or time the wrong thing, so every pair is resolved here.  The tracing
module is executed from its source text, so nothing is written next to it.
"""
import importlib
import inspect
import os
import types

HERE = os.path.dirname(os.path.abspath(__file__))
TRACING = os.path.join(HERE, os.pardir, "bench", "tracing.py")


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
