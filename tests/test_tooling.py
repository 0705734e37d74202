"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracer.py names the functions it traces and reads evolve's
arguments by name; an API change that drops either would break the traced
benchmark pass without failing any other test. The tracer is loaded from its
file and only read. Likewise every name a module exports in __all__ must
resolve, so that a deletion leaves no dangling export.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import qlinksim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"qlinksim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qlinksim.{layer}.{name}"


def test_evolve_binds_the_arguments_the_tracer_reads():
    from qlinksim import dynamics

    parameters = inspect.signature(dynamics.evolve).parameters
    for name in ("t_span", "dt", "schedule"):
        assert name in parameters
        assert parameters[name].default is inspect.Parameter.empty, name


@pytest.mark.parametrize("module", ["qlinksim"] + [
    f"qlinksim.{info.name}" for info in pkgutil.iter_modules(qlinksim.__path__)])
def test_every_exported_name_resolves(module):
    loaded = importlib.import_module(module)
    missing = [name for name in loaded.__all__ if not hasattr(loaded, name)]
    assert not missing, f"{module}.__all__ names {missing}"
