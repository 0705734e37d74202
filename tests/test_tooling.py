"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracer.py names the functions it traces and reads evolve's
arguments by name; an API change that drops either would break the traced
benchmark pass without failing any other test. The tracer is loaded from its
file and only read. Likewise every name a module exports in __all__ must
resolve, so that a deletion leaves no dangling export.

The package imports only the standard library and its declared runtime
dependencies, at module level or inside a function; scipy is a test
dependency, so a scenario run must not load it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import SMALL_SCENARIOS

import qlinksim
from qlinksim.cli import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "qlinksim"


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


def _imported_top_level_names(package: Path) -> set[str]:
    """Top-level names of every absolute, non-standard-library import in package."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).replace("-", "_") for spec in declared}
    assert _imported_top_level_names(PACKAGE) == names


COLD_START = """
import json, sys
from pathlib import Path
from qlinksim import cli
status = {name: cli.run_scenario(cli.build_config(values), Path(sys.argv[1]) / name)
          for name, values in %r.items()}
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"status": status, "scipy": scipy}))
"""


def test_scenarios_run_without_loading_scipy(tmp_path):
    # a fresh interpreter, so that no test's own import of scipy is counted
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START % SMALL_SCENARIOS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["status"] == dict.fromkeys(SCENARIOS, 0)
    assert result["scipy"] == []
