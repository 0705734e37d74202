"""The benchmark's tracer still finds what it wraps in the package.

perfbench/tracer.py names the functions it traces and reads evolve's
arguments by name; an API change that drops either would break the traced
benchmark pass without failing any other test. The tracer is loaded from its
file and only read. Likewise every name a module exports in __all__ must
resolve, so that a deletion leaves no dangling export.

perfbench/workloads.py is loaded the same way: every benchmark workload runs
here once, and its outputs must pass the benchmark's own checks against
perfbench/reference.json (file names, line counts and summaries), so that a
change that moves them fails in tier-1 too. Each fidelity a summary reports
must also read byte for byte as the last row of the trajectory it stands for.

Every fidelity follows qspace's one rule: no other module reads
FIDELITY_SLACK or clips a value.

Every module-level private function or class, every private method and
every method of a private class is read somewhere in the package outside its
own definition, so that a helper left orphaned, or one only tests call,
fails. Every name a module imports at module level is read in that module or
exported in its __all__, so that a deletion leaves no import behind.

Every ```python block in README.md runs, and every ```ini block builds a
config, so that an API change cannot leave an example stale. README.md's
table of the keys each scenario reads is the declaration in cli.py.

The package imports only the standard library and its declared runtime
dependencies, at module level or inside a function; scipy is a test
dependency, so a scenario run must not load it. No module reads the
environment, so no shell variable can change what a run computes or how.

A distance sweep runs its constant-drive points as one stacked amplitude run
and formats their files as one row stream, in full blocks across the files'
edges; a pulsed sweep runs each point alone. The number of runs and of
formatted blocks is held here, so that a change that falls back to one run or
one file at a time fails. A pulsed run reads its drive once per batch of
steps and steps each batch by one product tree, and a constant run reads its
drive once, through the same method; the calls and the tree's levels are
held too, so that a fall-back to per-chunk or per-step loops, or a drive
read past its schedule's couplings, fails.

A long trajectory, and a sweep's many files, are written by a fresh
interpreter under -X dev -X warn_default_encoding -W error, which shows that
writing them leaves no warning behind (a text-mode open that relies on the
default encoding among them); every cell of their files must read as repr
writes its value. The same interpreter writes a table of the cells the CSV
float kernel leaves to repr or decides at an edge (signed zeros, infinities,
nan, subnormal, huge and tiny values, a power of two that needs 16 digits,
1.0 and an exact 17-digit tie), so a RuntimeWarning from a lane the kernel
computes and then discards fails the test too, and that table's bytes must
be repr's per cell.
"""

import ast
import csv
import importlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from conftest import SMALL_SCENARIOS

import qlinksim
from qlinksim import cli, dynamics
from qlinksim.cli import SCENARIOS, ScenarioConfig, build_config, parse_config_text
from qlinksim.protocols import ConstantSchedule, StirapSchedule, default_stirap_window

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "qlinksim"


def _perfbench_module(name: str):
    """perfbench/<name>.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
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


@pytest.fixture(scope="module")
def tracer():
    return _perfbench_module("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _perfbench_module("workloads")


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"qlinksim.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"qlinksim.{layer}.{name}"


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# by scenario: the summary column of each fidelity, and the file and column
# of the trajectory whose last row it is, given its summary row
SUMMARY_TRAJECTORIES = {
    "transfer": ("final_fidelity", lambda row: ("trajectory.csv", "fidelity")),
    "stirap-compare": ("final_fidelity",
                       lambda row: (f"trajectory_{row['protocol']}.csv", "fidelity")),
    "chain": ("fidelity", lambda row: (f"trajectory_hop{row['hop']}.csv", "fidelity")),
    "sweep-distance": ("fidelity", lambda row: (
        cli._point_name(row["kind"], float(row["length_km"]) * 1000.0), "fidelity")),
    "coherent-info": ("entanglement_fidelity", lambda row: ("curve.csv", "entanglement_fidelity")),
}


@pytest.mark.parametrize("workload", ["pulsed", "channel", "dense-output"])
def test_benchmark_outputs_match_their_reference(workloads, workload, tmp_path):
    # the benchmark refuses a run whose CSV names, line counts or summaries
    # leave perfbench/reference.json; a step rule that moves them fails here
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))[workload]
    for label, values in workloads.scenarios(workload, 0).items():
        cfg = cli.resolve_defaults(build_config(values))
        assert cli.run_scenario(cfg, tmp_path / label) == 0, label
        assert workloads.check_outputs(tmp_path / label, reference[label], cfg.t_final_us,
                                       cfg.n_samples) == [], label
        if cfg.scenario in SUMMARY_TRAJECTORIES:
            column, source = SUMMARY_TRAJECTORIES[cfg.scenario]
            for row in _csv_rows(tmp_path / label / "summary.csv"):
                name, cell = source(row)
                last = _csv_rows(tmp_path / label / name)[-1][cell]
                assert row[column] == last, (label, name)
    for label, values in workloads.check_cases(workload, 0).items():
        assert cli.run_scenario(build_config(values), tmp_path / label) == 0, label
        manifest = (tmp_path / label / "manifest.txt").read_text(encoding="utf-8")
        assert "\n# status = ok\n" in manifest, label


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


def _module_trees(package: Path):
    """(path, syntax tree) of every module in package."""
    for path in sorted(package.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_top_level_names(package: Path) -> set[str]:
    """Top-level names of every absolute, non-standard-library import in package."""
    names = set()
    for _, tree in _module_trees(package):
        for node in ast.walk(tree):
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


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    # the engine's batch size is a module constant: no run's
    # result or cost may hang on a variable of the calling shell
    reads = []
    for path, tree in _module_trees(PACKAGE):
        os_names = {alias.asname or "os" for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "os"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                    and isinstance(node.value, ast.Name) and node.value.id in os_names):
                reads.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in ENVIRONMENT_READERS]
    assert reads == []


def test_one_module_holds_the_fidelity_rule():
    # qspace.checked_fidelity clips within FIDELITY_SLACK and raises past it;
    # a second clip or slack elsewhere would be a second rule
    others = []
    for path, tree in _module_trees(PACKAGE):
        if path.name == "qspace.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "FIDELITY_SLACK"
                    or isinstance(node, ast.Attribute) and node.attr in ("FIDELITY_SLACK", "clip")
                    or isinstance(node, ast.alias) and node.name in ("FIDELITY_SLACK", "clip")):
                others.append(f"{path.name}:{node.lineno}")
    assert others == []


def _unused_private_helpers(package: Path) -> list[str]:
    """Private helpers that no code in package reads outside their own definitions, as
    module:name. A helper is a module-level _function or _Class, a class's _method, or any
    other method of a _Class but a dunder. Names are matched whatever module or object they
    are read on, but a _Class's public method only in its module: names such as copy and
    where are numpy's too."""
    trees = list(_module_trees(package))
    helpers = []  # (module, name, definition, the module its reads must be in or None)
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                helpers.append((path.name, node.name, node, None))
            if isinstance(node, ast.ClassDef):
                helpers += [(path.name, f"{node.name}.{method.name}", method,
                             None if method.name.startswith("_") else path.name)
                            for method in node.body if isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("__")
                            and (method.name.startswith("_") or node.name.startswith("_"))]
    reads: dict[str, list] = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            reads.setdefault(name, []).append((path.name, node))
    return [f"{module}:{name}" for module, name, helper, scope in helpers
            if {node for where, node in reads.get(helper.name, []) if scope in (None, where)}
            <= set(ast.walk(helper))]


def test_every_private_helper_is_read_in_the_package():
    # a private helper or method read only by its own body, or only by tests,
    # is dead code the package carries
    assert _unused_private_helpers(PACKAGE) == []


def _unread_imports(package: Path) -> list[str]:
    """Names imported at module level that their module neither reads nor lists in
    __all__, as module:name; from __future__ imports aside."""
    unread = []
    for path, tree in _module_trees(package):
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(target, ast.Name) and target.id == "__all__"
                            for target in node.targets)
                    for name in ast.literal_eval(node.value)}
        kept = exported | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{name}" for name in names if name not in kept]
    return unread


def test_every_import_is_read_in_its_module():
    assert _unread_imports(PACKAGE) == []


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


def test_readme_python_blocks_run():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})


def test_readme_config_blocks_build():
    # the parser has no inline comments: a trailing "# ..." once made the
    # example's preset unknown
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        build_config(parse_config_text(block, source=f"README.md ini block {i}"))


def _backticked(text: str) -> list[str]:
    return re.findall(r"`([a-z0-9_]+)`", text)


def test_readme_key_table_is_the_declaration():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rates = re.search(r"rates\s+and\s+step,\s(.*?),\s+and\s+the\s+keys", text, re.DOTALL)[1]
    pulses = re.search(r"The\s+pulse\s+keys,\s(.*?),\s+are\s+read", text, re.DOTALL)[1]
    rates, pulses = _backticked(rates), _backticked(pulses)
    assert (tuple(rates), tuple(pulses)) == (cli._RATE_KEYS, cli._PULSE_KEYS)
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (always|when `protocol = stirap`|never.*) \|$",
                      text, re.MULTILINE)
    assert [scenario for scenario, _, _ in rows] == list(SCENARIOS)
    for scenario, keys, pulse_rule in rows:
        for protocol in ("constant", "stirap"):
            reads = rates + _backticked(keys)
            if pulse_rule == "always" or pulse_rule.startswith("when") and protocol == "stirap":
                reads += pulses
            declared = cli._read_keys(ScenarioConfig(scenario=scenario, protocol=protocol))
            assert sorted(reads) == sorted(declared), (scenario, protocol)


def _trajectory_rows(out: Path) -> int:
    return sum(len(_csv_rows(path)) for path in out.glob("trajectory_*.csv"))


@pytest.mark.parametrize("protocol", ["constant", "stirap"])
def test_sweep_stacks_its_constant_points(protocol, tmp_path):
    # the default sweep: 7 lengths in 2 media, 72 rows each under a constant drive
    cfg = build_config({"scenario": "sweep-distance", "protocol": protocol})
    with mock.patch.object(dynamics, "_amplitude_run", wraps=dynamics._amplitude_run) as runs, \
            mock.patch.object(cli, "_block_text", wraps=cli._block_text) as blocks:
        assert cli.run_scenario(cfg, tmp_path) == 0
    points = 14
    assert len(list(tmp_path.glob("trajectory_*.csv"))) == points
    rows = _trajectory_rows(tmp_path)
    if protocol == "constant":
        assert rows == points * 72
        assert runs.call_count == 1  # one stacked run
    else:
        assert runs.call_count == points  # pulsed links run one at a time
    assert blocks.call_count == math.ceil(rows / cli._CSV_BLOCK_ROWS)


def test_pulsed_run_steps_each_batch_by_one_product_tree(monkeypatch):
    # a pulsed run of two full batches and a ragged third: the drive is read
    # once per batch, on the batch's 2n + 1 half-step times, and the batch's
    # n step matrices make one tree of floor(log2 n) + 1 levels, each level
    # half the blocks of the one below, and one down-sweep
    n_steps, batches = 2 * dynamics._BATCH_STEPS + 37, [dynamics._BATCH_STEPS] * 2 + [37]
    params = dynamics.LinkParams(g_a=3.6e7, g_b=3.6e7, kappa=2.1e6, gamma_a=3.8e4,
                                 gamma_b=3.8e4)
    schedule = StirapSchedule(g0_a=params.g_a, g0_b=params.g_b, pulse_width=0.5e-6,
                              t_delay=0.6e-6)
    t_final = default_stirap_window(schedule)[1]
    drive, trees = [], []
    couplings, up_sweep = StirapSchedule.couplings, dynamics._up_sweep
    monkeypatch.setattr(StirapSchedule, "couplings",
                        lambda self, times: drive.append(times.shape) or couplings(self, times))
    monkeypatch.setattr(dynamics, "_up_sweep",
                        lambda steps: trees.append(up_sweep(steps)) or trees[-1])
    with mock.patch.object(dynamics, "_down_sweep", wraps=dynamics._down_sweep) as down:
        dynamics.link_channel(params, schedule, t_final, t_final / n_steps)
    assert drive == [(2 * n + 1,) for n in batches]
    assert [[level.shape[1] for level in tree] for tree in trees] == \
        [[n >> level for level in range(n.bit_length())] for n in batches]
    assert down.call_count == len(batches)


def test_constant_run_reads_its_drive_once(monkeypatch):
    # two full batches of sample spacings, a ragged third and a shorter last
    # spacing: the couplings are read once, at the grid's start, through the
    # method a pulsed run reads
    sample_every = 3
    n_steps = sample_every * (2 * dynamics._BATCH_STEPS + 37) + 2
    params = dynamics.LinkParams(g_a=3.6e7, g_b=3.6e7, kappa=2.1e6)
    drive = []
    couplings = ConstantSchedule.couplings
    monkeypatch.setattr(ConstantSchedule, "couplings",
                        lambda self, times: drive.append(times) or couplings(self, times))
    dynamics.link_channel(params, params.constant_schedule(), 1e-9 * n_steps, 1e-9,
                          sample_every=sample_every)
    assert drive == [0.0]


# cells the float kernel leaves to repr or decides at an edge: signed zeros,
# infinities, nan, the least subnormal, values past either end of its range,
# a power of two that needs 16 digits, 1.0 and an exact tie at 17 digits
KERNEL_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300, 2.0 ** -30,
                1.0, 1000000000000000.25]

DEV_MODE_TRANSFER = """
import json, sys
from pathlib import Path
from qlinksim.cli import _Outputs, main
config, out, edges = sys.argv[1:]
status = main(["transfer", "--config", config, "--out", out])
cells = json.loads(edges)
_Outputs(Path(out)).write_tables(["edges.csv"], ["x", "minus_x", "shifted"],
                                 [[cells, [-x for x in cells], cells[3:] + cells[:3]]])
print(json.dumps({"status": status}))
"""

DEV_MODE_SWEEP = """
import json, sys
from qlinksim.cli import main
config, out = sys.argv[1:]
print(json.dumps({"status": main(["sweep-distance", "--config", config, "--out", out])}))
"""


def _run_under_dev_mode(script: str, *args) -> dict:
    """What script prints last, run by a fresh interpreter in which any warning is an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-X", "warn_default_encoding", "-W", "error",
         "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no ResourceWarning or other warning
    return json.loads(proc.stdout.splitlines()[-1])


def _repr_lines(path: Path) -> list[bytes]:
    """A float CSV's lines, each row under the header as repr writes its cells' values."""
    header, *rows = path.read_bytes().split(b"\n")[:-1]
    return [header, *(",".join(repr(float(cell)) for cell in row.split(b",")).encode()
                      for row in rows), b""]


def test_transfer_csv_is_repr_per_cell_under_dev_mode(tmp_path):
    # 10 us at the default step is 11601 rows, 23 blocks
    config = tmp_path / "transfer.cfg"
    config.write_text("protocol = constant\nt_final_us = 10\nsample_every = 1\n"
                      "g0_2pi_mhz = 5.8\nkappa_2pi_mhz = 0.34\ngamma_2pi_mhz = 0.006\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    run = _run_under_dev_mode(DEV_MODE_TRANSFER, config, out, json.dumps(KERNEL_EDGES))
    assert run == {"status": 0}
    trajectory = out / "trajectory.csv"
    assert trajectory.read_bytes().count(b"\n") == 11602
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    assert trajectory.read_bytes().split(b"\n") == _repr_lines(trajectory)
    assert sorted(os.listdir(out)) == ["edges.csv", "manifest.txt", "summary.csv",
                                       "trajectory.csv"]
    rows = zip(KERNEL_EDGES, [-x for x in KERNEL_EDGES], KERNEL_EDGES[3:] + KERNEL_EDGES[:3])
    expected = "x,minus_x,shifted\n" + "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)
    assert (out / "edges.csv").read_text(encoding="utf-8") == expected


def test_sweep_files_are_repr_per_cell_under_dev_mode(tmp_path):
    # 14 points of 611 rows at 0.1 ns: 8554 rows, written as one stream of
    # 17 blocks across the files' edges
    config = tmp_path / "sweep.cfg"
    config.write_text("scenario = sweep-distance\ndt_ns = 0.1\nsample_every = 1\n"
                      "g0_2pi_mhz = 5.8\nkappa_2pi_mhz = 0.34\ngamma_2pi_mhz = 0.006\n",
                      encoding="utf-8")
    out = tmp_path / "out"
    assert _run_under_dev_mode(DEV_MODE_SWEEP, config, out) == {"status": 0}
    trajectories = sorted(out.glob("trajectory_*.csv"))
    assert len(trajectories) == 14
    assert _trajectory_rows(out) == 14 * 611
    for path in trajectories:
        assert path.read_bytes().split(b"\n") == _repr_lines(path), path.name
