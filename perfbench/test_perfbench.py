"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Span, layer_metrics

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_pass_writes_the_untraced_summaries(tmp_path):
    plain = run.spawn_pass("dense-output", 5, False, tmp_path / "plain")
    traced = run.spawn_pass("dense-output", 5, True, tmp_path / "traced")
    for label in workloads.scenarios("dense-output", 5):
        assert plain["scenarios"][label]["problems"] == []
        assert traced["scenarios"][label]["problems"] == []
        summary = Path(label) / "summary.csv"
        assert (tmp_path / "traced" / summary).read_bytes() == \
            (tmp_path / "plain" / summary).read_bytes()
    layers = traced["layers"]
    assert layers["dynamics.evolve.calls"] == 1
    # cli calls product_state through its own `from .qspace import` binding
    assert layers["qspace.product_state.calls"] == 1
    assert layers["cli.csv_rows"] == layers["dynamics.samples"] + 1
    assert layers["cli.csv_bytes"] == sum(
        p.stat().st_size for p in (tmp_path / "traced").glob("*/*.csv"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric_with_its_unit(trace, section):
    proc = _bench("--workload", "dense-output", "--seed", "2", "--seconds", "0",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = proc.stdout.splitlines()[:-1]
    for name, unit in declared.items():
        assert any(line.split()[1:2] == [name] and unit in line.split() for line in printed), name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "pulsed", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _scenario_dir(tmp_path, header, row):
    out = tmp_path / "scenario"
    out.mkdir(exist_ok=True)
    (out / "manifest.txt").write_text("status = ok\n")
    (out / "summary.csv").write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    return out


def test_output_check_holds_each_column_to_its_tolerance(tmp_path):
    header = ["coherent_info_bits", "entanglement_fidelity", "average_fidelity",
              "stabilization_us"]
    reference = {"header": header, "rows": [["0.25", "0.5", "0.6", "10.0"]],
                 "csv_lines": {"summary.csv": 2}}
    exact_avg = (2 * 0.5 + 1) / 3

    def problems(row):
        out = _scenario_dir(tmp_path, header, [repr(v) for v in row])
        return workloads.check_outputs(out, reference, horizon_us=100.0, n_samples=50)

    assert problems([0.25 + 5e-7, 0.5, exact_avg + 0.1, 10.9]) == []
    assert len(problems([0.25 + 2e-6, 0.5, exact_avg, 10.0])) == 1
    assert len(problems([0.25, 0.5, exact_avg, 11.5])) == 1
    # an average that is not (2 F_e + 1)/3 within sampling error fails
    assert len(problems([0.25, 0.5, exact_avg + 0.25, 10.0])) == 1


def test_output_check_compares_labels_as_text(tmp_path):
    reference = {"header": ["kind", "fidelity"], "rows": [["cavity", "0.9"]],
                 "csv_lines": {"summary.csv": 2}}
    out = _scenario_dir(tmp_path, ["kind", "fidelity"], ["fiber", "0.9"])
    assert len(workloads.check_outputs(out, reference, horizon_us=1.0, n_samples=1)) == 1


def test_layer_metrics_subtract_child_spans():
    spans = [
        Span("cli.run_scenario", 0.0, 10.0, attrs={"scenario": "transfer"}),
        Span("dynamics.evolve", 1.0, 8.0, parent=0,
             attrs={"kind": "constant", "steps": 1000, "samples": 11}),
        Span("qspace.embed", 2.0, 3.0, parent=1),
        Span("qspace.embed", 8.5, 9.0, parent=0),
    ]
    m = layer_metrics(spans, ["transfer", "chain"])
    assert m["cli.scenario_s.transfer"] == 10.0
    assert m["cli.scenario_s.chain"] == 0.0
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["dynamics.constant.self_s"] == pytest.approx(6.0)
    assert m["dynamics.constant.us_per_step"] == pytest.approx(6000.0)
    assert m["dynamics.pulsed.us_per_step"] == 0.0
    assert m["qspace.embed.calls"] == 2
    assert m["qspace.embed.self_s"] == pytest.approx(1.5)
    assert m["dynamics.samples"] == 11
