"""qlinksim benchmark: end-to-end and per-layer timings of the CLI scenarios.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, both modes

Run from the root of a checkout. Each pass of a workload is a fresh
interpreter (passrun.py) with BLAS pinned to one thread, running the
workload's scenarios once through `qlinksim.cli.run_scenario` and checking
their outputs. Passes repeat until S seconds have gone by; every figure is
the median over passes. wall_s and setup_s are scaled to a reference machine
speed measured next to them (see calibration.py); the unscaled medians are
printed too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes. --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. One operation is one scenario run; it fails on any exception, a
nonzero exit status, an output outside its reference tolerance, or (traced
passes) a summary CSV that differs from the untraced pass's.

Without --workload every workload runs in both modes, the untimed check
cases run too, and the whole record goes to perfbench/out/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
# Bytecode cache of the benchmark's own, written before the first pass (see
# warm_bytecode) and only read by passes, so set-up time does not depend on
# what earlier runs left in any __pycache__.
PYCACHE = OUT / "pycache"

# One pass at a time, one BLAS thread: the matrices are 8x8 to 16x16, where
# threads add only overhead and noise.
PASS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": str(PYCACHE),
    "PYTHONDONTWRITEBYTECODE": "1",
}
PASS_TIMEOUT_S = 150


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed scenario)."""


def pass_env() -> dict[str, str]:
    env = dict(os.environ, **PASS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def warm_bytecode() -> None:
    """Import what a pass imports, so every pass finds its bytecode in PYCACHE.

    Python checks each cached file against its source, so the cache never
    serves stale bytecode after a change to the program.
    """
    env = pass_env()
    del env["PYTHONDONTWRITEBYTECODE"]
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", "import passrun, tracer, qlinksim.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"importing qlinksim failed with status {proc.returncode}")


def spawn_pass(workload: str, seed: int, traced: bool, out: Path, *,
               checks: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its result record."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out),
           "--reference", str(REFERENCE)]
    if checks:
        cmd.append("--checks")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pass_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from err
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(f"{workload} pass exited with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def failures(passes: list[dict], baseline: dict) -> tuple[int, list[str]]:
    """Operations attempted, and one message per failed one.

    Every pass must also write the same summary CSVs as the baseline pass: the
    seed is fixed within a run, and tracing must not change any output.
    """
    attempted, failed = 0, []
    for index, result in enumerate(passes):
        for label, entry in result["scenarios"].items():
            attempted += 1
            reasons = entry["problems"][:]
            if entry["error"] is not None:
                reasons.insert(0, entry["error"])
            elif entry["summary"] != baseline["scenarios"][label]["summary"]:
                reasons.append("summary.csv differs from the untraced pass")
            if reasons:
                failed.append(f"pass {index} {label}: " + "; ".join(reasons))
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes for `seconds`; with trace, alternate untraced and traced passes."""
    plain, traced = [], []
    warm_bytecode()
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        plain.append(spawn_pass(workload, seed, False, OUT / workload / "plain"))
        if trace:
            traced.append(spawn_pass(workload, seed, True, OUT / workload / "traced"))
    attempted, failed = failures(plain + traced, plain[0])
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed}


def run_checks(workload: str, seed: int) -> dict[str, str | None]:
    """Untimed check cases of a workload: label -> failure text, or None if it passed."""
    if not workloads.check_cases(workload, seed):
        return {}
    result = spawn_pass(workload, seed, False, OUT / workload / "checks", checks=True)
    return {label: entry["error"] for label, entry in result["scenarios"].items()}


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(run: dict) -> dict[str, float]:
    return {name: median(p[name] for p in run["plain"])
            for name in ("wall_s", "setup_s", "peak_rss_mb")}


def raw_times(run: dict) -> dict[str, float]:
    """Unscaled medians of the untraced passes, printed next to the scaled ones."""
    return {name: median(p[f"raw_{name}"] for p in run["plain"])
            for name in ("wall_s", "setup_s")}


def per_layer(run: dict, names) -> dict[str, float]:
    # trace.wall_s is unscaled, like the spans; the overhead
    # compares scaled walls, which the machine's speed changes do not move
    values = {
        "trace.wall_s": median(p["raw_wall_s"] for p in run["traced"]),
        "trace.overhead_ratio": (median(p["wall_s"] for p in run["traced"])
                                 / median(p["wall_s"] for p in run["plain"])),
    }
    for name in names:
        if name not in values:
            values[name] = median(p["layers"][name] for p in run["traced"])
    return values


def shares(layers: dict[str, float]) -> dict[str, float]:
    """Shares of traced wall time that the acceptance criteria name.

    The base is the time inside `run_scenario` spans, on the spans' clock: it
    includes the speed probe's runs, as every span does, where trace.wall_s
    leaves them out.
    """
    wall = sum(v for name, v in layers.items() if name.startswith("cli.scenario_s."))
    return {
        "dynamics self": (layers["dynamics.constant.self_s"]
                          + layers["dynamics.pulsed.self_s"]) / wall,
        "metrics.average_fidelity": layers["metrics.average_fidelity.s"] / wall,
        "cli self": layers["cli.self_s"] / wall,
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_record(run: dict, seed: int, seconds: float) -> dict:
    return {"git_sha": git_sha(), **run["plain"][0]["platform"], "seed": seed,
            "seconds": seconds}


def passes(run: dict) -> dict[str, int]:
    return {"untraced": len(run["plain"]), "traced": len(run["traced"])}


def print_metrics(workload: str, values: dict, units: dict, passes: int, note: str = "") -> None:
    for name, value in values.items():
        print(f"{workload:13s} {name:40s} {value:14.6g} {units[name]:6s} "
              f"(median of {passes} passes{note})")


def summarize(workload: str, run: dict, checks: dict, spec: dict, sections) -> dict:
    """Print a run's metrics of the given BENCHMARK.json sections, failures and checks."""
    values = {}
    if "end_to_end" in sections:
        values.update(end_to_end(run))
        print_metrics(workload, values, spec["end_to_end"], len(run["plain"]))
        print_metrics(workload, {f"raw {k}": v for k, v in raw_times(run).items()},
                      {"raw wall_s": "s", "raw setup_s": "s"}, len(run["plain"]),
                      ", unscaled")
    if "per_layer" in sections:
        layers = per_layer(run, spec["per_layer"])
        print_metrics(workload, layers, spec["per_layer"], len(run["traced"]))
        for name, share in shares(layers).items():
            print(f"{workload:13s} share of traced wall: {name} {share:.1%}")
        values.update(layers)
    print(f"{workload:13s} operations: {run['attempted']} attempted, "
          f"{len(run['failed'])} failed")
    for message in run["failed"]:
        print(f"{workload:13s}   FAILED {message}")
    for label, error in checks.items():
        verdict = "passed" if error is None else f"FAILED: {error}"
        print(f"{workload:13s} check case {label} (untimed, not counted above): {verdict}")
    return values


def load_spec() -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def single(args, spec) -> None:
    """One workload in one mode; the last line printed is the JSON record of the run."""
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    checks = run_checks(args.workload, args.seed)
    section = "per_layer" if args.trace else "end_to_end"
    print("run record: " + json.dumps({**run_record(run, args.seed, args.seconds),
                                       "passes": passes(run)}))
    values = summarize(args.workload, run, checks, spec, [section])
    print(json.dumps({
        "correct": not run["failed"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec[section].items()},
    }))


def report(args, spec) -> None:
    """Every workload, untraced and traced, with its check cases, into report.json."""
    record = {"workloads": {}}
    for workload in workloads.WORKLOADS:
        run = measure(workload, args.seed, args.seconds, trace=True)
        checks = run_checks(workload, args.seed)
        record.setdefault("run", run_record(run, args.seed, args.seconds))
        values = summarize(workload, run, checks, spec, ["end_to_end", "per_layer"])
        record["workloads"][workload] = {
            "passes": passes(run), "metrics": values, "raw": raw_times(run),
            "shares": shares(values),
            "attempted": run["attempted"], "failed": run["failed"], "check_cases": checks,
        }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record["run"]))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="qlinksim benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "qlinksim" / "__init__.py", SPEC, REFERENCE) if not p.exists()]
    if missing:
        print(f"error: not a qlinksim checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            report(args, load_spec())
        else:
            single(args, load_spec())
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
