"""One pass of one benchmark workload, in a fresh interpreter.

Started by run.py with BLAS pinned to one thread and the checkout's `src/`
first on PYTHONPATH. Set-up (interpreter start, `import qlinksim`, building and
resolving the configs) is timed from the parent's spawn time; then every
scenario of the workload runs through `qlinksim.cli.run_scenario`, including
all CSV and manifest output, timed together while a speed probe samples the
machine's speed (see calibration.py). Outputs are checked after the clocks
stop. The result goes to `<out>/result.json`; spans of a traced pass go to
`<out>/spans.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import traceback
from pathlib import Path

import workloads
from calibration import SpeedProbe, speed_factor


def _platform() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _run_scenario(cli, cfg, out: Path) -> str | None:
    """Run one scenario; any failure, including an escaped exception, is returned."""
    try:
        status = cli.run_scenario(cfg, out)
    except Exception as err:  # a scenario's exception is a failed operation, not a crash
        traceback.print_exc()
        return f"{type(err).__name__}: {err}"
    return None if status == 0 else f"exit status {status}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--reference", type=Path, required=True,
                        help="reference.json to check outputs against")
    parser.add_argument("--checks", action="store_true",
                        help="run the workload's untimed check cases instead")
    args = parser.parse_args()

    import qlinksim.cli as cli

    if args.checks:
        cases = workloads.check_cases(args.workload, args.seed)
    else:
        cases = workloads.scenarios(args.workload, args.seed)
    configs = {label: cli.resolve_defaults(cli.build_config(values))
               for label, values in cases.items()}
    setup_s = time.monotonic() - args.spawned_at
    setup_speed = speed_factor()

    tracer = None
    if args.trace:
        # imported only now, so untraced set-up times carry none of its imports
        from tracer import Tracer, install, layer_metrics

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        install(tracer)

    probe = SpeedProbe()
    probe.start()
    errors = {label: _run_scenario(cli, cfg, args.out / label) for label, cfg in configs.items()}
    raw_wall_s, wall_s = probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads(args.reference.read_text(encoding="utf-8"))[args.workload]
    results = {}
    for label, cfg in configs.items():
        out = args.out / label
        summary = out / "summary.csv"
        entry = {
            "error": errors[label],
            "problems": [],
            "summary": summary.read_text(encoding="utf-8") if summary.exists() else None,
        }
        if errors[label] is None and not args.checks:
            entry["problems"] = workloads.check_outputs(
                out, reference[label], cfg.t_final_us, cfg.n_samples)
        results[label] = entry

    layers = None
    if tracer is not None:
        layers = layer_metrics(tracer.spans, cli.SCENARIOS)
        # every CSV starts with one header line
        written = {label: workloads.csv_lines(args.out / label) for label in configs}
        layers["cli.csv_rows"] = sum(n - 1 for lines in written.values() for n in lines.values())
        layers["cli.csv_bytes"] = sum((args.out / label / name).stat().st_size
                                      for label, lines in written.items() for name in lines)
        tracer.dump(args.out / "spans.json")
    result = {
        "setup_s": setup_s * setup_speed,
        "wall_s": wall_s,
        "raw_setup_s": setup_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "scenarios": results,
        "layers": layers,
        "platform": _platform(),
    }
    (args.out / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
