"""Benchmark workloads for qlinksim and the checks on their outputs.

Each workload is a fixed list of CLI scenario configs (config units: rates in
2*pi MHz, times in us). Why each one exists, and which layer it stresses, is
in README.md next to this file.
"""

from __future__ import annotations

import math
from pathlib import Path

# fig4's coupling and cavity loss with 1000x weaker qubit decay: every
# fidelity below sits well above its 0.5 floor, so a broken engine shows.
WEAK_LOSS = {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006}
# Pulse pair short enough to keep a pass of `pulsed` near the other workloads'
# length (g0 * T = 18, window 3.6 us) while the transfer stays adiabatic.
SHORT_PULSE = {"pulse_width_us": 0.5, "t_delay_us": 0.6}


def scenarios(workload: str, seed: int) -> dict[str, dict]:
    """Timed scenarios of a workload, by label, as config key -> value."""
    return {
        "pulsed": {
            "chain": {"scenario": "chain", "hops": 3, "hop_time_us": 4.0,
                      **SHORT_PULSE, **WEAK_LOSS},
            "tune-stirap": {"scenario": "tune-stirap", "tune_widths_us": (0.5, 1.0),
                            "tune_delays_us": (0.6, 1.2), **WEAK_LOSS},
            "stirap-compare": {"scenario": "stirap-compare", **SHORT_PULSE, **WEAK_LOSS},
        },
        "channel": {
            "coherent-info": {"scenario": "coherent-info", "preset": "fig5-yellow",
                              "n_samples": 50, "seed": seed},
            "sweep-distance": {"scenario": "sweep-distance", **WEAK_LOSS},
        },
        "dense-output": {
            "transfer": {"scenario": "transfer", "protocol": "constant", "t_final_us": 20.0,
                         "sample_every": 1, **WEAK_LOSS},
        },
    }[workload]


WORKLOADS = ("pulsed", "channel", "dense-output")


def check_cases(workload: str, seed: int) -> dict[str, dict]:
    """Untimed cases run once per run of a workload, reported but not timed.

    weak-loss-coherent-info aborts today: the reduced state reaches an
    eigenvalue of -1.09e-7, below qspace's -1e-7 tolerance, while `evolve`
    accepts down to -1e-5. It is a standing defect, kept at the default dt.
    """
    if workload != "channel":
        return {}
    return {"weak-loss-coherent-info": {"scenario": "coherent-info", "n_samples": 50,
                                        "seed": seed, **WEAK_LOSS}}


# --- output checks -----------------------------------------------------------

# Columns computed from the master equation. Halving dt moves them by at most
# 4e-8 on these configs, so 1e-6 admits an exact engine and rejects a wrong one.
INTEGRATION_TOL = 1e-6
INTEGRATED_COLUMNS = {"fidelity", "final_fidelity", "entanglement_fidelity", "coherent_info_bits"}
# Times read off the sample grid may move by a few sample spacings if the
# grid changes: allow 1 % of the scenario's horizon (10 default spacings).
GRID_TIME_SHARE = 0.01
GRID_TIME_COLUMNS = {"stabilization_us", "latency_us"}
# average_fidelity is a Monte Carlo mean over n_samples Haar states. It is
# held to the same run's exact value (2 F_e + 1) / 3 (Nielsen, Phys. Lett. A
# 303, 249 (2002)) within HAAR_SIGMAS standard errors; HAAR_SD is the spread
# of single-state fidelities on the channel workload's link, measured over
# 300 Haar states (0.267). At n_samples = 50 that admits 0.15 either way, so
# an exact closed form passes and one that is off by more fails.
HAAR_SD = 0.27
HAAR_SIGMAS = 4.0
# Every other column (labels, grid coordinates, hop numbers) must match as text.


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_lines(out: Path) -> dict[str, int]:
    """Line count of every CSV a scenario wrote."""
    counts = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(1 for _ in fh)
    return counts


def _close(got: str, want: str, tol: float) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def check_outputs(out: Path, reference: dict, horizon_us: float, n_samples: int) -> list[str]:
    """Problems with one scenario's outputs against its reference; empty if none."""
    problems = []
    manifest = out / "manifest.txt"
    if not manifest.exists() or "status = ok" not in manifest.read_text(encoding="utf-8"):
        problems.append("manifest missing or status not ok")
    lines = csv_lines(out)
    if lines != reference["csv_lines"]:
        problems.append(f"CSV files/line counts {lines} != {reference['csv_lines']}")
    if not (out / "summary.csv").exists():
        return problems + ["summary.csv missing"]
    header, rows = read_csv(out / "summary.csv")
    if header != reference["header"] or len(rows) != len(reference["rows"]):
        return problems + [f"summary shape {header} x {len(rows)} differs from reference"]
    for r, (row, want_row) in enumerate(zip(rows, reference["rows"])):
        values = dict(zip(header, row))
        for col, got, want in zip(header, row, want_row):
            if col == "average_fidelity":
                exact = (2.0 * float(values["entanglement_fidelity"]) + 1.0) / 3.0
                ok = _close(got, repr(exact), HAAR_SIGMAS * HAAR_SD / math.sqrt(n_samples))
                want = f"(2 F_e + 1)/3 = {exact!r}"
            elif col in INTEGRATED_COLUMNS:
                ok = _close(got, want, INTEGRATION_TOL)
            elif col in GRID_TIME_COLUMNS:
                ok = _close(got, want, GRID_TIME_SHARE * horizon_us)
            else:
                ok = got == want
            if not ok:
                problems.append(f"summary row {r} {col} = {got}, expected {want}")
    return problems

