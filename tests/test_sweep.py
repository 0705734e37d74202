"""A distance sweep's stacked runs against its points run one by one.

network.distance_sweep runs every point that shares a step as one stack
under a constant drive (dynamics.link_channels: one amplitude run) and reads
their trajectories off the stack at once; under a pulsed drive each point
runs alone. The CLI writes their files as one row stream
(cli._Outputs.write_tables).
Each point must come out as its own run gives it: value for value through
the library, byte for byte through the CLI (files and summary). A stack that
fails a check is redone point by point, so a failing point records, or
raises, what its own run gives, and the others do not move.
"""

import math
import warnings
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest

from qlinksim import cli, dynamics
from qlinksim.cli import build_config, run_scenario
from qlinksim.dynamics import IntegrationError, LinkParams, default_dt, link_channels
from qlinksim.network import (
    CAVITY,
    CAVITY_PLUS_FIBER,
    FIBER,
    LinkSpec,
    MediumModel,
    distance_sweep,
    link_channel,
    run_hop,
)
from qlinksim.protocols import default_stirap, default_stirap_window
from qlinksim.qspace import InvalidStateError, PureQubitSpec

TWO_PI_MHZ = 2 * math.pi * 1e6
G = 5.8 * TWO_PI_MHZ
WEAK = LinkParams(g_a=G, g_b=G, kappa=0.34 * TWO_PI_MHZ, gamma_a=0.006 * TWO_PI_MHZ,
                  gamma_b=0.006 * TWO_PI_MHZ)
LAB = replace(WEAK, omega_q=24.1 * TWO_PI_MHZ, omega_w=25.3 * TWO_PI_MHZ)
T_STAR = math.pi / (math.sqrt(2.0) * G)
TARGET = PureQubitSpec(theta=1.0, phi=2.0)
KINDS = (CAVITY, FIBER, CAVITY_PLUS_FIBER)
# up to 100 km, where the cavity's and the fiber's loss outrun g0
LENGTHS = (0.0, 30.0, 1000.0, 1.0e5)


def template(params=WEAK, **kwargs):
    values = {"schedule": params.constant_schedule(), "hop_time": T_STAR,
              "medium": MediumModel(cavity_loss_per_m=1e3), "dt": T_STAR / 300,
              "sample_every": 7, **kwargs}
    return LinkSpec(params=params, **values)


def point_link(link, kind, length):
    return replace(link, medium=replace(link.medium, kind=kind, length=length))


def one_by_one(link, kinds, lengths):
    """(kind, length, trajectory or error text) of every point from its own hop, sorted."""
    points = []
    for kind, length in sorted(product(kinds, lengths)):
        try:
            _, traj = run_hop(TARGET.density_matrix(), point_link(link, kind, length), TARGET)
        except IntegrationError as err:
            points.append((kind, length, str(err)))
        else:
            points.append((kind, length, traj))
    return points


def assert_points_equal(points, want):
    assert [(p.kind, p.length) for p in points] == [(kind, length) for kind, length, _ in want]
    for p, (_, _, traj) in zip(points, want):
        if isinstance(traj, str):
            assert (p.fidelity, p.error, p.trajectory) == (None, traj, None)
            continue
        assert p.error is None
        assert p.fidelity == traj.final_fidelity
        for column in ("times", "populations", "trace", "purity", "fidelity"):
            np.testing.assert_array_equal(getattr(p.trajectory, column), getattr(traj, column),
                                          err_msg=column)
        for index in (-1, slice(2, 5)):
            np.testing.assert_array_equal(p.trajectory.state_at(index), traj.state_at(index))


def counting_runs():
    return mock.patch.object(dynamics, "_amplitude_run", wraps=dynamics._amplitude_run)


STIRAP = default_stirap(G)

LIBRARY_CASES = {
    "rotating": template(),
    "lab-frame": template(LAB),
    "two-mediators": template(n_mediators=2, g_hop=G),
    # each point at its own default step: those whose loss outruns g0 take a shorter one
    "default-steps": template(dt=None),
    "stirap": template(schedule=STIRAP, hop_time=default_stirap_window(STIRAP)[1], dt=None,
                       sample_every=50),
}


@pytest.mark.parametrize("case", list(LIBRARY_CASES))
def test_stacked_sweep_equals_its_points_run_one_by_one(case):
    link = LIBRARY_CASES[case]
    lengths = LENGTHS[:2] if case == "stirap" else LENGTHS
    with counting_runs() as runs:
        points = distance_sweep(link, KINDS, lengths, TARGET)
    want = one_by_one(link, KINDS, lengths)
    assert_points_equal(points, want)
    assert all(p.error is None for p in points)
    steps = {default_dt(point_link(link, kind, length).effective_params(), link.schedule,
                        link.g_hop) if link.dt is None else link.dt
             for kind, length in product(KINDS, lengths)}
    if case == "stirap":  # pulsed points run one at a time
        assert runs.call_count == len(points)
    else:  # one stacked run per step
        assert runs.call_count == len(steps)
    if case == "default-steps":
        assert len(steps) > 2


def test_a_pulsed_stack_equals_its_links_run_alone():
    # link_channels steps a pulsed stack one link at a time, in stack order
    links = [WEAK, LAB, replace(WEAK, kappa=3 * WEAK.kappa)]
    t_final = default_stirap_window(STIRAP)[1]
    with counting_runs() as runs:
        stacked = link_channels(links, STIRAP, t_final, 2e-9, sample_every=50)
    assert runs.call_count == len(links)
    for params, channel in zip(links, stacked):
        (alone,) = link_channels([params], STIRAP, t_final, 2e-9, sample_every=50)
        assert channel.times.tobytes() == alone.times.tobytes()
        assert channel.amplitudes.tobytes() == alone.amplitudes.tobytes()


# --- failures: each point as its own run would fail -----------------------------


def nan_step_for(monkeypatch, kappa):
    """Make dynamics._expm return nan for the link of mediator loss kappa.

    In the real gauge of a rotating-frame link the step's diagonal is -h/2
    times (gamma_A, kappa, ..., gamma_B), so A's and the mediator's entries
    name kappa whatever the step h.
    """
    expm = dynamics._expm

    def failing(a):
        if math.isclose(a[1, 1] / a[0, 0], kappa / WEAK.gamma_a, rel_tol=1e-9):
            return np.full_like(a, math.nan)
        return expm(a)

    monkeypatch.setattr(dynamics, "_expm", failing)


def test_a_failing_point_records_its_own_error_and_the_rest_stand(monkeypatch):
    link = template()
    unpatched = distance_sweep(link, KINDS, LENGTHS, TARGET)
    bad = point_link(link, FIBER, 1000.0)
    nan_step_for(monkeypatch, bad.effective_params().kappa)
    with counting_runs() as runs:
        points = distance_sweep(link, KINDS, LENGTHS, TARGET)
    # the stack fails, and each point is redone alone
    assert runs.call_count == 1 + len(points)
    with pytest.raises(IntegrationError) as own:
        run_hop(TARGET.density_matrix(), bad, TARGET)
    assert str(own.value).startswith("state diverged (non-finite entries) at t = ")
    failed = [p for p in points if p.error is not None]
    assert [(p.kind, p.length, p.error) for p in failed] == [(FIBER, 1000.0, str(own.value))]
    assert failed[0].fidelity is None and failed[0].trajectory is None
    rest = [(p.kind, p.length, p.trajectory) for p in unpatched
            if (p.kind, p.length) != (FIBER, 1000.0)]
    assert_points_equal([p for p in points if p.error is None], rest)


def test_failing_received_states_raise_as_the_first_point_in_order(monkeypatch):
    # in sweep order, (cavity, 1000 m) fails the trace check and a later point,
    # (fiber, 30 m), the Hermiticity check, which a stacked check makes first
    link = template()
    bumps = {(CAVITY, 1000.0): np.diag([1e-3, 0.0]), (FIBER, 30.0): np.array([[0, 1e-3], [0, 0]])}
    by_amplitude = {complex(link_channel(point_link(link, *point)).amplitudes[-1, -1]): bump
                    for point, bump in bumps.items()}
    received_state = dynamics.LinkChannel.received_state

    def bumped(channel, rho_a):
        return received_state(channel, rho_a) + by_amplitude.get(
            complex(channel.amplitudes[-1, -1]), 0.0)

    monkeypatch.setattr(dynamics.LinkChannel, "received_state", bumped)
    with pytest.raises(InvalidStateError) as want:
        for kind, length in product(KINDS, LENGTHS):
            run_hop(TARGET.density_matrix(), point_link(link, kind, length), TARGET)
    assert str(want.value).startswith("trace deviation")
    with pytest.raises(InvalidStateError) as got:
        distance_sweep(link, KINDS, LENGTHS, TARGET)
    assert str(got.value) == str(want.value)


# --- the CLI: the stacked run's files against one run per point -----------------

WEAK_LOSS = {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006}
# by case: config values and the rows of each file, where they matter. The
# default sweep has 14 points of 61.0 ns; at 0.2 ns a point is 306 rows, so its
# files straddle 512-row blocks, and at 0.1 ns 611, 8554 rows in all: 17
# blocks, each edge between them inside a file.
CLI_CASES = {
    "block-edges": ({"dt_ns": 0.2, "sample_every": 1}, 306),
    "many-blocks": ({"dt_ns": 0.1, "sample_every": 1}, 611),
    "lab-frame": ({"omega_q_2pi_mhz": 24.1, "omega_w_2pi_mhz": 25.3, "dt_ns": 0.05,
                   "sample_every": 3}, None),
    "stirap": ({"protocol": "stirap", "dt_ns": 1.0, "lengths_km": (0.001, 1.0)}, None),
}


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_stacked_sweep_files_match_one_run_per_point(case, tmp_path):
    values, rows = CLI_CASES[case]
    cfg = build_config({"scenario": "sweep-distance", **WEAK_LOSS, **values})
    assert run_scenario(cfg, tmp_path / "stacked") == 0
    summary = ["kind,length_km,fidelity\n"]
    names = ["summary.csv"]
    for kind, length_km in sorted(product(cfg.media, cfg.lengths_km)):
        out = tmp_path / f"{kind}-{length_km}"
        assert run_scenario(replace(cfg, media=(kind,), lengths_km=(length_km,)), out) == 0
        name = cli._point_name(kind, length_km * 1000.0)
        names.append(name)
        stacked = (tmp_path / "stacked" / name).read_bytes()
        assert stacked == (out / name).read_bytes(), name
        n_rows = stacked.count(b"\n") - 1
        assert n_rows > 1 and rows in (None, n_rows)
        summary += (out / "summary.csv").read_text(encoding="utf-8").splitlines(True)[1:]
    assert sorted(p.name for p in (tmp_path / "stacked").glob("*.csv")) == sorted(names)
    assert (tmp_path / "stacked" / "summary.csv").read_text(encoding="utf-8") == "".join(summary)


def test_a_failing_pulsed_point_reruns_no_other_point(tmp_path):
    # at dt_ns = 10 only the 1000 km cavity, the second of six points, fails:
    # each point runs once, and none is run again after the failure
    cfg = build_config({"scenario": "sweep-distance", "protocol": "stirap", **WEAK_LOSS,
                        "dt_ns": 10.0, "lengths_km": (0.03, 1000.0, 0.1)})
    with counting_runs() as runs, pytest.warns(
            RuntimeWarning, match="^1 of 6 sweep points failed and read nan: cavity at 1000 km: "):
        assert run_scenario(cfg, tmp_path) == 0
    assert runs.call_count == 6


def test_a_pulsed_point_that_fails_at_a_user_dt_ns_records_its_own_error(tmp_path):
    # at dt_ns = 10 RK4 is unstable on the 1000 km cavity's loss, and only there
    cfg = build_config({"scenario": "sweep-distance", "protocol": "stirap", **WEAK_LOSS,
                        "dt_ns": 10.0, "lengths_km": (0.03, 1000.0)})
    with pytest.warns(RuntimeWarning) as stacked:
        assert run_scenario(cfg, tmp_path / "stacked") == 0
    summary, errors = ["kind,length_km,fidelity\n"], []
    for kind, length_km in sorted(product(cfg.media, cfg.lengths_km)):
        out = tmp_path / f"{kind}-{length_km}"
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            assert run_scenario(replace(cfg, media=(kind,), lengths_km=(length_km,)), out) == 0
        errors += [str(w.message).replace("1 of 1 ", "1 of 4 ") for w in alone]
        summary += (out / "summary.csv").read_text(encoding="utf-8").splitlines(True)[1:]
        for path in out.glob("trajectory_*.csv"):
            assert (tmp_path / "stacked" / path.name).read_bytes() == path.read_bytes()
    assert [str(w.message) for w in stacked] == errors
    assert errors[0].startswith("1 of 4 sweep points failed and read nan: cavity at 1000 km: ")
    assert summary[2] == "cavity,1000.0,nan\n"
    assert len(list((tmp_path / "stacked").glob("trajectory_*.csv"))) == 3
    assert (tmp_path / "stacked" / "summary.csv").read_text(encoding="utf-8") == "".join(summary)
