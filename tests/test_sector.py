"""The one-excitation amplitude engine against its references.

evolve steps the amplitudes of the one-excitation states when a run provably
stays in vacuum (+) one excitation. Its reference here is the same RK4 on the
run's full-space column vectors plus the vacuum refill (conftest's
sector_reference), which agrees to roundoff; evolve_dense (RK4 on the whole
density matrix) and propagator_oracle agree to the RK4 error.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import hamiltonian_at, rk4_columns, sector_columns, sector_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinksim import cli, dynamics
from qlinksim.cli import build_config, run_scenario
from qlinksim.dynamics import (
    IntegrationError,
    LinkParams,
    evolve,
    evolve_dense,
    propagator_oracle,
    sampled_trajectory,
    standard_collapse,
)
from qlinksim.protocols import StirapSchedule, default_stirap_window
from qlinksim.qspace import PureQubitSpec, Qubit, SystemLayout, link_layout, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
EQUIVALENCE_TOL = 1e-12

FIG4 = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                  gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ)
LOW_LOSS = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                      gamma_a=0.006 * TWO_PI_MHZ, gamma_b=0.006 * TWO_PI_MHZ)
LOW_LOSS_STIRAP = StirapSchedule(g0_a=LOW_LOSS.g_a, g0_b=LOW_LOSS.g_b,
                                 pulse_width=0.5e-6, t_delay=0.6e-6)
# RK4 on the amplitudes is not RK4 on rho: the two differ by the method's
# error, about 1e-7 at fig4's default step
RK4_ERROR_TOL = 1e-6


def _dense_forbidden(*args, **kwargs):
    raise AssertionError("evolve took the dense path")


def sector_only():
    """Context in which evolve fails unless it takes the sector path."""
    return mock.patch.object(dynamics, "evolve_dense", _dense_forbidden)


# --- property: the amplitude engine is RK4 on the run's full-space columns ----

rates = st.floats(0.0, 20.0)  # x 2 pi MHz


@st.composite
def sector_runs(draw):
    n_mediators = draw(st.sampled_from([1, 2]))
    mode_dim = draw(st.sampled_from([2, 3]))
    lab_frame = draw(st.booleans())
    params = LinkParams(
        g_a=draw(st.floats(0.5, 20.0)) * TWO_PI_MHZ,
        g_b=draw(st.floats(0.5, 20.0)) * TWO_PI_MHZ,
        omega_q=draw(st.floats(1.0, 30.0)) * TWO_PI_MHZ if lab_frame else 0.0,
        omega_w=draw(st.floats(1.0, 30.0)) * TWO_PI_MHZ if lab_frame else 0.0,
        kappa=draw(rates) * TWO_PI_MHZ,
        gamma_a=draw(rates) * TWO_PI_MHZ,
        gamma_b=draw(rates) * TWO_PI_MHZ,
    )
    g_hop = draw(rates) * TWO_PI_MHZ if n_mediators > 1 else 0.0
    fastest = max(params.max_rate(), params.omega_q, params.omega_w, g_hop)
    dt = 2 * math.pi / (200 * fastest)
    n_steps = draw(st.integers(20, 300))
    t_final = n_steps * dt
    if draw(st.booleans()):
        width = t_final / 6
        schedule = StirapSchedule(
            g0_a=params.g_a, g0_b=params.g_b, pulse_width=width,
            t_delay=draw(st.floats(0.3, 1.5)) * width,
        )
    else:
        schedule = params.constant_schedule()
    if draw(st.booleans()):
        input_a = PureQubitSpec(theta=draw(st.floats(0.0, math.pi)),
                                phi=draw(st.floats(0.0, 6.28)))
    else:  # (I + r.sigma)/2 with |r| <= 1
        r = draw(st.floats(0.0, 1.0))
        theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
        x, y, z = (r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi),
                   r * math.cos(theta))
        input_a = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    layout = link_layout(n_mediators=n_mediators, mode_dim=mode_dim)
    rho0 = product_state([input_a] + [None] * (layout.n_sites - 1), layout)
    return dict(
        rho0=rho0, layout=layout, params=params, schedule=schedule,
        collapse=standard_collapse(params, layout), t_span=(0.0, t_final), dt=dt,
        sample_every=draw(st.integers(1, 50)), target=PureQubitSpec(theta=1.1, phi=0.7),
        g_hop=g_hop,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sector_runs())
def test_sector_path_matches_dense_rk4(run):
    with sector_only():
        sector = evolve(**run)
    reference = sector_reference(**run)
    np.testing.assert_array_equal(sector.times, reference.times)
    np.testing.assert_allclose(sector.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(sector, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


def fig5_red_run(t_final, dt):
    g = 100 * TWO_PI_MHZ
    params = LinkParams(g_a=g, g_b=g, kappa=6 * TWO_PI_MHZ,
                        gamma_a=65 * TWO_PI_MHZ, gamma_b=65 * TWO_PI_MHZ)
    layout = link_layout()
    return dict(
        rho0=product_state([PureQubitSpec(theta=math.pi / 2), None, None], layout),
        layout=layout, params=params, schedule=params.constant_schedule(),
        collapse=standard_collapse(params, layout), t_span=(0.0, t_final), dt=dt,
    )


def first_refill_failure(run):
    """Step at which the reference's vacuum refill first breaks the bound, and dt."""
    rho0, layout = run["rho0"], run["layout"]
    terms = dynamics.hamiltonian_terms(run["params"], layout)
    x0 = sector_columns(rho0, layout)[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        times, columns = rk4_columns(terms, run["collapse"], run["schedule"], x0,
                                     run["t_span"], run["dt"])
        delta = (np.abs(x0) ** 2).sum() - (np.abs(columns) ** 2).sum(axis=(1, 2))
        failed = ~np.isfinite(delta) | (delta < dynamics.MIN_EIGENVALUE_MIN)
    assert failed.any()
    return int(np.argmax(failed)), times[1] - times[0]


def test_unstable_step_fails_at_the_dense_paths_time():
    # fig5-red with a 4 ns step: RK4 is unstable at this coupling. The
    # engine checks every step, the dense path only its samples, so the
    # engine fails first, at the first step whose refill breaks the bound.
    run = fig5_red_run(0.2e-6, 4e-9)
    step, h = first_refill_failure(run)
    for sample_every in (1, 10):
        with sector_only(), pytest.raises(IntegrationError) as sector:
            evolve(**run, sample_every=sample_every)
        with pytest.raises(IntegrationError) as dense:
            evolve_dense(**run, sample_every=sample_every)
        assert sector.value.t == pytest.approx(step * h, rel=1e-12)
        assert f"(step {step} of 50, dt = 4.000000e-09 s, sample_every = {sample_every})" \
            in str(sector.value)
        assert sector.value.t <= dense.value.t


@pytest.mark.parametrize("sample_every", [1, 10, 40, 400, 4000])
def test_verdict_does_not_depend_on_the_sampling_cadence(sample_every):
    # fig5-red at 0.25 ns over 2 us: the step matrix is a contraction there,
    # so the refill never shrinks and every cadence passes with positive states
    traj = evolve(**fig5_red_run(2e-6, 0.25e-9), sample_every=sample_every)
    assert np.linalg.eigvalsh(traj.states).min() >= -1e-12
    with pytest.raises(IntegrationError, match="vacuum refill"):
        evolve(**fig5_red_run(2e-6, 4e-9), sample_every=sample_every)


def test_constant_drive_powers_match_the_step_by_step_product():
    # the dense-output benchmark's 23,200 steps: blocked powers of the one
    # step matrix against one RK4 step at a time
    run = dict(link_run(LOW_LOSS, LOW_LOSS.constant_schedule(), 20e-6,
                        dynamics.default_dt(LOW_LOSS)), sample_every=1000)
    with sector_only():
        traj = evolve(**run)
    reference = sector_reference(**run)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)


def link_run(params, schedule, t_final, dt):
    layout = link_layout()
    target = PureQubitSpec(theta=1.1, phi=0.7)
    return dict(rho0=product_state([target, None, None], layout), layout=layout,
                params=params, schedule=schedule, collapse=standard_collapse(params, layout),
                t_span=(0.0, t_final), dt=dt, sample_every=25, target=target)


@pytest.mark.parametrize("run", [
    link_run(FIG4, FIG4.constant_schedule(), 2e-6, dynamics.default_dt(FIG4)),
    link_run(LOW_LOSS, LOW_LOSS_STIRAP, default_stirap_window(LOW_LOSS_STIRAP)[1], 2e-9),
], ids=["fig4", "low-loss-stirap"])
def test_engine_matches_the_dense_stepper_to_the_rk4_error(run):
    with sector_only():
        sector = evolve(**run)
    dense = evolve_dense(**run)
    np.testing.assert_allclose(sector.states, dense.states, rtol=0, atol=RK4_ERROR_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(sector, column), getattr(dense, column),
                                   rtol=0, atol=RK4_ERROR_TOL, err_msg=column)


def test_engine_matches_the_exponential_oracle_to_the_rk4_error():
    run = link_run(FIG4, FIG4.constant_schedule(), 2e-6, dynamics.default_dt(FIG4))
    h = hamiltonian_at(0.0, FIG4, run["schedule"], run["layout"])
    with sector_only():
        traj = evolve(**run)
    for t, state in zip(traj.times[::10], traj.states[::10]):
        np.testing.assert_allclose(
            state, propagator_oracle(run["rho0"], h, run["collapse"], t),
            rtol=0, atol=RK4_ERROR_TOL)


# --- dispatch --------------------------------------------------------------

WEAK_LOSS = {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006}
SHORT_PULSE = {"pulse_width_us": 0.25, "t_delay_us": 0.3, "dt_ns": 1.0}
SECTOR_SCENARIOS = {
    "transfer": {"scenario": "transfer", "t_final_us": 0.5, "dt_ns": 1.0,
                 "sample_every": 50, **WEAK_LOSS},
    "stirap-compare": {"scenario": "stirap-compare", **SHORT_PULSE, **WEAK_LOSS},
    "chain": {"scenario": "chain", "hops": 2, "hop_time_us": 2.0, **SHORT_PULSE,
              **WEAK_LOSS},
    "sweep-distance": {"scenario": "sweep-distance", "lengths_km": (0.001, 0.1),
                       "dt_ns": 0.05, "sample_every": 500},
    "tune-stirap": {"scenario": "tune-stirap", "tune_widths_us": (0.25,),
                    "tune_delays_us": (0.3,), "dt_ns": 1.0, **WEAK_LOSS},
    "coherent-info": {"scenario": "coherent-info", "preset": "fig4", "dt_ns": 1.0,
                      "sample_every": 10, "n_samples": 5},
}


@pytest.mark.parametrize("name", sorted(SECTOR_SCENARIOS))
def test_single_excitation_scenarios_never_step_densely(name, tmp_path):
    with sector_only():
        assert run_scenario(build_config(SECTOR_SCENARIOS[name]), tmp_path / "out") == 0


class TestDensePathStays:
    def count_dense_calls(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])  # the layout
            return evolve_dense(*args, **kwargs)

        monkeypatch.setattr(dynamics, "evolve_dense", counted)
        return calls

    def test_two_excitations(self, monkeypatch):
        calls = self.count_dense_calls(monkeypatch)
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=1e6)
        excited = PureQubitSpec(theta=math.pi)
        rho0 = product_state([excited, None, excited], layout)
        traj = evolve(rho0, layout, params, params.constant_schedule(),
                      standard_collapse(params, layout), (0.0, 1e-7), 1e-9, sample_every=10)
        assert calls == [layout]
        # the doubly excited state is outside the sector's blocks
        assert traj.populations[0].sum() == pytest.approx(2.0)

    def test_coherence_with_two_excitations(self, monkeypatch):
        calls = self.count_dense_calls(monkeypatch)
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=1e6)
        plus, excited = PureQubitSpec(theta=math.pi / 2), PureQubitSpec(theta=math.pi)
        # (|0> + |1>) on A with B excited: one excitation coherent with two
        rho0 = product_state([plus, None, excited], layout)
        evolve(rho0, layout, params, params.constant_schedule(),
               standard_collapse(params, layout), (0.0, 1e-7), 1e-9, sample_every=10)
        assert calls == [layout]

    def test_leaking_hamiltonian_term(self, monkeypatch):
        # a static term coupling a one-excitation state to a two-excitation one
        calls = self.count_dense_calls(monkeypatch)
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ)
        terms = dynamics.hamiltonian_terms(params, layout)
        leak = np.zeros((8, 8), dtype=complex)
        leak[0b110, 0b100] = leak[0b100, 0b110] = 1e7  # |1 0 0> <-> |1 1 0>
        terms = dynamics.HamiltonianTerms(terms.h_static + leak, terms.h_a, terms.h_b)
        rho0 = product_state([PureQubitSpec(theta=math.pi), None, None], layout)
        evolve(rho0, layout, params, params.constant_schedule(), [], (0.0, 1e-8), 1e-9,
               terms=terms)
        assert calls == [layout]

    def test_leaking_collapse_operator(self, monkeypatch):
        # a jump that maps a one-excitation state outside the vacuum
        calls = self.count_dense_calls(monkeypatch)
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ)
        leak = np.zeros((8, 8), dtype=complex)
        leak[0b010, 0b100] = 1.0  # |1 0 0> -> |0 1 0>
        rho0 = product_state([PureQubitSpec(theta=math.pi), None, None], layout)
        evolve(rho0, layout, params, params.constant_schedule(),
               [dynamics.CollapseChannel(leak, 1e6)], (0.0, 1e-8), 1e-9)
        assert calls == [layout]


def test_transfer_never_builds_a_dense_state_stack(tmp_path, monkeypatch):
    def stack_built(self):
        raise AssertionError("dense state stack built")

    monkeypatch.setattr(dynamics.Trajectory, "states", property(stack_built))
    cfg = build_config(dict(SECTOR_SCENARIOS["transfer"], t_final_us=2.0, dt_ns=0.2,
                            sample_every=1))
    tracemalloc.start()
    try:
        with sector_only():
            assert run_scenario(cfg, tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10,001 samples as 8 x 8 complex states would take 10.2 MB at once
    assert peak < 10_001 * 8 * 8 * 16


# --- sample checks ----------------------------------------------------------


def per_sample_check(times, states):
    """The check one sample at a time, in time order: the reference."""
    for t, rho in zip(times, states):
        t = float(t)
        if not np.isfinite(rho).all():
            raise IntegrationError(f"state diverged (non-finite entries) at t = {t:.6e} s", t=t)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > dynamics.TRACE_DRIFT_MAX:
            raise IntegrationError(f"trace drifted to {tr:.9f} at t = {t:.6e} s", t=t)
        lam_min = float(np.linalg.eigvalsh(rho).min())
        if lam_min < dynamics.MIN_EIGENVALUE_MIN:
            raise IntegrationError(
                f"eigenvalue {lam_min:.3e} below {dynamics.MIN_EIGENVALUE_MIN:g} "
                f"at t = {t:.6e} s", t=t)


def two_qubit_states(*first_qubit_diagonals):
    """Diagonal states with the given first-qubit populations, the second qubit in |0>."""
    return np.array([np.diag([p0, 0.0, p1, 0.0]).astype(complex)
                     for p0, p1 in first_qubit_diagonals])


TWO_QUBITS = SystemLayout((Qubit(), Qubit()))


@pytest.mark.parametrize("states", [
    two_qubit_states([1.0, 0.0], [1.0 + 2e-5, -2e-5], [np.nan, 1.0]),  # eigenvalue first
    two_qubit_states([1.0, 0.0], [np.inf, 0.0], [1.0 + 2e-5, -2e-5]),  # divergence first
    two_qubit_states([1.0, 0.0], [0.5, 0.4], [1.0 + 2e-5, -2e-5]),  # trace drift first
    two_qubit_states([0.5, 0.5], [1.0, 0.0], [0.3, 0.7]),  # all valid
])
def test_batched_checks_raise_like_the_per_sample_loop(states):
    times = np.array([0.0, 1e-9, 2e-9])
    try:
        per_sample_check(times, states)
    except IntegrationError as err:
        with pytest.raises(IntegrationError) as batched:
            sampled_trajectory(TWO_QUBITS, times, states)
        assert str(batched.value) == str(err)
        assert batched.value.t == err.t
    else:
        sampled_trajectory(TWO_QUBITS, times, states)


# --- CSV output -------------------------------------------------------------


def per_cell_rows(traj):
    """Trajectory rows built one float() per cell: the byte reference."""
    n_mediators = traj.populations.shape[1] - 2
    header = ["t_us", "pop_A"]
    header += ["pop_W" if i == 0 else f"pop_W{i + 1}" for i in range(n_mediators)]
    header += ["pop_B", "fidelity", "trace", "purity"]
    fid = traj.fidelity if traj.fidelity is not None else np.full(len(traj.times), np.nan)
    rows = []
    for i, t in enumerate(traj.times):
        row = [float(t / 1e-6), float(traj.pop_a[i])]
        row += [float(x) for x in traj.pop_w[i]]
        row += [float(traj.pop_b[i]), float(fid[i]), float(traj.trace[i]),
                float(traj.purity[i])]
        rows.append(row)
    return header, rows


@pytest.mark.parametrize("name", ["transfer", "chain"])
def test_csvs_match_per_cell_rows_and_the_dense_path(name, tmp_path, monkeypatch):
    # byte-identical to rows built per cell, equal to the amplitude reference
    # to roundoff, and equal to evolve_dense, a second algorithm, to the RK4
    # error; at 1 ns steps the two RK4 schemes differ by 3e-6 on transfer
    cfg = build_config({**SECTOR_SCENARIOS[name], "dt_ns": 0.5})
    assert run_scenario(cfg, tmp_path / "sector") == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_trajectory_rows", per_cell_rows)
        assert run_scenario(cfg, tmp_path / "per-cell") == 0
        patch.setattr(dynamics, "evolve", sector_reference)
        assert run_scenario(cfg, tmp_path / "reference") == 0
        patch.setattr(dynamics, "evolve", evolve_dense)
        assert run_scenario(cfg, tmp_path / "dense") == 0

    def table(directory, csv):
        lines = (tmp_path / directory / csv).read_text().splitlines()
        return lines[0], np.array([line.split(",") for line in lines[1:]], dtype=float)

    others = {"reference": EQUIVALENCE_TOL, "dense": RK4_ERROR_TOL}
    names = sorted(p.name for p in (tmp_path / "sector").glob("*.csv"))
    assert any(n.startswith("trajectory") for n in names)
    for other in others:
        assert names == sorted(p.name for p in (tmp_path / other).glob("*.csv"))
    for csv in names:
        got = (tmp_path / "sector" / csv).read_bytes()
        assert got == (tmp_path / "per-cell" / csv).read_bytes(), csv
        header, values = table("sector", csv)
        for other, tol in others.items():
            other_header, other_values = table(other, csv)
            assert header == other_header
            np.testing.assert_allclose(values, other_values, rtol=0, atol=tol,
                                       err_msg=f"{csv} against {other}")
