"""The one-excitation sector stepper against the dense RK4 stepper.

evolve steps only the blocks of rho that can be non-zero when a run provably
stays in vacuum (+) one excitation; evolve_dense steps the whole density
matrix and is the reference here.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinksim import cli, dynamics
from qlinksim.cli import build_config, run_scenario
from qlinksim.dynamics import (
    IntegrationError,
    LinkParams,
    evolve,
    evolve_dense,
    sampled_trajectory,
    standard_collapse,
)
from qlinksim.protocols import StirapSchedule
from qlinksim.qspace import PureQubitSpec, Qubit, SystemLayout, link_layout, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
EQUIVALENCE_TOL = 1e-12


def _dense_forbidden(*args, **kwargs):
    raise AssertionError("evolve took the dense path")


def sector_only():
    """Context in which evolve fails unless it takes the sector path."""
    return mock.patch.object(dynamics, "evolve_dense", _dense_forbidden)


# --- property: the sector path is the dense RK4 step, restricted -------------

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
    dense = evolve_dense(**run)
    np.testing.assert_array_equal(sector.times, dense.times)
    np.testing.assert_allclose(sector.states, dense.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(sector, column), getattr(dense, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


def test_unstable_step_fails_at_the_dense_paths_time():
    # fig5-red with a 4 ns step: RK4 is unstable at this coupling
    g = 100 * TWO_PI_MHZ
    params = LinkParams(g_a=g, g_b=g, kappa=6 * TWO_PI_MHZ,
                        gamma_a=65 * TWO_PI_MHZ, gamma_b=65 * TWO_PI_MHZ)
    layout = link_layout()
    run = dict(
        rho0=product_state([PureQubitSpec(theta=math.pi / 2), None, None], layout),
        layout=layout, params=params, schedule=params.constant_schedule(),
        collapse=standard_collapse(params, layout), t_span=(0.0, 0.2e-6), dt=4e-9,
    )
    for sample_every in (1, 10):
        with sector_only(), pytest.raises(IntegrationError) as sector:
            evolve(**run, sample_every=sample_every)
        with pytest.raises(IntegrationError) as dense:
            evolve_dense(**run, sample_every=sample_every)
        assert sector.value.t is not None
        assert sector.value.t == dense.value.t


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
    cfg = build_config(SECTOR_SCENARIOS[name])
    assert run_scenario(cfg, tmp_path / "sector") == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_trajectory_rows", per_cell_rows)
        assert run_scenario(cfg, tmp_path / "per-cell") == 0
        patch.setattr(dynamics, "evolve", evolve_dense)
        assert run_scenario(cfg, tmp_path / "dense") == 0

    names = sorted(p.name for p in (tmp_path / "sector").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "dense").glob("*.csv"))
    assert any(n.startswith("trajectory") for n in names)
    for csv in names:
        got = (tmp_path / "sector" / csv).read_bytes()
        assert got == (tmp_path / "per-cell" / csv).read_bytes(), csv
        lines = got.decode().splitlines()
        dense = (tmp_path / "dense" / csv).read_text().splitlines()
        assert lines[0] == dense[0]
        np.testing.assert_allclose(
            np.array([line.split(",") for line in lines[1:]], dtype=float),
            np.array([line.split(",") for line in dense[1:]], dtype=float),
            rtol=0, atol=EQUIVALENCE_TOL, err_msg=csv)
