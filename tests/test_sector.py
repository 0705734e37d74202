"""The one-excitation amplitude engine against its references.

evolve steps the amplitudes of the one-excitation states of a link run that
starts in vacuum (+) one excitation, and rejects every other run. Its
reference here is the same RK4 on the run's full-space column vectors plus
the vacuum refill (conftest's sector_reference), which agrees to roundoff;
conftest's evolve_dense (RK4 on the whole density matrix) and
propagator_oracle agree to the RK4 error.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import (
    SMALL_SCENARIOS,
    evolve_dense,
    evolved_hop,
    hamiltonian_at,
    propagator_oracle,
    rk4_columns,
    sector_columns,
    sector_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinksim import cli, dynamics, network, qspace
from qlinksim.cli import build_config, run_scenario
from qlinksim.dynamics import (
    IntegrationError,
    LinkParams,
    evolve,
    link_channel,
    link_generators,
    standard_collapse,
)
from qlinksim.protocols import StirapSchedule, default_stirap, default_stirap_window
from qlinksim.qspace import Mode, PureQubitSpec, Qubit, SystemLayout, link_layout, product_state

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
    dt = 2 * math.pi / (200 * max(params.max_rate(), g_hop))
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
        rho0=rho0, layout=layout, params=params, schedule=schedule, t_span=(0.0, t_final),
        dt=dt, sample_every=draw(st.integers(1, 50)), target=PureQubitSpec(theta=1.1, phi=0.7),
        g_hop=g_hop,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sector_runs())
def test_sector_path_matches_dense_rk4(run):
    sector = evolve(**run)
    reference = sector_reference(**run)
    np.testing.assert_array_equal(sector.times, reference.times)
    np.testing.assert_allclose(sector.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(sector, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


FIG5_RED_G = 100 * TWO_PI_MHZ


def fig5_red_run(t_final, dt, schedule=None, input_a=PureQubitSpec(theta=math.pi / 2)):
    """fig5-red from input_a on A under schedule, by default the constant drive."""
    g = FIG5_RED_G
    params = LinkParams(g_a=g, g_b=g, kappa=6 * TWO_PI_MHZ,
                        gamma_a=65 * TWO_PI_MHZ, gamma_b=65 * TWO_PI_MHZ)
    layout = link_layout()
    return dict(
        rho0=product_state([input_a, None, None], layout),
        layout=layout, params=params,
        schedule=params.constant_schedule() if schedule is None else schedule,
        t_span=(0.0, t_final), dt=dt,
    )


def first_refill_failure(run):
    """Step at which the reference's vacuum refill first breaks the bound, dt and that refill.

    The reference steps the run's own schedule one RK4 step at a time.
    """
    rho0, layout, params = run["rho0"], run["layout"], run["params"]
    terms = dynamics.hamiltonian_terms(params, layout)
    x0 = sector_columns(rho0, layout)[:, :-1]
    with np.errstate(over="ignore", invalid="ignore"):
        times, columns = rk4_columns(terms, standard_collapse(params, layout), run["schedule"],
                                     x0, run["t_span"], run["dt"])
        delta = (np.abs(x0) ** 2).sum() - (np.abs(columns) ** 2).sum(axis=(1, 2))
        failed = ~np.isfinite(delta) | (delta < dynamics.MIN_EIGENVALUE_MIN)
    assert failed.any()
    step = int(np.argmax(failed))
    return step, times[1] - times[0], delta[step]


def test_unstable_step_fails_at_the_dense_paths_time():
    # fig5-red with a 4 ns step: RK4 is unstable at this coupling. The
    # engine checks every step, the dense path only its samples, so the
    # engine fails first, at the first step whose refill breaks the bound.
    run = fig5_red_run(0.2e-6, 4e-9)
    step, h, _ = first_refill_failure(run)
    for sample_every in (1, 10):
        with pytest.raises(IntegrationError) as sector:
            evolve(**run, sample_every=sample_every)
        with pytest.raises(IntegrationError) as dense:
            evolve_dense(**run, sample_every=sample_every)
        assert sector.value.t == pytest.approx(step * h, rel=1e-12)
        assert f"(step {step} of 50, dt = 4.000000e-09 s, sample_every = {sample_every})" \
            in str(sector.value)
        assert sector.value.t <= dense.value.t


def fig5_red_stirap_run(dt):
    """fig5-red under its default STIRAP over the pulse window, from |1> on A."""
    schedule = default_stirap(FIG5_RED_G)
    return fig5_red_run(default_stirap_window(schedule)[1], dt, schedule,
                        input_a=PureQubitSpec(theta=math.pi))


@pytest.mark.parametrize("run, refill, where", [
    (fig5_red_stirap_run(6e-9), "-4.218e+00",
     "t = 5.519593e-07 s (step 92 of 191, dt = 5.999558e-09 s"),
    (fig5_red_run(1600 * 3.32198e-9, 3.32198e-9, input_a=PureQubitSpec(theta=math.pi)),
     "-1.839e-03", "t = 4.262100e-06 s (step 1283 of 1600, dt = 3.321980e-09 s"),
], ids=["stirap-mid-pulse", "constant-second-batch"])
def test_pulsed_failure_is_reported_at_the_references_step(run, refill, where):
    # fig5-red where RK4 turns unstable: under its default STIRAP with a 6 ns
    # step mid-pulse, and under the constant drive with a step just past the
    # stability edge, after the first batch. The engine reaches its steps
    # through chunked prefix products, and must still stop at the first step
    # whose refill breaks the bound, at every cadence; |1> on A makes the
    # refill the link's own
    step, h, reference_refill = first_refill_failure(run)
    assert f"{reference_refill:.3e}" == refill
    assert f"(step {step} of " in where
    # a complex rank-2 state: the refill sums the real and imaginary parts of both factors
    mixed = dict(run, rho0=mixed_link_state(run["layout"]))
    mixed_step, _, mixed_refill = first_refill_failure(mixed)
    n_steps = dynamics._checked_grid(run["t_span"], run["dt"], 1).n_steps
    for sample_every in (1, 10):
        with pytest.raises(IntegrationError) as rank_2:
            evolve(**mixed, sample_every=sample_every)
        assert rank_2.value.t == pytest.approx(mixed_step * h, rel=1e-12)
        assert (f"Tr R0 - Tr R = {mixed_refill:.3e} below -1e-05, a lower bound on the smallest "
                f"eigenvalue at t = {mixed_step * h:.6e} s (step {mixed_step} of {n_steps}, ") \
            in str(rank_2.value)
        with pytest.raises(IntegrationError) as sector:
            evolve(**run, sample_every=sample_every)
        with pytest.raises(IntegrationError) as channel:
            link_channel(run["params"], run["schedule"], run["t_span"][1], run["dt"],
                         sample_every=sample_every)
        for err in (sector, channel):
            assert err.value.t == pytest.approx(step * h, rel=1e-12)
            assert str(err.value) == (
                f"vacuum refill Tr R0 - Tr R = {refill} below -1e-05, a lower bound on the "
                f"smallest eigenvalue at {where}, sample_every = {sample_every})")


@pytest.mark.parametrize("sample_every", [1, 10])
def test_divergence_is_reported_at_its_step(sample_every):
    # a pulse pair far narrower than the step, at couplings of 1e200 rad/s:
    # every step before step 1300 sees couplings that underflow to 0, and
    # step 1300 samples them 13 and 3 widths before the peak, where one RK4
    # step overflows, so the state turns non-finite (in the second batch)
    # with no refill failure before it
    h, width = 1e-9, 0.05e-9
    params = LinkParams(g_a=1e200, g_b=1e200)
    schedule = StirapSchedule(g0_a=1e200, g0_b=1e200, pulse_width=width, t_delay=5 * width,
                              t_center=1300 * h + 3 * width)
    layout = link_layout()
    rho0 = product_state([PureQubitSpec(theta=math.pi), None, None], layout)
    with pytest.raises(IntegrationError) as sector:
        evolve(rho0, layout, params, schedule, (0.0, 2000 * h), h, sample_every=sample_every)
    with pytest.raises(IntegrationError) as channel:
        link_channel(params, schedule, 2000 * h, h, sample_every=sample_every)
    for err in (sector, channel):
        assert err.value.t == pytest.approx(1300 * h, rel=1e-12)
        assert str(err.value) == ("state diverged (non-finite entries) at t = 1.300000e-06 s "
                                  f"(step 1300 of 2000, dt = 1.000000e-09 s, "
                                  f"sample_every = {sample_every})")


@pytest.mark.parametrize("sample_every", [1, 10, 40, 400, 4000])
def test_verdict_does_not_depend_on_the_sampling_cadence(sample_every):
    # fig5-red at 0.25 ns over 2 us: the step matrix is a contraction there,
    # so the refill never shrinks and every cadence passes with positive states
    traj = evolve(**fig5_red_run(2e-6, 0.25e-9), sample_every=sample_every)
    assert np.linalg.eigvalsh(traj.states).min() >= -1e-12
    with pytest.raises(IntegrationError, match="vacuum refill"):
        evolve(**fig5_red_run(2e-6, 4e-9), sample_every=sample_every)


def test_constant_drive_powers_match_the_step_by_step_product():
    # the dense-output benchmark's 23,200 steps: powers of the one step
    # matrix, chunk by chunk, against one RK4 step at a time
    run = dict(link_run(LOW_LOSS, LOW_LOSS.constant_schedule(), 20e-6,
                        dynamics.default_dt(LOW_LOSS)), sample_every=1000)
    traj = evolve(**run)
    reference = sector_reference(**run)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)


def mixed_link_state(layout):
    """A state whose excitation is mixed over A and B (R0 of rank 2), coherent with the vacuum."""
    sites = np.eye(layout.n_sites, dtype=int)
    a, b = (np.ravel_multi_index(tuple(sites[i]), layout.dims) for i in (0, -1))
    coherent, mixed = np.zeros((2, layout.total_dim), dtype=complex)
    coherent[[0, a, b]] = 0.6, 0.64j, 0.48
    mixed[[a, b]] = 0.8, -0.6j
    return 0.7 * np.outer(coherent, coherent.conj()) + 0.3 * np.outer(mixed, mixed.conj())


# Every run steps in batches; two batches and a ragged third, whose last
# chunk is ragged too
MULTI_BATCH_STEPS = 2 * dynamics._BATCH_STEPS + 37
LAB_DETUNED = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, omega_q=24.1 * TWO_PI_MHZ,
                         omega_w=25.3 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                         gamma_a=0.006 * TWO_PI_MHZ, gamma_b=0.006 * TWO_PI_MHZ)


def multi_batch_run(params, schedule=None, n_mediators=1, g_hop=0.0):
    """A run of MULTI_BATCH_STEPS steps from a rank-2 state.

    A STIRAP schedule's run covers its window. Any other takes that many of
    params' default steps, under a constant schedule or, without one, a pulse
    pair fitted to them.
    """
    if isinstance(schedule, StirapSchedule):
        t_final = default_stirap_window(schedule)[1]
        dt = t_final / MULTI_BATCH_STEPS
    else:
        dt = dynamics.default_dt(params, g_hop=g_hop)
        t_final = MULTI_BATCH_STEPS * dt
        if schedule is None:
            width = t_final / 6
            schedule = StirapSchedule(g0_a=params.g_a, g0_b=params.g_b, pulse_width=width,
                                      t_delay=0.8 * width)
    layout = link_layout(n_mediators=n_mediators)
    return dict(rho0=mixed_link_state(layout), layout=layout, params=params, schedule=schedule,
                t_span=(0.0, t_final), dt=dt, sample_every=7,
                target=PureQubitSpec(theta=1.1, phi=0.7), g_hop=g_hop)


@pytest.mark.parametrize("run", [
    multi_batch_run(LOW_LOSS, LOW_LOSS_STIRAP),
    multi_batch_run(LOW_LOSS, n_mediators=2, g_hop=3.1 * TWO_PI_MHZ),
    multi_batch_run(LAB_DETUNED),
    multi_batch_run(LOW_LOSS, LOW_LOSS.constant_schedule()),
    multi_batch_run(LAB_DETUNED, LAB_DETUNED.constant_schedule()),
], ids=["weak-loss-stirap", "two-mediators-g-hop", "lab-frame-detuned", "constant",
        "constant-lab-frame-detuned"])
def test_multi_batch_pulsed_runs_match_the_step_by_step_reference(run):
    # rotating-frame links step in the real gauge, lab-frame ones in the
    # realified form; a constant drive's chunks all share one set of powers
    traj = evolve(**run)
    reference = sector_reference(**run)
    assert len(traj.times) == MULTI_BATCH_STEPS // 7 + 2
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(traj, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


# --- the real gauge ------------------------------------------------------------


@pytest.mark.parametrize("n_mediators", [1, 2, 3])
@pytest.mark.parametrize("g_hop", [0.0, 3.1 * TWO_PI_MHZ, 47.0 * TWO_PI_MHZ])
def test_site_gauge_makes_exactly_the_rotating_frame_generators_real(n_mediators, g_hop):
    u = np.diag([(-1j) ** k for k in range(n_mediators + 2)])
    lab_resonant = LinkParams(g_a=FIG4.g_a, g_b=FIG4.g_b, omega_q=24.1 * TWO_PI_MHZ,
                              omega_w=24.1 * TWO_PI_MHZ, kappa=FIG4.kappa)
    for params, real in ((FIG4, True), (LOW_LOSS, True), (lab_resonant, False),
                         (LAB_DETUNED, False)):
        a = link_generators(params, n_mediators, g_hop)
        gauged = u.conj() @ a @ u
        assert (not gauged.imag.any()) == real
        assert (dynamics._real_gauge(a) is not None) == real
        if real:
            np.testing.assert_array_equal(dynamics._real_gauge(a), u.diagonal())


@pytest.mark.parametrize("schedule", [LOW_LOSS.constant_schedule(), LOW_LOSS_STIRAP],
                         ids=["constant", "stirap"])
def test_real_gauge_matches_the_realified_path(schedule, monkeypatch):
    t_final = default_stirap_window(LOW_LOSS_STIRAP)[1]
    dt, g_hop = 2e-9, 3.1 * TWO_PI_MHZ
    layout = link_layout(n_mediators=2)
    run = dict(rho0=mixed_link_state(layout), layout=layout, params=LOW_LOSS,
               schedule=schedule, t_span=(0.0, t_final), dt=dt, sample_every=9,
               target=PureQubitSpec(theta=1.1, phi=0.7), g_hop=g_hop)
    assert dynamics._real_gauge(link_generators(LOW_LOSS, 2, g_hop)) is not None

    def runs():
        channel = link_channel(LOW_LOSS, schedule, t_final, dt, sample_every=9, n_mediators=2,
                               g_hop=g_hop)
        return channel.amplitudes, evolve(**run).states

    gauged = runs()
    monkeypatch.setattr(dynamics, "_real_gauge", lambda a: None)
    realified = runs()
    for got, want in zip(gauged, realified):
        np.testing.assert_allclose(got, want, rtol=0, atol=EQUIVALENCE_TOL)


def link_run(params, schedule, t_final, dt):
    layout = link_layout()
    target = PureQubitSpec(theta=1.1, phi=0.7)
    return dict(rho0=product_state([target, None, None], layout), layout=layout,
                params=params, schedule=schedule, t_span=(0.0, t_final), dt=dt, sample_every=25,
                target=target)


@pytest.mark.parametrize("run", [
    link_run(FIG4, FIG4.constant_schedule(), 2e-6, dynamics.default_dt(FIG4)),
    link_run(LOW_LOSS, LOW_LOSS_STIRAP, default_stirap_window(LOW_LOSS_STIRAP)[1], 2e-9),
], ids=["fig4", "low-loss-stirap"])
def test_engine_matches_the_dense_stepper_to_the_rk4_error(run):
    sector = evolve(**run)
    dense = evolve_dense(**run)
    np.testing.assert_allclose(sector.states, dense.states, rtol=0, atol=RK4_ERROR_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(sector, column), getattr(dense, column),
                                   rtol=0, atol=RK4_ERROR_TOL, err_msg=column)


def test_engine_matches_the_exponential_oracle_to_the_rk4_error():
    run = link_run(FIG4, FIG4.constant_schedule(), 2e-6, dynamics.default_dt(FIG4))
    h = hamiltonian_at(0.0, FIG4, run["schedule"], run["layout"])
    traj = evolve(**run)
    for t, state in zip(traj.times[::10], traj.states[::10]):
        np.testing.assert_allclose(
            state, propagator_oracle(run["rho0"], h, standard_collapse(FIG4, run["layout"]), t),
            rtol=0, atol=RK4_ERROR_TOL)


# --- admission ---------------------------------------------------------------

def _stack_built(self):
    raise AssertionError("dense state stack built")


@pytest.mark.parametrize("name", sorted(SMALL_SCENARIOS))
def test_single_excitation_scenarios_never_step_densely(name, tmp_path, monkeypatch):
    # evolve has no dense stepper; what is left to keep out of a scenario is
    # the whole (n_samples, d, d) stack of dense states
    monkeypatch.setattr(dynamics.Trajectory, "states", property(_stack_built))
    assert run_scenario(build_config(SMALL_SCENARIOS[name]), tmp_path / "out") == 0


def _forbid(monkeypatch, functions, what):
    """Make every qlinksim binding of functions raise AssertionError(what)."""
    def forbidden(*args, **kwargs):
        raise AssertionError(what)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "qlinksim"]:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in functions):
                monkeypatch.setattr(module, attr, forbidden)


@pytest.mark.parametrize("name", sorted(SMALL_SCENARIOS))
def test_scenarios_build_no_kron_operators(name, tmp_path, monkeypatch):
    # every link run steps link_generators; the kron-built Hamiltonian and
    # collapse operators are the references' and the public API's only
    _forbid(monkeypatch, (dynamics.hamiltonian_terms, dynamics.standard_collapse, qspace.embed),
            "kron-built operator used")
    assert run_scenario(build_config(SMALL_SCENARIOS[name]), tmp_path / "out") == 0


@pytest.mark.parametrize("name", sorted(set(SMALL_SCENARIOS) - {"transfer"}))
def test_only_transfer_builds_a_dense_initial_state(name, tmp_path, monkeypatch):
    # every other scenario reads its link off one link_channel run from |1> on A
    _forbid(monkeypatch, (dynamics.evolve, qspace.product_state), "dense rho0 evolved")
    assert run_scenario(build_config(SMALL_SCENARIOS[name]), tmp_path / "out") == 0


class TestDensePathStays:
    """Runs outside a link's vacuum (+) one excitation: evolve rejects them and names why."""

    @pytest.mark.parametrize("sites", [(Qubit(), Qubit()), (Qubit(), Qubit(), Qubit()),
                                       (Qubit(), Mode(), Qubit(), Mode())],
                             ids=["two-qubits", "three-qubits", "mode-last"])
    def test_layout_that_is_not_a_link(self, sites):
        layout = SystemLayout(sites)
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ)
        rho0 = product_state([None] * layout.n_sites, layout)
        with pytest.raises(ValueError, match="link layout"):
            evolve(rho0, layout, params, params.constant_schedule(), (0.0, 1e-8), 1e-9)

    def test_two_excitations(self):
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=1e6)
        excited = PureQubitSpec(theta=math.pi)
        rho0 = product_state([excited, None, excited], layout)
        with pytest.raises(ValueError, match=r"initial state lies outside vacuum \(\+\) one"):
            evolve(rho0, layout, params, params.constant_schedule(), (0.0, 1e-7), 1e-9,
                   sample_every=10)

    def test_coherence_with_two_excitations(self):
        layout = link_layout()
        params = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=1e6)
        plus, excited = PureQubitSpec(theta=math.pi / 2), PureQubitSpec(theta=math.pi)
        # (|0> + |1>) on A with B excited: one excitation coherent with two
        rho0 = product_state([plus, None, excited], layout)
        with pytest.raises(ValueError, match=r"initial state lies outside vacuum \(\+\) one"):
            evolve(rho0, layout, params, params.constant_schedule(), (0.0, 1e-7), 1e-9,
                   sample_every=10)


def test_transfer_never_builds_a_dense_state_stack(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics.Trajectory, "states", property(_stack_built))
    cfg = build_config(dict(SMALL_SCENARIOS["transfer"], t_final_us=2.0, dt_ns=0.2,
                            sample_every=1))
    tracemalloc.start()
    try:
        assert run_scenario(cfg, tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10,001 samples as 8 x 8 complex states would take 10.2 MB at once
    assert peak < 10_001 * 8 * 8 * 16


# --- the initial state's check ----------------------------------------------


def sector_state(vacuum, excited, coherence=0.0):
    """rho0 on the link with vacuum weight, |1 0 0> weight and their coherence."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0], rho[0b100, 0b100] = vacuum, excited
    rho[0b100, 0] = rho[0, 0b100] = coherence
    return rho


@pytest.mark.parametrize("rho0, message", [
    (sector_state(0.5, 0.5, coherence=np.nan), "state diverged (non-finite entries)"),
    (sector_state(0.6, 0.5), "trace drifted to 1.100000000"),
    (sector_state(1.0 + 1e-4, -1e-4), "eigenvalue -1.000e-04 below -1e-05"),
], ids=["nan-entry", "trace-1.1", "eigenvalue-minus-1e-4"])
def test_initial_state_is_checked_at_step_0(rho0, message):
    layout = link_layout()
    with pytest.raises(IntegrationError) as err:
        evolve(rho0, layout, FIG4, FIG4.constant_schedule(),
               (1e-7, 2e-7), 1e-9, sample_every=10)
    assert err.value.t == 1e-7
    assert str(err.value) == (f"{message} at t = 1.000000e-07 s (step 0 of 100, "
                              "dt = 1.000000e-09 s, sample_every = 10)")


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
    # error; at 1 ns steps the two RK4 schemes differ by 3e-6 on transfer. A
    # chain's references evolve every hop from its input, so they also check
    # that hops read off the link's one run compose like evolved ones
    cfg = build_config({**SMALL_SCENARIOS[name], "dt_ns": 0.5})
    assert run_scenario(cfg, tmp_path / "sector") == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli._Outputs, "write_trajectory",
                      lambda out, csv, traj: out.write_csv(csv, *per_cell_rows(traj)))
        assert run_scenario(cfg, tmp_path / "per-cell") == 0
        # a chain's hops go through the evolve patched in below, one run per hop
        patch.setattr(network, "run_hop", evolved_hop)
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
