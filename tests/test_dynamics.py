import math
import sys

import numpy as np
import pytest

from conftest import (
    hamiltonian_at,
    lindblad_rhs,
    liouvillian,
    make_density_matrix,
    make_hermitian,
    propagator_oracle,
)
from qlinksim.dynamics import (
    CollapseChannel,
    IntegrationError,
    LinkParams,
    default_dt,
    evolve,
    link_channel,
    standard_collapse,
)
from qlinksim.protocols import (
    ConstantSchedule,
    StirapSchedule,
    default_stirap,
    default_stirap_window,
)
from qlinksim.qspace import PureQubitSpec, link_layout, local_operator, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
US = 1e-6
NS = 1e-9

LAYOUT = link_layout()
EXCITED = PureQubitSpec(theta=math.pi)


def fig4_params():
    return LinkParams(
        g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ,
        kappa=0.34 * TWO_PI_MHZ, gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ,
    )


def idx(n_a, n_w, n_b):
    return 4 * n_a + 2 * n_w + n_b


class TestLinkParams:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            LinkParams(g_a=-1.0, g_b=0.0)
        with pytest.raises(ValueError):
            LinkParams(g_a=1.0, g_b=1.0, kappa=-2.0)

    def test_frame_choice_must_be_consistent(self):
        with pytest.raises(ValueError):
            LinkParams(g_a=1.0, g_b=1.0, omega_q=1e9, omega_w=0.0)
        LinkParams(g_a=1.0, g_b=1.0, omega_q=1e9, omega_w=0.9e9)  # detuned lab frame
        LinkParams(g_a=1.0, g_b=1.0)  # rotating frame


class TestHamiltonian:
    def test_decoupled_resonant_diagonal(self):
        omega = 4e9
        params = LinkParams(g_a=0.0, g_b=0.0, omega_q=omega, omega_w=omega)
        h = hamiltonian_at(0.0, params, ConstantSchedule(0.0, 0.0), LAYOUT)
        i = idx(1, 0, 0)
        assert h[i, i] == pytest.approx(omega)
        off_diag = h - np.diag(np.diag(h))
        assert np.abs(off_diag).max() == 0.0

    def test_coupling_matrix_element_is_g_a(self):
        params = LinkParams(g_a=3.3e8, g_b=1.1e8)
        h = hamiltonian_at(0.0, params, params.constant_schedule(), LAYOUT)
        assert h[idx(1, 0, 0), idx(0, 1, 0)] == pytest.approx(3.3e8)
        assert h[idx(0, 0, 1), idx(0, 1, 0)] == pytest.approx(1.1e8)

    def test_stirap_schedule_enters_at_the_evaluation_time(self):
        g0 = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g0, g_b=g0)
        sched = default_stirap(g0)
        t = sched.t_center + 0.3 * sched.pulse_width
        h = hamiltonian_at(t, params, sched, LAYOUT)
        g_a, g_b = sched.couplings(t)
        assert h[idx(1, 0, 0), idx(0, 1, 0)] == pytest.approx(g_a)
        assert h[idx(0, 0, 1), idx(0, 1, 0)] == pytest.approx(g_b)

    def test_hermitian_by_construction(self, rng):
        for _ in range(10):
            params = LinkParams(
                g_a=rng.uniform(0, 1e9), g_b=rng.uniform(0, 1e9),
                omega_q=1e9, omega_w=rng.uniform(0.5e9, 2e9),
            )
            h = hamiltonian_at(0.0, params, params.constant_schedule(), LAYOUT)
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_multi_mediator_hop_terms(self):
        layout = link_layout(n_mediators=2)
        params = LinkParams(g_a=1.0, g_b=1.0)
        h = hamiltonian_at(0.0, params, params.constant_schedule(), layout, g_hop=0.7)
        # |0 1 0 0> <-> |0 0 1 0> hop amplitude
        ket_w1 = np.zeros(16)
        ket_w1[0b0100] = 1.0
        ket_w2 = np.zeros(16)
        ket_w2[0b0010] = 1.0
        assert (ket_w2 @ h @ ket_w1) == pytest.approx(0.7)

    def test_rejects_layout_without_mediator(self):
        from qlinksim.qspace import Qubit, SystemLayout

        params = LinkParams(g_a=1.0, g_b=1.0)
        with pytest.raises(ValueError):
            hamiltonian_at(0.0, params, params.constant_schedule(),
                           SystemLayout((Qubit(), Qubit())))


class TestLindbladRhs:
    def test_ground_state_is_stationary(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        params = fig4_params()
        h = hamiltonian_at(0.0, LinkParams(g_a=0.0, g_b=0.0), ConstantSchedule(0, 0), LAYOUT)
        collapse = standard_collapse(params, LAYOUT)
        out = lindblad_rhs(rho, h, collapse)
        assert np.abs(out).max() == pytest.approx(0.0, abs=1e-20)

    def test_trace_free_for_random_states(self, rng):
        h = make_hermitian(rng, 8)
        collapse = [
            CollapseChannel(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), 0.7),
            CollapseChannel(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), 1.3),
        ]
        for _ in range(10):
            rho = make_density_matrix(rng, 8)
            out = lindblad_rhs(rho, h, collapse)
            assert abs(np.trace(out)) < 1e-12

    def test_decoupled_qubit_matches_symbolic_expansion(self, rng):
        # 2x2 oracle: with L = sigma_minus and rate gamma,
        #   d(rho)/dt = gamma * [[rho11, -rho01/2], [-rho10/2, -rho11]]
        gamma = 0.8
        sm = local_operator("sigma_minus", 2)
        collapse = [CollapseChannel(sm, gamma)]
        h = np.zeros((2, 2), dtype=complex)
        for _ in range(10):
            rho = make_density_matrix(rng, 2)
            expected = gamma * np.array(
                [[rho[1, 1], -0.5 * rho[0, 1]], [-0.5 * rho[1, 0], -rho[1, 1]]]
            )
            np.testing.assert_allclose(lindblad_rhs(rho, h, collapse), expected, atol=1e-15)

    def test_excited_population_rate_is_minus_gamma(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        collapse = [CollapseChannel(local_operator("sigma_minus", 2), 2.5)]
        out = lindblad_rhs(rho, np.zeros((2, 2)), collapse)
        assert out[1, 1].real == pytest.approx(-2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(4) / 4, np.zeros((2, 2)), [])


class TestEvolve:
    def test_null_generator_returns_initial_state_exactly(self):
        params = LinkParams(g_a=0.0, g_b=0.0)
        rho0 = product_state([PureQubitSpec(theta=1.0, phi=0.5), None, None], LAYOUT)
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 1e-6), 1e-9, sample_every=100)
        # every stored sample is bit-identical: the generator contributes
        # exact zeros, so nothing can drift
        for state in traj.states:
            np.testing.assert_array_equal(state, traj.states[0])
        # storage symmetrization may move the input by at most one ulp
        np.testing.assert_allclose(traj.states[0], rho0, rtol=0.0, atol=1e-15)

    def test_rabi_transfer_matches_single_excitation_oracle(self):
        # Oracle: eigendecomposition of the 3x3 single-excitation block
        # [[0, g, 0], [g, 0, g], [0, g, 0]] evolving (1, 0, 0).
        g = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        t_star = math.pi / (math.sqrt(2.0) * g)
        h3 = np.array([[0, g, 0], [g, 0, g], [0, g, 0]], dtype=complex)
        lam, vec = np.linalg.eigh(h3)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)

        rho0 = product_state([EXCITED, None, None], LAYOUT)
        dt = t_star / 2000
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, t_star), dt, sample_every=100, target=EXCITED)

        for i, t in enumerate(traj.times):
            psi_t = vec @ (np.exp(-1j * lam * t) * (vec.conj().T @ psi0))
            pops = np.abs(psi_t) ** 2
            assert traj.pop_a[i] == pytest.approx(pops[0], abs=1e-9)
            assert traj.pop_w[i, 0] == pytest.approx(pops[1], abs=1e-9)
            assert traj.pop_b[i] == pytest.approx(pops[2], abs=1e-9)

        assert traj.pop_b[-1] >= 0.999
        assert traj.final_fidelity >= 0.999

    def test_exponential_decay_law(self):
        gamma = 6 * TWO_PI_MHZ
        params = LinkParams(g_a=0.0, g_b=0.0, gamma_a=gamma)
        rho0 = product_state([EXCITED, None, None], LAYOUT)
        t_end = 3.0 / gamma
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, t_end), 0.5 * NS, sample_every=10)
        for t, pop in zip(traj.times, traj.pop_a):
            assert pop == pytest.approx(math.exp(-gamma * t), rel=1e-6)

    def test_photon_loss_decay_law(self):
        kappa = 2 * TWO_PI_MHZ
        params = LinkParams(g_a=0.0, g_b=0.0, kappa=kappa)
        photon = np.diag([0.0, 1.0]).astype(complex)
        rho0 = product_state([None, photon, None], LAYOUT)
        t_end = 2.0 / kappa
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, t_end), 1 * NS, sample_every=100)
        assert traj.pop_w[-1, 0] == pytest.approx(math.exp(-kappa * t_end), rel=1e-6)

    def test_excitation_number_conserved_without_loss(self):
        g = 5.8 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        rho0 = product_state([PureQubitSpec(theta=2.0, phi=1.0), None, None], LAYOUT)
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 1e-6), 0.25 * NS, sample_every=200)
        total = traj.populations.sum(axis=1)
        assert np.abs(total - total[0]).max() < 1e-8

    def test_closed_system_purity_preserved(self):
        g = 5.8 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        rho0 = product_state([PureQubitSpec(theta=1.2), None, None], LAYOUT)
        # undamped phase errors accumulate ~ N (2 sqrt(2) g dt)^5 / 120, so the
        # step must over-resolve the Rabi rate to hold purity at 1e-6
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 1e-6), 0.2 * NS, sample_every=200)
        assert np.abs(traj.purity - 1.0).max() < 1e-6

    def test_sampled_states_are_valid_density_matrices(self):
        params = fig4_params()
        rho0 = product_state([PureQubitSpec(theta=math.pi / 2), None, None], LAYOUT)
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 2e-6), 0.5 * NS, sample_every=200,
                      target=PureQubitSpec(theta=math.pi / 2))
        assert np.abs(traj.trace - 1.0).max() < 1e-8
        for state in traj.states:
            assert np.abs(state - state.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh(state).min() > -1e-7
        assert np.all(traj.fidelity >= 0.0) and np.all(traj.fidelity <= 1.0)

    def test_oracle_agreement_for_constant_schedule(self):
        params = fig4_params()
        sched = params.constant_schedule()
        rho0 = product_state([PureQubitSpec(theta=math.pi / 2, phi=0.7), None, None], LAYOUT)
        collapse = standard_collapse(params, LAYOUT)
        h = hamiltonian_at(0.0, params, sched, LAYOUT)
        for t_end in [0.2 * US, 1.0 * US]:
            traj = evolve(rho0, LAYOUT, params, sched,
                          (0.0, t_end), 1 * NS, sample_every=10 ** 9)
            expected = propagator_oracle(rho0, h, collapse, t_end)
            assert np.abs(traj.final_state - expected).max() < 1e-6

    def test_halving_dt_changes_result_below_tolerance(self):
        params = fig4_params()
        sched = params.constant_schedule()
        rho0 = product_state([EXCITED, None, None], LAYOUT)
        finals = []
        for dt in [0.5 * NS, 0.25 * NS]:
            traj = evolve(rho0, LAYOUT, params, sched,
                          (0.0, 0.2 * US), dt, sample_every=10 ** 9)
            finals.append(traj.final_state)
        assert np.abs(finals[0] - finals[1]).max() < 1e-7

    def test_uniform_grid_lands_on_final_time(self):
        params = LinkParams(g_a=0.0, g_b=0.0)
        rho0 = product_state([None, None, None], LAYOUT)
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 1e-6), 0.3e-9, sample_every=1000)
        assert traj.times[-1] == pytest.approx(1e-6, rel=1e-12)

    def test_unstable_step_raises_integration_error_with_time(self):
        # STIRAP pulses at g0 = 100 x 2 pi MHz with a 6 ns step: RK4 turns unstable mid-pulse
        g = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        stirap = default_stirap(g)
        rho0 = product_state([EXCITED, None, None], LAYOUT)
        with pytest.raises(IntegrationError) as err:
            evolve(rho0, LAYOUT, params, stirap,
                   (0.0, default_stirap_window(stirap)[1]), 6 * NS, sample_every=10)
        assert err.value.t is not None

    def test_argument_validation(self):
        params = LinkParams(g_a=0.0, g_b=0.0)
        rho0 = product_state([None, None, None], LAYOUT)
        sched = params.constant_schedule()
        with pytest.raises(ValueError):
            evolve(rho0, LAYOUT, params, sched, (0.0, 1e-6), -1e-9)
        with pytest.raises(ValueError):
            evolve(rho0, LAYOUT, params, sched, (1e-6, 0.0), 1e-9)
        with pytest.raises(ValueError):
            evolve(rho0, LAYOUT, params, sched, (0.0, 1e-6), 1e-9, sample_every=0)
        with pytest.raises(ValueError):
            evolve(np.eye(4) / 4, LAYOUT, params, sched, (0.0, 1e-6), 1e-9)


def _run_link(t_span=(0.0, 1e-6), dt=1e-9):
    params = LinkParams(g_a=1e7, g_b=1e7)
    rho0 = product_state([EXCITED, None, None], LAYOUT)
    return evolve(rho0, LAYOUT, params, params.constant_schedule(), t_span, dt)


def _stirap(**kwargs):
    return StirapSchedule(**{"g0_a": 1e7, "g0_b": 1e7, "pulse_width": 1e-7, "t_delay": 1e-7,
                             **kwargs})


@pytest.mark.parametrize("field, build", [
    pytest.param("dt", lambda: _run_link(dt=math.inf), id="evolve-dt-inf"),
    pytest.param("dt", lambda: _run_link(dt=math.nan), id="evolve-dt-nan"),
    pytest.param("t_span", lambda: _run_link(t_span=(0.0, math.inf)), id="evolve-t1-inf"),
    pytest.param("t_span", lambda: _run_link(t_span=(math.nan, 1e-6)), id="evolve-t0-nan"),
    pytest.param("dt", lambda: link_channel(LinkParams(g_a=1e7, g_b=1e7),
                                            ConstantSchedule(g0_a=1e7, g0_b=1e7), 1e-6,
                                            math.nan), id="link-channel-dt-nan"),
    pytest.param("g_a", lambda: LinkParams(g_a=math.nan, g_b=1e7), id="params-g_a-nan"),
    pytest.param("kappa", lambda: LinkParams(g_a=1e7, g_b=1e7, kappa=math.inf),
                 id="params-kappa-inf"),
    pytest.param("gamma_b", lambda: LinkParams(g_a=1e7, g_b=1e7, gamma_b=math.nan),
                 id="params-gamma_b-nan"),
    pytest.param("omega_q", lambda: LinkParams(g_a=1e7, g_b=1e7, omega_q=math.inf,
                                               omega_w=1e8), id="params-omega_q-inf"),
    pytest.param("g0_b", lambda: ConstantSchedule(g0_a=1e7, g0_b=math.nan),
                 id="constant-g0_b-nan"),
    pytest.param("g0_a", lambda: _stirap(g0_a=math.inf), id="stirap-g0_a-inf"),
    pytest.param("pulse_width", lambda: _stirap(pulse_width=math.nan),
                 id="stirap-pulse_width-nan"),
    pytest.param("t_delay", lambda: _stirap(t_delay=math.inf), id="stirap-t_delay-inf"),
    pytest.param("t_center", lambda: _stirap(t_center=math.inf), id="stirap-t_center-inf"),
    pytest.param("t_center", lambda: _stirap(t_center=math.nan), id="stirap-t_center-nan"),
])
def test_non_finite_input_is_rejected_naming_the_field(field, build):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        build()


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _run_link(t_span=(0.0, 1e308), dt=1e-12), id="evolve"),
    pytest.param(lambda: link_channel(LinkParams(g_a=1e7, g_b=1e7),
                                      ConstantSchedule(g0_a=1e7, g0_b=1e7), 1e308, 1e-12),
                 id="link-channel"),
])
def test_step_count_past_the_float_range_is_rejected(run):
    # 1e308 s in steps of 1e-12 s is inf steps, which int() cannot round
    with pytest.raises(ValueError, match=r"^step count \(t1 - t0\) / dt = inf is not finite"):
        run()


class TestPropagatorOracle:
    def test_zero_time_returns_initial_state(self, rng):
        rho0 = make_density_matrix(rng, 8)
        h = make_hermitian(rng, 8)
        np.testing.assert_array_equal(propagator_oracle(rho0, h, [], 0.0), rho0)

    def test_refuses_large_systems(self):
        dim = 128
        with pytest.raises(ValueError):
            propagator_oracle(np.eye(dim) / dim, np.eye(dim), [], 1.0)

    def test_pure_photon_loss_closed_form(self):
        kappa = 3.0
        a = local_operator("annihilate", 2)
        photon = np.diag([0.0, 1.0]).astype(complex)
        out = propagator_oracle(photon, np.zeros((2, 2)), [CollapseChannel(a, kappa)], 0.7)
        assert out[1, 1].real == pytest.approx(math.exp(-kappa * 0.7), rel=1e-12)

    def test_liouvillian_reproduces_rhs(self, rng):
        h = make_hermitian(rng, 4)
        ops = [CollapseChannel(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 0.9)]
        sup = liouvillian(h, ops)
        rho = make_density_matrix(rng, 4)
        direct = lindblad_rhs(rho, h, ops)
        via_sup = (sup @ rho.reshape(-1, order="F")).reshape(4, 4, order="F")
        np.testing.assert_allclose(via_sup, direct, atol=1e-12)


# Pulsed links: (params, schedule, t_final, n_mediators, g_hop), each run to
# t_final. The weak-loss short pulse is the benchmark's stirap-compare link
# and its first tune-stirap point; its chain hops run past the window.
WEAK_LOSS = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                       gamma_a=0.006 * TWO_PI_MHZ, gamma_b=0.006 * TWO_PI_MHZ)
FIG5_RED = LinkParams(g_a=100 * TWO_PI_MHZ, g_b=100 * TWO_PI_MHZ, kappa=6 * TWO_PI_MHZ,
                      gamma_a=65 * TWO_PI_MHZ, gamma_b=65 * TWO_PI_MHZ)
FIG5_YELLOW = LinkParams(g_a=98 * TWO_PI_MHZ, g_b=98 * TWO_PI_MHZ, kappa=253 * TWO_PI_MHZ,
                         gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ)


def pulsed_link(params, width_us=None, delay_us=None, t_final_us=None, n_mediators=1,
                g_hop=0.0):
    """STIRAP over params, at the default adiabaticity unless width and delay are given."""
    schedule = default_stirap(params.g_a) if width_us is None else StirapSchedule(
        g0_a=params.g_a, g0_b=params.g_b, pulse_width=width_us * US, t_delay=delay_us * US)
    t_final = default_stirap_window(schedule)[1] if t_final_us is None else t_final_us * US
    return params, schedule, t_final, n_mediators, g_hop


@pytest.mark.parametrize("link, order", [
    (pulsed_link(WEAK_LOSS, 0.5, 0.6), True),
    (pulsed_link(WEAK_LOSS, 0.5, 0.6, t_final_us=4.0), False),
    (pulsed_link(WEAK_LOSS, 0.5, 1.2), False),
    (pulsed_link(WEAK_LOSS, 1.0, 0.6), False),
    (pulsed_link(WEAK_LOSS, 1.0, 1.2), False),
    (pulsed_link(fig4_params()), False),
    (pulsed_link(FIG5_RED), False),
    (pulsed_link(FIG5_YELLOW), False),
    (pulsed_link(WEAK_LOSS, 0.5, 0.6, n_mediators=2, g_hop=3.1 * TWO_PI_MHZ), False),
], ids=["short-pulse", "short-pulse-chain-hop", "tune-0.5-1.2", "tune-1.0-0.6", "tune-1.0-1.2",
        "fig4", "fig5-red", "fig5-yellow", "two-mediators-g-hop"])
def test_pulsed_default_step_meets_its_tolerance(link, order):
    # RK4 at the pulsed default step, against RK4 at dt/8: the fidelity |f|^2
    # at the run's end is within 1e-7. On the short pulse the error grows
    # 12-20x per doubling of the step, RK4's 4th order: measured 1.2e-11,
    # 2.0e-10 and 3.2e-9 at dt/2 (the 200-per-cycle step), dt and 2 dt
    params, schedule, t_final, n_mediators, g_hop = link
    dt = default_dt(params, schedule, g_hop)

    def fidelity(step):
        channel = link_channel(params, schedule, t_final, step, sample_every=sys.maxsize,
                               n_mediators=n_mediators, g_hop=g_hop)
        return abs(channel.f[-1]) ** 2

    reference = fidelity(dt / 8)
    error = abs(fidelity(dt) - reference)
    assert error <= 1e-7
    if order:
        finer, coarser = (abs(fidelity(factor * dt) - reference) for factor in (0.5, 2.0))
        assert 12 <= error / finer <= 20 and 12 <= coarser / error <= 20


class TestDefaults:
    def test_default_dt_resolves_fastest_rate(self):
        params = LinkParams(g_a=100 * TWO_PI_MHZ, g_b=100 * TWO_PI_MHZ)
        dt = default_dt(params)
        assert dt == pytest.approx(2 * math.pi / (200 * 100 * TWO_PI_MHZ))

    @pytest.mark.parametrize("omega_q, omega_w, g_hop, fastest", [
        (500.0, 500.0, 0.0, 500.0), (300.0, 500.0, 0.0, 500.0), (0.0, 0.0, 300.0, 300.0),
    ], ids=["lab-frame", "lab-frame-detuned", "g-hop"])
    def test_default_dt_resolves_every_rate_of_the_generator(self, omega_q, omega_w, g_hop,
                                                               fastest):
        # the generator's diagonal carries -i omega_q and -i omega_w themselves,
        # not their detuning, and g_hop couples neighbouring mediators
        params = LinkParams(g_a=100 * TWO_PI_MHZ, g_b=100 * TWO_PI_MHZ,
                            omega_q=omega_q * TWO_PI_MHZ, omega_w=omega_w * TWO_PI_MHZ)
        assert default_dt(params, g_hop=g_hop * TWO_PI_MHZ) == pytest.approx(
            2 * math.pi / (200 * fastest * TWO_PI_MHZ))

    def test_default_dt_capped_at_one_nanosecond(self):
        params = LinkParams(g_a=100.0, g_b=100.0)
        assert default_dt(params) == 1e-9
        assert default_dt(params, params.constant_schedule()) == 1e-9
        # a pulsed schedule's RK4 takes 100 steps per cycle, capped at 2 ns
        assert default_dt(params, default_stirap(params.g_a)) == 2e-9
        fast = LinkParams(g_a=100 * TWO_PI_MHZ, g_b=100 * TWO_PI_MHZ)
        assert default_dt(fast, default_stirap(fast.g_a)) == 2 * default_dt(fast)
        # but still 200 per cycle of the lab-frame carriers, whose phase error
        # builds up over the whole run
        lab = LinkParams(g_a=fast.g_a, g_b=fast.g_b, omega_q=150 * TWO_PI_MHZ,
                         omega_w=150 * TWO_PI_MHZ)
        assert default_dt(lab, default_stirap(lab.g_a)) == default_dt(lab) == pytest.approx(
            2 * math.pi / (200 * 150 * TWO_PI_MHZ), rel=1e-15)

    def test_standard_collapse_channel_count(self):
        params = fig4_params()
        channels = standard_collapse(params, LAYOUT)
        assert len(channels) == 3
        rates = sorted(ch.rate for ch in channels)
        assert rates == sorted([params.gamma_a, params.gamma_b, params.kappa])

    def test_standard_collapse_skips_zero_rates(self):
        params = LinkParams(g_a=1.0, g_b=1.0)
        assert standard_collapse(params, LAYOUT) == []

    def test_stabilization_time(self):
        params = fig4_params()
        rho0 = product_state([EXCITED, None, None], LAYOUT)
        traj = evolve(rho0, LAYOUT, params, params.constant_schedule(),
                      (0.0, 1e-6), 1 * NS, sample_every=10, target=EXCITED)
        t_stab = traj.stabilization_time(tol=0.01)
        assert 0.0 < t_stab < 1e-6
        settled = traj.fidelity[traj.times >= t_stab]
        assert np.abs(settled - traj.fidelity[-1]).max() < 0.01
