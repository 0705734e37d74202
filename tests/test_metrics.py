import math

import numpy as np
import pytest

from conftest import (
    ChannelProbe,
    bell_phi_plus,
    choi_coherent_information,
    choi_entanglement_fidelity,
    choi_probe_curve,
    make_density_matrix,
    make_link_run,
    refilled_states,
    rk4_columns,
    run_choi_probe,
    sampled_trajectory,
)
from qlinksim.dynamics import (
    CollapseChannel,
    HamiltonianTerms,
    IntegrationError,
    LinkChannel,
    LinkParams,
    default_dt,
    evolve,
    hamiltonian_terms,
    receiver_frame,
    standard_collapse,
)
from qlinksim.metrics import (
    average_fidelity,
    coherent_information,
    entanglement_fidelity,
    haar_qubit_specs,
    probe_curve,
    run_channel_probe,
    transfer_fidelity,
)
from qlinksim.protocols import StirapSchedule, default_stirap_window
from qlinksim.qspace import (
    InvalidStateError,
    Mode,
    PureQubitSpec,
    Qubit,
    SystemLayout,
    link_layout,
    partial_trace,
    product_state,
    von_neumann_entropy,
)

TWO_PI_MHZ = 2 * math.pi * 1e6

PROBE_LAYOUT = SystemLayout((Qubit(), Qubit(), Mode(2), Qubit()))  # (R, A, W, B)


def ideal_params(g=100 * TWO_PI_MHZ):
    return LinkParams(g_a=g, g_b=g)


def transfer_time(params):
    return math.pi / (math.sqrt(2.0) * params.g_a)


def probe_from_joint(joint: np.ndarray) -> ChannelProbe:
    return ChannelProbe(layout=PROBE_LAYOUT, joint_initial=joint, evolved_joint=joint)


def joint_from_parts(rho_r, rho_a, rho_w, rho_b) -> np.ndarray:
    return np.kron(np.kron(np.kron(rho_r, rho_a), rho_w), rho_b)


def joint_from_rb(rho_rb: np.ndarray, rho_a, rho_w) -> np.ndarray:
    """Assemble a (R, A, W, B) state from a joint (R, B) state and products."""
    # order (R, B, A, W) -> permute sites to (R, A, W, B)
    rho = np.kron(rho_rb, np.kron(rho_a, rho_w))
    tensor = rho.reshape((2, 2, 2, 2) * 2)
    perm = (0, 2, 3, 1)
    tensor = tensor.transpose(perm + tuple(4 + p for p in perm))
    return tensor.reshape(16, 16)


GROUND = np.diag([1.0, 0.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


class TestTransferFidelity:
    def test_matched_ground_state(self):
        assert transfer_fidelity(GROUND, PureQubitSpec(theta=0.0)) == 1.0

    def test_maximally_mixed_scores_half(self):
        for theta, phi in [(0.0, 0.0), (math.pi / 2, 1.0), (math.pi, 0.0)]:
            assert transfer_fidelity(MIXED, PureQubitSpec(theta=theta, phi=phi)) == pytest.approx(0.5)

    def test_orthogonal_state_scores_zero(self):
        minus = PureQubitSpec(theta=math.pi / 2, phi=math.pi).density_matrix()
        plus = PureQubitSpec(theta=math.pi / 2, phi=0.0)
        assert transfer_fidelity(minus, plus) == pytest.approx(0.0, abs=1e-15)

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(20):
            rho = make_density_matrix(rng, 2)
            spec = PureQubitSpec(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
            assert 0.0 <= transfer_fidelity(rho, spec) <= 1.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            transfer_fidelity(np.eye(4) / 4, PureQubitSpec(theta=0.0))


class TestChannelProbe:
    """The Choi-state reference the closed forms are checked against."""

    def test_initial_joint_restricted_to_r_a_is_bell(self):
        params = ideal_params()
        probe = run_choi_probe(params, params.constant_schedule(), 1e-12, dt=1e-12)
        rho_ra = partial_trace(probe.joint_initial, (0, 1), probe.layout)
        np.testing.assert_allclose(rho_ra, bell_phi_plus(), atol=1e-15)

    def test_initial_b_is_ground(self):
        params = ideal_params()
        probe = run_choi_probe(params, params.constant_schedule(), 1e-12, dt=1e-12)
        rho_b = partial_trace(probe.joint_initial, probe.site_b, probe.layout)
        np.testing.assert_allclose(rho_b, GROUND, atol=1e-15)

    def test_reference_qubit_stays_idle(self):
        params = LinkParams(
            g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ,
            kappa=TWO_PI_MHZ, gamma_a=TWO_PI_MHZ, gamma_b=TWO_PI_MHZ,
        )
        t_star = transfer_time(params)
        probe = run_choi_probe(params, params.constant_schedule(), t_star, dt=t_star / 500)
        rho_r = partial_trace(probe.evolved_joint, 0, probe.layout)
        np.testing.assert_allclose(rho_r, MIXED, atol=1e-9)


class TestCoherentInformation:
    def test_ideal_channel_reaches_one_bit(self):
        params = ideal_params()
        t_star = transfer_time(params)
        probe = run_channel_probe(params, params.constant_schedule(), t_star, dt=t_star / 2000)
        assert coherent_information(probe) >= 0.99

    def test_replacement_channel_is_minus_one(self):
        params = LinkParams(g_a=0.0, g_b=0.0)
        probe = run_channel_probe(params, params.constant_schedule(), 1e-7, dt=1e-9)
        assert coherent_information(probe) == pytest.approx(-1.0, abs=1e-6)

    def test_depolarized_output_is_minus_one(self):
        # S(B) = 1 bit, S(RB) = 2 bits for R (x) B both maximally mixed
        joint = joint_from_parts(MIXED, GROUND, GROUND, MIXED)
        assert choi_coherent_information(probe_from_joint(joint)) == pytest.approx(
            -1.0, abs=1e-12)

    def test_bounded_by_output_entropy_and_one_bit(self):
        params = LinkParams(
            g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
            gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ,
        )
        t_star = transfer_time(params)
        channel = run_channel_probe(params, params.constant_schedule(), t_star,
                                    dt=t_star / 500)
        info = coherent_information(channel)
        probe = run_choi_probe(params, params.constant_schedule(), t_star, dt=t_star / 500)
        rho_b = partial_trace(probe.evolved_joint, probe.site_b, probe.layout)
        assert info <= von_neumann_entropy(rho_b) + 1e-12
        assert info <= 1.0 + 1e-12

    def test_closed_system_joint_state_stays_pure(self):
        params = ideal_params()
        t_star = transfer_time(params)
        probe = run_choi_probe(params, params.constant_schedule(), t_star, dt=t_star / 2000)
        rho_rb = partial_trace(probe.evolved_joint, (0, probe.site_b), probe.layout)
        assert von_neumann_entropy(rho_rb) < 1e-3

    def test_unevolved_probe_rejected(self):
        probe = ChannelProbe(layout=PROBE_LAYOUT, joint_initial=np.eye(16) / 16)
        with pytest.raises(ValueError):
            choi_coherent_information(probe)


class TestEntanglementFidelity:
    def test_ideal_transfer(self):
        params = ideal_params()
        t_star = transfer_time(params)
        probe = run_channel_probe(params, params.constant_schedule(), t_star, dt=t_star / 2000)
        assert entanglement_fidelity(probe) >= 0.999

    def test_replacement_channel_is_quarter(self):
        joint = joint_from_parts(MIXED, GROUND, GROUND, GROUND)
        assert choi_entanglement_fidelity(probe_from_joint(joint)) == pytest.approx(
            0.25, abs=1e-12)

    def test_fully_dephased_bell_mixture_is_half(self):
        phi_plus = bell_phi_plus()
        ket_minus = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
        phi_minus = np.outer(ket_minus, ket_minus.conj())
        rho_rb = 0.5 * (phi_plus + phi_minus)
        joint = joint_from_rb(rho_rb, GROUND, GROUND)
        assert choi_entanglement_fidelity(probe_from_joint(joint)) == pytest.approx(
            0.5, abs=1e-12)


class TestHaarSampling:
    def test_deterministic_given_seed(self):
        a = haar_qubit_specs(10, seed=3)
        b = haar_qubit_specs(10, seed=3)
        assert [(s.theta, s.phi) for s in a] == [(s.theta, s.phi) for s in b]

    def test_ranges(self):
        for spec in haar_qubit_specs(200, seed=5):
            assert 0.0 <= spec.theta <= math.pi
            assert 0.0 <= spec.phi < 2 * math.pi

    def test_polar_mean(self):
        n = 500
        specs = haar_qubit_specs(n, seed=11)
        mean = np.mean([math.cos(s.theta / 2) ** 2 for s in specs])
        assert abs(mean - 0.5) < 3.0 / math.sqrt(n)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            haar_qubit_specs(0, seed=1)


class TestAverageFidelity:
    def test_identity_link_scores_one(self):
        assert average_fidelity(lambda s: s.density_matrix(), 50, seed=9) == pytest.approx(1.0)

    def test_replacement_link_scores_half(self):
        n = 500
        avg = average_fidelity(lambda s: GROUND, n, seed=42)
        assert abs(avg - 0.5) < 3.0 / math.sqrt(n)

    def test_haar_average_matches_entanglement_fidelity_identity(self):
        # Amplitude damping with strength p, checked against the qubit
        # identity  F_avg = (2 F_e + 1) / 3  with F_e from the Choi state.
        p = 0.3
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex)
        k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex)

        def channel(rho):
            return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T

        avg = average_fidelity(lambda s: channel(s.density_matrix()), 500, seed=42)
        eye = np.eye(2, dtype=complex)
        choi = sum(
            np.kron(eye, k) @ bell_phi_plus() @ np.kron(eye, k).conj().T for k in (k0, k1)
        )
        f_e = float(np.real(np.trace(bell_phi_plus() @ choi)))
        assert abs(avg - (2.0 * f_e + 1.0) / 3.0) < 0.01

    def test_link_run_uses_receiver_frame(self):
        params = ideal_params()
        t_star = transfer_time(params)
        run = make_link_run(params, params.constant_schedule(), t_star, dt=t_star / 2000)
        spec = PureQubitSpec(theta=math.pi / 2, phi=0.4)
        assert transfer_fidelity(run(spec), spec) >= 0.999
        # without the frame alignment the equator state would score ~0
        raw = receiver_frame(run(spec))
        assert transfer_fidelity(raw, spec) < 0.01


# The probe's Choi-state map against one evolution of its own per input, on fig4
# with constant drive and on the weak-loss link (fig4 with 1000x weaker qubit
# decay) with a short pulse pair.
FIG4 = LinkParams(
    g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
    gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ,
)
WEAK_LOSS = LinkParams(
    g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
    gamma_a=0.006 * TWO_PI_MHZ, gamma_b=0.006 * TWO_PI_MHZ,
)
SHORT_STIRAP = StirapSchedule(
    g0_a=WEAK_LOSS.g_a, g0_b=WEAK_LOSS.g_b, pulse_width=0.5e-6, t_delay=0.6e-6,
)
EQUIVALENCE_TOL = 1e-12


@pytest.fixture(scope="module", params=["fig4-constant", "weak-loss-stirap"])
def link_case(request):
    """(params, schedule, t_final, dt, sample_every), the link's channel and its Choi probe."""
    if request.param == "fig4-constant":
        params, schedule = FIG4, FIG4.constant_schedule()
        t_final = 2 * transfer_time(FIG4)
        dt = default_dt(params, schedule)
    else:
        params, schedule = WEAK_LOSS, SHORT_STIRAP
        t_final = default_stirap_window(SHORT_STIRAP)[1]
        dt = 2e-9
    setup = (params, schedule, t_final, dt, 7)
    channel = run_channel_probe(params, schedule, t_final, dt, sample_every=7)
    probe = run_choi_probe(params, schedule, t_final, dt, sample_every=7)
    return setup, channel, probe


def probe_ending_with_b_eigenvalue(lam: float) -> ChannelProbe:
    """Two-sample probe whose final state has eigenvalue lam on B."""
    bad_b = np.diag([1.0 - lam, lam]).astype(complex)
    good = joint_from_parts(MIXED, GROUND, GROUND, GROUND)
    bad = joint_from_parts(MIXED, GROUND, GROUND, bad_b)
    traj = sampled_trajectory(PROBE_LAYOUT, np.array([0.0, 1e-9]), np.stack([good, bad]))
    return ChannelProbe(layout=PROBE_LAYOUT, joint_initial=good, evolved_joint=bad,
                        trajectory=traj)


def lifted_probe(params, schedule, t_final, dt, sample_every):
    """The probe evolved on (R, A, W, B) by RK4 on its lifted state vector: the reference.

    The link's Hamiltonian terms and jumps are lifted as I_R (x) X, so R stays
    idle. The run starts from |Phi+> on (R, A) with the link in vacuum. The
    vector evolves under the no-jump drift, and the norm it loses is put back
    on |1_R> (x) vacuum, where every jump of the excitation lands.
    """
    layout = link_layout()
    eye_r = np.eye(2, dtype=complex)
    terms = hamiltonian_terms(params, layout)
    lifted_terms = HamiltonianTerms(
        *(np.kron(eye_r, m) for m in (terms.h_static, terms.h_a, terms.h_b)))
    lifted_collapse = [CollapseChannel(np.kron(eye_r, ch.operator), ch.rate)
                       for ch in standard_collapse(params, layout)]
    bell, vacuum = np.array([1, 0, 0, 1]) / math.sqrt(2), np.eye(4)[0]
    times, columns = rk4_columns(lifted_terms, lifted_collapse, schedule,
                                 np.kron(bell, vacuum)[:, None], (0.0, t_final), dt,
                                 sample_every)
    one_r_vacuum = 0b1000
    return sampled_trajectory(PROBE_LAYOUT, times, refilled_states(columns, 1, one_r_vacuum, 0))


class TestProbeChannelMap:
    def test_choi_states_match_the_lifted_dense_probe(self, link_case):
        (params, schedule, t_final, dt, sample_every), _, probe = link_case
        dense = lifted_probe(params, schedule, t_final, dt, sample_every)
        np.testing.assert_array_equal(probe.trajectory.times, dense.times)
        np.testing.assert_allclose(probe.trajectory.states, dense.states,
                                   rtol=0, atol=EQUIVALENCE_TOL)
        np.testing.assert_allclose(probe.joint_initial, dense.states[0],
                                   rtol=0, atol=EQUIVALENCE_TOL)

    def test_link_run_matches_dense_link_run(self, link_case):
        (params, schedule, t_final, dt, _), channel, _ = link_case
        dense = make_link_run(params, schedule, t_final, dt)
        derived = channel.link_run()
        specs = [PureQubitSpec(theta=0.0), PureQubitSpec(theta=math.pi)]
        specs += haar_qubit_specs(3, seed=7)
        for spec in specs:
            np.testing.assert_allclose(derived(spec), dense(spec), rtol=0, atol=EQUIVALENCE_TOL)

    def test_link_trajectory_matches_evolve(self, link_case):
        (params, schedule, t_final, dt, sample_every), channel, _ = link_case
        target = PureQubitSpec(theta=1.1, phi=0.7)
        layout = link_layout()
        rho0 = product_state([target, None, None], layout)
        dense = evolve(rho0, layout, params, schedule, standard_collapse(params, layout),
                       (0.0, t_final), dt, sample_every=sample_every, target=target)
        derived = channel.link_trajectory(target)
        np.testing.assert_array_equal(derived.times, dense.times)
        for column in ("populations", "trace", "purity", "fidelity"):
            np.testing.assert_allclose(getattr(derived, column), getattr(dense, column),
                                       rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)
        np.testing.assert_allclose(derived.states, dense.states, rtol=0, atol=EQUIVALENCE_TOL)
        assert derived.stabilization_time() == dense.stabilization_time()

    def test_batched_curve_matches_per_sample_metrics(self, link_case):
        # the closed forms against the Choi reference's eigvalsh, sample by sample
        _, channel, probe = link_case
        info, f_e = probe_curve(channel)
        states = probe.trajectory.states
        np.testing.assert_array_equal(channel.times, probe.trajectory.times)
        assert len(info) == len(f_e) == len(states)
        np.testing.assert_allclose(
            info, [choi_coherent_information(probe, j) for j in states],
            rtol=0, atol=EQUIVALENCE_TOL)
        np.testing.assert_allclose(
            f_e, [choi_entanglement_fidelity(probe, j) for j in states],
            rtol=0, atol=EQUIVALENCE_TOL)
        assert coherent_information(channel) == info[-1]
        assert entanglement_fidelity(channel) == f_e[-1]

    def test_negative_eigenvalue_rejected_by_both_curve_paths(self):
        # eigenvalue -1e-6: within evolve's tolerance, beyond the entropy's;
        # on the channel, the (R, B) eigenvalue (1 - |f|^2)/2 of |f|^2 = 1 + 2e-6
        channel = LinkChannel(np.array([0.0, 1e-9]),
                              np.array([[1.0, 0, 0], [0, 0, -math.sqrt(1.0 + 2e-6)]]))
        probe = probe_ending_with_b_eigenvalue(-1e-6)
        for curve in (lambda: coherent_information(channel), lambda: probe_curve(channel),
                      lambda: choi_coherent_information(probe, probe.evolved_joint),
                      lambda: choi_probe_curve(probe)):
            with pytest.raises(InvalidStateError, match="below -1e-07"):
                curve()

    def test_derived_link_states_are_checked_like_dense_samples(self):
        # the reference's derived states: the probe state's eigenvalue -7.5e-6
        # passes evolve's -1e-5 threshold; the derived link state's -1.5e-5 does not
        probe = probe_ending_with_b_eigenvalue(-1.5e-5)
        spec = PureQubitSpec(theta=0.3, phi=1.0)
        with pytest.raises(IntegrationError, match="below -1e-05") as err:
            probe.link_run()(spec)
        assert err.value.t == 1e-9
        with pytest.raises(IntegrationError, match="below -1e-05"):
            probe.link_trajectory(spec)

    def test_unevolved_probe_rejected(self):
        probe = ChannelProbe(layout=PROBE_LAYOUT, joint_initial=np.eye(16) / 16)
        for derive in (probe.link_run, lambda: probe.link_trajectory(PureQubitSpec(0.0)),
                       lambda: choi_probe_curve(probe)):
            with pytest.raises(ValueError, match="not been evolved"):
                derive()
