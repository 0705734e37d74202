"""The link as its qubit channel, against the constructions it replaced.

dynamics.link_channel runs a link once, from |1> on A, on generators built
site by site. Every metric, hop, chain and sweep point is read off that run
in closed form. The references here are the kron-built drift restricted to
the one-excitation states, one evolve run per input with a partial trace,
and, from conftest, evolve_dense and the Choi state of a reference-qubit probe.
"""

import math
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from conftest import (
    choi_coherent_information,
    choi_entanglement_fidelity,
    drift_terms,
    evolve_dense,
    evolved_hop,
    run_choi_probe,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinksim import dynamics, network
from qlinksim.dynamics import (
    IntegrationError,
    LinkParams,
    default_dt,
    evolve,
    link_channel,
    link_generators,
    receiver_frame,
    standard_collapse,
)
from qlinksim.metrics import probe_curve
from qlinksim.network import LinkSpec, MediumModel, distance_sweep, run_chain
from qlinksim.protocols import StirapSchedule, default_stirap, default_stirap_window
from qlinksim.qspace import PureQubitSpec, link_layout, partial_trace, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
EQUIVALENCE_TOL = 1e-12
COHERENT_INFO_TOL = 1e-10
RK4_ERROR_TOL = 1e-6  # RK4 on the amplitudes against RK4 on rho


def site_ordered_sector(layout):
    """Basis index of the state with the excitation on site i, for each site in order."""
    return np.ravel_multi_index(tuple(np.eye(layout.n_sites, dtype=int)), layout.dims)


GENERATOR_CASES = {
    "zero-rates": LinkParams(g_a=0.0, g_b=0.0),
    "rotating-lossy": LinkParams(g_a=3e7, g_b=5e7, kappa=2e6, gamma_a=4e5, gamma_b=7e5),
    "lab-frame": LinkParams(g_a=3e7, g_b=5e7, omega_q=2e8, omega_w=3e8, kappa=2e6,
                            gamma_a=4e5, gamma_b=7e5),
}


@pytest.mark.parametrize("n_mediators", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(GENERATOR_CASES))
def test_generators_are_the_kron_built_drift_on_the_sector(case, n_mediators):
    params = GENERATOR_CASES[case]
    g_hop = 4e7 if n_mediators > 1 else 0.0
    layout = link_layout(n_mediators=n_mediators)
    collapse = standard_collapse(params, layout)
    drift = drift_terms(dynamics.hamiltonian_terms(params, layout, g_hop=g_hop), collapse)
    one = site_ordered_sector(layout)
    restricted = np.stack([m[np.ix_(one, one)] for m in drift])
    np.testing.assert_allclose(link_generators(params, n_mediators, g_hop), restricted,
                               rtol=0, atol=1e-15)
    # the drift maps the vacuum to 0 and the one-excitation states into
    # themselves, and every jump maps those onto the vacuum, so the
    # restriction is the whole of a run that starts in vacuum (+) one excitation
    off_one = np.ones(layout.total_dim, dtype=bool)
    off_one[one] = False
    for m in drift:
        assert not m[:, 0].any() and not m[np.ix_(off_one, one)].any()
    for ch in collapse:
        assert not ch.operator[:, 0].any() and not ch.operator[1:, one].any()


def test_generators_need_a_mediator():
    with pytest.raises(ValueError, match="at least one mediator"):
        link_generators(LinkParams(g_a=1.0, g_b=1.0), n_mediators=0)


def test_default_step_resolves_the_hopping_between_mediators():
    params = LinkParams(g_a=3e7, g_b=3e7)
    g_hop = 3e8
    dt = default_dt(params, g_hop=g_hop)
    assert dt < default_dt(params)
    channel = link_channel(params, params.constant_schedule(), 100 * dt, n_mediators=2,
                           g_hop=g_hop)
    assert channel.times[1] == pytest.approx(dt, rel=1e-12)


def test_received_state_pins_the_conjugation_convention():
    # a lab-frame pulsed link and an input whose coherence x is complex:
    # B receives [[1 - p |f|^2, x f*], [x* f, p |f|^2]], not x* f above the diagonal
    g = 5.8 * TWO_PI_MHZ
    params = LinkParams(g_a=g, g_b=g, omega_q=24.1 * TWO_PI_MHZ, omega_w=24.1 * TWO_PI_MHZ,
                        kappa=0.34 * TWO_PI_MHZ, gamma_a=0.006 * TWO_PI_MHZ,
                        gamma_b=0.006 * TWO_PI_MHZ)
    schedule = StirapSchedule(g0_a=g, g0_b=g, pulse_width=0.25e-6, t_delay=0.3e-6)
    t_final, dt = default_stirap_window(schedule)[1], 0.25e-9
    spec = PureQubitSpec(theta=1.1, phi=math.radians(60.0))
    rho_a = spec.density_matrix()

    channel = link_channel(params, schedule, t_final, dt, sample_every=50)
    received = channel.received_state(rho_a)
    f, x, p = channel.f[-1], rho_a[0, 1], rho_a[1, 1].real
    np.testing.assert_allclose(
        received, [[1 - p * abs(f) ** 2, x * np.conj(f)], [np.conj(x) * f, p * abs(f) ** 2]],
        rtol=0, atol=EQUIVALENCE_TOL)
    assert abs(f) > 0.9 and abs(x * np.conj(f) - np.conj(x) * f) > 0.5  # x* f is far off

    layout = link_layout()
    run = dict(rho0=product_state([spec, None, None], layout), layout=layout, params=params,
               schedule=schedule, t_span=(0.0, t_final), dt=dt, sample_every=50)
    for stepper, tol in ((evolve, EQUIVALENCE_TOL), (evolve_dense, RK4_ERROR_TOL)):
        final = stepper(**run).final_state
        np.testing.assert_allclose(received, receiver_frame(partial_trace(final, 2, layout)),
                                   rtol=0, atol=tol, err_msg=stepper.__name__)


# --- property: closed forms against the Choi reference -------------------------

rates = st.floats(0.0, 20.0)  # x 2 pi MHz


@st.composite
def channel_runs(draw):
    n_mediators = draw(st.sampled_from([1, 2]))
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
    dt = 2 * math.pi / (200 * max(params.g_a, params.g_b, params.omega_q, params.omega_w,
                                   params.kappa, params.gamma_a, params.gamma_b, g_hop))
    t_final = draw(st.integers(20, 300)) * dt
    if draw(st.booleans()):
        width = t_final / 6
        schedule = StirapSchedule(g0_a=params.g_a, g0_b=params.g_b, pulse_width=width,
                                  t_delay=draw(st.floats(0.3, 1.5)) * width)
    else:
        schedule = params.constant_schedule()
    # (I + r.sigma)/2 with |r| <= 1
    r = draw(st.floats(0.0, 1.0))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2 * math.pi))
    x, y, z = (r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi),
               r * math.cos(theta))
    rho_a = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return dict(params=params, schedule=schedule, t_final=t_final, dt=dt,
                sample_every=draw(st.integers(1, 50)), n_mediators=n_mediators,
                g_hop=g_hop), rho_a


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(channel_runs())
def test_closed_forms_match_the_choi_reference(case):
    run, rho_a = case
    channel = link_channel(**run)
    probe = run_choi_probe(**run)
    np.testing.assert_array_equal(channel.times, probe.trajectory.times)

    info, f_e = probe_curve(channel)
    joints = probe.trajectory.states
    np.testing.assert_allclose(info, [choi_coherent_information(probe, j) for j in joints],
                               rtol=0, atol=COHERENT_INFO_TOL)
    np.testing.assert_allclose(f_e, [choi_entanglement_fidelity(probe, j) for j in joints],
                               rtol=0, atol=EQUIVALENCE_TOL)

    target = PureQubitSpec(theta=1.1, phi=0.7)
    hop = channel.link_trajectory(target, rho_a)
    reference = probe.link_trajectory(target, rho_a)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(hop, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)
    np.testing.assert_allclose(hop.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    link = reference.layout
    np.testing.assert_allclose(
        channel.received_state(rho_a),
        receiver_frame(partial_trace(reference.final_state, link.n_sites - 1, link)),
        rtol=0, atol=EQUIVALENCE_TOL)


# --- hops, chains and sweeps against one evolve run per hop ---------------------

G = 5.8 * TWO_PI_MHZ
LOSSY = LinkParams(g_a=G, g_b=G, kappa=0.34 * TWO_PI_MHZ, gamma_a=0.5 * TWO_PI_MHZ,
                   gamma_b=0.5 * TWO_PI_MHZ)
T_STAR = math.pi / (math.sqrt(2.0) * G)


def lossy_link(**kwargs):
    return LinkSpec(params=LOSSY, schedule=LOSSY.constant_schedule(),
                    **{"hop_time": T_STAR, "dt": T_STAR / 500, "sample_every": 7, **kwargs})


def assert_trajectories_equal(traj, want):
    np.testing.assert_array_equal(traj.times, want.times)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(traj, column), getattr(want, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


def test_chain_composes_like_hops_evolved_one_by_one():
    # a repeated link, a longer one and a two-mediator one, each run once
    links = [lossy_link(), lossy_link(), lossy_link(hop_time=1.5 * T_STAR),
             lossy_link(n_mediators=2, g_hop=G), lossy_link()]
    target = PureQubitSpec(theta=2.2, phi=1.0)
    with mock.patch.object(network, "link_channel", wraps=network.link_channel) as runs:
        result = run_chain(target, links)
    assert [call.args[0] for call in runs.call_args_list] == [links[0], links[2], links[3]]
    state = target.density_matrix()
    for rec, link in zip(result.per_hop, links):
        state, traj = evolved_hop(state, link, target)
        np.testing.assert_allclose(rec.output_state, state, rtol=0, atol=EQUIVALENCE_TOL)
        assert_trajectories_equal(rec.trajectory, traj)


def test_sweep_points_match_evolved_hops():
    # the sweep runs its points as one stacked run; each is held to its own
    # hop, evolved on its own link
    template = lossy_link(medium=MediumModel(cavity_loss_per_m=1e5))
    target = PureQubitSpec(theta=1.0, phi=2.0)
    kinds, lengths = [network.CAVITY, network.FIBER], [0.0, 3.0, 30.0]
    got = distance_sweep(template, kinds, lengths, target)
    assert [(p.kind, p.length) for p in got] == sorted(product(kinds, lengths))
    for p in got:
        link = replace(template, medium=replace(template.medium, kind=p.kind, length=p.length))
        _, want = evolved_hop(target.density_matrix(), link, target)
        assert p.fidelity == pytest.approx(want.final_fidelity, abs=EQUIVALENCE_TOL)
        assert_trajectories_equal(p.trajectory, want)


def test_failing_link_names_its_first_hop_and_time():
    # the third hop's link is unstable at its step: its STIRAP pulses with a
    # 6 ns step fail mid-pulse, at step 74
    g = 100 * TWO_PI_MHZ
    params = LinkParams(g_a=g, g_b=g, kappa=6 * TWO_PI_MHZ)
    good = LinkSpec(params=params, schedule=params.constant_schedule(), hop_time=0.2e-6,
                    dt=0.25e-9)
    stirap = default_stirap(g)
    window = default_stirap_window(stirap)[1]
    bad = LinkSpec(params=params, schedule=stirap, hop_time=window, dt=6e-9)
    with pytest.raises(IntegrationError, match=r"^hop 3: vacuum refill") as err:
        run_chain(PureQubitSpec(theta=math.pi / 2), [good, good, bad, bad])
    assert err.value.t == pytest.approx(74 * window / 191, rel=1e-12)
    assert "(step 74 of 191, dt = 5.999558e-09 s" in str(err.value)
