"""The one-excitation amplitude engine against its references.

evolve steps the amplitudes of the one-excitation states of a link run that
starts in vacuum (+) one excitation, and rejects every other run. A pulsed
run's reference here is the same RK4 on the run's full-space column vectors
plus the vacuum refill (conftest's sector_reference), and a constant run's
is the exponential of the Liouvillian at every sample (conftest's
oracle_reference); each agrees to roundoff. conftest's evolve_dense (RK4 on
the whole density matrix) agrees to the RK4 error.
"""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    SMALL_SCENARIOS,
    evolve_dense,
    evolved_hop,
    hamiltonian_at,
    oracle_reference,
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
from qlinksim.protocols import (
    ConstantSchedule,
    StirapSchedule,
    default_stirap,
    default_stirap_window,
)
from qlinksim.qspace import Mode, PureQubitSpec, Qubit, SystemLayout, link_layout, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
EQUIVALENCE_TOL = 1e-12

FIG4 = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                  gamma_a=6 * TWO_PI_MHZ, gamma_b=6 * TWO_PI_MHZ)
LOW_LOSS = LinkParams(g_a=5.8 * TWO_PI_MHZ, g_b=5.8 * TWO_PI_MHZ, kappa=0.34 * TWO_PI_MHZ,
                      gamma_a=0.006 * TWO_PI_MHZ, gamma_b=0.006 * TWO_PI_MHZ)
LOW_LOSS_STIRAP = StirapSchedule(g0_a=LOW_LOSS.g_a, g0_b=LOW_LOSS.g_b,
                                 pulse_width=0.5e-6, t_delay=0.6e-6)
# the engine's exact constant drive and RK4 on rho differ by RK4's error,
# about 1e-7 at fig4's default step
RK4_ERROR_TOL = 1e-6


def reference_run(run):
    """The engine's reference for a run: exact for a constant drive, else RK4 on its columns."""
    exact = isinstance(run["schedule"], ConstantSchedule)
    return (oracle_reference if exact else sector_reference)(**run)


# --- property: the amplitude engine is exact for a constant drive, else RK4 ----

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
    dt = 2 * math.pi / (200 * max(params.g_a, params.g_b, params.omega_q, params.omega_w,
                                   params.kappa, params.gamma_a, params.gamma_b, g_hop))
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
    reference = reference_run(run)
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


def fig5_red_stirap_run(dt, input_a=PureQubitSpec(theta=math.pi), t_center=-1.0):
    """fig5-red under its default STIRAP, centred at t_center, over its pulse window."""
    schedule = replace(default_stirap(FIG5_RED_G), t_center=t_center)  # -1: 3 T
    return fig5_red_run(default_stirap_window(schedule)[1], dt, schedule, input_a=input_a)


def test_unstable_step_fails_at_the_dense_paths_time():
    # fig5-red STIRAP with g_B at its peak from t = 0 and a 6 ns step: RK4 is
    # unstable at this coupling. The engine checks every step, the dense path
    # only its samples, so the engine fails first, at the first step whose
    # refill breaks the bound. (Where the coupling ramps up, RK4 on rho, whose
    # generator has twice the spectral radius, turns unstable before it.)
    run = fig5_red_stirap_run(6e-9, input_a=PureQubitSpec(theta=math.pi / 2), t_center=0.0)
    step, h, _ = first_refill_failure(run)
    for sample_every in (1, 10):
        with pytest.raises(IntegrationError) as sector:
            evolve(**run, sample_every=sample_every)
        with pytest.raises(IntegrationError) as dense:
            evolve_dense(**run, sample_every=sample_every)
        assert sector.value.t == pytest.approx(step * h, rel=1e-12)
        assert f"(step {step} of 111, dt = 6.022079e-09 s, sample_every = {sample_every})" \
            in str(sector.value)
        assert sector.value.t <= dense.value.t


# fig5-red's coupling and mediator loss with no qubit decay, so that A keeps
# its excitation until a late pulse pair reaches it
FIG5_RED_NO_QUBIT_DECAY = LinkParams(g_a=FIG5_RED_G, g_b=FIG5_RED_G, kappa=6 * TWO_PI_MHZ)
FIG5_RED_WIDTH = default_stirap(FIG5_RED_G).pulse_width


@pytest.mark.parametrize("run, refill, where", [
    (fig5_red_stirap_run(6e-9), "-4.218e+00",
     "t = 5.519593e-07 s (step 92 of 191, dt = 5.999558e-09 s"),
    (dict(fig5_red_stirap_run(6e-9, t_center=3 * FIG5_RED_WIDTH + 6.6e-6),
          params=FIG5_RED_NO_QUBIT_DECAY),
     "-4.864e-04", "t = 7.043923e-06 s (step 1174 of 1291, dt = 5.999935e-09 s"),
], ids=["stirap-mid-pulse", "stirap-second-batch"])
def test_pulsed_failure_is_reported_at_the_references_step(run, refill, where):
    # fig5-red where RK4 turns unstable under its default STIRAP with a 6 ns
    # step: mid-pulse, and with the pulse pair centred after the first batch.
    # The engine reaches its steps through a product tree per batch, and must
    # still stop at the first step whose refill breaks the bound, at every
    # cadence; |1> on A makes the refill the link's own
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
    # fig5-red STIRAP over its window at 0.25 ns: every step matrix is a
    # contraction there, so the refill never shrinks and every cadence passes
    # with positive states; at 6 ns RK4 turns unstable mid-pulse
    traj = evolve(**fig5_red_stirap_run(0.25e-9), sample_every=sample_every)
    assert np.linalg.eigvalsh(traj.states).min() >= -1e-12
    with pytest.raises(IntegrationError, match="vacuum refill"):
        evolve(**fig5_red_stirap_run(6e-9), sample_every=sample_every)


def test_constant_drive_powers_match_the_step_by_step_product():
    # the dense-output benchmark's 23,200 steps at a cadence of 1000: the
    # squarings of the one exact step matrix, as a tree, against the exponential
    # of the Liouvillian at every sample
    run = dict(link_run(LOW_LOSS, LOW_LOSS.constant_schedule(), 20e-6,
                        dynamics.default_dt(LOW_LOSS)), sample_every=1000)
    traj = evolve(**run)
    reference = oracle_reference(**run)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)


def mixed_link_state(layout):
    """A state whose excitation is mixed over A and B (R0 of rank 2), coherent with the vacuum."""
    sites = np.eye(layout.n_sites, dtype=int)
    a, b = (np.ravel_multi_index(tuple(sites[i]), layout.dims) for i in (0, -1))
    coherent, mixed = np.zeros((2, layout.total_dim), dtype=complex)
    coherent[[0, a, b]] = 0.6, 0.64j, 0.48
    mixed[[a, b]] = 0.8, 0.6j  # not parallel to coherent's excitation, 0.64j A + 0.48 B
    return 0.7 * np.outer(coherent, coherent.conj()) + 0.3 * np.outer(mixed, mixed.conj())


# Every run steps in batches; two batches and a ragged third, of a length
# that is no power of two
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
    # realified form; a constant drive steps exactly, one step per sample, and
    # its batches all share one set of squarings
    traj = evolve(**run)
    reference = reference_run(run)
    assert len(traj.times) == MULTI_BATCH_STEPS // 7 + 2
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(traj, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)


# --- the product tree: each batch's steps from one up-sweep and one down-sweep ---

TREE_STEPS = [1, 2, 3, 1023, 1024, 1025, MULTI_BATCH_STEPS]
LAB_DETUNED_STIRAP = StirapSchedule(g0_a=LAB_DETUNED.g_a, g0_b=LAB_DETUNED.g_b,
                                    pulse_width=0.5e-6, t_delay=0.6e-6)


def real_forms(params, schedule):
    """The real generators (3, dim, dim) that the engine steps, and its pulsed step."""
    a = link_generators(params)
    gauge = dynamics._real_gauge(a)
    real = (dynamics._realified(a) if gauge is None
            else (gauge.conj()[:, None] * a * gauge).real)
    return real, dynamics.default_dt(params, schedule)


def tree_case(case, n):
    """x0 (run, dim, 2), generators (run, 3, dim, dim), the schedule, the grid of n
    steps from 1.2 us, in the pulses, and each run's step matrices (run, n, dim, dim)."""
    if case == "stacked-constant":  # two links, each with its own exact step S
        links = [LOW_LOSS, replace(LOW_LOSS, kappa=3 * LOW_LOSS.kappa, gamma_a=0.0)]
        generators = np.stack([real_forms(params, None)[0] for params in links])
        h, schedule = dynamics.default_dt(LOW_LOSS), LOW_LOSS.constant_schedule()
        a = generators[:, 0] + schedule.g0_a * generators[:, 1] + schedule.g0_b * generators[:, 2]
        steps = np.stack([np.broadcast_to(dynamics._expm(h * a_run), (n,) + a_run.shape)
                          for a_run in a])
    else:
        params, schedule = {"real-gauge-pulsed": (LOW_LOSS, LOW_LOSS_STIRAP),
                            "realified-lab-frame-pulsed": (LAB_DETUNED, LAB_DETUNED_STIRAP)}[case]
        generators, h = real_forms(params, schedule)
        lattice = 1.2e-6 + np.arange(2 * n + 1) * (0.5 * h)
        steps = dynamics._rk4_step_matrices(generators, h, *schedule.couplings(lattice))[None]
        generators = generators[None]
    x0 = np.stack([np.eye(generators.shape[-1])[:, :2] + 0.3] * len(generators))
    return x0, generators, schedule, dynamics._Grid(1.2e-6, h, n, 1), steps


@pytest.mark.parametrize("n", TREE_STEPS)
@pytest.mark.parametrize("case", ["real-gauge-pulsed", "realified-lab-frame-pulsed",
                                  "stacked-constant"])
def test_product_tree_matches_the_sequential_product_at_every_step(case, n):
    # the tree multiplies each batch's step matrices in another order than
    # one after another: every X it gives, across batches and for a length
    # that is no power of two, is the sequential product's to roundoff
    x0, generators, schedule, grid, steps = tree_case(case, n)
    samples = dynamics._step_amplitudes(x0, lambda blocks: np.zeros(blocks.shape[:2]),
                                        generators, schedule, grid, grid.sample_steps())
    reference = np.empty_like(samples)
    reference[:, 0] = x0
    for i in range(n):
        reference[:, i + 1] = steps[:, i] @ reference[:, i]
    error = np.linalg.norm(samples - reference, axis=(-2, -1))
    assert (error <= 1e-13 * np.linalg.norm(reference, axis=(-2, -1))).all(), error.max()


class NanAtOneTime:
    """A schedule's couplings with nan at the lattice time nearest to t_nan."""

    def __init__(self, schedule, t_nan, h):
        self.schedule, self.t_nan, self.h = schedule, t_nan, h

    def couplings(self, times):
        g_a, g_b = self.schedule.couplings(times)
        g_a[np.abs(times - self.t_nan) < 0.25 * self.h] = math.nan
        return g_a, g_b


@pytest.mark.parametrize("sample_every", [1, 10])
def test_nan_coupling_fails_at_its_step_and_leaves_the_steps_before_finite(sample_every,
                                                                          monkeypatch):
    # the weak-loss short pulse over its window, 2088 steps: a nan coupling at
    # 1.5 us enters the step that ends there, step 870, through its K4, and
    # the next one through its K1. The tree's products that hold it give no
    # X before that step
    t_final = default_stirap_window(LOW_LOSS_STIRAP)[1]
    h = t_final / 2088
    batches = []
    down_sweep = dynamics._down_sweep
    monkeypatch.setattr(dynamics, "_down_sweep",
                        lambda *args: batches.append(down_sweep(*args)) or batches[-1])
    run = dict(link_run(LOW_LOSS, NanAtOneTime(LOW_LOSS_STIRAP, 1.5e-6, h), t_final, h),
               sample_every=sample_every)
    with pytest.raises(IntegrationError) as err:
        evolve(**run)
    assert err.value.t == pytest.approx(870 * h, rel=1e-12)
    assert str(err.value) == ("state diverged (non-finite entries) at t = 1.500000e-06 s "
                              f"(step 870 of 2088, dt = {h:.6e} s, sample_every = {sample_every})")
    (blocks,) = batches  # X after steps 1, ..., 1024
    assert np.isfinite(blocks[:, :869]).all()
    assert not np.isfinite(blocks[:, 869]).all()


# --- the factored form: only the span of R0 and u0 steps -----------------------


def pure_link_state(layout, amplitudes):
    """|psi><psi|, psi normalized from {site index, or None for the vacuum: amplitude}."""
    psi = np.zeros(layout.total_dim, dtype=complex)
    one = dynamics._site_states(layout)
    for site, amplitude in amplitudes.items():
        psi[0 if site is None else one[site]] = amplitude
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def on_mediator_state(layout):
    """An excitation on the first mediator, coherent with the vacuum, mixed with one on A."""
    return (0.6 * pure_link_state(layout, {None: 0.8, 1: 0.6j})
            + 0.4 * pure_link_state(layout, {0: 1.0}))


def on_b_state(layout):
    """An excitation on B, coherent with the vacuum, mixed with one on the first mediator
    and one shared by A and B."""
    return (0.5 * pure_link_state(layout, {None: 0.6, -1: 0.8})
            + 0.3 * pure_link_state(layout, {1: 1.0})
            + 0.2 * pure_link_state(layout, {0: 1.0, -1: -1j}))


# (initial state, columns of the span of R0 and u0 that step)
FACTORED_INPUTS = {"rank-2": (mixed_link_state, 2), "on-mediator": (on_mediator_state, 2),
                   "on-B": (on_b_state, 3)}
FACTORED_LINKS = {"rotating": (LOW_LOSS, 1, 0.0), "lab-frame-detuned": (LAB_DETUNED, 1, 0.0),
                  "two-mediators-g-hop": (LOW_LOSS, 2, 3.1 * TWO_PI_MHZ)}


@pytest.mark.parametrize("drive", ["constant", "stirap"])
@pytest.mark.parametrize("link", FACTORED_LINKS)
@pytest.mark.parametrize("state", FACTORED_INPUTS)
def test_factored_form_matches_the_dense_reference(state, link, drive, monkeypatch):
    # R = X G X^dag and u = X a with X = K V: every column and sample read
    # off the stepped span of R0 and u0 against the dense reference, which
    # steps every column of R0's factors and u0 in the full space (exact for
    # a constant drive, RK4 on the columns for a pulse pair)
    initial, span = FACTORED_INPUTS[state]
    params, n_mediators, g_hop = FACTORED_LINKS[link]
    schedule = params.constant_schedule() if drive == "constant" else None
    run = multi_batch_run(params, schedule, n_mediators, g_hop)
    run["rho0"] = initial(run["layout"])
    columns = []
    amplitude_run = dynamics._amplitude_run

    def counting_run(v0, *args):
        columns.append(v0.shape[-1])
        return amplitude_run(v0, *args)

    monkeypatch.setattr(dynamics, "_amplitude_run", counting_run)
    traj = evolve(**run)
    assert columns == [span]
    reference = reference_run(run)
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for index in (0, -1, slice(3, 40, 5)):
        np.testing.assert_allclose(traj.state_at(index), reference.state_at(index), rtol=0,
                                   atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(traj, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)
    rows = slice(17, 123)
    for got, whole in zip(traj.columns_at(rows), traj.columns_at(slice(None))):
        np.testing.assert_array_equal(got, whole[rows])
    # a long run reads each range of rows as asked, and its fidelity in batches
    monkeypatch.setattr(dynamics, "_WHOLE_SAMPLES", 16)
    long = evolve(**run)
    np.testing.assert_array_equal(long.fidelity, traj.fidelity)
    for index in (rows, slice(None)):
        for got, want in zip(long.columns_at(index), traj.columns_at(index)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("k", [1, 3])
def test_refill_reads_tr_r_on_either_real_layout(k):
    # Tr R = Tr(X G X^dag) from the interleaved (m, 2k) rows of the real gauge
    # and from the (Re X; Im X) rows of the realified lab-frame form, bit for
    # bit the sum of the populations the trajectory's columns read off X
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 4, k)) + 1j * rng.normal(size=(5, 4, k))
    w = rng.normal(size=(k, k + 1)) + 1j * rng.normal(size=(k, k + 1))
    gram = w[:, :k] @ w[:, :k].conj().T
    want = (np.abs(x @ w[:, :k]) ** 2).sum(axis=(-2, -1))
    runs = dynamics._FactoredRuns(x[None], gram, w[:, -1], 1.0, link_layout(n_mediators=2))
    populations = runs.columns_at(0, slice(None)).populations
    interleaved = np.ascontiguousarray(x).view(float)
    stacked = np.concatenate([x.real, x.imag], axis=-2)
    for blocks, is_interleaved in ((interleaved, True), (stacked, False)):
        got = dynamics._excited_population(gram, is_interleaved)(blocks[None])
        np.testing.assert_allclose(got[0], want, rtol=1e-14)
        np.testing.assert_array_equal(got[0], populations.sum(axis=-1))


def test_span_of_the_initial_block():
    # V is an orthonormal basis of C0's columns; a column within 1e-15 of the
    # span of the others, relative to the longest, is roundoff and adds none
    a, b = np.array([0.3, 0.5j, 0.0, 0.1]), np.array([0.2, -0.4, 0.6j, 0.0])
    c0 = np.column_stack([a, b, (a - 2j * b) * (1 + 1e-16j), np.zeros(4)])
    v = dynamics._span(c0)
    assert v.shape == (4, 2)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(v @ (v.conj().T @ c0), c0, rtol=0, atol=1e-15)
    v = dynamics._span(np.zeros((3, 2), dtype=complex))
    assert not v.any() and v.shape == (3, 1)


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


# --- a constant drive is exact --------------------------------------------------


def preset_params(name):
    return build_config({"scenario": "transfer", "preset": name}).link_params()


def constant_run(params, t_final, sample_every, rho_a=PureQubitSpec(theta=1.1, phi=0.7)):
    """params under their constant drive from rho_a on A, at their default step."""
    layout = link_layout()
    return dict(rho0=product_state([rho_a, None, None], layout), layout=layout, params=params,
                schedule=params.constant_schedule(), t_span=(0.0, t_final),
                dt=dynamics.default_dt(params), sample_every=sample_every,
                target=PureQubitSpec(theta=1.1, phi=0.7))


# a rank-2 input on A, coherent with the vacuum
MIXED_INPUT = np.array([[0.55, 0.3 - 0.2j], [0.3 + 0.2j, 0.45]])


@pytest.mark.parametrize("run", [
    constant_run(preset_params("fig4"), 2e-6, 30),
    constant_run(preset_params("fig5-red"), 0.05e-6, 7),
    constant_run(preset_params("fig5-yellow"), 0.05e-6, 7, rho_a=MIXED_INPUT),
    dict(multi_batch_run(LOW_LOSS, LOW_LOSS.constant_schedule()), sample_every=1),
    constant_run(LAB_DETUNED, 1e-6, 45),
], ids=["fig4", "fig5-red", "fig5-yellow-mixed-input", "rank-2-every-step", "lab-frame-detuned"])
def test_constant_drive_is_exact(run):
    # one exact step per sample, and a shorter last one where the cadence
    # leaves one: every column, sample and received state is the exponential
    # of the Liouvillian's to roundoff, whatever the step
    traj = evolve(**run)
    reference = oracle_reference(**run)
    np.testing.assert_array_equal(traj.times, reference.times)
    np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=EQUIVALENCE_TOL)
    for column in ("populations", "trace", "purity", "fidelity"):
        np.testing.assert_allclose(getattr(traj, column), getattr(reference, column),
                                   rtol=0, atol=EQUIVALENCE_TOL, err_msg=column)
    layout = run["layout"]
    received = [qspace.partial_trace(t.final_state, layout.n_sites - 1, layout)
                for t in (traj, reference)]
    np.testing.assert_allclose(*received, rtol=0, atol=EQUIVALENCE_TOL)


@pytest.mark.parametrize("params, t_final", [
    (preset_params("fig4"), 0.06e-6), (preset_params("fig5-red"), 0.0106e-6),
    (preset_params("fig5-yellow"), 0.0106e-6), (LAB_DETUNED, 0.06e-6),
], ids=["fig4", "fig5-red", "fig5-yellow", "lab-frame-detuned"])
def test_constant_drive_channel_is_exact(params, t_final):
    # each link read near its transfer time, while B holds part of the excitation
    dt = dynamics.default_dt(params)
    channel = link_channel(params, params.constant_schedule(), t_final, dt, sample_every=9)
    layout = link_layout()
    h = hamiltonian_at(0.0, params, params.constant_schedule(), layout)
    for rho_a in (PureQubitSpec(theta=1.1, phi=0.7).density_matrix(), MIXED_INPUT):
        final = propagator_oracle(product_state([rho_a, None, None], layout), h,
                                  standard_collapse(params, layout), channel.times[-1])
        np.testing.assert_allclose(
            channel.received_state(rho_a),
            dynamics.receiver_frame(qspace.partial_trace(final, 2, layout)),
            rtol=0, atol=EQUIVALENCE_TOL)


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


def test_run_starts_at_rho0_with_its_tolerated_negative_eigenvalue():
    # evolve admits rho0 down to an eigenvalue of MIN_EIGENVALUE_MIN; the run
    # starts at rho0 itself, its negative part on W included, so its first
    # sample is rho0 and its trace Tr rho0, to roundoff (a factor of R0's
    # positive part alone put 5e-6 of trace on the vacuum that rho0 does not
    # hold)
    layout = link_layout()
    w = dynamics._site_states(layout)[1]
    rho0 = product_state([PureQubitSpec(theta=1.1, phi=0.7), None, None], layout)
    rho0[0, 0] += 5e-6
    rho0[w, w] -= 5e-6
    assert np.linalg.eigvalsh(rho0).min() == pytest.approx(-5e-6)
    traj = evolve(rho0, layout, FIG4, FIG4.constant_schedule(), (0.0, 1e-7), 1e-9,
                  sample_every=10)
    np.testing.assert_allclose(traj.state_at(0), rho0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(traj.trace, np.trace(rho0).real, rtol=0, atol=1e-15)


def test_initial_state_is_checked_on_its_sector_block(monkeypatch):
    # evolve eigendecomposes rho0's (1 + m) x (1 + m) block on vacuum (+) one
    # excitation, never the whole space: 6 x 6 of d = 864 here
    layout = link_layout(n_mediators=3, mode_dim=6)
    rho0 = product_state([PureQubitSpec(theta=1.1, phi=0.7)] + [None] * 4, layout)
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    evolve(rho0, layout, FIG4, FIG4.constant_schedule(), (0.0, 1e-8), 1e-9)
    assert layout.total_dim == 864
    assert shapes and max(shapes) == (6, 6)


def _state_on(sites, excited_sites=(), scale=1.0, nan=False):
    """scale |s><s| on the layout of sites, s with excited_sites excited; one nan entry if asked."""
    layout = SystemLayout(sites)
    excited = PureQubitSpec(theta=math.pi)
    rho = scale * product_state([excited if i in excited_sites else None
                                 for i in range(len(sites))], layout)
    if nan:
        rho[0, 1] = rho[1, 0] = math.nan
    return layout, rho


@pytest.mark.parametrize("case, error, message", [
    (_state_on((Qubit(), Qubit()), nan=True), IntegrationError,
     "state diverged (non-finite entries)"),
    (_state_on((Qubit(), Qubit(), Qubit()), excited_sites=(0, 2)), ValueError,
     "link layout needs contiguous mediator modes"),
    (_state_on((Qubit(), Mode(), Qubit()), excited_sites=(0, 2), scale=2.0), ValueError,
     "the initial state lies outside vacuum (+) one excitation"),
    ((link_layout(), sector_state(1.2, -0.1)), IntegrationError,
     "trace drifted to 1.100000000"),
], ids=["nan-before-layout", "layout-before-support", "support-before-trace",
        "trace-before-eigenvalue"])
def test_initial_state_checks_run_in_order(case, error, message):
    # each rho0 fails two adjacent checks and gets the first one's error:
    # non-finite, layout, support, trace, eigenvalue
    layout, rho0 = case
    with pytest.raises(error) as err:
        evolve(rho0, layout, FIG4, FIG4.constant_schedule(), (0.0, 1e-8), 1e-9)
    assert str(err.value).startswith(message)


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
    # byte-identical to rows built per cell, equal to the engine's reference
    # to roundoff (the exponential oracle for transfer's constant drive, RK4
    # on the columns for chain's pulses), and equal to evolve_dense, RK4 on
    # rho, to its error; at 1 ns steps that is 3e-6 on transfer. A chain's
    # references evolve every hop from its input, so they also check that
    # hops read off the link's one run compose like evolved ones
    cfg = build_config({**SMALL_SCENARIOS[name], "dt_ns": 0.5})
    reference = {"transfer": oracle_reference, "chain": sector_reference}[name]
    assert run_scenario(cfg, tmp_path / "sector") == 0
    with monkeypatch.context() as patch:
        # every trajectory file goes through write_trajectories
        patch.setattr(cli._Outputs, "write_trajectories", lambda out, names, trajs: [
            out.write_csv(csv, *per_cell_rows(traj)) for csv, traj in zip(names, trajs)])
        assert run_scenario(cfg, tmp_path / "per-cell") == 0
        # a chain's hops go through the evolve patched in below, one run per hop
        patch.setattr(network, "run_hop", evolved_hop)
        patch.setattr(dynamics, "evolve", reference)
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
