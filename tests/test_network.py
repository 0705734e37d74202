import math

import numpy as np
import pytest

from qlinksim.dynamics import LinkParams
from qlinksim.metrics import transfer_fidelity
from qlinksim.network import (
    CAVITY,
    CAVITY_PLUS_FIBER,
    FIBER,
    LinkSpec,
    MediumModel,
    distance_sweep,
    effective_kappa,
    run_chain,
    run_hop,
)
from qlinksim.protocols import StirapSchedule, default_stirap_window
from qlinksim.qspace import PureQubitSpec

TWO_PI_MHZ = 2 * math.pi * 1e6

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED_DM = np.diag([0.0, 1.0]).astype(complex)
MIXED = np.eye(2, dtype=complex) / 2


def ideal_link(g=100 * TWO_PI_MHZ, hop_time=None, **params_kw):
    params = LinkParams(g_a=g, g_b=g, **params_kw)
    t_star = math.pi / (math.sqrt(2.0) * g)
    return LinkSpec(
        params=params,
        schedule=params.constant_schedule(),
        hop_time=hop_time if hop_time is not None else t_star,
        dt=t_star / 2000,
    )


class TestEffectiveKappa:
    def test_fiber_hand_evaluated_example(self):
        # 0.2 dB/km over 1 km spread across 10 us:
        # eta = 10**-0.02 = 0.95499, kappa = -ln(eta) / 1e-5 = 4605.17...
        medium = MediumModel(kind=FIBER, length=1000.0, fiber_attenuation_db_per_km=0.2)
        kappa = effective_kappa(medium, 10e-6)
        assert kappa == pytest.approx(4605.1701859880915, rel=1e-12)

    def test_zero_length(self):
        assert effective_kappa(MediumModel(kind=FIBER, length=0.0), 1e-6) == 0.0
        medium = MediumModel(kind=CAVITY, base_kappa=123.0, length=0.0)
        assert effective_kappa(medium, 1e-6) == 123.0

    def test_doubling_length_doubles_fiber_loss(self):
        m1 = MediumModel(kind=FIBER, length=700.0)
        m2 = MediumModel(kind=FIBER, length=1400.0)
        assert effective_kappa(m2, 1e-6) == pytest.approx(2.0 * effective_kappa(m1, 1e-6), rel=1e-12)

    def test_cavity_scales_linearly(self):
        medium = MediumModel(kind=CAVITY, base_kappa=10.0, length=25.0, cavity_loss_per_m=4.0)
        assert effective_kappa(medium, 1e-6) == pytest.approx(110.0)

    def test_combined_medium_includes_coupling_overhead(self):
        medium = MediumModel(
            kind=CAVITY_PLUS_FIBER, base_kappa=10.0, length=1000.0,
            fiber_attenuation_db_per_km=0.2, fiber_coupling_kappa=500.0,
        )
        fiber_only = MediumModel(kind=FIBER, length=1000.0, fiber_attenuation_db_per_km=0.2)
        expected = 10.0 + 500.0 + effective_kappa(fiber_only, 10e-6)
        assert effective_kappa(medium, 10e-6) == pytest.approx(expected, rel=1e-12)

    def test_survival_underflow_saturates_with_warning(self):
        medium = MediumModel(kind=FIBER, length=2e7, fiber_attenuation_db_per_km=0.2)
        with pytest.warns(RuntimeWarning):
            kappa = effective_kappa(medium, 1e-6)
        assert kappa == pytest.approx(-math.log(1e-300) / 1e-6)

    def test_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            effective_kappa(MediumModel(), 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MediumModel(kind="carrier-pigeon")
        with pytest.raises(ValueError):
            MediumModel(length=-1.0)

    @pytest.mark.parametrize("name", [
        "base_kappa", "length", "cavity_loss_per_m", "fiber_attenuation_db_per_km",
        "fiber_coupling_kappa",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_fields_must_be_finite_and_non_negative(self, name, value):
        # a nan length or base_kappa once failed later as "kappa must be finite"
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0"):
            MediumModel(kind=FIBER, **{name: value})


class TestRunHop:
    def test_ideal_transfer_of_excited_state(self):
        target = PureQubitSpec(theta=math.pi)
        out, traj = run_hop(EXCITED_DM, ideal_link(), target)
        assert out[1, 1].real >= 0.999
        assert traj.final_fidelity >= 0.999

    def test_decoupled_receiver_stays_ground(self):
        link = ideal_link()
        params = LinkParams(g_a=0.0, g_b=0.0)
        link = LinkSpec(params=params, schedule=params.constant_schedule(),
                        hop_time=link.hop_time, dt=link.dt)
        spec = PureQubitSpec(theta=2.0, phi=0.3)
        out, _ = run_hop(spec.density_matrix(), link, spec)
        np.testing.assert_allclose(out, GROUND, atol=1e-12)

    def test_linearity_mixed_input_equals_mixed_output(self):
        link = ideal_link()
        target = PureQubitSpec(theta=math.pi)
        out_mixed, _ = run_hop(MIXED, link, target)
        out_ground, _ = run_hop(GROUND, link, target)
        out_excited, _ = run_hop(EXCITED_DM, link, target)
        np.testing.assert_allclose(out_mixed, 0.5 * (out_ground + out_excited), atol=1e-8)
        np.testing.assert_allclose(out_mixed, MIXED, atol=1e-6)

    def test_input_must_be_a_state(self):
        with pytest.raises(Exception):
            run_hop(np.eye(2), ideal_link(), PureQubitSpec(theta=0.0))

    def test_hop_time_validation(self):
        params = LinkParams(g_a=1.0, g_b=1.0)
        with pytest.raises(ValueError):
            LinkSpec(params=params, schedule=params.constant_schedule(), hop_time=0.0)

    @pytest.mark.parametrize("name, value", [
        ("hop_time", math.nan), ("hop_time", math.inf), ("dt", math.nan), ("dt", 0.0),
        ("g_hop", math.nan), ("g_hop", -math.inf),
    ])
    def test_non_finite_fields_rejected(self, name, value):
        # a nan hop_time once failed later as "t_span must be finite"
        params = LinkParams(g_a=1.0, g_b=1.0)
        fields = {"hop_time": 1e-6, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            LinkSpec(params=params, schedule=params.constant_schedule(), **fields)

    def test_stirap_hop_must_cover_the_pulse_window(self):
        params = LinkParams(g_a=1e8, g_b=1e8)
        sched = StirapSchedule(g0_a=1e8, g0_b=1e8, pulse_width=1e-6, t_delay=1e-6)
        with pytest.raises(ValueError):
            LinkSpec(params=params, schedule=sched, hop_time=1e-6)

    @pytest.mark.parametrize("short, accepted", [(0.0, True), (2e-16, True), (5e-13, True),
                                                 (1e-9, False)])
    def test_stirap_hop_within_roundoff_of_the_window_end_accepted(self, short, accepted):
        # a hop an ulp or two short of the window end, as converting it to and
        # from microseconds leaves it, still reaches the window end
        params = LinkParams(g_a=1e8, g_b=1e8)
        sched = StirapSchedule(g0_a=1e8, g0_b=1e8, pulse_width=1e-6, t_delay=1.2e-6)
        _, t1 = default_stirap_window(sched)
        hop_time = t1 * (1.0 - short)
        if accepted:
            assert LinkSpec(params=params, schedule=sched, hop_time=hop_time).hop_time == hop_time
        else:
            with pytest.raises(ValueError) as err:
                LinkSpec(params=params, schedule=sched, hop_time=hop_time)
            assert str(err.value) == (f"hop_time = {hop_time!r} s is shorter than the pulse "
                                      f"window, which ends at {t1!r} s")


class TestRunChain:
    def test_single_ideal_hop(self):
        result = run_chain(PureQubitSpec(theta=math.pi), [ideal_link()])
        assert len(result.per_hop) == 1
        assert result.fidelities[0] >= 1.0 - 1e-3

    def test_decoupled_links_with_ground_target(self):
        params = LinkParams(g_a=0.0, g_b=0.0)
        link = LinkSpec(params=params, schedule=params.constant_schedule(),
                        hop_time=1e-8, dt=1e-10)
        result = run_chain(PureQubitSpec(theta=0.0), [link] * 3)
        assert all(f == pytest.approx(1.0, abs=1e-12) for f in result.fidelities)

    def test_lossy_identical_links_decay_monotonically(self):
        # qubit decay costs a few percent per hop here, so consecutive hop
        # fidelities must strictly decrease
        g = 100 * TWO_PI_MHZ
        link = ideal_link(g=g, gamma_a=5 * TWO_PI_MHZ, gamma_b=5 * TWO_PI_MHZ)
        result = run_chain(PureQubitSpec(theta=math.pi), [link] * 4)
        fids = result.fidelities
        for early, late in zip(fids, fids[1:]):
            assert late <= early + 1e-9
            assert early - late > 1e-6

    def test_hop_outputs_are_valid_states(self):
        from qlinksim.qspace import check_density_matrix

        link = ideal_link(gamma_a=2 * TWO_PI_MHZ, kappa=TWO_PI_MHZ)
        result = run_chain(PureQubitSpec(theta=2.2, phi=1.0), [link] * 3)
        for rec in result.per_hop:
            check_density_matrix(rec.output_state)

    def test_fidelity_against_original_target(self):
        link = ideal_link(gamma_a=5 * TWO_PI_MHZ, gamma_b=5 * TWO_PI_MHZ)
        spec = PureQubitSpec(theta=2.0, phi=0.7)
        result = run_chain(spec, [link] * 2)
        for rec in result.per_hop:
            assert rec.fidelity == pytest.approx(transfer_fidelity(rec.output_state, spec))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            run_chain(PureQubitSpec(theta=0.0), [])


class TestDistanceSweep:
    def sweep_link(self):
        g = 5.8 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        t_star = math.pi / (math.sqrt(2.0) * g)
        return LinkSpec(
            params=params, schedule=params.constant_schedule(), hop_time=t_star,
            medium=MediumModel(), dt=t_star / 1000,
        )

    def test_fidelity_non_increasing_and_crossover_exists(self):
        lengths = [1.0, 10.0, 100.0, 1000.0]
        points = distance_sweep(
            self.sweep_link(), [CAVITY, CAVITY_PLUS_FIBER], lengths,
            PureQubitSpec(theta=math.pi / 2),
        )
        by_kind = {
            kind: [p for p in points if p.kind == kind]
            for kind in (CAVITY, CAVITY_PLUS_FIBER)
        }
        for kind, pts in by_kind.items():
            assert [p.length for p in pts] == sorted(p.length for p in pts)
            fids = [p.fidelity for p in pts]
            assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))
        cavity = [p.fidelity for p in by_kind[CAVITY]]
        combined = [p.fidelity for p in by_kind[CAVITY_PLUS_FIBER]]
        assert cavity[0] > combined[0]  # bare cavity wins the shortest link
        assert combined[-1] > cavity[-1]  # fiber wins at range

    def test_matching_cavity_terms_agree_at_zero_length(self):
        link = self.sweep_link()
        medium = MediumModel(fiber_coupling_kappa=0.0)
        link = LinkSpec(
            params=link.params, schedule=link.schedule, hop_time=link.hop_time,
            medium=medium, dt=link.dt,
        )
        points = distance_sweep(link, [CAVITY, CAVITY_PLUS_FIBER], [0.0],
                                PureQubitSpec(theta=math.pi / 2))
        assert abs(points[0].fidelity - points[1].fidelity) < 1e-6

    def test_failures_recorded_without_stopping_the_sweep(self):
        g = 5.8 * TWO_PI_MHZ
        params = LinkParams(g_a=g, g_b=g)
        # loss rate at the long point is far beyond RK4's stable step range
        medium = MediumModel(cavity_loss_per_m=1e9)
        pulses = StirapSchedule(g0_a=g, g0_b=g, pulse_width=10e-9, t_delay=12e-9)
        link = LinkSpec(params=params, schedule=pulses, hop_time=1e-7, medium=medium, dt=1e-9)
        points = distance_sweep(link, [CAVITY], [0.0, 1e4], PureQubitSpec(theta=math.pi))
        assert points[0].error is None and points[0].fidelity is not None
        assert points[1].error is not None and points[1].fidelity is None

    def test_empty_lengths_rejected(self):
        with pytest.raises(ValueError):
            distance_sweep(self.sweep_link(), [CAVITY], [], PureQubitSpec(theta=0.0))
        with pytest.raises(ValueError):
            distance_sweep(self.sweep_link(), [CAVITY], [-1.0], PureQubitSpec(theta=0.0))
