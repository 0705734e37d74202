import math

import numpy as np
import pytest

from qlinksim.cli import build_config
from qlinksim.dynamics import LinkParams, default_dt, evolve
from qlinksim.protocols import (
    ConstantSchedule,
    StirapSchedule,
    best_stirap_record,
    default_stirap,
    default_stirap_window,
    stirap_grid_search,
)
from qlinksim.qspace import PureQubitSpec, link_layout, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
US = 1e-6


class TestConstantSchedule:
    def test_constant_for_all_times(self):
        sched = ConstantSchedule(g0_a=3.0, g0_b=4.0)
        times = np.array([-1.0, 0.0, 1e-6, 5.0])
        g_a, g_b = sched.couplings(times)
        np.testing.assert_array_equal(g_a, np.full(4, 3.0))
        np.testing.assert_array_equal(g_b, np.full(4, 4.0))

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            ConstantSchedule(g0_a=-1.0, g0_b=0.0)


class TestStirapSchedule:
    def setup_method(self):
        self.sched = StirapSchedule(
            g0_a=2.0, g0_b=5.0, pulse_width=1e-6, t_delay=1.5e-6, t_center=3e-6
        )

    def test_peak_values(self):
        g_a, g_b = self.sched.couplings(np.array([3e-6, 3e-6 + 1.5e-6]))
        assert g_b[0] == pytest.approx(5.0)
        assert g_a[1] == pytest.approx(2.0)

    def test_receiver_pulse_precedes_sender_pulse(self):
        # counterintuitive ordering: g_B peaks before g_A
        g_a, g_b = self.sched.couplings(np.array([3e-6]))
        assert g_b[0] > g_a[0]

    def test_width_is_one_over_e_point(self):
        peak_t = 3e-6 + 1.5e-6
        g_a, _ = self.sched.couplings(np.array([peak_t - 1e-6, peak_t + 1e-6]))
        assert list(g_a) == pytest.approx([2.0 / math.e] * 2)

    def test_window_arithmetic(self):
        assert default_stirap_window(self.sched) == (0.0, 7.5e-6)

    def test_window_boundary_envelope_is_negligible(self):
        t0, t1 = default_stirap_window(self.sched)
        bound = math.exp(-9.0)
        g_a, g_b = self.sched.couplings(np.array([t0, t1]))
        assert g_b[0] <= bound * self.sched.g0_b
        assert g_a[1] <= bound * self.sched.g0_a

    def test_window_ordered_for_tiny_delay(self):
        sched = StirapSchedule(g0_a=1.0, g0_b=1.0, pulse_width=1e-6, t_delay=1e-12)
        t0, t1 = default_stirap_window(sched)
        assert t1 > t0

    def test_default_center_is_three_widths(self):
        sched = StirapSchedule(g0_a=1.0, g0_b=1.0, pulse_width=2e-6, t_delay=1e-6)
        assert sched.t_center == pytest.approx(6e-6)

    def test_mirror_symmetry_with_equal_peaks(self):
        sched = StirapSchedule(g0_a=3.0, g0_b=3.0, pulse_width=1e-6, t_delay=1.2e-6)
        s = np.linspace(-4e-6, 4e-6, 41)
        left, _ = sched.couplings(sched.t_center + sched.t_delay + s)
        _, right = sched.couplings(sched.t_center - s)
        np.testing.assert_allclose(left, right, rtol=1e-9)

    def test_pure_function_of_time(self):
        values = [self.sched.couplings(np.array([2.7e-6]))[0][0] for _ in range(5)]
        assert len(set(values)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StirapSchedule(g0_a=1.0, g0_b=1.0, pulse_width=0.0, t_delay=1e-6)
        with pytest.raises(ValueError):
            StirapSchedule(g0_a=1.0, g0_b=1.0, pulse_width=1e-6, t_delay=0.0)
        with pytest.raises(ValueError):
            StirapSchedule(g0_a=-1.0, g0_b=1.0, pulse_width=1e-6, t_delay=1e-6)
        with pytest.raises(ValueError):
            default_stirap_window(ConstantSchedule(1.0, 1.0))


class TestDefaultStirap:
    def test_width_from_adiabaticity(self):
        g0 = 100 * TWO_PI_MHZ
        sched = default_stirap(g0)
        assert sched.pulse_width == pytest.approx(100.0 / g0)
        assert sched.t_delay == pytest.approx(1.2 * sched.pulse_width)
        assert sched.g0_a == g0
        assert sched.g0_b == g0

    def test_width_from_the_larger_peak_as_the_cli_sets_it(self):
        # g0_a = 3, g0_b = 6 (x 2pi MHz): T = 100 / max(g0_a, g0_b) = 2.653 us
        sched = default_stirap(3 * TWO_PI_MHZ, g0_b=6 * TWO_PI_MHZ)
        cfg = build_config({"scenario": "transfer", "protocol": "stirap",
                            "g0_a_2pi_mhz": 3.0, "g0_b_2pi_mhz": 6.0})
        assert sched == cfg.schedule()
        assert sched.pulse_width == pytest.approx(100.0 / (6 * TWO_PI_MHZ))
        assert (sched.g0_a, sched.g0_b) == (3 * TWO_PI_MHZ, 6 * TWO_PI_MHZ)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            default_stirap(0.0)


class TestDarkState:
    def test_adiabatic_pulses_keep_mediator_dark_but_constant_drive_does_not(self):
        g0 = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g0, g_b=g0)
        layout = link_layout()
        target = PureQubitSpec(theta=math.pi)
        rho0 = product_state([target, None, None], layout)

        sched = default_stirap(g0, adiabaticity=50.0)
        t0, t1 = default_stirap_window(sched)
        dt = default_dt(params, sched)
        traj = evolve(rho0, layout, params, sched, (t0, t1), dt, sample_every=20)
        assert traj.pop_w.max() < 0.1

        const = params.constant_schedule()
        t_rabi = math.pi / (math.sqrt(2.0) * g0)
        traj_const = evolve(rho0, layout, params, const, (0.0, 2 * t_rabi), dt,
                            sample_every=5)
        assert traj_const.pop_w.max() > 0.4


class TestTuneStirap:
    def test_single_point_grid_returns_that_point(self):
        g0 = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g0, g_b=g0)
        best = best_stirap_record(stirap_grid_search(params, [0.25 * US], [0.3 * US], dt=0.1e-9))
        assert (best["pulse_width"], best["t_delay"]) == (0.25 * US, 0.3 * US)

    def test_adiabatic_grid_reaches_high_fidelity(self):
        g0 = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g0, g_b=g0)
        records = stirap_grid_search(params, [0.25 * US, 0.5 * US], [0.3 * US], dt=0.1e-9)
        tuned = best_stirap_record(
            stirap_grid_search(params, [0.25 * US, 0.5 * US], [0.3 * US], dt=0.1e-9))
        width, delay = tuned["pulse_width"], tuned["t_delay"]
        assert delay > 0
        best = max(r["fidelity"] for r in records)
        assert best >= 0.99
        chosen = next(
            r for r in records if r["pulse_width"] == width and r["t_delay"] == delay
        )
        assert chosen["fidelity"] == pytest.approx(best)

    def test_ties_broken_by_shorter_window(self):
        g0 = 100 * TWO_PI_MHZ
        params = LinkParams(g_a=g0, g_b=g0)
        # both points sit deep in the adiabatic plateau; fidelities tie at ~1
        records = stirap_grid_search(params, [0.3 * US, 0.4 * US], [0.35 * US], dt=0.1e-9)
        fids = [round(r["fidelity"], 6) for r in records]
        if fids[0] == fids[1]:
            tuned = best_stirap_record(
                stirap_grid_search(params, [0.3 * US, 0.4 * US], [0.35 * US], dt=0.1e-9))
            assert tuned["pulse_width"] == 0.3 * US

    def test_empty_grid_rejected(self):
        params = LinkParams(g_a=1.0, g_b=1.0)
        with pytest.raises(ValueError):
            best_stirap_record(stirap_grid_search(params, [], [1e-6]))
