import errno
import math
import os
import re
import tracemalloc
import warnings
from bisect import bisect_right
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from conftest import (
    SMALL_SCENARIOS,
    choi_coherent_information,
    choi_entanglement_fidelity,
    make_link_run,
    run_choi_probe,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qlinksim import __version__, cli, dynamics, metrics, network
from qlinksim.cli import (
    PRESETS,
    ConfigError,
    ScenarioConfig,
    _fmt,
    _Outputs,
    _standard_run,
    build_config,
    load_config,
    main,
    parse_config_text,
    resolve_defaults,
    run_scenario,
)
from qlinksim.dynamics import LinkChannel, default_dt, evolve
from qlinksim.protocols import (
    DEFAULT_ADIABATICITY,
    DEFAULT_DELAY_RATIO,
    StirapSchedule,
    default_stirap_window,
)
from qlinksim.qspace import InvalidStateError, PureQubitSpec, link_layout, product_state

TWO_PI_MHZ = 2 * math.pi * 1e6
WEAK_LOSS = {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006}
WEAK_LOSS_TEXT = "".join(f"{key} = {value}\n" for key, value in WEAK_LOSS.items())
# links the pulsed scenarios are checked against dense runs on: the benchmark's
# weak-loss link, and a fast, lossy mediator; stirap-compare sends the latter an
# input off the poles, while tune-stirap's grid always sends |1>
DENSE_RUN_RATES = {"weak-loss": WEAK_LOSS, "fig5-yellow": {"preset": "fig5-yellow"}}
DENSE_RUN_INPUTS = {"weak-loss": {}, "fig5-yellow": {"theta_deg": 60.0}}


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_result(out):
    """The result lines that end the manifest in out, by key."""
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()[-4:]
    assert all(line.startswith("# ") for line in lines)
    return dict(line[2:].split(" = ", 1) for line in lines)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


FAST_TRANSFER = """
scenario = transfer
g0_2pi_mhz = 5.8
kappa_2pi_mhz = 0.2
gamma_2pi_mhz = 1.0
t_final_us = 0.5
dt_ns = 1.0
sample_every = 50
"""

FAST_COHERENT_INFO = """
scenario = coherent-info
g0_2pi_mhz = 100.0
kappa_2pi_mhz = 1.0
dt_ns = 0.02
n_samples = 5
"""


class TestConfigParsing:
    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"cfg:3.*coupling_mhz"):
            parse_config_text("scenario = transfer\n\ncoupling_mhz = 4\n", source="cfg")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("scenario transfer\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="hops"):
            parse_config_text("hops = many\n")

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config_text("# a comment\n\nscenario = chain\n")
        assert values == {"scenario": "chain"}

    def test_list_values(self):
        values = parse_config_text("lengths_km = 0.1, 0.5, 2\nmedia = cavity, fiber\n")
        assert values["lengths_km"] == (0.1, 0.5, 2.0)
        assert values["media"] == ("cavity", "fiber")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unreadable_file_is_a_config_error(self, tmp_path, capsys):
        # a directory and a file that is not UTF-8: exit 2, no traceback
        undecodable = tmp_path / "bad.cfg"
        undecodable.write_bytes(b"scenario = transfer\n\xff\n")
        for path, reason in [(tmp_path, "Is a directory"),
                             (undecodable, "'utf-8' codec can't decode byte 0xff in position 20: "
                                           "invalid start byte")]:
            assert main(["--config", str(path)]) == 2
            assert capsys.readouterr().err == (
                f"config error: cannot read config file {path}: {reason}\n")

    def test_validation_messages_name_field_and_constraint(self):
        with pytest.raises(ConfigError, match="theta_deg"):
            build_config({"scenario": "transfer", "theta_deg": 270.0})
        with pytest.raises(ConfigError, match="kappa_2pi_mhz"):
            build_config({"scenario": "transfer", "kappa_2pi_mhz": -1.0})
        with pytest.raises(ConfigError, match="scenario"):
            build_config({"scenario": "teleport"})
        with pytest.raises(ConfigError, match="gamma_2pi_mhz"):
            build_config({"scenario": "transfer", "gamma_2pi_mhz": -3.0})


class TestPresets:
    def test_fig4_preset_converts_to_angular_rates(self):
        cfg = build_config({"scenario": "transfer", "preset": "fig4"})
        params = cfg.link_params()
        assert params.g_a == pytest.approx(5.8 * TWO_PI_MHZ)
        assert params.kappa == pytest.approx(0.34 * TWO_PI_MHZ)
        assert params.gamma_a == pytest.approx(6.0 * TWO_PI_MHZ)
        assert params.gamma_b == pytest.approx(6.0 * TWO_PI_MHZ)

    def test_fig5_red_preset(self):
        cfg = build_config({"scenario": "transfer", "preset": "fig5-red"})
        params = cfg.link_params()
        assert params.g_a == pytest.approx(100 * TWO_PI_MHZ)
        assert params.kappa == pytest.approx(6 * TWO_PI_MHZ)
        assert params.gamma_a == pytest.approx(65 * TWO_PI_MHZ)

    def test_explicit_keys_override_preset(self):
        cfg = build_config(
            {"scenario": "transfer", "preset": "fig4", "kappa_2pi_mhz": 0.0}
        )
        assert cfg.link_params().kappa == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            build_config({"scenario": "transfer", "preset": "fig99"})

    def test_preset_table_is_read_only_mapping(self):
        assert PRESETS["fig6a"] == PRESETS["fig5-red"]
        assert set(PRESETS["fig4"]) == {"g0_2pi_mhz", "kappa_2pi_mhz", "gamma_2pi_mhz"}

    def test_list_presets_flag(self, capsys):
        assert main(["--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fig5-yellow" in out and "253" in out


class TestScheduleResolution:
    def test_stirap_defaults_from_adiabaticity(self):
        cfg = build_config({"scenario": "transfer", "preset": "fig5-red",
                            "protocol": "stirap"})
        assert (cfg.adiabaticity, cfg.delay_ratio) == (DEFAULT_ADIABATICITY, DEFAULT_DELAY_RATIO)
        sched = cfg.schedule()
        g0 = 100 * TWO_PI_MHZ
        assert sched.pulse_width == pytest.approx(100.0 / g0)
        assert sched.t_delay == pytest.approx(1.2 * sched.pulse_width)
        assert sched.t_center == pytest.approx(3.0 * sched.pulse_width)

    def test_chain_defaults_to_stirap_with_20us_hops(self):
        cfg = resolve_defaults(build_config({"scenario": "chain", "preset": "fig6a"}))
        assert cfg.protocol == "stirap"
        assert cfg.hop_time_us == pytest.approx(20.0)

    def test_fig4_chain_keeps_its_20us_hops(self):
        # fig4's pulse window ends at 19.757 us, inside the chain default
        cfg = resolve_defaults(build_config({"scenario": "chain", "preset": "fig4"}))
        assert cfg.hop_time_us == cfg.t_final_us == 20.0

    @pytest.mark.parametrize("values, horizon_us", [
        ({"scenario": "coherent-info", "preset": "fig4", "protocol": "stirap"}, 19.757),
        ({"scenario": "transfer", "protocol": "stirap", "g0_2pi_mhz": 1.0}, 114.59),
        ({"scenario": "chain", "g0_2pi_mhz": 5.7}, 20.10),
        ({"scenario": "sweep-distance", "protocol": "stirap"}, 19.757),
    ], ids=["coherent-info-fig4", "transfer-g0-1", "chain-g0-5.7", "sweep-distance"])
    def test_default_horizon_reaches_the_pulse_window_end(self, values, horizon_us):
        # each default once ended inside the window: coherent-info ran to
        # status = ok with nothing transferred, transfer cut its pulse pair off
        # at 100 us, and chain and sweep-distance were refused
        cfg = resolve_defaults(build_config(values))
        key = "hop_time_us" if cfg.scenario in ("chain", "sweep-distance") else "t_final_us"
        _, window_end = default_stirap_window(cfg.schedule())
        assert getattr(cfg, key) == cfg.t_final_us == window_end / 1e-6
        assert getattr(cfg, key) == pytest.approx(horizon_us, abs=5e-3)

    def test_sweep_defaults_to_transfer_time_hops(self):
        cfg = resolve_defaults(build_config({"scenario": "sweep-distance"}))
        g0 = 5.8 * TWO_PI_MHZ
        assert cfg.hop_time_us == pytest.approx(math.pi / (math.sqrt(2) * g0) / 1e-6)

    @pytest.mark.parametrize("values", [{"preset": name} for name in sorted(PRESETS)]
                             + [{"g0_2pi_mhz": 12.772}, {"g0_2pi_mhz": 69.577}],
                             ids=sorted(PRESETS) + ["g0-12.772", "g0-69.577"])
    def test_stirap_compare_default_horizon_accepted(self, values):
        # the default horizon is the window's end in config units; at these two
        # g0, t_final_us * 1e-6 falls below that end in seconds by roundoff
        cfg = resolve_defaults(build_config({"scenario": "stirap-compare", **values}))
        _, window_end = default_stirap_window(replace(cfg, protocol="stirap").schedule())
        assert cfg.t_final_us == window_end / 1e-6
        if "g0_2pi_mhz" in values:
            assert cfg.t_final_us * 1e-6 < window_end

    @pytest.mark.parametrize("scenario", ["chain", "sweep-distance"])
    def test_hop_at_the_printed_window_end_accepted(self, scenario):
        # the window end a rejection once printed, in us; in seconds this hop
        # falls an ulp short of it, and once was rejected again
        cfg = resolve_defaults(build_config({"scenario": scenario, "protocol": "stirap",
                                             "g0_2pi_mhz": 23.275,
                                             "hop_time_us": 4.923375253540908}))
        _, window_end = default_stirap_window(cfg.schedule())
        assert cfg.hop_time_us == window_end / 1e-6
        assert cfg.hop_time_us * 1e-6 < window_end

    def test_resolved_dt_follows_fastest_rate(self):
        cfg = resolve_defaults(build_config({"scenario": "transfer", "preset": "fig5-red"}))
        assert cfg.dt_ns == pytest.approx(2 * math.pi / (200 * 100 * TWO_PI_MHZ) / 1e-9)


class TestScenarioRuns:
    def test_transfer_outputs(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FAST_TRANSFER))
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert header == ["t_us", "pop_A", "pop_W", "pop_B", "fidelity", "trace", "purity"]
        fidelity = [float(r[4]) for r in rows]
        trace = [float(r[5]) for r in rows]
        assert all(0.0 <= f <= 1.0 for f in fidelity)
        assert all(abs(tr - 1.0) < 1e-6 for tr in trace)
        summary_header, summary_rows = read_csv(tmp_path / "out" / "summary.csv")
        assert summary_header == ["final_fidelity", "stabilization_us"]
        assert len(summary_rows) == 1

    def test_lab_frame_transfer_matches_the_rotating_frame(self, tmp_path):
        # 100 whole cycles at 500 x 2 pi MHz bring the lab-frame coherence back
        # to the rotating frame's. default_dt once left omega_q and omega_w out,
        # and RK4's own damping at 0.862 ns ended this run at the 0.5 floor
        fidelities = {}
        for frame, omega in (("rotating", 0.0), ("lab", 500.0)):
            cfg = build_config({"scenario": "transfer", "t_final_us": 0.2, **WEAK_LOSS,
                                "omega_q_2pi_mhz": omega, "omega_w_2pi_mhz": omega})
            assert run_scenario(cfg, tmp_path / frame) == 0
            _, [[final_fidelity, _]] = read_csv(tmp_path / frame / "summary.csv")
            fidelities[frame] = float(final_fidelity)
        assert fidelities["rotating"] > 0.89
        assert fidelities["lab"] == pytest.approx(fidelities["rotating"], abs=1e-6)

    def test_mode_dim_key_rejected(self, tmp_path):
        # one excitation never fills a Fock level above 1, so there is no
        # truncation to configure; and no run reads a refractive index, nor does
        # a phase of the input move an output (the link is phase covariant), nor
        # is a run's result one of its inputs; so a manifest that still carries
        # one is refused rather than silently ignored
        for line in ("mode_dim = 3", "fiber_refractive_index = 1.468", "phi_deg = 0.0",
                     "status = ok", "failed_at_us = -1.0", "error = ", "version = 0.1.0"):
            key = line.partition(" ")[0]
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(write_config(tmp_path, FAST_TRANSFER + line + "\n"))

    def test_mediator_chain_trajectory_header(self, tmp_path):
        # library-level layouts with several mediators get numbered columns
        from qlinksim.dynamics import LinkParams, evolve
        from qlinksim.qspace import link_layout, product_state

        layout = link_layout(n_mediators=3)
        params = LinkParams(g_a=1e7, g_b=1e7)
        rho0 = product_state([None] * 5, layout)
        traj = evolve(rho0, layout, params, params.constant_schedule(),
                      (0.0, 1e-8), 1e-10, sample_every=10, g_hop=1e7)
        _Outputs(tmp_path).write_trajectories(["trajectory.csv"], [traj])
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header == [
            "t_us", "pop_A", "pop_W", "pop_W2", "pop_W3", "pop_B",
            "fidelity", "trace", "purity",
        ]
        assert len(rows) == len(traj.times)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FAST_TRANSFER))
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("trajectory.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_round_trip_reproduces_summary(self, tmp_path):
        cfg = load_config(write_config(tmp_path, FAST_TRANSFER))
        run_scenario(cfg, tmp_path / "a")
        # the result follows the config as comment lines
        assert read_result(tmp_path / "a") == {
            "status": "ok", "failed_at_us": "-1.0", "error": "", "version": __version__}
        cfg2 = load_config(tmp_path / "a" / "manifest.txt")
        run_scenario(cfg2, tmp_path / "b")
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_chain_scenario_rows(self, tmp_path):
        cfg = build_config({
            "scenario": "chain", "g0_2pi_mhz": 100.0, "gamma_2pi_mhz": 5.0,
            "protocol": "constant", "hops": 3,
            "hop_time_us": math.pi / (math.sqrt(2) * 100 * TWO_PI_MHZ) / 1e-6,
            "dt_ns": 0.002, "theta_deg": 180.0,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["hop", "fidelity"]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        fids = [float(r[1]) for r in rows]
        assert fids[0] > fids[1] > fids[2]
        assert (tmp_path / "out" / "trajectory_hop2.csv").exists()

    def test_sweep_scenario_rows_sorted(self, tmp_path):
        cfg = build_config({
            "scenario": "sweep-distance", "lengths_km": (0.1, 0.001),
            "dt_ns": 0.05, "sample_every": 500,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["kind", "length_km", "fidelity"]
        assert len(rows) == 4
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert (tmp_path / "out" / "trajectory_cavity_0.001km.csv").exists()

    def test_stirap_compare_summary(self, tmp_path):
        cfg = build_config({
            "scenario": "stirap-compare", "preset": "fig5-red", "dt_ns": 0.05,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["protocol", "final_fidelity", "latency_us"]
        by_protocol = {r[0]: r for r in rows}
        assert set(by_protocol) == {"constant", "stirap"}
        assert float(by_protocol["stirap"][2]) > float(by_protocol["constant"][2])
        assert (tmp_path / "out" / "trajectory_stirap.csv").exists()

    def test_coherent_info_outputs(self, tmp_path):
        cfg = build_config({
            "scenario": "coherent-info", "g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 1.0,
            "dt_ns": 0.02, "n_samples": 5,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "curve.csv")
        assert header == ["t_us", "coherent_info_bits", "entanglement_fidelity"]
        assert len(rows) > 10
        summary_header, summary_rows = read_csv(tmp_path / "out" / "summary.csv")
        assert summary_header == [
            "coherent_info_bits", "entanglement_fidelity", "average_fidelity",
            "stabilization_us",
        ]
        info = float(summary_rows[0][0])
        assert -2.0 <= info <= 1.0

    def test_coherent_info_curve_matches_per_cell_rows(self, tmp_path, monkeypatch):
        curves = []

        def recorded_curve(channel):
            info, f_e = probe_curve(channel)
            curves.append((channel.times, info, f_e))
            return info, f_e

        probe_curve = metrics.probe_curve
        monkeypatch.setattr(metrics, "probe_curve", recorded_curve)
        cfg = build_config({
            "scenario": "coherent-info", "g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 1.0,
            "dt_ns": 0.02, "n_samples": 5,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        [(times, info, f_e)] = curves
        assert len(times) > 2 * 256 + 1  # several blocks
        rows = [[float(t / 1e-6), float(i), float(f)] for t, i, f in zip(times, info, f_e)]
        reference = _Outputs(tmp_path)
        reference.write_csv("curve.csv", ["t_us", "coherent_info_bits", "entanglement_fidelity"],
                            rows)
        assert (tmp_path / "out" / "curve.csv").read_bytes() == (
            tmp_path / "curve.csv").read_bytes()

    @pytest.mark.parametrize("rates", [
        {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006},
        {"preset": "fig5-red"},
    ], ids=["weak-loss", "fig5-red"])
    def test_coherent_info_at_the_default_dt_is_ok(self, rates, tmp_path):
        # both once failed as invalid-state (eigenvalues -8.477e-7 and
        # -1.002e-7), when RK4 on the density matrix lost positivity; the
        # amplitude engine's states are positive by construction
        cfg = build_config({"scenario": "coherent-info", "n_samples": 5, **rates})
        assert run_scenario(cfg, tmp_path / "out") == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")
        assert "status = ok" in manifest

    def test_coherent_info_matches_dense_runs(self, tmp_path):
        # the closed-form outputs against the Choi reference's per-sample
        # metrics, evolve and one evolution of its own per Haar sample
        cfg = build_config({
            "scenario": "coherent-info", "g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 1.0,
            "gamma_2pi_mhz": 2.0, "theta_deg": 60.0,
            "dt_ns": 0.02, "n_samples": 5, "seed": 3,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        cfg = resolve_defaults(cfg)
        params, schedule = cfg.link_params(), cfg.schedule()
        t_final, dt = cfg.t_final_us * 1e-6, cfg.dt_ns * 1e-9

        probe = run_choi_probe(params, schedule, t_final, dt, sample_every=cfg.sample_every)
        _, curve = read_csv(tmp_path / "out" / "curve.csv")
        np.testing.assert_allclose(
            np.array(curve, dtype=float),
            [[t / 1e-6, choi_coherent_information(probe, j), choi_entanglement_fidelity(probe, j)]
             for t, j in zip(probe.trajectory.times, probe.trajectory.states)],
            rtol=0, atol=1e-12)

        (link,) = cli._links(cfg).values()
        dense = _standard_run(link, cfg.target())
        _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        expected = np.column_stack([dense.times / 1e-6, dense.populations, dense.fidelity,
                                    dense.trace, dense.purity])
        np.testing.assert_allclose(np.array(rows, dtype=float), expected, rtol=0, atol=1e-12)

        _, summary = read_csv(tmp_path / "out" / "summary.csv")
        info, f_e, avg, stab_us = (float(v) for v in summary[0])
        assert info == pytest.approx(choi_coherent_information(probe), abs=1e-12)
        assert f_e == pytest.approx(choi_entanglement_fidelity(probe), abs=1e-12)
        dense_avg = metrics.average_fidelity(
            make_link_run(params, schedule, t_final, dt), cfg.n_samples, cfg.seed)
        assert avg == pytest.approx(dense_avg, abs=1e-12)
        assert stab_us == dense.stabilization_time() / 1e-6

    def test_tune_stirap_manifest_echoes_its_step(self, tmp_path):
        # the manifest once read dt_ns = -1; the step is the one each grid
        # point's run picks, as every point peaks at the link's couplings
        cfg = build_config({"scenario": "tune-stirap", "tune_widths_us": (0.5,),
                            "tune_delays_us": (0.6, 1.2), **WEAK_LOSS})
        assert run_scenario(cfg, tmp_path / "first") == 0
        manifest = load_config(tmp_path / "first" / "manifest.txt")
        params = cfg.link_params()
        grid_point = StirapSchedule(g0_a=params.g_a, g0_b=params.g_b,
                                    pulse_width=0.5e-6, t_delay=0.6e-6)
        assert manifest.dt_ns == default_dt(params, grid_point) / 1e-9
        assert run_scenario(manifest, tmp_path / "again") == 0
        assert ((tmp_path / "again" / "summary.csv").read_bytes()
                == (tmp_path / "first" / "summary.csv").read_bytes())

    def test_tune_stirap_outputs(self, tmp_path):
        cfg = build_config({
            "scenario": "tune-stirap", "g0_2pi_mhz": 100.0,
            "tune_widths_us": (0.25, 0.5), "tune_delays_us": (0.3,), "dt_ns": 0.1,
        })
        assert run_scenario(cfg, tmp_path / "out") == 0
        header, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert header == ["pulse_width_us", "t_delay_us", "fidelity", "best"]
        assert len(rows) == 2
        assert sum(int(r[3]) for r in rows) == 1
        best_row = next(r for r in rows if int(r[3]) == 1)
        assert float(best_row[2]) >= 0.99

    @pytest.mark.parametrize("link", DENSE_RUN_RATES)
    def test_stirap_compare_matches_dense_runs(self, link, tmp_path):
        # each schedule's link_channel run against evolve on the target's dense rho0
        cfg = build_config({"scenario": "stirap-compare", **DENSE_RUN_RATES[link],
                            **DENSE_RUN_INPUTS[link]})
        assert run_scenario(cfg, tmp_path / "out") == 0
        cfg = resolve_defaults(cfg)
        _, summary = read_csv(tmp_path / "out" / "summary.csv")
        assert [row[0] for row in summary] == ["constant", "stirap"]
        links = cli._links(cfg)
        for name, final_fidelity, latency_us in summary:
            dense = _standard_run(links[name], cfg.target())
            _, rows = read_csv(tmp_path / "out" / f"trajectory_{name}.csv")
            expected = np.column_stack([dense.times / 1e-6, dense.populations, dense.fidelity,
                                        dense.trace, dense.purity])
            np.testing.assert_allclose(np.array(rows, dtype=float), expected, rtol=0,
                                       atol=1e-12, err_msg=name)
            assert float(final_fidelity) == pytest.approx(dense.final_fidelity, abs=1e-12)
            if name == "constant":
                assert float(latency_us) == dense.stabilization_time() / 1e-6

    @pytest.mark.parametrize("rates", DENSE_RUN_RATES.values(), ids=DENSE_RUN_RATES)
    def test_tune_stirap_matches_dense_runs(self, rates, tmp_path):
        # each grid point's link_channel run against evolve on |1> (x) vacuum
        cfg = build_config({"scenario": "tune-stirap", "tune_widths_us": (0.25, 0.5),
                            "tune_delays_us": (0.3,), **rates})
        assert run_scenario(cfg, tmp_path / "out") == 0
        params, layout = cfg.link_params(), link_layout()
        rho0 = product_state([PureQubitSpec(theta=math.pi), None, None], layout)
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        points = list(product(cfg.tune_widths_us, cfg.tune_delays_us))
        assert len(rows) == len(points)
        for (width_us, delay_us), row in zip(points, rows):
            schedule = StirapSchedule(g0_a=params.g_a, g0_b=params.g_b,
                                      pulse_width=width_us * 1e-6, t_delay=delay_us * 1e-6)
            _, t1 = default_stirap_window(schedule)
            dense = evolve(rho0, layout, params, schedule, (0.0, t1),
                           default_dt(params, schedule), sample_every=1000)
            assert float(row[2]) == pytest.approx(dense.pop_b[-1], abs=1e-12)

    @pytest.mark.parametrize("values, zeros", [
        ({"preset": "fig5-red"}, 8),
        ({"tune_widths_us": (0.5, 1.0), "tune_delays_us": (0.6, 1.2), **WEAK_LOSS}, 0),
    ], ids=["fig5-red", "weak-loss"])
    def test_tune_stirap_warns_of_underflowed_fidelities(self, values, zeros, tmp_path):
        # fig5-red's qubit decay empties the link within every window; the one
        # grid point above 0.0 is 2.8e-255, and best is picked among the rest
        # by window length alone
        cfg = build_config({"scenario": "tune-stirap", **values})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_scenario(cfg, tmp_path / "out") == 0
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert sum(float(row[2]) == 0.0 for row in rows) == zeros
        messages = [(w.category, str(w.message)) for w in caught]
        expected = (f"{zeros} of {len(rows)} grid fidelities underflowed to 0.0; the best "
                    "record ranks those by window length alone")
        assert messages == ([(RuntimeWarning, expected)] if zeros else [])

    @pytest.mark.parametrize("values, failed", [
        ({}, []),
        ({"lengths_km": (1.0, 1400.0, 10000.0)}, []),
        # a constant drive is exact at any step, so this point runs STIRAP pulses, by RK4
        ({"lengths_km": (10000.0,), "dt_ns": 0.862, "protocol": "stirap"},
         ["cavity at 10000 km"]),
    ], ids=["default-lengths", "long-at-default-step", "long-at-coarse-step"])
    def test_sweep_distance_warns_of_failed_points(self, values, failed, tmp_path):
        # at long lengths the medium's loss outruns g0; the default step once
        # followed kappa_2pi_mhz alone, and those points failed (nan) silently
        cfg = build_config({"scenario": "sweep-distance", **WEAK_LOSS, **values})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_scenario(cfg, tmp_path / "out") == 0
        _, rows = read_csv(tmp_path / "out" / "summary.csv")
        assert [f"{kind} at {float(km):g} km" for kind, km, fid in rows
                if math.isnan(float(fid))] == failed
        assert all(0.5 < float(fid) < 1.0 for *_, fid in rows if not math.isnan(float(fid)))
        messages = [(w.category, str(w.message)) for w in caught]
        if not failed:
            assert messages == []
            return
        [(category, message)] = messages
        assert category is RuntimeWarning
        assert message.startswith(f"{len(failed)} of {len(rows)} sweep points failed and read "
                                  f"nan: {failed[0]}: vacuum refill")
        assert all(f"{point}: " in message for point in failed)


    @pytest.mark.parametrize("dt_ns", [2.5, 1.5])
    def test_constant_transfer_is_exact_at_any_step(self, dt_ns, tmp_path):
        # fig5-red near its bare transfer time: RK4 at a 2.5 ns step read
        # 0.5283279 here, and 0.5944 at 1.5 ns, each with status = ok; the
        # exact step reads the answer whatever the step
        cfg = build_config({"scenario": "transfer", "preset": "fig5-red", "t_final_us": 0.0106,
                            "dt_ns": dt_ns})
        assert run_scenario(cfg, tmp_path / "out") == 0
        assert read_result(tmp_path / "out")["status"] == "ok"
        _, [[fidelity, _]] = read_csv(tmp_path / "out" / "summary.csv")
        assert float(fidelity) == pytest.approx(0.6056868, abs=1e-7)

# shortest reprs, the sign of zero, subnormals, exponent switches, non-finite
EDGE_VALUES = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1, 1.0 / 3.0, math.nan, math.inf, -math.inf]


# rows: within one block, on either side of a block's edge, and across many
# blocks, ending on a block's edge, one row past it and inside a block
ROW_COUNTS = [1, 255, 256, 257, 2 * 256 + 1, 8191, 8192, 8193, 12287, 12288, 12289, 12545]


def edge_columns(n_rows, n_columns):
    rng = np.random.default_rng(n_rows)
    pool = np.concatenate([EDGE_VALUES, rng.standard_normal(13) * 10.0 ** rng.integers(
        -30, 30, 13)])
    # each column starts the pool at another value, so edge values fall in every block
    return [np.resize(np.roll(pool, k), n_rows) for k in range(n_columns)]


def per_cell_lines(header, columns):
    """The lines of the file write_csv writes, one _fmt call per cell."""
    rows = [[_fmt(float(c[i])) for c in columns] for i in range(len(columns[0]))]
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    return [",".join(header)] + [",".join(r) for r in rows] + [""]


class TestColumnWriter:
    @pytest.mark.parametrize("n_rows", ROW_COUNTS, ids=[str(n) for n in ROW_COUNTS])
    def test_blocks_match_per_cell_rows(self, n_rows, tmp_path):
        header = ["t_us", "a", "b", "c"]
        columns = edge_columns(n_rows, len(header))
        _Outputs(tmp_path).write_tables(["columns.csv"], header, [columns])
        text = (tmp_path / "columns.csv").read_text(encoding="utf-8")
        assert text.split("\n") == per_cell_lines(header, columns)
        assert os.listdir(tmp_path) == ["columns.csv"]

    # A table of n_rows rows before a 300-row table: the block that holds the
    # first table's last row is split by its newlines, at every place in a
    # block that ROW_COUNTS ends on, and the second file opens with the next row.
    @pytest.mark.parametrize("n_rows", ROW_COUNTS, ids=[str(n) for n in ROW_COUNTS])
    def test_a_table_ending_at_any_row_splits_its_block(self, n_rows, tmp_path):
        header = ["t_us", "a", "b"]
        tables = [edge_columns(n_rows, len(header)), edge_columns(300, len(header))]
        _Outputs(tmp_path).write_tables(["first.csv", "second.csv"], header, tables)
        for name, columns in zip(["first.csv", "second.csv"], tables):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text.split("\n") == per_cell_lines(header, columns), name
        assert sorted(os.listdir(tmp_path)) == ["first.csv", "second.csv"]

    # tables written as one stream, by the row each ends before: one row, rows
    # within a block and across blocks, and a 1-row table on each side of
    # three blocks' edges (512, 4096 and 8704). So a block (rows 0-511)
    # ends on a file's last row, and the next file opens with the next row.
    TABLE_ENDS = [1, 256, 511, 512, 513, 4095, 4096, 4097, 8703, 8704, 8705, 13357]
    TABLE_ROWS = np.diff([0] + TABLE_ENDS).tolist()

    @pytest.mark.parametrize("n_cpus", [1, 3])
    def test_tables_match_per_cell_rows(self, n_cpus, tmp_path, monkeypatch):
        # however many CPUs are usable, one process formats every row
        forks = []
        fork = getattr(os, "fork", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)),
                            raising=False)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork(), raising=False)
        header = ["t_us", "a", "b"]
        tables = [edge_columns(n_rows, len(header)) for n_rows in self.TABLE_ROWS]
        names = [f"table{i}.csv" for i in range(len(tables))]
        _Outputs(tmp_path).write_tables(names, header, tables)
        assert forks == []
        for name, columns in zip(names, tables):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text.split("\n") == per_cell_lines(header, columns), name
        assert sorted(os.listdir(tmp_path)) == sorted(names)

    def write_failing_tables(self, outputs, monkeypatch, owner, method, fails_at):
        """Write the TABLE_ENDS tables where the fails_at-th call of owner.method
        (counted from 0) runs out of space; return the error it raised."""
        real = getattr(owner, method)
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) - 1 == fails_at:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args)

        monkeypatch.setattr(owner, method, failing)
        header = ["t_us", "a", "b"]
        tables = [edge_columns(n_rows, len(header)) for n_rows in self.TABLE_ROWS]
        names = [f"table{i}.csv" for i in range(len(tables))]
        with pytest.raises(OSError) as err:
            outputs.write_tables(names, header, tables)
        return str(err.value)

    # the first, the second, a middle and the last of the 27 blocks; block 8
    # starts at row 4096, the first row of the table after one that ends there
    @pytest.mark.parametrize("block", [0, 1, 8, 16, 26])
    def test_a_write_that_fails_in_a_block_records_the_files_it_opened(self, block, tmp_path,
                                                                       monkeypatch):
        outputs = _Outputs(tmp_path)
        error = self.write_failing_tables(outputs, monkeypatch, cli, "_block_text", block)
        # the open file holds the last row written, or the first table's header
        table = max(0, bisect_right(self.TABLE_ENDS, block * cli._CSV_BLOCK_ROWS - 1))
        assert re.fullmatch(rf"cannot write .*table{table}\.csv: \[Errno 28\] No space left "
                            r"on device", error), error
        names = [f"table{i}.csv" for i in range(table + 1)]
        # a run removes what outputs.written lists: every file that was opened
        assert outputs.written == [tmp_path / name for name in names]
        assert sorted(os.listdir(tmp_path)) == sorted(names)

    # the second file, which opens after the first table's one row, and the last
    @pytest.mark.parametrize("table", [1, 11])
    def test_a_file_that_cannot_open_stops_the_write(self, table, tmp_path, monkeypatch):
        outputs = _Outputs(tmp_path)
        error = self.write_failing_tables(outputs, monkeypatch, _Outputs, "_open", table)
        assert re.fullmatch(rf"cannot write .*table{table}\.csv: \[Errno 28\] No space left "
                            r"on device", error), error
        names = [f"table{i}.csv" for i in range(table)]
        assert outputs.written == [tmp_path / name for name in names]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        for name, n_rows in zip(names, self.TABLE_ROWS):  # each table before it is whole
            assert len((tmp_path / name).read_bytes().split(b"\n")) == n_rows + 2, name

    # columns of unequal length, and a table with no rows after one with a row
    @pytest.mark.parametrize("tables, message", [
        ([[np.zeros(3), np.zeros(2)]], "bad0.csv: expected 2 1-D columns of 3 rows"),
        ([[np.zeros(1), np.zeros(1)], [np.zeros(0), np.zeros(0)]],
         "bad1.csv: a table needs at least one row"),
    ], ids=["mismatched", "empty"])
    def test_bad_tables_rejected_before_any_file_opens(self, tables, message, tmp_path):
        names = [f"bad{i}.csv" for i in range(len(tables))]
        with pytest.raises(ValueError, match=message):
            _Outputs(tmp_path).write_tables(names, ["a", "b"], tables)
        assert os.listdir(tmp_path) == []

    def test_memory_stays_flat_in_the_run_length(self, tmp_path):
        # the whole-table .tolist() this replaced grew 4x with the run length
        def peak(n_rows):
            columns = [np.random.default_rng(0).random(n_rows) for _ in range(7)]
            outputs = _Outputs(tmp_path)
            tracemalloc.start()
            try:
                outputs.write_tables([f"{n_rows}.csv"], list("abcdefg"), [columns])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(1024), peak(4 * 1024)
        assert long - short < 16 * 1024

    # A constant one-mediator transfer of |psi> on A holds, per sample, one
    # stepped complex amplitude per site, its fidelity and its time; every
    # other column is computed a block at a time where its rows are written.
    # Measured: 64.01 B per added sample; stepping two columns and holding
    # whole populations, purity, trace and vacuum arrays gives 168 B.
    TRANSFER_BYTES_PER_SAMPLE = 3 * 16 + 8 + 8

    def test_transfer_memory_grows_by_its_amplitudes_only(self, tmp_path):
        params = build_config({"scenario": "transfer", **WEAK_LOSS}).link_params()
        target, layout, dt = PureQubitSpec(theta=1.1, phi=0.3), link_layout(), 1e-10
        rho0 = product_state([target, None, None], layout)

        def peak(n_samples):
            tracemalloc.start()
            try:
                traj = evolve(rho0, layout, params, params.constant_schedule(),
                              (0.0, n_samples * dt), dt, target=target)
                _Outputs(tmp_path).write_trajectories([f"{n_samples}.csv"], [traj])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # the text kernel's tables are built at first use, not per run
        short, long = peak(4 * 1024), peak(16 * 1024)
        assert long - short < self.TRANSFER_BYTES_PER_SAMPLE * 12 * 1024 + 4096, (short, long)

    def test_transfer_steps_one_column(self, tmp_path, monkeypatch):
        # any qubit on A with the rest in vacuum spans one column: R0's factor
        # and the vacuum coherence u0 are both multiples of e_A
        columns = []
        amplitude_run = dynamics._amplitude_run

        def counting_run(v0, *args):
            columns.append(v0.shape[-1])
            return amplitude_run(v0, *args)

        monkeypatch.setattr(dynamics, "_amplitude_run", counting_run)
        for theta_deg in (0.0, 60.0, 90.0, 180.0):
            cfg = build_config(dict(SMALL_SCENARIOS["transfer"], theta_deg=theta_deg))
            assert run_scenario(cfg, tmp_path / str(theta_deg)) == 0
        assert columns == [1, 1, 1, 1]

def repr_rows(block):
    """The text ",".join(map(repr, row)) gives each row of a float array."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())


def kernel_test_values(rng, n):
    """About 10 n values of both signs from the classes the CSV float kernel
    must get right: random bit patterns (every exponent, subnormals, nan
    payloads), 10^U(-30, 16.2) and its neighbours, powers of two and ten and
    their neighbours, decimals rounded to 0-11 places, and m 10^-k for 9-digit
    m and k = 7-29 (the 1e-28 to 1e-6 decade range, where V is carried
    inexactly)."""
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, dtype=np.int64)
    spread = 10.0 ** rng.uniform(-30, 16.2, n)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-100, 54)), 10.0 ** np.arange(-31, 17)])
    m = rng.integers(1, 10 ** 9, n // 8).astype(float)
    values = np.concatenate([
        bits.view(np.float64),
        *(np.nextafter(x, toward) for x in (spread, powers) for toward in (-np.inf, np.inf)),
        spread, powers,
        *(np.round(rng.uniform(-1e6, 1e6, n // 4), k) for k in range(12)),
        *(m * 10.0 ** -k for k in range(7, 30)),
    ])
    return np.copysign(values, rng.choice([-1.0, 1.0], values.size))


class TestFloatText:
    def test_blocks_match_repr(self):
        # 3e5 values; a one-off run of the same classes over 5.6e6 values
        # found no difference either
        values = kernel_test_values(np.random.default_rng(20), 30000)
        values = values[:values.size // 7 * 7].reshape(-1, 7)
        for first in range(0, len(values), cli._CSV_BLOCK_ROWS):
            block = values[first:first + cli._CSV_BLOCK_ROWS]
            assert cli._block_text(block) == repr_rows(block).encode()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=8))
    def test_rows_of_any_floats_match_repr(self, rows):
        block = np.array(rows, dtype=float)
        assert cli._block_text(block) == repr_rows(block).encode()

    def test_only_the_undecided_cells_reach_repr(self, monkeypatch):
        # smooth trajectory-like columns never fall back to repr; the kernel
        # sends it each cell it leaves undecided, and nothing else
        sent = []

        def counting_repr(value):
            sent.append(value)
            return repr(value)

        monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
        t = np.arange(cli._CSV_BLOCK_ROWS) * 0.0125
        decay = np.exp(-t / 3.0)
        smooth = np.stack([t, decay, 1.0 - decay, decay ** 20, np.ones_like(t), -np.sin(t),
                           np.sin(t) ** 2 * 1e-12], axis=1)
        assert cli._block_text(smooth) == repr_rows(smooth).encode()
        assert sent == []
        edges = np.array([[0.0, -0.0, 1.0, 0.5, 1e16, 1e-5, 123.0],
                          [math.nan, math.inf, 5e-324, 1e17, 2.0 ** -30, 1000000000000000.25,
                           9e-29]])
        assert cli._block_text(edges) == repr_rows(edges).encode()
        assert [repr(x) for x in sent] == ["nan", "inf", "5e-324", "1e+17",
                                           "9.313225746154785e-10", "1000000000000000.2",
                                           "9e-29"]


class TestFailureHandling:
    def test_integration_failure_removes_csvs_and_reports(self, tmp_path):
        cfg = build_config({
            "scenario": "transfer", "preset": "fig5-red", "protocol": "stirap",
            "t_final_us": 1.2, "dt_ns": 6.0,  # too coarse for RK4 at the pulses' peak
        })
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        assert not list(out.glob("*.csv"))
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "status = integration-failure" in manifest
        assert "failed_at_us" in manifest

    def test_integration_failure_message_names_step_grid_and_quantity(self, tmp_path, capsys):
        cfg = build_config({
            "scenario": "transfer", "preset": "fig5-red", "protocol": "stirap",
            "t_final_us": 1.2, "dt_ns": 6.0,
        })
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        message = ("vacuum refill Tr R0 - Tr R = -2.220e+00 below -1e-05, a lower bound on "
                   "the smallest eigenvalue at t = 5.520000e-07 s (step 92 of 200, "
                   "dt = 6.000000e-09 s, sample_every = 1)")
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"error = {message}\n" in manifest
        assert float(read_result(out)["failed_at_us"]) == pytest.approx(0.552, rel=1e-12)
        assert message in capsys.readouterr().err

    def test_failed_run_keeps_csvs_it_did_not_write(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("a,b\n1,2\n", encoding="utf-8")
        cfg = build_config({
            "scenario": "transfer", "preset": "fig5-red", "protocol": "stirap",
            "t_final_us": 1.2, "dt_ns": 6.0,
        })
        assert run_scenario(cfg, out) == 1
        assert [p.name for p in out.glob("*.csv")] == ["earlier.csv"]
        assert (out / "earlier.csv").read_text(encoding="utf-8") == "a,b\n1,2\n"

    def test_stirap_compare_runs_both_links_before_writing(self, tmp_path, monkeypatch):
        # the constant link is exact at any step; the pulsed one fails at 6 ns,
        # after the constant one has run and before any file is opened
        opened = []
        open_file = _Outputs._open

        def recording_open(outputs, name):
            opened.append(name)
            return open_file(outputs, name)

        monkeypatch.setattr(_Outputs, "_open", recording_open)
        cfg = build_config({"scenario": "stirap-compare", "preset": "fig5-red", "dt_ns": 6.0})
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        assert opened == []
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        assert read_result(out)["error"].startswith("vacuum refill")

    def test_failing_tune_stirap_grid_point_is_reported_in_the_manifest(self, tmp_path,
                                                                        capsys):
        # a 200 ns step refills the vacuum on the first point's weak-loss run,
        # and the grid search names that point
        cfg = build_config({"scenario": "tune-stirap", **WEAK_LOSS, "dt_ns": 200.0})
        out = tmp_path / "out"
        assert run_scenario(cfg, out) == 1
        assert [p.name for p in out.iterdir()] == ["manifest.txt"]
        result = read_result(out)
        assert result["status"] == "integration-failure"
        assert result["failed_at_us"] == "1.4000000000000001"
        assert result["error"].startswith(
            "grid point (T=5e-07, t_delay=6e-07): vacuum refill")
        assert result["error"] in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["coherent-info", "chain"])
    def test_invalid_state_is_reported_in_the_manifest(self, scenario, tmp_path, monkeypatch,
                                                       capsys):
        def invalid(*args, **kwargs):
            raise InvalidStateError("eigenvalue -2.000e-07 below -1e-07; not a density matrix")

        if scenario == "coherent-info":
            # fails after curve.csv and trajectory.csv are written
            monkeypatch.setattr(metrics, "average_fidelity", invalid)
            values = {"g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 1.0, "dt_ns": 0.02, "n_samples": 5}
            error = "eigenvalue -2.000e-07 below -1e-07"
        else:
            # a survival |f|^2 = 1 + 1e-8 scores the first hop past the fidelity slack
            channel = LinkChannel(np.array([0.0, 1e-6]),
                                  np.array([[1.0, 0, 0], [0, 0, -math.sqrt(1.0 + 1e-8)]]))
            monkeypatch.setattr(network, "link_channel", lambda link: channel)
            values = {"protocol": "constant", "hops": 2, **WEAK_LOSS}
            error = "fidelity 1.0000000025"
        out = tmp_path / "out"
        out.mkdir()
        (out / "earlier.csv").write_text("a\n1\n", encoding="utf-8")
        assert run_scenario(build_config({"scenario": scenario, **values}), out) == 1
        assert [p.name for p in out.glob("*.csv")] == ["earlier.csv"]
        result = read_result(out)
        assert result["status"] == "invalid-state"
        assert result["error"].startswith(error)
        assert error in capsys.readouterr().err

    def test_write_failure_removes_csvs_and_reports(self, tmp_path, monkeypatch, capsys):
        # a rerun into an ok run's directory that runs out of space in its
        # first trajectory block: the trajectory it truncated goes, the
        # earlier summary it never opened stays, and the manifest is its own
        out = tmp_path / "out"
        assert run_scenario(load_config(write_config(tmp_path, FAST_TRANSFER)), out) == 0
        summary = (out / "summary.csv").read_bytes()

        def full_disk(block):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_block_text", full_disk)
        cfg = load_config(write_config(tmp_path, FAST_TRANSFER), {"t_final_us": 0.6})
        assert run_scenario(cfg, out) == 1
        assert [p.name for p in out.glob("*.csv")] == ["summary.csv"]
        assert (out / "summary.csv").read_bytes() == summary
        result = read_result(out)
        assert result["status"] == "write-failure"
        assert re.fullmatch(r"cannot write .*trajectory\.csv: \[Errno 28\] No space left on "
                            r"device", result["error"]), result["error"]
        assert load_config(out / "manifest.txt").t_final_us == 0.6
        assert f"error: {result['error']}" in capsys.readouterr().err

    @pytest.mark.parametrize("config, run_errors", [
        (FAST_TRANSFER, []),
        ("scenario = transfer\npreset = fig5-red\nprotocol = stirap\nt_final_us = 1.2\n"
         "dt_ns = 6.0\n",
         ["error: vacuum refill Tr R0 - Tr R = -2.220e+00 below -1e-05, a lower bound on the "
          "smallest eigenvalue at t = 5.520000e-07 s (step 92 of 200, dt = 6.000000e-09 s, "
          "sample_every = 1)"]),
    ], ids=["ok-run", "failed-run"])
    def test_manifest_that_cannot_be_written_removes_the_csvs(self, tmp_path, capsys, config,
                                                              run_errors):
        # a directory where the manifest goes: no CSV is left without one, and a
        # failed run's own error comes before the manifest's
        out = tmp_path / "out"
        manifest = out / "manifest.txt"
        manifest.mkdir(parents=True)
        assert main(["--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 1
        assert list(out.iterdir()) == [manifest]
        assert manifest.is_dir()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            *run_errors, f"error: cannot write {manifest}: Is a directory"]

    def test_file_in_the_way_is_a_write_failure(self, tmp_path):
        # a directory where a CSV goes: the run fails and leaves it alone
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        assert run_scenario(load_config(write_config(tmp_path, FAST_TRANSFER)), out) == 1
        assert (out / "trajectory.csv").is_dir()
        assert read_result(out)["status"] == "write-failure"

    def test_out_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"out_path = {re.escape(str(taken))} cannot be "
                                              "made a directory: .*File exists"):
            run_scenario(load_config(write_config(tmp_path, FAST_TRANSFER)), taken)
        assert main(["transfer", "--out", str(taken)]) == 2
        assert "config error: out_path = " in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == ""

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = write_config(tmp_path, "scenario = transfer\nbogus_key = 1\n")
        assert main(["transfer", "--config", str(bad)]) == 2
        assert "bogus_key" in capsys.readouterr().err
        assert main([]) == 2  # scenario missing
        assert "scenario is required (positional argument or config key)" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("text, key", [
        ("scenario = transfer\nomega_q_2pi_mhz = 5\n", "omega_q_2pi_mhz"),
        ("scenario = transfer\nphi_deg = inf\n", "unknown key 'phi_deg'"),
        ("scenario = transfer\nphi_deg = nan\n", "unknown key 'phi_deg'"),
        ("scenario = chain\nprotocol = stirap\nhop_time_us = 1.0\n", "hop_time_us"),
        ("scenario = sweep-distance\nprotocol = stirap\nhop_time_us = 2.0\n", "hop_time_us"),
        ("scenario = stirap-compare\npreset = fig4\nt_final_us = 1\n", "t_final_us"),
        (f"scenario = transfer\nprotocol = stirap\nt_final_us = 5\n{WEAK_LOSS_TEXT}",
         "t_final_us"),
        (f"scenario = coherent-info\nprotocol = stirap\nt_final_us = 5\n{WEAK_LOSS_TEXT}",
         "t_final_us"),
        # every hop runs for hop_time_us: a chain does not read t_final_us
        (f"scenario = chain\nhop_time_us = 20\nt_final_us = 0.5\n{WEAK_LOSS_TEXT}",
         "t_final_us = 0.5 is not read by the chain scenario"),
        ("scenario = transfer\nprotocol = stirap\nadiabaticity = 0\n", "adiabaticity"),
        ("scenario = transfer\nprotocol = stirap\ndelay_ratio = 0\n", "delay_ratio"),
        # the stirap schedule fails while its link is built, and names its own key
        ("scenario = stirap-compare\nt_final_us = 30\nadiabaticity = 0\n", "adiabaticity"),
        # 1e-9 (relative) short of the window end at g0 = 23.275, which ends
        # at 4.923375253540908 us: far outside the tolerance of a unit round trip
        ("scenario = chain\ng0_2pi_mhz = 23.275\nhop_time_us = 4.923375248617533\n",
         "hop_time_us"),
        ("scenario = transfer\npreset = fig4\ngamma_a_2pi_mhz = 1.0\n", "gamma_a_2pi_mhz"),
        ("scenario = transfer\ngamma_2pi_mhz = 0\ngamma_b_2pi_mhz = 2\n", "gamma_b_2pi_mhz"),
        # finite values whose step count or pulse pair is not
        ("scenario = transfer\nt_final_us = 1e308\n", "t_final_us"),
        ("scenario = chain\nhop_time_us = 1e308\n", "hop_time_us"),
        ("scenario = transfer\nprotocol = stirap\nadiabaticity = 1e8\ndelay_ratio = 1e308\n",
         "delay_ratio"),
        ("scenario = tune-stirap\ntune_widths_us = 1e306\n", "tune_widths_us"),
        ("scenario = tune-stirap\ntune_widths_us = 1e-320\n", "tune_widths_us"),
        # keys the scenario, or its protocol, does not read
        ("scenario = transfer\nhops = 3\n", "hops = 3 is not read by the transfer scenario"),
        ("scenario = transfer\npulse_width_us = 0.5\n",
         "pulse_width_us = 0.5 is not read by the transfer scenario with protocol = constant"),
        ("scenario = tune-stirap\ntheta_deg = 60\n",
         "theta_deg = 60.0 is not read by the tune-stirap scenario"),
        ("scenario = tune-stirap\nsample_every = 5\n",
         "sample_every = 5 is not read by the tune-stirap scenario"),
        ("scenario = stirap-compare\nprotocol = stirap\n",
         "protocol = stirap is not read by the stirap-compare scenario"),
        ("scenario = coherent-info\nlengths_km = 0.1, 1\n",
         "lengths_km = 0.1, 1.0 is not read by the coherent-info scenario"),
        # keys the config's other values make inert
        ("scenario = stirap-compare\npulse_width_us = 0.25\nadiabaticity = 50\n",
         "adiabaticity = 50.0 is not read by the stirap-compare scenario with "
         "pulse_width_us = 0.25"),
        (f"scenario = transfer\nprotocol = stirap\nt_delay_us = 0.3\ndelay_ratio = 1\n"
         f"{WEAK_LOSS_TEXT}",
         "delay_ratio = 1.0 is not read by the transfer scenario with t_delay_us = 0.3"),
        ("scenario = sweep-distance\nmedia = cavity+fiber\ncavity_loss_2pi_mhz_per_km = 2\n",
         "cavity_loss_2pi_mhz_per_km = 2.0 is not read by the sweep-distance scenario with "
         "media = cavity"),
        ("scenario = sweep-distance\nmedia = cavity\nfiber_coupling_2pi_mhz = 0.2\n",
         "fiber_coupling_2pi_mhz = 0.2 is not read by the sweep-distance scenario with "
         "media = cavity"),
        ("scenario = sweep-distance\nmedia = cavity\nfiber_attenuation_db_per_km = 0.3\n",
         "fiber_attenuation_db_per_km = 0.3 is not read by the sweep-distance scenario with "
         "media = cavity"),
        ("scenario = sweep-distance\nmedia = fiber\nbase_kappa_2pi_mhz = 0.1\n",
         "base_kappa_2pi_mhz = 0.1 is not read by the sweep-distance scenario with "
         "media = fiber"),
    ], ids=["frame-mismatch", "phi-inf", "phi-nan", "chain-hop-in-window",
            "sweep-hop-in-window", "compare-horizon-in-window", "transfer-horizon-in-window",
            "coherent-info-horizon-in-window", "chain-t-final-off-the-hop", "zero-adiabaticity",
            "zero-delay-ratio", "compare-zero-adiabaticity", "chain-hop-just-short-of-window",
            "gamma-a-under-preset", "gamma-b-under-zero-gamma", "transfer-steps-overflow",
            "chain-steps-overflow", "stirap-delay-overflow", "tune-window-steps-overflow",
            "tune-width-underflow", "transfer-hops", "constant-transfer-pulse-width",
            "tune-theta", "tune-sample-every", "compare-protocol", "coherent-info-lengths",
            "adiabaticity-under-pulse-width", "delay-ratio-under-delay",
            "cavity-loss-without-cavity", "fiber-coupling-without-cavity-fiber",
            "fiber-attenuation-without-fiber", "base-kappa-without-cavity"])
    def test_configs_the_run_cannot_build_exit_with_a_config_error(self, text, key, tmp_path,
                                                                   capsys):
        # each of these once passed validation and crashed the run with a
        # traceback, or (a stirap-compare horizon inside the pulse window) ended
        # status = ok with a stirap latency past the simulated time, or (a
        # transfer or coherent-info horizon inside it) with the pulse pair cut
        # off, or (a chain's t_final_us) only moved the output cadence, or (a
        # per-qubit gamma next to gamma_2pi_mhz) ran with that gamma ignored, or
        # (a key the scenario does not read, or one its other keys make inert)
        # changed nothing but the manifest
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, text))
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("scenario", ["chain", "sweep-distance"])
    def test_hop_scenarios_take_their_horizon_from_hop_time_us(self, scenario, tmp_path):
        # every hop runs for hop_time_us, so a second horizon is not read
        own = {"chain": {"hops": 2}, "sweep-distance": {"lengths_km": (0.1,)}}[scenario]
        values = {"scenario": scenario, **own, **WEAK_LOSS}
        with pytest.raises(ConfigError, match=rf"^t_final_us = 0\.5 is not read by the "
                                              rf"{scenario} scenario"):
            build_config({**values, "hop_time_us": 20.0, "t_final_us": 0.5})
        # the manifest leaves t_final_us out, and resolving it copies hop_time_us there
        assert run_scenario(build_config(values), tmp_path / "out") == 0
        assert "t_final_us" not in (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8")
        manifest = resolve_defaults(load_config(tmp_path / "out" / "manifest.txt"))
        assert manifest.t_final_us == manifest.hop_time_us > 0

    def test_cli_runs_scenario_end_to_end(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST_COHERENT_INFO)
        out = tmp_path / "from-cli"
        assert main(["coherent-info", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert "status = ok" in manifest
        assert "seed = 42" in manifest

    def test_cli_seed_override(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST_COHERENT_INFO)
        out = tmp_path / "seeded"
        assert main(["coherent-info", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "7"]) == 0
        assert "seed = 7" in (out / "manifest.txt").read_text(encoding="utf-8")
        # only coherent-info samples anything
        transfer = write_config(tmp_path, FAST_TRANSFER, name="transfer.cfg")
        capsys.readouterr()
        assert main(["transfer", "--config", str(transfer), "--out", str(tmp_path / "t"),
                     "--seed", "7"]) == 2
        assert "seed = 7 is not read by the transfer scenario" in capsys.readouterr().err


class TestConfigDataclass:
    def test_default_instance_validates(self):
        cfg = ScenarioConfig(scenario="transfer")
        assert cfg.seed == 42
        assert cfg.n_samples == 500

    def test_sentinel_values_survive_round_trip(self):
        cfg = build_config({"scenario": "transfer"})
        assert cfg.g0_a_2pi_mhz == -1.0
        assert cfg.g0_a() == cfg.g0_b() == pytest.approx(5.8 * TWO_PI_MHZ)

    def test_per_qubit_gammas_apply_when_gamma_is_unset(self):
        cfg = build_config({"scenario": "transfer", "preset": "fig4", "gamma_2pi_mhz": -1.0,
                            "gamma_a_2pi_mhz": 1.0, "gamma_b_2pi_mhz": 2.5})
        params = cfg.link_params()
        assert (params.gamma_a, params.gamma_b) == (1.0 * TWO_PI_MHZ, 2.5 * TWO_PI_MHZ)

    @pytest.mark.parametrize("values, message", [
        ({"scenario": "chain", "hops": 0}, "hops must be >= 1, got 0"),
        ({"scenario": "coherent-info", "n_samples": 0}, "n_samples must be >= 1, got 0"),
        ({"scenario": "coherent-info", "seed": -1}, "seed must be >= 0, got -1"),
        ({"scenario": "sweep-distance", "media": ("wormhole",)},
         "unknown medium kind 'wormhole'"),
        ({"scenario": "transfer", "protocol": "pulsed"},
         "protocol must be 'constant' or 'stirap', got 'pulsed'"),
        ({"scenario": "transfer", "protocol": "stirap", "g0_2pi_mhz": 0.0},
         "stirap protocol needs a positive coupling amplitude"),
    ], ids=["zero-hops", "zero-samples", "negative-seed", "unknown-medium", "unknown-protocol",
            "stirap-without-coupling"])
    def test_out_of_range_values_rejected_with_their_message(self, values, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_config(values)

    HOP_IN_WINDOW = "hop_time_us = 2.0 us is too short: hop_time = 2e-06 s is shorter than the "

    @pytest.mark.parametrize("pulses, window", [
        ({"pulse_width_us": 1e303}, "7.200000000000001e+297 s; the pulse window ends at "
         "7.200000000000001e+303 us with pulse_width_us = 1e+303"),
        ({"t_delay_us": 1e303}, "1e+297 s; the pulse window ends at 1e+303 us with "
         "t_delay_us = 1e+303"),
        ({"t_center_us": 1e303}, "1e+297 s; the pulse window ends at 1e+303 us with "
         "t_center_us = 1e+303"),
        ({"pulse_width_us": 0.5, "t_delay_us": 0.6}, "3.6000000000000003e-06 s; the pulse "
         "window ends at 3.6000000000000005 us with pulse_width_us = 0.5, t_delay_us = 0.6"),
    ], ids=["pulse-width", "t-delay", "t-center", "two-keys"])
    def test_pulse_keys_that_move_the_window_past_the_hop_are_named(self, pulses, window):
        # the hop is refused, but a pulse key moved the window's end past it:
        # the message names each such key and where the window now ends
        with pytest.raises(ConfigError) as err:
            build_config({"scenario": "chain", "hop_time_us": 2.0, **pulses})
        assert str(err.value) == f"{self.HOP_IN_WINDOW}pulse window, which ends at {window}"

    def test_hop_inside_the_default_window_names_only_the_horizon(self):
        with pytest.raises(ConfigError) as err:
            build_config({"scenario": "chain", "hop_time_us": 2.0})
        assert str(err.value) == (f"{self.HOP_IN_WINDOW}pulse window, which ends at "
                                  "1.9757165349338734e-05 s")

    @pytest.mark.parametrize("value", [1e303, 5e-324], ids=["huge", "subnormal"])
    @pytest.mark.parametrize("key", [f.name for f in fields(ScenarioConfig)
                                     if f.type in ("float", "tuple[float, ...]")])
    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_float_at_the_ends_of_the_range_is_built_or_refused_by_name(
            self, scenario, key, value, tmp_path, capsys):
        # 1e303 x 2 pi MHz overflows and 5e-324 us underflows to 0 s, and
        # either can take a rate or a default horizon derived from it past the
        # float range: build_config refuses such a config as a ConfigError that
        # names the key (a pulse window moved past a set horizon is no
        # overflow: it names the horizon, and any pulse key that moved the
        # window), and main exits with status 2.
        # Nothing runs
        for base in ({"scenario": scenario}, SMALL_SCENARIOS[scenario]):
            values = {**base, key: (value,) if key in cli._LIST_KEYS else value}
            try:
                build_config(values)
            except ConfigError as err:
                assert key in str(err) or "shorter than the pulse window" in str(err), str(err)
                config = tmp_path / "extreme.ini"
                config.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in values.items()),
                                  encoding="utf-8")
                assert main(["--config", str(config)]) == 2
                assert capsys.readouterr().err == f"config error: {err}\n"

    def test_negative_non_sentinel_rejected(self):
        with pytest.raises(ConfigError, match="t_final_us"):
            build_config({"scenario": "transfer", "t_final_us": -2.0})

    @pytest.mark.parametrize("key, value", [
        ("sample_every", -7), ("sample_every", 0), ("dt_ns", 0.0), ("t_final_us", 0.0),
        ("hop_time_us", 0.0), ("pulse_width_us", 0.0), ("t_delay_us", 0.0),
    ])
    def test_values_that_would_fall_back_to_the_default_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"{key} must be > 0 \(or -1 for the default\)"):
            build_config({"scenario": "transfer", key: value})

    @pytest.mark.parametrize("value", [(), (-0.5,), (math.inf,)])
    def test_tune_widths_rejected_when_empty_or_non_positive(self, value):
        with pytest.raises(ConfigError, match="tune_widths_us"):
            build_config({"scenario": "tune-stirap", "tune_widths_us": value})

    @pytest.mark.parametrize("value", [(), (0.6, -1.0), (0.0,)])
    def test_tune_delays_rejected_when_empty_or_non_positive(self, value):
        with pytest.raises(ConfigError, match="tune_delays_us"):
            build_config({"scenario": "tune-stirap", "tune_delays_us": value})

    def test_empty_lengths_rejected(self):
        with pytest.raises(ConfigError, match="lengths_km must list at least one value"):
            build_config({"scenario": "sweep-distance", "lengths_km": ()})

    @pytest.mark.parametrize("value", [(math.inf,), (0.1, math.nan), (-1.0,)])
    def test_lengths_rejected_unless_finite_and_non_negative(self, value):
        # inf once ran to status = ok with every fidelity nan
        with pytest.raises(ConfigError, match="lengths_km"):
            build_config({"scenario": "sweep-distance", "lengths_km": value})

    @pytest.mark.parametrize("value", [(0.0,), ScenarioConfig.lengths_km])
    def test_lengths_accepted_when_finite_and_non_negative(self, value):
        cfg = build_config({"scenario": "sweep-distance", "lengths_km": value})
        assert cfg.lengths_km == value

    def test_empty_media_rejected(self, tmp_path):
        # "media =" once ran and wrote a summary with only its header
        path = write_config(tmp_path, "scenario = sweep-distance\nmedia =\n")
        with pytest.raises(ConfigError, match="media must list at least one value"):
            load_config(path)

    def test_numpy_scalars_round_trip_through_the_manifest(self, tmp_path):
        # np.float64 subclasses float, and its repr once went into the manifest
        chain = build_config({
            "scenario": "chain", "protocol": "constant", "hop_time_us": 0.05,
            "g0_2pi_mhz": np.float64(5.8), "hops": np.int64(3),
        })
        sweep = build_config({"scenario": "sweep-distance", "lengths_km": (np.float64(0.5), 1.0)})
        for name, cfg in (("chain", chain), ("sweep", sweep)):
            assert run_scenario(cfg, tmp_path / name) == 0
        loaded = load_config(tmp_path / "chain" / "manifest.txt")
        assert loaded.g0_2pi_mhz == 5.8
        assert loaded.hops == 3
        assert load_config(tmp_path / "sweep" / "manifest.txt").lengths_km == (0.5, 1.0)

    @pytest.mark.parametrize("key, value, kind", [
        ("hops", 2.5, "an integer"),
        ("lengths_km", np.array([0.1, 0.2]), "a tuple or list of numbers"),
        ("g0_2pi_mhz", "5.8", "a number"),
        ("sample_every", 10.0, "an integer"),
        ("seed", 1.5, "an integer"),
        ("theta_deg", True, "a number"),
        ("media", "cavity", "a tuple or list of strings"),
        ("out_path", 5, "a string"),
    ])
    def test_values_of_the_wrong_type_rejected(self, key, value, kind):
        # the library path takes a dict; these once escaped as TypeError,
        # ValueError or IndexError from a scenario, or (True) were accepted
        with pytest.raises(ConfigError, match=rf"^{key} must be {kind}, got "):
            build_config({"scenario": "chain", "hops": 2, "hop_time_us": 2.0,
                          "pulse_width_us": 0.25, "t_delay_us": 0.3, key: value})

    @pytest.mark.parametrize("key, value", [
        ("mode_dim", 3), ("status", "ok"), ("failed_at_us", -1.0), ("error", ""),
        ("version", "0.1.0"),
    ])
    def test_unknown_dict_key_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            build_config({"scenario": "transfer", key: value})

    @pytest.mark.parametrize("values", [
        {"lengths_km": (0.001, 0.0010000001)},
        {"lengths_km": (0.1, 0.3, 0.1)},
        {"media": ("cavity", "cavity+fiber", "cavity")},
    ], ids=["same-name", "duplicate-length", "duplicate-medium"])
    def test_sweep_points_that_share_a_file_rejected(self, values):
        # they once overwrote each other's trajectory and ended status = ok
        with pytest.raises(ConfigError, match=r"sweep points .* would both write "
                                              r"trajectory_cavity_0\.(001|1)km\.csv"):
            build_config({"scenario": "sweep-distance", **values})

    def test_unread_key_at_its_default_accepted(self):
        # a list or a numpy scalar equal to the default still holds the default
        cfg = build_config({"scenario": "transfer", "tune_widths_us": [0.5, 1.0, 2.0],
                            "hops": np.int64(7)})
        assert "tune_widths_us" not in cli._manifest_text(cfg)

    def test_zero_pulse_center_is_kept(self):
        cfg = build_config({"scenario": "transfer", "protocol": "stirap", "t_center_us": 0.0})
        assert cfg.schedule().t_center == 0.0

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_every_key_round_trips_through_the_manifest(self, scenario):
        # every key the scenario reads, off its default but for gamma_2pi_mhz,
        # whose -1 selects the per-qubit rates set here; a set pulse_width_us
        # or t_delay_us leaves adiabaticity or delay_ratio inert, so those two
        # round-trip in a second run with the pulse pair from the ratios
        assert sorted(ROUND_TRIP) == sorted(f.name for f in fields(ScenarioConfig))
        default = ScenarioConfig()
        round_tripped = set()
        for unset in [(), ("pulse_width_us", "t_delay_us")]:
            run = {**ROUND_TRIP, **{key: getattr(default, key) for key in unset}}
            reads = cli._read_keys(ScenarioConfig(**{**run, "scenario": scenario}))
            values = {key: value for key, value in run.items()
                      if key in reads or key in cli._RUN_KEYS}
            cfg = build_config({**values, "scenario": scenario})
            assert [key for key in reads if getattr(cfg, key) == getattr(default, key)] == [
                key for key in reads if key in ("gamma_2pi_mhz", *unset)]
            loaded = build_config(parse_config_text(cli._manifest_text(cfg)))
            assert loaded == cfg
            assert all(type(getattr(loaded, key)) is type(value) for key, value in values.items())
            round_tripped.update(reads)
        assert round_tripped == set(cli._read_keys(ScenarioConfig(scenario=scenario,
                                                                  protocol="stirap")))

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_every_key_changes_an_output_or_is_refused(self, scenario, tmp_path):
        # a key the scenario reads must change its CSVs on some base run that
        # reads it; any other key must be refused as unread, not be accepted as
        # if it configured the run
        assert {f.name for f in fields(ScenarioConfig)} - set(cli._RUN_KEYS) == set(OFF_VALUES)
        bases = KEY_SCAN_BASES[scenario]
        outputs = [csv_bytes(base, tmp_path / f"base{i}") for i, base in enumerate(bases)]
        assert None not in outputs
        read, changed, not_refused = set(), set(), []
        for key, values in OFF_VALUES.items():
            for (i, base), (j, value) in product(enumerate(bases), enumerate(values)):
                if base.get(key) == value:
                    continue
                run = {**base, key: value}
                if key not in cli._read_keys(ScenarioConfig(**run)):
                    try:
                        build_config(run)
                    except ConfigError as err:
                        if str(err).startswith(f"{key} = ") and " is not read by the " in str(err):
                            continue
                    not_refused.append((key, value, i))
                    continue
                read.add(key)
                if key not in changed:
                    got = csv_bytes(run, tmp_path / key / f"{i}-{j}")
                    if got is not None and got != outputs[i]:
                        changed.add(key)
        reads = {key for protocol in ("constant", "stirap")
                 for key in cli._read_keys(ScenarioConfig(scenario=scenario, protocol=protocol))}
        assert read == reads
        assert sorted(reads - changed) == []
        assert not_refused == []


# A value off the default for every key: the manifest round trip's
ROUND_TRIP = {
    "scenario": "", "preset": "fig4", "g0_2pi_mhz": 4.5, "g0_a_2pi_mhz": 4.0,
    "g0_b_2pi_mhz": 3.5, "kappa_2pi_mhz": 0.25, "gamma_2pi_mhz": -1.0,
    "gamma_a_2pi_mhz": 0.5, "gamma_b_2pi_mhz": 0.75, "omega_q_2pi_mhz": 50.0,
    "omega_w_2pi_mhz": 51.0, "protocol": "stirap", "pulse_width_us": 0.5,
    "t_delay_us": 0.6, "t_center_us": 1.5, "adiabaticity": 5.0, "delay_ratio": 1.1,
    "theta_deg": 60.0, "t_final_us": 4.0, "dt_ns": 0.5, "sample_every": 3, "hops": 3,
    "hop_time_us": 5.0, "lengths_km": (0.5, 2.0), "media": ("cavity", "fiber", "cavity+fiber"),
    "base_kappa_2pi_mhz": 0.1, "cavity_loss_2pi_mhz_per_km": 2.0,
    "fiber_coupling_2pi_mhz": 0.2, "fiber_attenuation_db_per_km": 0.3, "n_samples": 7,
    "seed": 3, "tune_widths_us": (0.25,), "tune_delays_us": (0.3, 0.4), "out_path": "elsewhere",
}
# and the key scan's, by key; protocol takes both values, as a chain's default
# is stirap and every other scenario's constant
OFF_VALUES = {
    "g0_2pi_mhz": [5.0], "g0_a_2pi_mhz": [5.0], "g0_b_2pi_mhz": [5.0],
    # above g0, so that it moves a sweep's default step, its one use there
    "kappa_2pi_mhz": [10.0],
    "gamma_2pi_mhz": [0.01], "gamma_a_2pi_mhz": [0.01], "gamma_b_2pi_mhz": [0.01],
    "omega_q_2pi_mhz": [30.0], "omega_w_2pi_mhz": [30.0], "protocol": ["stirap", "constant"],
    "pulse_width_us": [0.4], "t_delay_us": [0.5], "t_center_us": [1.5], "adiabaticity": [50.0],
    "delay_ratio": [1.0], "theta_deg": [60.0], "t_final_us": [2.5], "dt_ns": [0.5],
    "sample_every": [7], "hops": [3], "hop_time_us": [2.5], "lengths_km": [(0.001, 0.3)],
    "media": [("fiber",)], "base_kappa_2pi_mhz": [0.1], "cavity_loss_2pi_mhz_per_km": [2.0],
    "fiber_coupling_2pi_mhz": [0.2], "fiber_attenuation_db_per_km": [0.3], "n_samples": [7],
    "seed": [3], "tune_widths_us": [(0.3,)], "tune_delays_us": [(0.4,)],
}


def lab_frame(values):
    """values in the lab frame with per-qubit decay: there omega_q_2pi_mhz,
    omega_w_2pi_mhz and the per-qubit gammas can each move alone."""
    return {**values, "omega_q_2pi_mhz": 20.0, "omega_w_2pi_mhz": 20.0, "gamma_2pi_mhz": -1.0}


# Runs each key is set on, by scenario: its small config, where it reads the
# pulse keys one whose pulse pair comes from adiabaticity and delay_ratio,
# which the small configs override, and the first of them in the lab frame.
# A sweep also runs without dt_ns, where kappa_2pi_mhz moves the default step.
_ONE_CAVITY_POINT = {"scenario": "sweep-distance", "lengths_km": (0.001,), "media": ("cavity",)}
KEY_SCAN_BASES = {scenario: [*bases, lab_frame(bases[0])] for scenario, bases in {
    "transfer": [
        SMALL_SCENARIOS["transfer"],
        {"scenario": "transfer", "protocol": "stirap", "dt_ns": 1.0, "sample_every": 100,
         **WEAK_LOSS},
    ],
    "stirap-compare": [
        SMALL_SCENARIOS["stirap-compare"],
        {"scenario": "stirap-compare", "dt_ns": 1.0, "sample_every": 100, **WEAK_LOSS},
    ],
    "chain": [
        SMALL_SCENARIOS["chain"],
        {"scenario": "chain", "hops": 2, "dt_ns": 1.0, "sample_every": 100, **WEAK_LOSS},
    ],
    "sweep-distance": [
        _ONE_CAVITY_POINT, {**_ONE_CAVITY_POINT, "protocol": "stirap"},
        SMALL_SCENARIOS["sweep-distance"],
    ],
    "coherent-info": [
        SMALL_SCENARIOS["coherent-info"],
        {**SMALL_SCENARIOS["coherent-info"], "protocol": "stirap"},
    ],
    "tune-stirap": [SMALL_SCENARIOS["tune-stirap"]],
}.items()}


def csv_bytes(values, out):
    """The bytes of every CSV the run of values writes, by name; None if it is
    refused or fails."""
    try:
        cfg = build_config(values)
    except ConfigError:
        return None
    if run_scenario(cfg, out) != 0:
        return None
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}
