"""Scenario runner: named experiments driven by key-value config files,
emitting CSV trajectories, per-scenario summary tables and a manifest.

Config values use the units of the literature captions: rates in multiples of
2*pi MHz, times in microseconds (steps in nanoseconds). They are converted to
rad/s and seconds where they leave the config: ScenarioConfig's methods build
the rates, schedule and medium, while resolve_defaults, _links and each
scenario runner convert the times they read or write at the call. Parsing is
strict: unknown keys are rejected so a mistyped rate cannot silently fall back
to a default, and each key's type is its ScenarioConfig annotation. A key the
scenario does not read (_SCENARIO_KEYS), or that the config's other values
make inert, is refused unless it holds its default.

A config turns into its runs in one place: resolve_defaults fills every
horizon, step and cadence, and _links builds every network.LinkSpec a
scenario runs (tune-stirap's grid builds its own). Validation builds them
too, so a run that cannot be built is a ConfigError before anything runs.

The manifest written next to the outputs is itself a complete config file:
every key the scenario reads, resolved; re-running from it reproduces the
summary CSVs byte for byte. The run's result (status, failure time, error,
version) follows the config as comment lines, so a config holds only inputs.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
import warnings
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from itertools import accumulate, islice, product
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__, dynamics, metrics, network
from .protocols import (
    DEFAULT_ADIABATICITY,
    DEFAULT_DELAY_RATIO,
    ConstantSchedule,
    CouplingSchedule,
    StirapSchedule,
    best_stirap_record,
    default_stirap_window,
    stirap_grid_search,
)
from .qspace import InvalidStateError, PureQubitSpec, link_layout, product_state

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "run_scenario", "main", "PRESETS"]

TWO_PI_MHZ = 2.0 * math.pi * 1e6
US = 1e-6
NS = 1e-9

SCENARIOS = (
    "transfer",
    "stirap-compare",
    "chain",
    "sweep-distance",
    "coherent-info",
    "tune-stirap",
)

# Literature parameter sets (g0, kappa, gamma in units of 2*pi MHz).
PRESETS: dict[str, dict[str, float]] = {
    "fig4": {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 6.0},
    "fig5-red": {"g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 6.0, "gamma_2pi_mhz": 65.0},
    "fig5-blue": {"g0_2pi_mhz": 38.0, "kappa_2pi_mhz": 1.3, "gamma_2pi_mhz": 96.0},
    "fig5-yellow": {"g0_2pi_mhz": 98.0, "kappa_2pi_mhz": 253.0, "gamma_2pi_mhz": 6.0},
    "fig5-green": {"g0_2pi_mhz": 21.0, "kappa_2pi_mhz": 10.0, "gamma_2pi_mhz": 30.0},
    "fig6a": {"g0_2pi_mhz": 100.0, "kappa_2pi_mhz": 6.0, "gamma_2pi_mhz": 65.0},
}


class ConfigError(ValueError):
    """Malformed or invalid configuration."""


def _fmt(value) -> str:
    """Shortest round-trip text for a config/CSV value."""
    if isinstance(value, np.generic):  # repr(np.float64(x)) is "np.float64(x)"
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


@dataclass
class ScenarioConfig:
    """Fully resolved scenario settings, still in config units."""

    scenario: str = ""
    preset: str = ""
    # link rates, x 2*pi MHz
    g0_2pi_mhz: float = 5.8
    g0_a_2pi_mhz: float = -1.0  # -1: inherit g0
    g0_b_2pi_mhz: float = -1.0
    kappa_2pi_mhz: float = 0.0
    gamma_2pi_mhz: float = -1.0  # -1: use per-qubit values
    gamma_a_2pi_mhz: float = 0.0
    gamma_b_2pi_mhz: float = 0.0
    omega_q_2pi_mhz: float = 0.0
    omega_w_2pi_mhz: float = 0.0
    # drive schedule ("" = scenario default: stirap for chain, else constant)
    protocol: str = ""
    pulse_width_us: float = -1.0  # -1: from adiabaticity
    t_delay_us: float = -1.0  # -1: delay_ratio * pulse_width
    t_center_us: float = -1.0  # -1: 3 * pulse_width
    adiabaticity: float = DEFAULT_ADIABATICITY
    delay_ratio: float = DEFAULT_DELAY_RATIO
    # transmitted state (doubles as the fidelity target)
    theta_deg: float = 90.0
    # integration
    t_final_us: float = -1.0  # -1: scenario default; chains and sweeps read hop_time_us
    dt_ns: float = -1.0  # -1: default_dt; RK4's step for stirap, the sample grid for constant
    sample_every: int = -1  # -1: aim for ~1000 stored samples
    # chain / per-hop evolution window (-1: 20 us for chains, the bare
    # transfer time pi/(sqrt(2) g0) for distance sweeps; a stirap link's at
    # least until its pulse window ends)
    hops: int = 7
    hop_time_us: float = -1.0
    # media sweep
    lengths_km: tuple[float, ...] = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)
    media: tuple[str, ...] = (network.CAVITY, network.CAVITY_PLUS_FIBER)
    base_kappa_2pi_mhz: float = 0.0
    cavity_loss_2pi_mhz_per_km: float = network.DEFAULT_CAVITY_LOSS_PER_M * 1000.0 / TWO_PI_MHZ
    fiber_coupling_2pi_mhz: float = network.DEFAULT_FIBER_COUPLING_KAPPA / TWO_PI_MHZ
    fiber_attenuation_db_per_km: float = network.DEFAULT_FIBER_ATTENUATION_DB_PER_KM
    # sampling / tuning
    n_samples: int = 500
    seed: int = 42
    tune_widths_us: tuple[float, ...] = (0.5, 1.0, 2.0)
    tune_delays_us: tuple[float, ...] = (0.6, 1.2, 2.4)
    out_path: str = "qlinksim-out"

    # --- unit conversion -------------------------------------------------
    def g0_a(self) -> float:
        base = self.g0_a_2pi_mhz if self.g0_a_2pi_mhz >= 0 else self.g0_2pi_mhz
        return base * TWO_PI_MHZ

    def g0_b(self) -> float:
        base = self.g0_b_2pi_mhz if self.g0_b_2pi_mhz >= 0 else self.g0_2pi_mhz
        return base * TWO_PI_MHZ

    def gamma_a(self) -> float:
        base = self.gamma_2pi_mhz if self.gamma_2pi_mhz >= 0 else self.gamma_a_2pi_mhz
        return base * TWO_PI_MHZ

    def gamma_b(self) -> float:
        base = self.gamma_2pi_mhz if self.gamma_2pi_mhz >= 0 else self.gamma_b_2pi_mhz
        return base * TWO_PI_MHZ

    def link_params(self) -> dynamics.LinkParams:
        return dynamics.LinkParams(
            g_a=self.g0_a(),
            g_b=self.g0_b(),
            omega_q=self.omega_q_2pi_mhz * TWO_PI_MHZ,
            omega_w=self.omega_w_2pi_mhz * TWO_PI_MHZ,
            kappa=self.kappa_2pi_mhz * TWO_PI_MHZ,
            gamma_a=self.gamma_a(),
            gamma_b=self.gamma_b(),
        )

    def schedule(self) -> CouplingSchedule:
        if self.protocol == "constant":
            return ConstantSchedule(g0_a=self.g0_a(), g0_b=self.g0_b())
        if self.protocol != "stirap":
            raise ConfigError(f"protocol must be 'constant' or 'stirap', got {self.protocol!r}")
        g0 = max(self.g0_a(), self.g0_b())
        if g0 <= 0:
            raise ConfigError("stirap protocol needs a positive coupling amplitude")
        width = self.pulse_width_us * US if self.pulse_width_us > 0 else self.adiabaticity / g0
        if not 0 < width < math.inf:
            raise ConfigError("adiabaticity must give a finite pulse width > 0 for the stirap "
                              f"protocol unless pulse_width_us is set, got {self.adiabaticity!r}")
        delay = self.t_delay_us * US if self.t_delay_us > 0 else self.delay_ratio * width
        if not 0 < delay < math.inf:
            raise ConfigError("delay_ratio must give a finite pulse delay > 0 for the stirap "
                              f"protocol unless t_delay_us is set, got {self.delay_ratio!r}")
        return StirapSchedule(
            g0_a=self.g0_a(), g0_b=self.g0_b(), pulse_width=width, t_delay=delay,
            t_center=self.t_center_us * US,  # -1 us stays negative: StirapSchedule's 3T
        )

    def target(self) -> PureQubitSpec:
        return PureQubitSpec(theta=math.radians(self.theta_deg))

    def medium(self, kind: str = network.CAVITY, length_m: float = 0.0) -> network.MediumModel:
        return network.MediumModel(
            kind=kind,
            length=length_m,
            base_kappa=self.base_kappa_2pi_mhz * TWO_PI_MHZ,
            cavity_loss_per_m=self.cavity_loss_2pi_mhz_per_km * TWO_PI_MHZ / 1000.0,
            fiber_coupling_kappa=self.fiber_coupling_2pi_mhz * TWO_PI_MHZ,
            fiber_attenuation_db_per_km=self.fiber_attenuation_db_per_km,
        )



# --- config file handling -------------------------------------------------

_NONNEGATIVE_KEYS = {
    "g0_2pi_mhz", "kappa_2pi_mhz", "omega_q_2pi_mhz", "omega_w_2pi_mhz",
    "gamma_a_2pi_mhz", "gamma_b_2pi_mhz", "adiabaticity", "delay_ratio",
    "base_kappa_2pi_mhz", "cavity_loss_2pi_mhz_per_km", "fiber_coupling_2pi_mhz",
    "fiber_attenuation_db_per_km",
}

# Keys where -1 means "apply the documented default"; other negatives are
# typos. All but the zero-valid ones read 0 as unset too, so must be > 0.
_ZERO_VALID_SENTINEL_KEYS = {"g0_a_2pi_mhz", "g0_b_2pi_mhz", "gamma_2pi_mhz", "t_center_us"}
_SENTINEL_KEYS = _ZERO_VALID_SENTINEL_KEYS | {
    "pulse_width_us", "t_delay_us", "t_final_us", "dt_ns", "hop_time_us", "sample_every",
}


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


def _listed(parse, check):
    """The parser and the dict check of a comma-separated list of one type."""
    return (lambda text: tuple(parse(part.strip()) for part in text.split(",") if part.strip()),
            lambda value: isinstance(value, (tuple, list)) and all(map(check, value)))


# Each annotation of a ScenarioConfig field: the parser of its config text,
# the check of a value passed in a dict, and what that check asks for.
_TYPES = {
    "str": (str, lambda value: isinstance(value, str), "a string"),
    "int": (int, _is_int, "an integer"),
    "float": (float, _is_real, "a number"),
    "tuple[float, ...]": (*_listed(float, _is_real), "a tuple or list of numbers"),
    "tuple[str, ...]": (*_listed(str, lambda value: isinstance(value, str)),
                        "a tuple or list of strings"),
}
_KEY_TYPES = {f.name: _TYPES[f.type] for f in fields(ScenarioConfig)}
_LIST_KEYS = [f.name for f in fields(ScenarioConfig) if f.type.startswith("tuple")]

# The keys each scenario reads. Every scenario reads the link's rates and its
# step; one that reads protocol reads the pulse keys too when its links are
# stirap, unless the config makes them inert (_inert_because). Any other key
# is refused unless it holds its default, and the manifest writes only these
# and _RUN_KEYS.
_RATE_KEYS = ("g0_2pi_mhz", "g0_a_2pi_mhz", "g0_b_2pi_mhz", "kappa_2pi_mhz", "gamma_2pi_mhz",
              "gamma_a_2pi_mhz", "gamma_b_2pi_mhz", "omega_q_2pi_mhz", "omega_w_2pi_mhz",
              "dt_ns")
_PULSE_KEYS = ("pulse_width_us", "t_delay_us", "t_center_us", "adiabaticity", "delay_ratio")
_SCENARIO_KEYS = {
    "transfer": ("protocol", "theta_deg", "sample_every", "t_final_us"),
    "stirap-compare": ("theta_deg", "sample_every", "t_final_us", *_PULSE_KEYS),
    "chain": ("protocol", "theta_deg", "sample_every", "hops", "hop_time_us"),
    "sweep-distance": ("protocol", "theta_deg", "sample_every", "hop_time_us", "lengths_km",
                       "media", "base_kappa_2pi_mhz", "cavity_loss_2pi_mhz_per_km",
                       "fiber_coupling_2pi_mhz", "fiber_attenuation_db_per_km"),
    "coherent-info": ("protocol", "theta_deg", "sample_every", "t_final_us", "n_samples",
                      "seed"),
    "tune-stirap": ("tune_widths_us", "tune_delays_us"),
}
# What to run and where to write it: in every manifest.
_RUN_KEYS = ("scenario", "preset", "out_path")


def _protocol(cfg: ScenarioConfig) -> str:
    """The drive of cfg's links: "" is stirap for chains, constant for the rest."""
    return cfg.protocol or ("stirap" if cfg.scenario == "chain" else "constant")


# Keys a scenario reads that a config's other values can make inert: a pulse
# key that a set pulse key overrides, and a medium key that none of the listed
# media reads (network.effective_kappa).
_OVERRIDDEN_BY = {"adiabaticity": "pulse_width_us", "delay_ratio": "t_delay_us"}
_MEDIA_READING = {
    "base_kappa_2pi_mhz": (network.CAVITY, network.CAVITY_PLUS_FIBER),
    "cavity_loss_2pi_mhz_per_km": (network.CAVITY,),
    "fiber_coupling_2pi_mhz": (network.CAVITY_PLUS_FIBER,),
    "fiber_attenuation_db_per_km": (network.FIBER, network.CAVITY_PLUS_FIBER),
}


def _inert_because(cfg: ScenarioConfig, key: str) -> str:
    """The value of cfg that leaves key inert ("pulse_width_us = 0.5"), or ""."""
    other = _OVERRIDDEN_BY.get(key)
    if other and getattr(cfg, other) > 0:
        return f"{other} = {_fmt(getattr(cfg, other))}"
    if key in _MEDIA_READING and not set(_MEDIA_READING[key]) & set(cfg.media):
        return f"media = {_fmt(cfg.media)}"
    return ""


def _read_keys(cfg: ScenarioConfig) -> tuple[str, ...]:
    keys = _RATE_KEYS + _SCENARIO_KEYS[cfg.scenario]
    if "protocol" in keys and _protocol(cfg) == "stirap":
        keys += _PULSE_KEYS
    return tuple(key for key in keys if not _inert_because(cfg, key))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Strictly parse `key = value` lines into a typed dict."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEY_TYPES[key][0](val)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: cannot parse {key} = {val!r}: {err}") from None
    return values


def _validate(cfg: ScenarioConfig) -> None:
    if not cfg.scenario:
        raise ConfigError("scenario is required (positional argument or config key)")
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {cfg.scenario!r}")
    for key in _NONNEGATIVE_KEYS:
        value = getattr(cfg, key)
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"{key} must be finite and >= 0, got {value!r}")
    for key in _SENTINEL_KEYS:
        value = getattr(cfg, key)
        zero_valid = key in _ZERO_VALID_SENTINEL_KEYS
        if value != -1 and not (math.isfinite(value) and (value > 0 or zero_valid and value == 0)):
            bound = ">=" if zero_valid else ">"
            raise ConfigError(f"{key} must be {bound} 0 (or -1 for the default), got {value!r}")
    for key in ("gamma_a_2pi_mhz", "gamma_b_2pi_mhz"):
        if cfg.gamma_2pi_mhz >= 0 and getattr(cfg, key) != 0:
            raise ConfigError(f"{key} = {getattr(cfg, key)!r} would be ignored: gamma_2pi_mhz = "
                              f"{cfg.gamma_2pi_mhz!r} sets both qubits' decay, and "
                              "gamma_2pi_mhz = -1 selects per-qubit rates")
    if not 0.0 <= cfg.theta_deg <= 180.0:
        raise ConfigError(f"theta_deg must be in [0, 180], got {cfg.theta_deg!r}")
    if cfg.hops < 1:
        raise ConfigError(f"hops must be >= 1, got {cfg.hops}")
    if cfg.n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {cfg.n_samples}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    for key in _LIST_KEYS:
        if not getattr(cfg, key):
            raise ConfigError(f"{key} must list at least one value")
    if not all(math.isfinite(v) and v >= 0 for v in cfg.lengths_km):
        raise ConfigError(f"lengths_km entries must be finite and >= 0, got {cfg.lengths_km!r}")
    for key in ("tune_widths_us", "tune_delays_us"):
        if not all(math.isfinite(v) and v > 0 for v in getattr(cfg, key)):
            raise ConfigError(f"{key} entries must be finite and > 0, got {getattr(cfg, key)!r}")
    for kind in cfg.media:
        if kind not in (network.CAVITY, network.FIBER, network.CAVITY_PLUS_FIBER):
            raise ConfigError(f"unknown medium kind {kind!r}")
    if cfg.protocol not in ("", "constant", "stirap"):
        raise ConfigError(f"protocol must be 'constant' or 'stirap', got {cfg.protocol!r}")
    if (cfg.omega_q_2pi_mhz > 0) != (cfg.omega_w_2pi_mhz > 0):
        raise ConfigError(
            "omega_q_2pi_mhz and omega_w_2pi_mhz must both be > 0 (lab frame) or both be 0 "
            f"(rotating frame), got {cfg.omega_q_2pi_mhz!r} and {cfg.omega_w_2pi_mhz!r}"
        )
    reads = _read_keys(cfg)
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name not in reads and f.name not in _RUN_KEYS and _fmt(value) != _fmt(f.default):
            why = _inert_because(cfg, f.name)
            if not why and f.name in _PULSE_KEYS:
                why = f"protocol = {_protocol(cfg)}"
            raise ConfigError(f"{f.name} = {_fmt(value)} is not read by the {cfg.scenario} "
                              f"scenario{' with ' + why if why else ''}; leave it out")
    if cfg.scenario == "sweep-distance":
        _check_point_names(cfg)
    _check_schedules(cfg)


def _check_point_names(cfg: ScenarioConfig) -> None:
    """Reject sweep points whose trajectory files would overwrite each other."""
    seen: dict[str, tuple] = {}
    for kind in cfg.media:
        for length_km in cfg.lengths_km:
            name = _point_name(kind, length_km * 1000.0)
            if name in seen:
                raise ConfigError(
                    f"sweep points {seen[name]!r} and {(kind, length_km)!r} would both "
                    f"write {name}; give media and lengths_km distinct entries"
                )
            seen[name] = (kind, length_km)


def _check_schedules(cfg: ScenarioConfig) -> None:
    """Resolve the run and build its links, so that one it cannot take is a ConfigError."""
    cfg = resolve_defaults(cfg)
    key = _horizon_key(cfg.scenario)
    try:
        _links(cfg)
    except ConfigError:
        raise
    except ValueError as err:  # a stirap link that ends inside its pulse window
        raise ConfigError(f"{key} = {getattr(cfg, key)!r} us is too short: {err}") from None
    if cfg.scenario == "tune-stirap":  # its grid builds its own windows
        for width, delay in product(cfg.tune_widths_us, cfg.tune_delays_us):
            point = f"grid point tune_widths_us = {width!r}, tune_delays_us = {delay!r}"
            try:
                pulses = StirapSchedule(cfg.g0_a(), cfg.g0_b(), width * US, delay * US)
            except ValueError as err:  # a width or delay that underflows to 0 s
                raise ConfigError(f"{point}: {err}") from None
            _step_count(default_stirap_window(pulses)[1], cfg, f"the window of {point}")


def _check_type(key: str, value) -> None:
    """Reject a value of the wrong type, as a dict passed to build_config may hold."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    _, ok, kind = _KEY_TYPES[key]
    if not ok(value):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")


def build_config(values: dict, overrides: Optional[dict] = None) -> ScenarioConfig:
    merged = dict(values)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in merged.items():
        _check_type(key, value)
    preset = merged.get("preset", "")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        for key, value in PRESETS[preset].items():
            merged.setdefault(key, value)
    cfg = ScenarioConfig(**merged)
    _validate(cfg)
    return cfg


def load_config(path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate a config (or manifest) file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
    return build_config(values, overrides)


def _manifest_text(cfg: ScenarioConfig) -> str:
    lines = ["# qlinksim run manifest (loadable as a config file)"]
    written = _RUN_KEYS + _read_keys(cfg)
    lines += [f"{f.name} = {_fmt(getattr(cfg, f.name))}" for f in fields(cfg) if f.name in written]
    return "\n".join(lines) + "\n"


def _result_text(status: str, failed_at_us: float = -1.0, error: str = "") -> str:
    """A run's result, as the comment lines that end its manifest."""
    result = dict(status=status, failed_at_us=failed_at_us, error=error, version=__version__)
    return "".join(f"# {key} = {_fmt(value)}\n" for key, value in result.items())


# --- output helpers ---------------------------------------------------------


# Rows per block of a column-wise CSV. A block holds its cells' text and the
# kernel's work arrays at once, so this bounds the memory a long
# trajectory's file costs.
_CSV_BLOCK_ROWS = 512
# Fewest rows a forked process formats. Forking a 40-50 MB interpreter and
# reaping the child takes about 3.5 ms, and copying 4096 rows of its text
# back about 0.4 ms: 40 % of the 10 ms that _block_text takes to format them
# (8 columns, 2-vCPU x86-64 VM, Python 3.11). So two slices of 4096 rows (7
# columns) still write in 16 % less time than one process: 15.9 against 19.0 ms.
_MIN_SLICE_ROWS = 4096

# --- CSV float text ---------------------------------------------------------
#
# _block_text writes a block of float64 cells as the text ",".join(map(repr,
# row)) gives each row, in a fixed number of numpy calls. repr prints the
# shortest decimal that reads back as the same double and, of those, the
# nearest (Gay's correctly rounded dtoa); Adams' Ryu (PLDI 2018) finds the
# same digits with exact integer arithmetic, and so does this, a block at a
# time. For a = |x| with decimal exponent E in [-28, 16]:
#
# - V = a 10^s, s = 16 - E, lies in [1e16, 1e17). 10^s = hi + lo exactly,
#   with lo = 0 for s <= 22; Dekker's product gives a hi = P + eP exactly.
#   With r = eP + a lo, rounded, N = P + rint(r) is the 17-digit candidate
#   and V = N - e for e = rint(r) - r.
# - A candidate D reads back as a iff D - V lies within h = ulp(a) 10^s / 2
#   (h / 2 below a power of two), the ends included iff a's significand is
#   even. h lies in (0.55, 11.2), so N always reads back, and at most one
#   multiple of 100 lies within h: if the nearest, D15, does, the digits are
#   D15's without its trailing zeros; else the nearest multiple of 10, D16,
#   if it reads back; else N.
# - For s <= 22, e is exact, and each test compares one once-rounded
#   difference with a double, so a strict result is exact. A difference that
#   rounds onto the end of the interval, an exact tie between two
#   candidates, and a power of two whose D15 fails go to repr.
# - For s > 22 (1e-28 <= a < 1e-6), a lo and r are rounded: V is off by at
#   most 3.1e-15 and each tested quantity by at most 1.2e-14. We do not carry
#   them as double-doubles; a cell within _TEXT_MARGIN = 2^-40 (9.1e-13) of
#   any decision's boundary goes to repr instead, so no decision can be wrong.
# - Zeros print 0.0 or -0.0; nan, inf and |x| outside [1e-28, 1e17) go to
#   repr.
#
# Each cell's text is laid out in a 32-byte field: the sign, a "0.000"
# prefix, 18 slots for the 17 digits and the point, "e-28" and the separator.
# A table built at first use holds, per shape (E, number of digits), the
# field's fixed bytes and which slots take a digit or the digit before it
# (those after the point); the slots a shape leaves empty hold zero bytes,
# which are dropped from the block's text.

_TEXT_E_MIN = -28
_TEXT_MARGIN = 2.0 ** -40
_TEXT_EB_MIN = 1023 - 94  # biased binary exponent of 1e-28
_TEXT_WORD = np.dtype("<i8")  # 8 bytes of a field, first byte least significant on any host


def _least_double_at_least_ten_to(k: int) -> float:
    """The least double >= 10^k, for k <= 22."""
    if k >= 0:
        return float(10 ** k)
    x = 1 / 10 ** -k  # correctly rounded
    numerator, denominator = x.as_integer_ratio()
    return x if numerator * 10 ** -k >= denominator else math.nextafter(x, math.inf)


@lru_cache(maxsize=None)
def _text_tables():
    """_block_text's tables: built at first use, so importing the module costs nothing."""
    # row s = 0..44: hi, hi split into halves of 26 bits for Dekker's product, lo
    scale = []
    for s in range(17 - _TEXT_E_MIN):
        hi = float(10 ** s)
        split = 134217729.0 * hi
        top = split - (split - hi)
        scale.append((hi, top, hi - top, float(10 ** s - int(hi))))
    # per biased binary exponent e: floor(log10 2^e) and the least double >= 10^(that + 1)
    floor_log10 = ((np.arange(_TEXT_EB_MIN, 1023 + 57) - 1023) * 78913) >> 18
    tens = [_least_double_at_least_ten_to(int(k) + 1) for k in floor_log10]
    # layout row (E + 28) * 17 + q - 1 for E in [-28, 17] (17 where digits
    # round up to 1e17) and q digits: the field's fixed bytes, then masks of
    # its bytes 8-31 taking digit j and digit j - 1 into region slot j = byte - 8
    E = np.repeat(np.arange(_TEXT_E_MIN, 18), 17)[:, None]
    q = np.tile(np.arange(1, 18), 18 - _TEXT_E_MIN)[:, None]
    byte = np.arange(32)
    slot = byte - 8
    fixed_point = (E >= -4) & (E < 16)
    point = np.where(fixed_point, np.where(E >= 0, E + 1, 99), np.where(q > 1, 1, 99))
    shown = np.where(fixed_point & (E >= 0), np.maximum(q, E + 2), q)  # "1200.0": 5 digits
    in_region = (slot >= 0) & (slot < 18)
    take_digit = in_region & (slot < point) & (slot < shown)
    take_previous = in_region & (slot > point) & (slot <= shown)
    fixed = np.zeros((len(E), 32), np.uint8)
    fixed[in_region & (slot == point)] = ord(".")
    prefix = fixed_point & (E < 0) & (byte >= 3) & (byte < 4 - E)  # "0." and -E - 1 zeros
    fixed[prefix] = ord("0")
    fixed[prefix & (byte == 4)] = ord(".")
    exponent = ~fixed_point[:, 0]
    e = E[exponent, 0]
    fixed[exponent, 26:30] = np.stack([np.full_like(e, ord("e")), np.where(e < 0, 45, 43),
                                       48 + abs(e) // 10, 48 + abs(e) % 10], axis=1)
    layout = np.concatenate([fixed.view(_TEXT_WORD),
                             (take_digit[:, 8:] * np.uint8(255)).view(_TEXT_WORD),
                             (take_previous[:, 8:] * np.uint8(255)).view(_TEXT_WORD)], axis=1)
    return np.array(scale), floor_log10, np.array(tens), layout


def _shortest_digits(a: np.ndarray, E: np.ndarray, pow2: np.ndarray):
    """repr's digits of each a in [1e-28, 1e17) with decimal exponent E, as a
    17-digit integer D (10^17 where they round up to the next power of ten),
    and whether D is decided exactly; see the scheme above."""
    scale = _text_tables()[0].take(16 - E, axis=0)
    hi, top, bottom, lo = scale.T
    h = ((((a.view(np.int64) >> 52) - 53) << 52).view(np.float64)) * hi  # ulp(a) 10^s / 2
    margin = (lo != 0) * _TEXT_MARGIN
    # Dekker's product: a hi = P + r exactly; then r += a lo, rounded where lo != 0
    a_top = a * 134217729.0
    a_top -= a_top - a
    a_bottom = a - a_top
    P = a * hi
    r = a_top * top
    r -= P
    r += a_top * bottom
    r += a_bottom * top
    r += a_bottom * bottom
    r += a * lo
    del scale, hi, top, bottom, lo, a_top, a_bottom
    e = np.rint(r)
    N = P.astype(np.int64)
    N += e.astype(np.int64)
    e -= r  # V = N - e
    del P, r
    r100 = (N - N // 100 * 100).astype(np.float64)
    r10 = r100 - 10.0 * np.floor(r100 * 0.1)
    h_below = h * (1.0 - 0.5 * pow2)
    # D - N, and the room D leaves inside the interval, for D15 and D16
    k15 = 100.0 * (r100 - 50.0 > e) - r100
    w = k15 + e
    room15 = np.minimum(h - w, h_below + w)
    k16 = 10.0 * (r10 - 5.0 > e) - r10
    w = k16 + e
    room16 = np.minimum(h - w, h_below + w)
    in15 = room15 > margin
    in16 = room16 > margin
    e = np.abs(e)  # |V - N|
    decided = in15 | ((room15 < -margin) & ~pow2 & ((r10 != 5) | (e > margin))
                      & (in16 | (room16 < -margin) & (e < 0.5 - margin)))
    N += np.where(in15, k15, k16 * in16).astype(np.int64)
    return N, decided


def _ascii_digits(D: np.ndarray):
    """Digits d0-d7 and d8-d15 of 17-digit integers as 8 ASCII bytes each
    (least significant byte first), d16 as one, and the count of digits up to
    the last nonzero one (at least 1)."""
    n = D.size
    tenth = D // 10
    last = D - tenth * 10
    digits = np.empty(2 * n, np.int64)
    np.floor_divide(tenth, 10 ** 8, out=digits[:n])
    digits[n:] = tenth - digits[:n] * 10 ** 8
    del tenth
    y = digits // 10000
    y |= (digits - y * 10000) << 32  # 4-digit halves in 32-bit lanes
    z = ((y * 5243) >> 19) & 0x0000007F0000007F  # lane // 100
    z |= (y - z * 100) << 16
    del y
    digits = ((z * 103) >> 10) & 0x000F000F000F000F  # 16-bit lane // 10
    digits |= (z - digits * 10) << 8
    del z
    top_byte = (((digits.astype(np.float64).view(np.int64) >> 52) + 1) >> 3) - 128
    q = np.maximum(top_byte[:n] + 1, top_byte[n:] + 9)
    q[last != 0] = 17
    np.maximum(q, 1, out=q)
    digits |= 0x3030303030303030
    return digits[:n], digits[n:], last | 48, q


def _block_text(block: np.ndarray) -> str:
    """CSV text of a C-contiguous (rows, columns) float64 block, as repr writes each cell."""
    _, floor_log10, tens, layout = _text_tables()
    x = block.reshape(-1)
    a = np.abs(x)
    zero = a == 0
    exact = a >= tens[0]
    exact &= a < 1e17
    np.copyto(a, 1.0, where=~exact)  # no lane computes a nan or inf, not even a discarded one
    bits = a.view(np.int64)
    row = (bits >> 52) - _TEXT_EB_MIN
    E = floor_log10.take(row)
    E += a >= tens.take(row)
    D, decided = _shortest_digits(a, E, (bits & ((1 << 52) - 1)) == 0)
    del a, bits, row
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E += carry
    D[zero] = 0
    E[zero] = 0
    first, second, last, q = _ascii_digits(D)
    shape = layout.take((E - _TEXT_E_MIN) * 17 + q - 1, axis=0)
    del D, E, q
    field = np.empty((x.size, 4), _TEXT_WORD)
    field[:, 0] = shape[:, 0] | ((x.view(np.int64) >> 63) & (ord("-") << 16))
    field[:, 1] = shape[:, 1] | (first & shape[:, 4]) | ((first << 8) & shape[:, 7])
    field[:, 2] = (shape[:, 2] | (second & shape[:, 5])
                   | (((second << 8) | ((first >> 56) & 0xFF)) & shape[:, 8]))
    field[:, 3] = (shape[:, 3] | (last & shape[:, 6])
                   | (((last << 8) | ((second >> 56) & 0xFF)) & shape[:, 9]))
    del shape, first, second, last
    separator = field.reshape(*block.shape, 4)[:, :, 3]
    separator |= ord(",") << 56
    separator[:, -1] ^= (ord(",") ^ ord("\n")) << 56
    fallback = np.flatnonzero(~zero & ~(exact & decided))
    if fallback.size:
        text = field.view(np.uint8)
        text[fallback, :24] = np.array(list(map(repr, x[fallback].tolist())), "S24").view(
            np.uint8).reshape(-1, 24)
        text[fallback, 24:31] = 0
    return field.tobytes().translate(None, b"\0").decode("ascii")


class _Table(NamedTuple):
    """n_rows rows of width float columns, read a range of rows at a time.

    read(start, stop) gives each column's values for rows start..stop. It
    runs in the process that formats those rows, parent or forked child, so
    a table's columns need not exist whole anywhere.
    """

    n_rows: int
    width: int
    read: Callable[[int, int], Sequence[np.ndarray]]


def _column_table(columns: Sequence[np.ndarray]) -> _Table:
    """A table of equal-length columns held whole."""
    return _Table(len(columns[0]), len(columns),
                  lambda start, stop: [column[start:stop] for column in columns])


def _csv_blocks(tables: Sequence[_Table], start: int, stop: int):
    """Text of rows start..stop of tables of float columns, one after the other, block by block.

    Every table has the same width. Each block of _CSV_BLOCK_ROWS rows is
    read into one reused array, across the tables' edges, one read per
    table in it, and written by _block_text: the text is what
    ",".join(map(repr, row)) gives each row.
    """
    ends = list(accumulate(table.n_rows for table in tables))
    block = np.empty((min(_CSV_BLOCK_ROWS, max(stop - start, 0)), tables[0].width))
    for first in range(start, stop, _CSV_BLOCK_ROWS):
        rows = block[:min(_CSV_BLOCK_ROWS, stop - first)]
        row, t = first, bisect_right(ends, first)
        while row < first + len(rows):
            n = min(ends[t], first + len(rows)) - row
            offset = row - ends[t] + tables[t].n_rows
            for j, column in enumerate(tables[t].read(offset, offset + n)):
                rows[row - first:row - first + n, j] = column
            row, t = row + n, t + 1
        yield _block_text(rows)


def _single_threaded() -> bool:
    """Whether this process runs one OS thread, so that forking it is safe.

    It counts the threads the kernel sees, not only Python's: numpy's
    OpenBLAS starts worker threads at import unless OPENBLAS_NUM_THREADS=1,
    and from Python 3.12 os.fork warns in any multi-threaded process.
    """
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc: the threads cannot be counted
        return False


def _row_slices(n_rows: int) -> list[tuple[int, int]]:
    """Contiguous row slices of a table, one per process that formats it.

    There is more than one only where forking is safe and pays for itself:
    os.fork and os.sched_getaffinity exist, more than one CPU is usable, the
    process runs one OS thread, and every slice has _MIN_SLICE_ROWS rows.
    Slices start on block boundaries.
    """
    k = n_rows // _MIN_SLICE_ROWS
    if k < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                     and _single_threaded()):
        return [(0, n_rows)]
    k = min(k, len(os.sched_getaffinity(0)))
    if k < 2:
        return [(0, n_rows)]
    edges = [i * n_rows // k // _CSV_BLOCK_ROWS * _CSV_BLOCK_ROWS for i in range(k)]
    return list(zip(edges, edges[1:] + [n_rows]))


def _format_slice_and_exit(tmp, tables, start: int, stop: int):
    """Body of a forked child: write rows start..stop to tmp and exit.

    It leaves through os._exit, so no buffer inherited from the parent is
    flushed and no frame of the caller runs; a failure is reported on
    standard error and by the exit status.
    """
    status = 1
    try:
        tmp.writelines(_csv_blocks(tables, start, stop))
        tmp.flush()
        status = 0
    except BaseException:  # even an interrupt must end in os._exit, never unwind
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


def _write_slices(files: "_TableFiles", tables, slices, directory: Path) -> None:
    """Write slices[0] of the tables' rows to their files while forked children format the others.

    Each child streams its slice into an unlinked temporary file in
    directory; the parent then reaps the children in row order and appends
    their text to the files. Where a temporary file or a fork cannot be had
    (a process or memory limit), the parent formats that slice and the rest
    itself. Every child is reaped and every temporary file closed, also when
    a write fails. With one slice nothing is forked.
    """
    temps, pids = [], []
    try:
        for start, stop in slices[1:]:
            try:
                temps.append(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", newline="\n", dir=directory))
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                _format_slice_and_exit(temps[-1], tables, start, stop)
            pids.append(pid)
        forked = slices[1:len(pids) + 1]
        rest = slices[len(pids)][1]  # first row no child formats
        files.write_blocks(tables, *slices[0])
        for (start, stop), tmp in zip(forked, temps):
            pid = pids[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pids[0]  # reaped
            if status != 0:
                raise ChildProcessError(f"process {pid} formatting rows {start}-{stop} "
                                        f"exited with status {status}")
            tmp.seek(0)
            files.copy(tmp, stop - start)
        files.write_blocks(tables, rest, slices[-1][1])
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for tmp in temps:
            tmp.close()


class _TableFiles:
    """The files of tables written one after the other: each row's text goes to its table's.

    ends[t] is the number of rows in tables 0..t. Rows come in order, so one
    file is open at a time. Each starts with the header; it opens when its
    table's first row comes, or for an empty table once the rows before it
    are written (finish opens those after the last row).
    """

    def __init__(self, outputs: "_Outputs", names: Sequence[str], header: str,
                 ends: Sequence[int]):
        self.outputs, self.names, self.header, self.ends = outputs, names, header, ends
        self.table, self.row, self.fh = -1, 0, None

    def __enter__(self) -> "_TableFiles":
        self._next_file()
        return self

    def __exit__(self, *exc) -> None:
        if self.fh is not None:
            self.fh.close()

    @property
    def path(self) -> Path:
        return self.outputs.path / self.names[self.table]

    def _next_file(self) -> None:
        if self.fh is not None:
            self.fh.close()
            self.fh = None  # closed once, also if the next open fails
        self.table += 1
        self.fh = self.outputs._open(self.names[self.table])
        self.fh.write(self.header)

    def _rows_left(self, n_rows: int):
        """Split the next n_rows rows at the tables' edges: the row count of each piece, in
        order, with the file of its table open."""
        done = 0
        while done < n_rows:
            while self.ends[self.table] <= self.row:
                self._next_file()
            n = min(self.ends[self.table] - self.row, n_rows - done)
            yield n
            done += n
            self.row += n

    def write_blocks(self, tables, start: int, stop: int) -> None:
        """Format rows start..stop, the next rows to write, and write each to its file."""
        for first, text in zip(range(start, stop, _CSV_BLOCK_ROWS),
                               _csv_blocks(tables, start, stop)):
            n_rows, lines, done = min(_CSV_BLOCK_ROWS, stop - first), None, 0
            for n in self._rows_left(n_rows):
                if n == n_rows:
                    self.fh.write(text)
                else:  # a block across tables' edges: its text split at the rows
                    lines = text.splitlines(keepends=True) if lines is None else lines
                    self.fh.write("".join(lines[done:done + n]))
                done += n

    def copy(self, src, n_rows: int) -> None:
        """Write the next n_rows rows from the text file src, from its current position."""
        done = 0
        for n in self._rows_left(n_rows):
            if done + n == n_rows:
                shutil.copyfileobj(src, self.fh)
            else:
                self.fh.writelines(islice(src, n))
            done += n

    def finish(self) -> None:
        """Open the files of the empty tables after the last row too."""
        while self.table < len(self.names) - 1:
            self._next_file()


class _Outputs:
    """A run's output directory, recording each file the run writes to it.

    write_csv formats mixed-type rows one cell at a time through _fmt, for the
    small summary tables. write_columns writes equal-length float columns,
    such as curves, in blocks of _CSV_BLOCK_ROWS rows: each block is
    formatted at once by _block_text, whose text is repr's for every cell,
    so the file is byte identical to the same rows written through
    write_csv, and memory does not grow with the run length.
    write_trajectories writes trajectories the same way, but no column but
    times and fidelity exists whole: each block's populations, trace and
    purity are computed from the trajectory's amplitudes by the process that
    formats that block, so a long trajectory costs its amplitudes and one
    block.

    A long table is formatted in contiguous row slices by forked processes,
    one per usable CPU, and the parent appends their text in row order; the
    file is byte identical to the serial one. Slicing engages only where
    os.fork and os.sched_getaffinity exist (Linux), more than one CPU is
    usable, the process runs one OS thread (no other Python thread, no BLAS
    worker threads), and the table has at least _MIN_SLICE_ROWS rows per
    slice; otherwise one process writes every block.
    """

    def __init__(self, path: Path):
        self.path = path
        self.written: list[Path] = []

    def _open(self, name: str):
        path = self.path / name
        # recorded before opening, so a partly written file is removed too
        self.written.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def write_csv(self, name: str, header: Sequence[str], rows) -> None:
        with self._open(name) as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")

    def write_columns(self, name: str, header: Sequence[str], columns) -> None:
        self.write_tables([name], header, [columns])

    def write_tables(self, names: Sequence[str], header: Sequence[str], tables) -> None:
        """Write each table of equal-length float columns to its file under one header.

        The tables are formatted as one, in blocks across their edges and in
        row slices over their total rows, and each row's text goes to its
        table's file: every file is byte identical to its table written alone.
        """
        tables = [[np.asarray(column, dtype=float) for column in columns] for columns in tables]
        for name, columns in zip(names, tables):
            n_rows = len(columns[0])
            if len(columns) != len(header) or any(c.shape != (n_rows,) for c in columns):
                raise ValueError(f"{name}: expected {len(header)} 1-D columns of {n_rows} rows, "
                                 f"got shapes {[c.shape for c in columns]}")
        self._write_tables(names, header, [_column_table(columns) for columns in tables])

    def _write_tables(self, names: Sequence[str], header: Sequence[str],
                      tables: Sequence[_Table]) -> None:
        ends = list(accumulate(table.n_rows for table in tables))
        with _TableFiles(self, names, ",".join(header) + "\n", ends) as files:
            try:
                _write_slices(files, tables, _row_slices(ends[-1]), self.path)
                files.finish()
            except OSError as err:
                raise OSError(f"cannot write {files.path}: {err}") from err

    def write_trajectory(self, name: str, traj: dynamics.Trajectory) -> None:
        self.write_trajectories([name], [traj])

    def write_trajectories(self, names: Sequence[str],
                           trajectories: Sequence[dynamics.Trajectory]) -> None:
        """Write each trajectory to its file, as write_tables writes tables, each block's
        columns computed where it is formatted; they must have the same number of sites."""
        if not trajectories:
            return
        n_mediators = trajectories[0].layout.n_sites - 2
        header = ["t_us", "pop_A"]
        header += ["pop_W" if i == 0 else f"pop_W{i + 1}" for i in range(n_mediators)]
        header += ["pop_B", "fidelity", "trace", "purity"]
        self._write_tables(names, header, [_trajectory_table(traj) for traj in trajectories])


def _trajectory_table(traj: dynamics.Trajectory) -> _Table:
    """A trajectory's rows t_us, populations by site, fidelity (nan without a target),
    trace and purity."""
    def read(start: int, stop: int) -> list[np.ndarray]:
        rows = slice(start, stop)
        columns = traj.columns_at(rows)
        fidelity = (np.full(len(columns.trace), np.nan) if traj.fidelity is None
                    else traj.fidelity[rows])
        return [traj.times[rows] / US, *columns.populations.T, fidelity, columns.trace,
                columns.purity]

    return _Table(len(traj.times), traj.layout.n_sites + 4, read)


# --- scenarios --------------------------------------------------------------


def _sweep_kappas(cfg: ScenarioConfig) -> list[float]:
    """Mediator loss rate of every sweep point over the resolved hop time."""
    with warnings.catch_warnings():  # distance_sweep warns of an underflow itself
        warnings.simplefilter("ignore", RuntimeWarning)
        return [network.effective_kappa(cfg.medium(kind, length_km * 1000.0), cfg.hop_time_us * US)
                for kind in cfg.media for length_km in cfg.lengths_km]


def _horizon_key(scenario: str) -> str:
    """The key holding a scenario's run length: each hop's for chains and sweeps."""
    return "hop_time_us" if scenario in ("chain", "sweep-distance") else "t_final_us"


def resolve_defaults(cfg: ScenarioConfig) -> ScenarioConfig:
    """Fill every scenario-dependent default so the manifest echoes real values."""
    cfg = replace(cfg, protocol=_protocol(cfg))
    key = _horizon_key(cfg.scenario)
    if getattr(cfg, key) <= 0 and cfg.scenario != "tune-stirap":  # its grid sets its windows
        transfers = {"sweep-distance": 1.0, "coherent-info": 8.0}.get(cfg.scenario)
        if transfers:  # bare transfer times pi/(sqrt(2) g0)
            g0 = max(cfg.g0_a(), cfg.g0_b())
            horizon_us = transfers * math.pi / (math.sqrt(2.0) * g0) / US if g0 > 0 else 1.0
        else:  # stirap-compare's is its pulse window
            horizon_us = {"transfer": 100.0, "chain": 20.0}.get(cfg.scenario, 0.0)
        if cfg.protocol == "stirap" or cfg.scenario == "stirap-compare":  # to the window's end
            stirap = replace(cfg, protocol="stirap").schedule()
            horizon_us = max(horizon_us, default_stirap_window(stirap)[1] / US)
        cfg = replace(cfg, **{key: horizon_us})
    if key == "hop_time_us":  # a hop scenario does not read t_final_us
        cfg = replace(cfg, t_final_us=cfg.hop_time_us)
    if cfg.dt_ns <= 0:
        params = cfg.link_params()
        if cfg.scenario == "sweep-distance":  # each point runs at its medium's loss rate
            params = replace(params, kappa=max(params.kappa, *_sweep_kappas(cfg)))
        # RK4 steps a pulsed link: default_dt reads only that, and its peaks (the couplings)
        pulsed = cfg.protocol == "stirap" or cfg.scenario in ("stirap-compare", "tune-stirap")
        pulses = StirapSchedule(params.g_a, params.g_b, pulse_width=1.0, t_delay=1.0)
        cfg = replace(cfg, dt_ns=dynamics.default_dt(params, pulses if pulsed else None) / NS)
    if cfg.scenario == "tune-stirap":  # its grid points' windows are its horizons
        return cfg
    n_steps = _step_count(getattr(cfg, key) * US, cfg, f"{key} = {getattr(cfg, key)!r} us")
    if cfg.sample_every <= 0:
        cfg = replace(cfg, sample_every=max(1, n_steps // 1000))
    return cfg


def _step_count(horizon: float, cfg: ScenarioConfig, what: str) -> int:
    """Steps of dt_ns in horizon seconds, as dynamics grids a run; a ConfigError if it cannot."""
    try:
        return dynamics._checked_grid((0.0, horizon), cfg.dt_ns * NS, 1).n_steps
    except ValueError as err:
        raise ConfigError(f"{what} in steps of dt_ns = {cfg.dt_ns!r} ns: {err}") from None


def _links(cfg: ScenarioConfig) -> dict[str, network.LinkSpec]:
    """The links a resolved config runs over its horizon, by protocol: two for
    stirap-compare, none for tune-stirap (its grid builds its own schedules),
    one for every other scenario. LinkSpec raises ValueError for a stirap
    link that ends inside its pulse window."""
    if cfg.scenario == "tune-stirap":
        return {}
    protocols = ("constant", "stirap") if cfg.scenario == "stirap-compare" else (cfg.protocol,)
    medium = cfg.medium() if cfg.scenario == "sweep-distance" else None
    return {protocol: network.LinkSpec(
        params=cfg.link_params(), schedule=replace(cfg, protocol=protocol).schedule(),
        hop_time=getattr(cfg, _horizon_key(cfg.scenario)) * US, medium=medium,
        dt=cfg.dt_ns * NS, sample_every=cfg.sample_every,
    ) for protocol in protocols}


def _standard_run(link: network.LinkSpec, target: PureQubitSpec) -> dynamics.Trajectory:
    """Evolve the target on A, the rest in vacuum, over the link's hop."""
    layout = link_layout()
    rho0 = product_state([target] + [None] * (layout.n_sites - 1), layout)
    return dynamics.evolve(
        rho0, layout, link.effective_params(), link.schedule, (0.0, link.hop_time),
        link.dt, sample_every=link.sample_every, target=target,
    )


def _scenario_transfer(cfg: ScenarioConfig, out: _Outputs) -> None:
    (link,) = _links(cfg).values()
    traj = _standard_run(link, cfg.target())
    out.write_trajectory("trajectory.csv", traj)
    out.write_csv(
        "summary.csv",
        ["final_fidelity", "stabilization_us"],
        [[traj.final_fidelity, traj.stabilization_time() / US]],
    )


def _scenario_stirap_compare(cfg: ScenarioConfig, out: _Outputs) -> None:
    # both links run before any file is opened, so a run that fails writes none
    trajectories, rows = {}, []
    for name, link in _links(cfg).items():
        traj = network.link_channel(link).link_trajectory(cfg.target())
        trajectories[f"trajectory_{name}.csv"] = traj
        # Latency: a pulsed protocol cannot hand off before its window ends;
        # a constant drive is done once its fidelity settles.
        latency = (default_stirap_window(link.schedule)[1] if name == "stirap"
                   else traj.stabilization_time())
        rows.append([name, traj.final_fidelity, latency / US])
    out.write_trajectories(list(trajectories), list(trajectories.values()))
    out.write_csv("summary.csv", ["protocol", "final_fidelity", "latency_us"], rows)


def _scenario_chain(cfg: ScenarioConfig, out: _Outputs) -> None:
    (link,) = _links(cfg).values()
    result = network.run_chain(cfg.target(), [link] * cfg.hops)
    out.write_trajectories([f"trajectory_hop{rec.hop_index}.csv" for rec in result.per_hop],
                           [rec.trajectory for rec in result.per_hop])
    out.write_csv(
        "summary.csv", ["hop", "fidelity"],
        [[rec.hop_index, rec.fidelity] for rec in result.per_hop],
    )


def _point_name(kind: str, length_m: float) -> str:
    return f"trajectory_{kind.replace('+', '_plus_')}_{length_m / 1000.0:g}km.csv"


def _scenario_sweep_distance(cfg: ScenarioConfig, out: _Outputs) -> None:
    (link,) = _links(cfg).values()
    lengths_m = [lk * 1000.0 for lk in cfg.lengths_km]
    points = network.distance_sweep(link, cfg.media, lengths_m, cfg.target())
    failed = [p for p in points if p.error is not None]
    if failed:
        warnings.warn(f"{len(failed)} of {len(points)} sweep points failed and read nan: "
                      + "; ".join(f"{p.kind} at {p.length / 1000.0:g} km: {p.error}"
                                  for p in failed), RuntimeWarning, stacklevel=2)
    ran = [p for p in points if p.trajectory is not None]
    out.write_trajectories([_point_name(p.kind, p.length) for p in ran],
                           [p.trajectory for p in ran])
    out.write_csv("summary.csv", ["kind", "length_km", "fidelity"],
                  [[p.kind, p.length / 1000.0, math.nan if p.fidelity is None else p.fidelity]
                   for p in points])


def _scenario_coherent_info(cfg: ScenarioConfig, out: _Outputs) -> None:
    # One amplitude run, the link's channel; the curve, the target's
    # trajectory and the Haar average are all read off it in closed form.
    (link,) = _links(cfg).values()
    channel = network.link_channel(link)
    info, f_e = metrics.probe_curve(channel)
    out.write_columns(
        "curve.csv",
        ["t_us", "coherent_info_bits", "entanglement_fidelity"],
        [channel.times / US, info, f_e],
    )

    traj = channel.link_trajectory(cfg.target())
    out.write_trajectory("trajectory.csv", traj)

    avg = metrics.average_fidelity(channel.link_run(), cfg.n_samples, cfg.seed)
    out.write_csv(
        "summary.csv",
        ["coherent_info_bits", "entanglement_fidelity", "average_fidelity", "stabilization_us"],
        [[float(info[-1]), float(f_e[-1]), avg, traj.stabilization_time() / US]],
    )


def _scenario_tune_stirap(cfg: ScenarioConfig, out: _Outputs) -> None:
    records = stirap_grid_search(cfg.link_params(), [w * US for w in cfg.tune_widths_us],
                                 [d * US for d in cfg.tune_delays_us], dt=cfg.dt_ns * NS)
    best = best_stirap_record(records)
    rows = [
        [r["pulse_width"] / US, r["t_delay"] / US, r["fidelity"],
         1 if r is best else 0]
        for r in records
    ]
    out.write_csv("summary.csv", ["pulse_width_us", "t_delay_us", "fidelity", "best"], rows)


_SCENARIO_RUNNERS = {
    "transfer": _scenario_transfer,
    "stirap-compare": _scenario_stirap_compare,
    "chain": _scenario_chain,
    "sweep-distance": _scenario_sweep_distance,
    "coherent-info": _scenario_coherent_info,
    "tune-stirap": _scenario_tune_stirap,
}


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[Path] = None) -> int:
    """Execute the configured scenario; returns the process exit status.

    A run that fails (an integration failure or an invalid state) removes the
    CSVs it wrote, and only those, and records the failure in the manifest.
    """
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_path)
    out.mkdir(parents=True, exist_ok=True)
    cfg = resolve_defaults(replace(cfg, out_path=str(out)))
    outputs = _Outputs(out)
    try:
        _SCENARIO_RUNNERS[cfg.scenario](cfg, outputs)
    except (dynamics.IntegrationError, InvalidStateError) as err:
        for path in outputs.written:
            path.unlink(missing_ok=True)
        if isinstance(err, dynamics.IntegrationError):
            t_us = err.t / US if err.t is not None else -1.0
            result = _result_text("integration-failure", t_us, str(err))
        else:
            result = _result_text("invalid-state", error=str(err))
        (out / "manifest.txt").write_text(_manifest_text(cfg) + result, encoding="utf-8")
        print(f"error: {err}", file=sys.stderr)
        return 1
    (out / "manifest.txt").write_text(_manifest_text(cfg) + _result_text("ok"), encoding="utf-8")
    for path in outputs.written:
        print(path)
    return 0


def _print_presets() -> None:
    print(f"{'preset':12s} {'g0 (2pi MHz)':>14s} {'kappa (2pi MHz)':>16s} {'gamma (2pi MHz)':>16s}")
    for name, values in PRESETS.items():
        print(
            f"{name:12s} {values['g0_2pi_mhz']:>14g} "
            f"{values['kappa_2pi_mhz']:>16g} {values['gamma_2pi_mhz']:>16g}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlinksim",
        description="Simulate mediated qubit-to-qubit state-transfer links.",
    )
    parser.add_argument("scenario", nargs="?", choices=SCENARIOS, help="scenario to run")
    parser.add_argument("--config", help="path to a key-value config file")
    parser.add_argument("--out", help="output directory (default: out_path from config)")
    parser.add_argument("--preset", help="named parameter preset, see --list-presets")
    parser.add_argument("--seed", type=int,
                        help="seed of coherent-info's Haar samples (no other scenario reads it)")
    parser.add_argument("--list-presets", action="store_true", help="print preset table and exit")
    args = parser.parse_args(argv)

    if args.list_presets:
        _print_presets()
        return 0

    overrides = {
        "scenario": args.scenario,
        "preset": args.preset,
        "seed": args.seed,
        "out_path": args.out,
    }
    try:
        if args.config:
            cfg = load_config(args.config, overrides)
        else:
            cfg = build_config({}, overrides)
        return run_scenario(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
