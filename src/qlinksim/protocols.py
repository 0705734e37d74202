"""Time-dependent coupling schedules: constant drive and counterintuitive
Gaussian pulse pairs for adiabatic (dark-state) transfer.

The pulse pair is ordered so the receiver-side coupling g_B peaks first
(at t_center) and the sender-side coupling g_A peaks t_delay later; adiabatic
following of the resulting dark state keeps the lossy mediator nearly empty.
The grid tuner scores each (width, delay) pair on one run of the link's channel.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ConstantSchedule",
    "StirapSchedule",
    "CouplingSchedule",
    "default_stirap",
    "default_stirap_window",
    "stirap_grid_search",
    "best_stirap_record",
]

# Adiabaticity g0*T and pulse overlap t_delay/T used when nothing is specified.
DEFAULT_ADIABATICITY = 100.0
DEFAULT_DELAY_RATIO = 1.2


def _check_peaks(schedule: CouplingSchedule) -> None:
    """Raise ValueError naming a peak coupling that is not finite and >= 0."""
    for name in ("g0_a", "g0_b"):
        if not 0 <= getattr(schedule, name) < math.inf:
            raise ValueError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class ConstantSchedule:
    """Couplings held at g0_a, g0_b for all times."""

    g0_a: float
    g0_b: float

    def __post_init__(self) -> None:
        _check_peaks(self)

    def g_a_at(self, t: float) -> float:
        return self.g0_a

    def g_b_at(self, t: float) -> float:
        return self.g0_b

    def couplings(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g_A, g_B) at every entry of an array of times."""
        return np.full(np.shape(times), self.g0_a), np.full(np.shape(times), self.g0_b)


@dataclass(frozen=True)
class StirapSchedule:
    """Gaussian pulse pair g_B(t) = g0_b exp(-(t-t_center)^2/T^2),
    g_A(t) = g0_a exp(-(t-t_center-t_delay)^2/T^2).

    t_center locates the g_B peak inside the simulation window so the whole
    protocol fits in t >= 0; it defaults to 3*T.
    """

    g0_a: float
    g0_b: float
    pulse_width: float
    t_delay: float
    t_center: float = -1.0  # sentinel: resolved to 3*pulse_width

    def __post_init__(self) -> None:
        _check_peaks(self)
        for name in ("pulse_width", "t_delay"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not math.isfinite(self.t_center):
            raise ValueError("t_center must be finite")
        if self.t_center < 0:
            object.__setattr__(self, "t_center", 3.0 * self.pulse_width)

    def g_a_at(self, t: float) -> float:
        x = (t - self.t_center - self.t_delay) / self.pulse_width
        return self.g0_a * math.exp(-x * x)

    def g_b_at(self, t: float) -> float:
        x = (t - self.t_center) / self.pulse_width
        return self.g0_b * math.exp(-x * x)

    def couplings(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(g_A, g_B) at every entry of an array of times, as g_a_at and g_b_at."""
        x_a = (times - self.t_center - self.t_delay) / self.pulse_width
        x_b = (times - self.t_center) / self.pulse_width
        return self.g0_a * np.exp(-x_a * x_a), self.g0_b * np.exp(-x_b * x_b)


CouplingSchedule = Union[ConstantSchedule, StirapSchedule]


def default_stirap(
    g0: float,
    *,
    adiabaticity: float = DEFAULT_ADIABATICITY,
    delay_ratio: float = DEFAULT_DELAY_RATIO,
    g0_b: float | None = None,
) -> StirapSchedule:
    """Pulse pair with width T = adiabaticity/g0 and delay = delay_ratio*T."""
    if g0 <= 0:
        raise ValueError("g0 must be > 0")
    width = adiabaticity / g0
    return StirapSchedule(
        g0_a=g0,
        g0_b=g0 if g0_b is None else g0_b,
        pulse_width=width,
        t_delay=delay_ratio * width,
    )


def default_stirap_window(schedule: StirapSchedule) -> tuple[float, float]:
    """[t0, t1] outside which both envelopes are below exp(-9) of peak."""
    if not isinstance(schedule, StirapSchedule):
        raise ValueError("window is only defined for StirapSchedule")
    t0 = max(0.0, schedule.t_center - 3.0 * schedule.pulse_width)
    t1 = schedule.t_center + schedule.t_delay + 3.0 * schedule.pulse_width
    return (t0, t1)


def stirap_grid_search(
    params,
    width_grid: Sequence[float],
    delay_grid: Sequence[float],
    *,
    dt: float | None = None,
) -> list[dict]:
    """Evaluate end-of-window transfer fidelity for every (T, t_delay) pair.

    Each grid point runs the link built from `params` once from |1> on A
    (dynamics.link_channel) and records |f|^2 at the window end: B's excited
    population, its fidelity against |1>. A RuntimeWarning counts the
    fidelities that underflowed to 0.0, which best_stirap_record ranks by
    window length alone.
    """
    # Imported here to avoid a circular import with the dynamics module.
    from . import dynamics

    if len(width_grid) == 0 or len(delay_grid) == 0:
        raise ValueError("grids must be non-empty")
    records = []
    for width in width_grid:
        for delay in delay_grid:
            schedule = StirapSchedule(
                g0_a=params.g_a, g0_b=params.g_b, pulse_width=width, t_delay=delay
            )
            _, t1 = default_stirap_window(schedule)
            try:
                # a cadence past the last step stores the first and last samples
                channel = dynamics.link_channel(params, schedule, t1, dt, sample_every=sys.maxsize)
            except dynamics.IntegrationError as err:
                raise dynamics.IntegrationError(
                    f"grid point (T={width:g}, t_delay={delay:g}): {err}", t=err.t
                ) from err
            fid = float(abs(channel.f[-1]) ** 2)
            records.append(
                {"pulse_width": width, "t_delay": delay, "window": t1, "fidelity": fid}
            )
    zeros = sum(r["fidelity"] == 0.0 for r in records)
    if zeros:
        warnings.warn(
            f"{zeros} of {len(records)} grid fidelities underflowed to 0.0; the best "
            "record ranks those by window length alone",
            RuntimeWarning,
            stacklevel=2,
        )
    return records


def best_stirap_record(records: Sequence[dict]) -> dict:
    """The grid record with the highest final transfer fidelity.

    Ties are broken by smaller total window duration, then by smaller width.
    """
    return min(records, key=lambda r: (-r["fidelity"], r["window"], r["pulse_width"]))
