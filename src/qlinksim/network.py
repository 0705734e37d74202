"""Multi-hop chains and communication-medium models.

A hop transfers the current qubit state through one link: the input goes on
qubit A, mediators start in vacuum, B starts in |0>, and the link runs for
hop_time. A link is the qubit channel of one amplitude run
(dynamics.LinkChannel), so a hop reads its received state and its
trajectory off the channel in closed form, and the received state of B (no
residual entanglement carried along) is the next hop's input. A chain runs
each distinct link once, however many hops use it.

Media enter through an effective mediator loss rate. A cavity spanning the
distance loses photons linearly in length; a fiber's end-to-end survival
eta = 10^(-dB/10) becomes the rate -ln(eta) / hop_time on the mediator; the
cavity+fiber combination pays the cavity base loss plus a fixed
fiber-coupling overhead plus the fiber term. That rate charges the photon
only while it sits in the mediator, for part of the hop, so a fiber point is
charged well under its dB budget: on a lossless 5.8 x 2pi MHz link under a
constant drive the fiber scales the received survival by about eta^0.25, not
eta (ROADMAP direction 8, "Media as channels", which would treat the fiber
as the pure-loss channel f -> sqrt(eta) f instead). The coupling overhead is
what makes the bare cavity win at short distance before the fiber's flat
per-km cost takes over.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import dynamics
from .metrics import transfer_fidelity
from .protocols import CouplingSchedule, StirapSchedule, default_stirap_window
from .qspace import PureQubitSpec, check_density_matrix

__all__ = [
    "CAVITY",
    "FIBER",
    "CAVITY_PLUS_FIBER",
    "MediumModel",
    "LinkSpec",
    "HopRecord",
    "ChainResult",
    "SweepPoint",
    "effective_kappa",
    "link_channel",
    "run_hop",
    "run_chain",
    "distance_sweep",
]

CAVITY = "cavity"
FIBER = "fiber"
CAVITY_PLUS_FIBER = "cavity+fiber"
_MEDIUM_KINDS = (CAVITY, FIBER, CAVITY_PLUS_FIBER)

# Survival probabilities below this underflow the log; kappa saturates there.
_ETA_FLOOR = 1e-300

# Defaults reproduce a short-range cavity advantage with a fiber crossover
# near 100 m; both constants are configuration-exposed.
DEFAULT_CAVITY_LOSS_PER_M = 5.0e3  # 1/s per metre of cavity span
DEFAULT_FIBER_COUPLING_KAPPA = 3.0e5  # 1/s fixed cavity-fiber insertion cost
DEFAULT_FIBER_ATTENUATION_DB_PER_KM = 0.2


@dataclass(frozen=True)
class MediumModel:
    """Loss model of the physical medium spanning one link."""

    kind: str = CAVITY
    base_kappa: float = 0.0
    length: float = 0.0  # metres
    cavity_loss_per_m: float = DEFAULT_CAVITY_LOSS_PER_M
    fiber_attenuation_db_per_km: float = DEFAULT_FIBER_ATTENUATION_DB_PER_KM
    fiber_coupling_kappa: float = DEFAULT_FIBER_COUPLING_KAPPA

    def __post_init__(self) -> None:
        if self.kind not in _MEDIUM_KINDS:
            raise ValueError(f"kind must be one of {_MEDIUM_KINDS}, got {self.kind!r}")
        for name in ("base_kappa", "length", "cavity_loss_per_m", "fiber_attenuation_db_per_km",
                     "fiber_coupling_kappa"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _fiber_kappa(medium: MediumModel, protocol_duration: float) -> float:
    db = medium.fiber_attenuation_db_per_km * medium.length / 1000.0
    eta = 10.0 ** (-db / 10.0)
    if eta < _ETA_FLOOR:
        kappa_max = -math.log(_ETA_FLOOR) / protocol_duration
        warnings.warn(
            f"fiber survival underflowed ({db:.1f} dB); saturating kappa at "
            f"{kappa_max:.3e} 1/s",
            RuntimeWarning,
            stacklevel=3,
        )
        return kappa_max
    if eta == 1.0:
        return 0.0
    return -math.log(eta) / protocol_duration


def effective_kappa(medium: MediumModel, protocol_duration: float) -> float:
    """Mediator photon loss rate for the medium over one protocol run."""
    if protocol_duration <= 0:
        raise ValueError("protocol_duration must be > 0")
    if medium.kind == CAVITY:
        return medium.base_kappa + medium.cavity_loss_per_m * medium.length
    if medium.kind == FIBER:
        return _fiber_kappa(medium, protocol_duration)
    return (
        medium.base_kappa
        + medium.fiber_coupling_kappa
        + _fiber_kappa(medium, protocol_duration)
    )


@dataclass(frozen=True)
class LinkSpec:
    """One link of a chain: rates, drive schedule, medium and hop duration."""

    params: dynamics.LinkParams
    schedule: CouplingSchedule
    hop_time: float
    medium: Optional[MediumModel] = None
    n_mediators: int = 1
    g_hop: float = 0.0
    dt: Optional[float] = None
    sample_every: int = 100

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hop_time) and self.hop_time > 0):
            raise ValueError(f"hop_time must be finite and > 0, got {self.hop_time!r}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if not math.isfinite(self.g_hop):
            raise ValueError(f"g_hop must be finite, got {self.g_hop!r}")
        if isinstance(self.schedule, StirapSchedule):
            # a hop an ulp or two short of the window end, as a round trip
            # through microseconds leaves it, still reaches it
            _, t1 = default_stirap_window(self.schedule)
            if self.hop_time < t1 and not math.isclose(self.hop_time, t1, rel_tol=1e-12):
                raise ValueError(f"hop_time = {self.hop_time!r} s is shorter than the pulse "
                                 f"window, which ends at {t1!r} s")

    def effective_params(self) -> dynamics.LinkParams:
        if self.medium is None:
            return self.params
        kappa = effective_kappa(self.medium, self.hop_time)
        return replace(self.params, kappa=kappa)


@dataclass
class HopRecord:
    hop_index: int
    output_state: np.ndarray
    fidelity: float
    trajectory: dynamics.Trajectory


@dataclass
class ChainResult:
    per_hop: list[HopRecord] = field(default_factory=list)

    @property
    def fidelities(self) -> list[float]:
        return [rec.fidelity for rec in self.per_hop]


def link_channel(link: LinkSpec) -> dynamics.LinkChannel:
    """The link's channel over its hop, from one amplitude run."""
    return dynamics.link_channel(
        link.effective_params(), link.schedule, link.hop_time, link.dt,
        sample_every=link.sample_every, n_mediators=link.n_mediators, g_hop=link.g_hop,
    )


def run_hop(
    input_qubit: np.ndarray,
    link: LinkSpec,
    target: PureQubitSpec,
    channel: Optional[dynamics.LinkChannel] = None,
) -> tuple[np.ndarray, dynamics.Trajectory]:
    """Send a (possibly mixed) qubit state through one link.

    Returns the received qubit state (B at hop_time, in the receiver frame)
    and the trajectory with fidelity against `target` sampled along the way.
    channel is link_channel(link) when the caller has it already.
    """
    input_qubit = np.asarray(input_qubit, dtype=complex)
    check_density_matrix(input_qubit)
    if channel is None:
        channel = link_channel(link)
    out = channel.received_state(input_qubit)
    check_density_matrix(out)
    return out, channel.link_trajectory(target, input_qubit)


def run_chain(initial: PureQubitSpec, links: Sequence[LinkSpec]) -> ChainResult:
    """Compose hops sequentially, scoring each node against the original target.

    Each distinct link runs once; every hop through it reads its own input's
    output and trajectory off that run.
    """
    if len(links) == 0:
        raise ValueError("chain needs at least one link")
    state = initial.density_matrix()
    channels: dict[LinkSpec, dynamics.LinkChannel] = {}
    result = ChainResult()
    for index, link in enumerate(links, start=1):
        try:
            if link not in channels:
                channels[link] = link_channel(link)
            state, traj = run_hop(state, link, target=initial, channel=channels[link])
        except dynamics.IntegrationError as err:
            raise dynamics.IntegrationError(f"hop {index}: {err}", t=err.t) from err
        result.per_hop.append(
            HopRecord(
                hop_index=index,
                output_state=state,
                fidelity=transfer_fidelity(state, initial),
                trajectory=traj,
            )
        )
    return result


@dataclass
class SweepPoint:
    kind: str
    length: float  # metres
    fidelity: Optional[float]
    error: Optional[str] = None
    trajectory: Optional[dynamics.Trajectory] = None


def distance_sweep(
    link_template: LinkSpec,
    kinds: Sequence[str],
    lengths: Sequence[float],
    target: PureQubitSpec,
) -> list[SweepPoint]:
    """End-of-hop fidelity for every (medium kind, length) combination.

    Per-point integration failures are recorded and the sweep continues.
    Results are sorted by (kind, length).
    """
    if len(lengths) == 0:
        raise ValueError("lengths must be non-empty")
    if any(length < 0 for length in lengths):
        raise ValueError("lengths must be >= 0")
    medium = link_template.medium if link_template.medium is not None else MediumModel()
    points = []
    for kind in kinds:
        for length in lengths:
            link = replace(link_template, medium=replace(medium, kind=kind, length=length))
            try:
                out, traj = run_hop(target.density_matrix(), link, target)
            except dynamics.IntegrationError as err:
                points.append(SweepPoint(kind=kind, length=float(length),
                                         fidelity=None, error=str(err)))
                continue
            points.append(
                SweepPoint(kind=kind, length=float(length),
                           fidelity=transfer_fidelity(out, target), trajectory=traj)
            )
    points.sort(key=lambda p: (p.kind, p.length))
    return points
