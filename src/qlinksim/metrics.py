"""Transfer-quality metrics: target fidelity, entanglement fidelity,
Haar-average fidelity, and coherent information.

A one-excitation link is a qubit channel, amplitude damping plus a phase,
fixed at each time by one complex number: the receiver-frame amplitude f
that |1> sent from A reaches on B (dynamics.LinkChannel; Bose, PRL 91, 207901
(2003)). run_channel_probe runs the link once from |1> on A. Channel-level
quantities then follow in closed form (Horodecki et al., PRA 60, 1888
(1999)): with an idle reference qubit R prepared in |Phi+> with A, the
(R, B) state has eigenvalues (1 +- eta)/2 and B alone 1 - eta/2 and eta/2,
where eta = |f|^2. So the entanglement fidelity is F_e = |1 + f|^2 / 4 and
the coherent information I = S(B') - S(R'B') = h(eta/2) - h((1 - eta)/2),
with h the binary entropy. The same channel gives the received state of any
input (LinkChannel.link_run, for the Haar-average fidelity) and its
trajectory (LinkChannel.link_trajectory) without evolving again; the
cross-check that evolves each input on its own (make_link_run) is a test
reference in tests/conftest.py.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import dynamics
from .protocols import CouplingSchedule
from .qspace import PureQubitSpec, spectrum_entropies

__all__ = [
    "transfer_fidelity",
    "run_channel_probe",
    "probe_curve",
    "coherent_information",
    "entanglement_fidelity",
    "haar_qubit_specs",
    "average_fidelity",
]

FIDELITY_SLACK = 1e-9  # raw overlaps may be outside [0, 1] by at most this


def _clamp_fidelity(value: float) -> float:
    if value < -FIDELITY_SLACK or value > 1.0 + FIDELITY_SLACK:
        raise ValueError(f"fidelity {value!r} outside [0, 1] beyond numerical slack")
    return min(1.0, max(0.0, value))


def transfer_fidelity(rho_b: np.ndarray, target: PureQubitSpec) -> float:
    """Overlap <psi_t| rho_B |psi_t> with the intended pure state."""
    rho_b = np.asarray(rho_b, dtype=complex)
    if rho_b.shape != (2, 2):
        raise ValueError(f"expected a 2x2 qubit state, got shape {rho_b.shape}")
    ket = target.ket()
    return _clamp_fidelity(float(np.real(ket.conj() @ rho_b @ ket)))


def run_channel_probe(
    params: dynamics.LinkParams,
    schedule: CouplingSchedule,
    t_final: float,
    dt: Optional[float] = None,
    *,
    sample_every: int = 100,
) -> dynamics.LinkChannel:
    """Run the link once from |1> on A and return its channel at every sample."""
    return dynamics.link_channel(params, schedule, t_final, dt, sample_every=sample_every)


def _coherent_information(f: np.ndarray) -> np.ndarray:
    eta = f.real**2 + f.imag**2
    s_b = spectrum_entropies(np.stack([1.0 - 0.5 * eta, 0.5 * eta], axis=-1))
    s_rb = spectrum_entropies(np.stack([0.5 * (1.0 + eta), 0.5 * (1.0 - eta)], axis=-1))
    return s_b - s_rb


def _entanglement_fidelity(f: np.ndarray) -> np.ndarray:
    overlaps = 0.25 * ((1.0 + f.real) ** 2 + f.imag**2)
    for value in overlaps[(overlaps < 0.0) | (overlaps > 1.0)]:
        _clamp_fidelity(float(value))  # raises beyond the slack
    return np.clip(overlaps, 0.0, 1.0)


def coherent_information(channel: dynamics.LinkChannel) -> float:
    """I = S(rho_B') - S(rho_RB') in bits at the channel's last sample."""
    return float(_coherent_information(channel.f[-1:])[0])


def entanglement_fidelity(channel: dynamics.LinkChannel) -> float:
    """Overlap of the (R, B) state with the initial Bell state at the last sample.

    B is read in the calibrated receiver frame, so the ideal lossless link
    scores 1.
    """
    return float(_entanglement_fidelity(channel.f[-1:])[0])


def probe_curve(channel: dynamics.LinkChannel) -> tuple[np.ndarray, np.ndarray]:
    """Coherent information (bits) and entanglement fidelity at every sample.

    The entropies' eigenvalues go through qspace's clamp, so a survival
    |f|^2 above 1 + 2 EIGENVALUE_TOL raises InvalidStateError.
    """
    return _coherent_information(channel.f), _entanglement_fidelity(channel.f)


def haar_qubit_specs(n_samples: int, seed: int) -> list[PureQubitSpec]:
    """Haar-uniform pure qubit states: theta = arccos(1 - 2u), phi uniform."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(n_samples)
    v = rng.random(n_samples)
    return [
        PureQubitSpec(theta=float(np.arccos(1.0 - 2.0 * ui)), phi=float(2.0 * math.pi * vi))
        for ui, vi in zip(u, v)
    ]


def average_fidelity(
    link_run: Callable[[PureQubitSpec], np.ndarray],
    n_samples: int = 500,
    seed: int = 0,
) -> float:
    """Mean transfer fidelity over Haar-random inputs sent through the link.

    link_run maps an input state spec to the received 2x2 qubit state.
    """
    total = 0.0
    for spec in haar_qubit_specs(n_samples, seed):
        total += transfer_fidelity(link_run(spec), spec)
    return total / n_samples
