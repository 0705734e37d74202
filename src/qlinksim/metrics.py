"""Transfer-quality metrics: target fidelity, entanglement fidelity,
Haar-average fidelity, and coherent information.

Channel-level quantities are read off the Choi state J of the link channel
(Horodecki et al., PRA 60, 1888 (1999)): the joint state that an idle
reference qubit R, prepared maximally entangled with the source qubit A,
reaches with the link. R is never evolved: run_channel_probe assembles J from
one run of the link alone from |+> on A, which takes evolve's one-excitation
sector path. Entropies of the reduced (B) and (R, B) states of J give the
coherent information I = S(B') - S(R'B'), the second term being the entropy
exchange realized through purification.

J determines the link's response to every input: a qubit state rho placed on
A, with the rest of the link in its ground state, evolves into
2 Tr_R[(rho^T (x) I) J]. ChannelProbe applies this map to each stored sample,
which yields the Haar-average fidelity (ChannelProbe.link_run) and the
trajectory of any input (ChannelProbe.link_trajectory) without evolving
again; make_link_run keeps one evolve run per input as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dynamics
from .protocols import CouplingSchedule
from .qspace import (
    PureQubitSpec,
    Qubit,
    SystemLayout,
    link_layout,
    partial_trace,
    product_state,
    von_neumann_entropies,
    von_neumann_entropy,
)

__all__ = [
    "ChannelProbe",
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


def bell_phi_plus() -> np.ndarray:
    """|Phi+><Phi+| on two qubits."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return np.outer(ket, ket.conj())


@dataclass
class ChannelProbe:
    """Reference-extended link state before and after evolution.

    layout is the link layout with the idle reference qubit R prepended at
    site 0; joint_initial restricted to (R, A) is the Bell state |Phi+>.
    """

    layout: SystemLayout
    joint_initial: np.ndarray
    evolved_joint: Optional[np.ndarray] = None
    trajectory: Optional[dynamics.Trajectory] = None

    @property
    def site_b(self) -> int:
        return self.layout.n_sites - 1

    @property
    def link_layout(self) -> SystemLayout:
        """The link's own layout, without the reference qubit."""
        return SystemLayout(self.layout.sites[1:])

    def evolved_trajectory(self) -> dynamics.Trajectory:
        """The probe's sampled evolution; ValueError if it has not run."""
        if self.trajectory is None:
            raise ValueError("probe has not been evolved")
        return self.trajectory

    def link_states(self, spec: PureQubitSpec, joints: np.ndarray) -> np.ndarray:
        """Link states that input spec evolves into, read off probe states.

        joints is one probe state or a stack (..., D, D); each J maps to
        2 Tr_R[(rho^T (x) I) J], rho being the input state on A.
        """
        joints = np.asarray(joints)
        d = self.layout.total_dim // 2
        blocks = joints.reshape(joints.shape[:-2] + (2, d, 2, d))
        return 2.0 * np.einsum("ab,...axby->...xy", spec.density_matrix(), blocks)

    def link_run(self) -> Callable[[PureQubitSpec], np.ndarray]:
        """Received-state map of the evolved link, as make_link_run gives it.

        An input spec maps to the receiver-frame state of B, derived from the
        final probe state. Each derived link state gets the validity check a
        dense run gives its samples; a failure raises IntegrationError.
        """
        traj = self.evolved_trajectory()
        t_final = float(traj.times[-1])
        link = self.link_layout

        def run(spec: PureQubitSpec) -> np.ndarray:
            rho = self.link_states(spec, traj.final_state)
            dynamics._check_samples(np.array([t_final]), rho[None])
            return dynamics.receiver_frame(partial_trace(rho, link.n_sites - 1, link))

        return run

    def link_trajectory(self, target: PureQubitSpec) -> dynamics.Trajectory:
        """Trajectory of the link with target on A, derived from the probe's samples.

        It has the times, columns and per-sample checks of evolve run on
        target (x) vacuum with the probe's step and sampling.
        """
        traj = self.evolved_trajectory()
        states = self.link_states(target, traj.states)
        return dynamics.sampled_trajectory(self.link_layout, traj.times, states, target=target)


def _choi_states(states: np.ndarray) -> np.ndarray:
    """Choi states J of the link from a stack of its states S evolved from |+> on A.

    Basis index 0 is the vacuum. The response is linear and the vacuum does
    not evolve, so E(|1><0|) = 2 S[1:, 0], E(|1><1|) = 2 S[1:, 1:] plus
    2 S_00 - 1 on the vacuum, E(|0><0|) = |vac><vac|, and
    J = [[E(|0><0|), E(|1><0|)^dag], [E(|1><0|), E(|1><1|)]] / 2.
    """
    n, d = len(states), states.shape[-1]
    blocks = np.zeros((n, 2, d, 2, d), dtype=complex)
    blocks[:, 0, 0, 0, 0] = 0.5
    blocks[:, 1, 1:, 0, 0] = states[:, 1:, 0]
    blocks[:, 0, 0, 1, 1:] = states[:, 1:, 0].conj()
    blocks[:, 1, 1:, 1, 1:] = states[:, 1:, 1:]
    blocks[:, 1, 0, 1, 0] = states[:, 0, 0] - 0.5
    return blocks.reshape(n, 2 * d, 2 * d)


def run_channel_probe(
    params: dynamics.LinkParams,
    schedule: CouplingSchedule,
    t_final: float,
    dt: Optional[float] = None,
    *,
    sample_every: int = 100,
) -> ChannelProbe:
    """Evolve the link once from |+> on A and return the probe of its Choi states.

    The Choi states get the trace and eigenvalue checks of evolve's samples.
    """
    layout = link_layout()
    if dt is None:
        dt = dynamics.default_dt(params, schedule)
    rho0 = product_state([np.full((2, 2), 0.5)] + [None] * (layout.n_sites - 1), layout)
    link = dynamics.evolve(
        rho0, layout, params, schedule, dynamics.standard_collapse(params, layout),
        (0.0, t_final), dt, sample_every=sample_every,
    )
    probe_layout = SystemLayout((Qubit(),) + layout.sites)
    joints = _choi_states(link.states)
    traj = dynamics.sampled_trajectory(probe_layout, link.times, joints)
    return ChannelProbe(probe_layout, joints[0], evolved_joint=joints[-1], trajectory=traj)


def _reduced(probe: ChannelProbe, joint: Optional[np.ndarray], keep) -> np.ndarray:
    state = probe.evolved_joint if joint is None else joint
    if state is None:
        raise ValueError("probe has not been evolved")
    return partial_trace(state, keep, probe.layout)


def coherent_information(probe: ChannelProbe, joint: Optional[np.ndarray] = None) -> float:
    """I = S(rho_B') - S(rho_RB') in bits for the evolved probe state."""
    rho_b = _reduced(probe, joint, probe.site_b)
    rho_rb = _reduced(probe, joint, (0, probe.site_b))
    return von_neumann_entropy(rho_b) - von_neumann_entropy(rho_rb)


def entanglement_fidelity(probe: ChannelProbe, joint: Optional[np.ndarray] = None) -> float:
    """Overlap of the reduced (R, B) state with the initial Bell state.

    B is read in the calibrated receiver frame, so the ideal lossless link
    scores 1.
    """
    rho_rb = _reduced(probe, joint, (0, probe.site_b))
    frame = np.kron(np.eye(2, dtype=complex), dynamics.RECEIVER_FRAME)
    rho_rb = frame @ rho_rb @ frame
    return _clamp_fidelity(float(np.real(np.trace(bell_phi_plus() @ rho_rb))))


def probe_curve(probe: ChannelProbe) -> tuple[np.ndarray, np.ndarray]:
    """Coherent information (bits) and entanglement fidelity at every probe sample.

    One batched pass over the stacked samples: the values of
    coherent_information and entanglement_fidelity, sample by sample.
    """
    states = probe.evolved_trajectory().states
    n = len(states)
    mid = probe.layout.total_dim // 4  # qubit A and the mediators
    rho_rb = np.einsum(
        "srmbtmc->srbtc", states.reshape(n, 2, mid, 2, 2, mid, 2)
    ).reshape(n, 4, 4)
    rho_b = np.einsum("srbrc->sbc", rho_rb.reshape(n, 2, 2, 2, 2))
    info = von_neumann_entropies(rho_b) - von_neumann_entropies(rho_rb)
    frame = np.kron(np.eye(2, dtype=complex), dynamics.RECEIVER_FRAME)
    overlaps = np.einsum("ij,sji->s", frame @ bell_phi_plus() @ frame, rho_rb).real
    return info, np.array([_clamp_fidelity(float(f)) for f in overlaps])


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


def make_link_run(
    params: dynamics.LinkParams,
    schedule: CouplingSchedule,
    t_final: float,
    dt: Optional[float] = None,
) -> Callable[[PureQubitSpec], np.ndarray]:
    """End-to-end single-link channel: place the input on A, evolve, read B."""
    layout = link_layout()
    collapse = dynamics.standard_collapse(params, layout)
    terms = dynamics.hamiltonian_terms(params, layout)
    step = dt if dt is not None else dynamics.default_dt(params, schedule)
    n_steps = max(1, int(round(t_final / step)))

    def run(spec: PureQubitSpec) -> np.ndarray:
        rho0 = product_state([spec] + [None] * (layout.n_sites - 1), layout)
        traj = dynamics.evolve(
            rho0, layout, params, schedule, collapse, (0.0, t_final), step,
            sample_every=n_steps, terms=terms,
        )
        return dynamics.receiver_frame(
            partial_trace(traj.final_state, layout.n_sites - 1, layout)
        )

    return run
