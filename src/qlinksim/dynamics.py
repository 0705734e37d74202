"""Markovian master-equation dynamics of a mediated qubit-qubit link.

The interaction-picture Hamiltonian (hbar = 1, all frequencies angular) is

    H(t) = omega_q (sp_A sm_A + sp_B sm_B) + omega_w a^dag a
           + g_A(t) (sp_A a + sm_A a^dag) + g_B(t) (sp_B a + sm_B a^dag),

with counter-rotating terms dropped, so the total excitation number is
conserved by the coherent part. Dissipation enters through collapse channels
(rate, L) acting as  rate * (L rho L^dag - {L^dag L, rho}/2); qubit decay uses
L = sigma_minus and mediator photon loss L = a, both unit-normalized, so an
isolated excited qubit decays as exp(-gamma t).

Integration is fixed-step classical RK4 on the density matrix itself, with
the Hamiltonian re-evaluated at the substage times. The independent
cross-check `propagator_oracle` instead exponentiates the column-stacked
Liouvillian and shares no code with the stepper.

Receiver frame: completing the resonant transfer (driven or adiabatic) lands
the excitation on B with a deterministic minus sign, since the passage goes
through the (|1_A 0 0> - |0 0 1_B>)-type dark combination. A receiver that
has calibrated its phase reference absorbs this known sign, so received-state
quantities are reported in the frame Z rho_B Z with Z = diag(1, -1); in that
frame the lossless link realizes the identity channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .protocols import ConstantSchedule, CouplingSchedule
from .qspace import (
    PureQubitSpec,
    Qubit,
    SystemLayout,
    dagger,
    embed,
    local_operator,
    partial_trace,
)

__all__ = [
    "LinkParams",
    "CollapseChannel",
    "Trajectory",
    "IntegrationError",
    "standard_collapse",
    "hamiltonian_terms",
    "hamiltonian_at",
    "lindblad_rhs",
    "default_dt",
    "evolve",
    "sampled_trajectory",
    "liouvillian",
    "propagator_oracle",
    "receiver_frame",
]

# Integration-failure thresholds checked at every stored sample.
TRACE_DRIFT_MAX = 1e-6
MIN_EIGENVALUE_MIN = -1e-5

# Known transfer sign on the receiving qubit, absorbed into its frame.
RECEIVER_FRAME = np.diag([1.0, -1.0]).astype(complex)


def receiver_frame(rho_b: np.ndarray) -> np.ndarray:
    """Received qubit state expressed in the phase-calibrated receiver frame."""
    return RECEIVER_FRAME @ rho_b @ RECEIVER_FRAME


# Largest Liouvillian dimension the exponential oracle will accept.
ORACLE_MAX_SUPERDIM = 4096


class IntegrationError(RuntimeError):
    """Integration produced an invalid state; carries the offending time."""

    def __init__(self, message: str, t: Optional[float] = None):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class LinkParams:
    """Physical rates of one link, in angular frequency units (rad/s, 1/s).

    g_a and g_b are the nominal coupling amplitudes; the schedule passed to
    the Hamiltonian builder is authoritative for the instantaneous values.
    omega_q = omega_w = 0 selects the resonant rotating frame, which leaves
    populations and fidelities unchanged and permits larger steps.
    """

    g_a: float
    g_b: float
    omega_q: float = 0.0
    omega_w: float = 0.0
    kappa: float = 0.0
    gamma_a: float = 0.0
    gamma_b: float = 0.0

    def __post_init__(self) -> None:
        for name in ("g_a", "g_b", "kappa", "gamma_a", "gamma_b", "omega_q", "omega_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if (self.omega_q > 0) != (self.omega_w > 0):
            raise ValueError(
                "omega_q and omega_w must both be positive (lab frame) "
                "or both zero (rotating frame)"
            )

    def constant_schedule(self) -> ConstantSchedule:
        return ConstantSchedule(g0_a=self.g_a, g0_b=self.g_b)

    def max_rate(self) -> float:
        return max(
            self.g_a, self.g_b, self.kappa, self.gamma_a, self.gamma_b,
            abs(self.omega_q - self.omega_w),
        )


@dataclass(frozen=True)
class CollapseChannel:
    """Unit-normalized collapse operator in the full space, with its rate."""

    operator: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("collapse rate must be >= 0")


def standard_collapse(params: LinkParams, layout: SystemLayout) -> list[CollapseChannel]:
    """Qubit decay on the end qubits and photon loss on every mediator."""
    channels = []
    sm = local_operator("sigma_minus", 2)
    if params.gamma_a > 0:
        channels.append(CollapseChannel(embed(sm, 0, layout), params.gamma_a))
    if params.gamma_b > 0:
        channels.append(CollapseChannel(embed(sm, layout.n_sites - 1, layout), params.gamma_b))
    if params.kappa > 0:
        for i in layout.mode_indices:
            a = local_operator("annihilate", layout.dims[i])
            channels.append(CollapseChannel(embed(a, i, layout), params.kappa))
    return channels


@dataclass(frozen=True)
class HamiltonianTerms:
    """Precomputed pieces of H(t) = h_static + g_A(t) h_a + g_B(t) h_b."""

    h_static: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray

    def at(self, g_a: float, g_b: float) -> np.ndarray:
        return self.h_static + g_a * self.h_a + g_b * self.h_b


def hamiltonian_terms(
    params: LinkParams, layout: SystemLayout, g_hop: float = 0.0
) -> HamiltonianTerms:
    """Assemble the static and coupling parts for a link layout.

    The layout must be (qubit, mode(s)..., qubit); qubit A couples to the
    first mediator and qubit B to the last, and for multi-mediator layouts
    neighbouring mediators exchange photons with amplitude g_hop.
    """
    sites = layout.sites
    modes = layout.mode_indices
    if not (isinstance(sites[0], Qubit) and isinstance(sites[-1], Qubit)):
        raise ValueError("link layout must start and end with a qubit")
    if len(modes) < 1 or modes != tuple(range(1, layout.n_sites - 1)):
        raise ValueError("link layout needs contiguous mediator modes between the qubits")

    d = layout.total_dim
    sp = local_operator("sigma_plus", 2)
    num_qubit = local_operator("number", 2)

    h_static = np.zeros((d, d), dtype=complex)
    if params.omega_q != 0.0:
        h_static += params.omega_q * (
            embed(num_qubit, 0, layout) + embed(num_qubit, layout.n_sites - 1, layout)
        )
    if params.omega_w != 0.0:
        for i in modes:
            h_static += params.omega_w * embed(
                local_operator("number", layout.dims[i]), i, layout
            )
    if g_hop != 0.0 and len(modes) > 1:
        for i, j in zip(modes[:-1], modes[1:]):
            hop = embed(local_operator("create", layout.dims[i]), i, layout) @ embed(
                local_operator("annihilate", layout.dims[j]), j, layout
            )
            h_static += g_hop * (hop + dagger(hop))

    def _coupling(qubit_index: int, mode_index: int) -> np.ndarray:
        term = embed(sp, qubit_index, layout) @ embed(
            local_operator("annihilate", layout.dims[mode_index]), mode_index, layout
        )
        return term + dagger(term)

    h_a = _coupling(0, modes[0])
    h_b = _coupling(layout.n_sites - 1, modes[-1])
    return HamiltonianTerms(h_static=h_static, h_a=h_a, h_b=h_b)


def hamiltonian_at(
    t: float,
    params: LinkParams,
    schedule: CouplingSchedule,
    layout: SystemLayout,
    g_hop: float = 0.0,
) -> np.ndarray:
    """Full Hamiltonian matrix at time t (Hermitian by construction)."""
    terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    return terms.at(schedule.g_a_at(t), schedule.g_b_at(t))


def lindblad_rhs(
    rho: np.ndarray, h: np.ndarray, collapse: Sequence[CollapseChannel]
) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_j rate_j (L rho L^dag - {L^dag L, rho}/2)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != h.shape:
        raise ValueError(f"state shape {rho.shape} does not match H shape {h.shape}")
    out = -1j * (h @ rho - rho @ h)
    for ch in collapse:
        op = ch.operator
        if op.shape != rho.shape:
            raise ValueError("collapse operator shape does not match the state")
        od = dagger(op)
        odo = od @ op
        out += ch.rate * (op @ rho @ od - 0.5 * (odo @ rho + rho @ odo))
    return out


def default_dt(params: LinkParams, schedule: Optional[CouplingSchedule] = None) -> float:
    """Step resolving the fastest rate by at least 200 steps per cycle, capped at 1 ns."""
    fastest = params.max_rate()
    if schedule is not None:
        fastest = max(fastest, schedule.g0_a, schedule.g0_b)
    if fastest <= 0:
        return 1e-9
    return min(1e-9, 2.0 * math.pi / (200.0 * fastest))


@dataclass
class Trajectory:
    """Sampled record of an integration run.

    populations holds one column per site (qubit excitation or mediator
    photon number expectation); fidelity is present when a target was set.
    """

    layout: SystemLayout
    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    fidelity: Optional[np.ndarray] = None
    target: Optional[PureQubitSpec] = None

    @property
    def pop_a(self) -> np.ndarray:
        return self.populations[:, 0]

    @property
    def pop_b(self) -> np.ndarray:
        return self.populations[:, -1]

    @property
    def pop_w(self) -> np.ndarray:
        return self.populations[:, 1:-1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_fidelity(self) -> float:
        if self.fidelity is None:
            raise ValueError("trajectory was run without a target")
        return float(self.fidelity[-1])

    def stabilization_time(self, tol: float = 0.01) -> float:
        """Earliest sampled time after which fidelity stays within tol of its end value."""
        if self.fidelity is None:
            raise ValueError("trajectory was run without a target")
        settled = np.abs(self.fidelity - self.fidelity[-1]) < tol
        # last index where the curve was still outside the band
        outside = np.nonzero(~settled)[0]
        if len(outside) == 0:
            return float(self.times[0])
        if outside[-1] + 1 >= len(self.times):
            return float(self.times[-1])
        return float(self.times[outside[-1] + 1])


def _population_vectors(layout: SystemLayout) -> np.ndarray:
    """Diagonals of the per-site number operators in the product basis."""
    diags = []
    for i, site in enumerate(layout.sites):
        n_op = local_operator("number", site.dim)
        diags.append(np.real(np.diag(embed(n_op, i, layout))))
    return np.array(diags)


def _target_projector(target: PureQubitSpec, layout: SystemLayout) -> np.ndarray:
    """Projector scoring the last site against the target, in the receiver frame."""
    return embed(receiver_frame(target.density_matrix()), layout.n_sites - 1, layout)


def evolve(
    rho0: np.ndarray,
    layout: SystemLayout,
    params: LinkParams,
    schedule: CouplingSchedule,
    collapse: Sequence[CollapseChannel],
    t_span: tuple[float, float],
    dt: float,
    sample_every: int = 1,
    target: Optional[PureQubitSpec] = None,
    g_hop: float = 0.0,
    terms: Optional[HamiltonianTerms] = None,
) -> Trajectory:
    """Fixed-step RK4 integration of the master equation.

    The number of steps is rounded so a uniform grid lands exactly on t1.
    Samples (including the initial and final states) are re-symmetrized as
    (rho + rho^dag)/2 before storage and, once the run ends, checked for
    trace drift and negative eigenvalues beyond the failure thresholds.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if t1 <= t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    rho = np.array(rho0, dtype=complex)
    d = layout.total_dim
    if rho.shape != (d, d):
        raise ValueError(f"initial state shape {rho.shape} does not match layout dim {d}")

    if terms is None:
        terms = hamiltonian_terms(params, layout, g_hop=g_hop)

    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    h2 = 0.5 * h

    # Drift matrix M(t) = -i H(t) - sum_j rate_j L^dag L / 2, so that
    # rhs(rho) = M rho + rho M^dag + sum_j rate_j L rho L^dag.
    decay = np.zeros((d, d), dtype=complex)
    if collapse:
        jump = np.stack([ch.rate * ch.operator for ch in collapse])
        jump_dag = np.stack([dagger(ch.operator) for ch in collapse])
        for ch in collapse:
            decay += 0.5 * ch.rate * (dagger(ch.operator) @ ch.operator)
    else:
        jump = jump_dag = None
    m_static = -1j * terms.h_static - decay
    m_a = -1j * terms.h_a
    m_b = -1j * terms.h_b

    constant = isinstance(schedule, ConstantSchedule)
    if constant:
        m_const = m_static + schedule.g0_a * m_a + schedule.g0_b * m_b
        m_const_dag = dagger(m_const)

    def rhs(t: float, r: np.ndarray) -> np.ndarray:
        if constant:
            out = m_const @ r + r @ m_const_dag
        else:
            m = m_static + schedule.g_a_at(t) * m_a + schedule.g_b_at(t) * m_b
            out = m @ r + r @ dagger(m)
        if jump is not None:
            out += (jump @ r @ jump_dag).sum(axis=0)
        return out

    sample_times = [t0]
    sample_states = [0.5 * (rho + dagger(rho))]

    t = t0
    # divergence surfaces as an IntegrationError when the samples are
    # checked, so transient overflow warnings from an unstable step are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k1 = rhs(t, rho)
            k2 = rhs(t + h2, rho + h2 * k1)
            k3 = rhs(t + h2, rho + h2 * k2)
            k4 = rhs(t + h, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t = t0 + step * h
            if step % sample_every == 0 or step == n_steps:
                sample_times.append(t)
                sample_states.append(0.5 * (rho + dagger(rho)))

    return sampled_trajectory(
        layout, np.array(sample_times), np.array(sample_states), target=target
    )


def sampled_trajectory(
    layout: SystemLayout,
    times: np.ndarray,
    states: np.ndarray,
    target: Optional[PureQubitSpec] = None,
) -> Trajectory:
    """Check stored samples and derive the trajectory columns from them.

    Each sample is checked in time order for trace drift and negative
    eigenvalues beyond the failure thresholds; the first failing sample
    raises IntegrationError carrying its time.
    """
    for t, rho in zip(times, states):
        _check_sample(rho, float(t))
    pop_vecs = _population_vectors(layout)
    diagonals = np.einsum("sii->si", states).real
    populations = diagonals @ pop_vecs.T
    trace = diagonals.sum(axis=1)
    pur = np.einsum("sij,sji->s", states, states).real
    fidelity = None
    if target is not None:
        proj = _target_projector(target, layout)
        fidelity = np.clip(np.einsum("ij,sji->s", proj, states).real, 0.0, 1.0)
    return Trajectory(
        layout=layout,
        times=times,
        states=states,
        populations=populations,
        trace=trace,
        purity=pur,
        fidelity=fidelity,
        target=target,
    )


def _check_sample(rho: np.ndarray, t: float) -> None:
    if not np.isfinite(rho).all():
        raise IntegrationError(f"state diverged (non-finite entries) at t = {t:.6e} s", t=t)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_DRIFT_MAX:
        raise IntegrationError(
            f"trace drifted to {tr:.9f} at t = {t:.6e} s", t=t
        )
    lam_min = float(np.linalg.eigvalsh(rho).min())
    if lam_min < MIN_EIGENVALUE_MIN:
        raise IntegrationError(
            f"eigenvalue {lam_min:.3e} below {MIN_EIGENVALUE_MIN:g} at t = {t:.6e} s", t=t
        )


def liouvillian(h: np.ndarray, collapse: Sequence[CollapseChannel]) -> np.ndarray:
    """Column-stacking superoperator matrix of the master equation."""
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    sup = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for ch in collapse:
        op = ch.operator
        odo = dagger(op) @ op
        sup += ch.rate * (
            np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, odo)
            - 0.5 * np.kron(odo.T, eye)
        )
    return sup


def propagator_oracle(
    rho0: np.ndarray,
    h: np.ndarray,
    collapse: Sequence[CollapseChannel],
    t: float,
) -> np.ndarray:
    """Evolve under a time-independent H by exponentiating the Liouvillian.

    Test oracle for small systems; refuses superoperator dimensions above
    ORACLE_MAX_SUPERDIM.
    """
    d = h.shape[0]
    if d * d > ORACLE_MAX_SUPERDIM:
        raise ValueError(
            f"oracle limited to dim^2 <= {ORACLE_MAX_SUPERDIM}, got {d * d}"
        )
    if t < 0:
        raise ValueError("t must be >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    sup = liouvillian(h, collapse)
    vec = rho0.reshape(-1, order="F")
    out = scipy.linalg.expm(sup * t) @ vec
    return out.reshape(d, d, order="F")
