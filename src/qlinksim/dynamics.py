"""Markovian master-equation dynamics of a mediated qubit-qubit link.

The interaction-picture Hamiltonian (hbar = 1, all frequencies angular) is

    H(t) = omega_q (sp_A sm_A + sp_B sm_B) + omega_w a^dag a
           + g_A(t) (sp_A a + sm_A a^dag) + g_B(t) (sp_B a + sm_B a^dag),

with counter-rotating terms dropped, so the total excitation number is
conserved by the coherent part. Dissipation enters through collapse channels
(rate, L) acting as  rate * (L rho L^dag - {L^dag L, rho}/2); qubit decay uses
L = sigma_minus and mediator photon loss L = a, both unit-normalized, so an
isolated excited qubit decays as exp(-gamma t).

Integration is fixed-step classical RK4, with the Hamiltonian re-evaluated
at the substage times. A link carries at most one excitation: when the
initial state, the Hamiltonian terms and the collapse operators provably keep
a run in the vacuum (+) one-excitation subspace, `evolve` steps only the
blocks of rho that can be non-zero there. Those are the one-excitation block
R (one row per site) and its coherence u with the vacuum; the vacuum
population follows from the trace, which RK4 keeps exactly. R and u are
stepped together as one small real vector, one RK4 step matrix per step, and
dense states are rebuilt only at the sample times. Every other state (the
reference-qubit probe of `metrics` adds a two-excitation component) goes
through `evolve_dense`, RK4 on the whole density matrix, which is also the
reference the sector stepper is tested against; the two apply the same RK4
polynomial and agree to roundoff. The independent cross-check
`propagator_oracle` instead exponentiates the column-stacked Liouvillian and
shares no code with either stepper.

Receiver frame: completing the resonant transfer (driven or adiabatic) lands
the excitation on B with a deterministic minus sign, since the passage goes
through the (|1_A 0 0> - |0 0 1_B>)-type dark combination. A receiver that
has calibrated its phase reference absorbs this known sign, so received-state
quantities are reported in the frame Z rho_B Z with Z = diag(1, -1); in that
frame the lossless link realizes the identity channel.
"""

from __future__ import annotations

import itertools
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
    "evolve_dense",
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
    """Diagonals of the per-site number operators in the product basis.

    Row i holds site i's occupation number in every basis state.
    """
    return np.indices(layout.dims).reshape(layout.n_sites, -1).astype(float)


def _target_projector(target: PureQubitSpec, layout: SystemLayout) -> np.ndarray:
    """Projector scoring the last site against the target, in the receiver frame."""
    return embed(receiver_frame(target.density_matrix()), layout.n_sites - 1, layout)


def _checked_run(
    rho0: np.ndarray,
    layout: SystemLayout,
    t_span: tuple[float, float],
    dt: float,
    sample_every: int,
) -> tuple[np.ndarray, float, float, int]:
    """Validate a run's arguments; returns rho0 as a complex copy, t0, the step and the step count.

    The number of steps is rounded so a uniform grid lands exactly on t1.
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
    n_steps = max(1, int(round((t1 - t0) / dt)))
    return rho, t0, (t1 - t0) / n_steps, n_steps


def _drift_terms(
    terms: HamiltonianTerms, collapse: Sequence[CollapseChannel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift M(t) = m_static + g_A(t) m_a + g_B(t) m_b of the master equation.

    M = -i H - sum_j rate_j L_j^dag L_j / 2, so that
    rhs(rho) = M rho + rho M^dag + sum_j rate_j L_j rho L_j^dag.
    """
    decay = np.zeros_like(terms.h_static, dtype=complex)
    for ch in collapse:
        decay += 0.5 * ch.rate * (dagger(ch.operator) @ ch.operator)
    return -1j * terms.h_static - decay, -1j * terms.h_a, -1j * terms.h_b


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
    Samples (including the initial and final states) are Hermitian and, once
    the run ends, checked for trace drift and negative eigenvalues beyond the
    failure thresholds.

    A run that provably stays in the vacuum (+) one-excitation subspace (see
    _one_excitation_sector) steps only the blocks of rho that can be non-zero
    there; every other run goes through evolve_dense. Both apply the same
    RK4 step, so they agree to roundoff.
    """
    rho, t0, h, n_steps = _checked_run(rho0, layout, t_span, dt, sample_every)
    if terms is None:
        terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    drift = _drift_terms(terms, collapse)
    one = _one_excitation_sector(layout, rho, drift, collapse)
    if one is None:
        return evolve_dense(
            rho0, layout, params, schedule, collapse, t_span, dt,
            sample_every=sample_every, target=target, g_hop=g_hop, terms=terms,
        )
    steps = np.arange(0, n_steps + 1, sample_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    coords = _SectorCoordinates(one)
    # divergence surfaces as an IntegrationError when the samples are
    # checked, so transient overflow warnings from an unstable step are noise
    with np.errstate(over="ignore", invalid="ignore"):
        x = _sector_rk4(coords, rho, drift, schedule, t0, h, steps.tolist())
        states = coords.states(x, np.trace(rho).real, layout.total_dim)
    return sampled_trajectory(layout, t0 + steps * h, states, target=target)


def evolve_dense(
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
    """evolve's integration, by classical RK4 on the whole density matrix.

    The Hamiltonian is re-evaluated at the substage times, and samples are
    re-symmetrized as (rho + rho^dag)/2 before storage. It serves every
    state, and is the reference the one-excitation stepper is tested against.
    """
    rho, t0, h, n_steps = _checked_run(rho0, layout, t_span, dt, sample_every)
    if terms is None:
        terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    h2 = 0.5 * h
    m_static, m_a, m_b = _drift_terms(terms, collapse)
    if collapse:
        jump = np.stack([ch.rate * ch.operator for ch in collapse])
        jump_dag = np.stack([dagger(ch.operator) for ch in collapse])
    else:
        jump = jump_dag = None

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


# --- the vacuum (+) one-excitation sector ------------------------------------
#
# In the basis of the sector, rho = [[rho_vv, u^dag], [u, R]], with R the
# m x m one-excitation block (m = number of sites) and u the coherence with
# the vacuum. When the drift maps the vacuum to 0 and the one-excitation
# states into themselves, and every jump maps those onto the vacuum, the
# master equation splits into
#     R' = A R + R A^dag,   u' = A u,   rho_vv' = -Tr R',
# with A the drift restricted to the one-excitation states. An RK4 step of
# rho restricted to the sector is the RK4 step of (R, u), and it keeps
# Tr rho exactly, since it is a polynomial in a trace-free generator; so
# rho_vv = Tr rho0 - Tr R.


def _one_excitation_sector(
    layout: SystemLayout,
    rho0: np.ndarray,
    drift: Sequence[np.ndarray],
    collapse: Sequence[CollapseChannel],
) -> Optional[np.ndarray]:
    """Basis indices of the one-excitation states, if the run provably stays in the sector.

    The proof is on the actual matrices: rho0 vanishes outside vacuum (+)
    one excitation; every drift term (Hamiltonian terms and the decay
    sum_j rate_j L_j^dag L_j / 2) maps the vacuum to 0 and the one-excitation
    states into themselves; and every collapse operator annihilates the
    vacuum and maps the one-excitation states onto the vacuum. Returns None
    when any of these fails. Index 0 is the vacuum.
    """
    excitations = _population_vectors(layout).sum(axis=0)
    one = np.flatnonzero(excitations == 1)
    outside = excitations > 1
    if rho0[outside].any() or rho0[:, outside].any():
        return None
    off_one = np.ones(layout.total_dim, dtype=bool)
    off_one[one] = False
    for m in drift:
        if m[:, 0].any() or m[np.ix_(off_one, one)].any():
            return None
    for ch in collapse:
        if ch.operator[:, 0].any() or ch.operator[1:, one].any():
            return None
    return one


class _SectorCoordinates:
    """Real coordinates x = (R along a real Hermitian basis, Re u, Im u) of a sector state.

    The run steps x; the samples are rebuilt from it. R is stepped from its
    Hermitian part and u = (rho[one, 0] + conj(rho[0, one]))/2, which is what
    the dense stepper's symmetrized samples hold.
    """

    def __init__(self, one: np.ndarray):
        m = len(one)
        self.one = one
        # Columns E_ii, E_ij + E_ji and i (E_ij - E_ji) (i < j) as C-order
        # vecs; they are orthogonal, so the dual rows are the scaled adjoint.
        basis = np.zeros((m * m, m * m), dtype=complex)
        k = m
        for i in range(m):
            basis[i * m + i, i] = 1.0
            for j in range(i + 1, m):
                basis[i * m + j, k] = basis[j * m + i, k] = 1.0
                basis[i * m + j, k + 1], basis[j * m + i, k + 1] = 1j, -1j
                k += 2
        self.basis = basis
        self.dual = basis.conj().T / (np.abs(basis) ** 2).sum(axis=0)[:, None]
        self.dim = m * m + 2 * m

    def of(self, rho: np.ndarray) -> np.ndarray:
        """Coordinates of a state of the sector."""
        one = self.one
        r = rho[np.ix_(one, one)]
        u = 0.5 * (rho[one, 0] + rho[0, one].conj())
        x_r = (self.dual @ (0.5 * (r + dagger(r))).reshape(-1)).real
        return np.concatenate([x_r, u.real, u.imag])

    def generator(self, a: np.ndarray) -> np.ndarray:
        """Real matrix of (R, u) -> (A R + R A^dag, A u) on the coordinates."""
        m = len(a)
        eye = np.eye(m)
        lift = np.kron(a, eye) + np.kron(eye, a.conj())  # on C-order vec R
        gen = np.zeros((self.dim, self.dim))
        gen[: m * m, : m * m] = (self.dual @ lift @ self.basis).real
        gen[m * m :, m * m :] = np.block([[a.real, -a.imag], [a.imag, a.real]])
        return gen

    def states(self, x: np.ndarray, trace: float, d: int) -> np.ndarray:
        """Dense d x d states of a stack of coordinates, for a run of trace `trace`."""
        one, m, n = self.one, len(self.one), len(x)
        r = (x[:, : m * m] @ self.basis.T).reshape(n, m, m)
        u = x[:, m * m : m * m + m] + 1j * x[:, m * m + m :]
        states = np.zeros((n, d, d), dtype=complex)
        states[:, one[:, None], one] = r
        states[:, one, 0] = u
        states[:, 0, one] = u.conj()
        states[:, 0, 0] = trace - np.einsum("sii->s", r).real
        return states


# Steps whose RK4 step matrices a pulsed run builds at once. The work buffers
# hold this many dim x dim matrices each and are reused, so memory stays flat
# whatever the run length.
_BATCH_STEPS = 64


class _Rk4StepMatrices:
    """RK4 step matrices of x' = B(t) x, with B(t) = B_0 + g_A(t) B_A + g_B(t) B_B.

    The step from t is S = I + (h/6)(K1 + 2 K2 + 2 K3 + K4), where
    K1 = B(t), K2 = B(t + h/2)(I + h K1/2), K3 = B(t + h/2)(I + h K2/2) and
    K4 = B(t + h)(I + h K3), so that S x is one classical RK4 step of x.
    """

    def __init__(self, generators: np.ndarray, h: float, batch: int):
        n_gen, dim, _ = generators.shape
        self.generators = generators.reshape(n_gen, dim * dim)
        self.h = h
        self.weights = np.ones((batch, n_gen))
        self.drive = np.empty((3, batch, dim, dim))  # B at t, t + h/2, t + h
        self.acc, self.shifted, self.k = (np.empty((batch, dim, dim)) for _ in range(3))

    def build(self, g_a: np.ndarray, g_b: np.ndarray) -> np.ndarray:
        """Step matrices of len(g_a) steps; g_a, g_b hold the drive at t, t + h/2, t + h.

        The result lives in the work buffers until the next call.
        """
        n, dim = len(g_a), self.acc.shape[-1]
        h = self.h
        b1, b2, b4 = self.drive[:, :n]
        weights = self.weights[:n]
        for stage, b in enumerate((b1, b2, b4)):
            weights[:, 1], weights[:, 2] = g_a[:, stage], g_b[:, stage]
            np.matmul(weights, self.generators, out=b.reshape(n, dim * dim))
        acc, x, k = self.acc[:n], self.shifted[:n], self.k[:n]
        np.copyto(acc, b1)
        _identity_plus(b1, 0.5 * h, out=x)
        np.matmul(b2, x, out=k)  # K2
        _identity_plus(k, 0.5 * h, out=x)
        k *= 2.0
        acc += k
        np.matmul(b2, x, out=k)  # K3
        _identity_plus(k, h, out=x)
        k *= 2.0
        acc += k
        np.matmul(b4, x, out=k)  # K4
        acc += k
        return _identity_plus(acc, h / 6.0, out=acc)


def _identity_plus(k: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """out = I + scale * k for a stack of square matrices."""
    np.multiply(k, scale, out=out)
    out.reshape(len(out), -1)[:, :: out.shape[-1] + 1] += 1.0
    return out


def _sector_rk4(
    coords: _SectorCoordinates,
    rho: np.ndarray,
    drift: Sequence[np.ndarray],
    schedule: CouplingSchedule,
    t0: float,
    h: float,
    sample_steps: list[int],
) -> np.ndarray:
    """RK4 on the coordinates of rho; returns them at sample_steps (0 first, the last step last).

    One step matrix serves a constant drive; a pulsed drive gets its step
    matrices built in batches from the drive at the substage times.
    """
    one = coords.one
    gens = np.stack([coords.generator(m[np.ix_(one, one)]) for m in drift])
    constant = isinstance(schedule, ConstantSchedule)
    step_buffers = _Rk4StepMatrices(gens, h, 1 if constant else _BATCH_STEPS)

    def step_matrices(start: int, n: int):
        t = t0 + np.arange(start, start + n) * h
        return step_buffers.build(*schedule.couplings(np.stack([t, t + 0.5 * h, t + h], axis=1)))

    n_steps = sample_steps[-1]
    samples = np.empty((len(sample_steps), coords.dim))
    samples[0] = coords.of(rho)
    spare = (np.empty(coords.dim), np.empty(coords.dim))
    x, j = samples[0], 1
    if constant:
        constant_step = step_matrices(0, 1)[0]
    for start in range(0, n_steps, _BATCH_STEPS):
        n = min(_BATCH_STEPS, n_steps - start)
        mats = itertools.repeat(constant_step, n) if constant else step_matrices(start, n)
        for step, mat in enumerate(mats, start=start + 1):
            if step == sample_steps[j]:
                out = samples[j]
                j += 1
            else:
                out = spare[1] if x is spare[0] else spare[0]
            mat.dot(x, out=out)
            x = out
    return samples


# --- samples -------------------------------------------------------------------

# Samples checked at once; bounds the temporary copies eigvalsh makes.
_CHECK_BATCH = 128


def sampled_trajectory(
    layout: SystemLayout,
    times: np.ndarray,
    states: np.ndarray,
    target: Optional[PureQubitSpec] = None,
) -> Trajectory:
    """Check stored samples and derive the trajectory columns from them.

    Each sample is checked for non-finite entries, trace drift and negative
    eigenvalues beyond the failure thresholds; the first failing sample in
    time order raises IntegrationError carrying its time.
    """
    _check_samples(times, states)
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


def _check_samples(times: np.ndarray, states: np.ndarray) -> None:
    """Raise IntegrationError for the first sample, in time order, that fails a check.

    A sample fails on a non-finite entry, else on trace drift, else on a
    negative eigenvalue beyond the thresholds; the message names the first
    of these that the sample fails.
    """
    for start in range(0, len(states), _CHECK_BATCH):
        batch = states[start : start + _CHECK_BATCH]
        finite = np.isfinite(batch).all(axis=(1, 2))
        traces = np.trace(batch, axis1=1, axis2=2).real
        if finite.all():
            lam_min = np.linalg.eigvalsh(batch).min(axis=1)
        else:
            lam_min = np.full(len(batch), np.inf)
            lam_min[finite] = np.linalg.eigvalsh(batch[finite]).min(axis=1)
        with np.errstate(invalid="ignore"):
            drifted = np.abs(traces - 1.0) > TRACE_DRIFT_MAX
        failed = ~finite | drifted | (lam_min < MIN_EIGENVALUE_MIN)
        if not failed.any():
            continue
        i = int(np.argmax(failed))
        t = float(times[start + i])
        if not finite[i]:
            raise IntegrationError(f"state diverged (non-finite entries) at t = {t:.6e} s", t=t)
        if drifted[i]:
            raise IntegrationError(f"trace drifted to {float(traces[i]):.9f} at t = {t:.6e} s", t=t)
        raise IntegrationError(
            f"eigenvalue {float(lam_min[i]):.3e} below {MIN_EIGENVALUE_MIN:g} at t = {t:.6e} s",
            t=t,
        )


def _check_sample(rho: np.ndarray, t: float) -> None:
    _check_samples(np.array([t]), np.asarray(rho)[None])


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
