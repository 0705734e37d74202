import math
import os

# One BLAS thread, as perfbench/run.py pins, set before numpy is imported: the
# matrices here are tiny, so BLAS worker threads add only overhead and noise.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import pytest
import scipy.linalg

from qlinksim import dynamics
from qlinksim.dynamics import (
    CollapseChannel,
    IntegrationError,
    Trajectory,
    TrajectoryColumns,
    default_dt,
    hamiltonian_terms,
    receiver_frame,
    standard_collapse,
)
from qlinksim.protocols import ConstantSchedule
from qlinksim.qspace import (
    PureQubitSpec,
    Qubit,
    SystemLayout,
    checked_fidelity,
    dagger,
    embed,
    link_layout,
    partial_trace,
    product_state,
    spectrum_entropies,
)


def make_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def make_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def hamiltonian_at(t, params, schedule, layout, g_hop=0.0):
    """Full Hamiltonian matrix at time t (Hermitian by construction)."""
    terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    return terms.at(*schedule.couplings(t))


def lindblad_rhs(rho, h, collapse):
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


# --- small configs of the six CLI scenarios, each well under a second -----------

_WEAK_LOSS = {"g0_2pi_mhz": 5.8, "kappa_2pi_mhz": 0.34, "gamma_2pi_mhz": 0.006}
_SHORT_PULSE = {"pulse_width_us": 0.25, "t_delay_us": 0.3, "dt_ns": 1.0}
SMALL_SCENARIOS = {
    "transfer": {"scenario": "transfer", "t_final_us": 0.5, "dt_ns": 1.0,
                 "sample_every": 50, **_WEAK_LOSS},
    "stirap-compare": {"scenario": "stirap-compare", **_SHORT_PULSE, **_WEAK_LOSS},
    "chain": {"scenario": "chain", "hops": 2, "hop_time_us": 2.0, **_SHORT_PULSE,
              **_WEAK_LOSS},
    "sweep-distance": {"scenario": "sweep-distance", "lengths_km": (0.001, 0.1),
                       "dt_ns": 0.05, "sample_every": 500},
    "tune-stirap": {"scenario": "tune-stirap", "tune_widths_us": (0.25,),
                    "tune_delays_us": (0.3,), "dt_ns": 1.0, **_WEAK_LOSS},
    "coherent-info": {"scenario": "coherent-info", "preset": "fig4", "dt_ns": 1.0,
                      "sample_every": 10, "n_samples": 5},
}


# --- reference: RK4 on the whole density matrix, with every sample checked ----


def per_sample_check(times, states):
    """Raise IntegrationError for the first sample, in time order, that fails a check.

    A sample fails on a non-finite entry, else on trace drift, else on a
    negative eigenvalue beyond dynamics' thresholds.
    """
    for t, rho in zip(times, states):
        t = float(t)
        if not np.isfinite(rho).all():
            raise IntegrationError(f"state diverged (non-finite entries) at t = {t:.6e} s", t=t)
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > dynamics.TRACE_DRIFT_MAX:
            raise IntegrationError(f"trace drifted to {tr:.9f} at t = {t:.6e} s", t=t)
        lam_min = float(np.linalg.eigvalsh(rho).min())
        if lam_min < dynamics.MIN_EIGENVALUE_MIN:
            raise IntegrationError(
                f"eigenvalue {lam_min:.3e} below {dynamics.MIN_EIGENVALUE_MIN:g} "
                f"at t = {t:.6e} s", t=t)


def sampled_trajectory(layout, times, states, target=None) -> Trajectory:
    """Check stored samples and derive the trajectory columns from them."""
    per_sample_check(times, states)
    pop_vecs = np.indices(layout.dims).reshape(layout.n_sites, -1)
    diagonals = np.einsum("sii->si", states).real
    fidelity = None
    if target is not None:
        proj = embed(receiver_frame(target.density_matrix()), layout.n_sites - 1, layout)
        fidelity = np.clip(np.einsum("ij,sji->s", proj, states).real, 0.0, 1.0)
    columns = TrajectoryColumns(populations=diagonals @ pop_vecs.T, trace=diagonals.sum(axis=1),
                                purity=np.einsum("sij,sji->s", states, states).real)
    return Trajectory(
        layout=layout, times=times, state_at=states.__getitem__,
        columns_at=lambda rows: TrajectoryColumns(*(column[rows] for column in columns)),
        fidelity=fidelity,
    )


def drift_terms(terms, collapse) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drift M(t) = m_static + g_A(t) m_a + g_B(t) m_b of the master equation.

    M = -i H - sum_j rate_j L_j^dag L_j / 2, so that
    rhs(rho) = M rho + rho M^dag + sum_j rate_j L_j rho L_j^dag.
    """
    decay = np.zeros_like(terms.h_static, dtype=complex)
    for ch in collapse:
        decay += 0.5 * ch.rate * (dagger(ch.operator) @ ch.operator)
    return -1j * terms.h_static - decay, -1j * terms.h_a, -1j * terms.h_b


def evolve_dense(rho0, layout, params, schedule, t_span, dt, sample_every=1, target=None,
                 g_hop=0.0) -> Trajectory:
    """dynamics.evolve by classical RK4 on the whole density matrix: the reference.

    The Hamiltonian terms and collapse operators are built by kron embedding,
    the Hamiltonian is re-evaluated at the substage times, and samples are
    re-symmetrized as (rho + rho^dag)/2 before storage. It takes any state,
    in or outside the one-excitation sector.
    """
    rho, grid = dynamics._checked_run(rho0, layout, t_span, dt, sample_every)
    t0, h, n_steps = grid.t0, grid.h, grid.n_steps
    collapse = standard_collapse(params, layout)
    h2 = 0.5 * h
    m_static, m_a, m_b = drift_terms(hamiltonian_terms(params, layout, g_hop=g_hop), collapse)
    if collapse:
        jump = np.stack([ch.rate * ch.operator for ch in collapse])
        jump_dag = np.stack([dagger(ch.operator) for ch in collapse])
    else:
        jump = jump_dag = None

    def rhs(t: float, r: np.ndarray) -> np.ndarray:
        g_a, g_b = schedule.couplings(t)
        m = m_static + g_a * m_a + g_b * m_b
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

    return sampled_trajectory(layout, np.array(sample_times), np.array(sample_states),
                              target=target)


# --- reference: the matrix exponential of the Liouvillian --------------------

# Largest Liouvillian dimension the exponential oracle will accept.
ORACLE_MAX_SUPERDIM = 4096


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
    t,
) -> np.ndarray:
    """Evolve under a time-independent H by exponentiating the Liouvillian.

    t is one time, or a sequence of times for the stack of states at each.
    The exponential acts on the entries that rho0's support reaches through
    the Liouvillian's nonzero entries, which hold the whole evolution, so a
    vacuum (+) one-excitation state takes a small one. Test oracle for small
    systems; refuses superoperator dimensions above ORACLE_MAX_SUPERDIM.
    """
    d = h.shape[0]
    if d * d > ORACLE_MAX_SUPERDIM:
        raise ValueError(
            f"oracle limited to dim^2 <= {ORACLE_MAX_SUPERDIM}, got {d * d}"
        )
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if (times < 0).any():
        raise ValueError("t must be >= 0")
    rho0 = np.asarray(rho0, dtype=complex)
    sup = liouvillian(h, collapse)
    vec = rho0.reshape(-1, order="F")
    live = vec != 0
    while True:
        reached = live | (sup[:, live] != 0).any(axis=1)
        if (reached == live).all():
            break
        live = reached
    block = sup[np.ix_(live, live)]
    out = np.zeros((len(times), d * d), dtype=complex)
    for i, ti in enumerate(times):
        out[i, live] = scipy.linalg.expm(block * ti) @ vec[live] if ti > 0 else vec[live]
    states = out.reshape(len(times), d, d, order="F")
    return states[0] if np.ndim(t) == 0 else states


def oracle_reference(rho0, layout, params, schedule, t_span, dt, sample_every=1, target=None,
                     g_hop=0.0):
    """evolve on a constant drive, exactly: propagator_oracle at the run's sample times."""
    assert isinstance(schedule, ConstantSchedule), "the oracle needs a constant drive"
    grid = dynamics._checked_grid(t_span, dt, sample_every)
    times = grid.t0 + grid.sample_steps() * grid.h
    h = hamiltonian_at(grid.t0, params, schedule, layout, g_hop)
    states = propagator_oracle(rho0, h, standard_collapse(params, layout), times - grid.t0)
    return sampled_trajectory(layout, times, states, target=target)


# --- reference for the one-excitation amplitude engine -----------------------


def rk4_columns(terms, collapse, schedule, x0, t_span, dt, sample_every=1):
    """Classical RK4 on full-space column vectors, x' = M(t) x.

    M(t) = -i H(t) - sum_j rate_j L_j^dag L_j / 2 is the no-jump drift of the
    master equation, built here from the Hamiltonian terms and the collapse
    operators. Returns the sample times and the columns X at each sample,
    with the grid and sampling rule of evolve.
    """
    t0, t1 = t_span
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    decay = sum((0.5 * ch.rate * ch.operator.conj().T @ ch.operator for ch in collapse),
                np.zeros_like(terms.h_static))

    def drift(t):
        return -1j * terms.at(*schedule.couplings(t)) - decay

    x = np.array(x0, dtype=complex)
    times, columns = [t0], [x]
    for step in range(1, n_steps + 1):
        t = t0 + (step - 1) * h
        k1 = drift(t) @ x
        k2 = drift(t + h / 2) @ (x + h / 2 * k1)
        k3 = drift(t + h / 2) @ (x + h / 2 * k2)
        k4 = drift(t + h) @ (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % sample_every == 0 or step == n_steps:
            times.append(t0 + step * h)
            columns.append(x)
    return np.array(times), np.array(columns)


def sector_columns(rho0, layout):
    """Full-space columns of a vacuum (+) one-excitation state.

    The first columns factor the one-excitation block R0 = sum_i x_i x_i^dag
    (its positive eigenpairs); the last is the coherence u0 with the vacuum,
    placed on the one-excitation states.
    """
    one = np.flatnonzero(np.indices(layout.dims).reshape(layout.n_sites, -1).sum(axis=0) == 1)
    r0 = rho0[np.ix_(one, one)]
    lam, vecs = np.linalg.eigh(0.5 * (r0 + r0.conj().T))
    keep = lam > 0
    columns = np.zeros((len(rho0), keep.sum() + 1), dtype=complex)
    columns[one, :-1] = vecs[:, keep] * np.sqrt(lam[keep])
    columns[one, -1] = 0.5 * (rho0[one, 0] + rho0[0, one].conj())
    return columns


def refilled_states(columns, n_factor, refill, base):
    """States sum_i x_i x_i^dag over the first n_factor columns, plus the rest.

    base is the part that does not evolve; the norm the factor columns lose
    since the first sample is put back on the state `refill`.
    """
    x = columns[..., :n_factor]
    states = np.matmul(x, x.conj().swapaxes(-1, -2)) + base
    lost = (np.abs(x[0]) ** 2).sum() - (np.abs(x) ** 2).sum(axis=(-2, -1))
    states[:, refill, refill] += lost
    return states


def sector_reference(rho0, layout, params, schedule, t_span, dt, sample_every=1, target=None,
                     g_hop=0.0):
    """evolve on a one-excitation run, by RK4 on its full-space columns plus the vacuum refill.

    rho(t) = sum_i x_i x_i^dag + (|vac><u| + |u><vac|) + (rho_vv0 + delta) |vac><vac|,
    where the x_i and u evolve by x' = M(t) x, with M built from the kron-built
    Hamiltonian terms and collapse operators, and delta is the norm the x_i
    lose. The columns are derived in sampled_trajectory, like evolve_dense's.
    """
    terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    x0 = sector_columns(np.asarray(rho0, dtype=complex), layout)
    times, columns = rk4_columns(terms, standard_collapse(params, layout), schedule, x0,
                                 t_span, dt, sample_every)
    n_factor = x0.shape[1] - 1
    u = columns[..., -1]
    base = np.zeros(columns.shape[:1] + (len(rho0), len(rho0)), dtype=complex)
    base[:, :, 0] += u
    base[:, 0, :] += u.conj()
    base[:, 0, 0] = np.real(rho0[0, 0])
    states = refilled_states(columns, n_factor, 0, base)
    return sampled_trajectory(layout, times, states, target=target)


# --- reference for the link's channel: the Choi state of a reference-qubit probe ---
#
# The production path reads every channel-level quantity off the link's one
# amplitude run in closed form. The reference below is the construction it
# replaced: the joint state J of an idle reference qubit R, prepared in |Phi+>
# with A, assembled from one evolve run of the link from |+> on A, with
# entropies from eigvalsh and link states from 2 Tr_R[(rho^T (x) I) J].


def bell_phi_plus() -> np.ndarray:
    """|Phi+><Phi+| on two qubits."""
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1.0 / math.sqrt(2.0)
    return np.outer(ket, ket.conj())


def von_neumann_entropies(states: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., d, d) of density matrices, by eigvalsh."""
    return spectrum_entropies(np.linalg.eigvalsh(np.asarray(states, dtype=complex)))


@dataclass
class ChannelProbe:
    """Reference-extended link state before and after evolution.

    layout is the link layout with the idle reference qubit R prepended at
    site 0; joint_initial restricted to (R, A) is the Bell state |Phi+>.
    """

    layout: SystemLayout
    joint_initial: np.ndarray
    evolved_joint: Optional[np.ndarray] = None
    trajectory: Optional[Trajectory] = None

    @property
    def site_b(self) -> int:
        return self.layout.n_sites - 1

    @property
    def link_layout(self) -> SystemLayout:
        """The link's own layout, without the reference qubit."""
        return SystemLayout(self.layout.sites[1:])

    def evolved_trajectory(self) -> Trajectory:
        """The probe's sampled evolution; ValueError if it has not run."""
        if self.trajectory is None:
            raise ValueError("probe has not been evolved")
        return self.trajectory

    def link_states(self, spec, joints: np.ndarray) -> np.ndarray:
        """Link states that input spec (a PureQubitSpec or a 2x2 state) evolves into.

        joints is one probe state or a stack (..., D, D); each J maps to
        2 Tr_R[(rho^T (x) I) J], rho being the input state on A.
        """
        rho = spec.density_matrix() if isinstance(spec, PureQubitSpec) else spec
        joints = np.asarray(joints)
        d = self.layout.total_dim // 2
        blocks = joints.reshape(joints.shape[:-2] + (2, d, 2, d))
        return 2.0 * np.einsum("ab,...axby->...xy", rho, blocks)

    def link_run(self) -> Callable[[PureQubitSpec], np.ndarray]:
        """Received-state map derived from the final probe state, with dense checks."""
        traj = self.evolved_trajectory()
        t_final = float(traj.times[-1])
        link = self.link_layout

        def run(spec: PureQubitSpec) -> np.ndarray:
            rho = self.link_states(spec, traj.final_state)
            per_sample_check([t_final], rho[None])
            return receiver_frame(partial_trace(rho, link.n_sites - 1, link))

        return run

    def link_trajectory(self, target: PureQubitSpec, rho_a=None) -> Trajectory:
        """Trajectory of the link with rho_a (default: target) on A, from the probe's samples."""
        traj = self.evolved_trajectory()
        states = self.link_states(target if rho_a is None else rho_a, traj.states)
        return sampled_trajectory(self.link_layout, traj.times, states, target=target)


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


def run_choi_probe(params, schedule, t_final, dt=None, *, sample_every=100, n_mediators=1,
                   g_hop=0.0) -> ChannelProbe:
    """Evolve the link once from |+> on A and return the probe of its Choi states."""
    layout = link_layout(n_mediators=n_mediators)
    if dt is None:
        dt = default_dt(params, schedule, g_hop)
    rho0 = product_state([np.full((2, 2), 0.5)] + [None] * (layout.n_sites - 1), layout)
    link = dynamics.evolve(rho0, layout, params, schedule, (0.0, t_final), dt,
                           sample_every=sample_every, g_hop=g_hop)
    probe_layout = SystemLayout((Qubit(),) + layout.sites)
    joints = _choi_states(link.states)
    traj = sampled_trajectory(probe_layout, link.times, joints)
    return ChannelProbe(probe_layout, joints[0], evolved_joint=joints[-1], trajectory=traj)


def _reduced(probe: ChannelProbe, joint, keep) -> np.ndarray:
    state = probe.evolved_joint if joint is None else joint
    if state is None:
        raise ValueError("probe has not been evolved")
    return partial_trace(state, keep, probe.layout)


def choi_coherent_information(probe: ChannelProbe, joint=None) -> float:
    """I = S(rho_B') - S(rho_RB') in bits of the probe state."""
    rho_b = _reduced(probe, joint, probe.site_b)
    rho_rb = _reduced(probe, joint, (0, probe.site_b))
    return float(von_neumann_entropies(rho_b) - von_neumann_entropies(rho_rb))


def choi_entanglement_fidelity(probe: ChannelProbe, joint=None) -> float:
    """Overlap of the (R, B) state, B in the receiver frame, with |Phi+>."""
    rho_rb = _reduced(probe, joint, (0, probe.site_b))
    frame = np.kron(np.eye(2, dtype=complex), dynamics.RECEIVER_FRAME)
    rho_rb = frame @ rho_rb @ frame
    return float(checked_fidelity(np.real(np.trace(bell_phi_plus() @ rho_rb))))


def choi_probe_curve(probe: ChannelProbe) -> tuple[np.ndarray, np.ndarray]:
    """Coherent information and entanglement fidelity at every probe sample, batched."""
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
    return info, checked_fidelity(overlaps)


# --- reference for a hop: the link evolved step by step -------------------------


def evolved_hop(input_qubit, link, target, channel=None):
    """network.run_hop by one dynamics.evolve run on input (x) vacuum: the reference.

    B's state is read by a partial trace of the final state. channel is
    ignored; the evolve bound in dynamics at call time runs the link.
    """
    layout = link_layout(n_mediators=link.n_mediators)
    params = link.effective_params()
    rho0 = product_state([input_qubit] + [None] * (layout.n_sites - 1), layout)
    dt = link.dt if link.dt is not None else default_dt(params, link.schedule, link.g_hop)
    traj = dynamics.evolve(
        rho0, layout, params, link.schedule, (0.0, link.hop_time), dt,
        sample_every=link.sample_every, target=target, g_hop=link.g_hop,
    )
    out = receiver_frame(partial_trace(traj.final_state, layout.n_sites - 1, layout))
    return 0.5 * (out + out.conj().T), traj


# --- reference for the Haar average: one evolve run per input ------------------


def make_link_run(params, schedule, t_final, dt) -> Callable[[PureQubitSpec], np.ndarray]:
    """The link's channel by one dynamics.evolve run per input: the reference.

    Places the input on A, evolves to t_final and reads B in the receiver frame.
    """
    layout = link_layout()
    n_steps = max(1, int(round(t_final / dt)))

    def run(spec: PureQubitSpec) -> np.ndarray:
        rho0 = product_state([spec] + [None] * (layout.n_sites - 1), layout)
        traj = dynamics.evolve(rho0, layout, params, schedule, (0.0, t_final), dt,
                               sample_every=n_steps)
        return receiver_frame(partial_trace(traj.final_state, layout.n_sites - 1, layout))

    return run
