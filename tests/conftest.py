import numpy as np
import pytest

from qlinksim.dynamics import hamiltonian_terms, sampled_trajectory
from qlinksim.qspace import dagger


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
    return terms.at(schedule.g_a_at(t), schedule.g_b_at(t))


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
        return -1j * terms.at(schedule.g_a_at(t), schedule.g_b_at(t)) - decay

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


def sector_reference(rho0, layout, params, schedule, collapse, t_span, dt, sample_every=1,
                     target=None, g_hop=0.0, terms=None):
    """evolve on a one-excitation run, by RK4 on its full-space columns plus the vacuum refill.

    rho(t) = sum_i x_i x_i^dag + (|vac><u| + |u><vac|) + (rho_vv0 + delta) |vac><vac|,
    where the x_i and u evolve by x' = M(t) x and delta is the norm the x_i
    lose. The columns are derived in sampled_trajectory, like evolve_dense's.
    """
    if terms is None:
        terms = hamiltonian_terms(params, layout, g_hop=g_hop)
    x0 = sector_columns(np.asarray(rho0, dtype=complex), layout)
    times, columns = rk4_columns(terms, collapse, schedule, x0, t_span, dt, sample_every)
    n_factor = x0.shape[1] - 1
    u = columns[..., -1]
    base = np.zeros(columns.shape[:1] + (len(rho0), len(rho0)), dtype=complex)
    base[:, :, 0] += u
    base[:, 0, :] += u.conj()
    base[:, 0, 0] = np.real(rho0[0, 0])
    states = refilled_states(columns, n_factor, 0, base)
    return sampled_trajectory(layout, times, states, target=target)
