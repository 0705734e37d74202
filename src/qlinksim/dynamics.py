"""Markovian master-equation dynamics of a mediated qubit-qubit link.

The interaction-picture Hamiltonian (hbar = 1, all frequencies angular) is

    H(t) = omega_q (sp_A sm_A + sp_B sm_B) + omega_w a^dag a
           + g_A(t) (sp_A a + sm_A a^dag) + g_B(t) (sp_B a + sm_B a^dag),

with counter-rotating terms dropped, so the total excitation number is
conserved by the coherent part. Dissipation enters through collapse channels
(rate, L) acting as  rate * (L rho L^dag - {L^dag L, rho}/2); qubit decay uses
L = sigma_minus and mediator photon loss L = a, both unit-normalized, so an
isolated excited qubit decays as exp(-gamma t).

A link carries at most one excitation: the exchange Hamiltonian conserves it
and every loss channel removes it, so the vacuum (+) one-excitation subspace
is closed under the master equation. Both `evolve` and `link_channel` step
only the amplitudes of the one-excitation states, one per site, under
generators built site by site from the rates (`link_generators`), and put
the population they lose back on the vacuum. A constant drive steps them
exactly, by the exponential of its generator over one sample spacing; a
pulsed drive by fixed-step classical RK4 on the grid of dt, with the
couplings re-evaluated at the substage times. In the rotating frame the
generators are real in the site gauge diag((-i)^k), so the amplitudes step
as a real m x m system on their real and imaginary parts; a lab-frame link
steps the 2m x 2m real form of its complex generators. Every drive reaches
a batch's steps by one binary product tree of its step matrices, a numpy
call per level: a pulsed drive's RK4 steps, from one read of the drive on
the batch's half-step lattice, or a constant drive's S, S^2, S^4, ...,
shared by every batch.
`evolve` admits a run when its layout is (qubit, modes..., qubit) and its
initial state lies in that subspace, else ValueError; one check on rho0's
sector block admits its trace and positivity, and the states stay positive
as long as the vacuum refill is, which is checked at every step. `evolve`
steps only an orthonormal basis V, from an SVD, of the span of the block's
one-excitation part R0 and vacuum coherence u0: with G = V^dag R0 V and
a = V^dag u0 the run is R = X G X^dag and u = X a, where X = K V, and any
qubit on A with the rest in vacuum spans one column. A trajectory holds X,
G, a, its times and its fidelity; its other columns and its dense states
are read off diag(X G X^dag) and X a only when read.
The module needs only numpy.
`hamiltonian_terms` and `standard_collapse` build the same model as
full-space operators by kron embedding. No run uses them; the independent
references in tests/conftest.py, the dense RK4 integrator and the oracle
that exponentiates the column-stacked Liouvillian, are built on them.

`link_channel` runs a link once, from |1> on A; the LinkChannel it returns
gives the received state and the trajectory of any qubit input in closed
form. `link_channels` runs links that share a constant drive and a grid as
one stack, each by its own step matrices and checks, and
`link_trajectories` reads their trajectories off the stack at once.

Receiver frame: completing the resonant transfer (driven or adiabatic) lands
the excitation on B with a deterministic minus sign, since the passage goes
through the (|1_A 0 0> - |0 0 1_B>)-type dark combination. A receiver that
has calibrated its phase reference absorbs this known sign, so received-state
quantities are reported in the frame Z rho_B Z with Z = diag(1, -1); in that
frame the lossless link realizes the identity channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .protocols import ConstantSchedule, CouplingSchedule
from .qspace import (
    PureQubitSpec,
    Qubit,
    SystemLayout,
    checked_fidelity,
    dagger,
    embed,
    link_layout,
    local_operator,
)

__all__ = [
    "LinkParams",
    "CollapseChannel",
    "Trajectory",
    "TrajectoryColumns",
    "IntegrationError",
    "standard_collapse",
    "hamiltonian_terms",
    "link_generators",
    "LinkChannel",
    "link_channel",
    "link_channels",
    "link_trajectories",
    "default_dt",
    "evolve",
    "receiver_frame",
]

# Integration-failure thresholds: dense samples are checked against both, and
# a one-excitation run's vacuum refill against MIN_EIGENVALUE_MIN at every step.
TRACE_DRIFT_MAX = 1e-6
MIN_EIGENVALUE_MIN = -1e-5

# Known transfer sign on the receiving qubit, absorbed into its frame.
RECEIVER_FRAME = np.diag([1.0, -1.0]).astype(complex)


def receiver_frame(rho_b: np.ndarray) -> np.ndarray:
    """Received qubit state expressed in the phase-calibrated receiver frame."""
    return RECEIVER_FRAME @ rho_b @ RECEIVER_FRAME


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
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if (self.omega_q > 0) != (self.omega_w > 0):
            raise ValueError(
                "omega_q and omega_w must both be positive (lab frame) "
                "or both zero (rotating frame)"
            )

    def constant_schedule(self) -> ConstantSchedule:
        return ConstantSchedule(g0_a=self.g_a, g0_b=self.g_b)


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
    _check_link_layout(layout)
    modes = layout.mode_indices
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


def _check_link_layout(layout: SystemLayout) -> None:
    """Raise ValueError unless the layout is (qubit, mode(s)..., qubit)."""
    sites, modes = layout.sites, layout.mode_indices
    if not (isinstance(sites[0], Qubit) and isinstance(sites[-1], Qubit)):
        raise ValueError("link layout must start and end with a qubit")
    if len(modes) < 1 or modes != tuple(range(1, layout.n_sites - 1)):
        raise ValueError("link layout needs contiguous mediator modes between the qubits")


def _site_states(layout: SystemLayout) -> np.ndarray:
    """Basis index of the state with one excitation on site i and none elsewhere, by site."""
    return np.ravel_multi_index(tuple(np.eye(layout.n_sites, dtype=int)), layout.dims)


def link_generators(params: LinkParams, n_mediators: int = 1, g_hop: float = 0.0) -> np.ndarray:
    """A_0, A_A and A_B of the link's one-excitation amplitudes, c' = A(t) c.

    A(t) = A_0 + g_A(t) A_A + g_B(t) A_B is the drift -i H - sum_j rate_j L_j^dag L_j / 2
    of hamiltonian_terms and standard_collapse on the states with the
    excitation on one site, ordered by site (A, mediators..., B).
    """
    if n_mediators < 1:
        raise ValueError("a link needs at least one mediator mode")
    m = n_mediators + 2
    a = np.zeros((3, m, m), dtype=complex)
    omega = np.array([params.omega_q] + [params.omega_w] * n_mediators + [params.omega_q])
    decay = np.array([params.gamma_a] + [params.kappa] * n_mediators + [params.gamma_b])
    a[0].flat[:: m + 1] = -1j * omega - 0.5 * decay
    hop = np.arange(1, m - 2)
    a[0, hop, hop + 1] = a[0, hop + 1, hop] = -1j * g_hop
    a[1, 0, 1] = a[1, 1, 0] = -1j
    a[2, -1, -2] = a[2, -2, -1] = -1j
    return a


def default_dt(params: LinkParams, schedule: Optional[CouplingSchedule] = None,
               g_hop: float = 0.0) -> float:
    """Step of 200 per cycle of the fastest rate, capped at 1 ns; pulsed, 100, capped at 2 ns.

    The rates are params' couplings, losses and lab-frame omegas, the
    schedule's peak couplings and g_hop. A constant drive is exact, so this
    sets only its sample grid. A pulsed schedule's RK4 takes 100 steps per
    cycle of every rate but the omegas, whose phase error builds up over the
    run and which keep 200: within 1e-7 in fidelity of RK4 at dt/8 on the
    presets and the benchmark's links (tests/test_dynamics.py).
    """
    fastest = max(params.g_a, params.g_b, params.kappa, params.gamma_a, params.gamma_b,
                  abs(g_hop))
    if schedule is not None:
        fastest = max(fastest, schedule.g0_a, schedule.g0_b)
    pulsed = schedule is not None and not isinstance(schedule, ConstantSchedule)
    # 100 steps per cycle of a rate are 200 of half of it
    fastest = max(fastest / 2 if pulsed else fastest, params.omega_q, params.omega_w)
    cap = 2e-9 if pulsed else 1e-9
    return min(cap, 2.0 * math.pi / (200.0 * fastest)) if fastest > 0 else cap


class TrajectoryColumns(NamedTuple):
    """Populations (sample, site), trace and purity of a range of a trajectory's samples."""

    populations: np.ndarray
    trace: np.ndarray
    purity: np.ndarray


@dataclass
class Trajectory:
    """Sampled record of an integration run.

    times and fidelity (present when a target was set) are held whole. The
    other columns, populations (one per site: qubit excitation or mediator
    photon number expectation), trace and purity, come from columns_at(rows)
    for a slice of samples, and state_at(index) returns the dense sample(s)
    at an index or slice; both are computed only when read. So states builds
    every dense sample again on each read, and so do populations, trace and
    purity for every column of a long run: read a range of rows with
    columns_at, one sample with state_at(i) or final_state.
    """

    layout: SystemLayout
    times: np.ndarray
    state_at: Callable[[object], np.ndarray] = field(repr=False)
    columns_at: Callable[[slice], TrajectoryColumns] = field(repr=False)
    fidelity: Optional[np.ndarray] = None

    @property
    def populations(self) -> np.ndarray:
        return self.columns_at(slice(None)).populations

    @property
    def trace(self) -> np.ndarray:
        return self.columns_at(slice(None)).trace

    @property
    def purity(self) -> np.ndarray:
        return self.columns_at(slice(None)).purity

    @property
    def states(self) -> np.ndarray:
        """Every sample as a dense (n_samples, d, d) stack, built on each read."""
        return self.state_at(slice(None))

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
        return self.state_at(-1)

    @property
    def final_fidelity(self) -> float:
        if self.fidelity is None:
            raise ValueError("trajectory was run without a target")
        return float(self.fidelity[-1])

    def stabilization_time(self, tol: float = 0.01) -> float:
        """Earliest sampled time after which fidelity stays within tol of its end value.

        Its resolution is one sample spacing, sample_every * dt.
        """
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


@dataclass(frozen=True)
class _Grid:
    """A run's uniform step grid and its output cadence."""

    t0: float
    h: float
    n_steps: int
    sample_every: int

    def sample_steps(self) -> np.ndarray:
        """Steps stored as samples: every sample_every-th, the first and the last."""
        steps = np.arange(0, self.n_steps + 1, self.sample_every)
        return steps if steps[-1] == self.n_steps else np.append(steps, self.n_steps)

    def where(self, step: int) -> str:
        """Where a check failed, for IntegrationError messages."""
        return (f"at t = {self.t0 + step * self.h:.6e} s (step {step} of {self.n_steps}, "
                f"dt = {self.h:.6e} s, sample_every = {self.sample_every})")


def _checked_grid(t_span: tuple[float, float], dt: float, sample_every: int) -> _Grid:
    """Validate a run's grid; the number of steps is rounded so it lands exactly on t1."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if t1 <= t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise ValueError(f"step count (t1 - t0) / dt = {steps!r} is not finite")
    n_steps = max(1, int(round(steps)))
    # a cadence past the last step samples the same two ends as one of n_steps
    return _Grid(t0, (t1 - t0) / n_steps, n_steps, min(sample_every, n_steps))


def _checked_run(rho0: np.ndarray, layout: SystemLayout, t_span: tuple[float, float], dt: float,
                 sample_every: int) -> tuple[np.ndarray, _Grid]:
    """Validate a run's arguments; returns rho0 as a complex copy and the run's grid."""
    grid = _checked_grid(t_span, dt, sample_every)
    rho = np.array(rho0, dtype=complex)
    d = layout.total_dim
    if rho.shape != (d, d):
        raise ValueError(f"initial state shape {rho.shape} does not match layout dim {d}")
    return rho, grid


def evolve(
    rho0: np.ndarray,
    layout: SystemLayout,
    params: LinkParams,
    schedule: CouplingSchedule,
    t_span: tuple[float, float],
    dt: float,
    sample_every: int = 1,
    target: Optional[PureQubitSpec] = None,
    g_hop: float = 0.0,
) -> Trajectory:
    """Integration of the master equation: exact for a constant drive, else fixed-step RK4.

    The number of steps is rounded so a uniform grid lands exactly on t1.
    Samples include the initial and final states; a constant drive steps
    from sample to sample. A failed check raises
    IntegrationError naming the quantity, its value, the step and the grid.

    The layout must be (qubit, mode(s)..., qubit) and rho0 must lie in
    vacuum (+) one excitation, else ValueError names which fails. The checks
    of rho0 run in this order: non-finite entries, layout, support, then one
    check on its sector block for trace drift and negative eigenvalues. After
    that the states are positive whenever the vacuum refill is, which is
    checked at every step.
    """
    rho, grid = _checked_run(rho0, layout, t_span, dt, sample_every)
    if not np.isfinite(rho).all():  # before the support scan, which reads nan as nonzero
        raise IntegrationError(f"state diverged (non-finite entries) {grid.where(0)}", t=grid.t0)
    sector = np.append(0, _one_excitation_sector(layout, rho))
    block = rho[np.ix_(sector, sector)]
    block = 0.5 * (block + dagger(block))
    _check_initial_state(block, grid)
    return _sector_trajectory(block, params, schedule, grid, layout, target, g_hop)


def _check_initial_state(block: np.ndarray, grid: _Grid) -> None:
    """Raise IntegrationError at step 0 unless rho0's sector block is unit-trace and positive.

    The checks, in this order, are trace drift beyond TRACE_DRIFT_MAX and an
    eigenvalue below MIN_EIGENVALUE_MIN. rho0 vanishes outside the block, so
    its trace is the block's and its other eigenvalues are 0.
    """
    where, t = grid.where(0), grid.t0
    trace = float(block.trace().real)
    if abs(trace - 1.0) > TRACE_DRIFT_MAX:
        raise IntegrationError(f"trace drifted to {trace:.9f} {where}", t=t)
    lam_min = float(np.linalg.eigvalsh(block).min())
    if lam_min < MIN_EIGENVALUE_MIN:
        raise IntegrationError(f"eigenvalue {lam_min:.3e} below {MIN_EIGENVALUE_MIN:g} {where}",
                               t=t)


# --- the vacuum (+) one-excitation sector ------------------------------------
#
# In the basis of the sector, rho = [[rho_vv, u^dag], [u, R]], with R the
# m x m one-excitation block (m = number of sites, one state per site) and u
# the coherence with the vacuum. The exchange Hamiltonian maps the vacuum to 0
# and the one-excitation states into themselves, and every jump (qubit decay,
# photon loss) maps those onto the vacuum, so the master equation splits into
#     R' = A R + R A^dag,   u' = A u,   rho_vv' = -Tr R',
# with A = link_generators the drift -i H - sum_j rate_j L_j^dag L_j / 2 on
# the one-excitation states. So with K(t) the evolution of c' = A c and
# K~ = 1 (+) K,
#     rho(t) = K~ rho0 K~^dag + delta |vac><vac|,   delta = Tr R0 - Tr R(t).
# The first term is a congruence of rho0, so the state is positive whenever
# rho0 is and delta >= 0; its smallest eigenvalue is at least min(delta, 0).
# What is left to admit is the layout, which fixes the sites, and rho0: one
# check on its sector block. With V an orthonormal basis of the span of R0's
# columns and u0, from their SVD, R0 = V G V^dag and u0 = V a for
# G = V^dag R0 V and a = V^dag u0, so
#     R(t) = X G X^dag,   u(t) = X a,   X = K(t) V,
# and only the k <= m columns of V step: for a positive rho0, u0 lies in the
# range of R0 and k is R0's rank.


def _one_excitation_sector(layout: SystemLayout, rho0: np.ndarray) -> np.ndarray:
    """Basis indices of the one-excitation states by site, once the run is admitted.

    A run is admitted when the layout is (qubit, mode(s)..., qubit) and rho0
    vanishes outside vacuum (+) one excitation; else ValueError names which
    fails. Index 0 is the vacuum.
    """
    _check_link_layout(layout)
    one = _site_states(layout)
    outside = np.ones(layout.total_dim, dtype=bool)
    outside[0] = outside[one] = False
    if rho0[outside].any() or rho0[:, outside].any():
        raise ValueError("the initial state lies outside vacuum (+) one excitation")
    return one


def _sector_trajectory(block: np.ndarray, params: LinkParams, schedule: CouplingSchedule,
                       grid: _Grid, layout: SystemLayout, target: Optional[PureQubitSpec],
                       g_hop: float) -> Trajectory:
    """evolve on an admitted run: R0 and u0 compressed onto their span V, which steps.

    block is rho0's Hermitian part on the sector, vacuum first: R0 = block[1:, 1:]
    and u0 = block[1:, 0], as in dense samples. R0 = V G V^dag and u0 = V a hold
    for every rho0 that evolve admits, the small negative eigenvalues it
    tolerates included, so the run starts at rho0 and its trace is Tr rho0.
    """
    r, u = block[1:, 1:], block[1:, 0]
    v = _span(np.column_stack([r, u]))
    gram = dagger(v) @ r @ v
    generators = link_generators(params, len(r) - 2, g_hop)[None]
    times, x = _amplitude_run(v[None], gram, generators, schedule, grid)
    trace = block[0, 0].real + gram.trace().real
    return _FactoredRuns(x, gram, dagger(v) @ u, trace, layout).trajectories(times, target)[0]


def _span(c0: np.ndarray) -> np.ndarray:
    """An orthonormal basis of C0's column span, as the columns of V.

    C0's left singular vectors (numpy's SVD) with singular values above 1e-15
    of the largest, the rest being roundoff; a C0 of zeros gives one zero column.
    """
    u, s, _ = np.linalg.svd(c0, full_matrices=False)
    rank = int((s > 1e-15 * s[0]).sum())
    return u[:, :rank] if rank else np.zeros((len(c0), 1), dtype=complex)


# Samples up to which a stack's trajectory columns are computed whole, at
# most 4096 x (sites + 2) floats per run; a longer run's are computed a
# range of rows at a time, so that it holds only its amplitudes.
_WHOLE_SAMPLES = 4096


def _product(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """X G of a stack of X, (..., k) by (k, q): a sum of k broadcast products.

    numpy's batched matmul over the samples costs several times more on
    these small shapes: (1, 1024, 3, 1) @ (1, 1) takes 29 us against 4.9 us
    (one BLAS thread, a shared 2-vCPU x86-64 machine).
    """
    y = x[..., 0, None] * g[0]
    for j in range(1, len(g)):
        y += x[..., j, None] * g[j]
    return y


def _populations(x: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """diag(X G X^dag) of a stack of X, (..., m, k) to (..., m): Re sum_j (X G)_ij X_ij*.

    Every population the module reads comes from here: the refill checks'
    Tr R, the population, trace and purity columns, the fidelity and the
    dense states.
    """
    return np.einsum("...ij,...ij->...i", _product(x, gram).view(float), x.view(float))


class _FactoredRuns:
    """A stack of runs in factored form: R_j = X_j G X_j^dag and u_j = X_j a, X_j = K_j V.

    x is (run, sample, site, k); gram G (k, k), coherence a (k,), trace and
    layout are shared, trace being Tr rho. Populations are diag R, and the
    purity is rho_vv^2 + 2 |u|^2 + Tr R^2 with rho_vv = trace - Tr R and
    Tr R^2 = Tr N^2 for N = X^dag X G. A stack of at most _WHOLE_SAMPLES
    samples computes every run's columns at once, at the first read, and
    keeps them; a longer one computes a run's rows as they are read and
    keeps no column.
    """

    def __init__(self, x: np.ndarray, gram: np.ndarray, coherence: np.ndarray, trace: float,
                 layout: SystemLayout):
        self.x, self.gram, self.trace, self.layout = x, gram, trace, layout
        self.coherence = coherence[:, None]
        self._whole: Optional[TrajectoryColumns] = None

    def _u(self, x: np.ndarray) -> np.ndarray:
        """u = X a of a stack of X, (..., m, k) to (..., m)."""
        return _product(x, self.coherence)[..., 0]

    def _columns(self, x: np.ndarray) -> TrajectoryColumns:
        populations = _populations(x, self.gram)
        vacuum = self.trace - populations.sum(axis=-1)
        u, n = self._u(x), _product(np.einsum("...ij,...il->...jl", x.conj(), x), self.gram)
        purity = vacuum**2 + 2.0 * np.einsum("...i,...i->...", u.view(float), u.view(float))
        purity += np.einsum("...jl,...lj->...", n, n).real
        return TrajectoryColumns(populations, np.full(purity.shape, self.trace), purity)

    def columns_at(self, run: int, rows: slice) -> TrajectoryColumns:
        if self.x.shape[1] > _WHOLE_SAMPLES:
            return self._columns(self.x[run, rows])
        if self._whole is None:
            self._whole = self._columns(self.x)
        return TrajectoryColumns(*(column[run, rows] for column in self._whole))

    def state_at(self, run: int, index) -> np.ndarray:
        d, one = self.layout.total_dim, _site_states(self.layout)
        x = self.x[run, index]
        u = self._u(x)
        states = np.zeros(u.shape[:-1] + (d, d), dtype=complex)
        states[..., one[:, None], one] = _product(x, self.gram) @ x.conj().swapaxes(-1, -2)
        states[..., one, 0] = u
        states[..., 0, one] = u.conj()
        states[..., 0, 0] = self.trace - _populations(x, self.gram).sum(axis=-1)
        return states

    def fidelity(self, target: PureQubitSpec) -> np.ndarray:
        """Every run's fidelity at every sample, _WHOLE_SAMPLES rows at a time.

        It reads rho_B off R_BB and u_B under checked_fidelity's rule.
        """
        proj = receiver_frame(target.density_matrix())
        fidelity = np.empty(self.x.shape[:2])
        for start in range(0, self.x.shape[1], _WHOLE_SAMPLES):
            x_b = self.x[:, start:start + _WHOLE_SAMPLES, -1:]
            pop_b, u_b = _populations(x_b, self.gram)[..., 0], self._u(x_b)[..., 0]
            fidelity[:, start:start + _WHOLE_SAMPLES] = checked_fidelity(
                proj[0, 0].real * (self.trace - pop_b) + proj[1, 1].real * pop_b
                + 2.0 * (proj[0, 1] * u_b).real)
        return fidelity

    def trajectories(self, times: np.ndarray,
                     target: Optional[PureQubitSpec]) -> list[Trajectory]:
        """Each run's trajectory, its fidelity column computed for the stack at once."""
        fidelity = None if target is None else self.fidelity(target)
        return [Trajectory(layout=self.layout, times=times,
                           state_at=partial(self.state_at, run),
                           columns_at=partial(self.columns_at, run),
                           fidelity=None if fidelity is None else fidelity[run])
                for run in range(len(self.x))]


# --- the link's qubit channel ---------------------------------------------------


@dataclass(frozen=True)
class LinkChannel:
    """The qubit channel a link realizes, from one amplitude run.

    amplitudes[s] is c(t_s) = K(t_s) e_A, by site (A, mediators..., B): where
    |1> sent from A, every other site empty, has gone by sample s. With
    rho_a = [[1 - p, x], [x*, p]] on A the run's blocks are R = p |c><c| and
    u = x* c, so the link is amplitude damping plus a phase, fixed by the
    receiver-frame amplitude f = -c_B (Bose, PRL 91, 207901 (2003)).
    """

    times: np.ndarray
    amplitudes: np.ndarray

    @property
    def f(self) -> np.ndarray:
        """Receiver-frame amplitude on B at every sample."""
        return -self.amplitudes[:, -1]

    def received_state(self, rho_a: np.ndarray) -> np.ndarray:
        """Final receiver-frame state of B, [[1 - p |f|^2, x f*], [x* f, p |f|^2]]."""
        # f[-1], read without negating every sample: the Haar average calls this per input
        f, x, p = -complex(self.amplitudes[-1, -1]), rho_a[0, 1], rho_a[1, 1].real
        survived = p * (f.real**2 + f.imag**2)
        return np.array([[rho_a[0, 0].real + p - survived, x * f.conjugate()],
                         [x.conjugate() * f, survived]])

    def link_run(self) -> Callable[[PureQubitSpec], np.ndarray]:
        """Received-state map of the link: an input spec to the final state of B."""
        return lambda spec: self.received_state(spec.density_matrix())

    def link_trajectory(self, target: PureQubitSpec,
                        rho_a: Optional[np.ndarray] = None) -> Trajectory:
        """Trajectory with rho_a (default: target) on A, scored against target, in closed form."""
        return link_trajectories([self], target, rho_a)[0]


def link_trajectories(channels: Sequence[LinkChannel], target: PureQubitSpec,
                      rho_a: Optional[np.ndarray] = None) -> list[Trajectory]:
    """Each channel's link_trajectory: its amplitudes as X, with G = [[p]] and a = [x*].

    The channels must share their sample times and number of sites, as the
    channels of one link_channels run do; they are read as one stack.
    """
    rho_a = target.density_matrix() if rho_a is None else rho_a
    amplitudes = (channels[0].amplitudes[None] if len(channels) == 1
                  else np.stack([channel.amplitudes for channel in channels]))
    layout = link_layout(n_mediators=amplitudes.shape[-1] - 2)
    return _FactoredRuns(amplitudes[..., None], np.array([[rho_a[1, 1].real]]),
                         np.array([rho_a[1, 0]]), rho_a.trace().real,
                         layout).trajectories(channels[0].times, target)


def link_channel(params: LinkParams, schedule: CouplingSchedule, t_final: float,
                 dt: Optional[float] = None, *, sample_every: int = 1, n_mediators: int = 1,
                 g_hop: float = 0.0) -> LinkChannel:
    """Run the link once from |1> on A over (0, t_final): its channel at every sample.

    It steps e_A as evolve steps its amplitudes, with the same grid and
    per-step checks; delta = 1 - sum_i |c_i|^2 is the refill, and an input's
    is p delta. dt defaults to default_dt(params, schedule, g_hop).
    """
    if dt is None:
        dt = default_dt(params, schedule, g_hop)
    return link_channels([params], schedule, t_final, dt, sample_every=sample_every,
                         n_mediators=n_mediators, g_hop=g_hop)[0]


def link_channels(params: Sequence[LinkParams], schedule: CouplingSchedule, t_final: float,
                  dt: float, *, sample_every: int = 1, n_mediators: int = 1,
                  g_hop: float = 0.0) -> list[LinkChannel]:
    """link_channel of links that share a drive and a grid, from one run of their stack.

    Under a constant drive each link takes its own exact step matrices and
    its own per-step checks. A failed check raises the IntegrationError of
    the first link in the stack that fails in that batch of steps, as that
    link's own run raises it. Under a pulsed drive the links run one at a
    time, in stack order, as RK4 on pulsed links in lockstep costs more per
    link and step than separate runs; the first link that fails raises.
    """
    if not isinstance(schedule, ConstantSchedule) and len(params) > 1:
        return [link_channels([p], schedule, t_final, dt, sample_every=sample_every,
                              n_mediators=n_mediators, g_hop=g_hop)[0] for p in params]
    grid = _checked_grid((0.0, t_final), dt, sample_every)
    generators = np.array([link_generators(p, n_mediators, g_hop) for p in params])
    e_a = np.zeros((len(params), n_mediators + 2, 1), dtype=complex)
    e_a[:, 0] = 1.0
    times, c = _amplitude_run(e_a, np.ones((1, 1)), generators, schedule, grid)
    return [LinkChannel(times, amplitudes) for amplitudes in c[..., 0]]


def _amplitude_run(v0: np.ndarray, gram: np.ndarray, generators: np.ndarray,
                   schedule: CouplingSchedule, grid: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and X = K V0 at each, for a stack of runs under link_generators.

    v0 is (run, m, k), m sites, and generators (run, 3, m, m); gram (k, k) is
    the runs' G, so that Tr R = Tr(X G X^dag) is the population each refill
    check reads, and X comes as (run, sample, m, k). In the rotating frame
    the gauge U = diag((-i)^s) over the sites s makes A~ = U* A U real (the
    couplings -i g become -+g; the decay is real), so X~ = U* X steps as a
    real m x m system on its real and imaginary parts. It is laid out as
    (m, 2k) floats with each column's (Re, Im) interleaved: the samples view
    as X~ with no copy, and X = U X~ is restored in place. A lab-frame link,
    whose A~ keeps -i omega on its diagonal, steps the realified 2m x 2m form
    on (Re X; Im X); a stack steps that form if any of its runs needs it.
    """
    steps = grid.sample_steps()
    gauge = _real_gauge(generators)
    interleaved = gauge is not None
    if interleaved:
        real = (gauge.conj()[:, None] * generators * gauge).real
        x0 = np.ascontiguousarray(gauge.conj()[:, None] * v0).view(float)
    else:
        real, x0 = _realified(generators), np.concatenate([v0.real, v0.imag], axis=-2)
    # divergence surfaces as an IntegrationError from the per-step check, so
    # transient overflow warnings from an unstable step are noise
    with np.errstate(over="ignore", invalid="ignore"):
        samples = _step_amplitudes(x0, _excited_population(gram, interleaved), real,
                                   schedule, grid, steps)
    x = _complex_form(samples, interleaved)
    if interleaved:
        x *= gauge[:, None]
    return grid.t0 + steps * grid.h, x


def _complex_form(blocks: np.ndarray, interleaved: bool) -> np.ndarray:
    """The complex X of real forms (..., rows, columns): a view of (m, 2k) blocks with each
    column's (Re, Im) interleaved, else Re + i Im of (2m, k) blocks (Re X; Im X)."""
    if interleaved:
        return blocks.view(complex)
    m = blocks.shape[-2] // 2
    return blocks[..., :m, :] + 1j * blocks[..., m:, :]


def _excited_population(gram: np.ndarray,
                        interleaved: bool) -> Callable[[np.ndarray], np.ndarray]:
    """Tr R = Tr(X G X^dag) of each sample of blocks of real forms of X, as (run, sample).

    blocks are (run, sample, rows, columns), read by _complex_form. In the
    real gauge the interleaved blocks view as X~ = U* X; U is a diagonal
    unitary, so diag(X~ G X~^dag) = diag(X G X^dag) and the populations are
    X's. Tr R is their sum, as the trajectory's columns read it.
    """
    return lambda blocks: _populations(_complex_form(blocks, interleaved), gram).sum(axis=-1)


def _real_gauge(a: np.ndarray) -> Optional[np.ndarray]:
    """U = diag((-i)^k) over the sites if U* A U is real for every generator A, else None.

    It is real for a rotating-frame link: A couples neighbouring sites only,
    by -i g, and its diagonal is -decay/2.
    """
    gauge = np.array([1.0, -1j, -1.0, 1j])[np.arange(a.shape[-1]) % 4]
    return None if (gauge.conj()[:, None] * a * gauge).imag.any() else gauge


def _realified(a: np.ndarray) -> np.ndarray:
    """Real forms [[Re a, -Im a], [Im a, Re a]], acting on (Re c; Im c) as a on c.

    Only a lab-frame link steps these: a rotating-frame one is real in its
    gauge, half the size. numpy multiplies small real matrices several times
    faster than complex ones.
    """
    return np.concatenate([np.concatenate([a.real, -a.imag], axis=-1),
                           np.concatenate([a.imag, a.real], axis=-1)], axis=-2)


def _rk4_step_matrices(
    generators: np.ndarray, h: float, g_a: np.ndarray, g_b: np.ndarray
) -> np.ndarray:
    """RK4 step matrices of c' = A(t) c, with A(t) = A_0 + g_A(t) A_A + g_B(t) A_B.

    g_a and g_b hold the drive on the half-step lattice t_0, t_0 + h/2, ...,
    t_0 + n h of n steps, 2n + 1 times: A is built once at each, so that a
    step's A(t + h) is the next one's A(t) bit for bit. The step from t is
    S = I + (h/6)(K1 + 2 K2 + 2 K3 + K4), where K1 = A(t), K2 = A(t + h/2)(I +
    h K1/2), K3 = A(t + h/2)(I + h K2/2) and K4 = A(t + h)(I + h K3), so that
    S c is one classical RK4 step of c.
    """
    dim = generators.shape[-1]
    weights = np.stack([np.ones(len(g_a)), g_a, g_b], axis=-1)  # (time, term)
    lattice = (weights @ generators.reshape(3, dim * dim)).reshape(-1, dim, dim)
    a1, a2, a4 = lattice[:-1:2], lattice[1::2], lattice[2::2]
    eye = np.eye(dim)
    acc = a1.copy()
    k = a2 @ (eye + 0.5 * h * a1)
    acc += 2.0 * k
    k = a2 @ (eye + 0.5 * h * k)
    acc += 2.0 * k
    acc += a4 @ (eye + h * k)
    return eye + (h / 6.0) * acc


def _up_sweep(steps: np.ndarray) -> list[np.ndarray]:
    """A batch's product tree: level l holds the products of its whole blocks of 2^l steps.

    steps, (run, n, dim, dim), is level 0, and each block of level l is the
    product of two of level l - 1, the later on the left. A block that the
    batch ends inside is left out, as _down_sweep reads none: n steps make
    n.bit_length() levels, with no padding.
    """
    levels = [steps]
    while levels[-1].shape[1] > 1:
        below = levels[-1]
        pairs = below.shape[1] // 2 * 2
        levels.append(below[:, 1:pairs:2] @ below[:, 0:pairs:2])
    return levels


def _squarings(step: np.ndarray, n: int) -> list[np.ndarray]:
    """S^(2^l) of each run's step S (run, dim, dim) for 2^l <= n, as (run, 1, dim, dim): the
    tree of n equal steps, where one block stands for every block of its level."""
    levels = [step[:, None]]
    for _ in range(n.bit_length() - 1):
        levels.append(levels[-1] @ levels[-1])
    return levels


def _down_sweep(levels: list[np.ndarray], x: np.ndarray, n: int) -> np.ndarray:
    """X after each of n steps from x, for a stack of runs, from their product tree.

    x is (run, dim, columns) and the result (run, step, dim, columns). With
    2^l the lowest set bit of i, X after step i is the block of level l that
    ends at step i times X after step i - 2^l, whose lowest set bit is
    higher. So the levels, top to bottom, fill in every step, one batched
    matmul each: a numpy call per doubling of n, not one per step (a
    work-efficient scan; Blelloch, CMU-CS-90-190, 1990).
    """
    out = np.empty((len(x), n + 1) + x.shape[1:])
    out[:, 0] = x
    for level in reversed(range(n.bit_length())):
        span = 1 << level
        np.matmul(levels[level][:, ::2], out[:, : n + 1 - span : 2 * span],
                  out=out[:, span :: 2 * span])
    return out[:, 1:]


# Steps computed, checked and sampled at once, by one product tree. Memory
# stays flat whatever the run length.
_BATCH_STEPS = 1024


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a small real matrix, by a Taylor polynomial with scaling and squaring.

    a is halved s times until its 1-norm theta is at most 1/2; the polynomial
    stops at the degree q whose remainder bound theta^(q+1)/(q+1)! is below
    2^-53, and its value is squared s times (Moler & Van Loan, SIAM Review
    45, 3 (2003)). At a default step theta is about 0.06: q = 8, no squaring.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not norm < math.inf:  # the per-step check reports the non-finite result
        return np.full_like(a, math.nan)
    squarings = math.frexp(norm)[1] + 1 if norm > 0.5 else 0
    theta = math.ldexp(norm, -squarings)  # at most 1/2, so q <= 14
    q = next(q for q in range(15) if theta ** (q + 1) <= 2.0**-53 * math.factorial(q + 1))
    x, eye = np.ldexp(a, -squarings), np.eye(len(a))
    out = eye
    for k in range(q, 0, -1):  # Horner: I + x (I + x/2 (I + ... x/q))
        out = x @ out
        out *= 1.0 / k
        out += eye
    for _ in range(squarings):
        out = out @ out
    return out


def _step_amplitudes(
    x0: np.ndarray,
    excited: Callable[[np.ndarray], np.ndarray],
    generators: np.ndarray,
    schedule: CouplingSchedule,
    grid: _Grid,
    sample_steps: np.ndarray,
) -> np.ndarray:
    """X at sample_steps for a stack of runs, from real forms X0 of the stepped block.

    x0 is (run, dim, columns), excited gives each run's Tr R from blocks
    (run, n, dim, columns) of its X, and generators (run, 3, dim, dim) are
    real forms of each run's A_0, A_A and A_B acting on its X; the samples
    come as (run, sample, dim, columns). A constant drive, its couplings read
    once at the grid's start, takes one exact step S = exp(h_s A~) per sample
    spacing h_s, each run its own, and its own exponential for a shorter last
    one; a pulsed drive takes every RK4 step of the grid, for one run. Every
    drive steps _BATCH_STEPS at a time by one product tree (_down_sweep): a
    pulsed batch's from its RK4 step matrices (_up_sweep), on the drive read
    once on the batch's 2n + 1 half-step times, and a constant drive's from
    S, S^2, S^4, ... (_squarings), built once to the depth its batches need.
    On a weak-loss STIRAP run in the real
    gauge (4176 steps, one BLAS thread, a shared 2-vCPU x86-64 machine) a
    pulsed step costs 0.46-0.49 us, against 1.03-1.18 us in the realified
    6 x 6 form. Every step of every run is checked: an entry that is not
    finite, or a vacuum refill delta = Tr R0 - Tr R below MIN_EIGENVALUE_MIN,
    raises IntegrationError at the first step that shows it, naming the first
    run in the stack to fail in that batch.
    """
    excited0 = excited(x0[:, None])[:, 0]
    samples = np.empty((len(x0), len(sample_steps)) + x0.shape[1:])
    samples[:, 0] = x0
    j = 1

    def record(start: int, stride: int, blocks: np.ndarray) -> None:
        # blocks hold each run's X after grid steps start + stride, ...,
        # start + stride * n, as (run, n, dim, columns)
        nonlocal j
        delta = excited0[:, None] - excited(blocks)
        # per-step flags only for a batch that holds a non-finite entry
        diverged = np.zeros(delta.shape, dtype=bool)
        if not np.isfinite(blocks).all():
            diverged = ~np.isfinite(blocks).all(axis=(-2, -1))
        failed = diverged | (delta < MIN_EIGENVALUE_MIN)
        if failed.any():
            run = int(np.argmax(failed.any(axis=1)))
            i = int(np.argmax(failed[run]))
            what = ("state diverged (non-finite entries)" if diverged[run, i] else
                    f"vacuum refill Tr R0 - Tr R = {float(delta[run, i]):.3e} below "
                    f"{MIN_EIGENVALUE_MIN:g}, a lower bound on the smallest eigenvalue")
            step = start + stride * (i + 1)
            raise IntegrationError(f"{what} {grid.where(step)}", t=grid.t0 + step * grid.h)
        end = int(np.searchsorted(sample_steps, start + stride * blocks.shape[1], side="right"))
        samples[:, j:end] = blocks[:, (sample_steps[j:end] - start) // stride - 1]
        j = end

    h, x, stride = grid.h, x0, 1
    constant = isinstance(schedule, ConstantSchedule)
    if constant:  # one step per sample, and one tree for every batch
        g_a, g_b = schedule.couplings(grid.t0)
        a = generators[:, 0] + g_a * generators[:, 1] + g_b * generators[:, 2]
        stride = grid.sample_every
        levels = _squarings(np.stack([_expm(stride * h * a_run) for a_run in a]),
                            min(grid.n_steps // stride, _BATCH_STEPS))
    n_steps = grid.n_steps // stride
    for start in range(0, n_steps, _BATCH_STEPS):
        n = min(_BATCH_STEPS, n_steps - start)
        if not constant:
            lattice = grid.t0 + np.arange(2 * start, 2 * (start + n) + 1) * (0.5 * h)
            levels = _up_sweep(_rk4_step_matrices(generators[0], h,
                                                  *schedule.couplings(lattice))[None])
        blocks = _down_sweep(levels, x, n)
        record(start * stride, stride, blocks)
        x = blocks[:, -1]
    last = grid.n_steps - n_steps * stride
    if last:  # a constant drive's shorter last spacing
        steps = np.stack([_expm(last * h * a_run) for a_run in a])
        record(n_steps * stride, last, (steps @ x)[:, None])
    return samples
