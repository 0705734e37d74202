"""Tensor-product Hilbert-space algebra for qubit/bosonic-mode composites.

Sites are ordered once at layout construction and never reordered; all
operator embeddings, product states and partial traces use that ordering.
The canonical link layout is (qubit A, mediator mode(s), qubit B), so basis
labels read |n_A, n_W, n_B>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Qubit",
    "Mode",
    "Site",
    "SystemLayout",
    "link_layout",
    "PureQubitSpec",
    "InvalidStateError",
    "local_operator",
    "embed",
    "product_state",
    "partial_trace",
    "von_neumann_entropy",
    "spectrum_entropies",
    "purity",
    "check_density_matrix",
    "dagger",
]

# Density-matrix validity tolerances.
HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-8
EIGENVALUE_TOL = 1e-7
FIDELITY_SLACK = 1e-9  # an overlap may leave [0, 1] by at most this much

MAX_MODE_DIM = 8  # larger Fock truncations are out of scope


class InvalidStateError(RuntimeError):
    """A matrix violated density-matrix invariants beyond tolerance."""


def checked_fidelity(overlap):
    """Overlaps clipped to [0, 1]; InvalidStateError for nan or one over FIDELITY_SLACK outside."""
    overlap = np.asarray(overlap, dtype=float)
    outside = ~((overlap >= -FIDELITY_SLACK) & (overlap <= 1.0 + FIDELITY_SLACK))
    if outside.any():
        raise InvalidStateError(f"fidelity {float(overlap[outside].flat[0])!r} outside [0, 1] "
                                f"beyond the slack {FIDELITY_SLACK:g}")
    return np.clip(overlap, 0.0, 1.0)


@dataclass(frozen=True)
class Qubit:
    """Two-level site."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Mode:
    """Bosonic mediator mode truncated to `dim` Fock levels."""

    dim: int = 2

    def __post_init__(self) -> None:
        if not 2 <= self.dim <= MAX_MODE_DIM:
            raise ValueError(f"mode dim must be in [2, {MAX_MODE_DIM}], got {self.dim}")


Site = Union[Qubit, Mode]


@dataclass(frozen=True)
class SystemLayout:
    """Ordered collection of sites defining the composite space."""

    sites: tuple[Site, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", tuple(self.sites))
        if len(self.sites) < 2:
            raise ValueError("layout needs at least 2 sites")
        for s in self.sites:
            if not isinstance(s, (Qubit, Mode)):
                raise ValueError(f"unknown site kind: {s!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def mode_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sites) if isinstance(s, Mode))

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sites) if isinstance(s, Qubit))


def link_layout(n_mediators: int = 1, mode_dim: int = 2) -> SystemLayout:
    """Canonical (qubit A, mediator modes..., qubit B) layout."""
    if n_mediators < 1:
        raise ValueError("a link needs at least one mediator mode")
    return SystemLayout((Qubit(),) + tuple(Mode(mode_dim) for _ in range(n_mediators)) + (Qubit(),))


@dataclass(frozen=True)
class PureQubitSpec:
    """Pure qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must be in [0, 2*pi), got {self.phi}")

    def ket(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2.0), np.exp(1j * self.phi) * math.sin(self.theta / 2.0)],
            dtype=complex,
        )

    def density_matrix(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


_OPERATOR_KINDS = ("annihilate", "create", "sigma_plus", "sigma_minus", "number", "identity")


def local_operator(kind: str, dim: int) -> np.ndarray:
    """Standard single-site operator as a dense complex matrix.

    Basis ordering is (|0>, |1>, ...); the ladder operator has entries
    a[n-1, n] = sqrt(n), and sigma_plus|0> = |1>.
    """
    if dim < 2:
        raise ValueError(f"operator dim must be >= 2, got {dim}")
    if kind in ("sigma_plus", "sigma_minus") and dim != 2:
        raise ValueError(f"{kind} is only defined for dim = 2, got {dim}")
    if kind == "identity":
        return np.eye(dim, dtype=complex)
    if kind == "number":
        return np.diag(np.arange(dim, dtype=complex))
    if kind in ("annihilate", "sigma_minus"):
        a = np.zeros((dim, dim), dtype=complex)
        for n in range(1, dim):
            a[n - 1, n] = math.sqrt(n)
        return a
    if kind in ("create", "sigma_plus"):
        return dagger(local_operator("annihilate", dim))
    raise ValueError(f"unknown operator kind {kind!r}, expected one of {_OPERATOR_KINDS}")


def embed(op: np.ndarray, site_index: int, layout: SystemLayout) -> np.ndarray:
    """Kronecker-embed a single-site operator at `site_index` of the layout."""
    dims = layout.dims
    if not 0 <= site_index < layout.n_sites:
        raise ValueError(f"site_index {site_index} out of range for {layout.n_sites} sites")
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims[site_index], dims[site_index]):
        raise ValueError(
            f"operator shape {op.shape} does not match site dim {dims[site_index]}"
        )
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        out = np.kron(out, op if i == site_index else np.eye(d, dtype=complex))
    return out


def _site_state(spec, site: Site) -> np.ndarray:
    dim = site.dim
    if spec is None:  # ground / vacuum
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    if isinstance(spec, PureQubitSpec):
        if not isinstance(site, Qubit):
            raise ValueError("PureQubitSpec given for a non-qubit site")
        return spec.density_matrix()
    rho = np.asarray(spec, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match site dim {dim}")
    return rho


def product_state(specs: Sequence, layout: SystemLayout) -> np.ndarray:
    """Tensor product of per-site states.

    Each spec may be None (ground/vacuum), a PureQubitSpec (qubit sites), or
    an explicit density matrix of the site dimension.
    """
    if len(specs) != layout.n_sites:
        raise ValueError(f"got {len(specs)} specs for {layout.n_sites} sites")
    rho = np.eye(1, dtype=complex)
    for spec, site in zip(specs, layout.sites):
        rho = np.kron(rho, _site_state(spec, site))
    return rho


def partial_trace(rho: np.ndarray, keep: Union[int, Iterable[int]], layout: SystemLayout) -> np.ndarray:
    """Reduced density matrix over `keep` sites, in their original order."""
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= layout.n_sites:
        raise ValueError(f"keep indices {keep} out of range for {layout.n_sites} sites")
    dims = layout.dims
    d = layout.total_dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match layout dim {d}")

    n = layout.n_sites
    tensor = rho.reshape(dims + dims)
    # Trace out the complement, highest index first so positions stay valid.
    traced = [i for i in range(n) if i not in keep]
    remaining = n
    for i in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + remaining)
        remaining -= 1
    d_keep = math.prod(dims[i] for i in keep)
    return tensor.reshape(d_keep, d_keep)


def purity(rho: np.ndarray) -> float:
    """Tr[rho^2], assuming rho Hermitian."""
    return float(np.sum(np.abs(rho) ** 2).real)


def spectrum_entropies(lam: np.ndarray) -> np.ndarray:
    """Entropies in bits of one spectrum or a stack (..., k), eigenvalues clamped to [0, 1].

    Raises InvalidStateError for an eigenvalue below -EIGENVALUE_TOL; for a
    stack, the message names the most negative one.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.min() < -EIGENVALUE_TOL:
        raise InvalidStateError(
            f"eigenvalue {lam.min():.3e} below -{EIGENVALUE_TOL:g}; not a density matrix"
        )
    lam = np.clip(lam, 0.0, 1.0)
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return -(lam * logs).sum(axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits, clamping eigenvalues to [0, 1]."""
    return float(spectrum_entropies(np.linalg.eigvalsh(np.asarray(rho, dtype=complex))))


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidStateError unless rho is Hermitian, unit-trace and PSD.

    rho may be a stack (..., d, d), checked at once: every matrix must pass.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
    if herm > HERMITICITY_TOL:
        raise InvalidStateError(f"Hermiticity violation {herm:.3e} > {HERMITICITY_TOL:g}")
    traces = np.trace(rho, axis1=-2, axis2=-1).reshape(-1)
    off = np.flatnonzero(np.abs(traces - 1.0) > TRACE_TOL)
    if off.size:
        tr = complex(traces[off[0]])
        raise InvalidStateError(f"trace deviation |{tr:.12f} - 1| > {TRACE_TOL:g}")
    lam_min = float(np.linalg.eigvalsh(rho).min())
    if lam_min < -EIGENVALUE_TOL:
        raise InvalidStateError(f"minimum eigenvalue {lam_min:.3e} < -{EIGENVALUE_TOL:g}")
