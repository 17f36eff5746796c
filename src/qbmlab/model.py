"""Discretized quantum Brownian motion model and its exact propagator.

A central oscillator (mass m, renormalized frequency Omega_S) couples
bilinearly through position to N bath oscillators whose coupling strengths
follow a power-law spectral density with a hard cutoff,

    J(w) = 2 m gamma0 w (w / cutoff)^(n-1) / pi        for w <= cutoff,

with n = 1 Ohmic, n < 1 sub-Ohmic and n > 1 super-Ohmic.  The total
Hamiltonian is quadratic, so the covariance matrix of any Gaussian state is
propagated exactly by the normal modes of the mass-weighted potential
matrix; no time stepping is involved and sigma(t) is available at arbitrary
t.  The bare system frequency carries the standard counterterm so that
Omega_S is the observed oscillation frequency and the potential is a
positive sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EigensolveFailure, NegativeEigenvalue
from .gaussian import CovarianceMatrix

#: Potential-matrix eigenvalues in [-EIG_CLAMP, 0] are clamped to zero.
EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class BathSpec:
    """Spectral-density family and the size of its discretization.

    exponent:  power n of the spectral density (1 Ohmic, 1/2 sub-Ohmic, 3
               super-Ohmic).
    cutoff:    hard frequency cutoff (angular frequency).
    coupling:  rate gamma0 setting the overall coupling strength.
    n_oscillators: number N of bath modes in the discrete model.
    omega_s:   renormalized system frequency Omega_S.
    """

    exponent: float
    cutoff: float
    coupling: float
    n_oscillators: int
    omega_s: float
    system_mass: float = 1.0
    bath_mass: float = 1.0

    def __post_init__(self):
        if self.cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")
        if self.coupling < 0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")
        if self.n_oscillators < 1:
            raise DomainError(f"need at least one oscillator, got {self.n_oscillators}")
        if self.omega_s <= 0:
            raise DomainError(f"omega_s must be positive, got {self.omega_s}")
        if self.exponent <= 0:
            raise DomainError(f"exponent must be positive, got {self.exponent}")
        if self.system_mass <= 0 or self.bath_mass <= 0:
            raise DomainError("masses must be positive")


@dataclass(frozen=True)
class DiscretizedBath:
    """Uniform-grid discretization of the spectral density.

    frequencies: strictly increasing bath frequencies w_k = k * cutoff / N.
    couplings:   bilinear coupling constants c_k (c_k^2 = 2 m_k w_k J(w_k) dw).
    masses:      oscillator masses m_k.
    counterterm: sum_k c_k^2 / (m_k w_k^2), added to the bare system
                 frequency so the renormalized frequency equals omega_s.
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    masses: np.ndarray
    counterterm: float

    @property
    def n_oscillators(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class SqueezedInitialState:
    """Pure squeezed system state with dx * dp = 1/2 (hbar = 1).

    The squeezing parameter is r = ln(m Omega_S dx / dp); r < 0 squeezes
    position (dx below the ground-state spread), r > 0 squeezes momentum.
    """

    r: float
    delta_x: float
    delta_p: float

    def __post_init__(self):
        if abs(self.delta_x * self.delta_p - 0.5) > 1e-12:
            raise DomainError("delta_x * delta_p must equal 1/2")

    @classmethod
    def from_r(cls, r: float, spec: BathSpec) -> "SqueezedInitialState":
        dx = math.sqrt(math.exp(r) / (2.0 * spec.system_mass * spec.omega_s))
        return cls(r=r, delta_x=dx, delta_p=0.5 / dx)


@dataclass(frozen=True)
class Propagator:
    """Normal-mode decomposition of the mass-weighted potential matrix.

    eigenfrequencies are the square roots of the (clamped) eigenvalues;
    eigenbasis is the orthogonal matrix of eigenvectors; mass_scaling holds
    sqrt(m_i) per mode (system first).
    """

    eigenfrequencies: np.ndarray
    eigenbasis: np.ndarray
    mass_scaling: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenfrequencies)


def spectral_density(spec: BathSpec, omega) -> np.ndarray | float:
    """J(omega) of the bath family; zero beyond the cutoff, vectorized."""
    omega = np.asarray(omega, dtype=float)
    inside = (omega >= 0.0) & (omega <= spec.cutoff)
    w = np.where(inside, omega, 0.0)
    vals = (
        2.0
        * spec.system_mass
        * spec.coupling
        * w
        * np.where(inside, (np.maximum(w, 1e-300) / spec.cutoff) ** (spec.exponent - 1.0), 0.0)
        / np.pi
    )
    vals = np.where(inside, vals, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def discretize_bath(spec: BathSpec) -> DiscretizedBath:
    """Place N oscillators on the uniform grid w_k = k * cutoff / N.

    Couplings are fixed by c_k^2 = 2 m_k w_k J(w_k) dw with dw = cutoff / N,
    so the discrete spectral sum converges to J as N grows.
    """
    n = spec.n_oscillators
    dw = spec.cutoff / n
    freqs = dw * np.arange(1, n + 1)
    masses = np.full(n, spec.bath_mass)
    c_sq = 2.0 * masses * freqs * spectral_density(spec, freqs) * dw
    couplings = np.sqrt(c_sq)
    counterterm = float(np.sum(c_sq / (masses * freqs**2)))
    return DiscretizedBath(
        frequencies=freqs, couplings=couplings, masses=masses, counterterm=counterterm
    )


def potential_matrix(spec: BathSpec, bath: DiscretizedBath) -> np.ndarray:
    """Mass-weighted potential matrix V of the total Hamiltonian.

    V[0, 0] carries the bare frequency squared Omega_S^2 + counterterm / m,
    V[k, k] = w_k^2 and V[0, k] = c_k / sqrt(m m_k).  With the counterterm
    convention the matrix is positive semidefinite by construction.
    """
    n = bath.n_oscillators
    v = np.zeros((n + 1, n + 1))
    v[0, 0] = spec.omega_s**2 + bath.counterterm / spec.system_mass
    idx = np.arange(1, n + 1)
    v[idx, idx] = bath.frequencies**2
    cross = bath.couplings / np.sqrt(spec.system_mass * bath.masses)
    v[0, idx] = cross
    v[idx, 0] = cross
    return v


def mode_masses(spec: BathSpec, bath: DiscretizedBath) -> np.ndarray:
    """Masses of all modes, system first."""
    return np.concatenate(([spec.system_mass], bath.masses))


def build_propagator(v: np.ndarray, masses: np.ndarray | None = None) -> Propagator:
    """Orthogonally diagonalize V and store the normal-mode data.

    Eigenvalues in [-EIG_CLAMP * scale, 0] are clamped to zero (free-particle
    limit); anything lower raises NegativeEigenvalue, which signals a
    coupling regime where the counterterm convention is violated.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.shape != (n, n):
        raise DimensionMismatch(f"potential matrix must be square, got {v.shape}")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=float)
    if len(masses) != n:
        raise DimensionMismatch("one mass per mode is required")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (v + v.T))
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    scale = max(float(np.max(np.abs(evals))), 1.0)
    if evals[0] < -EIG_CLAMP * scale:
        raise NegativeEigenvalue(
            f"potential matrix eigenvalue {evals[0]:.3e} below clamp threshold"
        )
    evals = np.clip(evals, 0.0, None)
    residual = np.max(np.abs((evecs * evals) @ evecs.T - v))
    if residual > 1e-9 * max(float(np.max(np.abs(v))), 1.0):
        raise EigensolveFailure(f"reconstruction residual {residual:.3e} too large")
    return Propagator(
        eigenfrequencies=np.sqrt(evals), eigenbasis=evecs, mass_scaling=np.sqrt(masses)
    )


def make_propagator(spec: BathSpec, bath: DiscretizedBath) -> Propagator:
    """Convenience wrapper: propagator of the full system + bath network."""
    return build_propagator(potential_matrix(spec, bath), mode_masses(spec, bath))


def evolve(prop: Propagator, cov: CovarianceMatrix, t: float) -> CovarianceMatrix:
    """Exact covariance sigma(t) = S(t) sigma(0) S(t)^T = A A^T of a product state, with A = S(t) sqrt(sigma(0)).

    The four (x, p) blocks of S(t) come from cos(w t), sin(w t)/w (t at
    w = 0) and -w sin(w t) in the normal-mode basis; each takes its mass
    scalings and then sqrt(sigma(0)) on its way into its strided block of A,
    so S(t) is never formed.  sigma(0) must be diagonal and nonnegative, as
    initial_covariance builds it (else DomainError).  A A^T is one
    symmetric product, exactly symmetric (CovarianceMatrix.symmetric).
    """
    if cov.n_modes != prop.n_modes:
        raise DimensionMismatch(f"state has {cov.n_modes} modes but propagator has {prop.n_modes}")
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    variances = cov.data.diagonal()
    if np.count_nonzero(cov.data) != np.count_nonzero(variances) or np.any(variances < 0.0):
        raise DomainError("evolve needs a product state: sigma(0) must be diagonal and nonnegative")
    if t == 0.0:
        return cov
    w, basis, root_m = prop.eigenfrequencies, prop.eigenbasis, prop.mass_scaling
    sin_over = np.where(w > 0.0, np.sin(w * t) / np.where(w > 0.0, w, 1.0), t)
    xx = (basis * np.cos(w * t)) @ basis.T
    xp = (basis * sin_over) @ basis.T
    px = (basis * (-w * np.sin(w * t))) @ basis.T
    inv_m, root_var = 1.0 / root_m, np.sqrt(variances)
    root = np.empty((2 * prop.n_modes, 2 * prop.n_modes))
    # block of A at rows i::2, columns j::2: its row and column mass scalings, then sqrt(sigma(0)) of its columns
    for (i, j), block, left, right in (
        ((0, 0), xx.copy(), inv_m, root_m),
        ((0, 1), xp, inv_m, inv_m),
        ((1, 0), px, root_m, root_m),
        ((1, 1), xx, root_m, inv_m),
    ):
        block *= left[:, None]
        block *= right
        np.multiply(block, root_var[j::2], out=root[i::2, j::2])
    return CovarianceMatrix.symmetric(root @ root.T)


def initial_covariance(
    spec: BathSpec, bath: DiscretizedBath, init: SqueezedInitialState
) -> CovarianceMatrix:
    """Product state: squeezed system times bath oscillator ground states, diagonal (CovarianceMatrix.symmetric)."""
    n = bath.n_oscillators
    diag = np.empty(2 * (n + 1))
    diag[0] = init.delta_x**2
    diag[1] = init.delta_p**2
    mw = bath.masses * bath.frequencies
    diag[2::2] = 0.5 / mw
    diag[3::2] = 0.5 * mw
    return CovarianceMatrix.symmetric(np.diag(diag))


def total_energy(spec: BathSpec, bath: DiscretizedBath, cov: CovarianceMatrix) -> float:
    """Expected energy <H> = 1/2 trace(M sigma) of the full network, in O(N).

    The Hamiltonian's form M is diagonal (the unweighted potential with the
    counterterm in x, 1/m_i in p) but for the couplings M[x_0, x_k] = M[x_k, x_0] = c_k.
    """
    if cov.n_modes != bath.n_oscillators + 1:
        raise DimensionMismatch(f"state has {cov.n_modes} modes, expected {bath.n_oscillators + 1}")
    stiffness = np.concatenate(
        ([spec.system_mass * (spec.omega_s**2 + bath.counterterm / spec.system_mass)], bath.masses * bath.frequencies**2)
    )
    variances = cov.data.diagonal()
    potential = stiffness @ variances[0::2] + 2.0 * (bath.couplings @ cov.data[0, 2::2])
    return 0.5 * float(potential + variances[1::2] @ (1.0 / mode_masses(spec, bath)))


def recurrence_time(spec: BathSpec) -> float:
    """Poincare recurrence scale 2 pi N / cutoff of the discrete bath."""
    return 2.0 * math.pi * spec.n_oscillators / spec.cutoff
