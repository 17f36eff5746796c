"""Reference implementations that only the tests call.

Closed forms, object-path correlation measures and Gaussian-state helpers
that the tests compare the library against.  None of them runs in the
pipeline.
"""

from __future__ import annotations

import math

import numpy as np

from qbmlab.analytic import BranchModelParams, chi_value, mi_value, trajectory_amplitudes
from qbmlab.correlations import BandPartition, CorrelationCurve, FractionSampler, _draw
from qbmlab.errors import DimensionMismatch, DomainError, ImpureState, QbmError, SubsetError
from qbmlab.gaussian import (
    PURE_MODE_RTOL,
    PURITY_TOL,
    CovarianceMatrix,
    ModeSubset,
    _complex_williamson,
    _factor,
    _gram_spectra,
    _omega_times,
    _rows,
    _skew_product,
    _spectrum_of,
    log_negativity,
    partial_trace,
    von_neumann_entropy,
)
from qbmlab.model import BathSpec, DiscretizedBath, Propagator, mode_masses


class OverlapError(QbmError):
    """Two mode subsets that must be disjoint intersect."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the canonical commutator matrix Omega for ``n_modes`` modes.

    Block diagonal with 2x2 blocks [[0, 1], [-1, 0]]; satisfies
    Omega @ Omega = -identity and Omega.T = -Omega.
    """
    if n_modes < 1:
        raise DomainError(f"n_modes must be >= 1, got {n_modes}")
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    idx = np.arange(n_modes)
    omega[2 * idx, 2 * idx + 1] = 1.0
    omega[2 * idx + 1, 2 * idx] = -1.0
    return omega


def symplectic_eigenvalues(cov: CovarianceMatrix) -> np.ndarray:
    """Symplectic spectrum {nu_j} of a covariance matrix, ascending (PairingFailure on a corrupted one)."""
    return _spectrum_of(cov.data)


def stacked_spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra (n, M) of a stack of exactly symmetric matrices, each row _spectrum_of(stack[i], 0.0) bit for bit.

    The stack is factored once (_factor) and its spectra read off that
    factor (_gram_spectra); if any matrix is not positive definite the stack
    goes through _spectrum_of one matrix at a time.
    """
    try:
        _, form, gram = _factor(stack)
    except DomainError:
        return np.array([_spectrum_of(sigma, 0.0) for sigma in stack])
    return _gram_spectra(stack, form, gram)


def symplectic_propagator(prop: Propagator, t: float) -> np.ndarray:
    """Phase-space propagator S(t) in interleaved (x, p) ordering (model.evolve writes S(t) sqrt(sigma(0)) without forming it).

    Assembled from cos(w t), sin(w t)/w and -w sin(w t) in the normal-mode
    basis, with the w -> 0 limit sin(w t)/w -> t handled explicitly, then
    scaled back from mass-weighted coordinates.
    """
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    w = prop.eigenfrequencies
    basis = prop.eigenbasis
    cos_t = np.cos(w * t)
    sin_over = np.where(w > 0.0, np.sin(w * t) / np.where(w > 0.0, w, 1.0), t)
    w_sin = -w * np.sin(w * t)

    xx = (basis * cos_t) @ basis.T
    xp = (basis * sin_over) @ basis.T
    px = (basis * w_sin) @ basis.T

    root_m = prop.mass_scaling
    inv_m = 1.0 / root_m
    n = prop.n_modes
    s = np.zeros((2 * n, 2 * n))
    s[0::2, 0::2] = xx * inv_m[:, None] * root_m[None, :]
    s[0::2, 1::2] = xp * inv_m[:, None] * inv_m[None, :]
    s[1::2, 0::2] = px * root_m[:, None] * root_m[None, :]
    s[1::2, 1::2] = xx * root_m[:, None] * inv_m[None, :]
    return s


def two_pass_evolve(prop: Propagator, cov: CovarianceMatrix, t: float) -> np.ndarray:
    """sigma(t) of a product state in two passes: A = S(t) sqrt(sigma(0)), then A A^T symmetrized as 0.5 (P + P^T) (model.evolve forms A in one pass)."""
    if t == 0.0:
        return 0.5 * (cov.data + cov.data.T)
    root = symplectic_propagator(prop, t) * np.sqrt(cov.data.diagonal())
    product = root @ root.T
    return 0.5 * (product + product.T)


def omega_copy_purity(cov: CovarianceMatrix) -> float:
    """gaussian.check_purity with Omega X formed as a copy and the scale read again (check_purity works on X in place)."""
    square = _omega_times(_skew_product(cov.data))
    square[np.diag_indices_from(square)] += 0.25
    defect = float(np.max(np.abs(square, out=square)))
    scale = max(float(np.max(np.abs(cov.data))), 1.0)
    if not defect <= PURITY_TOL * scale:
        raise ImpureState(f"global purity defect {defect:.3e} exceeds {PURITY_TOL:.0e} x scale {scale:.3e}")
    return float(np.max(np.sum(square, axis=1)))


def dense_evolve(prop: Propagator, cov: CovarianceMatrix, t: float) -> np.ndarray:
    """S(t) sigma(0) S(t)^T as two dense products, for any sigma(0) (model.evolve forms A A^T of a product state)."""
    s = symplectic_propagator(prop, t)
    return s @ cov.data @ s.T


def dense_skew_product(matrix: np.ndarray) -> np.ndarray:
    """M^T (Omega M) of a matrix or of each of a stack as one full product (gaussian._skew_product takes half)."""
    return np.swapaxes(matrix, -1, -2) @ _omega_times(matrix)


def dense_purity_square(sigma: np.ndarray) -> np.ndarray:
    """(Omega sigma)(Omega sigma) as one full product (gaussian.check_purity takes Omega (sigma^T Omega sigma))."""
    omega_sigma = _omega_times(sigma)
    return omega_sigma @ omega_sigma


def hamiltonian_matrix(spec: BathSpec, bath: DiscretizedBath) -> np.ndarray:
    """Quadratic form M of the Hamiltonian in interleaved ordering.

    <H> = 1/2 trace(M sigma); the x block is the unweighted potential
    (with counterterm and couplings), the p block is diag(1/m_i).
    model.total_energy reads the same sum off M's sparse structure.
    """
    n = bath.n_oscillators
    masses = mode_masses(spec, bath)
    m = np.zeros((2 * (n + 1), 2 * (n + 1)))
    x = 2 * np.arange(n + 1)
    vx = np.zeros((n + 1, n + 1))
    vx[0, 0] = spec.system_mass * (spec.omega_s**2 + bath.counterterm / spec.system_mass)
    idx = np.arange(1, n + 1)
    vx[idx, idx] = bath.masses * bath.frequencies**2
    vx[0, idx] = bath.couplings
    vx[idx, 0] = bath.couplings
    m[np.ix_(x, x)] = vx
    m[x + 1, x + 1] = 1.0 / masses
    return m


def mutual_information(cov: CovarianceMatrix, part_a: ModeSubset, part_b: ModeSubset) -> float:
    """Mutual information I(A, B) = H(A) + H(B) - H(A, B) in nats.

    Modes outside A u B are traced out first.  All three entropies are
    computed from (partial traces of) the same covariance matrix.
    """
    set_a, set_b = set(part_a.indices), set(part_b.indices)
    if set_a & set_b:
        raise OverlapError(f"subsets overlap on modes {sorted(set_a & set_b)}")
    if len(part_a) == 0 or len(part_b) == 0:
        raise SubsetError("both subsets must be non-empty")
    union = sorted(set_a | set_b)
    if len(union) < cov.n_modes:
        cov = partial_trace(cov, ModeSubset.of(union, cov.n_modes))
        pos = {m: i for i, m in enumerate(union)}
        part_a = ModeSubset.of([pos[m] for m in part_a.indices], len(union))
        part_b = ModeSubset.of([pos[m] for m in part_b.indices], len(union))
    h_a = von_neumann_entropy(partial_trace(cov, part_a))
    h_b = von_neumann_entropy(partial_trace(cov, part_b))
    h_ab = von_neumann_entropy(cov)
    return h_a + h_b - h_ab


def direct_system_entropy(cov: CovarianceMatrix) -> float:
    """H(S) of the reduced state of mode 0."""
    return von_neumann_entropy(partial_trace(cov, ModeSubset.of([0], cov.n_modes)))


def direct_correlations(cov: CovarianceMatrix, h_s: float, modes: tuple[int, ...]) -> tuple[float, float]:
    """(I(S : E), negativity of S vs E) of the bath modes E, read off the reduced state of S u E.

    No purity is assumed: I(S : E) = H(S) + H(E) - H(S u E).
    """
    joint = partial_trace(cov, ModeSubset.of((0,) + modes, cov.n_modes))
    h_bath = von_neumann_entropy(partial_trace(joint, ModeSubset.of(range(1, joint.n_modes), joint.n_modes)))
    return h_s + h_bath - von_neumann_entropy(joint), log_negativity(joint, ModeSubset.of([0], joint.n_modes))


def direct_bands(cov: CovarianceMatrix, bands: BandPartition) -> tuple[float, np.ndarray, np.ndarray]:
    """(H(S), per-band MI, per-band negativity) through the object API (the slow path)."""
    h_s = direct_system_entropy(cov)
    mi, neg = np.array([direct_correlations(cov, h_s, block) for block in bands.band_members]).T
    return h_s, mi, neg


def sample_fraction(
    sampler: FractionSampler,
    f: float,
    units: int,
    sample_index: int = 0,
    t_index: int = 0,
) -> ModeSubset:
    """The engine's draw of round(f * units) unit indices as a ModeSubset.

    Deterministic for fixed (seed, t_index, subset size, sample_index).
    """
    size = int(round(f * units))
    if not 1 <= size <= units:
        raise DomainError(f"fraction {f} of {units} units selects {size} units")
    if size == units:
        return ModeSubset.of(range(units), units)
    return ModeSubset.of(sorted(int(i) for i in _draw(sampler, size, units, sample_index, t_index)), units)


def draw_blocks(n_drawn: int, n_bath: int, mirrored: bool) -> tuple[list[int], list[int]]:
    """Row counts 2M of the spectra and of the Williamson decompositions that _split takes for one draw.

    Every draw decomposes S u near; the partial transpose of S u near is
    taken when its negativity is wanted.  The partner blocks of the
    purification (S and one ancilla per mixed mode; a spectrum each, and a
    partial transpose when the far side's negativity is wanted) are left
    out.
    """
    near = min(n_drawn, n_bath - n_drawn)
    joint = 2 * near + 2
    drawn_near = 2 * n_drawn <= n_bath
    return ([joint] if drawn_near or mirrored else []), [joint]


def flip_system(blocks: np.ndarray) -> np.ndarray:
    """Partial transpose of S (rows and columns 1) of a system-first block or stack of blocks."""
    flipped = blocks.copy()
    flipped[..., 1, :] *= -1.0
    flipped[..., :, 1] *= -1.0
    return flipped


def williamson(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu, S) of the Williamson form of sigma, or of each of a stack, in complex arithmetic (gaussian._complex_williamson).

    DomainError when a matrix is not positive definite.
    """
    chol, form, _ = _factor(sigma)
    return _complex_williamson(sigma, chol, form)


def complex_purification(stack: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(nu, blocks): purification partners of mode 0 of each matrix of a stack, from the complex williamson.

    The same partners as gaussian.purification, one block per matrix (mode
    0, then one ancilla per mixed mode, ascending in nu).
    """
    nu, sym = williamson(stack)
    scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
    blocks = []
    for i in range(len(stack)):
        mixed = np.flatnonzero(nu[i] - 0.5 > PURE_MODE_RTOL * scales[i])
        nu_mixed = np.repeat(nu[i, mixed], 2)
        squeeze = np.sqrt(nu_mixed**2 - 0.25)
        squeeze[1::2] *= -1.0
        cross = sym[i][:2, _rows(mixed)] * squeeze
        block = np.zeros((2 + len(nu_mixed),) * 2)
        block[:2, :2] = stack[i, :2, :2]
        block[:2, 2:] = cross
        block[2:, :2] = cross.T
        block[2:, 2:][np.diag_indices(len(nu_mixed))] = nu_mixed
        blocks.append(block)
    return nu, blocks


def curve_value(curve: CorrelationCurve, f: float) -> float:
    """The curve's mean at the grid point f."""
    idx = int(np.argmin(np.abs(curve.f_values - f)))
    if abs(curve.f_values[idx] - f) > 1e-9:
        raise DomainError(f"fraction {f} not on the curve grid")
    return float(curve.mean[idx])


def bath_energy(spec: BathSpec, bath: DiscretizedBath, cov: CovarianceMatrix) -> float:
    """Expected energy stored in the bath oscillators alone (no coupling term)."""
    if cov.n_modes != bath.n_oscillators + 1:
        raise DimensionMismatch(
            f"state has {cov.n_modes} modes, expected {bath.n_oscillators + 1}"
        )
    xs = cov.data.diagonal()[2::2]
    ps = cov.data.diagonal()[3::2]
    pot = 0.5 * bath.masses * bath.frequencies**2 * xs
    kin = 0.5 * ps / bath.masses
    return float(np.sum(pot + kin))


def trajectory_amplitude(n: int, t: float, params: BranchModelParams) -> tuple[float, float]:
    """(a_n(t), adot_n(t)) for a single bath mode index."""
    a, adot = trajectory_amplitudes(t, params)
    return float(a[n]), float(adot[n])


def d_superohmic_closed(t: float, params: BranchModelParams) -> float:
    """High-cutoff super-Ohmic closed form of d(t).

    (m gamma0 / 2 pi) sin^2(Omega t) on the momentum-delocalized branch
    (r < 0), which vanishes at t = k pi / Omega (recoherence); on the
    position-delocalized branch (r >= 0) the switch-on kick leaves the
    floor (m gamma0 / 2 pi)(1 + cos^2(Omega t)) that never vanishes.  Valid
    for t well above 1/cutoff.
    """
    gamma0 = _gamma0_of(params)
    base = params.mass * gamma0 / (2.0 * math.pi)
    if params.r >= 0:
        return base * (1.0 + math.cos(params.omega_s * t) ** 2)
    return base * math.sin(params.omega_s * t) ** 2


def _gamma0_of(params: BranchModelParams) -> float:
    # recover gamma0 from the discretized couplings: for the n = 3 family
    # c_k^2/(2 m_k w_k) = J(w_k) dw and J(cutoff) = 2 m gamma0 cutoff / pi
    bath = params.bath
    j_top = bath.couplings[-1] ** 2 / (2.0 * bath.masses[-1] * bath.frequencies[-1])
    dw = bath.frequencies[-1] - bath.frequencies[-2] if bath.n_oscillators > 1 else bath.frequencies[-1]
    return float(j_top / dw * math.pi / (2.0 * params.mass * bath.frequencies[-1]))


def mi_slope_value(f: float, k: float) -> float:
    """Exact derivative of mi_value in f (singular at f = 0 and f = 1)."""
    if not 0.0 < f < 1.0:
        raise DomainError(f"slope defined on (0, 1) only, got {f}")

    def h_prime(chi: float) -> float:
        return math.log((chi + 0.5) / (chi - 0.5))

    cf, cc = chi_value(f, k), chi_value(1.0 - f, k)
    return k * (h_prime(cf) / cf + h_prime(cc) / cc)


def e_universal(f: float) -> float:
    """Large-squeezing limit (1/2) ln((1+3f)/(1-f)), independent of the bath.

    An upper bound for the entanglement whenever dissipation is present.
    """
    if f < 0.0 or f >= 1.0:
        raise DomainError(f"fraction must lie in [0, 1), got {f}")
    return 0.5 * math.log((1.0 + 3.0 * f) / (1.0 - f))


def e_asymptotic_value(f: float, k: float) -> float:
    """Large-k expansion (1/2) ln[(1+3f)^3 / ((1-f)(1+3f)^2 + 2f/k)]."""
    if f < 0.0 or f > 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {f}")
    if k <= 0.0:
        raise DomainError("asymptotic form needs k > 0")
    beta = 1.0 + 3.0 * f
    return 0.5 * math.log(beta**3 / ((1.0 - f) * beta**2 + 2.0 * f / k))


def i_nr_value(k: float, step: float = 1e-4) -> float:
    """Non-redundant information: centered difference of mi_value at f = 1/2."""
    return (mi_value(0.5 + 0.5 * step, k) - mi_value(0.5 - 0.5 * step, k)) / step


def deficit_match(delta_i: float, h_s: float, e_full: float, e_half: float) -> float:
    """Deficit delta_E at which both redundancies coincide.

    delta_E = delta_i H(S)/E(1) + E(1/2)/E(1); in the large-squeezing limit
    H(S)/E(1) -> 1 while E(1/2) stays bounded by ln(sqrt 5), so the two
    deficits become identical.
    """
    if e_full <= 0.0:
        raise DomainError(f"E(1) must be positive, got {e_full}")
    return delta_i * h_s / e_full + e_half / e_full
