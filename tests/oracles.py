"""Reference implementations that only the tests call.

Closed forms, object-path correlation measures and Gaussian-state helpers
that the tests compare the library against.  None of them runs in the
pipeline.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qbmlab.analytic import BranchModelParams, mode_d_values, trajectory_amplitudes
from qbmlab.correlations import (
    BandPartition,
    CorrelationCurve,
    FractionSampler,
    _blocks,
    _in_stacks,
    _permutation,
    _pure_negativity,
    _split,
    fraction_plan,
)
from qbmlab.errors import DimensionMismatch, DomainError, ImpureState, QbmError, SubsetError
from qbmlab.gaussian import (
    PURE_MODE_RTOL,
    PURITY_TOL,
    WILLIAMSON_RTOL,
    CovarianceMatrix,
    ModeSubset,
    _complex_williamson,
    _entropy_of_values,
    _factor,
    _gram_spectra,
    _omega_times,
    _rows,
    _scales,
    _skew_product,
    _spectrum_of,
    entropy_function,
    log_negativity,
    partial_trace,
    von_neumann_entropy,
)
from qbmlab.model import BathSpec, DiscretizedBath, Propagator, SqueezedInitialState, mode_masses


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
    return _gram_spectra(form, gram, _scales(stack))


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


def dense_initial_covariance(spec: BathSpec, bath: DiscretizedBath, init: SqueezedInitialState) -> CovarianceMatrix:
    """sigma(0) as a dense diagonal matrix (model.initial_covariance holds its variances alone)."""
    n = bath.n_oscillators
    diag = np.empty(2 * (n + 1))
    diag[0] = init.delta_x**2
    diag[1] = init.delta_p**2
    mw = bath.masses * bath.frequencies
    diag[2::2] = 0.5 / mw
    diag[3::2] = 0.5 * mw
    return CovarianceMatrix.symmetric(np.diag(diag))


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


def direct_bands(cov: CovarianceMatrix, h_s: float, bands: BandPartition) -> tuple[np.ndarray, np.ndarray]:
    """(per-band MI, per-band negativity) through the object API (the slow path), given H(S)."""
    mi, neg = np.array([direct_correlations(cov, h_s, block) for block in bands.band_members]).T
    return mi, neg


def sample_fraction(
    sampler: FractionSampler,
    f: float,
    units: int,
    sample_index: int = 0,
    t_index: int = 0,
) -> ModeSubset:
    """The engine's draw of round(f * units) unit indices as a ModeSubset: the first units of the sample's order (correlations._permutation).

    Deterministic for fixed (seed, t_index, sample_index); the draws of one
    sample at two sizes are nested.
    """
    size = int(round(f * units))
    if not 1 <= size <= units:
        raise DomainError(f"fraction {f} of {units} units selects {size} units")
    if size == units:
        return ModeSubset.of(range(units), units)
    return ModeSubset.of(sorted(int(i) for i in _permutation(sampler, units, sample_index, t_index)[:size]), units)


def mask_blocks(data: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Blocks of S and the bath modes of each row of an (n, N) stack of masks that select equally many modes, system first, modes ascending."""
    return _blocks(data, np.nonzero(masks)[1].reshape(len(masks), -1) + 1)


def mask_split(data: np.ndarray, h_s: float, drawn: np.ndarray) -> np.ndarray:
    """(MI, MI, negativity, negativity) of S with the drawn bath modes and with the rest, per row of an (n, N) stack of masks of equal count.

    The per-draw path: the smaller side's block is extracted from the mask
    (mask_blocks, modes ascending) and factored whole, not read off the
    kept Williamson modes of a sample's sweep as fraction_samples does, and
    H(near) is the spectrum of the near block itself.
    """
    drawn_near = 2 * np.count_nonzero(drawn[0]) <= drawn.shape[1]
    joints = mask_blocks(data, drawn if drawn_near else ~drawn)
    alone = joints[:, 2:, 2:]
    values = _split(h_s, joints, _entropy_of_values(_gram_spectra(*_factor(alone)[1:], _scales(alone))))
    return values if drawn_near else values[[1, 0, 3, 2]]


def _mask_values(data: np.ndarray, h_s: float, drawn: np.ndarray) -> np.ndarray:
    """mask_split of every row of an (n, N) stack of masks, in stacks of equal count (correlations._in_stacks)."""
    n_bath = drawn.shape[1]
    counts = np.count_nonzero(drawn, axis=1)
    return _in_stacks(counts, lambda idx: mask_split(data, h_s, drawn[idx]), lambda c: 2 * min(c, n_bath - c) + 2)


def mask_samples(data: np.ndarray, h_s: float, sampler: FractionSampler, sample_indices: range, t_index: int = 0) -> np.ndarray:
    """correlations.fraction_samples on the per-draw mask path, on the same nested subsets.

    Each drawn grid point's draw of each sample (the first k units of its
    order) becomes a bath mask, evaluated by mask_split: the block of its
    smaller side in ascending mode order, factored alone.  The result has
    fraction_samples' layout, (4, samples, columns).
    """
    n_bath = data.shape[0] // 2 - 1
    units, unit_of_mode = sampler.n_units(n_bath), sampler.unit_of_mode(n_bath)
    perms = np.array([_permutation(sampler, units, s_idx, t_index) for s_idx in sample_indices])
    columns = []
    for f, _ in fraction_plan(sampler.grid_for(n_bath), units):
        size = round(f * units)
        if size < units:
            picked = np.zeros((len(perms), units), dtype=bool)
            np.put_along_axis(picked, perms[:, :size], True, axis=1)
            columns.append(_mask_values(data, h_s, picked[:, unit_of_mode]))
    return np.stack(columns, axis=2)


def exact_fraction_means(data: np.ndarray, h_s: float, sampler: FractionSampler) -> tuple[np.ndarray, np.ndarray]:
    """(means, standard deviations) over uniform subsets at every grid point of the sampler, exactly; rows MI and negativity.

    At each grid point f < 1 every subset of round(f * units) sampling units
    (bath modes, or the bands of band_partition) is evaluated once, on the
    per-draw mask path (mask_split in stacks): the mean of a row is the
    estimand of the sampler's mean, with no sampling error, and its
    standard deviation over the subsets, divided by sqrt(samples), is the
    exact standard error of a mean of that many independent draws.  At
    f = 1 the one subset is the whole environment, which fraction_samples
    reads in closed form: 2 H(S) and _pure_negativity.  data is the
    covariance array of a globally pure state and h_s its H(S).  The cost
    grows as 2^units: 14 bath modes take about 1.5 s.
    """
    n_bath = data.shape[0] // 2 - 1
    units, unit_of_mode = sampler.n_units(n_bath), sampler.unit_of_mode(n_bath)
    means, sds = [], []
    for f in sampler.grid_for(n_bath):
        size = int(round(f * units))
        if size == units:
            means.append([2.0 * h_s, _pure_negativity(data)])
            sds.append([0.0, 0.0])
            continue
        subsets = np.array(list(itertools.combinations(range(units), size)))
        picked = np.zeros((len(subsets), units), dtype=bool)
        np.put_along_axis(picked, subsets, True, axis=1)
        values = _mask_values(data, h_s, picked[:, unit_of_mode])[[0, 2]]  # MI and negativity of the drawn side
        means.append(np.mean(values, axis=1))
        sds.append(np.std(values, axis=1))
    return np.array(means).T, np.array(sds).T


def draw_blocks(n_drawn: int, n_bath: int) -> int:
    """Row count 2M of S u near, the block whose Williamson decomposition and partial transpose _split takes for one draw (mask_split).

    The partner blocks of the purification (S and one ancilla per mixed
    mode; a partial transpose each) are left out.
    """
    return 2 * min(n_drawn, n_bath - n_drawn) + 2


def mode_pairs_loop(form: np.ndarray, vectors: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, defect, overlap) of the top p pairs of eigh(K^T K) of each K of a stack, pair by pair: the oracle of gaussian._mode_pairs.

    vectors are the eigenvectors of K^T K, ascending, and nu (n, p) the top
    p symplectic eigenvalues, descending.  Pair j takes a_j, the upper
    eigenvector of its pair, after Gram-Schmidt against the earlier pairs,
    and b_j = -K a_j / nu_j, so that K a_j = -nu_j b_j and K b_j = nu_j a_j;
    basis (n, 2p, 2M) holds a_1, b_1, a_2, b_2, ... as rows, the columns of
    O.  In a near-degenerate cluster eigh returns any orthonormal basis of
    the cluster's subspace, so a raw a_j need not be orthogonal to an
    earlier b_k; for a well-separated pair the projection removes only
    rounding.  When less than half of a_j is left, the other eigenvector of
    its pair is taken if more of it is.  overlap[:, j] is the largest
    |a_j . q| of the raw a_j over the earlier vectors q.  Once the basis is
    built, one pass checks every pair: defect[:, j] is the largest of
    |K b_j - nu_j a_j| / nu_j, ||b_j| - 1| and |b_j . q| over a_j and the
    earlier vectors q.  Every step works on one pair of each matrix, or on
    a pair with the earlier ones, so a matrix's first pairs do not depend
    on p or on the rest of the stack.
    """
    n, rows, p = vectors.shape[0], vectors.shape[-1], nu.shape[1]
    every, by_row = np.arange(n), np.swapaxes(vectors, 1, 2)
    basis, overlap = np.empty((n, 2 * p, rows)), np.zeros((n, p))
    for j in range(p):
        done = basis[:, : 2 * j]
        cand = by_row[:, [rows - 1 - 2 * j, rows - 2 - 2 * j]]
        if j:
            proj = cand @ np.swapaxes(done, 1, 2)
            overlap[:, j] = np.max(np.abs(proj[:, 0]), axis=1)
            cand = cand - proj @ done
            cand = cand - (cand @ np.swapaxes(done, 1, 2)) @ done  # twice is enough for classical Gram-Schmidt
        norms = np.sqrt(np.sum(cand * cand, axis=2))
        pick = ((norms[:, 0] < 0.5) & (norms[:, 1] > norms[:, 0])).astype(int)
        a = cand[every, pick] / norms[every, pick][:, None]
        basis[:, 2 * j], basis[:, 2 * j + 1] = a, -(form @ a[:, :, None])[:, :, 0] / nu[:, j, None]
    a, b = basis[:, 0::2], basis[:, 1::2]
    residual = np.linalg.norm(b @ np.swapaxes(form, 1, 2) - nu[:, :, None] * a, axis=2) / nu
    earlier = np.arange(2 * p)[:, None] <= 2 * np.arange(p)  # [q, j]: q is a_j or an earlier vector
    against = np.max(np.where(earlier, np.abs(basis @ np.swapaxes(b, 1, 2)), 0.0), axis=1, initial=0.0)
    return basis, np.maximum(np.maximum(residual, np.abs(np.linalg.norm(b, axis=2) - 1.0)), against), overlap


def loop_williamson(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(nu, n_mixed, defect, repairs) of _williamson's real form, paired by the oracle loop (mode_pairs_loop); defect is NaN past each matrix's own mixed pairs."""
    _, form, gram = _factor(stack)
    scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300)
    values, vectors = np.linalg.eigh(gram)
    moduli = np.sort(np.sqrt(values), axis=1)
    nu = 0.5 * (moduli[:, 0::2] + moduli[:, 1::2])
    n_mixed = np.count_nonzero(nu - 0.5 > PURE_MODE_RTOL * np.maximum(scales, 1.0)[:, None], axis=1)
    p = int(np.max(n_mixed, initial=0))
    _, defect, overlap = mode_pairs_loop(form, vectors, np.ascontiguousarray(nu[:, ::-1][:, :p]))
    first = np.arange(p) < n_mixed[:, None]
    repairs = int(np.count_nonzero(np.any(first & (overlap > WILLIAMSON_RTOL), axis=1)))
    return nu, n_mixed, np.where(first, defect, np.nan), repairs


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
    nu, ortho = _complex_williamson(sigma, form)
    return nu, (chol @ ortho) / np.sqrt(np.repeat(nu, 2, axis=-1))[..., None, :]


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


def d_total_at(t: float, params: BranchModelParams) -> float:
    """d(t) at one time, the modes summed on their own: the per-time form of analytic.d_total."""
    return float(np.sum(mode_d_values(float(t), params)))


def k_value_at(t: float, params: BranchModelParams) -> float:
    """k = d(t) dx^2 at one time: the per-time form of analytic.k_value."""
    return d_total_at(t, params) * params.delta_x**2


def entanglement_cell(f: float, k: float) -> float:
    """One cell of analytic.entanglement_value, in math on Python floats."""
    if f < 0.0 or f > 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {f}")
    if f == 0.0 or k <= 0.0:
        return 0.0
    beta = 1.0 + 3.0 * f
    x = 2.0 * (f / beta) / (k * beta)
    one_s = 1.0 + math.sqrt(1.0 + x)
    bracket = (2.0 * (1.0 - f) / beta + x / one_s) / one_s
    if bracket <= 0.0:  # f = 1 at k = inf
        return float("inf")
    return max(0.0, -0.5 * math.log(bracket))


def chi_cell(f: float, k: float) -> float:
    """One cell of analytic.chi_value, sqrt(1/4 + 2 f k)."""
    if f < 0.0 or f > 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {f}")
    return math.sqrt(0.25 + 2.0 * f * max(k, 0.0))


def mi_cell(f: float, k: float) -> float:
    """One cell of analytic.mi_value: h(chi(1)) + h(chi(f)) - h(chi(1 - f)), one h at a time."""
    h_one, h_f, h_rest = (entropy_function(chi_cell(x, k)) for x in (1.0, f, 1.0 - f))
    return h_one + h_f - h_rest


def redundancy_estimate_cell(deficit: float, k: float) -> float:
    """One value of analytic.redundancy_estimate_value, in math on Python floats; NaN where k <= 0."""
    if k <= 0.0:
        return float("nan")
    area = 2.0 * chi_cell(1.0, k)
    return ((area + math.sqrt(area**2 - 1.0)) ** (2.0 * deficit) + 3.0) / 4.0


def mi_slope_value(f: float, k: float) -> float:
    """Exact derivative of mi_cell in f (singular at f = 0 and f = 1)."""
    if not 0.0 < f < 1.0:
        raise DomainError(f"slope defined on (0, 1) only, got {f}")

    def h_prime(chi: float) -> float:
        return math.log((chi + 0.5) / (chi - 0.5))

    cf, cc = chi_cell(f, k), chi_cell(1.0 - f, k)
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
    """Non-redundant information: centered difference of mi_cell at f = 1/2."""
    return (mi_cell(0.5 + 0.5 * step, k) - mi_cell(0.5 - 0.5 * step, k)) / step


def deficit_match(delta_i: float, h_s: float, e_full: float, e_half: float) -> float:
    """Deficit delta_E at which both redundancies coincide.

    delta_E = delta_i H(S)/E(1) + E(1/2)/E(1); in the large-squeezing limit
    H(S)/E(1) -> 1 while E(1/2) stays bounded by ln(sqrt 5), so the two
    deficits become identical.
    """
    if e_full <= 0.0:
        raise DomainError(f"E(1) must be positive, got {e_full}")
    return delta_i * h_s / e_full + e_half / e_full

