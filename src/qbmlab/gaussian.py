"""Symplectic linear algebra over Gaussian states.

States are zero-mean Gaussian states of M bosonic modes, represented by the
real symmetric 2M x 2M matrix of symmetrized second moments in the
interleaved ordering (x1, p1, x2, p2, ..., xM, pM) with hbar = 1.  In these
units the single-mode vacuum is diag(1/2, 1/2) and every physical state has
all symplectic eigenvalues >= 1/2.

All entropies and the logarithmic negativity are reported in nats.

The pipeline runs the array kernels on stacks of equal-size blocks, each
counted by take_counts.  _factor takes a block's Cholesky factor L, K =
L^T Omega L (half a product, _skew_product) and K^T K once, and every
spectrum of the block is read off it: _gram_spectra, _transposed_spectra (the partial transpose on mode
0) and purification (the real Williamson form and the purification
partners of mode 0; _complex_williamson is its fallback).
_entropy_of_values and _negativity_of_values reduce one spectrum or a
stack.  _spectrum_of is the one entry point for a raw matrix that may be
unphysical (H(S), the object API); it takes the eig path when the matrix
is not positive definite.  CovarianceMatrix is the validated full state
that the model builds, and check_purity the pipeline's one check of it.
ModeSubset, partial_trace, partial_transpose, von_neumann_entropy,
log_negativity and validate_state (the oracle of check_purity's bound)
form the reference API on CovarianceMatrix objects, which the tests'
direct-path oracles and the benchmark's tracer read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ImpureState, PairingFailure, SubsetError

#: Heisenberg tolerance: eigenvalues in [1/2 - NU_TOL, 1/2] are treated as 1/2.
NU_TOL = 1e-9

#: Relative tolerance for collapsing the 2M moduli of Omega.sigma into M pairs.
PAIRING_RTOL = 1e-8

#: Gram-path guard: when gram[0] < GRAM_RTOL * gram[-1] (a spread
#: nu_max/nu_min above about 316) the squared spectrum has lost too many
#: digits of nu_min, and _gram_spectra takes svd(K) instead, purification
#: _complex_williamson.
GRAM_RTOL = 1e-5

#: Corruption guard: raw inputs with relative asymmetry beyond this are
#: rejected; anything smaller is float noise and is symmetrized away.
SYMMETRY_TOL = 1e-8

#: Global-purity guard: max|(Omega.sigma)^2 + I/4| beyond this, relative to
#: the matrix scale (as SYMMETRY_TOL), rejects a state as impure.  The defect
#: grows like (nu^2 - 1/4) times the scale, so a mode about 1e-8 above 1/2 is
#: caught; closed-dynamics states read below 1e-13.
PURITY_TOL = 1e-8

#: Williamson eigenvalues within this of 1/2, relative to the matrix scale,
#: are pure modes and get no purifying ancilla.  The partner block stands in
#: for H(near) (correlations._split), which holds only if every mode that
#: carries entropy has its ancilla: on desk blocks a cut at 1e-13 of the
#: scale misses up to 7.9e-11 of H(near), and 1e-15 misses at most 3.1e-12
#: (3.8e-12 at 300 oscillators).  The cut sits inside the rounding noise of
#: a pure mode, which comes from K itself, not from squaring: on random
#: pure states it reaches 23 eps x scale on the Gram path, on |K a| and on
#: the complex form alike, and on desk blocks the Gram and complex nu of
#: modes near 1/2 agree within 0.8 eps x scale.  So a partner may hold an
#: ancilla that exact arithmetic would not give.  Such an ancilla carries
#: the h(nu) that its mode adds to H(S u near), which moves the partner
#: entropy toward H(near); a cut above the noise (16 eps x nu_max x scale)
#: misses up to 9.5e-12 of H(near) on desk blocks.
PURE_MODE_RTOL = 1e-15

#: Run-time check of purification's real Williamson vectors (_mode_pairs):
#: each mixed mode's residual |K b - nu a| / nu and its vectors' departure
#: from orthonormality must not exceed this.  Within the Gram guard the
#: residual of an eigh vector is at most about 1e-16 x 1e5; desk blocks
#: read at most 4.7e-14.
WILLIAMSON_RTOL = 1e-10

#: Work done since the last take_counts(): spectra taken (a Williamson
#: decomposition counts as one), their summed cost (2M)^3, the largest block
#: in modes, svd fallbacks, Williamson decompositions, and of these the
#: ones that purification repaired by Gram-Schmidt or took through
#: _complex_williamson.
_COUNTS = dict.fromkeys(
    ("spectra", "block_cost", "block_modes_max", "svd_fallbacks", "williamson", "pairing_repairs", "williamson_fallbacks"),
    0,
)


def take_counts() -> dict[str, int]:
    """The spectrum counters since the last call, which resets them."""
    counts = dict(_COUNTS)
    _COUNTS.update(dict.fromkeys(_COUNTS, 0))
    return counts


def _count_spectra(n: int, rows: int) -> None:
    """Add n spectra of blocks with ``rows`` = 2M rows to the counters."""
    _COUNTS["spectra"] += n
    _COUNTS["block_cost"] += n * rows**3
    _COUNTS["block_modes_max"] = max(_COUNTS["block_modes_max"], rows // 2)


@dataclass(frozen=True)
class ModeSubset:
    """Sorted, duplicate-free set of mode indices within a state."""

    indices: tuple[int, ...]

    @classmethod
    def of(cls, indices: Iterable[int], n_modes: int) -> "ModeSubset":
        idx = tuple(sorted(int(i) for i in indices))
        if len(set(idx)) != len(idx):
            raise SubsetError(f"duplicate mode indices in {idx}")
        if idx and (idx[0] < 0 or idx[-1] >= n_modes):
            raise IndexError(f"mode indices {idx} out of range for {n_modes} modes")
        return cls(indices=idx)

    def __len__(self) -> int:
        return len(self.indices)


class CovarianceMatrix:
    """Second-moment matrix of an M-mode Gaussian state, with ``scale`` = max(max|sigma|, 1).

    The constructor keeps a copy of raw input, symmetrized unless exactly
    symmetric; non-finite entries (also after symmetrizing) and asymmetry
    beyond ``SYMMETRY_TOL`` of the scale are rejected as corrupted data, and
    ``symmetry_defect`` keeps the input's max|data - data^T|.
    By convention mode 0 is the system S and modes 1..N are bath oscillators.
    """

    __slots__ = ("n_modes", "data", "symmetry_defect", "scale")

    def __init__(self, data: np.ndarray):
        self._keep(np.array(data, dtype=float), 0.0)
        defect = float(np.max(np.abs(self.data - self.data.T)))
        if defect > SYMMETRY_TOL * self.scale:
            raise DomainError(f"input matrix asymmetry {defect:.3e} too large to symmetrize")
        if defect:
            with np.errstate(over="ignore"):
                self._keep(0.5 * (self.data + self.data.T), defect)

    @classmethod
    def symmetric(cls, data: np.ndarray) -> "CovarianceMatrix":
        """The state of a float matrix that is exactly symmetric by construction (model.evolve's A A^T, a diagonal sigma(0)), stored as given."""
        cov = cls.__new__(cls)
        cov._keep(data, 0.0)
        return cov

    def _keep(self, data: np.ndarray, defect: float) -> None:
        """Store data with its defect and scale; DomainError on a shape other than 2M x 2M or a non-finite entry."""
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise DomainError(f"covariance matrix must be 2M x 2M, got {data.shape}")
        top, bottom = float(np.max(data)), float(np.min(data))  # NaN or inf if any entry is
        if not (np.isfinite(top) and np.isfinite(bottom)):
            raise DomainError("covariance matrix has non-finite entries")
        self.n_modes, self.data, self.symmetry_defect, self.scale = data.shape[0] // 2, data, defect, max(top, -bottom, 1.0)


def _rows(modes: Sequence[int]) -> np.ndarray:
    """Row/column indices of the (x, p) pairs of the given mode positions."""
    modes = np.asarray(modes, dtype=int)
    return np.column_stack((2 * modes, 2 * modes + 1)).ravel()


@dataclass(frozen=True)
class ValidityReport:
    """Result of :func:`validate_state` (report-only, never raises)."""

    min_symplectic: float
    symmetry_defect: float
    passed: bool


def _sorted_pairs(moduli: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, bad): 2M moduli (the last axis) sorted into M (lower, upper) pairs, and which pairs disagree.

    The pairing test is relative (PAIRING_RTOL) with an absolute floor set by
    the matrix scale: tiny partial-transpose eigenvalues of a large matrix
    carry absolute eigensolver noise, so a purely relative test would reject
    genuine spectra.  For a stack of spectra, scale holds one value per
    spectrum.
    """
    moduli = np.sort(moduli, axis=-1)
    lo = moduli[..., 0::2]
    hi = moduli[..., 1::2]
    tol = PAIRING_RTOL * np.maximum(hi, 1e-300) + 1e-12 * np.asarray(scale)[..., None]
    return lo, hi, hi - lo > tol


def _pair_moduli(moduli: np.ndarray, scale) -> np.ndarray:
    """Collapse 2M moduli (the last axis) into M pairs, ascending; PairingFailure when a pair disagrees (_sorted_pairs)."""
    lo, hi, bad = _sorted_pairs(moduli, scale)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise PairingFailure(
            f"moduli {lo.flat[k]:.12e} and {hi.flat[k]:.12e} do not pair within tolerance"
        )
    return 0.5 * (lo + hi)


def _omega_times(matrix: np.ndarray) -> np.ndarray:
    """Omega @ matrix (of each matrix of a stack), by swapping each (x, p) row pair and negating the new p row."""
    out = np.empty_like(matrix)
    out[..., 0::2, :] = matrix[..., 1::2, :]
    out[..., 1::2, :] = -matrix[..., 0::2, :]
    return out


def _skew_product(matrix: np.ndarray) -> np.ndarray:
    """M^T Omega M (of each matrix of a stack), exactly antisymmetric: W - W^T with W = M[0::2]^T M[1::2].

    Omega pairs each x row with its p row, so this is half the flops of M^T (Omega M).
    """
    half = np.swapaxes(matrix[..., 0::2, :], -1, -2) @ matrix[..., 1::2, :]
    return half - np.swapaxes(half, -1, -2)


def _factor(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, K, K^T K) of a matrix or of each matrix of a stack: sigma = L L^T and the antisymmetric K = L^T Omega L.

    K comes from half a product (_skew_product).  Every step runs on the
    whole stack, each matrix bit for bit as alone.  Raises DomainError,
    counting nothing, when a matrix is not positive definite.
    """
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError as exc:
        raise DomainError("Williamson normal form needs a positive-definite matrix") from exc
    form = _skew_product(chol)
    return chol, form, np.swapaxes(form, -1, -2) @ form


def _gram_spectra(stack: np.ndarray, form: np.ndarray, gram: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """Symplectic spectra (n, M) of an (n, 2M, 2M) stack from its K and K^T K.

    The moduli are the square roots of eigvalsh(K^T K); past the Gram guard
    (gram[0] < GRAM_RTOL * gram[-1], or NaN) they come from svd(K) instead.
    For a partial transpose, gram is K~^T K~ and shift the c of each matrix
    (_flip), which turns K into K~ for the svd.  eigvalsh runs on the whole
    stack; LAPACK still sees one matrix at a time, so each spectrum is bit
    for bit the one-matrix result.
    """
    n, rows = stack.shape[0], stack.shape[-1]
    _count_spectra(n, rows)
    values = np.linalg.eigvalsh(gram)
    moduli = np.sqrt(values)
    for i in np.flatnonzero(~(values[:, 0] >= GRAM_RTOL * values[:, -1])):  # NaN falls back too
        _COUNTS["svd_fallbacks"] += 1
        form_i = form[i].copy()
        if shift is not None:
            form_i[0, 1] -= shift[i]
            form_i[1, 0] += shift[i]
        moduli[i] = np.linalg.svd(form_i, compute_uv=False)
    return _pair_moduli(moduli, np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300))


def _flip(chol: np.ndarray, form: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, K~^T K~) of the partial transpose on mode 0 of each matrix of a stack, from its L, K and K^T K.

    The partial transpose P sigma P (P negates row and column 1) factors as
    (P L)(P L)^T, so K~ = L^T (P Omega P) L, and P Omega P is Omega with its
    first 2 x 2 block negated.  L is lower-triangular with mode 0 first, so
    K~ is K with c = 2 L00 L11 taken from [0, 1] and added to [1, 0].  Its
    Gram is K^T K with c K[1] added to row and column 0, c K[0] taken from
    row and column 1, and c^2 added to [0, 0] and [1, 1]: no second
    Cholesky or matmul.
    """
    c = 2.0 * chol[:, 0, 0] * chol[:, 1, 1]
    up, down = c[:, None] * form[:, 1, :], c[:, None] * form[:, 0, :]
    out = gram.copy()
    out[:, 0, :] += up
    out[:, :, 0] += up
    out[:, 1, :] -= down
    out[:, :, 1] -= down
    out[:, 0, 0] += c * c
    out[:, 1, 1] += c * c
    return c, out


def _transposed_spectra(stack: np.ndarray, factor: tuple) -> np.ndarray:
    """Symplectic spectra (n, M) of the partial transpose on mode 0 of each matrix of a stack, read off its factor (L, K, K^T K) (_flip)."""
    chol, form, gram = factor
    shift, flipped = _flip(chol, form, gram)
    return _gram_spectra(stack, form, flipped, shift)


def _spectrum_of(sigma: np.ndarray, symmetry_defect: float | None = None) -> np.ndarray:
    """Symplectic eigenvalues of a raw symmetric matrix, ascending.

    Primary path: Cholesky sigma = L L^T; the singular values of the
    antisymmetric K = L^T Omega L equal the symplectic eigenvalues, each
    twice.  This stays accurate (absolute error ~ eps * ||sigma||) even for
    strongly squeezed states, where the nonsymmetric eigensolve of
    Omega.sigma loses several digits.

    The singular values are read as the square roots of eigvalsh(K^T K): one
    matmul and a values-only symmetric eigensolve, about half the cost of
    svd(K).  Squaring costs digits when the spectrum is widely spread, since
    the Gram eigenvalues carry absolute error ~ eps * nu_max^2.  Unguarded, a
    two-mode squeezed state at s = 3 (partial-transpose spread e^12) gives
    its negativity to only 6e-9 relative, and at s = 4 its moduli fail to
    pair.  So when gram[0] < GRAM_RTOL * gram[-1], or the Gram spectrum is
    NaN, the values come from svd(K) instead (_gram_spectra).

    Falls back to the complex eigensolve of Omega.sigma when sigma is not
    positive definite, so diagnostic calls on unphysical matrices still
    return a spectrum.  ``symmetry_defect`` (max|sigma - sigma^T|) is
    computed here unless the caller passes it.  Every call adds to the
    counters that take_counts() returns.
    """
    scale = max(float(np.max(np.abs(sigma))), 1e-300)
    if symmetry_defect is None:
        symmetry_defect = float(np.max(np.abs(sigma - sigma.T)))
    if symmetry_defect <= SYMMETRY_TOL * scale:
        try:
            _, form, gram = _factor(sigma[None])
        except DomainError:
            pass  # not positive definite; diagnose via the eig path
        else:
            return _gram_spectra(sigma[None], form, gram)[0]
    _count_spectra(1, sigma.shape[0])
    return _pair_moduli(np.abs(np.linalg.eigvals(_omega_times(sigma))), scale)


def entropy_function(nu: float) -> float:
    """Bosonic entropy of one symplectic eigenvalue, in nats.

    h(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), with h(1/2)=0.
    Values in [1/2 - NU_TOL, 1/2] are clamped to exactly 1/2 so that
    eigensolver noise on pure states cannot produce NaN.
    """
    nu = float(nu)
    if nu < 0.5 - NU_TOL:
        raise DomainError(f"symplectic eigenvalue {nu} below 1/2 - {NU_TOL}")
    if nu <= 0.5:
        return 0.0
    a = nu + 0.5
    b = nu - 0.5
    return float(a * np.log(a) - b * np.log(b))


def _entropy_of_values(values: np.ndarray):
    """Sum of h(nu) over the last axis: a float for one spectrum, an array for a stack of them."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0.5 - NU_TOL):
        worst = float(values.min())
        raise DomainError(f"symplectic eigenvalue {worst} below 1/2 - {NU_TOL}")
    a = values + 0.5
    b = np.clip(values - 0.5, 0.0, None)
    terms = a * np.log(a) - np.where(b > 0.0, b * np.log(np.where(b > 0.0, b, 1.0)), 0.0)
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def von_neumann_entropy(cov: CovarianceMatrix) -> float:
    """Total von Neumann entropy H = sum_j h(nu_j) in nats."""
    return _entropy_of_values(_spectrum_of(cov.data))


def partial_trace(cov: CovarianceMatrix, keep: ModeSubset) -> CovarianceMatrix:
    """Reduced state on the kept modes (principal submatrix)."""
    if len(keep) == 0:
        raise SubsetError("cannot keep an empty set of modes")
    if keep.indices[-1] >= cov.n_modes or keep.indices[0] < 0:
        raise IndexError(f"mode indices {keep.indices} out of range")
    rows = _rows(keep.indices)
    return CovarianceMatrix(cov.data[np.ix_(rows, rows)])


def partial_transpose(cov: CovarianceMatrix, party_a: ModeSubset) -> CovarianceMatrix:
    """Momentum-sign flip P.sigma.P on the modes of ``party_a`` (involutive)."""
    if len(party_a) == 0 or len(party_a) >= cov.n_modes:
        raise SubsetError("party_a must be a strict non-empty subset of the modes")
    if party_a.indices[-1] >= cov.n_modes or party_a.indices[0] < 0:
        raise IndexError(f"mode indices {party_a.indices} out of range")
    signs = np.ones(2 * cov.n_modes)
    for m in party_a.indices:
        signs[2 * m + 1] = -1.0
    flipped = cov.data * signs[:, None] * signs[None, :]
    return CovarianceMatrix(flipped)


def log_negativity(cov: CovarianceMatrix, party_a: ModeSubset) -> float:
    """Logarithmic negativity across the bipartition party_a | rest, in nats.

    max(0, -sum ln(2 nu~)) over partially transposed eigenvalues nu~ < 1/2.
    Eigenvalues inside the NU_TOL band below 1/2 are treated as 1/2, so
    separable product states return exactly 0.0.
    """
    return _negativity_of_values(_spectrum_of(partial_transpose(cov, party_a).data))


def _negativity_of_values(tilde: np.ndarray):
    """Logarithmic negativity from partially transposed symplectic spectra (the last axis): a float for one spectrum, an array for a stack of them.

    Only values below 1/2 - NU_TOL count, and the result is never -0.0.
    """
    tilde = np.asarray(tilde, dtype=float)
    logs = np.log(2.0 * np.where(tilde < 0.5 - NU_TOL, tilde, 0.5))  # ln 1 = 0 for the rest
    total = 0.0 - np.sum(logs, axis=-1)
    return float(total) if total.ndim == 0 else total


def _complex_williamson(sigma: np.ndarray, chol: np.ndarray, form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form sigma = S D S^T of a positive-definite matrix, or of each of a stack, from its factor.

    Returns (nu, S): the symplectic eigenvalues nu ascending, and S with
    S Omega S^T = Omega, where D = diag(nu_1, nu_1, ..., nu_M, nu_M); a
    stack keeps its leading axis.  chol and form are L and K = L^T Omega L
    (_factor); nothing is counted.  Raises PairingFailure when the
    eigenvalues do not come in +-nu pairs (_pair_moduli).  purification
    takes the same form in real arithmetic, and this one when its check
    fails.  The Hermitian matrix i K has eigenvalues +-nu_j.  An eigenvector u_j of
    +nu_j gives the columns sqrt(2) (Im u_j, Re u_j) of an orthogonal O that
    brings K to the blocks nu_j [[0, 1], [-1, 0]], and S = L O D^(-1/2).
    Every step runs on the whole stack, and each matrix comes out bit for
    bit as alone.  The eigenvalues are not squared, so nu needs no Gram
    guard.
    """
    n = sigma.shape[-1] // 2
    values, vectors = np.linalg.eigh(1j * form)
    _pair_moduli(np.abs(values), np.maximum(np.max(np.abs(sigma), axis=(-2, -1)), 1e-300))
    nu = values[..., n:]
    ortho = np.empty(sigma.shape)
    ortho[..., 0::2] = np.sqrt(2.0) * vectors[..., n:].imag
    ortho[..., 1::2] = np.sqrt(2.0) * vectors[..., n:].real
    return nu, (chol @ ortho) / np.sqrt(np.repeat(nu, 2, axis=-1))[..., None, :]


def _mode_pairs(form: np.ndarray, vectors: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, defect, overlap) of the top p pairs of eigh(K^T K) of each K of a stack, in real arithmetic.

    vectors are the eigenvectors of K^T K, ascending, and nu (n, p) the top
    p symplectic eigenvalues, descending.  Pair j takes a_j, the upper
    eigenvector of its pair, after Gram-Schmidt against the earlier pairs,
    and b_j = -K a_j / nu_j, so that K a_j = -nu_j b_j and K b_j = nu_j a_j;
    basis (n, 2p, 2M) holds a_1, b_1, a_2, b_2, ... as rows, the columns of
    O.  In a near-degenerate cluster eigh returns any orthonormal basis of
    the cluster's subspace, so a raw a_j need not be orthogonal to an
    earlier b_k; for a well-separated pair the projection removes only
    rounding.  When less than half of a_j is left, the other eigenvector of
    its pair is taken if more of it is.  defect[:, j] is the largest of
    |K b_j - nu_j a_j| / nu_j, ||b_j| - 1| and |b_j . q| over a_j and the
    earlier vectors q; overlap[:, j] is the largest |a_j . q| of the raw
    a_j.  Every step works on one pair of each matrix and sums along the
    last axis, so a matrix's first pairs do not depend on p or on the rest
    of the stack.
    """
    n, rows, p = vectors.shape[0], vectors.shape[-1], nu.shape[1]
    every, by_row = np.arange(n), np.swapaxes(vectors, 1, 2)
    basis, defect, overlap = np.empty((n, 2 * p, rows)), np.zeros((n, p)), np.zeros((n, p))
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
        b = -(form @ a[:, :, None])[:, :, 0] / nu[:, j, None]
        residual = np.linalg.norm((form @ b[:, :, None])[:, :, 0] - nu[:, j, None] * a, axis=1) / nu[:, j]
        basis[:, 2 * j], basis[:, 2 * j + 1] = a, b
        against = np.max(np.abs(basis[:, : 2 * j + 1] @ b[:, :, None]), axis=(1, 2))
        defect[:, j] = np.maximum(np.maximum(residual, np.abs(np.linalg.norm(b, axis=1) - 1.0)), against)
    return basis, defect, overlap


def purification(stack: np.ndarray, factor: tuple | None = None) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """(nu, partners) of an (n, 2M, 2M) stack: Williamson eigenvalues, and purification partners of mode 0.

    factor is the stack's (L, K, K^T K) (_factor) when the caller has it.
    nu (shape (n, M)) give the entropy of each matrix sigma of the stack
    (_entropy_of_values), so a caller needs no second decomposition of it.
    Each mixed Williamson mode of sigma (nu_j above 1/2 by more than
    PURE_MODE_RTOL of the scale) gets one ancilla, two-mode squeezed with it
    so that the pair is pure; the other modes of sigma are traced out.
    partners lists (indices into the stack, blocks) per number of mixed
    modes: each block holds mode 0 first, then the ancillas.  If sigma is
    the reduced state of a pure state on sigma u R, every purification
    differs from R only by a local symplectic on the partner side, so
    (mode 0, ancillas) and (mode 0, R) share entropies and logarithmic
    negativity (Holevo & Werner, PRA 63, 032312 (2001); Botero & Reznik,
    PRA 67, 052311 (2003)), and the block's entropy is that of sigma
    without mode 0.  With no mixed mode the block is mode 0 alone.

    The normal form is taken in real arithmetic: eigh(K^T K) gives nu^2 in
    pairs (_sorted_pairs) and the columns (a_j, b_j) of the orthogonal O
    with O^T K O = blocks nu_j [[0, 1], [-1, 0]] (_mode_pairs).  Then
    S = L O D^(-1/2), and the partner needs only rows 0 and 1 of S, from
    L[:2, :2] and O[:2].  Checked per matrix: every mixed mode's defect must
    be at most WILLIAMSON_RTOL.  A matrix whose raw eigenvectors overlapped
    an earlier pair by more than that was repaired by the Gram-Schmidt step
    (``pairing_repairs``).  A matrix that fails the check, or whose moduli
    trip the Gram guard or do not pair, goes through _complex_williamson
    with the same factor (``williamson_fallbacks``).  Each matrix's result
    does not depend on the rest of the stack.  Each decomposition counts
    as one spectrum and one ``williamson``.
    """
    n, rows = stack.shape[0], stack.shape[-1]
    chol, form, gram = _factor(stack) if factor is None else factor
    _count_spectra(n, rows)
    _COUNTS["williamson"] += n
    scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300)
    values, vectors = np.linalg.eigh(gram)
    lo, hi, unpaired = _sorted_pairs(np.sqrt(values), scales)
    nu = 0.5 * (lo + hi)
    n_mixed = np.count_nonzero(nu - 0.5 > PURE_MODE_RTOL * np.maximum(scales, 1.0)[:, None], axis=1)
    fallback = ~(values[:, 0] >= GRAM_RTOL * values[:, -1]) | np.any(unpaired, axis=1)
    p = int(np.max(n_mixed[~fallback], initial=0))
    top = np.ascontiguousarray(nu[:, ::-1][:, :p])
    basis, defect, overlap = _mode_pairs(form, vectors, top)
    first = np.arange(p) < n_mixed[:, None]  # each matrix's own mixed modes
    _COUNTS["pairing_repairs"] += int(np.count_nonzero(np.any(first & (overlap > WILLIAMSON_RTOL), axis=1) & ~fallback))
    fallback |= np.any(first & ~(defect <= WILLIAMSON_RTOL), axis=1)
    # rows 0 and 1 of S = L O D^(-1/2), elementwise (L[0, 1] = 0)
    root = np.sqrt(np.repeat(top, 2, axis=1))
    o_0, o_1 = basis[:, :, 0], basis[:, :, 1]
    s_rows = np.stack((chol[:, 0, 0, None] * o_0, chol[:, 1, 0, None] * o_0 + chol[:, 1, 1, None] * o_1), axis=1)
    s_rows /= root[:, None, :]
    mixed = [(s_rows[i, :, : 2 * m], top[i, :m]) for i, m in enumerate(n_mixed.tolist())]
    for i in np.flatnonzero(fallback).tolist():
        _COUNTS["williamson_fallbacks"] += 1
        nu[i], sym = _complex_williamson(stack[i], chol[i], form[i])
        keep = np.flatnonzero(nu[i] - 0.5 > PURE_MODE_RTOL * max(scales[i], 1.0))
        mixed[i] = (sym[:2, _rows(keep)], nu[i, keep])
    sizes = np.array([len(nu_i) for _, nu_i in mixed])
    partners = []
    for m in sorted(set(sizes.tolist())):
        idx = np.flatnonzero(sizes == m)
        nu_mixed = np.repeat(np.array([mixed[i][1] for i in idx]).reshape(len(idx), m), 2, axis=1)
        squeeze = np.sqrt(nu_mixed**2 - 0.25)
        squeeze[:, 1::2] *= -1.0  # the pair's momenta anti-correlate
        cross = np.array([mixed[i][0] for i in idx]).reshape(len(idx), 2, 2 * m) * squeeze[:, None, :]
        blocks = np.zeros((len(idx), 2 + 2 * m, 2 + 2 * m))
        blocks[:, :2, :2] = stack[idx, :2, :2]
        blocks[:, :2, 2:] = cross
        blocks[:, 2:, :2] = np.swapaxes(cross, 1, 2)
        blocks[:, 2:, 2:][:, np.arange(2 * m), np.arange(2 * m)] = nu_mixed
        partners.append((idx, blocks))
    return nu, partners


def check_purity(cov: CovarianceMatrix) -> float:
    """Bound b = max row sum of |(Omega.sigma)^2 + I/4| on every |nu_j^2 - 1/4|; raises ImpureState past PURITY_TOL.

    A state is pure exactly when every symplectic eigenvalue is 1/2, that is
    when (Omega.sigma)^2 = Omega X = -I/4, X = sigma^T Omega sigma (half a
    product, _skew_product).  Omega X + I/4 is X with its (x, p) row pairs
    swapped, the new p rows negated and 1/4 on the diagonal, so X takes
    +1/4 at (2k+1, 2k) and -1/4 at (2k, 2k+1) in place: the rows of |X| are
    those of |Omega X + I/4|, pair-swapped (|-x + 1/4| = |x - 1/4|).  The
    gate is the largest entry, relative to cov.scale as for SYMMETRY_TOL.
    """
    square = _skew_product(cov.data)
    x_rows = np.arange(0, square.shape[0], 2)
    square[x_rows + 1, x_rows] += 0.25
    square[x_rows, x_rows + 1] -= 0.25
    defect = float(np.max(np.abs(square, out=square)))
    if not defect <= PURITY_TOL * cov.scale:  # a NaN defect (overflow) fails too
        raise ImpureState(
            f"global purity defect {defect:.3e} exceeds {PURITY_TOL:.0e} x scale {cov.scale:.3e}"
        )
    return float(np.max(np.sum(square, axis=1)))


def validate_state(cov: CovarianceMatrix) -> ValidityReport:
    """Report minimum symplectic eigenvalue and the input's symmetry defect (never raises); the oracle of check_purity's bound."""
    try:
        min_nu = float(_spectrum_of(cov.data, 0.0)[0])
    except PairingFailure:
        min_nu = float("nan")
    passed = min_nu >= 0.5 - NU_TOL and cov.symmetry_defect <= NU_TOL
    return ValidityReport(min_symplectic=min_nu, symmetry_defect=cov.symmetry_defect, passed=passed)
