"""Symplectic linear algebra over Gaussian states.

States are zero-mean Gaussian states of M bosonic modes, represented by the
real symmetric 2M x 2M matrix of symmetrized second moments in the
interleaved ordering (x1, p1, x2, p2, ..., xM, pM) with hbar = 1.  In these
units the single-mode vacuum is diag(1/2, 1/2) and every physical state has
all symplectic eigenvalues >= 1/2.

All entropies and the logarithmic negativity are reported in nats.

The pipeline runs the array kernels: _spectra (the symplectic spectra of a
stack of equal-size blocks) and _spectrum_of (one block, also unphysical
ones), both counted by take_counts; _entropy_of_values,
_negativity_of_values, williamson, purification, check_purity and
validate_state.  CovarianceMatrix is the validated full state that the
model builds.  ModeSubset, partial_trace, partial_transpose,
von_neumann_entropy and log_negativity form the reference API on
CovarianceMatrix objects: the tests' direct-path oracles and the
benchmark's tracer read it, and it reaches the same kernel.
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

#: Gram-path guard of _spectrum_of: when gram[0] < GRAM_RTOL * gram[-1] (a
#: spread nu_max/nu_min above about 316) the squared spectrum has lost too
#: many digits of nu_min, and svd(K) is taken instead.
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
#: are pure modes and get no purifying ancilla.  Eigensolver noise (about
#: 1e-16 of the scale) on a pure mode would otherwise turn into a spurious
#: two-mode squeezing sqrt(nu^2 - 1/4) of order 1e-8.
PURE_MODE_RTOL = 1e-13

#: Work done since the last take_counts(): spectra taken (a Williamson
#: decomposition counts as one), their summed cost (2M)^3, the largest block
#: in modes, svd fallbacks, and Williamson decompositions.
_COUNTS = dict.fromkeys(("spectra", "block_cost", "block_modes_max", "svd_fallbacks", "williamson"), 0)


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
    """Second-moment matrix of an M-mode Gaussian state.

    The constructor symmetrizes its input; non-finite entries, and asymmetry
    beyond ``SYMMETRY_TOL`` (relative to the matrix scale), are rejected as
    corrupted data.  By convention mode 0 is the system S and modes 1..N
    are bath oscillators.
    """

    __slots__ = ("n_modes", "data")

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] % 2:
            raise DomainError(f"covariance matrix must be 2M x 2M, got {data.shape}")
        n_modes = data.shape[0] // 2
        magnitude = float(np.max(np.abs(data)))  # NaN or inf if any entry is
        if not np.isfinite(magnitude):
            raise DomainError("covariance matrix has non-finite entries")
        scale = max(magnitude, 1.0)
        defect = float(np.max(np.abs(data - data.T)))
        if defect > SYMMETRY_TOL * scale:
            raise DomainError(f"input matrix asymmetry {defect:.3e} too large to symmetrize")
        self.n_modes = n_modes
        self.data = 0.5 * (data + data.T)


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


def _pair_moduli(moduli: np.ndarray, scale) -> np.ndarray:
    """Collapse 2M moduli (the last axis) into M pairs, ascending, verifying agreement.

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
    bad = hi - lo > tol
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


def _cholesky_form(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of sigma = L L^T and the antisymmetric K = L^T Omega L.

    Omega L is a row swap with a sign flip, so K costs one matmul.  Works on
    one matrix or a stack.  Raises numpy.linalg.LinAlgError when a matrix is
    not positive definite.
    """
    chol = np.linalg.cholesky(sigma)
    return chol, np.swapaxes(chol, -1, -2) @ _omega_times(chol)


def _cholesky_spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra of an (n, 2M, 2M) stack of positive-definite matrices, shape (n, M).

    Raises numpy.linalg.LinAlgError, counting nothing, when a matrix of the
    stack is not positive definite.  Every step (cholesky, the row swap,
    matmul, eigvalsh) runs on the whole stack; LAPACK and BLAS still see one
    matrix at a time, so each spectrum is bit for bit the one-matrix result.
    """
    _, form = _cholesky_form(stack)
    n, rows = stack.shape[0], stack.shape[-1]
    _count_spectra(n, rows)
    gram = np.linalg.eigvalsh(np.swapaxes(form, -1, -2) @ form)
    moduli = np.sqrt(gram)
    for i in np.flatnonzero(~(gram[:, 0] >= GRAM_RTOL * gram[:, -1])):  # NaN falls back too
        _COUNTS["svd_fallbacks"] += 1
        moduli[i] = np.linalg.svd(form[i], compute_uv=False)
    return _pair_moduli(moduli, np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1e-300))


def _spectra(stack: np.ndarray) -> np.ndarray:
    """Symplectic spectra of an (n, 2M, 2M) stack of exactly symmetric matrices, shape (n, M), rows ascending.

    Each row equals _spectrum_of(stack[i], 0.0) bit for bit.  If any matrix
    is not positive definite the stack goes through _spectrum_of one matrix
    at a time.  Callers bound the stack's size (correlations.STACK_BYTES).
    """
    try:
        return _cholesky_spectra(stack)
    except np.linalg.LinAlgError:
        return np.array([_spectrum_of(sigma, 0.0) for sigma in stack])


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
    NaN, the values come from svd(K) instead (_cholesky_spectra).

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
            return _cholesky_spectra(sigma[None])[0]
        except np.linalg.LinAlgError:
            pass  # not positive definite; diagnose via the eig path
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


def _negativity_of_values(tilde: np.ndarray) -> float:
    """Logarithmic negativity from a partially transposed symplectic spectrum."""
    negative = tilde[tilde < 0.5 - NU_TOL]
    if negative.size == 0:
        return 0.0
    return max(0.0, -float(np.sum(np.log(2.0 * negative))))


def williamson(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form sigma = S D S^T of a positive-definite state, or of each of a stack.

    Returns (nu, S): the symplectic eigenvalues nu ascending, and S with
    S Omega S^T = Omega, where D = diag(nu_1, nu_1, ..., nu_M, nu_M); a
    stack keeps its leading axis.  Cholesky sigma = L L^T; the Hermitian
    matrix i L^T Omega L has eigenvalues +-nu_j.  An eigenvector u_j of
    +nu_j gives the columns sqrt(2) (Im u_j, Re u_j) of an orthogonal O that
    brings L^T Omega L to the blocks nu_j [[0, 1], [-1, 0]], and
    S = L O D^(-1/2).  Every step runs on the whole stack, and each matrix
    comes out bit for bit as alone.  Raises DomainError when a matrix is not
    numerically positive definite, and PairingFailure when the eigenvalues
    do not come in +-nu pairs (_pair_moduli).  The eigenvalues are not
    squared, so nu needs no Gram guard.  Each decomposition counts as one
    spectrum of its matrix and one ``williamson`` in take_counts().
    """
    n = sigma.shape[-1] // 2
    try:
        chol, form = _cholesky_form(sigma)
    except np.linalg.LinAlgError as exc:
        raise DomainError("Williamson normal form needs a positive-definite matrix") from exc
    count = chol[..., 0, 0].size
    _count_spectra(count, sigma.shape[-1])
    _COUNTS["williamson"] += count
    values, vectors = np.linalg.eigh(1j * form)
    _pair_moduli(np.abs(values), np.maximum(np.max(np.abs(sigma), axis=(-2, -1)), 1e-300))
    nu = values[..., n:]
    ortho = np.empty(sigma.shape)
    ortho[..., 0::2] = np.sqrt(2.0) * vectors[..., n:].imag
    ortho[..., 1::2] = np.sqrt(2.0) * vectors[..., n:].real
    return nu, (chol @ ortho) / np.sqrt(np.repeat(nu, 2, axis=-1))[..., None, :]


def purification(stack: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """(nu, blocks) of an (n, 2M, 2M) stack: Williamson eigenvalues, and kept rows with purification partners.

    nu (shape (n, M)) give the entropy of each matrix sigma of the stack
    (_entropy_of_values), so a caller needs no second decomposition of it.
    rows are the (x, p) rows of the kept modes.  Each mixed Williamson mode
    of sigma (nu_j above 1/2 by more than PURE_MODE_RTOL of the scale) gets
    one ancilla, two-mode squeezed with it so that the pair is pure; the
    other modes of sigma are traced out.  Each block holds the kept modes
    first, then the ancillas, so the blocks' sizes can differ.  If sigma is
    the reduced state of a pure state on sigma u R, every purification
    differs from R only by a local symplectic on the partner side, so
    (kept, ancillas) and (kept, R) share entropies and logarithmic
    negativity (Holevo & Werner, PRA 63, 032312 (2001); Botero & Reznik,
    PRA 67, 052311 (2003)).  With no mixed mode the kept modes come back
    alone.
    """
    nu, sym = williamson(stack)
    scales = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
    kept, r = stack[:, rows[:, None], rows], len(rows)
    blocks = []
    for i in range(len(stack)):
        mixed = np.flatnonzero(nu[i] - 0.5 > PURE_MODE_RTOL * scales[i])
        nu_mixed = np.repeat(nu[i, mixed], 2)
        squeeze = np.sqrt(nu_mixed**2 - 0.25)
        squeeze[1::2] *= -1.0  # the pair's momenta anti-correlate
        cross = sym[i][np.ix_(rows, _rows(mixed))] * squeeze
        block = np.zeros((r + len(nu_mixed),) * 2)
        block[:r, :r] = kept[i]
        block[:r, r:] = cross
        block[r:, :r] = cross.T
        block[r:, r:][np.diag_indices(len(nu_mixed))] = nu_mixed
        blocks.append(block)
    return nu, blocks


def check_purity(cov: CovarianceMatrix) -> float:
    """Global-purity defect max|(Omega.sigma)^2 + I/4|; raises ImpureState past PURITY_TOL.

    A state is pure exactly when every symplectic eigenvalue is 1/2, that is
    when (Omega.sigma)^2 = -I/4.  The tolerance is relative to the matrix
    scale, as for SYMMETRY_TOL.
    """
    omega_sigma = _omega_times(cov.data)
    square = omega_sigma @ omega_sigma
    square[np.diag_indices_from(square)] += 0.25
    defect = float(np.max(np.abs(square)))
    scale = max(float(np.max(np.abs(cov.data))), 1.0)
    if not defect <= PURITY_TOL * scale:  # a NaN defect (overflow) fails too
        raise ImpureState(
            f"global purity defect {defect:.3e} exceeds {PURITY_TOL:.0e} x scale {scale:.3e}"
        )
    return defect


def validate_state(cov: CovarianceMatrix) -> ValidityReport:
    """Report minimum symplectic eigenvalue and symmetry defect (never raises)."""
    defect = float(np.max(np.abs(cov.data - cov.data.T)))
    try:
        min_nu = float(_spectrum_of(cov.data, defect)[0])
    except PairingFailure:
        min_nu = float("nan")
    passed = (min_nu >= 0.5 - NU_TOL) and (defect <= NU_TOL)
    return ValidityReport(min_symplectic=min_nu, symmetry_defect=defect, passed=bool(passed))
