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
spectrum of the block is read off it: _gram_spectra, _transposed_spectra
(the partial transpose on mode 0, by a full eigvalsh) and the real
Williamson form (_williamson, with its run-time check and its fallback
_complex_williamson).  Two callers share that form: purification (the
purification partners of mode 0 and the partial transpose on mode 0) and
_mixed_modes (a block's mixed modes and their covariances with other
quadratures: one step of correlations._sweep).
_entropy_of_values and _negativity_of_values reduce one spectrum or a
stack; the first is the package's one evaluation of the bosonic entropy
h(nu), which entropy_function gives for one value and analytic.mi_value
reads once for a whole grid of closed-form cells.  merge_counts adds the
counters of several take_counts, each by its own rule (block_modes_max
and kept_modes_max are maxima).  _spectrum_of is the one entry point for a
raw matrix that may be unphysical (the object API); it takes the eig path
when the matrix is not positive definite.  No pipeline function calls it:
H(S) is h(nu_S) of the 2 x 2 system block (correlations.system_entropy).
CovarianceMatrix is the validated full state that the model builds, and
check_purity the pipeline's one check of it.
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
#: digits of nu_min, and _gram_spectra takes svd(K) instead, _williamson
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
#: are pure modes: they get no purifying ancilla, and a step of the fraction
#: sweep drops them (_mixed_modes).  The sum of h(nu) over the modes a
#: sweep keeps is H(near) (correlations._split), which holds only if every
#: mode that carries entropy is kept: on desk blocks the modes that a cut
#: at 1e-13 of the scale drops carry up to 7.9e-11 of H(near), and those
#: that 1e-15 drops at most 3.1e-12 (3.8e-12 at 300 oscillators; measured
#: on purification partners, which keep the same modes).  The cut sits
#: inside the rounding noise of a pure mode, which comes from K itself,
#: not from squaring: on random pure states it reaches 23 eps x scale on
#: the Gram path, on |K a| and on the complex form alike, and on desk
#: blocks the Gram and complex nu of modes near 1/2 agree within
#: 0.8 eps x scale.  So a sweep may keep a mode that exact arithmetic
#: would drop, with the rounding-sized h(nu) it carries; a cut above the
#: noise (16 eps x nu_max x scale) drops up to 9.5e-12 of H(near) on desk
#: blocks.  The modes the sweep keeps hold H(near) within 1.8e-12 at every
#: drawn grid point of desk and 300-oscillator samples.
PURE_MODE_RTOL = 1e-15

#: Run-time check of _williamson's real Williamson vectors (_mode_pairs):
#: each mixed mode's residual |K b - nu a| / nu and its vectors' departure
#: from orthonormality must not exceed this.  Within the Gram guard the
#: residual of an eigh vector is at most about 1e-16 x 1e5; desk blocks
#: read at most 4.7e-14.
WILLIAMSON_RTOL = 1e-10

#: Work done since the last take_counts(): spectra taken (a Williamson
#: decomposition counts as one), their summed cost (2M)^3, the largest block
#: in modes, svd fallbacks, Williamson decompositions (_williamson, for
#: purification and for every step of the fraction sweep), the _williamson
#: calls that took them (so williamson / williamson_stacks is the matrices
#: per call), and of the decompositions the ones repaired by the projection
#: or taken through _complex_williamson; the propagator builds that fell
#: back to the dense eigh (model.make_propagator); and the most mixed modes
#: one step of the sweep kept (_mixed_modes).
_COUNTS = dict.fromkeys(
    ("spectra", "block_cost", "block_modes_max", "svd_fallbacks", "williamson", "williamson_stacks", "pairing_repairs",
     "williamson_fallbacks", "propagator_fallbacks", "kept_modes_max"),
    0,
)


def take_counts() -> dict[str, int]:
    """The spectrum counters since the last call, which resets them."""
    counts = dict(_COUNTS)
    _COUNTS.update(dict.fromkeys(_COUNTS, 0))
    return counts


def merge_counts(total: dict, counts: dict) -> None:
    """Add counts (take_counts) to total, in place: block_modes_max and kept_modes_max are maxima, every other count a sum."""
    for k, v in counts.items():
        total[k] = max(total.get(k, 0), v) if k in ("block_modes_max", "kept_modes_max") else total.get(k, 0) + v


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
        """The state of a float matrix that is exactly symmetric by construction (model.evolve's A A^T, or at t = 0 the dense diagonal of its product state), stored as given."""
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


def _scales(stack: np.ndarray) -> np.ndarray:
    """max|sigma| of each matrix of a stack (the last two axes), floored at 1e-300: the scale of the pairing test (_sorted_pairs)."""
    return np.maximum(np.max(np.abs(stack), axis=(-2, -1)), 1e-300)


def _gram_spectra(form: np.ndarray, gram: np.ndarray, scales: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """Symplectic spectra (n, M) from an (n, 2M, 2M) stack of K and its K^T K, paired at the scales of their matrices (_scales).

    The moduli are the square roots of eigvalsh(K^T K); past the Gram guard
    (gram[0] < GRAM_RTOL * gram[-1], or NaN) they come from svd(K) instead.
    For a partial transpose, gram is K~^T K~ and shift the c of each matrix
    (_flip), which turns K into K~ for the svd.  eigvalsh runs on the whole
    stack; LAPACK still sees one matrix at a time, so each spectrum is bit
    for bit the one-matrix result.
    """
    _count_spectra(form.shape[0], form.shape[-1])
    values = np.linalg.eigvalsh(gram)
    moduli = np.sqrt(values)
    for i in np.flatnonzero(~(values[:, 0] >= GRAM_RTOL * values[:, -1])):  # NaN falls back too
        _COUNTS["svd_fallbacks"] += 1
        form_i = form[i].copy()
        if shift is not None:
            form_i[0, 1] -= shift[i]
            form_i[1, 0] += shift[i]
        moduli[i] = np.linalg.svd(form_i, compute_uv=False)
    return _pair_moduli(moduli, scales)


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
    return _gram_spectra(form, flipped, _scales(stack), shift)


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
            return _gram_spectra(form, gram, scale)[0]
    _count_spectra(1, sigma.shape[0])
    return _pair_moduli(np.abs(np.linalg.eigvals(_omega_times(sigma))), scale)


def entropy_function(nu: float) -> float:
    """Bosonic entropy of one symplectic eigenvalue, in nats.

    h(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), with h(1/2)=0.
    The stacked kernel's value for the one-value spectrum [nu] (_entropy_of_values).
    """
    return _entropy_of_values([nu])


def _entropy_of_values(values: np.ndarray):
    """Sum of h(nu) over the last axis: a float for one spectrum, an array for a stack of them.

    The package's one evaluation of h.  With b = nu - 1/2 it takes
    h = ln(1 + b) + b ln(1 + 1/b), both logarithms by log1p, which equals
    (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2) in exact arithmetic.
    The written form cancels: its two terms are about nu ln nu, and nu + 1/2
    drops the low bits of a nu near 1/2.  Against a 60-digit evaluation on
    8,700 values of nu in (1/2, 1e17] the written form erred by up to 5e-14
    relative on [1, 300], 2.6e-2 within 0.1 of 1/2 and over 100 % from about
    1e15 (it reads 0 from 1e16); this form erred by at most 2.4e-16.  Values
    in [1/2 - NU_TOL, 1/2] count as exactly 1/2 (h = 0), so that eigensolver
    noise on pure states cannot produce NaN; a value below raises DomainError.
    """
    values = np.asarray(values, dtype=float)
    if (values < 0.5 - NU_TOL).any():
        worst = float(values.min())
        raise DomainError(f"symplectic eigenvalue {worst} below 1/2 - {NU_TOL}")
    b = np.maximum(values - 0.5, 0.0)
    # b ln(1 + 1/b) tends to 0 with b; at b = 0 the floor 1e-300 gives 0 x ln(1e300) = 0
    total = (np.log1p(b) + b * np.log1p(1.0 / np.maximum(b, 1e-300))).sum(axis=-1)
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


def _complex_williamson(sigma: np.ndarray, form: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Williamson normal form sigma = S D S^T of a positive-definite matrix, or of each of a stack, from its K = L^T Omega L (_factor).

    Returns (nu, O): the symplectic eigenvalues nu ascending, and the
    orthogonal O with O^T K O = blocks nu_j [[0, 1], [-1, 0]], so that
    S = L O D^(-1/2) with D = diag(nu_1, nu_1, ..., nu_M, nu_M); a stack
    keeps its leading axis, and nothing is counted.  Raises PairingFailure
    when the eigenvalues do not come in +-nu pairs (_pair_moduli).
    _williamson takes the same form in real arithmetic, and this one when
    its check fails.  The Hermitian matrix i K has eigenvalues +-nu_j.  An
    eigenvector u_j of +nu_j gives the columns sqrt(2) (Im u_j, Re u_j) of
    O.  Every step runs on the whole stack, and each matrix comes out bit
    for bit as alone.  The eigenvalues are not squared, so nu needs no Gram
    guard.
    """
    n = sigma.shape[-1] // 2
    values, vectors = np.linalg.eigh(1j * form)
    _pair_moduli(np.abs(values), _scales(sigma))
    ortho = np.empty(sigma.shape)
    ortho[..., 0::2] = np.sqrt(2.0) * vectors[..., n:].imag
    ortho[..., 1::2] = np.sqrt(2.0) * vectors[..., n:].real
    return values[..., n:], ortho


def _mode_pairs(form: np.ndarray, tops: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, defect, overlap) of the m mixed pairs of each K of a stack, in real arithmetic, by one Cholesky-QR.

    tops (n, m, 2M) holds a_j, the upper eigenvector of pair j of
    eigh(K^T K), and nu (n, m) its symplectic eigenvalue, top pair first.
    The rows V = (a_1, -K a_1 / nu_1, a_2, -K a_2 / nu_2, ...) are
    orthonormalised in order: with V V^T = L L^T (cholesky), basis = L^-1 V
    holds each row of V less its parts along the rows before it, normalised,
    as Gram-Schmidt would.  So b_j = -K a_j / nu_j, with K a_j = -nu_j b_j
    and K b_j = nu_j a_j.  For a well-separated pair the projections remove
    only rounding; in a near-degenerate cluster eigh returns any orthonormal
    basis of the cluster's subspace, so a_j need not be orthogonal to an
    earlier b_k, and the projection repairs it.  overlap[:, j] is the largest
    |L[2j, k]|, k < 2j: the part of the raw a_j along an earlier basis row.
    A matrix whose V V^T is not positive definite gets NaN rows.  One pass
    then checks every pair: defect[:, j] is the largest of
    |K b_j - nu_j a_j| / nu_j, ||b_j| - 1| and |b_j . q| over a_j and the
    earlier rows q (NaN fails it).  Each matrix's arrays are sized by its
    own m, so its result does not depend on the rest of the stack.
    """
    n, m, rows = tops.shape
    raw = np.empty((n, 2 * m, rows))
    raw[:, 0::2] = tops
    raw[:, 1::2] = -(tops @ np.swapaxes(form, 1, 2)) / nu[:, :, None]
    gram = raw @ np.swapaxes(raw, 1, 2)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:  # one Gram that is not positive definite fails the whole stack
        chol = np.full_like(gram, np.nan)
        for i, g in enumerate(gram):
            try:
                chol[i] = np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                pass  # NaN, and so are its rows and its defect
    basis = np.linalg.solve(chol, raw)
    before = np.arange(2 * m) < 2 * np.arange(m)[:, None]  # [j, k]: row k lies before a_j
    overlap = np.max(np.where(before, np.abs(chol[:, 0::2]), 0.0), axis=2)
    a, b = basis[:, 0::2], basis[:, 1::2]
    residual = np.linalg.norm(b @ np.swapaxes(form, 1, 2) - nu[:, :, None] * a, axis=2) / nu
    earlier = np.arange(2 * m)[:, None] <= 2 * np.arange(m)  # [q, j]: q is a_j or an earlier row
    against = np.max(np.where(earlier, np.abs(basis @ np.swapaxes(b, 1, 2)), 0.0), axis=1, initial=0.0)
    return basis, np.maximum(np.maximum(residual, np.abs(np.linalg.norm(b, axis=2) - 1.0)), against), overlap


def _williamson(stack: np.ndarray, factor: tuple, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu, n_mixed, basis): the Williamson form of each matrix sigma of an (n, 2M, 2M) stack, from its factor (L, K, K^T K) and _scales.

    The form is taken in real arithmetic: eigh(K^T K) gives nu^2 in pairs
    (_sorted_pairs; nu (n, M) ascending) and the columns (a_j, b_j) of the
    orthogonal O with O^T K O = blocks nu_j [[0, 1], [-1, 0]] (_mode_pairs,
    on the matrices of each mixed count at once), so that sigma = S D S^T
    with S = L O D^(-1/2).  n_mixed counts each matrix's mixed modes, nu_j
    above 1/2 by more than PURE_MODE_RTOL of the scale (floored at 1); the
    rest are pure.  basis (n, 2p, 2M) holds the rows a_1, b_1, a_2, ... of
    each matrix's mixed pairs, descending in nu, p the largest n_mixed, and
    zero rows after them.  Checked per matrix: every mixed mode's defect
    must be at most WILLIAMSON_RTOL.  A matrix whose raw eigenvectors
    overlapped an earlier pair by more than that was repaired by the
    projection (``pairing_repairs``).  A matrix that fails the check, or
    whose moduli trip the Gram guard or do not pair, takes nu and O from
    _complex_williamson instead (``williamson_fallbacks``).  Each
    decomposition counts as one spectrum and one ``williamson``, each call
    as one ``williamson_stacks``, and each matrix's result does not depend
    on the rest of the stack.
    """
    n, rows = stack.shape[0], stack.shape[-1]
    form, gram = factor[1:]
    _count_spectra(n, rows)
    _COUNTS["williamson"] += n
    _COUNTS["williamson_stacks"] += 1
    values, vectors = np.linalg.eigh(gram)
    lo, hi, unpaired = _sorted_pairs(np.sqrt(values), scales)
    nu = 0.5 * (lo + hi)
    floor = PURE_MODE_RTOL * np.maximum(scales, 1.0)[:, None]
    n_mixed = np.count_nonzero(nu - 0.5 > floor, axis=1)
    fallback = ~(values[:, 0] >= GRAM_RTOL * values[:, -1]) | np.any(unpaired, axis=1)
    top, groups = nu[:, ::-1], []
    for m in sorted(set(n_mixed[~fallback].tolist()) - {0}):
        idx = np.flatnonzero((n_mixed == m) & ~fallback)
        groups.append((idx, np.swapaxes(vectors[:, :, ::-2][:, :, :m][idx], 1, 2)))  # a copy of the upper vectors only
    del vectors  # a stack's worth of memory, and only the upper vectors of the mixed pairs were needed
    parts = []
    for idx, tops in groups:
        pairs, defect, overlap = _mode_pairs(form if len(idx) == n else form[idx], tops, top[idx, : tops.shape[1]])
        _COUNTS["pairing_repairs"] += int(np.count_nonzero(np.any(overlap > WILLIAMSON_RTOL, axis=1)))
        fallback[idx[np.any(~(defect <= WILLIAMSON_RTOL), axis=1)]] = True
        parts.append((idx, pairs))
    swaps = []
    for i in np.flatnonzero(fallback).tolist():
        nu[i], ortho = _complex_williamson(stack[i], form[i])
        n_mixed[i] = np.count_nonzero(nu[i] - 0.5 > floor[i])
        swaps.append((i, ortho.T.reshape(-1, 2, rows)[::-1].reshape(rows, rows)))  # rows a_j, b_j, top pair first
    _COUNTS["williamson_fallbacks"] += len(swaps)
    basis = np.zeros((n, 2 * int(np.max(n_mixed, initial=0)), rows))
    for idx, pairs in parts:
        basis[idx, : pairs.shape[1]] = pairs
    for i, pairs in swaps:
        basis[i, : 2 * n_mixed[i]] = pairs[: 2 * n_mixed[i]]
    return nu, n_mixed, basis


def _mixed_modes(stack: np.ndarray, cross: np.ndarray) -> list:
    """The mixed Williamson modes of each matrix of a stack with their covariances against other quadratures: (indices, nu, rows) groups of one mode count.

    stack (n, 2M, 2M) holds covariance blocks sigma and cross (n, 2M, C)
    the covariances of the same 2M quadratures x with C others.  Each
    sigma = S D S^T (_williamson, with its check and counted fallback); its
    new quadratures y = S^-1 x are uncorrelated modes with covariance D.  A
    mode that _williamson counts as pure is dropped, the rest, m of them,
    are kept, top first: nu (g, m) and rows (g, 2m, C), the covariances of
    their quadratures with the C others, through S^-1 = -Omega S^T Omega =
    -Omega D^(-1/2) O^T L^T Omega.  In a globally pure state a pure mode of
    sigma is in product with everything else (Botero & Reznik, PRA 67,
    052311 (2003)), so the kept modes stand in for the block in every
    entropy and negativity with the rest.  Each group's arrays are sized
    by its own m, so each matrix's result is bit for bit its result alone.
    Counts ``kept_modes_max``.
    """
    chol, form, gram = _factor(stack)
    nu, n_mixed, basis = _williamson(stack, (chol, form, gram), _scales(stack))
    _COUNTS["kept_modes_max"] = max(_COUNTS["kept_modes_max"], int(np.max(n_mixed, initial=0)))
    top, groups = nu[:, ::-1], []
    for m in sorted(set(n_mixed.tolist())):
        idx = np.flatnonzero(n_mixed == m)
        kept = np.ascontiguousarray(top[idx, :m])
        lead = basis[idx, : 2 * m] @ np.swapaxes(chol[idx], 1, 2)  # O^T L^T of the kept pairs
        turned = np.empty_like(lead)  # O^T L^T Omega
        turned[:, :, 0::2], turned[:, :, 1::2] = -lead[:, :, 1::2], lead[:, :, 0::2]
        rows = turned @ (cross if len(idx) == len(cross) else cross[idx])
        rows /= np.sqrt(np.repeat(kept, 2, axis=1))[:, :, None]
        groups.append((idx, kept, -_omega_times(rows)))
    return groups


def purification(stack: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """(nu, partners, transposes) of an (n, 2M, 2M) stack: Williamson eigenvalues, purification partners of mode 0, and partial transposes on mode 0.

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

    The normal form, with its check and fallback, is _williamson's: S =
    L O D^(-1/2), and the partner needs only rows 0 and 1 of S, from
    L[:2, :2] and O[:2].  Each matrix's result does not depend on the rest
    of the stack.

    transposes (n, M) holds the spectrum of the partial transpose on mode 0
    of each sigma, read off the same factor (_transposed_spectra).
    """
    chol, form, gram = _factor(stack)
    nu, n_mixed, basis = _williamson(stack, (chol, form, gram), _scales(stack))
    top = nu[:, ::-1][:, : basis.shape[1] // 2]
    # rows 0 and 1 of S = L O D^(-1/2), elementwise (L[0, 1] = 0)
    root = np.sqrt(np.repeat(top, 2, axis=1))
    o_0, o_1 = basis[:, :, 0], basis[:, :, 1]
    s_rows = np.stack((chol[:, 0, 0, None] * o_0, chol[:, 1, 0, None] * o_0 + chol[:, 1, 1, None] * o_1), axis=1)
    s_rows /= root[:, None, :]
    partners = []
    for m in sorted(set(n_mixed.tolist())):
        idx = np.flatnonzero(n_mixed == m)
        nu_mixed = np.repeat(top[idx, :m], 2, axis=1)
        squeeze = np.sqrt(nu_mixed**2 - 0.25)
        squeeze[:, 1::2] *= -1.0  # the pair's momenta anti-correlate
        cross = s_rows[idx, :, : 2 * m] * squeeze[:, None, :]
        blocks = np.zeros((len(idx), 2 + 2 * m, 2 + 2 * m))
        blocks[:, :2, :2] = stack[idx, :2, :2]
        blocks[:, :2, 2:] = cross
        blocks[:, 2:, :2] = np.swapaxes(cross, 1, 2)
        blocks[:, 2:, 2:][:, np.arange(2 * m), np.arange(2 * m)] = nu_mixed
        partners.append((idx, blocks))
    return nu, partners, _transposed_spectra(stack, (chol, form, gram))


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
        floor = float(np.finfo(float).eps) * cov.scale * cov.scale  # no overflow error, unlike scale**2
        raise ImpureState(
            f"global purity defect {defect:.3e} exceeds {PURITY_TOL:.0e} x scale {cov.scale:.3e}; "
            f"float64 rounding alone reaches about eps x scale^2 = {floor:.1e}"
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
