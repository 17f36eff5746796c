import decimal
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmlab.gaussian as gaussian_mod
from qbmlab.errors import DomainError, ImpureState, PairingFailure, SubsetError
from qbmlab.gaussian import (
    GRAM_RTOL,
    NU_TOL,
    CovarianceMatrix,
    ModeSubset,
    _entropy_of_values,
    _factor,
    _negativity_of_values,
    _omega_times,
    _skew_product,
    _spectrum_of,
    _transposed_spectra,
    check_purity,
    entropy_function,
    log_negativity,
    partial_trace,
    partial_transpose,
    purification,
    take_counts,
    validate_state,
    von_neumann_entropy,
)

from conftest import assert_pairs_match_loop, random_state, random_symplectic, two_mode_squeezed
from oracles import (
    OverlapError,
    complex_purification,
    dense_purity_square,
    dense_skew_product,
    flip_system,
    mutual_information,
    omega_copy_purity,
    stacked_spectra,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)

# Frozen 40-digit evaluations of the closed-form entropy function.
H_AT_1 = 0.9547712524422192276756357339256119888957
H_AT_SQRT5_HALF = 1.076022352410010097223583082376513563561


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

NO_COUNTS = dict.fromkeys(
    ("spectra", "block_cost", "block_modes_max", "svd_fallbacks", "williamson", "williamson_stacks", "pairing_repairs",
     "williamson_fallbacks", "propagator_fallbacks", "kept_modes_max"),
    0,
)

#: Real against complex purification: the partners' entropies and
#: negativities, and the Williamson eigenvalues, agree to rounding of the
#: scale; measured at most 1e-13 on these random states.
PURIFICATION_TOL = 1e-10

#: The partial-transpose spectrum from sigma's own factor (_flip) against a
#: Cholesky of the flipped matrix: the Gram entries differ by rounding,
#: measured at most 1e-14 relative to the largest value on these states.
FLIP_RTOL = 1e-11

#: The near side's partial transpose (purification's third result) against
#: _transposed_spectra and a Cholesky of the flipped block, relative to the
#: largest value: the two whole-block paths differ by at most 2.5e-14 over
#: 3,000 random pure states of 3-9 modes.
RESTRICTED_RTOL = 1e-11

#: The negativities of the same spectra: measured at most 6.7e-12, where a
#: spread near the Gram guard costs every path digits (RANDOM_BAND_NEG_TOL of
#: the correlation tests).
RESTRICTED_NEG_TOL = 3e-11


def vacuum(n_modes: int) -> CovarianceMatrix:
    return CovarianceMatrix(0.5 * np.eye(2 * n_modes))


def oracle_spectrum(sigma: np.ndarray) -> np.ndarray:
    """Independent dense complex eigensolve of Omega.sigma (cross-check path)."""
    n = sigma.shape[0] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ sigma)))
    return 0.5 * (moduli[0::2] + moduli[1::2])


class TestSymplecticForm:
    def test_single_mode_block(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[0:2, 0:2] = [[0, 1], [-1, 0]]
        expected[2:4, 2:4] = [[0, 1], [-1, 0]]
        assert np.array_equal(omega, expected)

    @pytest.mark.parametrize("m", [1, 2, 5, 11])
    def test_orthogonality_and_square(self, m):
        omega = symplectic_form(m)
        assert np.allclose(omega @ omega.T, np.eye(2 * m))
        assert np.allclose(omega @ omega, -np.eye(2 * m))
        assert np.array_equal(omega.T, -omega)


class TestCovarianceMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        data = 0.5 * np.eye(4)
        data[1, 2] = data[2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            CovarianceMatrix(data)

    def test_records_input_asymmetry(self, rng):
        data = random_state(rng, 3).data  # stored symmetrized, so exactly symmetric
        assert CovarianceMatrix(data).symmetry_defect == 0.0
        scale = float(np.max(np.abs(data)))
        data[0, 3] += 1e-12 * scale
        cov = CovarianceMatrix(data)
        assert cov.symmetry_defect == float(np.max(np.abs(data - data.T)))
        assert cov.symmetry_defect == pytest.approx(1e-12 * scale, rel=1e-3)
        assert np.array_equal(cov.data, cov.data.T)
        assert validate_state(cov).symmetry_defect == cov.symmetry_defect

    def test_exactly_symmetric_input_is_stored_as_given(self):
        data = np.diag([1e308, 1.0])  # 0.5 (data + data^T) would overflow to inf
        cov = CovarianceMatrix(data)
        assert np.array_equal(cov.data, data) and cov.data is not data
        assert cov.symmetry_defect == 0.0 and cov.scale == 1e308

    def test_overflowing_symmetrization_rejected(self):
        big = np.finfo(float).max
        data = np.array([[1.0, big], [np.nextafter(big, 0.0), 1.0]])  # asymmetric by one ulp
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected, not a RuntimeWarning
            with pytest.raises(DomainError, match="non-finite"):
                CovarianceMatrix(data)

    def test_symmetric_states_skip_the_symmetry_passes(self, rng):
        data = random_state(rng, 3).data
        cov = CovarianceMatrix.symmetric(data)
        assert cov.data is data and cov.symmetry_defect == 0.0 and cov.n_modes == 3
        assert cov.scale == max(float(np.max(np.abs(data))), 1.0)
        assert CovarianceMatrix.symmetric(0.25 * np.eye(2)).scale == 1.0
        data[1, 2] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            CovarianceMatrix.symmetric(data)
        with pytest.raises(DomainError, match="2M x 2M"):
            CovarianceMatrix.symmetric(np.eye(3))


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        spec = symplectic_eigenvalues(vacuum(1))
        assert spec == pytest.approx([0.5], abs=1e-14)

    def test_pure_squeezed_single_mode(self):
        s = 1.3
        cov = CovarianceMatrix(np.diag([np.exp(2 * s) / 2, np.exp(-2 * s) / 2]))
        assert symplectic_eigenvalues(cov) == pytest.approx([0.5], abs=1e-12)

    def test_matches_independent_complex_eigensolve(self, rng):
        for _ in range(6):
            cov = random_state(rng, 3)
            ours = symplectic_eigenvalues(cov)
            theirs = oracle_spectrum(cov.data)
            assert ours == pytest.approx(theirs, rel=1e-8)

    def test_invariant_under_symplectic_conjugation(self, rng):
        for n_modes in (2, 4):
            cov = random_state(rng, n_modes)
            t = random_symplectic(rng, n_modes)
            conj = CovarianceMatrix(t @ cov.data @ t.T)
            assert symplectic_eigenvalues(conj) == pytest.approx(
                symplectic_eigenvalues(cov), rel=1e-8
            )

    def test_pairing_failure_on_corrupted_matrix(self):
        # Bypass the constructor: a frankly non-symmetric matrix has complex
        # eigenvalue moduli that do not pair.
        bad = np.random.default_rng(3).standard_normal((4, 4))
        with pytest.raises(PairingFailure):
            _spectrum_of(bad)


def svd_oracle(sigma: np.ndarray) -> np.ndarray:
    """Singular values of L^T Omega L with a dense Omega, each symplectic eigenvalue twice."""
    chol = np.linalg.cholesky(sigma)
    form = chol.T @ symplectic_form(sigma.shape[0] // 2) @ chol
    return np.sort(np.linalg.svd(form, compute_uv=False))


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the matrices passed to numpy.linalg.svd while the test runs."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestSpectrumKernel:
    """The Gram path eigvalsh(K^T K) against the svd of K it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n_modes=st.integers(min_value=1, max_value=40),
        pure=st.booleans(),
        squeeze=st.floats(min_value=0.0, max_value=2.0),
        transpose=st.booleans(),
    )
    def test_matches_svd_oracle(self, seed, n_modes, pure, squeeze, transpose):
        rng = np.random.default_rng(seed)
        sigma = random_state(rng, n_modes, pure=pure).data
        # squeezing one mode worsens the conditioning of sigma, not its spectrum
        local = np.ones(2 * n_modes)
        mode = rng.integers(n_modes)
        local[2 * mode : 2 * mode + 2] = np.exp(squeeze), np.exp(-squeeze)
        sigma = sigma * local[:, None] * local[None, :]
        if transpose and n_modes > 1:
            # a partial transpose spreads the spectrum, often past the guard
            signs = np.ones(2 * n_modes)
            signs[2 * rng.permutation(n_modes)[: n_modes // 2] + 1] = -1.0
            sigma = sigma * signs[:, None] * signs[None, :]
        oracle = svd_oracle(sigma)
        got = np.repeat(_spectrum_of(sigma), 2)
        assert np.max(np.abs(got - oracle) / oracle) <= 1e-10

    @pytest.mark.parametrize("s, fallback", [(1.0, False), (1.5, True), (3.0, True)])
    def test_two_mode_squeezed_negativity(self, svd_calls, s, fallback):
        # the PT spectrum exp(-+2s)/2 has spread exp(4s): 55, 403 and 1.6e5
        got = log_negativity(two_mode_squeezed(s), ModeSubset.of([0], 2))
        assert got == pytest.approx(2 * s, rel=1e-10)
        assert bool(svd_calls) is fallback

    @pytest.mark.parametrize("spread", [1.0, 100.0, 316.0, 316.3, 317.0, 1e3, 1e6])
    def test_fallback_exactly_below_guard(self, svd_calls, spread):
        sigma = np.diag(np.repeat([0.5, 0.5 * spread, 0.5 * np.sqrt(spread)], 2))
        gram = np.linalg.eigvalsh(_factor(sigma)[2])
        got = _spectrum_of(sigma)
        assert len(svd_calls) == int(gram[0] < GRAM_RTOL * gram[-1])
        assert got == pytest.approx([0.5, 0.5 * np.sqrt(spread), 0.5 * spread], rel=1e-12)


def product_bound(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise bound on the gap between two summation orders of the terms of left @ right: (terms + 1) eps |left| |right|."""
    return (left.shape[-1] + 1) * np.finfo(float).eps * (np.abs(left) @ np.abs(right))


class TestSkewProduct:
    """_skew_product (W - W^T from half a product) against the full product M^T (Omega M) (oracles.dense_skew_product)."""

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=12), n=st.integers(min_value=1, max_value=5))
    def test_matches_full_product_and_is_antisymmetric(self, seed, n_modes, n):
        stack = np.random.default_rng(seed).standard_normal((n, 2 * n_modes, 2 * n_modes))
        got = _skew_product(stack)
        assert np.array_equal(got, -np.swapaxes(got, 1, 2))
        assert np.all(np.abs(got - dense_skew_product(stack)) <= product_bound(np.swapaxes(stack, 1, 2), _omega_times(stack)))
        for i, matrix in enumerate(stack):
            assert got[i].tobytes() == _skew_product(matrix[None])[0].tobytes()


class TestStackedSpectra:
    """The stacked kernel (oracles.stacked_spectra) on a stack equals _spectrum_of one matrix at a time, bit for bit and count for count."""

    @staticmethod
    def one_by_one(stack):
        take_counts()
        want = np.array([_spectrum_of(sigma, 0.0) for sigma in stack])
        return want, take_counts()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n_modes=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=6),
        transpose=st.booleans(),
    )
    def test_rows_equal_one_matrix_results(self, seed, n_modes, n, transpose):
        rng = np.random.default_rng(seed)
        stack = np.array([random_state(rng, n_modes, pure=bool(rng.integers(2))).data for _ in range(n)])
        if transpose and n_modes > 1:
            # a partial transpose of mode 0 spreads some spectra past the Gram guard
            stack[:, 1] *= -1.0
            stack[:, :, 1] *= -1.0
        want, counts = self.one_by_one(stack)
        got = stacked_spectra(stack)
        assert take_counts() == counts
        assert got.tobytes() == want.tobytes()

    def test_entropies_of_a_stack_equal_one_by_one(self, rng):
        nus = np.array([_spectrum_of(random_state(rng, 5, pure=False).data) for _ in range(4)])
        assert _entropy_of_values(nus).tobytes() == np.array([_entropy_of_values(nu) for nu in nus]).tobytes()

    def test_not_positive_definite_goes_one_by_one(self, rng):
        good = random_state(rng, 2, pure=False).data
        stack = np.array([good, np.diag([0.5, 0.5, -1.0, 1.0]), good])
        want, counts = self.one_by_one(stack)
        got = stacked_spectra(stack)
        assert take_counts() == counts
        assert counts["spectra"] == 3
        assert got.tobytes() == want.tobytes()


class TestSpectrumCounters:
    def test_counts_every_spectrum_then_resets(self):
        take_counts()
        von_neumann_entropy(vacuum(3))
        # the partial transpose of a strongly squeezed pair spreads past the Gram guard
        assert log_negativity(two_mode_squeezed(3.0), ModeSubset.of([0], 2)) == pytest.approx(6.0, rel=1e-10)
        assert take_counts() == {**NO_COUNTS, "spectra": 2, "block_cost": 6**3 + 4**3, "block_modes_max": 3, "svd_fallbacks": 1}
        assert take_counts() == NO_COUNTS

    def test_williamson_counts_as_one_spectrum(self):
        # a purification counts its decomposition and the partial transpose, one spectrum
        # each, and one Williamson call for the stack; _split takes the partners' transposes
        take_counts()
        nu, _, _ = purification(np.array([two_mode_squeezed(0.8).data] * 3))
        assert take_counts() == {
            **NO_COUNTS, "spectra": 6, "block_cost": 6 * 4**3, "block_modes_max": 2, "williamson": 3, "williamson_stacks": 1,
        }
        assert nu[1] == pytest.approx([0.5, 0.5], abs=1e-12)  # a pure state: every Williamson eigenvalue is 1/2


class TestEntropyFunction:
    def test_pure_mode(self):
        assert entropy_function(0.5) == 0.0

    def test_clamp_band(self):
        assert entropy_function(0.5 - 1e-10) == 0.0

    def test_stacked_kernel_clamps_the_band(self):
        # a pure mode a little below 1/2 adds exactly nothing, as in entropy_function
        assert _entropy_of_values(np.array([[0.5 - 1e-10, 1.0]]))[0] == entropy_function(1.0)

    def test_below_band_raises(self):
        with pytest.raises(DomainError):
            entropy_function(0.5 - 1e-8)

    def test_kernel_matches_high_precision(self, rng):
        # the one h kernel against the written form (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2)
        # in 40 digits, from just above 1/2, where nu + 1/2 drops nu's low bits, to 1e17, where the two
        # terms of about nu ln nu cancel in float64
        nus = np.concatenate(
            (
                0.5 + rng.exponential(3.0, 2000),
                0.5 + np.geomspace(1e-15, 1e-3, 200),
                0.5 - rng.uniform(0.0, NU_TOL, 200),  # the band counts as exactly 1/2
                [0.5, 0.5 - NU_TOL, 1.0, np.sqrt(5.0) / 2.0],
                np.geomspace(1e3, 1e17, 15),
            )
        )
        context = decimal.Context(prec=40)

        def written(nu: float) -> float:
            b = context.subtract(decimal.Decimal(nu), decimal.Decimal("0.5"))
            if b <= 0:
                return 0.0
            a = context.add(b, 1)
            return float(context.subtract(context.multiply(a, a.ln(context)), context.multiply(b, b.ln(context))))

        want = np.array([written(float(nu)) for nu in nus])
        got = _entropy_of_values(nus[:, None])
        assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * want)
        assert entropy_function(1e17) == got[-1]
        below = 0.5 - 2.0 * NU_TOL
        with pytest.raises(DomainError):
            entropy_function(below)
        with pytest.raises(DomainError):
            _entropy_of_values(np.array([[1.0, below]]))

    def test_value_at_one(self):
        assert entropy_function(1.0) == pytest.approx(H_AT_1, rel=1e-14)

    def test_returns_python_float(self):
        assert type(entropy_function(1.0)) is float
        assert type(entropy_function(0.5)) is float

    def test_value_at_plateau_eigenvalue(self):
        assert entropy_function(np.sqrt(5.0) / 2.0) == pytest.approx(H_AT_SQRT5_HALF, rel=1e-14)

    def test_strictly_increasing(self):
        nus = np.linspace(0.5, 8.0, 200)
        hs = [entropy_function(v) for v in nus]
        assert np.all(np.diff(hs) > 0)


class TestVonNeumannEntropy:
    def test_pure_states_have_zero_entropy(self, rng):
        for n_modes in (1, 3, 5):
            cov = random_state(rng, n_modes, pure=True)
            assert von_neumann_entropy(cov) == pytest.approx(0.0, abs=1e-8)

    def test_single_mode_nu_one(self):
        cov = CovarianceMatrix(np.diag([1.0, 1.0]))
        assert von_neumann_entropy(cov) == pytest.approx(H_AT_1, rel=1e-12)

    def test_thermal_product_additivity(self):
        nus = [0.7, 1.2, 3.4]
        cov = CovarianceMatrix(np.diag(np.repeat(nus, 2)))
        expected = sum(entropy_function(v) for v in nus)
        assert von_neumann_entropy(cov) == pytest.approx(expected, rel=1e-12)


class TestPartialTrace:
    def test_keep_all_is_identity(self, rng):
        cov = random_state(rng, 3)
        out = partial_trace(cov, ModeSubset.of(range(3), 3))
        assert np.array_equal(out.data, cov.data)

    def test_product_state_keeps_system_block(self):
        sys_block = np.diag([0.9, 0.4])
        bath = np.diag([1.1, 1.1, 2.0, 2.0])
        cov = CovarianceMatrix(np.block(
            [[sys_block, np.zeros((2, 4))], [np.zeros((4, 2)), bath]]
        ))
        out = partial_trace(cov, ModeSubset.of([0], 3))
        assert np.allclose(out.data, sys_block)

    def test_out_of_range_raises_index_error(self, rng):
        cov = random_state(rng, 2)
        with pytest.raises(IndexError):
            partial_trace(cov, ModeSubset(indices=(0, 5)))

    def test_empty_keep_raises(self, rng):
        cov = random_state(rng, 2)
        with pytest.raises(SubsetError):
            partial_trace(cov, ModeSubset(indices=()))

    def test_marginals_match_wavefunction_quadrature(self):
        # Oracle: brute-force grid integration of a 3-mode Gaussian
        # wavefunction psi ~ exp(-x.A.x/2).  For real A the state moments are
        # <x x> = A^-1/2, <p p> = A/2, <xp + px>/2 = 0; the oracle recomputes
        # the kept-mode moments by numerical quadrature and differencing.
        a_mat = np.array(
            [
                [1.30, -0.25, 0.10],
                [-0.25, 0.90, 0.20],
                [0.10, 0.20, 1.60],
            ]
        )
        cov_x = np.linalg.inv(a_mat) / 2.0
        data = np.zeros((6, 6))
        for i in range(3):
            for j in range(3):
                data[2 * i, 2 * j] = cov_x[i, j]
                data[2 * i + 1, 2 * j + 1] = a_mat[i, j] / 2.0
        cov = CovarianceMatrix(data)

        n_pts = 121
        stds = np.sqrt(np.diag(cov_x))
        axes = [np.linspace(-7 * s, 7 * s, n_pts) for s in stds]
        grid = np.meshgrid(*axes, indexing="ij")
        quad = -0.5 * sum(
            a_mat[i, j] * grid[i] * grid[j] for i in range(3) for j in range(3)
        )
        psi = np.exp(quad)
        norm = np.sqrt(_trapz3(psi**2, axes))
        psi /= norm
        dpsi = np.gradient(psi, *axes, edge_order=2)

        keep = (0, 2)
        reduced = partial_trace(cov, ModeSubset.of(keep, 3))
        for a, i in enumerate(keep):
            for b, j in enumerate(keep):
                xx = _trapz3(grid[i] * grid[j] * psi**2, axes)
                pp = _trapz3(dpsi[i] * dpsi[j], axes)
                assert reduced.data[2 * a, 2 * b] == pytest.approx(xx, abs=2e-4)
                assert reduced.data[2 * a + 1, 2 * b + 1] == pytest.approx(pp, abs=5e-3)
                assert reduced.data[2 * a, 2 * b + 1] == pytest.approx(0.0, abs=1e-12)


def _trapz3(values: np.ndarray, axes) -> float:
    out = values
    for ax in reversed(axes):
        out = np.trapezoid(out, ax, axis=-1)
    return float(out)


class TestPartialTranspose:
    def test_involution(self, rng):
        cov = random_state(rng, 4)
        party = ModeSubset.of([1, 3], 4)
        back = partial_transpose(partial_transpose(cov, party), party)
        assert np.max(np.abs(back.data - cov.data)) <= 1e-14

    def test_product_state_stays_valid(self):
        cov = CovarianceMatrix(np.diag([0.5, 0.5, 0.8, 0.8]))
        tilde = partial_transpose(cov, ModeSubset.of([0], 2))
        assert validate_state(tilde).passed

    def test_two_mode_squeezed_spectrum(self):
        s = 1.0
        tilde = partial_transpose(two_mode_squeezed(s), ModeSubset.of([0], 2))
        spec = symplectic_eigenvalues(tilde)
        assert spec[0] == pytest.approx(np.exp(-2.0) / 2.0, rel=1e-10)
        assert spec[1] == pytest.approx(np.exp(2.0) / 2.0, rel=1e-10)

    def test_empty_or_full_subset_rejected(self, rng):
        cov = random_state(rng, 2)
        with pytest.raises(SubsetError):
            partial_transpose(cov, ModeSubset(indices=()))
        with pytest.raises(SubsetError):
            partial_transpose(cov, ModeSubset.of([0, 1], 2))


class TestLogNegativity:
    def test_product_state_exactly_zero(self):
        cov = CovarianceMatrix(np.diag([0.5, 0.5, 1.7, 1.7, 0.9, 0.9]))
        assert log_negativity(cov, ModeSubset.of([0], 3)) == 0.0

    def test_two_mode_squeezed_value(self):
        assert log_negativity(two_mode_squeezed(1.0), ModeSubset.of([0], 2)) == pytest.approx(
            2.0, rel=1e-10
        )

    def test_symmetric_under_party_swap(self, rng):
        cov = random_state(rng, 3)
        a = log_negativity(cov, ModeSubset.of([0], 3))
        b = log_negativity(cov, ModeSubset.of([1, 2], 3))
        assert a == pytest.approx(b, abs=1e-10)


class TestMutualInformation:
    def test_product_state_zero(self):
        cov = CovarianceMatrix(np.diag([0.5, 0.5, 1.7, 1.7]))
        got = mutual_information(cov, ModeSubset.of([0], 2), ModeSubset.of([1], 2))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_purity_identity_full_environment(self, rng):
        cov = random_state(rng, 4, pure=True)
        part_a = ModeSubset.of([0], 4)
        part_b = ModeSubset.of([1, 2, 3], 4)
        h_a = von_neumann_entropy(partial_trace(cov, part_a))
        assert mutual_information(cov, part_a, part_b) == pytest.approx(2 * h_a, abs=1e-6)

    def test_complementary_fractions_sum_to_2hs(self, rng):
        cov = random_state(rng, 5, pure=True)
        sys = ModeSubset.of([0], 5)
        frac = ModeSubset.of([1, 2], 5)
        rest = ModeSubset.of([3, 4], 5)
        h_s = von_neumann_entropy(partial_trace(cov, sys))
        total = mutual_information(cov, sys, frac) + mutual_information(cov, sys, rest)
        assert total == pytest.approx(2 * h_s, abs=1e-6)

    def test_symmetric_in_arguments(self, rng):
        cov = random_state(rng, 3)
        a = ModeSubset.of([0], 3)
        b = ModeSubset.of([2], 3)
        assert mutual_information(cov, a, b) == mutual_information(cov, b, a)

    def test_overlap_rejected(self, rng):
        cov = random_state(rng, 3)
        with pytest.raises(OverlapError):
            mutual_information(cov, ModeSubset.of([0, 1], 3), ModeSubset.of([1, 2], 3))

    def test_nonnegative(self, rng):
        for _ in range(5):
            cov = random_state(rng, 3)
            got = mutual_information(cov, ModeSubset.of([0], 3), ModeSubset.of([1, 2], 3))
            assert got >= -1e-8


class TestValidateState:
    def test_vacuum_passes(self):
        report = validate_state(vacuum(2))
        assert report.passed
        assert report.min_symplectic == pytest.approx(0.5, abs=1e-12)
        assert report.symmetry_defect == 0.0

    def test_uncertainty_violation_fails(self):
        report = validate_state(CovarianceMatrix(np.diag([0.1, 0.1])))
        assert not report.passed
        assert report.min_symplectic == pytest.approx(0.1, abs=1e-12)


def split_pure_state(seed: int, n_modes: int, near_mask: int):
    """Random pure state with the system at 0 and bath 1..n-1 split into two non-empty sides."""
    cov = random_state(np.random.default_rng(seed), n_modes, pure=True)
    bath = range(1, n_modes)
    near = tuple(m for m in bath if near_mask >> (m - 1) & 1)
    far = tuple(m for m in bath if not near_mask >> (m - 1) & 1)
    return cov, near, far


class TestWilliamson:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=8), pure=st.booleans())
    def test_round_trip(self, seed, n_modes, pure):
        cov = random_state(np.random.default_rng(seed), n_modes, pure=pure)
        nu, sym = williamson(cov.data)
        scale = float(np.max(np.abs(cov.data)))
        omega = symplectic_form(n_modes)
        rebuilt = sym @ np.diag(np.repeat(nu, 2)) @ sym.T
        assert np.max(np.abs(rebuilt - cov.data)) <= 1e-10 * scale
        assert np.max(np.abs(sym @ omega @ sym.T - omega)) <= 1e-10 * scale
        assert np.max(np.abs(nu - _spectrum_of(cov.data))) <= 1e-10 * scale
        assert np.all(np.diff(nu) >= 0.0)

    def test_thermal_product_is_its_own_normal_form(self):
        nus = np.array([0.5, 1.25, 3.0])
        nu, sym = williamson(np.diag(np.repeat(nus, 2)))
        assert np.allclose(nu, nus, rtol=0, atol=1e-14)
        # distinct eigenvalues: S can only rotate each mode in its own phase space
        for j in range(3):
            block = sym[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            assert np.allclose(block @ block.T, np.eye(2), rtol=0, atol=1e-14)
        assert np.allclose(sym @ sym.T, np.eye(6), rtol=0, atol=1e-14)


    def test_not_positive_definite_is_a_domain_error(self):
        # symmetric and finite, so the constructor accepts it; Cholesky does not
        cov = CovarianceMatrix(np.diag([0.5, 0.5, -1.0, 1.0]))
        with pytest.raises(DomainError, match="positive-definite"):
            williamson(cov.data)
        with pytest.raises(DomainError, match="positive-definite"):
            purification(cov.data[None])


def partner_blocks(partners, n: int) -> list:
    """The partner block of each of n matrices, from purification's (indices, blocks) groups."""
    out = [None] * n
    for idx, blocks in partners:
        for i, block in zip(idx.tolist(), blocks):
            out[i] = block
    return out


def entropy_and_negativity(block: np.ndarray) -> tuple[float, float]:
    """(H, negativity of mode 0 against the rest) of a system-first block, through the object API."""
    cov = CovarianceMatrix(block)
    neg = log_negativity(cov, ModeSubset.of([0], cov.n_modes)) if cov.n_modes > 1 else 0.0
    return von_neumann_entropy(cov), neg


def degenerate_pairs(seed: int, nu: float = 1.7) -> np.ndarray:
    """S u near where near holds two modes with the same Williamson eigenvalue nu, mixed with S by a random symplectic.

    It is the reduced state of S with two identical two-mode squeezed pairs.
    """
    t = random_symplectic(np.random.default_rng(seed), 3)
    return t @ np.diag([0.5, 0.5, nu, nu, nu, nu]) @ t.T


class TestPurification:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=3, max_value=9), near_mask=st.integers(min_value=0))
    def test_partners_stand_in_for_the_far_side(self, seed, n_modes, near_mask):
        # masks 1 .. 2^(n-1) - 2 leave neither side empty
        cov, near, far = split_pure_state(seed, n_modes, 1 + near_mask % (2 ** (n_modes - 1) - 2))
        joint = partial_trace(cov, ModeSubset.of((0,) + near, n_modes))
        nu, partners, _ = purification(joint.data[None])
        partner = CovarianceMatrix(partner_blocks(partners, 1)[0])
        direct = partial_trace(cov, ModeSubset.of((0,) + far, n_modes))
        assert partner.n_modes <= joint.n_modes + 1
        assert np.array_equal(partner.data[:2, :2], joint.data[:2, :2])
        got = log_negativity(partner, ModeSubset.of([0], partner.n_modes)) if partner.n_modes > 1 else 0.0
        assert got == pytest.approx(log_negativity(direct, ModeSubset.of([0], direct.n_modes)), abs=1e-10)
        assert von_neumann_entropy(partner) == pytest.approx(von_neumann_entropy(direct), abs=1e-10)
        # S u near u ancillas is pure, so H(near) = H(S u ancillas)
        near_block = partial_trace(cov, ModeSubset.of(near, n_modes))
        assert von_neumann_entropy(partner) == pytest.approx(von_neumann_entropy(near_block), abs=1e-10)
        # the Williamson eigenvalues give the joint block's entropy without a second spectrum
        assert _entropy_of_values(nu[0]) == pytest.approx(von_neumann_entropy(joint), abs=1e-10)

    def test_pure_state_has_no_partners(self, rng):
        cov = random_state(rng, 4, pure=True)
        partner = CovarianceMatrix(partner_blocks(purification(cov.data[None])[1], 1)[0])
        assert partner.n_modes == 1
        assert np.array_equal(partner.data, cov.data[:2, :2])

    def test_two_mode_squeezed_marginal(self):
        # one half of a two-mode squeezed vacuum is purified by a copy of the other
        tms = two_mode_squeezed(0.8)
        nu, partners, _ = purification(partial_trace(tms, ModeSubset.of([0], 2)).data[None])
        partner = CovarianceMatrix(partner_blocks(partners, 1)[0])
        assert partner.n_modes == 2
        assert log_negativity(partner, ModeSubset.of([0], 2)) == pytest.approx(1.6, rel=1e-12)
        assert nu[0] == pytest.approx([0.5 * np.cosh(1.6)], rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=8), n=st.integers(min_value=1, max_value=5))
    def test_stack_equals_one_matrix_at_a_time(self, seed, n_modes, n):
        rng = np.random.default_rng(seed)
        stack = np.array([random_state(rng, n_modes, pure=bool(rng.integers(2))).data for _ in range(n)])
        if n > 1:
            stack[-1] = degenerate_pairs(seed)[: 2 * n_modes, : 2 * n_modes] if n_modes <= 3 else stack[-1]
        nu, partners, transposes = purification(stack)
        blocks = partner_blocks(partners, n)
        nu_s, sym_s = williamson(stack)
        for i, sigma in enumerate(stack):
            nu_i, partners_i, transposes_i = purification(sigma[None])
            assert nu[i].tobytes() == nu_i[0].tobytes()
            assert blocks[i].tobytes() == partner_blocks(partners_i, 1)[0].tobytes()
            assert transposes[i].tobytes() == transposes_i[0].tobytes()
            assert nu_s[i].tobytes() == williamson(sigma)[0].tobytes()
            assert sym_s[i].tobytes() == williamson(sigma)[1].tobytes()


class TestRealPurification:
    """purification (real arithmetic) against the complex williamson's partners (oracles.complex_purification)."""

    @staticmethod
    def assert_matches_complex(stack):
        nu, partners, _ = purification(stack)
        nu_c, blocks_c = complex_purification(stack)
        scale = np.maximum(np.max(np.abs(stack), axis=(1, 2)), 1.0)
        assert np.all(np.abs(nu - nu_c) <= PURIFICATION_TOL * scale[:, None])
        # the two may differ by an ancilla of a mode that noise puts just past PURE_MODE_RTOL
        for block, block_c in zip(partner_blocks(partners, len(stack)), blocks_c):
            assert entropy_and_negativity(block) == pytest.approx(entropy_and_negativity(block_c), abs=PURIFICATION_TOL)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=3, max_value=9), near_mask=st.integers(min_value=0))
    def test_random_pure_states(self, seed, n_modes, near_mask):
        cov, near, _ = split_pure_state(seed, n_modes, 1 + near_mask % (2 ** (n_modes - 1) - 2))
        take_counts()
        self.assert_matches_complex(partial_trace(cov, ModeSubset.of((0,) + near, n_modes)).data[None])
        assert take_counts()["williamson_fallbacks"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_degeneracy_takes_the_repair(self, seed):
        take_counts()
        self.assert_matches_complex(degenerate_pairs(seed)[None])
        counts = take_counts()
        assert (counts["pairing_repairs"], counts["williamson_fallbacks"]) == (1, 0)

    def test_spread_past_the_gram_guard_takes_the_fallback(self):
        # S two-mode squeezed at s = 4 with a far mode, and a vacuum near mode:
        # S u near has nu = 1/2 and cosh(8)/2, a spread of 2981
        sigma = np.zeros((4, 4))
        sigma[:2, :2] = two_mode_squeezed(4.0).data[:2, :2]
        sigma[2:, 2:] = 0.5 * np.eye(2)
        take_counts()
        nu, partners, _ = purification(sigma[None])
        assert take_counts()["williamson_fallbacks"] == 1
        assert nu[0] == pytest.approx([0.5, 0.5 * np.cosh(8.0)], rel=1e-12)
        # the partner is a two-mode squeezed vacuum at s = 4: pure, up to the rounding of its scale 1.5e3
        h, neg = entropy_and_negativity(partner_blocks(partners, 1)[0])
        assert (h, neg) == pytest.approx((0.0, 8.0), abs=1e-8)
        self.assert_matches_complex(sigma[None])


class TestRestrictedTransposes:
    """The near side's partial transpose on mode 0 (purification's third result) against the whole-block oracles."""

    @staticmethod
    def restricted(stack) -> np.ndarray:
        """purification's partial-transpose spectra of a stack, checked against _transposed_spectra and a Cholesky of the flipped stack."""
        got = purification(stack)[2]
        for want in (_transposed_spectra(stack, _factor(stack)), stacked_spectra(flip_system(stack))):
            assert np.all(np.abs(got - want) <= RESTRICTED_RTOL * np.max(want, axis=1, keepdims=True))
            assert np.all(np.abs(_negativity_of_values(got) - _negativity_of_values(want)) <= RESTRICTED_NEG_TOL)
        return got

    @pytest.mark.parametrize("n_modes", range(3, 10))
    def test_every_split_of_a_random_pure_state(self, n_modes):
        for mask in range(1, 2 ** (n_modes - 1) - 1):
            cov, near, _ = split_pure_state(n_modes, n_modes, mask)
            self.restricted(partial_trace(cov, ModeSubset.of((0,) + near, n_modes)).data[None])

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=3, max_value=9), near_mask=st.integers(min_value=0))
    def test_random_pure_states(self, seed, n_modes, near_mask):
        cov, near, _ = split_pure_state(seed, n_modes, 1 + near_mask % (2 ** (n_modes - 1) - 2))
        self.restricted(partial_trace(cov, ModeSubset.of((0,) + near, n_modes)).data[None])

    def test_williamson_fallback_takes_the_whole_block(self):
        # TestRealPurification's spread past the Gram guard: the Williamson form falls back,
        # and the partial transpose is the whole block's, as _transposed_spectra gives it
        sigma = np.zeros((1, 4, 4))
        sigma[0, :2, :2] = two_mode_squeezed(4.0).data[:2, :2]
        sigma[0, 2:, 2:] = 0.5 * np.eye(2)
        take_counts()
        tilde = purification(sigma)[2]
        assert take_counts()["williamson_fallbacks"] == 1
        assert tilde.tobytes() == _transposed_spectra(sigma, _factor(sigma)).tobytes()


class TestModePairs:
    """_williamson's pairing (one Cholesky-QR per mixed count) against the pair-by-pair loop (oracles.mode_pairs_loop)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=3, max_value=9), n=st.integers(min_value=1, max_value=5))
    def test_random_pure_stacks(self, seed, n_modes, n):
        rng = np.random.default_rng(seed)
        stack = []
        for _ in range(n):
            cov, near, _ = split_pure_state(int(rng.integers(2**32)), n_modes, 1 + int(rng.integers(2 ** (n_modes - 1) - 2)))
            stack.append(partial_trace(cov, ModeSubset.of((0,) + near, n_modes)).data)
        size = min(len(block) for block in stack)  # blocks of one size: S and the first modes of each near side
        assert_pairs_match_loop(np.array([block[:size, :size] for block in stack]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_degeneracy_is_repaired_as_the_loop_repairs_it(self, seed):
        assert assert_pairs_match_loop(np.array([degenerate_pairs(seed)] * 2))["pairing_repairs"] == 2

    def test_non_positive_definite_gram_takes_the_complex_form(self, monkeypatch):
        # a zero second pair gives V V^T a zero pivot: cholesky fails for that matrix alone, its rows
        # are NaN, and it takes the counted complex fallback; the other matrices keep the real form
        stack = np.array([degenerate_pairs(seed) for seed in (1, 2, 3)])
        mode_pairs = gaussian_mod._mode_pairs

        def zero_second_pair(form, tops, nu):
            tops = tops.copy()
            tops[1, 1] = 0.0
            return mode_pairs(form, tops, nu)

        monkeypatch.setattr(gaussian_mod, "_mode_pairs", zero_second_pair)
        take_counts()
        nu, partners, _ = purification(stack)
        assert take_counts()["williamson_fallbacks"] == 1
        monkeypatch.setattr(gaussian_mod, "_mode_pairs", mode_pairs)
        want_nu, want_partners, _ = purification(stack)
        assert np.max(np.abs(nu - want_nu)) <= PURIFICATION_TOL
        for block, want in zip(partner_blocks(partners, 3), partner_blocks(want_partners, 3)):
            assert entropy_and_negativity(block) == pytest.approx(entropy_and_negativity(want), abs=PURIFICATION_TOL)


class TestTransposedSpectra:
    """The partial transpose on mode 0 from sigma's own factor, against a Cholesky of the flipped matrix."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=10), n=st.integers(min_value=1, max_value=4))
    def test_equals_spectra_of_the_flipped_stack(self, seed, n_modes, n):
        rng = np.random.default_rng(seed)
        stack = np.array([random_state(rng, n_modes, pure=bool(rng.integers(2))).data for _ in range(n)])
        got, want = _transposed_spectra(stack, _factor(stack)), stacked_spectra(flip_system(stack))
        assert np.all(np.abs(got - want) <= FLIP_RTOL * np.max(want, axis=1, keepdims=True))
        for i, sigma in enumerate(stack):
            assert got[i].tobytes() == _transposed_spectra(sigma[None], _factor(sigma[None]))[0].tobytes()

    def test_spread_past_the_gram_guard_takes_svd(self):
        sigma = two_mode_squeezed(3.0).data[None]
        take_counts()
        tilde = _transposed_spectra(sigma, _factor(sigma))[0]
        assert take_counts()["svd_fallbacks"] == 1
        assert tilde == pytest.approx([0.5 * np.exp(-6.0), 0.5 * np.exp(6.0)], rel=1e-12)


class TestNegativityOfValues:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=2, max_value=8), n=st.integers(min_value=1, max_value=5))
    def test_stack_equals_one_by_one(self, seed, n_modes, n):
        rng = np.random.default_rng(seed)
        stack = np.array([random_state(rng, n_modes, pure=bool(rng.integers(2))).data for _ in range(n)])
        tilde = _transposed_spectra(stack, _factor(stack))
        # the sum over the values below 1/2 alone, one spectrum at a time
        want = np.array([0.0 - np.sum(np.log(2.0 * row[row < 0.5 - NU_TOL])) for row in tilde])
        assert _negativity_of_values(tilde).tobytes() == want.tobytes()
        assert [_negativity_of_values(row) for row in tilde] == want.tolist()

    def test_separable_spectra_give_plus_zero(self):
        tilde = np.array([[0.5, 0.7], [0.5 - 0.5 * NU_TOL, 2.0], [0.5, 0.5]])
        got = _negativity_of_values(tilde)
        assert got.tobytes() == np.zeros(3).tobytes()  # +0.0, not -0.0
        assert not np.signbit(_negativity_of_values(tilde[0]))


class TestCheckPurity:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=10))
    def test_pure_states_pass(self, seed, n_modes):
        cov = random_state(np.random.default_rng(seed), n_modes, pure=True)
        assert check_purity(cov) <= 1e-12 * max(float(np.max(np.abs(cov.data))), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=10), pure=st.booleans())
    def test_square_matches_full_product(self, seed, n_modes, pure):
        sigma = random_state(np.random.default_rng(seed), n_modes, pure=pure).data
        got = _omega_times(_skew_product(sigma))
        omega_sigma = _omega_times(sigma)
        assert np.all(np.abs(got - dense_purity_square(sigma)) <= product_bound(omega_sigma, omega_sigma))

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=2, max_value=10))
    def test_bound_is_the_largest_row_sum(self, seed, n_modes):
        # modes 1e-10 to 1e-9 above 1/2 pass the gate and lift (Omega sigma)^2 + I/4 well above rounding
        rng = np.random.default_rng(seed)
        nus = 0.5 + rng.uniform(1e-10, 1e-9, size=n_modes)
        sym = random_symplectic(rng, n_modes)
        cov = CovarianceMatrix(sym @ np.diag(np.repeat(nus, 2)) @ sym.T)
        bound = check_purity(cov)
        defect = np.abs(dense_purity_square(cov.data) + 0.25 * np.eye(2 * n_modes))
        assert bound == pytest.approx(float(np.max(np.sum(defect, axis=1))), rel=1e-3)
        assert bound >= np.max(nus**2 - 0.25)

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n_modes=st.integers(min_value=1, max_value=10), lift=st.sampled_from([0.0, 1e-10, 1e-6]))
    def test_in_place_bound_matches_omega_copy(self, seed, n_modes, lift):
        # pure, slightly mixed (b well above rounding) and impure (1e-6) states
        rng = np.random.default_rng(seed)
        sym = random_symplectic(rng, n_modes)
        cov = CovarianceMatrix(sym @ np.diag(np.repeat(0.5 + lift * rng.uniform(1.0, 10.0, size=n_modes), 2)) @ sym.T)
        try:
            want = omega_copy_purity(cov)
        except ImpureState as exc:
            with pytest.raises(ImpureState, match=re.escape(str(exc))):
                check_purity(cov)
        else:
            assert check_purity(cov) == want

    def test_gate_is_relative_to_the_stored_scale(self):
        # |nu^2 - 1/4| = 1e-7 lies between PURITY_TOL and PURITY_TOL x scale (1e3)
        cov = CovarianceMatrix(np.diag([1e3, (0.25 + 1e-7) / 1e3]))
        assert cov.scale == 1e3
        assert check_purity(cov) == omega_copy_purity(cov) == pytest.approx(1e-7, rel=1e-6)

    def test_mixed_state_raises(self, rng):
        with pytest.raises(ImpureState):
            check_purity(random_state(rng, 3, pure=False))

    def test_nan_defect_raises(self):
        # an overflowing (Omega.sigma)^2 can read inf - inf = NaN; bypass the
        # constructor, which rejects non-finite input
        cov = vacuum(2)
        cov.data = np.full((4, 4), np.nan)
        with pytest.raises(ImpureState):
            check_purity(cov)

    def test_slightly_mixed_mode_raises(self):
        nus = np.array([0.5, 0.5 + 1e-6])
        with pytest.raises(ImpureState):
            check_purity(CovarianceMatrix(np.diag(np.repeat(nus, 2))))
