import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmlab.correlations import (
    FractionSampler,
    band_correlations,
    band_partition,
    default_f_grid,
    fraction_curves,
    fraction_plan,
    fraction_samples,
    pi_pe_plots,
    system_entropy,
)
from qbmlab.correlations import _blocks, _permutation, _pure_negativity, _system_nu
from qbmlab.config import parse_config
from qbmlab.errors import BadBandCount, DomainError, ImpureState
import qbmlab.correlations as correlations_mod
import qbmlab.gaussian as gaussian_mod
from qbmlab.gaussian import (
    NU_TOL,
    CovarianceMatrix,
    ModeSubset,
    _entropy_of_values,
    _factor,
    _negativity_of_values,
    _spectrum_of,
    _transposed_spectra,
    entropy_function,
    log_negativity,
    partial_trace,
    purification,
    take_counts,
    von_neumann_entropy,
)
from qbmlab.model import (
    BathSpec,
    SqueezedInitialState,
    discretize_bath,
    evolve,
    initial_covariance,
    make_propagator,
)
from qbmlab.runner import _sampler, simulation_pieces

from conftest import assert_pairs_match_loop, random_state
from oracles import (
    complex_purification,
    direct_bands,
    direct_correlations,
    direct_system_entropy,
    draw_blocks,
    exact_fraction_means,
    flip_system,
    mask_blocks,
    mask_samples,
    mask_split,
    sample_fraction,
    stacked_spectra,
)


#: nu_S = sqrt(det sigma_S) (_system_nu) against an oracle, in units of
#: eps x kappa x nu_S, where kappa = (|s00 s11| + s01^2) / nu_S^2 is the
#: condition of the determinant: s00 s11 and s01^2 each carry rounding of
#: half an eps, which their difference det = nu_S^2 keeps.  Against the
#: determinant in np.longdouble, measured at most 0.9 over 4,000 random
#: one-mode states (kappa up to 1.4e3), the desk states at r = -5 and 5 and
#: the rotated squeezed modes (kappa 1.1e4).
NU_S_DET_EPS = 2.0

#: The same against the spectral route (gaussian._spectrum_of, whose Cholesky
#: step s11 - s01^2 / s00 cancels as much): measured at most 1.9.
NU_S_SPECTRAL_EPS = 4.0

#: H(S) = h(nu_S) against the object path's H(S) (von_neumann_entropy of the
#: system block, through _spectrum_of): the two nu_S differ by the rounding
#: above; measured at most 1.1e-13 over 5,000 random states and 1.7e-14 on
#: the desk states at r = -5 and 5.
H_S_TOL = 1e-12

#: The f = 1 negativity is arccosh(2 sqrt(det sigma_S)), read off the 2 x 2
#: block, against the 151-mode spectrum of log_negativity: they differ by
#: rounding only, at most 4e-12 on the desk states at r = -5 and 5.
F_ONE_NEG_TOL = 1e-11

#: A band's negativity comes from the partial transpose of its block's own
#: Cholesky factor (gaussian._flip), the object path's from a Cholesky of the
#: flipped block.  On the desk states the two differ by at most 3.1e-14; the
#: tolerance is that of the curve files.
BAND_NEG_TOL = 1e-11

#: The same on random states, whose partial transposes reach the Gram guard:
#: both paths square the spectrum, so near a spread of 1e5 each nu~^2 carries
#: about 1e-16 x 1e5 relative error, and 1e-11 does not hold.  Measured over
#: 20,000 random states: median 4e-16, 99.9 % below 4.2e-12, largest 1.4e-11.
RANDOM_BAND_NEG_TOL = 3e-11

#: Desk blocks: real against complex purification (Williamson eigenvalues,
#: the partners' mutual information with S and negativity), and the partner
#: entropy against H(near).  The partner's entropy misses the modes that
#: PURE_MODE_RTOL leaves out; measured at most 3.1e-12 on the desk states,
#: and 3.8e-12 at 300 oscillators.  The same bound holds the sum of h(nu)
#: over the modes a sweep keeps against H(near) of the whole block
#: (TestSweep): measured at most 1.7e-12 on the desk states, 1.8e-12 at
#: 300 oscillators and 2.1e-12 at the 100-mode draws of a grid with
#: unmirrored upper points.
DESK_TOL = 1e-11

#: The partial-transpose spectrum from a block's own factor against a
#: Cholesky of the flipped block, relative to the largest value.
FLIP_RTOL = 1e-11

#: Desk blocks: the near side's partial transpose (purification's third
#: result) against _transposed_spectra and a Cholesky of the flipped block.
#: Each value within FLIP_RTOL of the largest, and the negativities within
#: this: a block's own factor and the flipped block's Cholesky differ by at
#: most 7.8e-14 against svd(K~) over the 9,600 draws of a desk run at r = -5.
RESTRICTED_NEG_TOL = 1e-12

#: I(f) + I(1 - f) = 2 H(S) for the exact uniform-subset means at N = 14 on
#: desk physics (t = 3 and 6, either unit): each draw's two sides sum to
#: 2 H(S) up to rounding; measured at most 6.9e-13.
EXACT_PURITY_TOL = 1e-11


#: fraction_samples (each near side read off the mixed modes its sample's
#: sweep kept) against the per-draw mask path (oracles.mask_samples: each
#: near side's whole block in ascending mode order) on the same nested
#: subsets.  Measured at most 1.7e-12 (300 oscillators), 1.4e-12 at the
#: desk points (r = 5, t = 10/39) and on uneven bands, and 8.4e-13 on
#: grids with unmirrored upper points.
NESTED_TOL = 1e-11

#: I(S : E_f) and the negativity of one sample along its nested draws (and
#: along their complements) never fall in exact arithmetic: strong
#: subadditivity, and monotonicity of the negativity under the partial
#: trace (Vidal & Werner, PRA 65, 032314 (2002)).  On the states of
#: TestNestedEstimator no step falls: the smallest rise is 9.8e-6.
MONOTONE_TOL = 1e-10

#: TestNestedEstimator: the largest |z| of a 40-seed nested mean against the
#: exact uniform-subset mean at N = 14 (about 100 points and measures); a
#: bound of 4.5 standard errors is exceeded by chance with probability
#: about 7e-4 under a normal law.  Measured at most 2.3 (mean |z| 0.5-1.0).
NESTED_Z = 4.5


def evolved_state(n_osc=24, t=2.0, r=-5.0, exponent=0.5, cutoff=20.0):
    spec = BathSpec(
        exponent=exponent, cutoff=cutoff, coupling=0.1, n_oscillators=n_osc, omega_s=3.0
    )
    bath = discretize_bath(spec)
    cov0 = initial_covariance(spec, bath, SqueezedInitialState.from_r(r, spec))
    return bath, evolve(make_propagator(spec, bath), cov0, t)


class TestBandPartition:
    def test_equal_counts(self):
        bands = band_partition(600, 30)
        sizes = [len(b) for b in bands.band_members]
        assert sizes == [20] * 30

    def test_remainder_to_lowest_bands(self):
        bands = band_partition(7, 3)
        assert [len(b) for b in bands.band_members] == [3, 2, 2]
        assert bands.band_members[0] == (1, 2, 3)

    def test_singleton_bands(self):
        bands = band_partition(5, 5)
        assert all(len(b) == 1 for b in bands.band_members)

    def test_cover_and_disjoint(self):
        bands = band_partition(23, 6)
        flat = [m for b in bands.band_members for m in b]
        assert sorted(flat) == list(range(1, 24))

    def test_bad_count(self):
        with pytest.raises(BadBandCount):
            band_partition(10, 11)
        with pytest.raises(BadBandCount):
            band_partition(10, 0)

    def test_single_band_mi_is_twice_system_entropy(self):
        bath, cov = evolved_state()
        bands = band_partition(24, 1, bath.frequencies)
        result = band_correlations(cov, bands, t=2.0)
        h_s = direct_system_entropy(cov)
        assert result.mi[0] == pytest.approx(2 * h_s, abs=1e-6)


class TestBandCorrelations:
    def test_product_state_zero(self):
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=12, omega_s=3.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        result = band_correlations(cov, band_partition(12, 4, bath.frequencies))
        assert np.allclose(result.mi, 0.0, atol=1e-9)
        assert np.allclose(result.neg, 0.0)

    def test_nonnegative_values(self):
        bath, cov = evolved_state()
        result = band_correlations(cov, band_partition(24, 8, bath.frequencies), t=2.0)
        assert np.all(result.mi >= -1e-9)
        assert np.all(result.neg >= 0.0)


class TestBandsAgainstDirectPath:
    """band_correlations equals the object path (direct_bands) given the same H(S): MI bit for bit, negativity within a named tolerance; H(S) itself matches the spectral route within H_S_TOL."""

    @staticmethod
    def assert_bitwise(cov, bands, neg_tol):
        h_s = system_entropy(cov)
        mi, neg = direct_bands(cov, h_s, bands)
        got = band_correlations(cov, bands)
        assert abs(h_s - direct_system_entropy(cov)) <= H_S_TOL
        assert got.mi.tobytes() == mi.tobytes()
        assert np.max(np.abs(got.neg - neg)) <= neg_tol

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bath=st.integers(min_value=1, max_value=9),
        pure=st.booleans(),
        data=st.data(),
    )
    def test_random_states(self, seed, n_bath, pure, data):
        cov = random_state(np.random.default_rng(seed), n_bath + 1, pure=pure)
        n_bands = data.draw(st.integers(min_value=1, max_value=n_bath))
        self.assert_bitwise(cov, band_partition(n_bath, n_bands), RANDOM_BAND_NEG_TOL)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t", [10.0 / 39.0, 5.128, 10.0])
    def test_desk_state(self, r, t):
        bath, cov = evolved_state(n_osc=150, t=t, r=r)
        # 29 bands hold 6 and 5 modes: two stacks of different block sizes
        for n_bands in (30, 29):
            self.assert_bitwise(cov, band_partition(150, n_bands, bath.frequencies), BAND_NEG_TOL)

    @pytest.mark.parametrize("n_bands", [1, 7, 24])
    def test_three_spectra_per_band(self, n_bands):
        # per band H(band), H(S u band) and the partial transpose of S u band; H(S) takes none
        bath, cov = evolved_state()
        take_counts()
        band_correlations(cov, band_partition(24, n_bands, bath.frequencies))
        assert take_counts()["spectra"] == 3 * n_bands


class TestSystemNu:
    """nu_S = sqrt(det sigma_S), the one nu_S of H(S) and of the f = 1 negativity."""

    @staticmethod
    def assert_matches_oracles(data):
        nu = _system_nu(data)
        s00, s11, s01 = data[0, 0], data[1, 1], data[0, 1]
        scale = np.finfo(float).eps * (abs(s00 * s11) + s01 * s01) / nu
        wide = np.longdouble
        assert abs(wide(nu) - np.sqrt(wide(s00) * wide(s11) - wide(s01) ** 2)) <= NU_S_DET_EPS * scale
        assert abs(nu - _spectrum_of(data[:2, :2], 0.0)[0]) <= NU_S_SPECTRAL_EPS * scale

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), pure=st.booleans())
    def test_random_one_mode_states(self, seed, pure):
        self.assert_matches_oracles(random_state(np.random.default_rng(seed), 1, pure=pure).data)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_rotated_squeezed_mode(self, r):
        # a squeezed vacuum rotated by 45 degrees: s00 s11 is about 1.4e3, det = 1/4
        rot = np.array([[1.0, -1.0], [1.0, 1.0]]) * np.sqrt(0.5)
        data = rot @ np.diag([0.5 * np.exp(r), 0.5 * np.exp(-r)]) @ rot.T
        assert data[0, 0] * data[1, 1] > 1e3
        self.assert_matches_oracles(data)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_desk_time_points(self, r):
        for t in np.linspace(0.0, 10.0, 40):
            self.assert_matches_oracles(evolved_state(n_osc=150, t=t, r=r)[1].data)

    @pytest.mark.parametrize(
        "system",
        [np.diag([0.4, 0.5]), np.diag([0.5 - 1e-8, 0.5]), np.array([[1.0, 1.0], [1.0, 0.5]])],
    )
    def test_unphysical_system_block_raises(self, system):
        data = 0.5 * np.eye(4)
        data[:2, :2] = system
        with pytest.raises(DomainError, match="determinant"):
            _system_nu(data)
        # band_correlations accepts any state, and reads H(S) first
        with pytest.raises(DomainError, match="determinant"):
            band_correlations(CovarianceMatrix(data), band_partition(1, 1))

    def test_nan_determinant_raises(self):
        data = 0.5 * np.eye(4)
        data[0, 0] = np.nan
        with pytest.raises(DomainError, match="determinant"):
            _system_nu(data)

    def test_clamp_band_is_a_pure_mode(self):
        data = 0.5 * np.eye(4)
        data[0, 0] = 0.5 - 1e-10  # det = (1/2 - 1e-10) / 2 is above (1/2 - NU_TOL)^2
        assert _system_nu(data) >= 0.5 - NU_TOL
        assert system_entropy(CovarianceMatrix(data)) == 0.0

    def test_f_one_end_points_read_one_nu(self, monkeypatch):
        # I(S : E) = 2 h(nu_S) and E(1) = arccosh(2 nu_S) at f = 1, with every nu_S from _system_nu
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        read = []

        def spy(data):
            read.append(_system_nu(data))
            return read[-1]

        monkeypatch.setattr(correlations_mod, "_system_nu", spy)
        mi_curve, neg_curve = pi_pe_plots(cov, FractionSampler(seed=2, samples_per_point=2))
        nu = read[0]
        assert len(read) == 2 and read[1] == nu
        assert nu > 1.0
        assert mi_curve.f_values[-1] == 1.0
        assert mi_curve.mean[-1] == 2.0 * mi_curve.h_system
        assert mi_curve.h_system == pytest.approx(entropy_function(nu), rel=1e-15)
        assert neg_curve.mean[-1] == pytest.approx(np.arccosh(2.0 * nu), rel=1e-14)


class TestDefaultFGrid:
    def test_shape_and_symmetry(self):
        grid = default_f_grid(150)
        assert grid[0] == pytest.approx(1.0 / 150)
        assert grid[-1] == 1.0
        assert 0.5 in grid
        ks = grid * 150
        assert np.allclose(ks, np.round(ks))
        interior = [f for f in grid if f < 1.0]
        for f in interior:
            assert any(abs((1.0 - f) - g) < 1e-12 for g in interior)

    def test_dense_near_edges(self):
        grid = default_f_grid(300)
        gaps = np.diff(grid)
        assert gaps[0] < gaps[len(gaps) // 2]

    def test_point_count_close_to_default(self):
        assert 20 <= len(default_f_grid(150)) <= 24
        assert len(default_f_grid(300)) == 24


class TestSampleFraction:
    def test_full_fraction_is_all_units(self):
        sampler = FractionSampler(seed=1)
        got = sample_fraction(sampler, 1.0, 9)
        assert got.indices == tuple(range(9))

    def test_deterministic(self):
        sampler = FractionSampler(seed=42)
        a = sample_fraction(sampler, 0.25, 40, sample_index=3, t_index=7)
        b = sample_fraction(sampler, 0.25, 40, sample_index=3, t_index=7)
        assert a.indices == b.indices

    def test_distinct_streams(self):
        sampler = FractionSampler(seed=42)
        a = sample_fraction(sampler, 0.25, 40, sample_index=0)
        b = sample_fraction(sampler, 0.25, 40, sample_index=1)
        assert a.indices != b.indices

    def test_draws_of_one_sample_are_nested(self):
        sampler = FractionSampler(seed=42)
        draws = [set(sample_fraction(sampler, k / 40, 40, sample_index=3, t_index=7).indices) for k in range(1, 41)]
        assert all(a < b for a, b in zip(draws, draws[1:]))

    def test_empty_fraction_rejected(self):
        # 0.01 of 10 units rounds to no unit
        with pytest.raises(DomainError):
            FractionSampler(seed=1, f_grid=np.array([0.01, 1.0])).grid_for(10)

    def test_uniform_marginal_frequencies(self):
        sampler = FractionSampler(seed=5)
        units, f, draws = 20, 0.25, 10_000
        counts = np.zeros(units)
        for i in range(draws):
            counts[list(sample_fraction(sampler, f, units, sample_index=i).indices)] += 1
        freq = counts / draws
        sigma = np.sqrt(f * (1 - f) / draws)
        assert np.all(np.abs(freq - f) <= 3 * sigma + 1e-12)


class TestPiPlot:
    def test_zero_curve_at_t_zero(self):
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=20, omega_s=3.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        curve = pi_pe_plots(cov, FractionSampler(seed=2, samples_per_point=4))[0]
        assert np.allclose(curve.mean, 0.0, atol=1e-9)

    def test_paired_symmetry_exact_per_sample(self):
        _, cov = evolved_state(t=3.0)
        sampler = FractionSampler(seed=11, samples_per_point=6)
        h_s = system_entropy(cov)
        values = fraction_samples(cov.data, h_s, sampler, range(6))
        # each draw's MI and its complement's, f = 1/2 included
        assert np.max(np.abs(values[0] + values[1] - 2 * h_s)) <= 1e-6

    def test_value_at_one_is_2hs_exactly(self):
        _, cov = evolved_state(t=2.0)
        curve = pi_pe_plots(cov, FractionSampler(seed=3, samples_per_point=2), t=2.0)[0]
        assert curve.mean[-1] == 2.0 * curve.h_system

    def test_mean_nonnegative_and_monotone_within_noise(self):
        _, cov = evolved_state(t=4.0)
        curve = pi_pe_plots(cov, FractionSampler(seed=9, samples_per_point=8), t=4.0)[0]
        assert np.all(curve.mean >= -1e-10)
        slack = 2 * (curve.stderr[1:] + curve.stderr[:-1])
        assert np.all(np.diff(curve.mean) >= -slack - 1e-9)

    def test_reproducible(self):
        _, cov = evolved_state(t=2.0)
        sampler = FractionSampler(seed=21, samples_per_point=3)
        a = pi_pe_plots(cov, sampler, t=2.0, t_index=5)[0]
        b = pi_pe_plots(cov, sampler, t=2.0, t_index=5)[0]
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.stderr, b.stderr)

    def test_custom_grid_must_be_representable(self):
        _, cov = evolved_state()
        sampler = FractionSampler(seed=1, f_grid=np.array([0.333, 1.0]))
        with pytest.raises(DomainError):
            pi_pe_plots(cov, sampler)

    def test_two_fractions_on_one_k_raise(self):
        # each within grid_for's 1e-9 of k = 75, so they would share one draw and leave a point empty
        sampler = FractionSampler(seed=1, f_grid=np.array([0.2, 0.5, 0.500000000005, 1.0]))
        with pytest.raises(DomainError, match=r"fractions 0\.5 and 0\.500000000005 are both k/150 with k = 75"):
            sampler.grid_for(150)


class TestPePlot:
    def test_zero_curve_at_t_zero(self):
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=20, omega_s=3.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        curve = pi_pe_plots(cov, FractionSampler(seed=2, samples_per_point=4))[1]
        assert np.allclose(curve.mean, 0.0)

    def test_f_one_equals_full_negativity(self):
        _, cov = evolved_state(t=2.0)
        curve = pi_pe_plots(cov, FractionSampler(seed=4, samples_per_point=2), t=2.0)[1]
        full = log_negativity(cov, ModeSubset.of([0], cov.n_modes))
        assert curve.mean[-1] == pytest.approx(full, rel=0, abs=F_ONE_NEG_TOL)
        assert curve.stderr[-1] == 0.0
        assert curve.n_samples[-1] == 1

    def test_small_fraction_entanglement_small(self):
        _, cov = evolved_state(t=2.0)
        curve = pi_pe_plots(cov, FractionSampler(seed=4, samples_per_point=6), t=2.0)[1]
        assert curve.mean[0] < 0.25 * curve.mean[-1]

    def test_band_unit_sampling(self):
        _, cov = evolved_state(n_osc=24, t=2.0)
        sampler = FractionSampler(seed=6, samples_per_point=3, unit="band", n_bands=8)
        curve = pi_pe_plots(cov, sampler, t=2.0)[1]
        assert curve.f_values[-1] == 1.0
        ks = curve.f_values * 8
        assert np.allclose(ks, np.round(ks))


class TestPlotStructure:
    def test_pi_plot_sharp_growth_then_plateau(self):
        # late-time dissipative curve: steep initial rise, flat middle
        _, cov = evolved_state(n_osc=48, t=5.0)
        curve = pi_pe_plots(cov, FractionSampler(seed=13, samples_per_point=10), t=5.0)[0]
        f, m = curve.f_values, curve.mean
        early = (m[2] - m[0]) / (f[2] - f[0])
        mid_lo = int(np.argmin(np.abs(f - 0.4)))
        mid_hi = int(np.argmin(np.abs(f - 0.6)))
        plateau = (m[mid_hi] - m[mid_lo]) / (f[mid_hi] - f[mid_lo])
        assert early > 5 * max(plateau, 1e-9)

    def test_super_ohmic_short_time_mi_at_high_frequencies(self):
        spec = BathSpec(exponent=3.0, cutoff=300.0, coupling=0.1, n_oscillators=150, omega_s=3.0)
        bath = discretize_bath(spec)
        cov0 = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        cov = evolve(make_propagator(spec, bath), cov0, 0.05)
        bc = band_correlations(cov, band_partition(150, 15, bath.frequencies), t=0.05)
        top = bc.band_edges[int(np.argmax(bc.mi))]
        assert top > 10 * spec.omega_s


def direct_samples(cov, sampler, t_index=0):
    """fraction_samples' array with every block extracted as drawn (the slow path), shape (4, samples, columns).

    Follows the engine's plan: draws at f <= 1/2, and at upper points
    without a mirror; each draw's complement is evaluated beside it.
    Nothing here relies on global purity: I(S : E) = H(S) + H(E) - H(S u E)
    and the negativity is read off S u E for E_f and E_c alike.
    """
    n = cov.n_modes
    grid = [float(f) for f in sampler.grid_for(n - 1)]
    h_s = direct_system_entropy(cov)
    drawn = [f for f in grid if f < 1.0 and (f <= 0.5 or not any(abs(g - (1.0 - f)) < 1e-9 for g in grid))]
    out = np.empty((4, sampler.samples_per_point, len(drawn)))
    for c, f in enumerate(drawn):
        for s_idx in range(sampler.samples_per_point):
            modes = tuple(i + 1 for i in sample_fraction(sampler, f, n - 1, s_idx, t_index).indices)
            rest = tuple(m for m in range(1, n) if m not in modes)
            out[[0, 2], s_idx, c] = direct_correlations(cov, h_s, modes)
            out[[1, 3], s_idx, c] = direct_correlations(cov, h_s, rest)
    return out


def assert_matches_direct(cov, sampler, t_index=0):
    got = fraction_samples(cov.data, system_entropy(cov), sampler, range(sampler.samples_per_point), t_index)
    want = direct_samples(cov, sampler, t_index)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10


class TestSmallerSideAgainstDirectPath:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bath=st.integers(min_value=2, max_value=9),
        ks=st.sets(st.integers(min_value=1, max_value=8), min_size=1),
    )
    def test_random_pure_states(self, seed, n_bath, ks):
        # any sub-grid, so unmirrored upper points (drawn on the larger side) occur too
        cov = random_state(np.random.default_rng(seed), n_bath + 1, pure=True)
        grid = sorted({k for k in ks if k < n_bath} | {n_bath})
        sampler = FractionSampler(seed=seed, samples_per_point=2, f_grid=np.array(grid) / n_bath)
        assert_matches_direct(cov, sampler)

    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_desk_state(self, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=-5.0)
        sampler = FractionSampler(seed=12345, samples_per_point=2)
        assert_matches_direct(cov, sampler, t_index=t_index)
        mi_curve, neg_curve = pi_pe_plots(cov, sampler, t=t, t_index=t_index)
        full = log_negativity(cov, ModeSubset.of([0], cov.n_modes))
        assert neg_curve.mean[-1] == pytest.approx(full, rel=0, abs=F_ONE_NEG_TOL)
        assert mi_curve.mean[-1] == 2.0 * mi_curve.h_system


class TestStackedEngine:
    """Stacks give the one-block-at-a-time results bit for bit, and the direct path within 1e-10."""

    @staticmethod
    def assert_stacking_changes_no_bit(cov, sampler, t_index=0):
        # every sample evaluated alone, so each of its steps and splits runs in a stack of one
        every = range(sampler.samples_per_point)
        h_s = system_entropy(cov)
        whole = fraction_samples(cov.data, h_s, sampler, every, t_index)
        alone = np.concatenate([fraction_samples(cov.data, h_s, sampler, range(i, i + 1), t_index) for i in every], axis=1)
        assert alone.shape == whole.shape
        assert alone.tobytes() == whole.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bath=st.integers(min_value=2, max_value=9),
        ks=st.sets(st.integers(min_value=1, max_value=8), min_size=1),
        band=st.booleans(),
    )
    def test_random_pure_states(self, seed, n_bath, ks, band):
        cov = random_state(np.random.default_rng(seed), n_bath + 1, pure=True)
        units = max(2, n_bath // 2) if band else n_bath  # uneven bands give draws of unequal size
        grid = sorted({k for k in ks if k < units} | {units})
        sampler = FractionSampler(
            seed=seed,
            samples_per_point=5,
            f_grid=np.array(grid) / units,
            unit="band" if band else "oscillator",
            n_bands=units if band else None,
        )
        self.assert_stacking_changes_no_bit(cov, sampler)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_desk_state(self, r, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        sampler = FractionSampler(seed=54321, samples_per_point=2)
        self.assert_stacking_changes_no_bit(cov, sampler, t_index)
        assert_matches_direct(cov, sampler, t_index=t_index)
        neg_curve = pi_pe_plots(cov, sampler, t=t, t_index=t_index)[1]
        full = log_negativity(cov, ModeSubset.of([0], cov.n_modes))
        assert neg_curve.mean[-1] == pytest.approx(full, rel=0, abs=F_ONE_NEG_TOL)

    def test_desk_time_point_memory(self):
        # the sweep holds each sample's kept modes and one step's blocks of at most about 33
        # modes: a desk time point's 20 samples peak at 3.6-4.1 MB under tracemalloc (seeds 1-3)
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=1, samples_per_point=20)
        h_s = system_entropy(cov)
        tracemalloc.start()
        try:
            fraction_samples(cov.data, h_s, sampler, range(20), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_memory_at_600_oscillators(self):
        # one step adds the 240 modes between k = 60 and 300, a block of about 255 modes per
        # sample: 2 samples peak at 11.0-21.4 MB under tracemalloc (seeds 1-3)
        _, cov = evolved_state(n_osc=600, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=1, samples_per_point=2, f_grid=np.array([0.1, 0.5, 1.0]))
        h_s = system_entropy(cov)
        tracemalloc.start()
        try:
            fraction_samples(cov.data, h_s, sampler, range(2), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


def assert_group_matches_each_time(covs, sampler, t_indices, sample_indices):
    """fraction_samples of a stack of states, one call, against one call per state: bit for bit, with the same counts but williamson_stacks."""
    h_s = [system_entropy(cov) for cov in covs]
    take_counts()
    alone = np.array([fraction_samples(cov.data, h, sampler, sample_indices, i) for cov, h, i in zip(covs, h_s, t_indices)])
    each = take_counts()
    group = fraction_samples(np.array([cov.data for cov in covs]), np.array(h_s), sampler, sample_indices, list(t_indices))
    together = take_counts()
    assert group.shape == alone.shape
    assert group.tobytes() == alone.tobytes()
    assert together["williamson_stacks"] < each["williamson_stacks"]
    for counts in (each, together):
        del counts["williamson_stacks"]
    assert together == each


class TestTimeGroups:
    """One fraction_samples call over the rows of several time points gives each time point's call bit for bit."""

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_desk_curves_times(self, r):
        covs = [evolved_state(n_osc=150, t=t, r=r)[1] for t in (10.0 / 39.0, 5.128, 10.0)]
        assert_group_matches_each_time(covs, FractionSampler(seed=3, samples_per_point=6), (1, 20, 39), range(6))

    def test_uneven_bands(self):
        # 150 modes in 29 bands of 6 and 5: some near sides are complements below f = 1/2
        covs = [evolved_state(n_osc=150, t=t, r=-5.0)[1] for t in (3.0, 5.128)]
        sampler = FractionSampler(seed=7, samples_per_point=4, unit="band", n_bands=29)
        assert_group_matches_each_time(covs, sampler, (12, 20), range(1, 4))

    def test_unmirrored_upper_point(self):
        covs = [evolved_state(n_osc=150, t=t, r=-5.0)[1] for t in (5.128, 10.0, 2.0)]
        sampler = FractionSampler(seed=7, samples_per_point=4, f_grid=np.array([2, 30, 75, 100, 120, 150]) / 150)
        assert_group_matches_each_time(covs, sampler, (20, 39, 8), range(4))

    def test_memory_of_one_task_at_600_oscillators(self):
        # a pool task of 10 samples at 3 time points, all rows in one call: the sweep cuts each
        # step's stack at STACK_BYTES per block, so the 30 rows peak at 15.8-16.8 MB under
        # tracemalloc (seeds 1-3; each time point's call alone 14.1-15.1 MB), and 28.3-29.1 MB uncut
        covs = [evolved_state(n_osc=600, t=t, r=-5.0)[1] for t in (10.0 / 39.0, 5.128, 10.0)]
        states, h_s = np.array([cov.data for cov in covs]), np.array([system_entropy(cov) for cov in covs])
        del covs
        sampler = FractionSampler(seed=1, samples_per_point=10)
        tracemalloc.start()
        try:
            fraction_samples(states, h_s, sampler, range(10), [1, 20, 39])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def assert_restricted_matches(joints, transposes):
    """purification's partial transposes of a stack of S u near blocks against both whole-block oracles."""
    for want in (_transposed_spectra(joints, _factor(joints)), stacked_spectra(flip_system(joints))):
        assert np.all(np.abs(transposes - want) <= FLIP_RTOL * np.max(want, axis=1, keepdims=True))
        assert np.all(np.abs(_negativity_of_values(transposes) - _negativity_of_values(want)) <= RESTRICTED_NEG_TOL)


class TestDeskBlocks:
    """The kernels of _split on S u near blocks of desk states at r = -5 and 5, against their oracles."""

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_against_oracles(self, r, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        sampler = FractionSampler(seed=3, samples_per_point=2)
        take_counts()
        orders = np.array([_permutation(sampler, 150, s_idx, t_index) for s_idx in range(2)]) + 1
        for size in (1, 15, 75):
            joints = _blocks(cov.data, orders[:, :size])  # nested draws, modes in draw order
            nu, partners, transposes = purification(joints)
            assert_restricted_matches(joints, transposes)
            nu_c, blocks_c = complex_purification(joints)
            assert np.max(np.abs(nu - nu_c)) <= DESK_TOL
            for idx, blocks in partners:
                for i, block in zip(idx.tolist(), blocks):
                    h, neg = direct_correlations(CovarianceMatrix(block), 0.0, tuple(range(1, len(block) // 2)))
                    h_c, neg_c = direct_correlations(CovarianceMatrix(blocks_c[i]), 0.0, tuple(range(1, len(blocks_c[i]) // 2)))
                    near = CovarianceMatrix(joints[i, 2:, 2:])
                    # H(near) = H(S u ancillas), since S u near u ancillas is pure
                    assert abs(von_neumann_entropy(CovarianceMatrix(block)) - von_neumann_entropy(near)) <= DESK_TOL
                    assert abs(h - h_c) <= DESK_TOL and abs(neg - neg_c) <= DESK_TOL
            # the partial transpose from each block's own factor
            tilde, want = _transposed_spectra(joints, _factor(joints)), stacked_spectra(flip_system(joints))
            assert np.all(np.abs(tilde - want) <= FLIP_RTOL * np.max(want, axis=1, keepdims=True))
        assert take_counts()["williamson_fallbacks"] == 0

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_pairing_of_every_stack_against_the_loop(self, r, t_index, t):
        # every Williamson stack of a desk time point's sweep and splits, paired at once per mixed
        # count, against the pair-by-pair loop (oracles.loop_williamson) on the same eigenvectors
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        williamson, stacks = gaussian_mod._williamson, []

        def spy(stack, factor, scales):
            stacks.append(stack)
            return williamson(stack, factor, scales)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian_mod, "_williamson", spy)
            fraction_samples(cov.data, system_entropy(cov), FractionSampler(seed=3, samples_per_point=4), range(4), t_index)
        repairs = sum(assert_pairs_match_loop(stack)["pairing_repairs"] for stack in stacks)
        assert repairs > 0  # the desk blocks hold near-degenerate clusters

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_partner_entropy_at_300_oscillators(self, r, t_index, t):
        # H(near) = H(S u ancillas) on blocks of up to 151 modes: the modes that
        # PURE_MODE_RTOL leaves without an ancilla carry no entropy that shows
        _, cov = evolved_state(n_osc=300, t=t, r=r)
        sampler = FractionSampler(seed=3, samples_per_point=2)
        orders = np.array([_permutation(sampler, 300, s_idx, t_index) for s_idx in range(2)]) + 1
        for size in (1, 30, 150):
            joints = _blocks(cov.data, orders[:, :size])
            _, partners, transposes = purification(joints)
            assert_restricted_matches(joints, transposes)
            for idx, blocks in partners:
                for i, block in zip(idx.tolist(), blocks):
                    near = CovarianceMatrix(joints[i, 2:, 2:])
                    assert abs(von_neumann_entropy(CovarianceMatrix(block)) - von_neumann_entropy(near)) <= DESK_TOL


class TestDrawCost:
    @pytest.mark.parametrize("complement", [False, True])
    @pytest.mark.parametrize("n_drawn", range(1, 8))
    def test_blocks_are_those_split_takes(self, rng, n_drawn, complement):
        # a draw and its complement take the blocks of the smaller side and
        # return both sides, in swapped order
        cov = random_state(rng, 9, pure=True)
        drawn = np.zeros((1, 8), dtype=bool)
        drawn[0, :n_drawn] = True
        mask = ~drawn if complement else drawn
        joint = draw_blocks(n_drawn, 8)  # a draw and its complement share the smaller side's size
        h_s = system_entropy(cov)
        # each partner block (S and one ancilla per mixed mode of S u near) takes a partial
        # transpose, which the model leaves out, and the mask path takes H(near) from the near
        # block's own spectrum, where the sweep sums h(nu) over the modes it kept
        ((_, blocks),) = purification(mask_blocks(cov.data, mask if 2 * np.count_nonzero(mask) <= 8 else ~mask))[1]
        partner_cost, near_cost = len(blocks[0]) ** 3, (joint - 2) ** 3
        take_counts()
        values = mask_split(cov.data, h_s, mask)
        counts = take_counts()
        assert counts["williamson"] == counts["williamson_stacks"] == 1
        assert counts["spectra"] == 1 + 1 + 1 + 1
        assert counts["block_cost"] - partner_cost - near_cost == 2 * joint**3
        assert not np.any(np.isnan(values))
        if complement:
            # bit for bit from the same smaller side; an even split takes the other
            # half, within the direct path's 1e-10
            swapped = mask_split(cov.data, h_s, drawn)[[1, 0, 3, 2]]
            tol = 0.0 if 2 * n_drawn != 8 else 1e-10
            assert np.max(np.abs(values - swapped)) <= tol


class TestExactSubsetMeans:
    """The sampler against the exact mean over every subset (oracles.exact_fraction_means), at N = 14 on desk physics."""

    @pytest.mark.parametrize("unit", ["oscillator", "band"])
    @pytest.mark.parametrize("t_index, t", [(12, 3.0), (23, 6.0)])  # the draw keys of the nearest desk times
    def test_sampled_means_against_exact(self, unit, t_index, t):
        cfg = parse_config(overrides=dict(profile="desk", n_oscillators=14, n_bands=7, unit=unit), env={})
        _, _, prop, cov0 = simulation_pieces(cfg)
        cov = evolve(prop, cov0, t)
        sampler, h_s = _sampler(cfg), system_entropy(cov)
        mean, sd = exact_fraction_means(cov.data, h_s, sampler)
        # within 4 exact standard errors of a mean of 20 draws; at f = 1/2, whose 40 values are 20
        # draws and their complements, sd / sqrt(20) bounds the standard error from above.  The
        # curves' own 20-sample stderr is not used: where one mode carries most of the negativity,
        # 20 draws of k = 1 miss it often, and the sample spread then understates the error
        for curve, m, s in zip(pi_pe_plots(cov, sampler, t=t, t_index=t_index), mean, sd):
            assert np.all(np.abs(curve.mean - m) <= 4 * s / np.sqrt(cfg.samples)), curve.measure
        # tracing out part of E_f raises neither I(S : E_f) nor the negativity, so the exact curves rise with f
        assert np.all(np.diff(mean, axis=1) >= 0.0)
        # the grid is every k / units, so reversing the points f < 1 pairs each f with 1 - f
        units = sampler.n_units(cfg.n_oscillators)
        assert np.array_equal(np.rint(sampler.grid_for(cfg.n_oscillators) * units), np.arange(1, units + 1))
        mi = mean[0, :-1]
        assert np.max(np.abs(mi + mi[::-1] - 2.0 * h_s)) <= EXACT_PURITY_TOL


def assert_matches_mask_path(cov, sampler, t_index):
    """fraction_samples against oracles.mask_samples on the same nested subsets: NESTED_TOL, no fallback, smaller blocks."""
    h_s = system_entropy(cov)
    every = range(sampler.samples_per_point)
    take_counts()
    got = fraction_samples(cov.data, h_s, sampler, every, t_index)
    fast = take_counts()
    want = mask_samples(cov.data, h_s, sampler, every, t_index)
    slow = take_counts()
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= NESTED_TOL
    for counts in (fast, slow):
        assert counts["williamson_fallbacks"] == 0
    # the sweep's steps and splits cost less than one whole near side per draw, and every
    # kept mode came out of a step block
    assert fast["block_cost"] < slow["block_cost"]
    assert 0 < fast["kept_modes_max"] <= fast["block_modes_max"]


class TestNestedAgainstMaskPath:
    """The sweep's kept modes against the per-draw mask path (the oracle), on the same nested subsets."""

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_desk_state(self, r, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        assert_matches_mask_path(cov, FractionSampler(seed=3, samples_per_point=4), t_index)

    def test_300_oscillators(self):
        _, cov = evolved_state(n_osc=300, t=5.128, r=-5.0)
        assert_matches_mask_path(cov, FractionSampler(seed=3, samples_per_point=2), 20)

    @pytest.mark.parametrize("f_grid", [None, np.array([3, 10, 17, 20, 29]) / 29])
    def test_uneven_bands(self, f_grid):
        # 150 modes in 29 bands of 6 and 5; the custom grid's unmirrored 17/29 and 20/29 draw more than half
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=7, samples_per_point=4, unit="band", n_bands=29, f_grid=f_grid)
        assert_matches_mask_path(cov, sampler, 20)

    def test_unmirrored_upper_points_sweep_forward(self):
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=7, samples_per_point=4, f_grid=np.array([2, 30, 75, 100, 120, 150]) / 150)
        assert [mirror for _, mirror in fraction_plan(sampler.grid_for(150), 150)] == [None, 0.8, 0.5, None, None]
        assert_matches_mask_path(cov, sampler, 20)

    def test_draw_of_more_than_half_the_modes_below_one_half(self):
        # 3 modes in 2 bands of 2 and 1: f = 1/2 draws one band, and where that is the first band
        # the draw holds 2 of the 3 modes; the sweep takes it forward like any other draw
        cov = random_state(np.random.default_rng(11), 4, pure=True)
        sampler = FractionSampler(seed=5, samples_per_point=6, unit="band", n_bands=2, f_grid=np.array([0.5, 1.0]))
        firsts = [_permutation(sampler, 2, s_idx, 2)[0] for s_idx in range(6)]
        assert 0 in firsts and 1 in firsts  # draws of 2 modes and of 1
        h_s = system_entropy(cov)
        take_counts()
        got = fraction_samples(cov.data, h_s, sampler, range(6), 2)
        assert take_counts()["williamson_fallbacks"] == 0
        want = mask_samples(cov.data, h_s, sampler, range(6), 2)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= NESTED_TOL

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bath=st.integers(min_value=2, max_value=9),
        band=st.booleans(),
        data=st.data(),
    )
    def test_random_pure_states(self, seed, n_bath, band, data):
        cov = random_state(np.random.default_rng(seed), n_bath + 1, pure=True)
        units = data.draw(st.integers(min_value=2, max_value=n_bath)) if band else n_bath
        ks = data.draw(st.sets(st.integers(min_value=1, max_value=units - 1), min_size=1))
        sampler = FractionSampler(
            seed=seed,
            samples_per_point=3,
            f_grid=np.array(sorted(ks | {units})) / units,
            unit="band" if band else "oscillator",
            n_bands=units if band else None,
        )
        h_s = system_entropy(cov)
        got = fraction_samples(cov.data, h_s, sampler, range(3), 2)
        want = mask_samples(cov.data, h_s, sampler, range(3), 2)
        assert np.max(np.abs(got - want)) <= 1e-10


def drawn_points(sampler: FractionSampler, n_bath: int) -> int:
    """How many grid points of the plan are drawn (every one but f = 1)."""
    units = sampler.n_units(n_bath)
    return sum(round(f * units) < units for f, _ in fraction_plan(sampler.grid_for(n_bath), units))


class TestSweep:
    """What the sweep assumes: the pure modes it drops carry no entropy, and a step that fails its check takes the counted fallback."""

    @staticmethod
    def kept_entropies(cov, sampler, t_index):
        """(sum of h(nu) over the kept modes, H(near) of the object API) at every drawn grid point of every sample."""
        sweep, seen = correlations_mod._sweep, []

        def spy(data, state, modes, sizes):
            assert np.all(np.diff(sizes, axis=1) > 0)  # every row's drawn prefixes rise strictly
            out = sweep(data, state, modes, sizes)
            seen.append((modes, sizes, out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlations_mod, "_sweep", spy)
            fraction_samples(cov.data, system_entropy(cov), sampler, range(sampler.samples_per_point), t_index)
        got, want = [], []
        for modes, sizes, out in seen:
            for joints, rows, c in out:
                for joint, s in zip(joints, rows.tolist()):
                    # the kept modes' block is diag(nu, nu, ...) after S's two rows
                    got.append(_entropy_of_values(np.diagonal(joint)[2::2]))
                    near = ModeSubset.of(modes[s, : sizes[s, c]].tolist(), cov.n_modes)
                    want.append(von_neumann_entropy(partial_trace(cov, near)))
        assert len(got) == sampler.samples_per_point * drawn_points(sampler, cov.n_modes - 1)
        return np.array(got), np.array(want)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_kept_modes_hold_the_near_entropy(self, r, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        got, want = self.kept_entropies(cov, FractionSampler(seed=3, samples_per_point=4), t_index)
        assert np.max(np.abs(got - want)) <= DESK_TOL

    def test_kept_modes_hold_the_near_entropy_at_300_oscillators(self):
        _, cov = evolved_state(n_osc=300, t=5.128, r=-5.0)
        got, want = self.kept_entropies(cov, FractionSampler(seed=3, samples_per_point=2), 20)
        assert np.max(np.abs(got - want)) <= DESK_TOL

    def test_forward_sweep_of_unmirrored_upper_points(self):
        # f = 100/150 has no mirror on the grid: its near side is the first 100 modes of each
        # order, which the sweep reaches forward, as it does every other draw
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=7, samples_per_point=4, f_grid=np.array([2, 30, 75, 100, 120, 150]) / 150)
        got, want = self.kept_entropies(cov, sampler, 20)
        assert np.max(np.abs(got - want)) <= DESK_TOL

    def test_failed_step_check_takes_the_complex_form(self):
        # no defect passes a negative WILLIAMSON_RTOL, so every step falls back to
        # _complex_williamson; the splits keep the real form
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=3, samples_per_point=4)
        h_s = system_entropy(cov)
        mixed_modes, steps = correlations_mod._mixed_modes, []

        def failing(stack, cross):
            steps.append(len(stack))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gaussian_mod, "WILLIAMSON_RTOL", -1.0)
                return mixed_modes(stack, cross)

        take_counts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(correlations_mod, "_mixed_modes", failing)
            got = fraction_samples(cov.data, h_s, sampler, range(4), 20)
        counts = take_counts()
        assert counts["williamson_fallbacks"] == sum(steps) > 0
        want = mask_samples(cov.data, h_s, sampler, range(4), 20)
        assert np.max(np.abs(got - want)) <= NESTED_TOL


    def test_non_positive_definite_gram_takes_the_complex_form(self):
        # zero the second pair of every stack of mixed count 2 or more: its V V^T has a zero pivot,
        # so cholesky fails for those matrices alone and each takes the counted complex fallback
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=3, samples_per_point=4)
        h_s = system_entropy(cov)
        mode_pairs, forced = gaussian_mod._mode_pairs, []

        def zero_second_pair(form, tops, nu):
            if tops.shape[1] > 1:
                tops = tops.copy()
                tops[:, 1] = 0.0
                forced.append(len(tops))
            return mode_pairs(form, tops, nu)

        take_counts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian_mod, "_mode_pairs", zero_second_pair)
            got = fraction_samples(cov.data, h_s, sampler, range(4), 20)
        assert take_counts()["williamson_fallbacks"] == sum(forced) > 0
        want = mask_samples(cov.data, h_s, sampler, range(4), 20)
        assert np.max(np.abs(got - want)) <= NESTED_TOL


def nested_chains(values: np.ndarray, h_s: float, e_full: float) -> list[np.ndarray]:
    """Per measure, each sample's values along its draws (k ascending) and along their complements (size ascending), as (points, samples) arrays; f = 1 (2 H(S), E(1)) ends both."""
    chains = []
    for row, top in ((0, 2.0 * h_s), (2, e_full)):
        end = np.full((1, values.shape[1]), top)
        chains += [np.concatenate((values[row].T, end)), np.concatenate((values[row + 1].T[::-1], end))]
    return chains


class TestNestedEstimator:
    """Nested draws keep the uniform-subset estimand, and each sample's values rise along its draws."""

    @pytest.mark.parametrize("unit", ["oscillator", "band"])
    @pytest.mark.parametrize("t_index, t", [(12, 3.0), (23, 6.0)])
    def test_means_over_many_seeds_against_exact(self, unit, t_index, t):
        # every grid point's draw is a uniform k-subset, so the mean over 40 seeds x 20 samples
        # (800 draws per point) lies within NESTED_Z exact standard errors of the exact mean; at
        # f = 1/2, whose values pair draws with complements, sd / sqrt(800) bounds it from above
        cfg = parse_config(overrides=dict(profile="desk", n_oscillators=14, n_bands=7, unit=unit), env={})
        _, _, prop, cov0 = simulation_pieces(cfg)
        cov = evolve(prop, cov0, t)
        sampler, h_s = _sampler(cfg), system_entropy(cov)
        mean, sd = exact_fraction_means(cov.data, h_s, sampler)
        seeds = 40
        total = np.zeros_like(mean)
        for seed in range(seeds):
            nested = FractionSampler(seed=1000 + seed, samples_per_point=cfg.samples, unit=unit, n_bands=cfg.n_bands)
            total += [curve.mean for curve in pi_pe_plots(cov, nested, t_index=t_index)]
        err = np.where(sd > 0, np.abs(total / seeds - mean) / np.maximum(sd, 1e-300) * np.sqrt(seeds * cfg.samples), 0.0)
        assert np.all(err <= NESTED_Z), float(np.max(err))
        assert np.all(np.abs(total[:, -1] / seeds - mean[:, -1]) <= 1e-12)  # f = 1 is exact

    @pytest.mark.parametrize(
        "n_osc, unit, n_bands, f_grid",
        [
            (14, "oscillator", None, None),
            (14, "band", 5, None),  # bands of 3, 3, 3, 3 and 2
            (150, "oscillator", None, None),
            (150, "oscillator", None, np.array([2, 30, 75, 100, 120, 150]) / 150),
            (150, "band", 29, None),
        ],
    )
    @pytest.mark.parametrize("t_index, t", [(12, 3.0), (23, 6.0)])
    def test_each_sample_rises_along_its_draws(self, n_osc, unit, n_bands, f_grid, t_index, t):
        _, cov = evolved_state(n_osc=n_osc, t=t, r=-5.0)
        sampler = FractionSampler(seed=5, samples_per_point=20 if n_osc < 100 else 4, f_grid=f_grid, unit=unit, n_bands=n_bands)
        h_s = system_entropy(cov)
        values = fraction_samples(cov.data, h_s, sampler, range(sampler.samples_per_point), t_index)
        for chain in nested_chains(values, h_s, _pure_negativity(cov.data)):
            assert np.all(np.diff(chain, axis=0) >= -MONOTONE_TOL), float(np.min(np.diff(chain, axis=0)))


class TestFractionPlan:
    def test_desk_grid(self):
        grid = default_f_grid(150)
        plan = fraction_plan(grid, 150)
        assert [f for f, _ in plan] == [f for f in grid if f <= 0.5] + [1.0]
        assert all(mirror == pytest.approx(1.0 - f) for f, mirror in plan[:-1])
        assert plan[-1] == (1.0, None)
        assert dict(plan)[0.5] == 0.5

    def test_unmirrored_upper_points_are_drawn(self):
        plan = fraction_plan(np.array([1, 2, 5, 6, 8]) / 8, 8)
        assert plan == [(0.125, None), (0.25, 0.75), (0.625, None), (1.0, None)]


class TestChunkedPlan:
    """Any cut of the sample indices into slices, evaluated in any order and merged in slice order, gives pi_pe_plots bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_bath=st.integers(min_value=2, max_value=9),
        band=st.booleans(),
        data=st.data(),
    )
    def test_any_split_any_order(self, seed, n_bath, band, data):
        cov = random_state(np.random.default_rng(seed), n_bath + 1, pure=True)
        # bands of unequal size when units does not divide n_bath
        units = data.draw(st.integers(min_value=2, max_value=n_bath)) if band else n_bath
        ks = data.draw(st.sets(st.integers(min_value=1, max_value=units - 1)))
        samples = data.draw(st.integers(min_value=1, max_value=6))
        sampler = FractionSampler(
            seed=seed,
            samples_per_point=samples,
            f_grid=np.array(sorted(ks | {units})) / units,
            unit="band" if band else "oscillator",
            n_bands=units if band else None,
        )
        want = pi_pe_plots(cov, sampler, t=1.5, t_index=4)

        between = data.draw(st.lists(st.booleans(), min_size=samples - 1, max_size=samples - 1))
        cuts = [0] + [i + 1 for i, cut in enumerate(between) if cut] + [samples]
        slices = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        h_s = system_entropy(cov)
        parts = {}
        for j in data.draw(st.permutations(range(len(slices)))):
            parts[j] = fraction_samples(cov.data, h_s, sampler, slices[j], t_index=4)
        values = np.concatenate([parts[j] for j in range(len(slices))], axis=1)
        got = fraction_curves(sampler.grid_for(n_bath), units, values, h_s, _pure_negativity(cov.data), t=1.5)

        for mine, curve in zip(got, want, strict=True):
            assert mine.measure == curve.measure
            for name in ("f_values", "mean", "stderr", "n_samples"):
                assert getattr(mine, name).tobytes() == getattr(curve, name).tobytes(), name
            assert mine.h_system == curve.h_system

    @pytest.mark.parametrize("indices", [range(5), range(2, 5), range(4, 5)])
    def test_f_one_from_any_slice(self, indices):
        # f = 1 is 2 H(S) and E(1), one value each, whichever samples the values hold
        cov = random_state(np.random.default_rng(3), 7, pure=True)
        sampler = FractionSampler(seed=3, samples_per_point=5, f_grid=np.array([1, 3, 5, 6]) / 6)
        h_s, e_full = system_entropy(cov), _pure_negativity(cov.data)
        values = fraction_samples(cov.data, h_s, sampler, indices)
        n = len(indices)
        for curve, top in zip(fraction_curves(sampler.grid_for(6), 6, values, h_s, e_full), (2.0 * h_s, e_full)):
            assert (curve.f_values[-1], curve.mean[-1], curve.stderr[-1]) == (1.0, top, 0.0)
            assert curve.n_samples.tolist() == [n, 2 * n, n, 1]


class TestImpureState:
    def test_rejected_before_any_spectrum(self, rng):
        # the f = 1 closed form holds for pure states only, so purity is checked first
        cov = random_state(rng, 7, pure=False)
        take_counts()
        with pytest.raises(ImpureState):
            pi_pe_plots(cov, FractionSampler(seed=1, samples_per_point=2))
        assert take_counts()["spectra"] == 0

    def test_fraction_plots_reject_it(self, rng):
        cov = random_state(rng, 7, pure=False)
        for sampler in (
            FractionSampler(seed=1, samples_per_point=2, f_grid=np.array([0.5, 1.0])),
            FractionSampler(seed=1, samples_per_point=2, unit="band", n_bands=3),
        ):
            with pytest.raises(ImpureState):
                pi_pe_plots(cov, sampler)

    def test_band_correlations_accept_it(self, rng):
        cov = random_state(rng, 7, pure=False)
        result = band_correlations(cov, band_partition(6, 3))
        assert np.all(np.isfinite(result.mi))
        assert np.all(result.neg >= 0.0)
