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
from qbmlab.correlations import _blocks, _draw, _split
from qbmlab.errors import BadBandCount, DomainError, ImpureState
import qbmlab.correlations as correlations_mod
from qbmlab.gaussian import (
    CovarianceMatrix,
    ModeSubset,
    _factor,
    _transposed_spectra,
    log_negativity,
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

from conftest import random_state
from oracles import (
    complex_purification,
    direct_bands,
    direct_correlations,
    direct_system_entropy,
    draw_blocks,
    flip_system,
    sample_fraction,
    stacked_spectra,
)


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
#: and 3.8e-12 at 300 oscillators.
DESK_TOL = 1e-11

#: The partial-transpose spectrum from a block's own factor against a
#: Cholesky of the flipped block, relative to the largest value.
FLIP_RTOL = 1e-11


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
    """band_correlations and system_entropy on arrays equal the object path (direct_bands): H(S) and MI bit for bit, negativity within a named tolerance."""

    @staticmethod
    def assert_bitwise(cov, bands, neg_tol):
        h_s, mi, neg = direct_bands(cov, bands)
        got = band_correlations(cov, bands)
        assert np.float64(system_entropy(cov)).tobytes() == np.float64(h_s).tobytes()
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
        # H(S), then per band H(band), H(S u band) and the partial transpose of S u band
        bath, cov = evolved_state()
        take_counts()
        band_correlations(cov, band_partition(24, n_bands, bath.frequencies))
        assert take_counts()["spectra"] == 3 * n_bands + 1


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
        samples = fraction_samples(cov.data, h_s, sampler, range(6))["mi"]
        grid = sampler.grid_for(cov.n_modes - 1)
        for f in grid:
            mirrors = [g for g in grid if abs(1.0 - f - g) < 1e-9]
            if f >= 1.0 or not mirrors:
                continue
            left = np.array(samples[float(f)])
            if abs(mirrors[0] - f) < 1e-12:
                # self-mirrored point: draw and complement interleave
                sums = left[0::2] + left[1::2]
            else:
                right = np.array(samples[float(mirrors[0])])
                assert len(left) == len(right)
                sums = left + right
            assert np.max(np.abs(sums - 2 * h_s)) <= 1e-6

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
    """Per-sample MI and negativity with every block extracted as drawn (the slow path).

    Follows the engine's pairing: draws at f <= 1/2, and at upper points
    without a mirror; the complement of each draw fills the mirror point.
    Nothing here relies on global purity: I(S : E) = H(S) + H(E) - H(S u E)
    and the negativity is read off S u E for E_f and E_c alike.
    """
    n = cov.n_modes
    n_bath = n - 1
    grid = [float(f) for f in sampler.grid_for(n_bath)]
    h_s = direct_system_entropy(cov)
    out = {m: {f: [] for f in grid} for m in ("mi", "neg")}
    for f in grid[:-1]:
        mirror = next((g for g in grid if abs(g - (1.0 - f)) < 1e-9), None)
        if f > 0.5 and mirror is not None:
            continue
        for s_idx in range(sampler.samples_per_point):
            drawn = tuple(i + 1 for i in sample_fraction(sampler, f, n_bath, s_idx, t_index).indices)
            pairs = [(f, drawn)]
            if mirror is not None:
                pairs.append((mirror, tuple(m for m in range(1, n) if m not in drawn)))
            for g, modes in pairs:
                mi, neg = direct_correlations(cov, h_s, modes)
                out["mi"][g].append(mi)
                out["neg"][g].append(neg)
    return out


def assert_matches_direct(cov, sampler, t_index=0):
    samples = fraction_samples(cov.data, system_entropy(cov), sampler, range(sampler.samples_per_point), t_index)
    expected = direct_samples(cov, sampler, t_index)
    for m in ("mi", "neg"):
        for f in sampler.grid_for(cov.n_modes - 1)[:-1]:
            got = np.array(samples[m][float(f)])
            want = np.array(expected[m][float(f)])
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10, (m, f)


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
        grid = sampler.grid_for(cov.n_modes - 1)
        every = range(sampler.samples_per_point)
        h_s = system_entropy(cov)
        runs = [fraction_samples(cov.data, h_s, sampler, every, t_index)]
        with pytest.MonkeyPatch.context() as patch:
            # slices of a few small blocks, so that some slices are partial
            patch.setattr(correlations_mod, "STACK_BYTES", 1 << 11)
            runs.append(fraction_samples(cov.data, h_s, sampler, every, t_index))
            # stacks sliced to one draw, so every decomposition and spectrum runs alone
            patch.setattr(correlations_mod, "STACK_BYTES", 1)
            alone = fraction_samples(cov.data, h_s, sampler, every, t_index)
        for run in runs:
            for m in ("mi", "neg"):
                for f in grid:
                    assert np.array(run[m][f]).tobytes() == np.array(alone[m][f]).tobytes(), (m, f)

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
        # stacks are sliced to STACK_BYTES: a desk time point peaks at 3.3 MB,
        # and at 23 MB with whole 20-draw stacks
        _, cov = evolved_state(n_osc=150, t=5.128, r=-5.0)
        sampler = FractionSampler(seed=1, samples_per_point=20)
        h_s = system_entropy(cov)
        tracemalloc.start()
        try:
            fraction_samples(cov.data, h_s, sampler, range(20), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestDeskBlocks:
    """The kernels of _split on S u near blocks of desk states at r = -5 and 5, against their oracles."""

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    @pytest.mark.parametrize("t_index, t", [(1, 10.0 / 39.0), (20, 5.128), (39, 10.0)])
    def test_against_oracles(self, r, t_index, t):
        _, cov = evolved_state(n_osc=150, t=t, r=r)
        sampler = FractionSampler(seed=3, samples_per_point=2)
        take_counts()
        for size in (1, 15, 75):
            drawn = np.zeros((2, 150), dtype=bool)
            for s_idx in range(2):
                drawn[s_idx, _draw(sampler, size, 150, s_idx, t_index)] = True
            joints = _blocks(cov.data, drawn)
            nu, partners = purification(joints)
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
    def test_partner_entropy_at_300_oscillators(self, r, t_index, t):
        # H(near) = H(S u ancillas) on blocks of up to 151 modes: the modes that
        # PURE_MODE_RTOL leaves without an ancilla carry no entropy that shows
        _, cov = evolved_state(n_osc=300, t=t, r=r)
        sampler = FractionSampler(seed=3, samples_per_point=2)
        for size in (1, 30, 150):
            drawn = np.zeros((2, 300), dtype=bool)
            for s_idx in range(2):
                drawn[s_idx, _draw(sampler, size, 300, s_idx, t_index)] = True
            joints = _blocks(cov.data, drawn)
            for idx, blocks in purification(joints)[1]:
                for i, block in zip(idx.tolist(), blocks):
                    near = CovarianceMatrix(joints[i, 2:, 2:])
                    assert abs(von_neumann_entropy(CovarianceMatrix(block)) - von_neumann_entropy(near)) <= DESK_TOL


class TestDrawCost:
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("n_drawn", range(1, 8))
    def test_blocks_are_those_split_takes(self, rng, n_drawn, mirrored):
        cov = random_state(rng, 9, pure=True)
        drawn = np.zeros((1, 8), dtype=bool)
        drawn[0, :n_drawn] = True
        spectra, williamson = draw_blocks(n_drawn, 8, mirrored)
        h_s = system_entropy(cov)
        # each partner block (S and one ancilla per mixed mode of S u near) takes a
        # spectrum, and a partial transpose when the far side's negativity is
        # wanted, which the model leaves out
        _, partners = purification(_blocks(cov.data, drawn if 2 * n_drawn <= 8 else ~drawn))
        want_far = 2 * n_drawn > 8 or mirrored
        partner_cost = (1 + want_far) * sum(len(block) ** 3 for _, blocks in partners for block in blocks)
        take_counts()
        _split(cov.data, h_s, drawn, mirrored)
        counts = take_counts()
        assert counts["williamson"] == len(williamson)
        assert counts["spectra"] == len(spectra) + len(williamson) + 1 + want_far
        assert counts["block_cost"] - partner_cost == sum(m**3 for m in spectra + williamson)


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
        merged: dict = {"mi": {}, "neg": {}}
        for j in range(len(slices)):
            for m, values in parts[j].items():
                for f, v in values.items():
                    merged[m].setdefault(f, []).extend(v)
        got = fraction_curves(sampler.grid_for(n_bath), merged, h_s, t=1.5)

        for curve in want:
            for name in ("f_values", "mean", "stderr", "n_samples"):
                assert getattr(got[curve.measure], name).tobytes() == getattr(curve, name).tobytes(), name
            assert got[curve.measure].h_system == curve.h_system


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
