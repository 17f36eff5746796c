import numpy as np
import pytest
from scipy.optimize import brentq

from qbmlab.analytic import chi_value, entanglement_value, mi_value
from qbmlab.correlations import CorrelationCurve
from qbmlab.errors import DomainError, FlatCurve, InsufficientGrid, NotReached
from qbmlab.gaussian import entropy_function
from qbmlab.redundancy import (
    build_report,
    entanglement_redundancy,
    information_redundancy,
    non_redundant_info,
)

from oracles import deficit_match


def make_curve(f, y, measure="neg", h_system=0.0, stderr=None):
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    return CorrelationCurve(
        t=0.0,
        measure=measure,
        f_values=f,
        mean=y,
        stderr=np.zeros_like(y) if stderr is None else np.asarray(stderr, dtype=float),
        n_samples=np.ones(len(f), dtype=int),
        h_system=h_system,
    )


def analytic_pe_curve(k, n_pts=4000):
    f = np.arange(1, n_pts + 1) / n_pts
    return make_curve(f, entanglement_value(f, k))


def analytic_pi_curve(k, n_pts=4000):
    f = np.arange(1, n_pts + 1) / n_pts
    h_s = entropy_function(chi_value(1.0, k))
    return make_curve(f, mi_value(f, k), measure="mi", h_system=h_s)


class TestEntanglementRedundancy:
    def test_linear_curve(self):
        f = np.linspace(0.01, 1.0, 100)
        curve = make_curve(f, 3.0 * f)
        f_e, r_e = entanglement_redundancy(curve, 0.2)
        assert f_e == pytest.approx(0.8, abs=1e-12)
        assert r_e == pytest.approx(1.25, abs=1e-12)

    def test_ghz_like_curve_maximal_redundancy(self):
        f = np.concatenate((np.arange(0.05, 1.0, 0.05), [1.0]))
        y = np.where(f < 1.0, 0.0, 2.0)
        f_e, r_e = entanglement_redundancy(make_curve(f, y), 0.2)
        assert f_e == pytest.approx(0.05 * 0.8, rel=1e-9)
        assert r_e == pytest.approx(25.0, rel=1e-9)

    def test_flat_at_maximum_not_reached(self):
        f = np.concatenate((np.arange(0.05, 1.0, 0.05), [1.0]))
        curve = make_curve(f, np.full(len(f), 2.0))
        with pytest.raises(NotReached):
            entanglement_redundancy(curve, 0.2)

    def test_flat_zero_curve(self):
        f = np.linspace(0.1, 1.0, 10)
        with pytest.raises(FlatCurve):
            entanglement_redundancy(make_curve(f, np.full(10, 1e-12)), 0.2)

    def test_requires_f_one(self):
        curve = make_curve(np.linspace(0.1, 0.9, 9), np.linspace(0, 2, 9))
        with pytest.raises(DomainError):
            entanglement_redundancy(curve, 0.2)

    @pytest.mark.parametrize("k", [100.0, 1000.0])
    def test_matches_closed_form_threshold_solution(self, k):
        curve = analytic_pe_curve(k)
        f_e, _ = entanglement_redundancy(curve, 0.2)
        target = 0.2 * entanglement_value(1.0, k)
        u_star = brentq(lambda u: entanglement_value(u, k) - target, 1e-9, 1.0 - 1e-12, xtol=1e-14)
        assert f_e == pytest.approx(1.0 - u_star, abs=1e-6)

    def test_interpolation_consistency_under_grid_refinement(self):
        coarse = analytic_pe_curve(100.0, n_pts=200)
        fine = analytic_pe_curve(100.0, n_pts=400)
        f_c, _ = entanglement_redundancy(coarse, 0.2)
        f_f, _ = entanglement_redundancy(fine, 0.2)
        assert abs(f_c - f_f) < 1.0 / 200

    def test_uniform_scaling_leaves_f_e_invariant(self):
        curve = analytic_pe_curve(100.0, n_pts=500)
        scaled = make_curve(curve.f_values, 0.5 * curve.mean)
        assert entanglement_redundancy(curve, 0.2)[0] == pytest.approx(
            entanglement_redundancy(scaled, 0.2)[0], rel=1e-12
        )

    def test_flattening_interior_raises_redundancy(self):
        # a flatter PE plot at fixed E(1) is GHZ-like: redundancy grows
        curve = analytic_pe_curve(100.0, n_pts=500)
        lowered = curve.mean.copy()
        lowered[:-1] *= 0.5
        _, r_orig = entanglement_redundancy(curve, 0.2)
        _, r_low = entanglement_redundancy(make_curve(curve.f_values, lowered), 0.2)
        assert r_low >= r_orig


class TestInformationRedundancy:
    def test_plateau_construction(self):
        f = np.concatenate(([0.02, 0.05, 0.1], np.linspace(0.15, 1.0, 18)))
        h_s = 3.0
        y = np.where(f >= 0.1, h_s, h_s * f / 0.1)
        f_i, r_i = information_redundancy(make_curve(f, y, measure="mi"), 0.1, h_s)
        assert f_i <= 0.1
        assert r_i >= 10.0

    @pytest.mark.parametrize("k", [100.0, 1000.0])
    def test_matches_closed_form_threshold_solution(self, k):
        curve = analytic_pi_curve(k)
        h_s = curve.h_system
        f_i, _ = information_redundancy(curve, 0.1, h_s)
        target = 0.9 * h_s
        f_star = brentq(lambda f: mi_value(f, k) - target, 1e-9, 1.0 - 1e-12, xtol=1e-14)
        assert f_i == pytest.approx(f_star, abs=1e-6)

    def test_redundancy_grows_with_squeezing(self):
        r_small = information_redundancy(analytic_pi_curve(100.0), 0.1, analytic_pi_curve(100.0).h_system)[1]
        r_large = information_redundancy(analytic_pi_curve(1000.0), 0.1, analytic_pi_curve(1000.0).h_system)[1]
        assert np.isfinite(r_small) and np.isfinite(r_large)
        assert r_large > r_small

    def test_not_reached(self):
        f = np.linspace(0.1, 1.0, 10)
        curve = make_curve(f, 0.4 * np.ones(10), measure="mi")
        with pytest.raises(NotReached):
            information_redundancy(curve, 0.1, 1.0)

    def test_lowering_curve_cannot_raise_r_i(self):
        curve = analytic_pi_curve(100.0, n_pts=500)
        h_s = curve.h_system
        lowered = make_curve(curve.f_values, 0.9 * curve.mean, measure="mi", h_system=h_s)
        assert information_redundancy(lowered, 0.1, h_s)[1] <= information_redundancy(curve, 0.1, h_s)[1]


class TestNonRedundantInfo:
    def test_flat_curve_zero_slope(self):
        f = np.array([0.2, 0.4, 0.6, 0.8])
        assert non_redundant_info(make_curve(f, np.ones(4), measure="mi")) == 0.0

    def test_analytic_curve_near_two(self):
        k = 1000.0
        f = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        curve = make_curve(f, [mi_value(float(x), k) for x in f], measure="mi")
        slope = non_redundant_info(curve)
        exact_secant = (mi_value(0.6, k) - mi_value(0.4, k)) / 0.2
        assert slope == pytest.approx(exact_secant, rel=1e-12)
        assert slope == pytest.approx(2.0, rel=0.02)

    def test_insufficient_grid(self):
        f = np.array([0.1, 0.2, 0.3])
        with pytest.raises(InsufficientGrid):
            non_redundant_info(make_curve(f, f, measure="mi"))


class TestDeficitMatch:
    def test_vanishing_bound_term(self):
        assert deficit_match(0.1, 3.0, 4.0, 0.0) == pytest.approx(0.075, abs=1e-15)

    def test_substitution(self):
        assert deficit_match(0.1, 3.0, 4.0, 0.8) == pytest.approx(0.275, abs=1e-12)

    def test_large_squeezing_limit(self):
        # H(S)/E(1) -> 1 and E(1/2)/E(1) -> 0, so delta_E approaches delta_I
        # from above; the approach is logarithmic since E(1/2) saturates at
        # ln(sqrt 5) while E(1) grows like ln(32 k)/2
        matches = []
        for k in (1e4, 1e6, 1e8, 1e10):
            h_s = entropy_function(chi_value(1.0, k))
            e_full = entanglement_value(1.0, k)
            e_half = entanglement_value(0.5, k)
            assert e_half <= 0.5 * np.log(5.0) + 1e-9
            match = deficit_match(0.1, h_s, e_full, e_half)
            assert 0.1 * h_s / e_full < match <= 0.1 + 0.5 * np.log(5.0) / e_full + 1e-12
            matches.append(match)
        assert np.all(np.diff(matches) < 0)

    def test_requires_positive_e_full(self):
        with pytest.raises(DomainError):
            deficit_match(0.1, 3.0, 0.0, 0.0)


class TestBuildReport:
    def test_assembles_consistent_report(self):
        pe = analytic_pe_curve(100.0, n_pts=400)
        pi = analytic_pi_curve(100.0, n_pts=400)
        report = build_report(1.5, pe, pi, delta_e=0.2, delta_i=0.1, analytic_r_e=6.0)
        assert report.r_e == pytest.approx(1.0 / report.f_e, rel=1e-12)
        assert report.r_i == pytest.approx(1.0 / report.f_i, rel=1e-12)
        assert 0.0 < report.f_e < 1.0 and 0.0 < report.f_i < 1.0
        assert report.e_half <= 0.5 * np.log(5.0) + 1e-9
        assert report.analytic_r_e == 6.0
        assert report.flags == ()

    def test_uncertainty_band_brackets_point_estimate(self):
        pe = analytic_pe_curve(100.0, n_pts=400)
        noisy = make_curve(pe.f_values, pe.mean, stderr=np.full(len(pe.f_values), 0.02))
        pi = analytic_pi_curve(100.0, n_pts=400)
        report = build_report(1.0, noisy, pi, delta_e=0.2, delta_i=0.1)
        lo, hi = report.f_e_band
        assert lo <= report.f_e <= hi
        assert hi - lo > 0

    def test_flags_on_failure(self):
        f = np.concatenate((np.arange(0.05, 1.0, 0.05), [1.0]))
        pe = make_curve(f, np.full(len(f), 2.0))
        pi = analytic_pi_curve(100.0, n_pts=400)
        report = build_report(0.0, pe, pi)
        assert "pe_notreached" in report.flags
        assert np.isnan(report.r_e)

    def test_pe_curve_without_f_one_is_flagged(self):
        # a custom f grid without f = 1: no E(1), so R_E is NaN and flagged, not raised
        pe = analytic_pe_curve(100.0, n_pts=400)
        pi = analytic_pi_curve(100.0, n_pts=400)
        cut = make_curve(pe.f_values[:-1], pe.mean[:-1])
        report = build_report(1.0, cut, pi)
        assert "pe_domainerror" in report.flags
        assert np.isnan(report.r_e) and np.isnan(report.f_e) and np.isnan(report.e_full)
        assert report.r_i == build_report(1.0, pe, pi).r_i

    @pytest.mark.parametrize("f", [[0.6, 0.8, 1.0], [0.1, 0.3, 0.45]])
    def test_e_half_is_nan_on_a_grid_that_does_not_bracket_one_half(self, f):
        # np.interp would read the nearest edge's mean as E(1/2), here above the bound
        pe = make_curve(f, [3.0, 3.5, 4.0])
        report = build_report(3.0, pe, analytic_pi_curve(100.0, n_pts=400))
        assert np.isnan(report.e_half)
        assert "e_half_above_bound" not in report.flags

    def test_e_half_interpolates_on_a_grid_that_brackets_one_half(self):
        pe = make_curve([0.4, 0.6, 1.0], [3.0, 3.5, 4.0])
        report = build_report(3.0, pe, analytic_pi_curve(100.0, n_pts=400))
        assert report.e_half == pytest.approx(3.25, rel=1e-15)
        assert "e_half_above_bound" in report.flags

    def test_non_monotone_flag(self):
        f = np.linspace(0.05, 1.0, 20)
        y = 2.0 * f
        y[10] += 0.3
        pi = analytic_pi_curve(100.0, n_pts=400)
        report = build_report(0.0, make_curve(f, y), pi)
        assert "pe_non_monotone" in report.flags
