from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

import qbmlab.analytic as analytic_mod
import qbmlab.runner as runner_mod
from qbmlab.analytic import (
    BranchModelParams,
    chi_value,
    d_total,
    entanglement_value,
    k_value,
    mi_value,
    mode_d_values,
    redundancy_estimate_value,
    trajectory_amplitudes,
)
from qbmlab.config import parse_config
from qbmlab.correlations import CorrelationCurve
from qbmlab.errors import DomainError
from qbmlab.gaussian import entropy_function
from qbmlab.model import BathSpec, DiscretizedBath, discretize_bath

from oracles import (
    chi_cell,
    d_superohmic_closed,
    d_total_at,
    entanglement_cell,
    k_value_at,
    mi_cell,
    redundancy_estimate_cell,
    e_asymptotic_value,
    e_universal,
    i_nr_value,
    mi_slope_value,
    trajectory_amplitude,
)


def super_ohmic_params(r: float, cutoff=300.0, n_osc=2000, coupling=0.1) -> BranchModelParams:
    spec = BathSpec(
        exponent=3.0, cutoff=cutoff, coupling=coupling, n_oscillators=n_osc, omega_s=3.0
    )
    return BranchModelParams(r=r, omega_s=3.0, bath=discretize_bath(spec))


def toy_params(r: float) -> BranchModelParams:
    bath = DiscretizedBath(
        frequencies=np.array([1.0, 3.0, 7.0]),
        couplings=np.array([0.2, 0.1, 0.3]),
        masses=np.ones(3),
        counterterm=0.0,
    )
    return BranchModelParams(r=r, omega_s=3.0, bath=bath)


class TestBranchModelParams:
    @pytest.mark.parametrize("r", [800.0, -800.0])
    def test_overflowing_spread_raises(self, r):
        # delta_x = delta_x0 e^(|r| / 2) is a float here, but k_value's delta_x^2 is not
        with pytest.raises(DomainError, match="float range"):
            toy_params(r)


class TestTrajectoryAmplitudes:
    @pytest.mark.parametrize("r", [-5.0, 5.0, 0.0])
    def test_zero_at_t_zero(self, r):
        a, adot = trajectory_amplitudes(0.0, toy_params(r))
        assert np.allclose(a, 0.0) and np.allclose(adot, 0.0)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_derivative_matches_finite_difference(self, r):
        params = toy_params(r)
        t, eps = 1.3, 1e-6
        a_plus, _ = trajectory_amplitudes(t + eps, params)
        a_minus, _ = trajectory_amplitudes(t - eps, params)
        _, adot = trajectory_amplitudes(t, params)
        assert np.allclose((a_plus - a_minus) / (2 * eps), adot, atol=1e-7)

    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_resonance_limit_matches_near_resonance(self, r):
        omg = 3.0
        for shift in (1 + 1e-5, 1 - 1e-5):
            bath_near = DiscretizedBath(
                frequencies=np.array([omg * shift]),
                couplings=np.array([0.1]),
                masses=np.ones(1),
                counterterm=0.0,
            )
            bath_on = DiscretizedBath(
                frequencies=np.array([omg]),
                couplings=np.array([0.1]),
                masses=np.ones(1),
                counterterm=0.0,
            )
            for t in (0.4, 0.8, 1.9):
                near = trajectory_amplitude(0, t, BranchModelParams(r, omg, bath_near))
                on = trajectory_amplitude(0, t, BranchModelParams(r, omg, bath_on))
                assert near[0] == pytest.approx(on[0], rel=1e-4)
                assert near[1] == pytest.approx(on[1], rel=1e-4)


class TestDFunction:
    @pytest.mark.parametrize("r", [-5.0, 5.0])
    def test_d_zero_at_t_zero(self, r):
        assert d_total(0.0, toy_params(r)) == 0.0

    def test_mode_contributions_nonnegative(self, rng):
        params = toy_params(-5.0)
        for t in rng.uniform(0.0, 10.0, size=8):
            assert np.all(mode_d_values(float(t), params) >= 0.0)

    def test_super_ohmic_momentum_branch_tracks_sine_squared(self):
        params = super_ohmic_params(r=-5.0)
        base = 0.1 / (2 * np.pi)
        for t in (0.5, 0.8, 1.3, 1.6, 2.0):
            closed = base * np.sin(3.0 * t) ** 2
            assert d_total(t, params) == pytest.approx(closed, rel=0.10)

    def test_super_ohmic_position_branch_tracks_kick_form(self):
        params = super_ohmic_params(r=5.0)
        base = 0.1 / (2 * np.pi)
        for t in (0.5, 1.0, 1.5, 2.0):
            closed = base * (1.0 + np.cos(3.0 * t) ** 2)
            assert d_total(t, params) == pytest.approx(closed, rel=0.10)


class TestSuperOhmicClosedForm:
    def test_momentum_branch_recoheres(self):
        params = super_ohmic_params(r=-5.0)
        assert d_superohmic_closed(np.pi / 3.0, params) == pytest.approx(0.0, abs=1e-15)

    def test_position_branch_quarter_period(self):
        params = super_ohmic_params(r=5.0)
        expected = 1.0 * 0.1 / (2 * np.pi)
        assert d_superohmic_closed(np.pi / 6.0, params) == pytest.approx(expected, rel=1e-10)

    def test_position_branch_never_vanishes(self):
        params = super_ohmic_params(r=5.0)
        floor = 0.1 / (2 * np.pi)
        times = np.linspace(0.0, 4.0, 200)
        vals = [d_superohmic_closed(t, params) for t in times]
        assert min(vals) >= floor * (1.0 - 1e-12)


class TestEntanglementValue:
    def test_zero_fraction(self):
        assert entanglement_value(0.0, 37.0) == 0.0

    def test_full_fraction_large_k(self):
        for k in (1e2, 1e3, 1e4):
            assert entanglement_value(1.0, k) == pytest.approx(0.5 * np.log(32 * k), rel=1e-3)

    def test_half_fraction_plateau(self):
        assert entanglement_value(0.5, 1e6) == pytest.approx(0.5 * np.log(5.0), rel=1e-5)

    def test_bounded_by_universal_curve(self):
        fs = np.linspace(0.01, 0.99, 99)
        for k in (0.3, 3.0, 300.0):
            for f in fs:
                assert entanglement_value(float(f), k) <= e_universal(float(f)) + 1e-12

    def test_nondecreasing_in_f(self):
        fs = np.linspace(0.0, 1.0, 401)
        for k in (0.5, 50.0):
            vals = [entanglement_value(float(f), k) for f in fs]
            assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("k, expected", [(1e6, 8.640623261632), (1e15, 19.0023), (1e42, 50.0872)])
    def test_full_fraction_is_finite_at_large_k(self, k, expected):
        # E(1) = arccosh(sqrt(1 + 8k)); the bracket 1 - 8 phi / (1 + s) cancels to 0 here once
        # 2 phi / (k beta) falls below float64 resolution, so it must be evaluated without the difference
        value = entanglement_value(1.0, k)
        assert value == pytest.approx(np.arccosh(np.sqrt(1.0 + 8.0 * k)), rel=1e-14)
        assert value == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("k", [1e-3, 0.7, 40.0, 1e6, 6e9, 1e15])
    def test_matches_the_written_form_in_high_precision(self, k):
        # the written form -1/2 ln(1 - 8 phi / (1 + sqrt(1 + 2 phi / (k beta)))) at 40 digits
        for f in (0.02, 0.31, 0.5, 0.97, 1.0):
            with localcontext() as ctx:
                ctx.prec = 40
                fd, kd = Decimal(f), Decimal(k)
                beta = 1 + 3 * fd
                phi = fd / beta
                exact = -(1 - 8 * phi / (1 + (1 + 2 * phi / (kd * beta)).sqrt())).ln() / 2
            assert entanglement_value(f, k) == pytest.approx(float(exact), rel=1e-13)


class TestChiAndMi:
    def test_chi_zero_fraction(self):
        assert chi_value(0.0, 123.0) == 0.5

    def test_chi_substitution(self):
        assert chi_value(1.0, 0.5) == pytest.approx(np.sqrt(5.0) / 2.0, rel=1e-14)

    def test_mi_zero_fraction(self):
        assert mi_value(0.0, 10.0) == 0.0

    def test_mi_half_equals_system_entropy(self):
        k = 40.0
        assert mi_value(0.5, k) == pytest.approx(entropy_function(chi_value(1.0, k)), rel=1e-14)

    def test_mi_complement_identity(self):
        k = 17.0
        h_full = entropy_function(chi_value(1.0, k))
        for f in (0.1, 0.25, 0.4, 0.47):
            assert mi_value(f, k) + mi_value(1.0 - f, k) == pytest.approx(2 * h_full, rel=1e-13)

    def test_mi_large_k_log_slope(self):
        k = 1e5
        h_s = entropy_function(chi_value(1.0, k))
        for f in (0.2, 0.5, 0.8):
            expected = h_s + 0.5 * np.log(f / (1.0 - f))
            assert mi_value(f, k) == pytest.approx(expected, rel=1e-3)

    def test_mi_strictly_increasing(self):
        fs = np.linspace(0.01, 0.99, 99)
        vals = [mi_value(float(f), 25.0) for f in fs]
        assert np.all(np.diff(vals) > 0)


class TestUniversalAndAsymptotic:
    def test_universal_values(self):
        assert e_universal(0.0) == 0.0
        assert e_universal(0.5) == pytest.approx(0.5 * np.log(5.0), rel=1e-14)
        assert e_universal(0.9) == pytest.approx(0.5 * np.log(37.0), rel=1e-14)

    def test_universal_domain_error_at_one(self):
        with pytest.raises(DomainError):
            e_universal(1.0)

    def test_asymptotic_zero_fraction(self):
        assert e_asymptotic_value(0.0, 100.0) == pytest.approx(0.0, abs=1e-14)

    def test_asymptotic_reduces_to_universal(self):
        for f in (0.2, 0.5, 0.8):
            assert e_asymptotic_value(f, 1e9) == pytest.approx(e_universal(f), rel=1e-6)

    def test_asymptotic_close_to_exact_at_k_100(self):
        assert e_asymptotic_value(0.5, 100.0) == pytest.approx(
            entanglement_value(0.5, 100.0), rel=0.02
        )


class TestNonRedundantInformation:
    def test_large_k_approaches_two(self):
        assert i_nr_value(1e3) == pytest.approx(2.0, rel=0.01)

    def test_small_k_reported_as_is(self):
        # closed form 2 k h'(chi)/chi with chi = sqrt(k + 1/4): the slope
        # approaches 2 strictly from below, so far outside the asymptotic
        # regime the raw (small) value is reported unchanged
        assert i_nr_value(0.1) == pytest.approx(0.8376792820241619, rel=1e-6)
        assert i_nr_value(0.1) < 2.0

    def test_monotone_approach_to_two(self):
        ks = [0.1, 1.0, 10.0, 100.0, 1000.0]
        vals = [i_nr_value(k) for k in ks]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 2.0

    def test_central_difference_matches_symbolic_derivative(self):
        for k in (0.5, 10.0, 1e3):
            assert i_nr_value(k) == pytest.approx(mi_slope_value(0.5, k), abs=1e-6)


class TestRedundancyEstimate:
    def test_substitution(self):
        # at fixed k = d(t) dx^2 the estimate is the same for any Omega_S
        bath = toy_params(-5.0).bath
        t = 1.1
        for omega_s in (1.0, 3.0, 16.0):
            params = BranchModelParams(r=-5.0, omega_s=omega_s, bath=bath)
            k = d_total(t, params) * params.delta_x**2
            assert redundancy_estimate_value(0.2, k_value(t, params)) == pytest.approx(
                redundancy_estimate_value(0.2, k), rel=1e-12
            )

    def test_deficit_to_zero_limit(self):
        params = toy_params(-5.0)
        assert redundancy_estimate_value(1e-9, k_value(1.0, params)) == pytest.approx(1.0, rel=1e-6)

    def test_agrees_with_exponential_form(self):
        # solving e_universal(1 - f_E) = deficit E(1) gives 1/f_E = (e^(2 deficit E(1)) + 3) / 4
        deficit = 0.2
        for k in (0.5, 2.0, 100.0, 1000.0, 1e5):
            exp_form = (np.exp(2.0 * deficit * entanglement_value(1.0, k)) + 3.0) / 4.0
            assert redundancy_estimate_value(deficit, k) == pytest.approx(exp_form, rel=1e-10)


#: E, I and R_E of the array forms against the per-cell oracles.  Both take the same operations in the
#: same order, but numpy's SIMD log and pow on a vector may round differently from libm on one value;
#: 4 ulp is under 1e-15 relative.
ULPS = 4


def assert_within_ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    got, want = got[~np.isnan(want)], want[~np.isnan(want)]
    with np.errstate(invalid="ignore"):  # inf - inf; == holds there
        assert np.all((got == want) | (np.abs(got - want) <= ULPS * np.spacing(np.abs(want))))


def desk_config(r: float):
    return parse_config(overrides=dict(profile="desk", squeezing=r), env={})


def branch_curves(config) -> list[tuple[CorrelationCurve, CorrelationCurve]]:
    """(PI, PE) pairs of the per-cell closed forms on 20 fractions at each time of the config."""
    f = np.linspace(0.05, 1.0, 20)
    pairs = []
    for t in config.times().tolist():
        k = k_value_at(t, config.branch_params())
        common = dict(t=t, f_values=f, stderr=np.zeros_like(f), n_samples=np.ones(len(f), dtype=int),
                      h_system=entropy_function(chi_cell(1.0, k)))
        pairs.append((CorrelationCurve(measure="mi", mean=np.array([mi_cell(x, k) for x in f.tolist()]), **common),
                      CorrelationCurve(measure="neg", mean=np.array([entanglement_cell(x, k) for x in f.tolist()]),
                                       **common)))
    return pairs


class TestArrayFormsAgainstCells:
    """Every closed form evaluated on a whole grid matches its per-cell oracle (oracles.*_cell)."""

    @pytest.mark.parametrize("r", [-5.0, 5.0, 40.0, 80.0])
    def test_desk_analytic_table(self, r):
        config = desk_config(r)
        params = config.branch_params()
        rows = runner_mod._stage_files("analytic", config, [], [])[0][2]
        assert len(rows) == 2000
        t, f, d, k, e, mi = (np.array(column) for column in zip(*rows))
        for time in np.unique(t):  # d and k bit for bit
            at = t == time
            assert np.all(d[at] == d_total_at(time, params)) and np.all(k[at] == k_value_at(time, params))
        assert_within_ulps(e, [entanglement_cell(*cell) for cell in zip(f.tolist(), k.tolist())])
        assert_within_ulps(mi, [mi_cell(*cell) for cell in zip(f.tolist(), k.tolist())])

    @pytest.mark.parametrize("r", [-5.0, 5.0, 40.0, 80.0])
    def test_desk_analytic_r_e(self, r):
        config = desk_config(r)
        params = config.branch_params()
        rows = runner_mod._stage_files("redundancy", config, [], branch_curves(config))[0][2]
        assert len(rows) == 40 and np.isnan(rows[0][4])  # t = 0, where k = 0
        want = [redundancy_estimate_cell(config.delta_e, k_value_at(row[0], params)) for row in rows]
        assert_within_ulps([row[4] for row in rows], want)

    @pytest.mark.parametrize("stage, kernel_calls", [("analytic", 1), ("compare", 1), ("redundancy", 0)])
    def test_one_evaluation_per_stage(self, monkeypatch, stage, kernel_calls):
        # the h kernel and the mode amplitudes run once per stage, not once per (t, f) cell
        config = desk_config(-5.0)
        curves = branch_curves(config)
        calls = Counter()
        for name in ("_entropy_of_values", "trajectory_amplitudes"):
            def counted(*args, _name=name, _fn=getattr(analytic_mod, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(analytic_mod, name, counted)
        runner_mod._stage_files(stage, config, [], curves)
        assert calls["_entropy_of_values"] == kernel_calls and calls["trajectory_amplitudes"] == 1

    def test_d_total_works_in_bounded_blocks_of_times(self, monkeypatch):
        # at any number of times the modes' (times x modes) arrays hold at most TIME_BLOCK times
        params = desk_config(-5.0).branch_params()
        times = np.linspace(0.0, 10.0, 2 * analytic_mod.TIME_BLOCK + 3)
        sizes = []
        amplitudes = analytic_mod.trajectory_amplitudes

        def recorded(t, p):
            sizes.append(np.size(t))
            return amplitudes(t, p)

        monkeypatch.setattr(analytic_mod, "trajectory_amplitudes", recorded)
        d = d_total(times, params)
        assert sizes == [analytic_mod.TIME_BLOCK, analytic_mod.TIME_BLOCK, 3]
        assert d.tolist() == [d_total_at(t, params) for t in times.tolist()]
        assert d_total(times.reshape(-1, 1), params).shape == (len(times), 1)
        assert d_total([], params).shape == (0,)

    def test_compare_cells_match_the_oracle(self):
        config = desk_config(-5.0)
        rows, _ = runner_mod.compare_numeric_analytic(config, branch_curves(config))
        cell = {"mi": mi_cell, "neg": entanglement_cell}
        k_by_t = {t: k_value_at(t, config.branch_params()) for t in config.times().tolist()}
        assert_within_ulps([row[4] for row in rows], [cell[row[2]](row[1], k_by_t[row[0]]) for row in rows])

    def test_scalars_give_float_literals(self):
        scalars = (entanglement_value(0.5, 3.0), mi_value(0.5, 3.0), chi_value(0.5, 3.0), d_total(1.0, toy_params(5.0)),
                   k_value(1.0, toy_params(5.0)), redundancy_estimate_value(0.2, 3.0))
        for value in scalars:
            assert np.ndim(value) == 0 and runner_mod._fmt(value) == repr(float(value))

    def test_broadcasts_over_f_and_k(self):
        f, k = np.linspace(0.0, 1.0, 7), np.array([[0.0], [0.3], [40.0], [1e42]])
        for form, cell in ((entanglement_value, entanglement_cell), (chi_value, chi_cell), (mi_value, mi_cell)):
            got = form(f, k)
            assert got.shape == (len(k), len(f))
            assert_within_ulps(got, [[cell(fj, ki) for fj in f.tolist()] for ki in k[:, 0].tolist()])
        assert entanglement_value([0.5, 1.0], np.inf).tolist() == [entanglement_cell(0.5, np.inf), np.inf]

    @pytest.mark.parametrize("form", [entanglement_value, chi_value, mi_value])
    def test_any_fraction_outside_the_unit_interval_raises(self, form):
        with pytest.raises(DomainError, match="fraction"):
            form(np.array([0.5, 1.0 + 1e-12]), 3.0)

    def test_estimate_is_nan_where_k_is_not_positive(self):
        assert np.isnan(redundancy_estimate_value(0.2, [0.0, -1.0])).all()
        assert redundancy_estimate_value(0.2, 1e-300) == pytest.approx(1.0)
