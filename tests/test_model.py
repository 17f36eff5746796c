import numpy as np
import pytest
from scipy.integrate import quad

from qbmlab.errors import DimensionMismatch, DomainError, NegativeEigenvalue
from qbmlab.gaussian import (
    CovarianceMatrix,
    ModeSubset,
    _factor,
    _omega_times,
    _skew_product,
    _spectrum_of,
    check_purity,
    partial_trace,
    validate_state,
    von_neumann_entropy,
)
from qbmlab.model import (
    BathSpec,
    SqueezedInitialState,
    build_propagator,
    discretize_bath,
    evolve,
    initial_covariance,
    make_propagator,
    potential_matrix,
    recurrence_time,
    spectral_density,
    total_energy,
)

from oracles import (
    bath_energy,
    dense_evolve,
    dense_purity_square,
    dense_skew_product,
    hamiltonian_matrix,
    omega_copy_purity,
    symplectic_eigenvalues,
    symplectic_propagator,
    two_pass_evolve,
)

#: The half products of the state layer against the dense formulas they
#: replace (oracles.dense_evolve, dense_skew_product, dense_purity_square),
#: relative to the state's scale (its square for the purity product).
#: Measured at most 2.6e-16 on the desk bath at r = +-5 and at N = 600.
HALF_PRODUCT_RTOL = 1e-14

#: model.total_energy against 1/2 trace(M sigma) of the dense form
#: (oracles.hamiltonian_matrix); measured at most 1.3e-16.
ENERGY_RTOL = 1e-12

#: (bath size, r, t): the desk bath at three desk times, and one full-profile time.
DESK_AND_FULL = [(150, r, t) for r in (-5.0, 5.0) for t in (10.0 / 39.0, 5.128, 10.0)] + [(600, -5.0, 5.128)]


#: (bath size, r, t): the desk bath at t = 0 and three desk times, and one full-profile time.
ONE_PASS_STATES = [(150, r, 0.0) for r in (-5.0, 5.0)] + DESK_AND_FULL


#: Slack, in eps x the state's scale, for the eigensolver's own rounding of
#: nu around check_purity's bound b: at t = 0 b reads 5.6e-17 while
#: _spectrum_of reads nu_min = 1/2 - 1.1e-16 (0.01 eps x scale at r = 5).
BOUND_SLACK_EPS = 4.0

#: (bath size, r, t): the desk bath at t = 0 and two later desk times, and one full-profile time.
BOUND_STATES = [(150, r, t) for r in (-5.0, 5.0) for t in (0.0, 5.128, 10.0)] + [(600, -5.0, 5.128)]


def sub_ohmic(n_osc=60, coupling=0.1):
    return BathSpec(
        exponent=0.5, cutoff=20.0, coupling=coupling, n_oscillators=n_osc, omega_s=3.0
    )


@pytest.fixture(scope="module")
def evolved():
    """evolved(n_osc, r, t) -> (spec, bath, prop, sigma(0), sigma(t)) on the sub-Ohmic bath; each bath is built once."""
    built = {}

    def get(n_osc, r, t):
        if n_osc not in built:
            spec = sub_ohmic(n_osc=n_osc)
            bath = discretize_bath(spec)
            built[n_osc] = (spec, bath, make_propagator(spec, bath))
        spec, bath, prop = built[n_osc]
        cov0 = initial_covariance(spec, bath, SqueezedInitialState.from_r(r, spec))
        return spec, bath, prop, cov0, evolve(prop, cov0, t)

    return get


def rk4_fundamental(a_mat: np.ndarray, t_end: float, h: float) -> np.ndarray:
    """Fourth-order explicit integrator for dZ/dt = A Z, Z(0) = identity."""
    z = np.eye(a_mat.shape[0])
    for _ in range(int(round(t_end / h))):
        k1 = a_mat @ z
        k2 = a_mat @ (z + 0.5 * h * k1)
        k3 = a_mat @ (z + 0.5 * h * k2)
        k4 = a_mat @ (z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def heisenberg_matrix(spec: BathSpec, bath) -> np.ndarray:
    """Equations of motion xdot = p/m, pdot = -dV/dx, written out directly."""
    n = bath.n_oscillators + 1
    masses = np.concatenate(([spec.system_mass], bath.masses))
    a = np.zeros((2 * n, 2 * n))
    for i in range(n):
        a[2 * i, 2 * i + 1] = 1.0 / masses[i]
    a[1, 0] = -spec.system_mass * spec.omega_s**2 - bath.counterterm
    for k in range(bath.n_oscillators):
        a[2 * (k + 1) + 1, 2 * (k + 1)] = -bath.masses[k] * bath.frequencies[k] ** 2
        a[1, 2 * (k + 1)] = -bath.couplings[k]
        a[2 * (k + 1) + 1, 0] = -bath.couplings[k]
    return a


class TestSpectralDensity:
    def test_ohmic_midpoint_value(self):
        spec = BathSpec(exponent=1.0, cutoff=20.0, coupling=0.1, n_oscillators=10, omega_s=3.0)
        expected = spec.system_mass * spec.coupling * spec.cutoff / np.pi
        assert spectral_density(spec, spec.cutoff / 2) == pytest.approx(expected, rel=1e-14)

    def test_zero_beyond_cutoff(self):
        spec = sub_ohmic()
        assert spectral_density(spec, 20.000001) == 0.0
        assert spectral_density(spec, 1e3) == 0.0

    def test_super_ohmic_cubic_scaling(self):
        spec = BathSpec(exponent=3.0, cutoff=300.0, coupling=0.1, n_oscillators=10, omega_s=3.0)
        lo = spectral_density(spec, 0.01)
        assert spectral_density(spec, 0.02) == pytest.approx(8.0 * lo, rel=1e-10)

    def test_continuous_inside(self):
        spec = sub_ohmic()
        w = np.linspace(0.05, 19.95, 500)
        j = spectral_density(spec, w)
        assert np.all(np.isfinite(j)) and np.all(j > 0)


class TestDiscretizeBath:
    def test_single_mode_rule(self):
        spec = BathSpec(exponent=1.0, cutoff=20.0, coupling=0.1, n_oscillators=1, omega_s=3.0)
        bath = discretize_bath(spec)
        assert bath.frequencies == pytest.approx([20.0])
        expected_c_sq = 2.0 * 1.0 * 20.0 * spectral_density(spec, 20.0) * 20.0
        assert bath.couplings[0] ** 2 == pytest.approx(expected_c_sq, rel=1e-14)

    def test_riemann_sum_matches_quadrature(self):
        spec = BathSpec(exponent=1.0, cutoff=20.0, coupling=0.1, n_oscillators=600, omega_s=3.0)
        bath = discretize_bath(spec)
        riemann = float(np.sum(bath.couplings**2 / (2.0 * bath.masses * bath.frequencies)))
        integral, _ = quad(lambda w: spectral_density(spec, w), 0.0, spec.cutoff)
        assert abs(riemann - integral) / integral <= 0.005

    @pytest.mark.parametrize("exponent", [1.0, 3.0])
    def test_counterterm_converges(self, exponent):
        def ct(n_osc):
            spec = BathSpec(
                exponent=exponent, cutoff=20.0, coupling=0.1, n_oscillators=n_osc, omega_s=3.0
            )
            return discretize_bath(spec).counterterm

        c1, c2 = ct(600), ct(1200)
        assert abs(c2 - c1) / c1 < 0.002

    def test_counterterm_converges_sub_ohmic(self):
        # the w^(n-1) integrand is singular at zero for n < 1, so the uniform
        # grid converges like 1/sqrt(N) instead of 1/N
        c1 = discretize_bath(sub_ohmic(n_osc=600)).counterterm
        c2 = discretize_bath(sub_ohmic(n_osc=1200)).counterterm
        assert abs(c2 - c1) / c1 < 0.01

    def test_frequencies_strictly_increasing(self):
        bath = discretize_bath(sub_ohmic(n_osc=40))
        assert np.all(np.diff(bath.frequencies) > 0)


class TestPotentialMatrix:
    def test_decoupled_limit_is_diagonal(self):
        spec = sub_ohmic(n_osc=4, coupling=0.0)
        bath = discretize_bath(spec)
        v = potential_matrix(spec, bath)
        expected = np.diag(np.concatenate(([spec.omega_s**2], bath.frequencies**2)))
        assert np.allclose(v, expected)

    def test_two_by_two_closed_form(self):
        spec = BathSpec(exponent=0.5, cutoff=6.0, coupling=0.3, n_oscillators=1, omega_s=3.0)
        bath = discretize_bath(spec)
        v = potential_matrix(spec, bath)
        prop = build_propagator(v)
        a, b, d = v[0, 0], v[0, 1], v[1, 1]
        disc = np.sqrt((a - d) ** 2 + 4 * b**2)
        roots = np.sort([(a + d - disc) / 2, (a + d + disc) / 2])
        assert prop.eigenfrequencies**2 == pytest.approx(roots, rel=1e-12)

    def test_reference_parameters_positive_definite(self):
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=600, omega_s=3.0)
        bath = discretize_bath(spec)
        evals = np.linalg.eigvalsh(potential_matrix(spec, bath))
        assert np.all(evals > 0)


class TestBuildPropagator:
    def test_diagonal_input(self):
        prop = build_propagator(np.diag([1.0, 4.0, 9.0]))
        assert prop.eigenfrequencies == pytest.approx([1.0, 2.0, 3.0])
        assert np.allclose(np.abs(prop.eigenbasis), np.eye(3))

    def test_reconstruction_residual_at_scale(self):
        spec = sub_ohmic(n_osc=150)
        bath = discretize_bath(spec)
        v = potential_matrix(spec, bath)
        prop = build_propagator(v)
        recon = prop.eigenbasis @ np.diag(prop.eigenfrequencies**2) @ prop.eigenbasis.T
        assert np.max(np.abs(recon - v)) <= 1e-9 * np.max(np.abs(v))
        assert np.max(np.abs(prop.eigenbasis @ prop.eigenbasis.T - np.eye(151))) < 1e-10

    def test_free_particle_zero_eigenvalue(self):
        prop = build_propagator(np.array([[0.0]]))
        s = symplectic_propagator(prop, 2.5)
        assert np.allclose(s, [[1.0, 2.5], [0.0, 1.0]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue):
            build_propagator(np.array([[-1.0]]))


class TestInitialCovariance:
    def test_ground_state_system_block(self):
        spec = sub_ohmic(n_osc=3)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(0.0, spec))
        assert cov.data[0, 0] == pytest.approx(1.0 / (2 * spec.omega_s))
        assert cov.data[1, 1] == pytest.approx(spec.omega_s / 2)

    def test_position_squeezed_r_minus_five(self):
        spec = sub_ohmic(n_osc=3)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        assert cov.data[0, 0] == pytest.approx(np.exp(-5.0) / (2 * spec.omega_s), rel=1e-12)
        assert cov.data[0, 0] * cov.data[1, 1] == pytest.approx(0.25, rel=1e-12)

    def test_full_state_is_pure(self):
        spec = sub_ohmic(n_osc=8)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        nus = symplectic_eigenvalues(cov)
        assert np.max(np.abs(nus - 0.5)) < 1e-12

    def test_uncertainty_product_enforced(self):
        with pytest.raises(DomainError):
            SqueezedInitialState(r=0.0, delta_x=1.0, delta_p=1.0)


class TestEvolve:
    def test_t_zero_identity(self):
        spec = sub_ohmic(n_osc=5)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-2.0, spec))
        out = evolve(make_propagator(spec, bath), cov, 0.0)
        assert np.array_equal(out.data, cov.data)

    def test_decoupled_system_period(self):
        spec = sub_ohmic(n_osc=4, coupling=0.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-1.0, spec))
        prop = make_propagator(spec, bath)
        period = 2 * np.pi / spec.omega_s
        back = evolve(prop, cov, period)
        assert np.max(np.abs(back.data - cov.data)) < 1e-10

    def test_matches_rk4_oracle_small_bath(self):
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=2, omega_s=3.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        t_end = 1.0
        exact = evolve(make_propagator(spec, bath), cov, t_end)
        z = rk4_fundamental(heisenberg_matrix(spec, bath), t_end, 1e-4)
        brute = z @ cov.data @ z.T
        assert np.max(np.abs(exact.data - brute)) <= 1e-8

    def test_dimension_mismatch(self):
        spec = sub_ohmic(n_osc=4)
        bath = discretize_bath(spec)
        other = discretize_bath(sub_ohmic(n_osc=5))
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(0.0, spec))
        with pytest.raises(DimensionMismatch):
            evolve(make_propagator(sub_ohmic(n_osc=5), other), cov, 1.0)

    @pytest.mark.parametrize(
        "entries, value",
        [(((0, 2), (2, 0)), 1e-3), (((0, 1), (1, 0)), -1e-3), (((4, 7), (7, 4)), 1e-12), (((3, 3),), -0.5)],
    )
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_correlated_or_negative_initial_state_raises(self, entries, value, t):
        spec = sub_ohmic(n_osc=4)
        bath = discretize_bath(spec)
        data = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec)).data.copy()
        for entry in entries:
            data[entry] = value
        with pytest.raises(DomainError):
            evolve(make_propagator(spec, bath), CovarianceMatrix(data), t)


class TestHalfProducts:
    """sigma(t) = A A^T, K = W - W^T and Omega (sigma Omega sigma) against the dense products they replace."""

    @pytest.mark.parametrize("n_osc, r, t", DESK_AND_FULL)
    def test_evolve_matches_dense_product(self, evolved, n_osc, r, t):
        _, _, prop, cov0, cov = evolved(n_osc, r, t)
        scale = np.max(np.abs(cov.data))
        assert np.max(np.abs(cov.data - dense_evolve(prop, cov0, t))) <= HALF_PRODUCT_RTOL * scale
        assert cov.symmetry_defect == 0.0  # A A^T is one symmetric product

    @pytest.mark.parametrize("n_osc, r, t", DESK_AND_FULL)
    def test_form_matches_dense_product(self, evolved, n_osc, r, t):
        cov = evolved(n_osc, r, t)[-1]
        chol, form, _ = _factor(cov.data[None])
        assert np.array_equal(form, -np.swapaxes(form, 1, 2))  # exactly antisymmetric
        scale = np.max(np.abs(cov.data))
        assert np.max(np.abs(form - dense_skew_product(chol))) <= HALF_PRODUCT_RTOL * scale

    @pytest.mark.parametrize("n_osc, r, t", DESK_AND_FULL)
    def test_purity_square_matches_dense_product(self, evolved, n_osc, r, t):
        cov = evolved(n_osc, r, t)[-1]
        square = _omega_times(_skew_product(cov.data))
        scale = np.max(np.abs(cov.data))
        assert np.max(np.abs(square - dense_purity_square(cov.data))) <= HALF_PRODUCT_RTOL * scale**2


class TestOnePassState:
    """model.evolve and check_purity against the two-pass forms they replace (oracles.two_pass_evolve, omega_copy_purity), bit for bit."""

    @pytest.mark.parametrize("n_osc, r, t", ONE_PASS_STATES)
    def test_state_matches_two_pass_evolve(self, evolved, n_osc, r, t):
        _, _, prop, cov0, cov = evolved(n_osc, r, t)
        assert np.array_equal(cov.data, two_pass_evolve(prop, cov0, t))
        assert np.array_equal(cov.data, cov.data.T)  # the syrk product is exactly symmetric
        assert cov.symmetry_defect == 0.0
        assert cov.scale == max(float(np.max(np.abs(cov.data))), 1.0)

    @pytest.mark.parametrize("t", [0.0, 10.0 / 39.0, 5.128, 10.0])
    def test_unequal_masses_match_two_pass_evolve(self, t):
        # unit masses make the mass scalings exact in any order; these do not
        spec = BathSpec(exponent=0.5, cutoff=20.0, coupling=0.1, n_oscillators=150, omega_s=3.0, system_mass=2.3, bath_mass=0.7)
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov0 = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        cov = evolve(prop, cov0, t)
        assert np.array_equal(cov.data, two_pass_evolve(prop, cov0, t))
        assert check_purity(cov) == omega_copy_purity(cov)

    @pytest.mark.parametrize("n_osc, r, t", ONE_PASS_STATES)
    def test_purity_bound_matches_omega_copy(self, evolved, n_osc, r, t):
        cov = evolved(n_osc, r, t)[-1]
        assert check_purity(cov) == omega_copy_purity(cov)


class TestPurityBound:
    @pytest.mark.parametrize("n_osc, r, t", BOUND_STATES)
    def test_spectrum_lies_within_the_bound(self, evolved, n_osc, r, t):
        # the eigenvalues of (Omega sigma)^2 + I/4 are 1/4 - nu_j^2, and its
        # largest row sum b bounds them: sqrt(1/4 - b) <= nu_j <= sqrt(1/4 + b)
        cov = evolved(n_osc, r, t)[-1]
        bound = check_purity(cov)
        nu = _spectrum_of(cov.data)
        slack = BOUND_SLACK_EPS * np.finfo(float).eps * float(np.max(np.abs(cov.data)))
        assert np.all(nu >= np.sqrt(0.25 - bound) - slack)
        assert np.all(nu <= np.sqrt(0.25 + bound) + slack)


class TestPropagatorProperties:
    def test_semigroup(self, rng):
        spec = sub_ohmic(n_osc=20)
        prop = make_propagator(spec, discretize_bath(spec))
        for _ in range(4):
            t1, t2 = rng.uniform(0.1, 5.0, size=2)
            lhs = symplectic_propagator(prop, t1 + t2)
            rhs = symplectic_propagator(prop, t1) @ symplectic_propagator(prop, t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_purity_preserved_along_evolution(self):
        spec = sub_ohmic(n_osc=40)
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        for t in (0.5, 2.0, 5.0, 10.0):
            nus = symplectic_eigenvalues(evolve(prop, cov, t))
            assert np.max(np.abs(nus - 0.5)) <= 1e-6

    def test_evolved_hundred_mode_state_validates(self):
        spec = sub_ohmic(n_osc=99)
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        report = validate_state(evolve(prop, cov, 5.0))
        assert report.passed
        assert report.min_symplectic >= 0.5 - 1e-6

    def test_discretization_convergence_of_system_entropy(self):
        entropies = []
        for n_osc in (60, 120):
            spec = sub_ohmic(n_osc=n_osc)
            bath = discretize_bath(spec)
            prop = make_propagator(spec, bath)
            cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
            state = evolve(prop, cov, 5.0)
            entropies.append(
                von_neumann_entropy(partial_trace(state, ModeSubset.of([0], n_osc + 1)))
            )
        assert 5.0 < recurrence_time(sub_ohmic(n_osc=60))
        assert abs(entropies[1] - entropies[0]) / entropies[0] < 0.01


class TestEnergy:
    def test_decoupled_vacuum_zero_point(self):
        spec = sub_ohmic(n_osc=6, coupling=0.0)
        bath = discretize_bath(spec)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(0.0, spec))
        expected = 0.5 * spec.omega_s + 0.5 * np.sum(bath.frequencies)
        assert total_energy(spec, bath, cov) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n_osc, r, t", DESK_AND_FULL + [(150, 5.0, 0.0)])
    def test_matches_dense_quadratic_form(self, evolved, n_osc, r, t):
        spec, bath, _, _, cov = evolved(n_osc, r, t)
        want = 0.5 * float(np.sum(hamiltonian_matrix(spec, bath) * cov.data))
        assert total_energy(spec, bath, cov) == pytest.approx(want, rel=ENERGY_RTOL)

    def test_conserved_along_evolution(self):
        spec = sub_ohmic(n_osc=30)
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        e0 = total_energy(spec, bath, cov)
        drift = max(
            abs(total_energy(spec, bath, evolve(prop, cov, t)) - e0) for t in np.linspace(0, 10, 11)
        )
        assert drift / abs(e0) <= 1e-8

    def test_bath_energy_grows_early(self):
        spec = sub_ohmic(n_osc=60)
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov = initial_covariance(spec, bath, SqueezedInitialState.from_r(-5.0, spec))
        vals = [bath_energy(spec, bath, evolve(prop, cov, t)) for t in np.linspace(0.0, 0.5, 6)]
        assert np.all(np.diff(vals) > 0)
