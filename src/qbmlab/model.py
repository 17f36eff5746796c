"""Discretized quantum Brownian motion model and its exact propagator.

A central oscillator (mass m, renormalized frequency Omega_S) couples
bilinearly through position to N bath oscillators whose coupling strengths
follow a power-law spectral density with a hard cutoff,

    J(w) = 2 m gamma0 w (w / cutoff)^(n-1) / pi        for w <= cutoff,

with n = 1 Ohmic, n < 1 sub-Ohmic and n > 1 super-Ohmic.  The total
Hamiltonian is quadratic, so the covariance matrix of any Gaussian state is
propagated exactly by the normal modes of the mass-weighted potential
matrix; no time stepping is involved and sigma(t) is available at arbitrary
t.  The bare system frequency carries the standard counterterm so that
Omega_S is the observed oscillation frequency and the potential is a
positive sum of squares.

The system couples to each bath mode and the bath modes to nothing else,
so the potential is an arrowhead matrix: the diagonal (a, d_1, ..., d_N)
bordered by one coupling row z.  make_propagator takes its normal modes in
O(N^2) from (a, d, z) alone (_normal_modes): one root of the secular
equation a - lam - sum_k z_k^2 / (d_k - lam) = 0 between each pair of
neighbouring poles d_k, and the eigenvectors (1, z_k / (lam - d_k)),
normalised (Jakovcevic Stor, Slapnicar & Barlow, Linear Algebra Appl. 464,
62 (2015)).  Each root is found in the variable shifted to its nearer pole,
so that lam - d_k keeps its relative accuracy, by the two-pole rational
step of LAPACK's dlaed4 ("middle way", Li, LAPACK Working Note 89 (1993))
under a bisection safeguard, and the eigenvectors take lam - d_k from the
same shifted differences (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16,
172 (1995)).  Couplings below float64's rounding of the matrix deflate: their
bath mode is a normal mode of its own.  Every pair's residual, through the
arrowhead product, and the orthogonality of the basis, through one Q^T Q,
are checked against MODE_RTOL; a build that fails a check takes the dense
eigh of build_propagator instead, and counts it (propagator_fallbacks in
gaussian.take_counts).  The fast path takes no BLAS call that its result
depends on, so its bytes do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EigensolveFailure, NegativeEigenvalue
from .gaussian import _COUNTS, CovarianceMatrix

#: Potential-matrix eigenvalues in [-EIG_CLAMP, 0] x scale are clamped to zero.
EIG_CLAMP = 1e-10

#: The O(N^2) normal modes' run-time checks: every pair's residual
#: |V q - lam q| within MODE_RTOL x max(|lam|, 1), and max |Q^T Q - I|
#: within MODE_RTOL.  Measured at most 1.4e-16 and 1.8e-15 on the desk and
#: full potentials (N = 150 and 600), where the dense eigh reads 1.1e-15
#: and 3.2e-15; the super-Ohmic bath of gates 4-6 at N = 600 reads 1.8e-16
#: and 3.2e-14.
MODE_RTOL = 1e-12

#: Secular steps after which a root that has not converged fails the build
#: (the desk and full potentials take 3, the super-Ohmic bath at most 6).
SECULAR_MAX_STEPS = 50

_EPS = float(np.finfo(float).eps)

#: A secular step below this fraction of |tau| ends its root: the steps converge
#: quadratically, so the error left after it is below rounding.  The residual
#: check (MODE_RTOL) still holds every pair.
_STEP_RTOL = math.sqrt(_EPS)

#: floats per block of the O(N^2) passes, so that a few blocks stay in a core's L2 cache
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class BathSpec:
    """Spectral-density family and the size of its discretization.

    exponent:  power n of the spectral density (1 Ohmic, 1/2 sub-Ohmic, 3
               super-Ohmic).
    cutoff:    hard frequency cutoff (angular frequency).
    coupling:  rate gamma0 setting the overall coupling strength.
    n_oscillators: number N of bath modes in the discrete model.
    omega_s:   renormalized system frequency Omega_S.
    """

    exponent: float
    cutoff: float
    coupling: float
    n_oscillators: int
    omega_s: float
    system_mass: float = 1.0
    bath_mass: float = 1.0

    def __post_init__(self):
        if self.cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")
        if self.coupling < 0:
            raise DomainError(f"coupling must be >= 0, got {self.coupling}")
        if self.n_oscillators < 1:
            raise DomainError(f"need at least one oscillator, got {self.n_oscillators}")
        if self.omega_s <= 0:
            raise DomainError(f"omega_s must be positive, got {self.omega_s}")
        if self.exponent <= 0:
            raise DomainError(f"exponent must be positive, got {self.exponent}")
        if self.system_mass <= 0 or self.bath_mass <= 0:
            raise DomainError("masses must be positive")


@dataclass(frozen=True)
class DiscretizedBath:
    """Uniform-grid discretization of the spectral density.

    frequencies: strictly increasing bath frequencies w_k = k * cutoff / N.
    couplings:   bilinear coupling constants c_k (c_k^2 = 2 m_k w_k J(w_k) dw).
    masses:      oscillator masses m_k.
    counterterm: sum_k c_k^2 / (m_k w_k^2), added to the bare system
                 frequency so the renormalized frequency equals omega_s.
    """

    frequencies: np.ndarray
    couplings: np.ndarray
    masses: np.ndarray
    counterterm: float

    @property
    def n_oscillators(self) -> int:
        return len(self.frequencies)


@dataclass(frozen=True)
class SqueezedInitialState:
    """Pure squeezed system state with dx * dp = 1/2 (hbar = 1).

    The squeezing parameter is r = ln(m Omega_S dx / dp); r < 0 squeezes
    position (dx below the ground-state spread), r > 0 squeezes momentum.
    """

    r: float
    delta_x: float
    delta_p: float

    def __post_init__(self):
        if abs(self.delta_x * self.delta_p - 0.5) > 1e-12:
            raise DomainError("delta_x * delta_p must equal 1/2")

    @classmethod
    def from_r(cls, r: float, spec: BathSpec) -> "SqueezedInitialState":
        """The state of squeezing r; DomainError where dx^2 or dp^2 would overflow or underflow a float."""
        try:
            dx = math.sqrt(math.exp(r) / (2.0 * spec.system_mass * spec.omega_s))
            dp = 0.5 / dx
            fits = 0.0 < dx**2 < math.inf and 0.0 < dp**2 < math.inf  # a float's ** raises OverflowError
        except (OverflowError, ZeroDivisionError):
            fits = False
        if not fits:
            raise DomainError(f"r = {r!r} takes the squeezed variances dx^2, dp^2 beyond the float range")
        return cls(r=r, delta_x=dx, delta_p=dp)


class ProductState(CovarianceMatrix):
    """sigma(0) of a product of single-mode states without x-p correlations, held as its 2M variances.

    variances lists (x_1, p_1, ..., x_M, p_M), each positive and finite
    (else DomainError); it is read-only.  ``data`` builds the dense
    diagonal each time it is read, read-only, so only a caller that reads
    it pays the (2M)^2 floats: evolve reads the variances alone.
    """

    __slots__ = ("variances",)

    def __init__(self, variances: np.ndarray):
        variances = np.array(variances, dtype=float)
        if variances.ndim != 1 or variances.size == 0 or variances.size % 2:
            raise DomainError(f"a product state needs 2M variances, got shape {variances.shape}")
        if not np.all((variances > 0.0) & (variances < np.inf)):  # NaN fails both
            raise DomainError("a product state's variances must be positive and finite")
        variances.flags.writeable = False
        self.variances = variances
        # the dense diagonal's scale: its largest entry, as _keep reads it
        self.n_modes, self.symmetry_defect, self.scale = variances.size // 2, 0.0, max(float(np.max(variances)), 1.0)

    @property
    def data(self) -> np.ndarray:
        data = np.diag(self.variances)
        data.flags.writeable = False
        return data

    def __reduce__(self):
        return ProductState, (self.variances,)  # pickled as its variances, not through the data property


@dataclass(frozen=True)
class Propagator:
    """Normal-mode decomposition of the mass-weighted potential matrix.

    eigenfrequencies are the square roots of the (clamped) eigenvalues;
    eigenbasis is the orthogonal matrix of eigenvectors; mass_scaling holds
    sqrt(m_i) per mode (system first).
    """

    eigenfrequencies: np.ndarray
    eigenbasis: np.ndarray
    mass_scaling: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.eigenfrequencies)


def spectral_density(spec: BathSpec, omega) -> np.ndarray | float:
    """J(omega) of the bath family; zero beyond the cutoff, vectorized."""
    omega = np.asarray(omega, dtype=float)
    inside = (omega >= 0.0) & (omega <= spec.cutoff)
    w = np.where(inside, omega, 0.0)
    vals = (
        2.0
        * spec.system_mass
        * spec.coupling
        * w
        * np.where(inside, (np.maximum(w, 1e-300) / spec.cutoff) ** (spec.exponent - 1.0), 0.0)
        / np.pi
    )
    vals = np.where(inside, vals, 0.0)
    return float(vals) if vals.ndim == 0 else vals


def discretize_bath(spec: BathSpec) -> DiscretizedBath:
    """Place N oscillators on the uniform grid w_k = k * cutoff / N.

    Couplings are fixed by c_k^2 = 2 m_k w_k J(w_k) dw with dw = cutoff / N,
    so the discrete spectral sum converges to J as N grows.
    """
    n = spec.n_oscillators
    dw = spec.cutoff / n
    freqs = dw * np.arange(1, n + 1)
    masses = np.full(n, spec.bath_mass)
    c_sq = 2.0 * masses * freqs * spectral_density(spec, freqs) * dw
    couplings = np.sqrt(c_sq)
    counterterm = float(np.sum(c_sq / (masses * freqs**2)))
    return DiscretizedBath(
        frequencies=freqs, couplings=couplings, masses=masses, counterterm=counterterm
    )


def _arrowhead(spec: BathSpec, bath: DiscretizedBath) -> tuple[float, np.ndarray, np.ndarray]:
    """(a, d, z) of the potential matrix: V[0, 0] = a, V[k, k] = d_k and V[0, k] = V[k, 0] = z_k."""
    return (
        spec.omega_s**2 + bath.counterterm / spec.system_mass,
        bath.frequencies**2,
        bath.couplings / np.sqrt(spec.system_mass * bath.masses),
    )


def potential_matrix(spec: BathSpec, bath: DiscretizedBath) -> np.ndarray:
    """Mass-weighted potential matrix V of the total Hamiltonian, dense.

    V[0, 0] carries the bare frequency squared Omega_S^2 + counterterm / m,
    V[k, k] = w_k^2 and V[0, k] = c_k / sqrt(m m_k).  With the counterterm
    convention the matrix is positive semidefinite by construction.
    """
    a, d, z = _arrowhead(spec, bath)
    n = d.size
    v = np.zeros((n + 1, n + 1))
    v[0, 0] = a
    idx = np.arange(1, n + 1)
    v[idx, idx] = d
    v[0, idx] = z
    v[idx, 0] = z
    return v


def mode_masses(spec: BathSpec, bath: DiscretizedBath) -> np.ndarray:
    """Masses of all modes, system first."""
    return np.concatenate(([spec.system_mass], bath.masses))


def _propagator(evals: np.ndarray, evecs: np.ndarray, masses: np.ndarray) -> Propagator:
    """The Propagator of ascending eigenvalues and their eigenvectors; NegativeEigenvalue below the clamp."""
    scale = max(float(np.max(np.abs(evals))), 1.0)
    if evals[0] < -EIG_CLAMP * scale:
        raise NegativeEigenvalue(
            f"potential matrix eigenvalue {evals[0]:.3e} below clamp threshold"
        )
    return Propagator(
        eigenfrequencies=np.sqrt(np.clip(evals, 0.0, None)), eigenbasis=evecs, mass_scaling=np.sqrt(masses)
    )


def build_propagator(v: np.ndarray, masses: np.ndarray | None = None) -> Propagator:
    """Orthogonally diagonalize a dense V by eigh and store the normal-mode data.

    Eigenvalues in [-EIG_CLAMP * scale, 0] are clamped to zero (free-particle
    limit); anything lower raises NegativeEigenvalue, which signals a
    coupling regime where the counterterm convention is violated.  The
    reconstruction Q diag(lam) Q^T must match V within 1e-9 of its largest
    entry.  make_propagator falls back to this O(N^3) path, and the tests
    take it as the oracle of the O(N^2) one.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.shape != (n, n):
        raise DimensionMismatch(f"potential matrix must be square, got {v.shape}")
    if masses is None:
        masses = np.ones(n)
    masses = np.asarray(masses, dtype=float)
    if len(masses) != n:
        raise DimensionMismatch("one mass per mode is required")
    try:
        evals, evecs = np.linalg.eigh(0.5 * (v + v.T))
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    prop = _propagator(evals, evecs, masses)
    residual = np.max(np.abs((evecs * prop.eigenfrequencies**2) @ evecs.T - v))
    if residual > 1e-9 * max(float(np.max(np.abs(v))), 1.0):
        raise EigensolveFailure(f"reconstruction residual {residual:.3e} too large")
    return prop


def _block_rows(width: int) -> int:
    """Rows per block of the O(N^2) passes at this row width: about _BLOCK_ELEMENTS floats, which stay in cache."""
    return max(1, _BLOCK_ELEMENTS // width)


def _sum_work(m: int, n: int) -> tuple[np.ndarray, ...]:
    """_pole_sums' buffers for blocks out of m rows of n poles, made once per solve."""
    step = min(m, _block_rows(n + 2))
    return np.empty((step, n)), np.zeros((step, n + 2)), np.zeros((step, n + 2)), np.arange(step) * (n + 2)


def _pole_sums(d: np.ndarray, z2: np.ndarray, shift: np.ndarray, x: np.ndarray, below: np.ndarray, work: tuple):
    """Per row r, at lam_r = shift_r + x_r: the sums of z2_k / (d_k - lam_r) and of z2_k / (d_k - lam_r)^2,
    over the poles k < below_r and over the rest, as (t_below, t_above, q_below, q_above).

    d_k - lam_r is taken as (d_k - shift_r) - x_r, so it is exact to rounding
    at the pole that shift_r is.  Rows go in blocks of the buffers' rows
    (_sum_work), which stay in cache.  Each row of terms is padded with a
    zero at both ends, so that np.add.reduceat sums both of its parts,
    empty or not.
    """
    m = x.size
    gaps, terms, squares, starts = work
    sums = np.empty((4, m))
    for r in range(0, m, len(gaps)):
        rows = slice(r, min(m, r + len(gaps)))
        k = rows.stop - r
        np.subtract(d, shift[rows, None], out=gaps[:k])
        gaps[:k] -= x[rows, None]
        np.divide(z2, gaps[:k], out=terms[:k, 1:-1])
        np.divide(terms[:k, 1:-1], gaps[:k], out=squares[:k, 1:-1])
        cuts = np.empty(2 * k, dtype=np.intp)
        cuts[0::2] = starts[:k]
        cuts[1::2] = starts[:k] + 1 + below[rows]
        sums[0::2, rows] = np.add.reduceat(terms[:k].ravel(), cuts).reshape(k, 2).T
        sums[1::2, rows] = np.add.reduceat(squares[:k].ravel(), cuts).reshape(k, 2).T
    return sums[0], sums[2], sums[1], sums[3]


def _two_pole_root(c, s, big_s, xl, xh):
    """The root in (xl, xh) of c + s / (x - xl) - big_s / (xh - x), s, big_s >= 0, without cancellation."""
    b = c * (xl + xh) - s - big_s
    cc = s * xh + big_s * xl - c * xl * xh
    root = np.sqrt(np.maximum(b * b + 4.0 * c * cc, 0.0))
    return np.where(b <= 0.0, 2.0 * cc / (root - b), (b + root) / (2.0 * c))


def _one_pole_root(alpha, w, side):
    """The root of alpha - x + w / x, w >= 0, on the side (-1 below the pole at 0, +1 above), without cancellation."""
    root = np.sqrt(alpha * alpha + 4.0 * w)
    return np.where(side * alpha >= 0.0, 0.5 * (alpha + side * root), 2.0 * w * side / (root - side * alpha))


def _secular_roots(a: float, d: np.ndarray, z2: np.ndarray):
    """The n + 1 roots of a - lam - sum_k z2_k / (d_k - lam) = 0, d strictly increasing and z2 > 0.

    Root i is the one in (d[i - 1], d[i]); roots 0 and n lie within |z| of
    the diagonal's extremes (Weyl).  Each is returned as (sigma_i, tau_i),
    lam_i = sigma_i + tau_i, with sigma_i its nearer pole, chosen by the
    sign of the equation at the interval's midpoint.  The first guess keeps
    the two neighbouring poles exact and takes the rest of the equation
    from its value and slope at the midpoint.  Each step then fits one pole
    on each side to the sums and slopes of the poles on that side (the
    middle way; the -lam term's slope goes to the origin's pole, and the
    outer roots keep it exact), and bisects the root's bracket where the
    step leaves it.  A root stops when the equation is below its rounding
    bound or the step below _STEP_RTOL; None if one has not stopped after
    SECULAR_MAX_STEPS.
    """
    n = d.size
    roots = np.arange(n + 1)
    inner = (roots > 0) & (roots < n)
    reach = math.sqrt(float(np.sum(z2)))
    lower = np.concatenate(([min(a, d[0]) - reach], d))
    upper = np.concatenate((d, [max(a, d[-1]) + reach]))
    mid = 0.5 * (lower + upper)
    work = _sum_work(n + 1, n)
    t_below, t_above, q_below, q_above = _pole_sums(d, z2, mid, np.zeros(n + 1), roots, work)
    f_mid = a - mid - (t_below + t_above)
    at_upper = np.where(inner, f_mid > 0.0, roots == 0)
    sigma = np.where(at_upper, upper, lower)
    xl, xh, xm = lower - sigma, upper - sigma, mid - sigma
    lo, hi = np.where(f_mid > 0.0, xm, xl), np.where(f_mid > 0.0, xh, xm)
    c0 = a - sigma
    # the first guess: the neighbouring poles exact, the rest of f (-lam included) linear about the
    # midpoint, and that line held at its value at the guess of the model that holds it at mid
    w_lo, w_hi = np.concatenate(([0.0], z2)), np.concatenate((z2, [0.0]))
    side = np.where(roots == 0, -1.0, 1.0)  # an outer root's side of its pole
    x = xm
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = (t_below + t_above) - w_lo / (lower - mid) - w_hi / (upper - mid)
        slope = 1.0 + (q_below + q_above) - w_lo / (lower - mid) ** 2 - w_hi / (upper - mid) ** 2
        for _ in range(2):
            level = c0 - xm - rest - slope * (x - xm)
            x = np.where(inner, _two_pole_root(level, w_lo, w_hi, xl, xh),
                         _one_pole_root(level + x, np.where(roots == 0, w_hi, w_lo), side))
    tau = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
    active = roots
    for _ in range(SECULAR_MAX_STEPS):
        x = tau[active]
        t_below, t_above, q_below, q_above = _pole_sums(d, z2, sigma[active], x, active, work)
        f = c0[active] - x - (t_below + t_above)
        converged = np.abs(f) <= 8.0 * _EPS * (np.abs(c0[active]) + np.abs(x) + t_above - t_below)
        l, h = np.where(f > 0.0, x, lo[active]), np.where(f < 0.0, x, hi[active])
        lo[active], hi[active] = l, h
        xl_a, xh_a, upper_a = xl[active], xh[active], at_upper[active]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s = (q_below + ~upper_a) * (x - xl_a) ** 2  # + 1: the -lam slope, at the origin's pole
            big_s = (q_above + upper_a) * (xh_a - x) ** 2
            w = np.where(upper_a, q_above, q_below) * x * x
            new = np.where(inner[active], _two_pole_root(f - s / (x - xl_a) + big_s / (xh_a - x), s, big_s, xl_a, xh_a),
                           _one_pole_root(f + x - w / x, w, side[active]))
        new = np.where((new > l) & (new < h), new, 0.5 * (l + h))
        tau[active] = np.where(converged, x, new)
        active = active[~(converged | (np.abs(new - x) <= _STEP_RTOL * np.abs(x)))]
        if not active.size:
            return sigma, tau
    return None


def _secular_vectors(d: np.ndarray, z: np.ndarray, sigma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The unit eigenvectors (columns) (1, z_k / (lam_i - d_k)) / norm of the secular roots lam_i = sigma_i + tau_i.

    lam_i - d_k is taken as tau_i - (d_k - sigma_i), exact to rounding at
    lam_i's pole.  Pole rows go in blocks (_block_rows).
    """
    n = d.size
    q = np.empty((n + 1, n + 1))
    q[0] = 1.0
    squares = np.ones(n + 1)
    step = min(n, _block_rows(n + 1))
    work = np.empty((step, n + 1))
    for r in range(0, n, step):
        rows = slice(r, min(n, r + step))
        part, square = q[1 + r : 1 + rows.stop], work[: rows.stop - r]
        np.subtract(d[rows, None], sigma, out=part)
        part -= tau
        np.divide(-z[rows, None], part, out=part)
        squares += np.sum(np.multiply(part, part, out=square), axis=0)
    q /= np.sqrt(squares)
    return q


def _pairs_hold(a: float, d: np.ndarray, z: np.ndarray, lam: np.ndarray, q: np.ndarray) -> bool:
    """MODE_RTOL's checks: |V q_i - lam_i q_i| through the arrowhead product, and max |Q^T Q - I| by one symmetric product."""
    n = d.size
    step = min(n, _block_rows(n + 1))
    work = np.empty((step, n + 1))
    with np.errstate(invalid="ignore", over="ignore"):
        head = (a - lam) * q[0] + z @ q[1:]
        squares = head * head
        for r in range(0, n, step):
            rows = slice(r, min(n, r + step))
            part = np.subtract(d[rows, None], lam, out=work[: rows.stop - r])
            part *= q[1 + r : 1 + rows.stop]
            part += z[rows, None] * q[0]
            squares += np.sum(np.multiply(part, part, out=part), axis=0)
        gram = q.T @ q
    gram[np.diag_indices_from(gram)] -= 1.0
    scale = max(float(np.max(np.abs(lam))), 1.0)
    return bool(np.sqrt(np.max(squares)) <= MODE_RTOL * scale and np.max(np.abs(gram)) <= MODE_RTOL)  # NaN fails


def _normal_modes(a: float, d: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of [[a, z^T], [z, diag(d)]] in O(N^2).

    d must be strictly increasing.  A coupling |z_k| at or below float64's
    rounding of the matrix's scale deflates: (d_k, e_k) is then a pair of its
    own.  None where d is not increasing, a root does not converge, or the
    pairs fail MODE_RTOL (_pairs_hold).
    """
    n = d.size
    if n > 1 and not np.all(np.diff(d) > 0.0):
        return None
    keep = np.abs(z) > _EPS * max(abs(a), float(np.max(np.abs(d))), float(np.max(np.abs(z))), 1.0)
    dk, zk = d[keep], z[keep]
    if dk.size:
        roots = _secular_roots(a, dk, zk * zk)
        if roots is None:
            return None
        lam, q = roots[0] + roots[1], _secular_vectors(dk, zk, *roots)
    else:
        lam, q = np.array([a]), np.ones((1, 1))
    if dk.size < n:
        coupled = np.concatenate(([0], 1 + np.flatnonzero(keep)))
        full = np.zeros((n + 1, n + 1))
        full[np.ix_(coupled, np.arange(coupled.size))] = q
        full[1 + np.flatnonzero(~keep), np.arange(coupled.size, n + 1)] = 1.0
        lam = np.concatenate((lam, d[~keep]))
        order = np.argsort(lam, kind="stable")
        lam, q = lam[order], full[:, order]
    return (lam, q) if _pairs_hold(a, d, z, lam, q) else None


def make_propagator(spec: BathSpec, bath: DiscretizedBath) -> Propagator:
    """Propagator of the full system + bath network, from its arrowhead potential in O(N^2).

    _normal_modes takes the pairs from (a, d, z) without forming V, and
    checks them (the residuals in O(N^2), orthogonality by one Q^T Q); where
    a check fails it falls back to build_propagator's dense eigh of
    potential_matrix, and gaussian's propagator_fallbacks counts it.
    Eigenvalues below the clamp raise NegativeEigenvalue on either path.
    """
    masses = mode_masses(spec, bath)
    modes = _normal_modes(*_arrowhead(spec, bath))
    if modes is None:
        _COUNTS["propagator_fallbacks"] += 1
        return build_propagator(potential_matrix(spec, bath), masses)
    return _propagator(*modes, masses)


def evolve(prop: Propagator, cov: ProductState, t: float) -> CovarianceMatrix:
    """Exact covariance sigma(t) = S(t) sigma(0) S(t)^T = A A^T of a product state, with A = S(t) sqrt(sigma(0)).

    The four (x, p) blocks of S(t) come from cos(w t), sin(w t)/w (t at
    w = 0) and -w sin(w t) in the normal-mode basis; each takes its mass
    scalings and then the square roots of sigma(0)'s variances on its way
    into its strided block of A, so neither S(t) nor a dense sigma(0) is
    formed.  sigma(0) must be a ProductState, as initial_covariance builds
    it (any other state raises DomainError); at t = 0 the result is its
    dense diagonal.  A A^T is one symmetric product, exactly symmetric
    (CovarianceMatrix.symmetric).
    """
    if not isinstance(cov, ProductState):
        raise DomainError("evolve needs a product state (ProductState, as initial_covariance builds it)")
    if cov.n_modes != prop.n_modes:
        raise DimensionMismatch(f"state has {cov.n_modes} modes but propagator has {prop.n_modes}")
    if t < 0:
        raise DomainError(f"time must be >= 0, got {t}")
    if t == 0.0:
        return CovarianceMatrix.symmetric(cov.data)
    w, basis, root_m = prop.eigenfrequencies, prop.eigenbasis, prop.mass_scaling
    sin_over = np.where(w > 0.0, np.sin(w * t) / np.where(w > 0.0, w, 1.0), t)
    xx = (basis * np.cos(w * t)) @ basis.T
    xp = (basis * sin_over) @ basis.T
    px = (basis * (-w * np.sin(w * t))) @ basis.T
    inv_m, root_var = 1.0 / root_m, np.sqrt(cov.variances)
    root = np.empty((2 * prop.n_modes, 2 * prop.n_modes))
    # block of A at rows i::2, columns j::2: its row and column mass scalings, then sqrt(sigma(0)) of its columns
    for (i, j), block, left, right in (
        ((0, 0), xx.copy(), inv_m, root_m),
        ((0, 1), xp, inv_m, inv_m),
        ((1, 0), px, root_m, root_m),
        ((1, 1), xx, root_m, inv_m),
    ):
        block *= left[:, None]
        block *= right
        np.multiply(block, root_var[j::2], out=root[i::2, j::2])
    return CovarianceMatrix.symmetric(root @ root.T)


def initial_covariance(spec: BathSpec, bath: DiscretizedBath, init: SqueezedInitialState) -> ProductState:
    """Product state: squeezed system times bath oscillator ground states, held as its 2(N + 1) variances."""
    n = bath.n_oscillators
    variances = np.empty(2 * (n + 1))
    variances[0] = init.delta_x**2
    variances[1] = init.delta_p**2
    mw = bath.masses * bath.frequencies
    variances[2::2] = 0.5 / mw
    variances[3::2] = 0.5 * mw
    return ProductState(variances)


def total_energy(spec: BathSpec, bath: DiscretizedBath, cov: CovarianceMatrix) -> float:
    """Expected energy <H> = 1/2 trace(M sigma) of the full network, in O(N) once cov.data is read.

    The Hamiltonian's form M is diagonal (the unweighted potential with the
    counterterm in x, 1/m_i in p) but for the couplings M[x_0, x_k] = M[x_k, x_0] = c_k.
    """
    if cov.n_modes != bath.n_oscillators + 1:
        raise DimensionMismatch(f"state has {cov.n_modes} modes, expected {bath.n_oscillators + 1}")
    stiffness = np.concatenate(
        ([spec.system_mass * (spec.omega_s**2 + bath.counterterm / spec.system_mass)], bath.masses * bath.frequencies**2)
    )
    data = cov.data
    variances = data.diagonal()
    potential = stiffness @ variances[0::2] + 2.0 * (bath.couplings @ data[0, 2::2])
    return 0.5 * float(potential + variances[1::2] @ (1.0 / mode_masses(spec, bath)))


def recurrence_time(spec: BathSpec) -> float:
    """Poincare recurrence scale 2 pi N / cutoff of the discrete bath."""
    return 2.0 * math.pi * spec.n_oscillators / spec.cutoff
