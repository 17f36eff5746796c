"""Closed-form branch-state model of the underdamped, strongly squeezed limit.

For a massive underdamped system the joint state develops a branch
structure: every environment oscillator is driven by the classical system
trajectory of its branch.  A state delocalized in position (r >= 0) evolves
along x(t) = x cos(Omega t); one delocalized in momentum (r < 0) along
x(t) = x sin(Omega t).  The driven-oscillator response amplitudes a_n(t)
then determine a single decoherence function

    d(t) = sum_n c_n^2 (w_n^2 a_n^2 + adot_n^2) / (4 m_n w_n),

from which entanglement and mutual information with any environment
fraction f follow in closed form.  These expressions are exact in the
pre-dissipation window and serve as the oracle against which the numerics
are validated.

The dimensionless combination k = d(t) * dx^2 (dx the spread of the
delocalized quadrature) controls everything; the *_value functions below
take k directly, and k_value evaluates it for a concrete bath (d_and_k
gives d with it).  Every form is an array expression: the time functions
take a vector of times and work on a trailing axis of bath modes (d_total
over bounded blocks of times), and the *_value functions broadcast over f
and k, so a caller evaluates a whole (t, f) grid in one call (mi_value's
three h in one kernel call).  A scalar argument gives a numpy float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gaussian import _entropy_of_values
from .model import DiscretizedBath

#: Relative window around w = Omega_S inside which the secular limit is used.
RESONANCE_WINDOW = 1e-9

#: Times per block in d_total: a block's (times x modes) arrays at N = 600 take about 1 MB each.
TIME_BLOCK = 256


@dataclass(frozen=True)
class BranchModelParams:
    """Inputs of the branch-state oracle.

    The sign of ``r`` selects the trajectory branch.  ``delta_x`` is the
    spread of the *delocalized* quadrature expressed in position units:
    with the squeezing convention r = ln(m Omega_S dx / dp) one has
    delta_x = delta_x0 exp(|r| / 2), where delta_x0 = (2 m Omega_S)^(-1/2)
    is the ground-state spread.  (For r > 0 this is the position spread
    itself; for r < 0 it is the momentum spread divided by m Omega_S.)
    This is the spread against which the numerically evolved correlations
    agree with the closed forms to about a percent.
    """

    r: float
    omega_s: float
    bath: DiscretizedBath
    mass: float = 1.0

    def __post_init__(self):
        if self.omega_s <= 0:
            raise DomainError(f"omega_s must be positive, got {self.omega_s}")
        if self.mass <= 0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        try:
            self.delta_x**2  # k_value's factor; a float's ** raises OverflowError
        except OverflowError:
            raise DomainError(f"r = {self.r!r} takes the branch model's delta_x^2 beyond the float range") from None

    @property
    def delta_x0(self) -> float:
        return 1.0 / math.sqrt(2.0 * self.mass * self.omega_s)

    @property
    def delta_x(self) -> float:
        return self.delta_x0 * math.exp(0.5 * abs(self.r))


def trajectory_amplitudes(t, params: BranchModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Response amplitudes (a_n, adot_n) of every bath mode at the times t, on a trailing axis of modes.

    r >= 0: the oscillator is driven by cos(Omega t) starting at rest, so
    a_n ~ cos(Omega t) - cos(w_n t); the sudden switch-on kicks every
    oscillator and recoherence is lost.  r < 0: the drive is sin(Omega t),
    a_n ~ (Omega/w_n) sin(w_n t) - sin(Omega t), and no kick occurs.
    Modes with |w_n^2 - Omega^2| below the resonance window use the secular
    (L'Hopital) limit instead of the raw quotient.
    """
    t = np.asarray(t, dtype=float)[..., None]
    w = params.bath.frequencies
    omg = params.omega_s
    denom = w**2 - omg**2
    resonant = np.abs(denom) < RESONANCE_WINDOW * omg**2
    safe = np.where(resonant, 1.0, denom)
    if params.r >= 0:
        a = (np.cos(omg * t) - np.cos(w * t)) / safe
        adot = (w * np.sin(w * t) - omg * np.sin(omg * t)) / safe
        a_res = t * np.sin(omg * t) / (2.0 * omg)
        adot_res = (np.sin(omg * t) + omg * t * np.cos(omg * t)) / (2.0 * omg)
    else:
        a = ((omg / w) * np.sin(w * t) - np.sin(omg * t)) / safe
        adot = omg * (np.cos(w * t) - np.cos(omg * t)) / safe
        a_res = (t * np.cos(omg * t) - np.sin(omg * t) / omg) / (2.0 * omg)
        adot_res = -0.5 * t * np.sin(omg * t)
    a = np.where(resonant, a_res, a)
    adot = np.where(resonant, adot_res, adot)
    return a, adot


def mode_d_values(t, params: BranchModelParams) -> np.ndarray:
    """Per-mode decoherence contributions d_n(t) >= 0, on a trailing axis of modes."""
    bath = params.bath
    a, adot = trajectory_amplitudes(t, params)
    return bath.couplings**2 * (bath.frequencies**2 * a**2 + adot**2) / (
        4.0 * bath.masses * bath.frequencies
    )


def d_total(t, params: BranchModelParams):
    """Aggregate decoherence function d(t) = sum_n d_n(t) at each time t.

    The (times x modes) arrays are built TIME_BLOCK times at a time, so
    memory stays bounded at any number of times.
    """
    t = np.asarray(t, dtype=float)
    sums = [mode_d_values(t.flat[i : i + TIME_BLOCK], params).sum(axis=-1) for i in range(0, t.size or 1, TIME_BLOCK)]
    return np.concatenate(sums).reshape(t.shape)[()]


def d_and_k(t, params: BranchModelParams):
    """d(t) and the branch model's k = d(t) dx^2 at each time t, from one evaluation of d."""
    d = d_total(t, params)
    return d, d * params.delta_x**2


def k_value(t, params: BranchModelParams):
    """The branch model's k = d(t) dx^2 at each time t."""
    return d_and_k(t, params)[1]


def _fractions(f) -> np.ndarray:
    """f as an array, every fraction checked to lie in [0, 1]: the closed forms' one domain check."""
    f = np.asarray(f, dtype=float)
    outside = (f < 0.0) | (f > 1.0)
    if outside.any():
        raise DomainError(f"fraction must lie in [0, 1], got {f[outside].flat[0]}")
    return f


def entanglement_value(f, k):
    """Branch-model logarithmic negativity E(f) for kept fraction f, broadcast over f and k.

    E = -1/2 ln(1 - 8 phi / (1 + s)), with beta = 1 + 3f, phi = f / beta,
    x = 2 phi / (k beta) and s = sqrt(1 + x); zero at f = 0 or k <= 0, and
    clamped below at zero.  Since s - 1 = x / (1 + s), the bracket equals

        (2 (1 - f) / beta + x / (1 + s)) / (1 + s),

    a sum of two non-negative terms, which is how it is evaluated: the
    written form cancels to 0 at f = 1 once x falls below the float64
    resolution (k near 1e15), where E(1) = arccosh(sqrt(1 + 8k)) is finite.
    At k = inf the bracket is 0 at f = 1, and E(1) = inf.
    """
    f, k = _fractions(f), np.asarray(k, dtype=float)
    beta = 1.0 + 3.0 * f
    with np.errstate(divide="ignore", invalid="ignore"):  # f = 0 or k <= 0, masked below
        x = 2.0 * (f / beta) / (k * beta)
        one_s = 1.0 + np.sqrt(1.0 + x)
        bracket = (2.0 * (1.0 - f) / beta + x / one_s) / one_s
        value = np.maximum(-0.5 * np.log(bracket), 0.0)
    return np.where((f == 0.0) | (k <= 0.0), 0.0, value)[()]


def chi_value(f, k):
    """Symplectic eigenvalue chi(f) = sqrt(1/4 + 2 f k); chi(0) = 1/2."""
    return np.sqrt(0.25 + 2.0 * _fractions(f) * np.maximum(k, 0.0))[()]


def mi_value(f, k):
    """Branch-model mutual information h(chi(1)) + h(chi(f)) - h(chi(1-f)), every h in one kernel call."""
    f = _fractions(f)
    chis = np.broadcast_arrays(chi_value(1.0, k), chi_value(f, k), chi_value(1.0 - f, k))
    h_one, h_f, h_rest = _entropy_of_values(np.stack(chis)[..., None])
    return (h_one + h_f - h_rest)[()]


def redundancy_estimate_value(deficit: float, k):
    """Large-squeezing entanglement-redundancy estimate at each k; NaN where k <= 0.

    A = 2 chi(1) = sqrt(1 + 8k) is the symplectic area of the system's
    reduced state in ground-state units, and E(1) = arccosh(A).  In the
    large-squeezing limit E(f) tends to (1/2) ln((1+3f)/(1-f)); solving
    E(1 - f_E) = deficit * E(1) on that curve gives

        R_E = 1 / f_E = (e^(2 deficit E(1)) + 3) / 4
            = ((A + sqrt(A^2 - 1))^(2 deficit) + 3) / 4,

    which grows as A^(2 deficit) for large A.
    """
    if not 0.0 < deficit < 1.0:
        raise DomainError(f"deficit must lie in (0, 1), got {deficit}")
    area = 2.0 * chi_value(1.0, k)
    estimate = ((area + np.sqrt(area**2 - 1.0)) ** (2.0 * deficit) + 3.0) / 4.0
    return np.where(np.asarray(k) > 0.0, estimate, np.nan)[()]
