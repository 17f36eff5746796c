"""Redundancy measures extracted from PI- and PE-plots.

Entanglement redundancy R_E = 1/f_E counts environment fractions of size
f_E such that discarding one of them drops the average entanglement to a
fraction delta_E of its f = 1 maximum: f_E is the smallest fraction with
E(1 - f_E) <= delta_E E(1).  Information redundancy R_I = 1/f_I counts
fractions that each carry a share (1 - delta_I) of the available classical
information H(S): f_I is the smallest fraction with I(f_I) >= (1 -
delta_I) H(S).  Both thresholds are solved on the monotone piecewise-linear
interpolation of the measured mean curve; on non-monotone (noisy) curves
the first crossing from the relevant side is used and a flag is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlations import CorrelationCurve
from .errors import DomainError, FlatCurve, InsufficientGrid, NotReached

#: Upper bound on the half-environment entanglement in the branch model.
E_HALF_BOUND = 0.5 * math.log(5.0)


@dataclass(frozen=True)
class RedundancyReport:
    """All redundancy figures for one time point."""

    t: float
    r_e: float
    r_i: float
    f_e: float
    f_i: float
    delta_e: float
    delta_i: float
    i_nr: float
    analytic_r_e: float
    h_s: float
    e_full: float
    e_half: float
    f_e_band: tuple[float, float] = (float("nan"), float("nan"))
    f_i_band: tuple[float, float] = (float("nan"), float("nan"))
    flags: tuple[str, ...] = ()


def _is_monotone(y: np.ndarray) -> bool:
    return bool(np.all(np.diff(y) >= -1e-12))


def _crossing_from_top(f: np.ndarray, y: np.ndarray, level: float) -> float:
    """Largest kept fraction u with curve(u) <= level (scan from u = 1 down)."""
    for i in range(len(f) - 2, -1, -1):
        lo, hi = y[i], y[i + 1]
        if lo <= level <= hi:
            if hi == lo:
                return float(f[i + 1])
            return float(f[i] + (level - lo) * (f[i + 1] - f[i]) / (hi - lo))
    raise NotReached(
        f"curve stays above {level:.6g} down to the smallest measured fraction"
    )


def _crossing_from_bottom(f: np.ndarray, y: np.ndarray, level: float) -> float:
    """Smallest fraction where the curve first reaches level (scan from f_min up)."""
    if y[0] >= level:
        return float(f[0])
    for i in range(len(f) - 1):
        lo, hi = y[i], y[i + 1]
        if lo <= level <= hi:
            if hi == lo:
                return float(f[i])
            return float(f[i] + (level - lo) * (f[i + 1] - f[i]) / (hi - lo))
    raise NotReached(f"curve never attains {level:.6g} on the measured grid")


def entanglement_redundancy(curve: CorrelationCurve, deficit: float) -> tuple[float, float]:
    """(f_E, R_E) from a PE curve that includes f = 1.

    Raises FlatCurve when E(1) carries no signal and NotReached when even
    removing everything but the smallest measured fraction keeps the
    entanglement above deficit * E(1).
    """
    if not 0.0 < deficit < 1.0:
        raise DomainError(f"deficit must lie in (0, 1), got {deficit}")
    f = np.asarray(curve.f_values, dtype=float)
    y = np.asarray(curve.mean, dtype=float)
    if abs(f[-1] - 1.0) > 1e-9:
        raise DomainError("PE curve must include f = 1")
    e_full = float(y[-1])
    if e_full < 1e-9:
        raise FlatCurve(f"E(1) = {e_full:.3e} below tolerance")
    kept = _crossing_from_top(f, y, deficit * e_full)
    f_e = 1.0 - kept
    return f_e, 1.0 / f_e


def information_redundancy(
    curve: CorrelationCurve, deficit: float, h_s: float
) -> tuple[float, float]:
    """(f_I, R_I) from a PI curve: smallest f with I(f) >= (1 - deficit) H(S).

    When the curve already exceeds the threshold at its smallest measured
    fraction, that grid edge is returned (an upper bound on f_I).
    """
    if not 0.0 < deficit < 1.0:
        raise DomainError(f"deficit must lie in (0, 1), got {deficit}")
    if h_s <= 0.0:
        raise DomainError(f"H(S) must be positive, got {h_s}")
    f = np.asarray(curve.f_values, dtype=float)
    y = np.asarray(curve.mean, dtype=float)
    f_i = _crossing_from_bottom(f, y, (1.0 - deficit) * h_s)
    return f_i, 1.0 / f_i


def non_redundant_info(curve: CorrelationCurve) -> float:
    """Slope of the PI curve at f = 1/2 from the nearest straddling grid pair."""
    f = np.asarray(curve.f_values, dtype=float)
    y = np.asarray(curve.mean, dtype=float)
    below = f < 0.5 - 1e-12
    above = f > 0.5 + 1e-12
    if not below.any() or not above.any():
        raise InsufficientGrid("curve grid does not bracket f = 1/2")
    i_lo = int(np.where(below)[0][-1])
    i_hi = int(np.where(above)[0][0])
    return float((y[i_hi] - y[i_lo]) / (f[i_hi] - f[i_lo]))


def _band(solver, curve: CorrelationCurve, *args) -> tuple[float, float]:
    """The fraction the solver finds on the mean curve shifted by -1 and +1 stderr, sorted."""

    def shifted(shift: float) -> float:
        try:
            return solver(replace(curve, mean=curve.mean + shift * curve.stderr), *args)[0]
        except (NotReached, FlatCurve, DomainError):
            return float("nan")

    return tuple(sorted((shifted(-1.0), shifted(+1.0))))


def build_report(
    t: float,
    pe_curve: CorrelationCurve,
    pi_curve: CorrelationCurve,
    delta_e: float = 0.2,
    delta_i: float = 0.1,
    analytic_r_e: float = float("nan"),
) -> RedundancyReport:
    """Assemble the per-time-point redundancy report; failures become flags."""
    flags: list[str] = []
    h_s = pi_curve.h_system
    e_full = float(pe_curve.mean[-1]) if abs(pe_curve.f_values[-1] - 1.0) < 1e-9 else float("nan")
    f = pe_curve.f_values  # np.interp would clamp to the nearest edge where the grid does not bracket 1/2
    e_half = float(np.interp(0.5, f, pe_curve.mean)) if f[0] <= 0.5 <= f[-1] else float("nan")
    if not _is_monotone(pe_curve.mean):
        flags.append("pe_non_monotone")
    if not _is_monotone(pi_curve.mean):
        flags.append("pi_non_monotone")
    if e_half > E_HALF_BOUND + 0.02:
        flags.append("e_half_above_bound")

    f_e = r_e = float("nan")
    try:
        f_e, r_e = entanglement_redundancy(pe_curve, delta_e)
    except (NotReached, FlatCurve, DomainError) as exc:
        flags.append(f"pe_{type(exc).__name__.lower()}")
    f_i = r_i = float("nan")
    try:
        f_i, r_i = information_redundancy(pi_curve, delta_i, h_s)
    except (NotReached, DomainError) as exc:
        flags.append(f"pi_{type(exc).__name__.lower()}")
    try:
        i_nr = non_redundant_info(pi_curve)
    except InsufficientGrid:
        i_nr = float("nan")
        flags.append("i_nr_insufficient_grid")

    return RedundancyReport(
        t=t,
        r_e=r_e,
        r_i=r_i,
        f_e=f_e,
        f_i=f_i,
        delta_e=delta_e,
        delta_i=delta_i,
        i_nr=i_nr,
        analytic_r_e=analytic_r_e,
        h_s=h_s,
        e_full=e_full,
        e_half=e_half,
        f_e_band=_band(entanglement_redundancy, pe_curve, delta_e),
        f_i_band=_band(information_redundancy, pi_curve, delta_i, h_s),
        flags=tuple(flags),
    )
