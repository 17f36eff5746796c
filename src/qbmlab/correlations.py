"""Band-resolved and fraction-averaged correlations of evolved states.

Two ways of splitting the environment are supported: contiguous frequency
bands (band_correlations) and random fractions of a given size f
(pi_plot / pe_plot).  Fraction sampling is paired: every random subset
drawn at f is reused as its complement at 1 - f, which makes the purity
identity I(f) + I(1-f) = 2 H(S) hold per sample and halves the number of
draws.

The fraction plots rely on global purity of the closed dynamics, and check
it once per time point (gaussian.check_purity; an impure state raises
ImpureState).  Purity lets every draw be evaluated on its smaller side: for
a split of the N bath modes into k <= N/2 and N - k, no block holds more
than k + 2 modes.  Mutual information uses H(S u E_f) in place of the
complement's entropy, and the negativity against the larger side comes
from a Gaussian purification of S u E_f whenever that block (k + 2 modes)
is smaller than the direct one (N - k + 1 modes).  The cost of a spectrum
is cubic in its block size; on a desk time point (N = 150, 20 samples)
this cuts the summed cost (2 x modes)^3 of the spectra twentyfold, from
9.2e9 to 4.7e8.  band_correlations makes no purity assumption.

All randomness flows through per-item generator streams keyed on (seed,
t-index, subset size, sample-index), so serial and parallel runs produce
identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBandCount, DomainError, EmptyFraction
from .gaussian import (
    CovarianceMatrix,
    ModeSubset,
    check_purity,
    log_negativity,
    partial_trace,
    purification,
    von_neumann_entropy,
)


@dataclass(frozen=True)
class BandPartition:
    """Contiguous equal-count frequency bands over the bath modes.

    band_members holds mode indices of the covariance matrix (system = 0 is
    never a member); band_edges holds the mean frequency of each band when
    frequencies are supplied, else the mean member index.
    """

    n_bands: int
    band_edges: np.ndarray
    band_members: tuple[tuple[int, ...], ...]


def band_partition(n_bath: int, n_bands: int, frequencies: np.ndarray | None = None) -> BandPartition:
    """Split bath modes 1..n_bath into contiguous equal-count bands.

    Remainder modes are distributed to the lowest-frequency bands.
    """
    if not 1 <= n_bands <= n_bath:
        raise BadBandCount(f"n_bands must lie in [1, {n_bath}], got {n_bands}")
    base, rem = divmod(n_bath, n_bands)
    members = []
    edges = []
    start = 0
    for b in range(n_bands):
        size = base + (1 if b < rem else 0)
        block = tuple(range(start + 1, start + size + 1))
        members.append(block)
        if frequencies is not None:
            edges.append(float(np.mean([frequencies[m - 1] for m in block])))
        else:
            edges.append(float(np.mean(block)))
        start += size
    return BandPartition(n_bands=n_bands, band_edges=np.array(edges), band_members=tuple(members))


@dataclass(frozen=True)
class BandCorrelations:
    """Per-band mutual information and logarithmic negativity with the system."""

    t: float
    band_edges: np.ndarray
    mi: np.ndarray
    neg: np.ndarray


def band_correlations(cov: CovarianceMatrix, bands: BandPartition, t: float = 0.0) -> BandCorrelations:
    """MI(S, band) and negativity of {S} vs band after tracing the rest."""
    n = cov.n_modes
    h_s = von_neumann_entropy(partial_trace(cov, ModeSubset.of([0], n)))
    mi = np.empty(bands.n_bands)
    neg = np.empty(bands.n_bands)
    for i, block in enumerate(bands.band_members):
        keep = ModeSubset.of((0,) + block, n)
        reduced = partial_trace(cov, keep)
        sys_pos = ModeSubset.of([0], reduced.n_modes)
        h_band = von_neumann_entropy(
            partial_trace(reduced, ModeSubset.of(range(1, reduced.n_modes), reduced.n_modes))
        )
        h_joint = von_neumann_entropy(reduced)
        mi[i] = h_s + h_band - h_joint
        neg[i] = log_negativity(reduced, sys_pos)
    return BandCorrelations(t=t, band_edges=bands.band_edges, mi=mi, neg=neg)


def default_f_grid(n_units: int, n_points: int = 24) -> np.ndarray:
    """Symmetric fraction grid of multiples of 1/n_units.

    A geometric ladder from 1/n_units up to ~0.4 is mirrored about 1/2;
    the points 1/2 and 1 are always included.  Dense ends resolve the
    plateau edges, and the gap (0.4, 0.6) around 1/2 keeps the finite
    difference used for the non-redundant information well conditioned.
    """
    if n_units < 2:
        raise DomainError("need at least two sampling units for a fraction grid")
    k_top = max(1, int(round(0.4 * n_units)))
    n_lower = max(1, (n_points - 2) // 2)
    ladder = np.unique(np.round(np.geomspace(1, k_top, n_lower)).astype(int))
    request = n_lower
    while len(ladder) < min(n_lower, k_top) and request < 4 * n_lower:
        request += 1
        ladder = np.unique(np.round(np.geomspace(1, k_top, request)).astype(int))
    ks = set(ladder.tolist())
    ks |= {n_units - k for k in ladder}
    if n_units % 2 == 0:
        ks.add(n_units // 2)
    ks.add(n_units)
    ks = sorted(k for k in ks if 1 <= k <= n_units)
    return np.array(ks, dtype=float) / n_units


@dataclass(frozen=True)
class FractionSampler:
    """Reproducible sampler of random environment fractions.

    unit selects what a sampling unit is: individual bath oscillators
    (default) or contiguous frequency bands (unit="band" with n_bands set),
    matching the two splittings used for the averaged plots.
    """

    seed: int
    samples_per_point: int = 20
    f_grid: np.ndarray | None = None
    unit: str = "oscillator"
    n_bands: int | None = None

    def __post_init__(self):
        if self.samples_per_point < 1:
            raise DomainError("samples_per_point must be >= 1")
        if self.unit not in ("oscillator", "band"):
            raise DomainError(f"unknown sampling unit {self.unit!r}")
        if self.unit == "band" and not self.n_bands:
            raise DomainError("band sampling requires n_bands")
        if self.f_grid is not None:
            grid = np.asarray(self.f_grid, dtype=float)
            if np.any(np.diff(grid) <= 0):
                raise DomainError("f_grid must be strictly increasing")
            if grid[0] <= 0.0 or grid[-1] > 1.0:
                raise DomainError("fractions must lie in (0, 1]")
            object.__setattr__(self, "f_grid", grid)

    def n_units(self, n_bath: int) -> int:
        return self.n_bands if self.unit == "band" else n_bath

    def grid_for(self, n_bath: int) -> np.ndarray:
        units = self.n_units(n_bath)
        if self.f_grid is None:
            return default_f_grid(units)
        ks = self.f_grid * units
        if np.any(np.abs(ks - np.round(ks)) > 1e-9) or np.any(np.round(ks) < 1):
            raise DomainError(
                f"every fraction must be k/{units} with integer k >= 1; got {self.f_grid}"
            )
        return self.f_grid


def sample_fraction(
    sampler: FractionSampler,
    f: float,
    units: int,
    sample_index: int = 0,
    t_index: int = 0,
) -> ModeSubset:
    """Uniform subset of round(f * units) unit indices, without replacement.

    Deterministic for fixed (seed, t_index, subset size, sample_index).
    """
    size = int(round(f * units))
    if size < 1:
        raise EmptyFraction(f"fraction {f} of {units} units rounds to zero")
    if size > units:
        raise DomainError(f"fraction {f} exceeds one")
    if size == units:
        return ModeSubset.of(range(units), units)
    seq = np.random.SeedSequence((int(sampler.seed) & 0xFFFFFFFFFFFFFFFF, t_index, size, sample_index))
    rng = np.random.default_rng(seq)
    picked = rng.choice(units, size=size, replace=False)
    return ModeSubset.of(sorted(int(i) for i in picked), units)


@dataclass(frozen=True)
class CorrelationCurve:
    """Averaged correlation measure versus fraction size (PI- or PE-plot)."""

    t: float
    measure: str
    f_values: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_samples: np.ndarray
    h_system: float
    samples: dict | None = None

    def __post_init__(self):
        n = len(self.f_values)
        if not (len(self.mean) == len(self.stderr) == len(self.n_samples) == n):
            raise DomainError("curve arrays must have equal length")
        if np.any(self.stderr < 0):
            raise DomainError("standard errors must be >= 0")

    def value_at(self, f: float) -> float:
        idx = int(np.argmin(np.abs(self.f_values - f)))
        if abs(self.f_values[idx] - f) > 1e-9:
            raise DomainError(f"fraction {f} not on the curve grid")
        return float(self.mean[idx])


def _units_to_modes(unit_subset: ModeSubset, sampler: FractionSampler, n_bath: int) -> tuple[int, ...]:
    """Map sampled unit indices to bath mode indices of the covariance."""
    if sampler.unit == "oscillator":
        return tuple(i + 1 for i in unit_subset.indices)
    bands = band_partition(n_bath, sampler.n_bands)
    modes: list[int] = []
    for b in unit_subset.indices:
        modes.extend(bands.band_members[b])
    return tuple(sorted(modes))


def _system_with(cov: CovarianceMatrix, modes: tuple[int, ...]) -> CovarianceMatrix:
    """Reduced state of the system and the given bath modes, system first."""
    return partial_trace(cov, ModeSubset.of((0,) + modes, cov.n_modes))


def _system_negativity(joint: CovarianceMatrix) -> float:
    """Negativity of the system (position 0) against the other modes of joint."""
    return log_negativity(joint, ModeSubset.of([0], joint.n_modes))


def _far_negativity(cov: CovarianceMatrix, joint: CovarianceMatrix, far: tuple[int, ...]) -> float:
    """Negativity of S against the bath modes ``far``, which ``joint`` = S u near leaves out.

    The state is globally pure, so the partners of a purification of joint
    stand in for far.  That block holds at most joint.n_modes + 1 modes, the
    direct block S u far holds len(far) + 1; the smaller one is used.
    """
    if joint.n_modes < len(far):
        partner = purification(joint, ModeSubset.of([0], joint.n_modes))
        return _system_negativity(partner) if partner.n_modes > 1 else 0.0
    return _system_negativity(_system_with(cov, far))


def _split_correlations(
    cov: CovarianceMatrix,
    h_s: float,
    drawn: tuple[int, ...],
    rest: tuple[int, ...],
    want_mi: bool,
    want_neg: bool,
    rest_neg: bool,
) -> tuple[float | None, float | None, float | None, float | None]:
    """(MI, MI, negativity, negativity) of S with the drawn bath modes and with the rest.

    Only the smaller side ("near") and S u near are ever extracted.  With
    global purity H(S u far) = H(near) and H(far) = H(S u near), so
        I(S : near) = H(S) + H(near) - H(S u near),
        I(S : far)  = H(S) + H(S u near) - H(near),
    and the negativity against far comes from _far_negativity.  The rest's
    negativity is computed only when rest_neg is set; unwanted entries are
    None.
    """
    drawn_near = len(drawn) <= len(rest)
    near, far = (drawn, rest) if drawn_near else (rest, drawn)
    joint = _system_with(cov, near)
    mi_near = mi_far = neg_near = neg_far = None
    if want_mi:
        bath_part = ModeSubset.of(range(1, joint.n_modes), joint.n_modes)
        h_near = von_neumann_entropy(partial_trace(joint, bath_part))
        h_joint = von_neumann_entropy(joint)
        mi_near = h_s + h_near - h_joint
        mi_far = h_s + h_joint - h_near
    if want_neg:
        if drawn_near or rest_neg:
            neg_near = _system_negativity(joint)
        if not drawn_near or rest_neg:
            neg_far = _far_negativity(cov, joint, far)
    if drawn_near:
        return mi_near, mi_far, neg_near, neg_far
    return mi_far, mi_near, neg_far, neg_near


def _fraction_curves(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    measures: tuple[str, ...],
    t: float,
    t_index: int,
    keep_samples: bool,
) -> dict[str, CorrelationCurve]:
    """Shared sampling engine for pi_plot / pe_plot.

    The state must be globally pure, as the closed dynamics keeps it; this
    is checked once per call (check_purity, ImpureState past PURITY_TOL).
    Each draw E_f of k bath modes splits the bath into a smaller side of
    at most N/2 modes and a larger one, and every correlation of the pair
    (E_f, E_c) is read off blocks of the smaller side:
        MI           H(near) on k modes and H(S u near) on k + 1;
        negativity   S u near directly (k + 1 modes); against the far side
                     through a purification of S u near (at most k + 2
                     modes) when that block is smaller than S u far
                     (N - k + 1 modes), else directly.
    On the default grid of N = 150 modes no sampled block exceeds 76 modes.
    The point f = 1 is evaluated once, directly, on the whole state.  The
    paired-complement identity I(f) + I(1 - f) = 2 H(S) holds per sample
    to rounding.
    """
    n_bath = cov.n_modes - 1
    units = sampler.n_units(n_bath)
    grid = sampler.grid_for(n_bath)
    check_purity(cov)
    h_s = von_neumann_entropy(partial_trace(cov, ModeSubset.of([0], cov.n_modes)))
    all_modes = tuple(range(1, n_bath + 1))

    values: dict[str, dict[float, list[float]]] = {m: {float(f): [] for f in grid} for m in measures}
    want_mi = "mi" in measures
    want_neg = "neg" in measures

    def record(f: float, mi: float | None, neg: float | None):
        if want_mi:
            values["mi"][f].append(mi)
        if want_neg:
            values["neg"][f].append(neg)

    grid_set = [float(f) for f in grid]

    def grid_key(f: float) -> float | None:
        for g in grid_set:
            if abs(g - f) < 1e-9:
                return g
        return None

    # sample every lower-half point plus any upper point whose mirror is
    # absent from the grid; mirrored points are filled by complements
    sources = [f for f in grid_set if f <= 0.5 and f < 1.0]
    sources += [f for f in grid_set if 0.5 < f < 1.0 and grid_key(1.0 - f) is None]
    for f in sources:
        comp_f = grid_key(1.0 - f)
        for s_idx in range(sampler.samples_per_point):
            subset = sample_fraction(sampler, f, units, sample_index=s_idx, t_index=t_index)
            modes = _units_to_modes(subset, sampler, n_bath)
            comp_modes = tuple(sorted(set(all_modes) - set(modes)))
            mi_f, mi_c, neg_f, neg_c = _split_correlations(
                cov, h_s, modes, comp_modes, want_mi, want_neg, comp_f is not None
            )
            record(f, mi_f, neg_f)
            if comp_f is not None:
                record(comp_f, mi_c, neg_c)
    if grid_key(1.0) is not None:
        # no sampling at f = 1: the subset is the whole environment
        record(1.0, 2.0 * h_s, _system_negativity(_system_with(cov, all_modes)) if want_neg else None)

    out: dict[str, CorrelationCurve] = {}
    for m in measures:
        mean = np.array([np.mean(values[m][float(f)]) for f in grid])
        count = np.array([len(values[m][float(f)]) for f in grid])
        stderr = np.array(
            [
                np.std(values[m][float(f)], ddof=1) / np.sqrt(len(values[m][float(f)]))
                if len(values[m][float(f)]) > 1
                else 0.0
            for f in grid]
        )
        out[m] = CorrelationCurve(
            t=t,
            measure=m,
            f_values=np.asarray(grid, dtype=float),
            mean=mean,
            stderr=stderr,
            n_samples=count,
            h_system=h_s,
            samples={float(f): np.array(values[m][float(f)]) for f in grid} if keep_samples else None,
        )
    return out


def pi_plot(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    t: float = 0.0,
    t_index: int = 0,
    keep_samples: bool = False,
) -> CorrelationCurve:
    """Partial information plot: averaged I(S, E_f) over random fractions.

    Requires a globally pure state, as the closed dynamics gives; raises
    ImpureState otherwise.  The returned curve carries H(S) so consumers
    can subtract it.
    """
    return _fraction_curves(cov, sampler, ("mi",), t, t_index, keep_samples)["mi"]


def pe_plot(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    t: float = 0.0,
    t_index: int = 0,
    keep_samples: bool = False,
) -> CorrelationCurve:
    """Partial entanglement plot: averaged negativity of {S} vs E_f.

    Requires a globally pure state; raises ImpureState otherwise.
    """
    return _fraction_curves(cov, sampler, ("neg",), t, t_index, keep_samples)["neg"]


def pi_pe_plots(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    t: float = 0.0,
    t_index: int = 0,
    keep_samples: bool = False,
) -> tuple[CorrelationCurve, CorrelationCurve]:
    """Both plots over the same sampled subsets (shared draws)."""
    both = _fraction_curves(cov, sampler, ("mi", "neg"), t, t_index, keep_samples)
    return both["mi"], both["neg"]
