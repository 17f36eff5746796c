"""Band-resolved and fraction-averaged correlations of evolved states.

Two ways of splitting the environment are supported: contiguous frequency
bands (band_correlations) and random fractions of a given size f
(pi_pe_plots).  Fraction sampling is paired: every random subset drawn at
f is reused as its complement at 1 - f, which makes the purity identity
I(f) + I(1-f) = 2 H(S) hold per sample and halves the number of draws.

A PI/PE evaluation has three steps.  fraction_plan lists the sampled grid
points, each with the mirror point that its complements fill.
fraction_samples evaluates a contiguous range of sample indices at every
grid point of the plan, on index arrays of the covariance array, and
fraction_curves reduces the merged samples to curves, both measures at
once.  pi_pe_plots evaluates every sample index in one range; the runner
cuts the indices into slices that workers evaluate in any order, and
merges each grid point's values in slice order, which is sample order.
Every draw is keyed on (seed, t-index, subset size, sample-index), so
neither the cut nor the worker count changes a number.

The fraction plots rely on global purity of the closed dynamics, checked
once per time point (gaussian.check_purity; an impure state raises
ImpureState).  Purity lets every draw be evaluated on its smaller side: for
a split of the N bath modes into k <= N/2 and N - k, the only block
extracted is S u near, of k + 1 modes, and its purification partner (S and
one ancilla per mixed mode) stands in for S u far (see _split).  Purity
also gives the f = 1 negativity in closed form from the 2 x 2 system block
(_pure_negativity), so the largest block is S u E_f at f = 1/2 (76 modes
on the desk grid).

Each draw factors S u near once (gaussian._factor: L, K = L^T Omega L and
K^T K) and reads everything off that factor: the real Williamson form
(gaussian.purification: one eigh of K^T K) gives H(S u near) and the
partner, and the partial transpose on S comes from the same L
(gaussian._transposed_spectra: one eigvalsh).  On a desk time point (N =
150, 20 samples) the summed cost (2 x modes)^3 of the spectra is 2.5e8.

Bands run on the same engine: band_correlations makes one mask per band,
factors the block of S u band once for H(S u band) and its partial
transpose, and the band's own block for H(band) (_band_values); it makes
no purity assumption.  Draws and bands alike go through _in_stacks: masks
that select equally many bath modes have blocks of one size, so they are
evaluated as stacks (_blocks, system first), each matrix bit for bit as
alone, in slices of at most STACK_BYTES.  H(S) is the entropy of the 2 x
2 system block (gaussian._spectrum_of).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBandCount, DomainError
from .gaussian import (
    CovarianceMatrix,
    _entropy_of_values,
    _factor,
    _gram_spectra,
    _negativity_of_values,
    _spectrum_of,
    _transposed_spectra,
    check_purity,
    purification,
)
# not called here; perfbench's traced chain calls them as correlations.<name>
from .gaussian import partial_trace, von_neumann_entropy  # noqa: F401


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
    """MI(S, band) and negativity of {S} vs band after tracing the rest.

    Each band is read off the block of S and its members (_band_values); no
    purity is assumed, so impure states are accepted.
    """
    h_s = system_entropy(cov)
    masks = np.zeros((bands.n_bands, cov.n_modes - 1), dtype=bool)
    for i, block in enumerate(bands.band_members):
        masks[i, np.array(block) - 1] = True
    mi, neg = _in_stacks(masks, lambda part: _band_values(cov.data, h_s, part), lambda count: count)
    return BandCorrelations(t=t, band_edges=bands.band_edges, mi=mi, neg=neg)


def system_entropy(cov: CovarianceMatrix) -> float:
    """H(S), the von Neumann entropy of the system mode 0."""
    return _entropy_of_values(_spectrum_of(cov.data[:2, :2], 0.0))


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
    # sets, not np.unique, which imports numpy.ma (1.6 MB) into the runner's process
    ladder = set(np.round(np.geomspace(1, k_top, n_lower)).astype(int).tolist())
    request = n_lower
    while len(ladder) < min(n_lower, k_top) and request < 4 * n_lower:
        request += 1
        ladder = set(np.round(np.geomspace(1, k_top, request)).astype(int).tolist())
    ks = ladder | {n_units - k for k in ladder}
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


def _draw(sampler: FractionSampler, size: int, units: int, sample_index: int, t_index: int) -> np.ndarray:
    """size distinct unit indices, unsorted, from the stream of (seed, t_index, size, sample_index)."""
    seq = np.random.SeedSequence((int(sampler.seed) & 0xFFFFFFFFFFFFFFFF, t_index, size, sample_index))
    return np.random.default_rng(seq).choice(units, size=size, replace=False)


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

    def __post_init__(self):
        n = len(self.f_values)
        if not (len(self.mean) == len(self.stderr) == len(self.n_samples) == n):
            raise DomainError("curve arrays must have equal length")
        if np.any(self.stderr < 0):
            raise DomainError("standard errors must be >= 0")


def fraction_plan(grid: np.ndarray, units: int) -> list[tuple[float, float | None]]:
    """(source f, mirror f or None) of every grid point that is drawn.

    Every point f <= 1/2 is drawn, and so is every upper point whose mirror
    1 - f is not on the grid; the complement of each draw fills the mirror.
    The point f = 1, if on the grid, is its own entry: the whole
    environment, evaluated once without a draw.
    """
    by_k = {int(round(f * units)): float(f) for f in grid}
    return [
        (f, by_k.get(units - k))
        for k, f in by_k.items()
        if k == units or 2 * k <= units or units - k not in by_k
    ]


#: Working-memory budget of one stacked operand: draws and bands are
#: evaluated (_in_stacks) in slices of blocks of at most this many bytes as
#: float64 (at least one block).  A whole 20-draw stack of 76-mode blocks
#: takes 3.7 MB per operand, and a desk time point's fraction_samples then
#: peaks at 23 MB under tracemalloc; with this budget it peaks at 3.3 MB.
STACK_BYTES = 1 << 19


def _pure_negativity(data: np.ndarray) -> float:
    """Logarithmic negativity of S against all the rest of a globally pure state.

    In the mode-wise normal form of a pure bipartite state (Botero & Reznik,
    PRA 67, 052311 (2003)) S pairs with one bath mode in a two-mode squeezed
    state, so E = arccosh(2 nu_S) with nu_S = sqrt(det sigma_S).  Its
    partially transposed eigenvalue 1 / (4 (nu_S + sqrt(nu_S^2 - 1/4)))
    goes through _negativity_of_values, which zeroes values in the NU_TOL
    band.  Only valid after gaussian.check_purity passed.
    """
    nu = np.sqrt(data[0, 0] * data[1, 1] - data[0, 1] ** 2)
    return _negativity_of_values(np.array([0.25 / (nu + np.sqrt(max(nu * nu - 0.25, 0.0)))]))


def _blocks(data: np.ndarray, baths: np.ndarray) -> np.ndarray:
    """Blocks of S and the bath modes of each row of an (n, N) stack of masks that select equally many modes, system first."""
    keep = np.repeat(np.column_stack((np.ones(len(baths), dtype=bool), baths)), 2, axis=1)
    rows = np.nonzero(keep)[1].reshape(len(baths), -1)
    return data[rows[:, :, None], rows[:, None, :]]


def _in_stacks(masks: np.ndarray, evaluate, modes) -> np.ndarray:
    """Columns evaluate(masks[part]) of every row of an (n, N) stack of bath masks, in row order.

    Masks that select equally many bath modes, count, have blocks of one
    size, modes(count) + 1 modes, so they go to evaluate together, in
    slices of at most STACK_BYTES per block.  Every kernel gives each block
    of a stack bit for bit its result alone, so the cut changes no value.
    """
    counts = np.count_nonzero(masks, axis=1)
    order, columns = [], []
    for count in sorted(set(counts.tolist())):
        same = np.flatnonzero(counts == count)
        rows = 2 * modes(count) + 2
        step = max(1, STACK_BYTES // (8 * rows * rows))
        for lo in range(0, len(same), step):
            order.append(same[lo : lo + step])
            columns.append(evaluate(masks[order[-1]]))
    return np.concatenate(columns, axis=1)[:, np.argsort(np.concatenate(order))]


def _band_values(data: np.ndarray, h_s: float, bands: np.ndarray) -> np.ndarray:
    """(MI, negativity) of S with the bath modes of each mask of a stack (_blocks), shape (2, n).

    The block of S u band is factored once (gaussian._factor): it gives
    H(S u band) and the partial transpose on S.  The band's own block
    gives H(band), and I(S : band) = H(S) + H(band) - H(S u band).
    """
    joints = _blocks(data, bands)
    chol, form, gram = _factor(joints)
    alone = joints[:, 2:, 2:]
    h_band = _entropy_of_values(_gram_spectra(alone, *_factor(alone)[1:]))
    h_joint = _entropy_of_values(_gram_spectra(joints, form, gram))
    neg = _negativity_of_values(_transposed_spectra(joints, (chol, form, gram)))
    return np.array([h_s + h_band - h_joint, neg])


def _split(data: np.ndarray, h_s: float, drawn: np.ndarray, rest_neg: bool) -> np.ndarray:
    """(MI, MI, negativity, negativity) of S with the drawn bath modes and with the rest, per draw.

    drawn is an (n, N) stack of bath masks that all select the same number
    of modes, and the result has shape (4, n).  Only S u near, for the
    smaller side ("near"), is extracted, as one stack, and factored once
    (gaussian._factor).  Its Williamson decomposition gives H(S u near) and
    a purification partner (S and one ancilla per mixed mode; see
    gaussian.purification), which stands in for S u far.  With global
    purity H(S u far) = H(near), H(far) = H(S u near) and H(near) =
    H(S u ancillas), so
        I(S : near) = H(S) + H(near) - H(S u near),
        I(S : far)  = H(S) + H(S u near) - H(near).
    The negativity against far is read off the partner's partial
    transpose, and the one against near off that of S u near from the same
    factor, each only when it is wanted (the drawn side, or both sides when
    rest_neg is set); the other is NaN.
    """
    drawn_near = 2 * np.count_nonzero(drawn[0]) <= drawn.shape[1]
    want_near, want_far = drawn_near or rest_neg, not drawn_near or rest_neg
    joints = _blocks(data, drawn if drawn_near else ~drawn)
    factor = _factor(joints)
    nu, partners = purification(joints, factor)
    h_joint, h_near, neg_far = _entropy_of_values(nu), np.empty(len(joints)), np.full(len(joints), np.nan)
    for idx, blocks in partners:
        chol, form, gram = _factor(blocks)
        h_near[idx] = _entropy_of_values(_gram_spectra(blocks, form, gram))
        if want_far:
            neg_far[idx] = _negativity_of_values(_transposed_spectra(blocks, (chol, form, gram)))
    neg_near = _negativity_of_values(_transposed_spectra(joints, factor)) if want_near else np.full(len(joints), np.nan)
    mi_near = h_s + h_near - h_joint
    mi_far = h_s + h_joint - h_near
    if drawn_near:
        return np.array([mi_near, mi_far, neg_near, neg_far])
    return np.array([mi_far, mi_near, neg_far, neg_near])


def fraction_samples(
    data: np.ndarray,
    h_s: float,
    sampler: FractionSampler,
    sample_indices: range,
    t_index: int = 0,
) -> dict[str, dict[float, list[float]]]:
    """{"mi" and "neg": {grid point: per-sample values}} of a range of sample indices at every grid point.

    data is the covariance array (a CovarianceMatrix's, system first) of a
    globally pure state, which the caller checks, and h_s its H(S).  Every
    grid point of the plan (fraction_plan) is drawn at each index of
    sample_indices, a contiguous range; the values come in index order.
    The draws of a grid point are masks over the bath modes, evaluated on
    their smaller side (_split) in stacks (_in_stacks).  At f = 1
    the mutual information is 2 H(S) and the negativity is read off
    sigma_S (_pure_negativity), recorded once, by the range that starts at
    index 0.  A self-mirrored point (f = 1/2) lists draw and complement
    interleaved.
    """
    n_bath = data.shape[0] // 2 - 1
    units = sampler.n_units(n_bath)
    unit_of_mode = np.arange(n_bath)
    if sampler.unit == "band":
        sizes = [len(b) for b in band_partition(n_bath, units).band_members]
        unit_of_mode = np.repeat(np.arange(units), sizes)
    out: dict[str, dict[float, list[float]]] = {"mi": {}, "neg": {}}

    def record(f: float, mi: float, neg: float):
        out["mi"].setdefault(f, []).append(mi)
        out["neg"].setdefault(f, []).append(neg)

    for f, mirror in fraction_plan(sampler.grid_for(n_bath), units):
        size = int(round(f * units))
        if size == units:
            if sample_indices.start == 0:
                record(f, 2.0 * h_s, _pure_negativity(data))
            continue
        picked = np.zeros((len(sample_indices), units), dtype=bool)
        for row, s_idx in enumerate(sample_indices):
            picked[row, _draw(sampler, size, units, s_idx, t_index)] = True
        drawn = picked[:, unit_of_mode]
        values = _in_stacks(
            drawn, lambda part: _split(data, h_s, part, mirror is not None), lambda count: min(count, n_bath - count)
        )
        for mi_f, mi_c, neg_f, neg_c in values.T.tolist():
            record(f, mi_f, neg_f)
            if mirror is not None:
                record(mirror, mi_c, neg_c)
    return out


def fraction_curves(
    grid: np.ndarray,
    samples: dict[str, dict[float, list[float]]],
    h_s: float,
    t: float = 0.0,
) -> dict[str, CorrelationCurve]:
    """Mean and standard error at every grid point, from the merged samples of every sample index."""
    out: dict[str, CorrelationCurve] = {}
    for m, values in samples.items():
        lists = [values[float(f)] for f in grid]
        out[m] = CorrelationCurve(
            t=t,
            measure=m,
            f_values=np.asarray(grid, dtype=float),
            mean=np.array([np.mean(v) for v in lists]),
            stderr=np.array([np.std(v, ddof=1) / np.sqrt(len(v)) if len(v) > 1 else 0.0 for v in lists]),
            n_samples=np.array([len(v) for v in lists]),
            h_system=h_s,
        )
    return out


def pi_pe_plots(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    t: float = 0.0,
    t_index: int = 0,
) -> tuple[CorrelationCurve, CorrelationCurve]:
    """The PI-plot (averaged I(S, E_f)) and PE-plot (averaged negativity of {S} vs E_f) over shared draws.

    Every sample index is evaluated in one range.  Requires a globally pure
    state, as the closed dynamics gives; raises ImpureState otherwise.  The
    curves carry H(S) so consumers can subtract it.
    """
    grid = sampler.grid_for(cov.n_modes - 1)
    check_purity(cov)
    h_s = system_entropy(cov)
    samples = fraction_samples(cov.data, h_s, sampler, range(sampler.samples_per_point), t_index)
    curves = fraction_curves(grid, samples, h_s, t)
    return curves["mi"], curves["neg"]
