"""Band-resolved and fraction-averaged correlations of evolved states.

Two ways of splitting the environment are supported: contiguous frequency
bands (band_correlations) and random fractions of a given size f
(pi_pe_plots).  Fraction sampling is paired: every random subset drawn at
f is reused as its complement at 1 - f, which makes the purity identity
I(f) + I(1-f) = 2 H(S) hold per sample and halves the number of draws.

A PI/PE evaluation has three steps.  fraction_plan lists the sampled grid
points, each with the mirror point that its complements fill.
fraction_samples evaluates a contiguous range of sample indices at every
drawn grid point below f = 1, on one covariance array or on a stack of
them (one per time point, in one call), and returns one array: the MI and
negativity of each draw and of its complement (_split), per sample and
drawn point.  fraction_curves, the one reader of that array, maps it onto
the grid, adds f = 1 as 2 H(S) and E(1), and reduces it to the (PI, PE)
pair of curves.  pi_pe_plots evaluates every sample index in one range;
the runner cuts the indices into slices that workers evaluate in any
order, and joins their arrays in slice order, which is sample order.

The draws are nested.  Each sample orders the sampling units once, from
the stream keyed on (seed, t-index, sample-index) (_permutation), and
grid point k draws the first k units; its mirror holds the rest.  Each
grid point's draw is still a uniform k-subset, so every point's mean has
the uniform-subset estimand, while one sample's values rise with k, as
the exact means do.  Neither the cut nor the worker count changes a
number.

The fraction plots rely on global purity of the closed dynamics, checked
once per time point (gaussian.check_purity; an impure state raises
ImpureState).  Purity lets every draw be evaluated on its drawn side
alone: only S u near, near the drawn modes, is evaluated, and its
purification partner (S and one ancilla per mixed mode) stands in for
S u far, far the complement (see _split).  Purity also gives the f = 1
negativity in closed form from the 2 x 2 system block (_pure_negativity).

Purity also spares every near side its whole block.  A mode that is pure
in the reduced state of near is in product with everything else (Botero &
Reznik, PRA 67, 052311 (2003)), so S u near and S u (the mixed Williamson
modes of near) share every entropy and the negativity on S, on either
side of the split.  A sample's draws are runs of one order: with the bath
modes in the sample's unit order, grid point k draws the first modes of
that order, however many.  So fraction_samples sweeps each row once
(_sweep), a row being one sample at one time point.  It visits the row's
draws in increasing size, and each step takes the Williamson form
(gaussian._mixed_modes) of the modes kept so far, diag(nu), bordered by
the modes added since the previous draw.  It keeps the new mixed modes,
with their covariances against S and the modes later steps add.  The sum
of h(nu) over the kept modes is H(near).  Each draw's block of S and its
kept modes then goes through _split, all blocks of one size of the call
as one stack.  There everything is read off one factor
(gaussian._factor: K = L^T Omega L and K^T K): the real Williamson form
(gaussian.purification) gives H(S u near) and the partner, and the same
factor the partial transpose on S.

Bands run on the same kernels: band_correlations factors the block of
S u band once for H(S u band) and its partial transpose, and the band's
own block for H(band) (_band_values); it makes no purity assumption.
Bands of one size go through _in_stacks as stacks (_blocks, system first),
which STACK_BYTES bounds (_stack_slices), as it bounds the sweep's steps.
Every stack, of bands, steps or splits, gives each matrix bit for bit its
result alone.  H(S) = h(nu_S) and the f = 1 negativity arccosh(2 nu_S)
read one nu_S = sqrt(det sigma_S) of the 2 x 2 system block (_system_nu);
no function here takes a spectrum of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadBandCount, DomainError
from .gaussian import (
    NU_TOL,
    CovarianceMatrix,
    _entropy_of_values,
    _factor,
    _gram_spectra,
    _mixed_modes,
    _negativity_of_values,
    _scales,
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
    members = [np.array(block) for block in bands.band_members]
    sizes = np.array([len(block) for block in members])
    mi, neg = _in_stacks(
        sizes, lambda idx: _band_values(cov.data, h_s, np.array([members[i] for i in idx])), lambda size: 2 * size + 2
    )
    return BandCorrelations(t=t, band_edges=bands.band_edges, mi=mi, neg=neg)


def system_entropy(cov: CovarianceMatrix) -> float:
    """H(S) = h(nu_S), the von Neumann entropy of the system mode 0 (_system_nu)."""
    return _entropy_of_values([_system_nu(cov.data)])


def _system_nu(data: np.ndarray) -> float:
    """nu_S = sqrt(det sigma_S), the symplectic eigenvalue of the 2 x 2 system block of a covariance array.

    Valid for any single-mode state, pure or not.  A determinant below
    (1/2 - NU_TOL)^2, or NaN, is unphysical and raises DomainError.
    """
    det = data[0, 0] * data[1, 1] - data[0, 1] ** 2
    if not det >= (0.5 - NU_TOL) ** 2:
        raise DomainError(f"system block determinant {det} below (1/2 - {NU_TOL})^2")
    return np.sqrt(det)


def default_f_grid(n_units: int) -> np.ndarray:
    """Symmetric fraction grid of at most 24 multiples of 1/n_units.

    A geometric ladder of at most 11 points from 1/n_units up to ~0.4 is mirrored about 1/2;
    the points 1/2 and 1 are always included.  Dense ends resolve the
    plateau edges, and the gap (0.4, 0.6) around 1/2 keeps the finite
    difference used for the non-redundant information well conditioned.
    """
    if n_units < 2:
        raise DomainError("need at least two sampling units for a fraction grid")
    k_top = max(1, int(round(0.4 * n_units)))
    n_lower = 11  # with the mirrors, 1/2 and 1: 24 points
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

    def unit_of_mode(self, n_bath: int) -> np.ndarray:
        """The sampling unit of each bath mode: the mode itself, or its band (band_partition)."""
        if self.unit == "band":
            return np.repeat(np.arange(self.n_bands), [len(b) for b in band_partition(n_bath, self.n_bands).band_members])
        return np.arange(n_bath)

    def grid_for(self, n_bath: int) -> np.ndarray:
        units = self.n_units(n_bath)
        if self.f_grid is None:
            return default_f_grid(units)
        ks = self.f_grid * units
        if np.any(np.abs(ks - np.round(ks)) > 1e-9) or np.any(np.round(ks) < 1):
            raise DomainError(
                f"every fraction must be k/{units} with integer k >= 1; got {self.f_grid}"
            )
        same = np.flatnonzero(np.diff(np.round(ks)) == 0)  # the grid ascends, so one k's fractions are neighbours
        if len(same):
            f, g = self.f_grid[same[0] : same[0] + 2].tolist()
            raise DomainError(f"fractions {f!r} and {g!r} are both k/{units} with k = {round(f * units)}")
        return self.f_grid


def _permutation(sampler: FractionSampler, units: int, sample_index: int, t_index: int) -> np.ndarray:
    """The order of the sampling units in one sample, from the stream of (seed, t_index, sample_index): every grid point k draws its first k units."""
    seq = np.random.SeedSequence((int(sampler.seed) & 0xFFFFFFFFFFFFFFFF, t_index, sample_index))
    return np.random.default_rng(seq).permutation(units)


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


#: Working-memory budget of one stacked operand, as float64: _in_stacks
#: cuts the bands of one size, and _sweep each step's blocks of one shape,
#: into slices of blocks of at most this many bytes (at least one block;
#: _stack_slices).
#: On the desk grid the steps take blocks of at most about 33 modes and no
#: cut falls; at 600 oscillators a step adds up to 94 modes, and uncut, the
#: 30 rows of 10 samples at 3 time points peaked at 28-29 MB under
#: tracemalloc, against 16-17 MB cut.
STACK_BYTES = 1 << 21


def _pure_negativity(data: np.ndarray) -> float:
    """Logarithmic negativity of S against all the rest of a globally pure state.

    In the mode-wise normal form of a pure bipartite state (Botero & Reznik,
    PRA 67, 052311 (2003)) S pairs with one bath mode in a two-mode squeezed
    state, so E = arccosh(2 nu_S) with the nu_S of H(S) (_system_nu).  Its
    partially transposed eigenvalue 1 / (4 (nu_S + sqrt(nu_S^2 - 1/4)))
    goes through _negativity_of_values, which zeroes values in the NU_TOL
    band.  Only valid after gaussian.check_purity passed.
    """
    nu = _system_nu(data)
    return _negativity_of_values(np.array([0.25 / (nu + np.sqrt(max(nu * nu - 0.25, 0.0)))]))


def _quadratures(modes: np.ndarray) -> np.ndarray:
    """Row indices of the covariance array for S and the modes of each row of an (n, c) array of mode indices (1..N): (n, 2c + 2), S's x and p first."""
    picked = np.column_stack((np.zeros(len(modes), dtype=int), modes))
    return np.stack((2 * picked, 2 * picked + 1), axis=2).reshape(len(modes), -1)


def _blocks(data: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Blocks of S and the bath modes of each row of an (n, c) array of mode indices (1..N), system first, in row order."""
    rows = _quadratures(modes)
    return data[rows[:, :, None], rows[:, None, :]]


def _stack_slices(items: np.ndarray, rows: int) -> list[np.ndarray]:
    """items cut in order into slices of as many blocks of rows x rows floats as STACK_BYTES holds, at least one."""
    step = max(1, STACK_BYTES // (8 * rows**2))
    return [items[lo : lo + step] for lo in range(0, len(items), step)]


def _in_stacks(keys: np.ndarray, evaluate, rows) -> np.ndarray:
    """Columns evaluate(idx) of every item, in item order, where idx holds the indices of items of one key.

    Items of one key have blocks of one size, rows(key) rows, so they go to
    evaluate together, in slices of at most STACK_BYTES per block.  Every
    kernel gives each block of a stack bit for bit its result alone, so the
    cut changes no value.
    """
    order, columns = [], []
    for key in sorted(set(keys.tolist())):
        for idx in _stack_slices(np.flatnonzero(keys == key), rows(key)):
            order.append(idx)
            columns.append(evaluate(idx))
    return np.concatenate(columns, axis=1)[:, np.argsort(np.concatenate(order))]


def _band_values(data: np.ndarray, h_s: float, modes: np.ndarray) -> np.ndarray:
    """(MI, negativity) of S with the bath modes of each row of an (n, c) array of mode indices (_blocks), shape (2, n).

    The block of S u band is factored once (gaussian._factor): it gives
    H(S u band) and the partial transpose on S.  The band's own block
    gives H(band), and I(S : band) = H(S) + H(band) - H(S u band).
    """
    joints = _blocks(data, modes)
    chol, form, gram = _factor(joints)
    alone = joints[:, 2:, 2:]
    h_band = _entropy_of_values(_gram_spectra(*_factor(alone)[1:], _scales(alone)))
    h_joint = _entropy_of_values(_gram_spectra(form, gram, _scales(joints)))
    neg = _negativity_of_values(_transposed_spectra(joints, (chol, form, gram)))
    return np.array([h_s + h_band - h_joint, neg])


def _split(h_s: float | np.ndarray, joints: np.ndarray, h_near: np.ndarray) -> np.ndarray:
    """(MI, MI, negativity, negativity) of S with the near bath modes of each block of a stack and with the rest, shape (4, n).

    joints is an (n, 2c + 2, 2c + 2) stack of blocks of S u near, near
    either side of a split of the bath, or the modes that stand in for it
    (_sweep); h_s holds H(S) and h_near H(near) of each block (or one value
    for all).  Only S u near is factored, in gaussian.purification.  Its
    Williamson decomposition gives H(S u near) and a purification partner
    (S and one ancilla per mixed mode), which stands in for S u far.  With
    global purity H(S u far) = H(near) and H(far) = H(S u near), so
        I(S : near) = H(S) + H(near) - H(S u near),
        I(S : far)  = H(S) + H(S u near) - H(near).
    The negativity against far is read off the partner's partial
    transpose, and the one against near off that of S u near.  The rows are
    near, far, near, far.
    """
    nu, partners, transposes = purification(joints)
    h_joint, neg_far = _entropy_of_values(nu), np.empty(len(joints))
    for idx, blocks in partners:
        neg_far[idx] = _negativity_of_values(_transposed_spectra(blocks, _factor(blocks)))
    return np.array([h_s + h_near - h_joint, h_s + h_joint - h_near, _negativity_of_values(transposes), neg_far])


def _sweep(data: np.ndarray, state: np.ndarray, modes: np.ndarray, sizes: np.ndarray) -> list:
    """The block of S and the kept modes of each drawn prefix of each row: (blocks, rows, column) stacks.

    data (T, 2N + 2, 2N + 2) holds covariance arrays and state the one that
    each row reads.  modes (n, N) holds the bath modes (1..N) of each row in
    its unit order, and sizes (n, c) the drawn prefix of each grid column,
    strictly rising along every row.  Each row visits its prefixes in column
    order, and each step adds the modes between the previous prefix and
    this one.  It keeps, for the prefix E, only its mixed Williamson modes:
    their nu and the covariances of their quadratures with S and with the
    modes that later steps add (gaussian._mixed_modes).  A step's block
    holds the kept modes, diag(nu), bordered by the added modes' rows and
    columns.  Dropping a pure mode is exact in a globally pure state, so the
    block of S and the kept modes (S first, then diag(nu) bordered by their
    covariances with S) shares every entropy and the negativity on S with
    S u E (_split).  Rows step together, grouped by their kept count and
    the modes they add, in slices of at most STACK_BYTES per block
    (_stack_slices), so each row's arrays are sized by its own counts alone.
    """
    quads = _quadratures(modes)
    last = np.max(sizes, axis=1, initial=0)  # no step reads a mode past its row's largest prefix
    kept = [(np.empty(0), np.empty((0, 2 + 2 * top))) for top in last.tolist()]
    out = []
    for q in range(sizes.shape[1]):
        groups: dict[tuple, list] = {}
        for s in range(len(sizes)):
            key = (len(kept[s][0]), int(sizes[s, q - 1]) if q else 0, int(sizes[s, q]), int(last[s]))
            groups.setdefault(key, []).append(s)
        for (m, lo, hi, top), members in groups.items():
            width = 2 * (hi - lo)
            for idx in _stack_slices(np.array(members), 2 * m + width):
                nu = np.array([kept[s][0] for s in idx]).reshape(len(idx), m)
                rows = np.array([kept[s][1] for s in idx]).reshape(len(idx), 2 * m, 2 + 2 * (top - lo))
                added, own = quads[idx, 2 + 2 * lo : 2 + 2 * hi], state[idx, None, None]
                later = np.concatenate((quads[idx, :2], quads[idx, 2 + 2 * hi : 2 + 2 * top]), axis=1)
                block = np.zeros((len(idx), 2 * m + width, 2 * m + width))
                block[:, np.arange(2 * m), np.arange(2 * m)] = np.repeat(nu, 2, axis=1)
                block[:, : 2 * m, 2 * m :] = rows[:, :, 2 : 2 + width]
                block[:, 2 * m :, : 2 * m] = np.swapaxes(rows[:, :, 2 : 2 + width], 1, 2)
                block[:, 2 * m :, 2 * m :] = data[own, added[:, :, None], added[:, None, :]]
                # the block's quadratures against S and the modes of later steps
                rest = np.concatenate((rows[:, :, :2], rows[:, :, 2 + width :]), axis=2)
                cross = np.concatenate((rest, data[own, added[:, :, None], later[:, None, :]]), axis=1)
                for part, nu_kept, rows_kept in _mixed_modes(block, cross):
                    for s, pair in zip(idx[part].tolist(), zip(nu_kept, rows_kept)):
                        kept[s] = pair
                    size = 2 + 2 * nu_kept.shape[1]
                    joints = np.zeros((len(part), size, size))
                    joints[:, :2, :2] = data[state[idx[part]], :2, :2]
                    joints[:, 2:, :2] = rows_kept[:, :, :2]
                    joints[:, :2, 2:] = np.swapaxes(rows_kept[:, :, :2], 1, 2)
                    joints[:, np.arange(2, size), np.arange(2, size)] = np.repeat(nu_kept, 2, axis=1)
                    out.append((joints, idx[part], q))
    return out


def fraction_samples(
    data: np.ndarray,
    h_s: float | np.ndarray,
    sampler: FractionSampler,
    sample_indices: range,
    t_index: int | list[int] = 0,
) -> np.ndarray:
    """Per-sample values of a range of sample indices at the drawn grid points below f = 1, shape (4, samples, columns).

    data is the covariance array (a CovarianceMatrix's, system first) of a
    globally pure state, which the caller checks, and h_s its H(S).  The
    rows are the MI of the draw and of its complement, then the negativity
    of each (_split); the samples follow sample_indices, a contiguous
    range, and column c is the c-th drawn point of fraction_plan.  Which
    grid point each value fills, and f = 1, is fraction_curves' to say.
    data may also be a stack (T, 2N + 2, 2N + 2) of such states, with h_s
    and t_index holding one value per state; then the result has shape
    (T, 4, samples, columns), each state's array bit for bit the one it
    gives alone, and every (state, sample) row is swept and split together.
    The draws are nested: each sample orders the sampling units once
    (_permutation), and grid point k draws the first k units.  With the
    bath modes in that order (a band's modes in a row, ascending), every
    draw is a leading run, on either side of 1/2 (unmirrored upper points,
    and uneven bands, draw more than half the modes).  So each row sweeps
    its order once (_sweep), one step per drawn grid point, keeping only
    the mixed Williamson modes of the draw so far, and every draw's block
    of S and its kept modes goes to _split as the near side, all blocks of
    one size as one stack, with H(near) the sum of h(nu) over its kept
    modes.  Each row's values depend on its own state and order alone, so
    they do not depend on the other rows.  The stacked eigh's vectors, and
    with them the pairing_repairs count, depend on the BLAS thread count.
    The CLI and the pool workers run BLAS on one thread, so only a library
    caller that sets OPENBLAS_NUM_THREADS=1 (or the equivalent) before
    numpy loads is sure of their bytes.
    """
    stack = data if data.ndim == 3 else data[None]
    h_ss, t_indices = np.atleast_1d(h_s), np.atleast_1d(t_index).tolist()
    n_bath = stack.shape[-1] // 2 - 1
    units, unit_of_mode = sampler.n_units(n_bath), sampler.unit_of_mode(n_bath)
    ks = np.array([round(f * units) for f, _ in fraction_plan(sampler.grid_for(n_bath), units)], dtype=int)
    ks = ks[ks < units]
    # one row per (state, sample), state by state
    perms = np.array([_permutation(sampler, units, s_idx, t) for t in t_indices for s_idx in sample_indices])
    state = np.repeat(np.arange(len(stack)), len(sample_indices))
    # bath modes (1..N) in each row's unit order, and how many the first k units hold
    order = np.argsort(np.argsort(perms, axis=1)[:, unit_of_mode], axis=1, kind="stable") + 1
    counts = np.cumsum(np.bincount(unit_of_mode, minlength=units)[perms], axis=1)[:, ks - 1]
    values = np.empty((4, len(perms), len(ks)))
    by_size: dict[int, list] = {}
    for joints, rows, col in _sweep(stack, state, order, counts):
        by_size.setdefault(joints.shape[-1], []).append((joints, rows, col))
    for parts in by_size.values():
        joints, which = np.concatenate([part[0] for part in parts]), np.concatenate([part[1] for part in parts])
        h_near = _entropy_of_values(np.diagonal(joints, axis1=1, axis2=2)[:, 2::2])  # the kept modes' nu
        got, at = _split(h_ss[state[which]], joints, h_near), 0
        for part, rows, col in parts:
            values[:, rows, col] = got[:, at : at + len(part)]
            at += len(part)
    by_state = np.moveaxis(values.reshape(4, len(stack), len(sample_indices), len(ks)), 0, 1)
    return by_state.reshape(data.shape[:-2] + by_state.shape[1:])


def fraction_curves(
    grid: np.ndarray,
    units: int,
    values: np.ndarray,
    h_s: float,
    e_full: float,
    t: float = 0.0,
) -> tuple[CorrelationCurve, CorrelationCurve]:
    """The PI and PE curves: mean and standard error at every grid point, from fraction_samples' array of every sample, in sample order.

    Column c of values is the c-th drawn point of fraction_plan: its draws
    go to that point and their complements to its mirror, and f = 1/2
    interleaves draw and complement, sample by sample.  f = 1 is the whole
    environment, one value each: 2 H(S) and e_full, the E(1) of the pure
    state (_pure_negativity).
    """
    drawn = [round(f * units) for f, _ in fraction_plan(grid, units)]  # column c draws drawn[c]; f = 1 comes last
    cells = []  # the (MI, negativity) values of each grid point
    for k in [round(f * units) for f in grid]:
        if k == units:
            cells.append(np.array([[2.0 * h_s], [e_full]]))
        elif 2 * k == units:  # each sample's draw, then its complement
            cells.append(values[:, :, drawn.index(k)].reshape(2, 2, -1).transpose(0, 2, 1).reshape(2, -1))
        elif k in drawn:
            cells.append(values[[0, 2], :, drawn.index(k)])
        else:
            cells.append(values[[1, 3], :, drawn.index(units - k)])

    def curve(m: int, measure: str) -> CorrelationCurve:
        lists = [cell[m] for cell in cells]
        return CorrelationCurve(
            t=t,
            measure=measure,
            f_values=np.asarray(grid, dtype=float),
            mean=np.array([np.mean(v) for v in lists]),
            stderr=np.array([np.std(v, ddof=1) / np.sqrt(len(v)) if len(v) > 1 else 0.0 for v in lists]),
            n_samples=np.array([len(v) for v in lists]),
            h_system=h_s,
        )

    return curve(0, "mi"), curve(1, "neg")


def pi_pe_plots(
    cov: CovarianceMatrix,
    sampler: FractionSampler,
    t: float = 0.0,
    t_index: int = 0,
) -> tuple[CorrelationCurve, CorrelationCurve]:
    """The PI-plot (averaged I(S, E_f)) and PE-plot (averaged negativity of {S} vs E_f) over shared draws.

    Every sample index is evaluated in one range, and fraction_curves makes
    the pair.  Requires a globally pure state, as the closed dynamics gives;
    raises ImpureState otherwise.  The curves carry H(S) so consumers can
    subtract it.  Only on one BLAS thread are they sure to match the CLI's
    bytes (fraction_samples).
    """
    n_bath = cov.n_modes - 1
    grid = sampler.grid_for(n_bath)
    check_purity(cov)
    h_s = system_entropy(cov)
    values = fraction_samples(cov.data, h_s, sampler, range(sampler.samples_per_point), t_index)
    return fraction_curves(grid, sampler.n_units(n_bath), values, h_s, _pure_negativity(cov.data), t)
