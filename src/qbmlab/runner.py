"""Experiment orchestration: stage pipeline, persistence, and the manifest.

A run evaluates the evolved covariance matrix on the configured time grid
and derives per-stage data products:

    evolve      state diagnostics (purity bound, energy, system entropy)
    bands       per-band MI and negativity          (frequency-resolved)
    piplot      averaged mutual information curves  (PI-plots)
    peplot      averaged entanglement curves        (PE-plots)
    redundancy  R_E / R_I / I_NR reports from the curves
    compare     numeric curves against the closed-form branch model
    analytic    closed-form branch-model curves on the time grid and on the
                run's f_grid, else on 50 points linspace(0.02, 1, 50)

The curves that redundancy and compare read come from the time points of
the run itself or, with ``curves_dir``, from the piplot and peplot files an
earlier run persisted there (``load_curves``); then nothing is simulated,
and that run must have had the command's physics (RunConfig.physics).

The unit of parallel work is one slice ("chunk") of one time point's
sample indices, evaluated at every grid point of the fraction plan
(correlations.fraction_samples).  Chunks of equal sample count cost the
same.  With W workers and n time points, a time point is cut into
min(samples, W) contiguous slices of near-equal size when n < 4 W, so
every worker gets equal items, and stays whole on a longer grid or with
one worker.  Chunk 0 also carries the state diagnostics, the bands and
f = 1.  Items go to a pool of worker processes in time order.
Every chunk evolves its time point and checks its purity (ImpureState in
every stage); neither step, nor H(S), takes a counted spectrum, so the
manifest's counts do not depend on the cut or on which worker takes a
chunk.  The manifest sums each chunk's counts (gaussian.merge_counts) and
wall-clock per layer, and the pieces' build where a chunk made it.  The
runner keeps each time point's chunks in slice order, and
correlations.fraction_curves reduces them to the (PI, PE) pair of curves.
A serial run (workers = 1) is a pool of one, and a run whose stages need
no time point starts no pool.

Workers fork from a forkserver that has imported the package's _preload
module, and with it this module, numpy and the pool's worker loop
(concurrent.futures.process), so a forked worker imports none of them;
where the platform has no forkserver (Windows) they are spawned.  This
module imports the pool machinery (the executor, the forkserver, the
resource tracker) only where a pool starts (_pool, _context,
_stop_helpers), so a run that starts no pool, such as a CLI command that
reads persisted curves, does not load it.  The forkserver starts with the
process's first pool, inside the single-threaded BLAS environment, so every
worker it forks runs BLAS on one thread, and each chunk checks that; with
the package's import root on its PYTHONPATH the preload finds the package.
The forkserver holds modules, not data: there is one build path for the
simulation pieces (bath, propagator, and sigma(0) as its variance vector;
2.9 MB of arrays at N = 600, nearly all of it the eigenbasis).  Each
worker builds them on one BLAS thread at its first chunk of a run and
keeps them for its later chunks (simulation_pieces), and the manifest's
runner.simulation_pieces reads 0 for a chunk whose worker had built them
already.  Each pool's workers exit when the pool shuts down, so nothing
but the forkserver's imports carries from one call to the next: a process
that starts many pools (the test suite, the benchmark's loops) pays the
interpreter and import start-up once.  A worker that exits abruptly
(killed, or out of memory) fails the run with QbmError.
A process has one forkserver and one resource tracker, and this module
takes both over: a forkserver pool that other code of the process starts
later also preloads _preload and pins BLAS to one thread.  When the
process exits, after multiprocessing has joined its children, both are
stopped and reaped, so no process outlives the interpreter.  Workers
still import the caller's main module, whose entry point must be
guarded.  The workers are children of the forkserver, not of the caller,
so the caller's RUSAGE_CHILDREN does not count them.

With one BLAS thread per worker, W workers occupy W CPUs and the
floating-point reduction order does not depend on the worker count.
Draws are keyed on indices and every grid point lists its values
in sample order whatever the cut, so serial and parallel runs emit
identical bytes.  Every data file is CSV or JSON without timestamps; the
manifest (which records wall-clock timings, spectrum counts and content
digests) is the only non-reproducible output.  This module writes every
file of a run; a failed run removes the files it wrote.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import multiprocessing
import os
import site
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import _BLAS_THREAD_VARS, __version__
from .analytic import (
    d_and_k,
    entanglement_value,
    k_value,
    mi_value,
    redundancy_estimate_value,
)
from .config import RunConfig
from .correlations import (
    CorrelationCurve,
    FractionSampler,
    band_correlations,
    band_partition,
    fraction_curves,
    fraction_samples,
    system_entropy,
)
from .errors import DomainError, QbmError, ValidationError
from .gaussian import check_purity, merge_counts, take_counts
from .model import (
    discretize_bath,
    evolve,
    initial_covariance,
    make_propagator,
    total_energy,
)
from .redundancy import build_report

#: every stage, in the order a run writes their files
ALL_STAGES = ("evolve", "bands", "piplot", "peplot", "redundancy", "compare", "analytic")
#: stages that evaluate time points themselves, so they cannot read persisted curves
_SIMULATING_STAGES = ("evolve", "bands", "piplot", "peplot")

# per-process cache of the heavy simulation pieces of the physics config
_PIECES: dict = {}

#: never fork the caller: its children would share its already-loaded, multi-threaded BLAS
_START_METHOD = "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"


def _pieces_key(config: RunConfig) -> tuple:
    return tuple(config.physics().items())


def simulation_pieces(config: RunConfig):
    """(spec, bath, propagator, sigma(0)) of the config's physics, cached per process.

    sigma(0) is a ProductState, held as its variance vector.  Their arrays
    are read-only: every chunk a worker runs shares one copy.
    """
    key = _pieces_key(config)
    if key not in _PIECES:
        spec = config.bath_spec()
        bath = discretize_bath(spec)
        prop = make_propagator(spec, bath)
        cov0 = initial_covariance(spec, bath, config.initial_state())
        for array in (bath.frequencies, bath.couplings, bath.masses, prop.eigenfrequencies, prop.eigenbasis,
                      prop.mass_scaling):  # sigma(0)'s variances are read-only already
            array.flags.writeable = False
        _PIECES.clear()  # one config per process is the common case
        _PIECES[key] = (spec, bath, prop, cov0)
    return _PIECES[key]


def _sampler(config: RunConfig) -> FractionSampler:
    return FractionSampler(seed=config.seed, samples_per_point=config.samples, f_grid=config.f_grid,
                           unit=config.unit, n_bands=config.n_bands)


def _chunk_count(samples: int, workers: int, n_times: int) -> int:
    """Chunks per time point: one per worker on a short grid, at most one per sample."""
    return 1 if n_times >= 4 * workers else min(samples, workers)


def _slices(samples: int, n_chunks: int) -> list[range]:
    """range(samples) cut into n_chunks contiguous slices whose sizes differ by at most one."""
    cuts = [samples * j // n_chunks for j in range(n_chunks + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _chunk_task(args) -> dict:
    """One chunk of one time point (runs in worker processes)."""
    for var in _BLAS_THREAD_VARS:
        if os.environ.get(var) != "1":
            raise QbmError(
                f"worker BLAS is not pinned to one thread: {var} is {os.environ.get(var)!r}, not '1' "
                "(was the forkserver started by other code?)"
            )
    config, t_index, t, wants, sample_indices = args
    cached = _pieces_key(config) in _PIECES  # built by an earlier chunk of this worker
    start = time.perf_counter()
    spec, bath, prop, cov0 = simulation_pieces(config)
    elapsed = {"runner.simulation_pieces": 0.0 if cached else time.perf_counter() - start}
    take_counts()  # count this chunk only; evolve, check_purity and H(S) count no spectra
    start = time.perf_counter()
    cov = evolve(prop, cov0, t)
    evolved = time.perf_counter()
    bound = check_purity(cov)
    elapsed.update({"model.evolve": evolved - start, "gaussian.check_purity": time.perf_counter() - evolved})
    h_s = system_entropy(cov)
    out: dict = {"t_index": t_index, "h_s": h_s, "elapsed": elapsed}
    if "state" in wants:  # state.csv's cells after t; min_symplectic, the first, is a lower bound on every nu
        min_symplectic = float(np.sqrt(max(0.25 - bound, 0.0)))
        out["state"] = [min_symplectic, cov.symmetry_defect, total_energy(spec, bath, cov), h_s]
    if "bands" in wants:
        start = time.perf_counter()
        bands = band_partition(config.n_oscillators, config.n_bands, bath.frequencies)
        bc = band_correlations(cov, bands, t=t)
        cells = zip(bc.band_edges.tolist(), bands.band_members, bc.mi.tolist(), bc.neg.tolist())
        out["bands"] = [[j, center, len(members), mi, neg] for j, (center, members, mi, neg) in enumerate(cells)]
        elapsed["correlations.bands"] = time.perf_counter() - start
    if "curves" in wants:
        start = time.perf_counter()
        out["samples"] = fraction_samples(cov.data, h_s, _sampler(config), sample_indices, t_index)
        elapsed["correlations.curves"] = time.perf_counter() - start
    out["counts"] = take_counts()
    return out


@dataclass
class RunManifest:
    run_id: str
    code_version: str
    config: dict
    stages: list
    timings_s: dict
    #: spectrum counts of the run's chunks (gaussian.take_counts), merged by gaussian.merge_counts
    counts: dict
    #: worker wall-clock per layer (runner.simulation_pieces, model.evolve, gaussian.check_purity,
    #: correlations.bands and .curves), summed over chunks
    layer_timings_s: dict
    files: list


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # a numpy scalar's repr would read np.float64(...)
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def usable_cpu_count() -> int:
    """CPUs this process may run on, which a cpuset can make fewer than the host's."""
    if hasattr(os, "process_cpu_count"):  # Python >= 3.13
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _worker_env():
    """Set _BLAS_THREAD_VARS to 1 and put the package's import root (unless a site directory) first on PYTHONPATH, in os.environ, which the forkserver or a spawned child inherits.

    The forkserver does not apply the caller's sys.path (Python 3.11), so
    without the root a package found through a sys.path insert (pytest's
    ``pythonpath``) fails the preload silently, and each worker imports
    numpy and qbmlab itself.
    """
    saved = {var: os.environ.get(var) for var in (*_BLAS_THREAD_VARS, "PYTHONPATH")}
    try:
        os.environ.update({var: "1" for var in _BLAS_THREAD_VARS})
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        if root not in (*site.getsitepackages(), site.getusersitepackages()):
            os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (root, saved["PYTHONPATH"]) if p)
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _stop_helpers() -> None:
    """Stop and reap the process's forkserver and resource tracker (private API: each is skipped without _stop)."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


@functools.cache
def _context():
    """The pools' context.  The first call has the forkserver preload the _preload module alone, and
    has _stop_helpers run at exit, after multiprocessing's own exit handler has joined the process's children."""
    from multiprocessing import util

    context = multiprocessing.get_context(_START_METHOD)
    if _START_METHOD == "forkserver":
        context.set_forkserver_preload(["qbmlab._preload"])
    util.Finalize(None, _stop_helpers, exitpriority=-1)
    return context


@contextmanager
def _pool(workers: int):
    """A pool of workers whose BLAS runs one thread; the forkserver, if it starts here, starts pinned.

    A worker that exits abruptly (killed, or out of memory) breaks the pool, which raises QbmError.
    The pool machinery is imported here, so a run that starts no pool does not load it."""
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with _worker_env(), ProcessPoolExecutor(max_workers=workers, mp_context=_context()) as pool:
            yield pool
    except BrokenExecutor as exc:
        raise QbmError("a pool worker exited abruptly (killed, or out of memory)") from exc


def _run_time_points(config: RunConfig, wants: tuple[str, ...]) -> tuple[list[dict], dict, dict]:
    """Per time point: t, and the state, bands and (PI, PE) curves it wants; and the summed spectrum counts and layer timings."""
    times = [float(t) for t in config.times()]
    # bound the pool by usable CPUs: beyond that, extra processes only contend
    workers = min(config.workers, usable_cpu_count())
    n_chunks = 1
    if "curves" in wants:
        sampler = _sampler(config)
        try:  # a grid that the sampling units cannot hold is a configuration error
            grid = sampler.grid_for(config.n_oscillators)
        except DomainError as exc:
            field = "f_grid" if config.f_grid is not None else "n_bands" if config.unit == "band" else "n_oscillators"
            raise ValidationError([f"{field}: {exc}"]) from exc
        n_chunks = _chunk_count(config.samples, workers, len(times))
    payloads = [
        (config, i, t, wants if j == 0 else ("curves",), sample_indices)
        for i, t in enumerate(times)
        for j, sample_indices in enumerate(_slices(config.samples, n_chunks))
    ]
    with _pool(min(workers, len(payloads))) as pool:
        items = list(pool.map(_chunk_task, payloads, chunksize=1))

    points = [{"t": t, "samples": []} for t in times]
    counts: dict = {}
    elapsed = Counter()
    for item in items:
        point = points[item["t_index"]]
        point.update({k: item[k] for k in ("state", "bands", "h_s") if k in item})
        if "samples" in item:  # items come in payload order, so a time point's slices stay in slice order
            point["samples"].append(item["samples"])
        merge_counts(counts, item["counts"])
        elapsed.update(item["elapsed"])
    if "curves" in wants:
        for point in points:
            point["curves"] = fraction_curves(grid, point["samples"], point["h_s"], point["t"])
    return points, counts, elapsed


#: the closed-form model parameters of a config, by the name the stages and the benchmark's probe call
branch_params = RunConfig.branch_params


def _stage_files(stage: str, config: RunConfig, results: list[dict], curves: list[tuple]) -> list[tuple]:
    """(file suffix, CSV header or None for JSON, CSV rows or JSON payload) of each file of a stage.

    ``curves`` holds one (PI curve, PE curve) pair per time point, in time order.
    """
    if stage == "evolve":
        rows = [[r["t"], *r["state"]] for r in results]
        return [("state.csv", ["t", "min_symplectic", "symmetry_defect", "total_energy", "system_entropy"], rows)]
    if stage == "bands":
        rows = [[r["t"], *row] for r in results for row in r["bands"]]
        return [("bands.csv", ["t", "band_index", "band_center", "band_size", "mi", "neg"], rows)]
    if stage in ("piplot", "peplot"):
        pick = ("piplot", "peplot").index(stage)
        measure = ("mi", "neg")[pick]
        measured = [pair[pick] for pair in curves]
        rows = [
            [c.t, f, m, se, n, measure]
            for c in measured
            for f, m, se, n in zip(c.f_values, c.mean, c.stderr, c.n_samples)
        ]
        sidecar = {
            "run_id": config.run_id,
            "measure": measure,
            "config": config.physics_key(),
            "t_values": [c.t for c in measured],
            "h_system": [c.h_system for c in measured],
        }
        return [
            (f"{measure}.csv", ["t", "f", "mean", "stderr", "n_samples", "measure_tag"], rows),
            (f"{measure}.json", None, sidecar),
        ]
    if stage == "redundancy":
        k = k_value([mi.t for mi, _ in curves], branch_params(config))
        estimates = redundancy_estimate_value(config.delta_e, k).tolist()
        reports = [
            build_report(mi.t, pe, mi, config.delta_e, config.delta_i, estimate)
            for (mi, pe), estimate in zip(curves, estimates)
        ]
        rows = [[rep.t, rep.r_e, rep.r_i, rep.i_nr, rep.analytic_r_e, "|".join(rep.flags)] for rep in reports]
        return [("redundancy.csv", ["t", "r_e", "r_i", "i_nr", "analytic_r_e", "flags"], rows)] + [
            (f"redundancy_{i:03d}.json", None, asdict(rep)) for i, rep in enumerate(reports)
        ]
    if stage == "compare":
        rows, summary = compare_numeric_analytic(config, curves)
        header = ["t", "f", "measure_tag", "numeric", "analytic", "rel_dev", "below_analytic"]
        return [("compare.csv", header, rows), ("compare_summary.json", None, summary)]
    # analytic: the whole (t, f) table from one d(t) per time
    times, fs = config.times(), np.asarray(config.f_grid or np.linspace(0.02, 1.0, 50))
    d, k = d_and_k(times, branch_params(config))
    e, mi = entanglement_value(fs, k[:, None]), mi_value(fs, k[:, None])
    columns = np.broadcast_arrays(times[:, None], fs, d[:, None], k[:, None], e, mi)  # (t, f) cells, f fastest
    rows = [list(row) for row in zip(*(column.ravel().tolist() for column in columns))]
    return [("analytic.csv", ["t", "f", "d_total", "d_dx2", "e_analytic", "mi_analytic"], rows)]


def _merged_files(manifest_path: str, files: list[dict]) -> list[dict]:
    """files, after the entries of the manifest already at manifest_path for files that still exist and are not in files."""
    outdir, names = os.path.dirname(manifest_path), {f["name"] for f in files}
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            earlier = json.load(fh)["files"]
        kept = [e for e in earlier if e["name"] not in names and os.path.exists(os.path.join(outdir, e["name"]))]
    except (OSError, ValueError, KeyError, TypeError):
        return files  # no earlier manifest, or one that cannot be read
    return kept + files


def run_experiment(
    config: RunConfig,
    stages: tuple[str, ...] = ("bands", "piplot", "peplot", "redundancy"),
    curves_dir: str | None = None,
) -> RunManifest:
    """Execute the requested stages and persist their data products.

    With ``curves_dir``, redundancy and compare read the curves that an
    earlier run of the same run id persisted there instead of simulating
    them; curves of other physics (RunConfig.physics) raise ValidationError
    before any file is written.  Outputs are deterministic functions of the
    configuration and the curves; on failure, files already written by this
    invocation are removed.

    The manifest file ``<run_id>_manifest.json`` lists the files of every
    command run with this run id and outdir: the entries of the manifest
    already there for files that still exist and that this command did not
    rewrite, then this command's files.  Its other fields, and the returned
    RunManifest's files, are this command's.
    """
    for stage in stages:
        if stage not in ALL_STAGES:
            raise QbmError(f"unknown stage {stage!r}")
    if curves_dir is not None and set(stages) & set(_SIMULATING_STAGES):
        raise QbmError(f"stages {', '.join(_SIMULATING_STAGES)} cannot read curves from a directory")
    wants = []
    if "evolve" in stages:
        wants.append("state")
    if "bands" in stages:
        wants.append("bands")
    if curves_dir is None and set(stages) & {"piplot", "peplot", "redundancy", "compare"}:
        wants.append("curves")

    os.makedirs(config.outdir, exist_ok=True)
    written: list[str] = []
    timings: dict[str, float] = {}
    prefix = os.path.join(config.outdir, config.run_id)
    try:
        results: list[dict] = []
        counts: dict = {}
        elapsed: dict = {}
        if wants:
            t0 = time.perf_counter()
            results, counts, elapsed = _run_time_points(config, tuple(wants))
            timings["simulate"] = time.perf_counter() - t0
        if curves_dir is None:
            curves = [r["curves"] for r in results if "curves" in r]
        else:
            t0 = time.perf_counter()
            curves = list(load_curves(curves_dir, config.run_id, config.physics()).values())
            timings["load_curves"] = time.perf_counter() - t0

        for stage in ALL_STAGES:
            if stage not in stages:
                continue
            t0 = time.perf_counter()
            for suffix, header, data in _stage_files(stage, config, results, curves):
                path = f"{prefix}_{suffix}"
                written.append(path)  # before writing, so a half-written file is removed too
                if header is None:
                    _write_json(path, data)
                else:
                    _write_csv(path, header, data)
            timings[stage] = time.perf_counter() - t0

        manifest = RunManifest(
            run_id=config.run_id,
            code_version=__version__,
            config={
                **config.physics_key(),
                "outdir": config.outdir,
                "workers": config.workers,
                "curves_dir": curves_dir,
            },
            stages=list(stages),
            timings_s={k: round(v, 6) for k, v in timings.items()},
            counts=counts,
            layer_timings_s={k: round(v, 6) for k, v in elapsed.items()},
            files=[
                {"name": os.path.basename(p), "sha256": _sha256(p), "bytes": os.path.getsize(p)}
                for p in written
            ],
        )
        path = f"{prefix}_manifest.json"
        record = asdict(manifest)
        record["files"] = _merged_files(path, manifest.files)
        written.append(path)
        _write_json(path, record)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
    return manifest


def compare_numeric_analytic(
    config: RunConfig,
    curves: list[tuple[CorrelationCurve, CorrelationCurve]],
) -> tuple[list[list], dict]:
    """Numeric curve means against the closed-form branch model per (t, f).

    curves holds one (PI curve, PE curve) pair per time point, in time
    order.  Returns CSV rows and a summary with the maximum relative
    deviation over the core window f in [0.1, 0.9] (and over all f < 1).
    In dissipative regimes the closed form is an upper bound; points where
    the numeric value falls below a closed-form value above 1e-12 are
    marked, not failed.  Each closed form is evaluated once, on every cell.
    """
    ordered = [curve for pair in curves for curve in pair]  # the rows' order: each time's mi, then its neg curve
    sizes = [len(c.f_values) for c in ordered]
    times = [mi.t for mi, _ in curves]
    t = np.repeat(np.repeat(times, 2), sizes)
    k = np.repeat(np.repeat(k_value(times, branch_params(config)), 2), sizes)
    tags = np.repeat(np.array(["mi", "neg"] * len(curves)), sizes)
    f = np.concatenate([np.empty(0)] + [c.f_values for c in ordered])
    m = np.concatenate([np.empty(0)] + [c.mean for c in ordered])
    ana = np.empty_like(f)
    for tag, form in (("mi", mi_value), ("neg", entanglement_value)):  # each form on its own cells only
        ana[tags == tag] = form(f[tags == tag], k[tags == tag])
    counted = ana > 1e-12  # an analytic value of 0 gives no deviation and no bound
    rel = np.divide(np.abs(m - ana), np.abs(ana), out=np.zeros_like(ana), where=counted)
    core = (0.1 - 1e-9 <= f) & (f <= 0.9 + 1e-9)
    max_all = {tag: float(rel.max(initial=0.0, where=tags == tag)) for tag in ("mi", "neg")}
    max_core = {tag: float(rel.max(initial=0.0, where=core & (tags == tag))) for tag in ("mi", "neg")}
    cells = (t, f, tags, m, ana, rel, counted & (m < ana))
    rows = [list(row) for row in zip(*(column.tolist() for column in cells))]
    summary = {
        "max_rel_dev_core": max_core,
        "max_rel_dev_all": max_all,
        "core_window": [0.1, 0.9],
        "n_times": len(curves),
    }
    return rows, summary


def load_curves(
    outdir: str, run_id: str, physics: dict | None = None
) -> dict[float, tuple[CorrelationCurve, CorrelationCurve]]:
    """Rebuild per-time curves from previously persisted CSV + sidecar files.

    A file that is missing or cannot be parsed, a CSV time that its sidecar
    does not list or a sidecar time that its CSV lacks, and mi and neg
    files of different times raise OSError that names the files.  With
    ``physics`` (RunConfig.physics), each sidecar's recorded config must
    hold these values: a sidecar that lacks one cannot be parsed, and one
    that differs raises ValidationError naming every field that does.
    """
    out: dict[float, dict[str, CorrelationCurve]] = {}
    csv_paths = [os.path.join(outdir, f"{run_id}_{measure}.csv") for measure in ("mi", "neg")]
    for measure, csv_path in zip(("mi", "neg"), csv_paths):
        side_path = os.path.join(outdir, f"{run_id}_{measure}.json")
        path = side_path  # the file being parsed, for the error message
        try:
            with open(side_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            if physics is not None:
                recorded = sidecar["config"]
                differ = [f"{k}: {side_path} holds curves of {k} = {recorded[k]!r}, not {v!r}"
                          for k, v in physics.items() if recorded[k] != v]
                if differ:
                    raise ValidationError(differ)
            h_by_t = dict(zip(sidecar["t_values"], sidecar["h_system"]))
            path = csv_path
            per_t: dict[float, list] = {}
            with open(csv_path, "r", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    per_t.setdefault(float(row["t"]), []).append(row)
            for t in per_t.keys() - h_by_t.keys():
                raise OSError(f"{side_path}: lists no t = {t!r} of {csv_path}")
            for t in h_by_t.keys() - per_t.keys():
                raise OSError(f"{csv_path}: has no rows for t = {t!r}, which {side_path} lists")
            for t, rws in per_t.items():
                rws.sort(key=lambda r: float(r["f"]))
                curve = CorrelationCurve(
                    t=t,
                    measure=measure,
                    f_values=np.array([float(r["f"]) for r in rws]),
                    mean=np.array([float(r["mean"]) for r in rws]),
                    stderr=np.array([float(r["stderr"]) for r in rws]),
                    n_samples=np.array([int(r["n_samples"]) for r in rws]),
                    h_system=float(h_by_t[t]),
                )
                out.setdefault(t, {})[measure] = curve
        except (ValueError, KeyError, TypeError) as exc:
            raise OSError(f"{path}: cannot parse: {type(exc).__name__}: {exc}") from exc
    for t, d in out.items():
        if len(d) < 2:
            raise OSError(f"{csv_paths[0]} and {csv_paths[1]}: only the {next(iter(d))} file holds t = {t!r}")
    return {t: (d["mi"], d["neg"]) for t, d in sorted(out.items())}
