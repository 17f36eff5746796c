"""The traced run: per-layer metrics, measured from outside the package.

Every span is recorded here, around calls into qbmlab's public functions;
nothing inside ``src/qbmlab`` is instrumented.  The run has three parts:

* runner: one untraced operation (for ``reanalyse``, one set-up, which is
  the workload's pipeline run, then one round of CLI processes) gives
  ``runner.persist_s`` and ``runner.pool_idle_s`` from its manifest;
* chain: a fresh spawned process with single-threaded BLAS, like a pool
  worker, evaluates the workload's time points through the layer functions,
  with the ``gaussian`` names that ``correlations`` calls wrapped to count
  spectra and block sizes.  Time point 0 is first evaluated plainly twice
  (a warm-up, then timed); its traced time against the plain one is the
  tracing overhead;
* probes: fresh processes time worker start-up, the first
  ``runner.branch_params`` call and ``import qbmlab.cli``.

A layer that the workload's operation does not call reads 0.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict

import checks
import workloads
from measure import result, timed, verdict
from qbmlab.runner import usable_cpu_count
from workloads import Op

PROBE_REPS = 3

#: name -> unit of every per-layer metric, in BENCHMARK.json order
PER_LAYER = {
    "model.propagator_s": "s",
    "model.evolve_s": "s",
    "gaussian.validate_s": "s",
    "gaussian.spectra": "count",
    "gaussian.block_cost": "count",
    "gaussian.block_modes_max": "modes",
    "gaussian.entropy_s": "s",
    "gaussian.negativity_s": "s",
    "gaussian.partial_trace_s": "s",
    "correlations.curves_s": "s",
    "correlations.curves_self_s": "s",
    "correlations.bands_s": "s",
    "redundancy.report_s": "s",
    "runner.branch_params_s": "s",
    "runner.load_curves_s": "s",
    "runner.worker_setup_s": "s",
    "runner.persist_s": "s",
    "runner.pool_idle_s": "s",
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Spans (name, start, end, parent index, time-point index) and block counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.spectra = 0
        self.block_cost = 0
        self.block_max = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.request])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, spectrum: bool):
        """fn inside a span; a spectrum call also counts its block of 2M rows."""

        def traced_call(cov, *args, **kwargs):
            if spectrum:
                self.spectra += 1
                self.block_cost += (2 * cov.n_modes) ** 3
                self.block_max = max(self.block_max, cov.n_modes)
            with self.span(name):
                return fn(cov, *args, **kwargs)

        return traced_call


@contextmanager
def _single_blas_pool():
    """A one-process spawn pool whose worker loads BLAS single-threaded.

    The worker starts at the first submit, so the thread variables stay in
    os.environ until the pool has shut down.
    """
    saved = {var: os.environ.get(var) for var in workloads.BLAS_VARS}
    os.environ.update({var: "1" for var in workloads.BLAS_VARS})
    try:
        with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def chain(config: dict, stages: tuple[str, ...], curves_dir: str | None, deficits: tuple[float, float]) -> dict:
    """Evaluate the time points through the layer functions (runs in a fresh process).

    stages: "state" (validate_state and H(S), as the evolve stage does),
    "bands", "curves" and "report" per time point; with curves_dir, the
    persisted curves are then loaded and reported on, as the CLI does.
    """
    import numpy as np

    from qbmlab import correlations, gaussian, model, redundancy, runner
    from qbmlab.config import RunConfig

    cfg = RunConfig(**config)
    tracer = Tracer()
    spec = cfg.bath_spec()
    bath = model.discretize_bath(spec)
    with tracer.span("model.propagator"):
        prop = model.make_propagator(spec, bath)
    cov0 = model.initial_covariance(spec, bath, cfg.initial_state())
    sampler = correlations.FractionSampler(
        seed=cfg.seed, samples_per_point=cfg.samples,
        f_grid=None if cfg.f_grid is None else np.array(cfg.f_grid),
        unit=cfg.unit, n_bands=cfg.n_bands if cfg.unit == "band" else None,
    )
    bands = correlations.band_partition(cfg.n_oscillators, cfg.n_bands, bath.frequencies)

    def time_point(i, t, span, validate) -> dict:
        out = {}
        with span("model.evolve"):
            cov = model.evolve(prop, cov0, t)
        if "state" in stages:
            out["min_symplectic"] = validate(cov).min_symplectic
            system = gaussian.ModeSubset.of([0], cov.n_modes)
            out["h_s"] = correlations.von_neumann_entropy(correlations.partial_trace(cov, system))
        if "bands" in stages:
            with span("correlations.bands"):
                correlations.band_correlations(cov, bands, t=t)
        if "curves" in stages:
            with span("correlations.curves"):
                mi, pe = correlations.pi_pe_plots(cov, sampler, t=t, t_index=i)
            out["h_s"], out["e_full"] = mi.h_system, float(pe.mean[-1])
            if "report" in stages:
                with span("redundancy.report"):
                    redundancy.build_report(t, pe, mi, *deficits)
        return out

    def plain_first_point() -> float:
        t0 = time.perf_counter()
        time_point(0, times[0], lambda name: nullcontext(), gaussian.validate_state)
        return time.perf_counter() - t0

    times = [float(t) for t in cfg.times()]
    plain_first_point()  # warm-up: first LAPACK calls and allocations
    plain = plain_first_point()

    for name in ("von_neumann_entropy", "log_negativity"):
        setattr(correlations, name, tracer.wrap(f"gaussian.{name}", getattr(gaussian, name), True))
    correlations.partial_trace = tracer.wrap("gaussian.partial_trace", gaussian.partial_trace, False)
    validate = tracer.wrap("gaussian.validate_state", gaussian.validate_state, True)
    values, traced_first = [], 0.0
    for i, t in enumerate(times):
        tracer.request = i
        t0 = time.perf_counter()
        values.append(time_point(i, t, tracer.span, validate))
        traced_first = traced_first or time.perf_counter() - t0
    if curves_dir is not None:
        tracer.request = -1
        with tracer.span("runner.load_curves"):
            loaded = runner.load_curves(curves_dir, cfg.run_id)
        for i, (t, (mi, pe)) in enumerate(loaded.items()):
            tracer.request = i
            with tracer.span("redundancy.report"):
                redundancy.build_report(t, pe, mi, *deficits)
    return {
        "times": times,
        "values": values,
        "spans": tracer.spans,
        "spectra": tracer.spectra,
        "block_cost": tracer.block_cost,
        "block_max": tracer.block_max,
        "overhead_pct": 100.0 * (traced_first - plain) / plain,
    }


def warm_worker(config: dict) -> None:
    """What a pool worker does before its first time point."""
    from qbmlab.config import RunConfig
    from qbmlab.runner import simulation_pieces

    simulation_pieces(RunConfig(**config))


_BRANCH_PARAMS_PROBE = """
import json, sys, time
from qbmlab.config import RunConfig
from qbmlab.runner import branch_params
config = RunConfig(**json.loads(sys.argv[1]))
t0 = time.perf_counter()
branch_params(config)
print(time.perf_counter() - t0)
"""

_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import qbmlab.cli
print(time.perf_counter() - t0)
"""


def _probe(script: str, *args: str) -> float:
    """Median seconds a fresh interpreter reports for script."""
    env = workloads.child_env()
    runs = [
        float(subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(PROBE_REPS)
    ]
    return statistics.median(runs)


def _worker_setup_s(config: dict) -> float:
    runs = []
    for _ in range(PROBE_REPS):
        with _single_blas_pool() as pool:
            t0 = time.perf_counter()
            pool.submit(warm_worker, config).result()
            runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _pipeline_run(run, manifest_path: str) -> tuple[float, float, float]:
    """(wall, simulate, worker CPU) seconds of one pipeline run made by run()."""
    c0, t0 = _children_cpu(), time.perf_counter()
    run()
    wall = time.perf_counter() - t0
    simulate = checks.read_json(manifest_path)["timings_s"]["simulate"]
    return wall, simulate, _children_cpu() - c0


def _self_time(spans: list[list], name: str) -> float:
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return sum(end - start - child_time[i] for i, (n, start, end, _, _) in enumerate(spans) if n == name)


def traced(workload) -> dict:
    workload.prepare()
    ops: list[Op] = []
    if isinstance(workload, workloads.Reanalyse):
        # the pipeline run of this workload is its set-up
        wall, simulate, worker_cpu = _pipeline_run(
            workload.setup, os.path.join(workload.workdir, "curves", "curves_manifest.json"))
        config = workload.config
        ops += workload.round(0)
        for op in ops:
            timed(op)
        curves_dir = workload.curves_dir
        deficits = workload.deficits(0, 0)
    else:
        workload.setup()
        op = workload.round(0)[0]
        config = workload.op_config(0)
        wall, simulate, worker_cpu = _pipeline_run(
            lambda: timed(op), os.path.join(config.outdir, f"{config.run_id}_manifest.json"))
        ops.append(op)
        curves_dir, deficits = None, (config.delta_e, config.delta_i)

    config_dict = asdict(config)
    with _single_blas_pool() as pool:
        trace = pool.submit(chain, config_dict, workload.trace_stages, curves_dir, deficits).result()
    with open(os.path.join(workload.workdir, "trace_spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "time_point"], "spans": trace["spans"]}, fh)

    probes = {
        "runner.worker_setup_s": _worker_setup_s(config_dict),
        "runner.branch_params_s": (
            _probe(_BRANCH_PARAMS_PROBE, json.dumps(config_dict)) if workload.calls_branch_params else 0.0
        ),
        "cli.import_s": _probe(_IMPORT_PROBE) if workload.runs_cli else 0.0,
    }

    n = len(trace["times"])
    spans = trace["spans"]

    def total(name: str) -> float:
        return sum((end - start for s_name, start, end, _, _ in spans if s_name == name), 0.0)

    def per_point(name: str) -> float:
        return total(name) / n

    metrics = {
        "model.propagator_s": total("model.propagator"),
        "model.evolve_s": per_point("model.evolve"),
        "gaussian.validate_s": per_point("gaussian.validate_state"),
        "gaussian.spectra": trace["spectra"] / n,
        "gaussian.block_cost": trace["block_cost"] / n,
        "gaussian.block_modes_max": trace["block_max"],
        "gaussian.entropy_s": per_point("gaussian.von_neumann_entropy"),
        "gaussian.negativity_s": per_point("gaussian.log_negativity"),
        "gaussian.partial_trace_s": per_point("gaussian.partial_trace"),
        "correlations.curves_s": per_point("correlations.curves"),
        "correlations.curves_self_s": _self_time(spans, "correlations.curves") / n,
        "correlations.bands_s": per_point("correlations.bands"),
        "redundancy.report_s": per_point("redundancy.report"),
        "runner.load_curves_s": total("runner.load_curves"),
        "runner.persist_s": wall - simulate,
        "runner.pool_idle_s": min(config.workers, usable_cpu_count(), n) * simulate - worker_cpu,
        "trace.overhead_pct": trace["overhead_pct"],
        **probes,
    }

    oracle = checks.Oracle(*workloads.model_of(config))
    ops.append(Op(label="trace-chain", time_points=n, run=lambda: None,
                  check=lambda: _check_chain(trace, oracle)))
    correct = verdict(workload, ops)
    return result(correct, ops, {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()})


def _check_chain(trace: dict, oracle: checks.Oracle) -> list[str]:
    """The traced evaluation reproduces the oracle's H(S) and E(1)."""
    problems = []
    for t, values in zip(trace["times"], trace["values"]):
        if not checks.close(values["h_s"], oracle.entropy(t), checks.ORACLE_RTOL, 1e-10):
            problems.append(f"t={t:.6g}: traced H(S) {values['h_s']!r} against {oracle.entropy(t)!r}")
        if "e_full" in values and not checks.close(values["e_full"], oracle.e_full(t), checks.ORACLE_RTOL, 1e-10):
            problems.append(f"t={t:.6g}: traced E(1) {values['e_full']!r} against {oracle.e_full(t)!r}")
        if "min_symplectic" in values and abs(values["min_symplectic"] - 0.5) > 1e-6:
            problems.append(f"t={t:.6g}: traced min symplectic eigenvalue {values['min_symplectic']!r}")
    return problems
