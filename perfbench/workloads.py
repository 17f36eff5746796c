"""The benchmark's workloads: inputs from the seed, set-up, operations, checks.

An operation is one pipeline run (``runner.run_experiment``) or one fresh
``python -m qbmlab.cli`` process.  A round is a fixed list of operations,
and a run attempts whole rounds only.  Checks run after the timed loop.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from qbmlab.config import parse_config
from qbmlab.model import discretize_bath, initial_covariance, make_propagator
from qbmlab.runner import run_experiment, usable_cpu_count

import checks

#: BLAS thread-count variables, read once when numpy loads BLAS.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """This environment without QBM_SEED and BLAS_VARS, so that a CLI child
    runs with the configured seed and the library's default BLAS threads."""
    return {k: v for k, v in os.environ.items() if k != "QBM_SEED" and k not in BLAS_VARS}


def model_of(config) -> tuple:
    """(spec, bath, initial covariance) of a run, as runner.simulation_pieces builds them."""
    spec = config.bath_spec()
    bath = discretize_bath(spec)
    return spec, bath, initial_covariance(spec, bath, config.initial_state())


def seeded_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, *keys)))


@dataclass
class Op:
    """One timed operation and the check of its outputs."""

    label: str
    time_points: int
    run: Callable[[], int | None]  # returns the child's peak RSS in KiB when it knows it
    check: Callable[[], list[str]]
    wall: float = 0.0
    cpu: float = 0.0
    child_rss_kib: int | None = None
    problems: list[str] = field(default_factory=list)


class Workload:
    name = ""
    setup_reps = 15
    #: processes of one operation that run at the same time
    concurrent_children = 1
    #: what the traced run evaluates per time point (see tracing.chain)
    trace_stages: tuple[str, ...] = ()
    #: whether an operation calls runner.branch_params / starts the CLI
    calls_branch_params = False
    runs_cli = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = os.path.join(workdir, self.name)

    def prepare(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def setup_problems(self) -> list[str]:
        return []

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError


class PipelineWorkload(Workload):
    """Set-up builds the run's model; each operation is one run_experiment."""

    stages: tuple[str, ...] = ()

    def config_overrides(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.config = parse_config(
            overrides=dict(self.config_overrides(), outdir=self.workdir, run_id=self.name), env={}
        )
        self.model = model_of(self.config)
        make_propagator(*self.model[:2])
        self.concurrent_children = min(self.config.workers, usable_cpu_count(), self.config.n_times)
        self._oracle = None

    @property
    def oracle(self) -> checks.Oracle:
        if self._oracle is None:
            self._oracle = checks.Oracle(*self.model)
        return self._oracle

    def op_config(self, index: int):
        return replace(self.config, outdir=os.path.join(self.workdir, f"op{index:03d}"))

    def round(self, index: int) -> list[Op]:
        config = self.op_config(index)
        return [Op(
            label=f"{self.name}#{index}",
            time_points=config.n_times,
            run=lambda: self.run_pipeline(config),
            check=lambda: self.check_outputs(config),
        )]

    def run_pipeline(self, config) -> None:
        run_experiment(config, self.stages)

    def check_outputs(self, config) -> list[str]:
        raise NotImplementedError


class DeskCurves(PipelineWorkload):
    """A 3-point time slice of the desk pipeline on two workers."""

    name = "desk-curves"
    stages = ("bands", "piplot", "peplot", "redundancy")
    trace_stages = ("bands", "curves", "report")
    calls_branch_params = True

    def config_overrides(self) -> dict:
        # three desk-grid points (linspace(0, 10, 40)[1::19]); an odd count
        # leaves one worker idle in the last round
        return dict(profile="desk", samples=20, t_min=10.0 / 39.0, t_max=10.0, n_times=3, workers=2)

    def op_config(self, index: int):
        sampler_seed = int(seeded_rng(self.seed, 1, index).integers(2**31))
        return replace(super().op_config(index), seed=sampler_seed)

    def check_outputs(self, config) -> list[str]:
        out, rid = config.outdir, config.run_id
        curves = checks.Curves(out, rid)
        return (
            checks.check_manifest(out, rid)
            + checks.check_curves(curves, self.oracle, config.samples)
            + checks.check_bands(os.path.join(out, f"{rid}_bands.csv"), config.n_oscillators,
                                 config.n_bands, curves.h)
            + checks.check_reports(out, rid, curves, config.delta_e, config.delta_i)
        )


class FullState(PipelineWorkload):
    """State diagnostics and bands at full scale (N = 600), one worker."""

    name = "full-state"
    stages = ("evolve", "bands")
    trace_stages = ("state", "bands")

    def config_overrides(self) -> dict:
        t0 = float(seeded_rng(self.seed, 2).uniform(0.0, 1.0))
        return dict(profile="full", t_min=t0, t_max=t0 + 9.0, n_times=3, workers=1)

    def check_outputs(self, config) -> list[str]:
        out, rid = config.outdir, config.run_id
        problems, h_by_t = checks.check_state(os.path.join(out, f"{rid}_state.csv"), self.oracle)
        return (
            checks.check_manifest(out, rid)
            + problems
            + checks.check_bands(os.path.join(out, f"{rid}_bands.csv"), config.n_oscillators,
                                 config.n_bands, h_by_t)
        )


class Reanalyse(Workload):
    """Fresh CLI processes that reanalyse desk curves persisted in set-up."""

    name = "reanalyse"
    setup_reps = 3
    trace_stages = ("curves",)
    calls_branch_params = runs_cli = True
    curves_id = "curves"
    #: redundancy processes per round, followed by one analytic process
    redundancy_per_round = 3

    def setup(self) -> None:
        sampler_seed = int(seeded_rng(self.seed, 3).integers(2**31))
        self.curves_dir = os.path.join(self.workdir, "curves")
        self.config = parse_config(
            overrides=dict(profile="desk", samples=1, workers=2, seed=sampler_seed,
                           outdir=self.curves_dir, run_id=self.curves_id),
            env={},
        )
        run_experiment(self.config, ("piplot", "peplot"))
        self._curves = self._k_by_t = None

    @property
    def curves(self) -> checks.Curves:
        if self._curves is None:
            self._curves = checks.Curves(self.curves_dir, self.curves_id)
        return self._curves

    def setup_problems(self) -> list[str]:
        oracle = checks.Oracle(*model_of(self.config))
        return checks.check_manifest(self.curves_dir, self.curves_id) + checks.check_curves(
            self.curves, oracle, self.config.samples
        )

    def deficits(self, index: int, j: int) -> tuple[float, float]:
        rng = seeded_rng(self.seed, 4, index, j)
        return round(float(rng.uniform(0.1, 0.4)), 6), round(float(rng.uniform(0.05, 0.3)), 6)

    def round(self, index: int) -> list[Op]:
        ops = []
        for j in range(self.redundancy_per_round):
            delta_e, delta_i = self.deficits(index, j)
            outdir = os.path.join(self.workdir, f"op{index:03d}_{j}")
            args = ["redundancy", "--profile", "desk", "--curves-dir", self.curves_dir,
                    "--run-id", self.curves_id, "--outdir", outdir,
                    "--delta-e", repr(delta_e), "--delta-i", repr(delta_i)]
            ops.append(Op(
                label=f"redundancy#{index}.{j}",
                time_points=self.config.n_times,
                run=lambda args=args, outdir=outdir: self.cli(args, outdir),
                check=lambda outdir=outdir, de=delta_e, di=delta_i: self.check_redundancy(outdir, de, di),
            ))
        outdir = os.path.join(self.workdir, f"op{index:03d}_analytic")
        args = ["analytic", "--profile", "desk", "--run-id", "ana", "--outdir", outdir]
        ops.append(Op(
            label=f"analytic#{index}",
            time_points=self.config.n_times,
            run=lambda: self.cli(args, outdir),
            check=lambda: self.check_analytic(outdir),
        ))
        return ops

    def cli(self, args: list[str], outdir: str) -> int:
        """Run one CLI process to its end; return its peak RSS in KiB."""
        os.makedirs(outdir, exist_ok=True)
        env = child_env()
        with open(os.path.join(outdir, "stdout.txt"), "wb") as out, \
                open(os.path.join(outdir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "qbmlab.cli", *args],
                                    stdout=out, stderr=err, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"qbmlab {args[0]} exited with {proc.returncode}")
        return usage.ru_maxrss

    def check_redundancy(self, outdir: str, delta_e: float, delta_i: float) -> list[str]:
        return checks.check_reports(outdir, self.curves_id, self.curves, delta_e, delta_i, self.k_by_t)

    def check_analytic(self, outdir: str) -> list[str]:
        delta_x_sq = math.exp(abs(self.config.squeezing)) / (2.0 * self.config.system_mass * self.config.omega_s)
        problems, k_by_t = checks.check_analytic(os.path.join(outdir, "ana_analytic.csv"), delta_x_sq)
        if k_by_t and sorted(k_by_t) != self.curves.times:
            problems.append("analytic times differ from the curve times")
        return problems

    @property
    def k_by_t(self) -> dict[float, float]:
        """k = d(t) dx^2 per time, read from the first analytic output of the run."""
        if self._k_by_t is None:
            path = os.path.join(self.workdir, "op000_analytic", "ana_analytic.csv")
            groups = checks.group_by_t(checks.read_csv(path))
            self._k_by_t = {t: float(rows[0]["d_dx2"]) for t, rows in groups.items()}
        return self._k_by_t


WORKLOADS = {w.name: w for w in (DeskCurves, FullState, Reanalyse)}
