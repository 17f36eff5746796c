import csv
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import qbmlab.cli as cli_mod
import qbmlab.config as config_mod
import qbmlab.correlations as correlations_mod
import qbmlab.gaussian as gaussian_mod
import qbmlab.model as model_mod
import qbmlab.runner as runner_mod
from qbmlab.analytic import k_value, redundancy_estimate_value
from qbmlab.cli import main
from qbmlab.config import RunConfig, parse_config
from qbmlab.errors import DomainError, EigensolveFailure, ImpureState, NegativeEigenvalue, QbmError
from qbmlab.correlations import band_correlations, band_partition, pi_pe_plots
from qbmlab.gaussian import CovarianceMatrix, check_purity, take_counts
from qbmlab.model import discretize_bath, evolve, initial_covariance, make_propagator, total_energy
from qbmlab.runner import (
    _chunk_count,
    _chunk_task,
    _sampler,
    _slices,
    _write_csv,
    branch_params,
    load_curves,
    run_experiment,
    simulation_pieces,
)

from oracles import hamiltonian_matrix


def tiny_config(outdir, run_id="t", **kw):
    base = dict(
        n_oscillators=30,
        n_times=4,
        t_max=3.0,
        samples=3,
        n_bands=6,
        outdir=str(outdir),
        run_id=run_id,
    )
    base.update(kw)
    return parse_config(overrides=base, env={})


#: a desk-physics run small enough for a CLI test
TINY_DESK = ("--n-oscillators", "8", "--n-times", "2", "--n-bands", "2", "--samples", "2")


@pytest.fixture
def pinned_blas(monkeypatch):
    """The single-threaded BLAS pins that _chunk_task checks, for a call in this process."""
    for var in runner_mod._BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _worker_report() -> tuple[dict, int]:
    """(BLAS pins, live threads) of a pool worker after a matmul large enough to wake a BLAS thread pool."""
    a = np.ones((400, 400))
    a @ a
    return {var: os.environ.get(var) for var in runner_mod._BLAS_THREAD_VARS}, len(os.listdir("/proc/self/task"))


def child_env() -> dict:
    """This environment, with the qbmlab under test importable by a child interpreter."""
    src = os.path.dirname(os.path.dirname(runner_mod.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def digest_dir(outdir, skip_manifest=True):
    out = {}
    for name in sorted(os.listdir(outdir)):
        if skip_manifest and name.endswith("_manifest.json"):
            continue
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestRunExperiment:
    def test_all_stages_produce_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        manifest = run_experiment(cfg, ("evolve", "bands", "piplot", "peplot", "redundancy", "compare"))
        names = {f["name"] for f in manifest.files}
        for suffix in ("_state.csv", "_bands.csv", "_mi.csv", "_neg.csv", "_redundancy.csv", "_compare.csv"):
            assert any(n.endswith(suffix) for n in names)
        for f in manifest.files:
            path = tmp_path / f["name"]
            assert path.exists()
            assert hashlib.sha256(path.read_bytes()).hexdigest() == f["sha256"]

    @pytest.mark.parametrize("stages", [("evolve", "bands", "piplot"), ("evolve",)])
    def test_manifest_sums_worker_layer_timings(self, tmp_path, stages):
        cfg = tiny_config(tmp_path, workers=2)
        manifest = run_experiment(cfg, stages)
        with open(tmp_path / f"{cfg.run_id}_manifest.json") as fh:
            written = json.load(fh)["layer_timings_s"]
        assert written == manifest.layer_timings_s
        layers = {"runner.simulation_pieces", "model.evolve", "gaussian.check_purity"} | (
            {"correlations.bands", "correlations.curves"} if len(stages) > 1 else set()
        )
        assert set(written) == layers  # the layers that ran
        assert all(isinstance(v, float) and v >= 0.0 for v in written.values())
        assert written["model.evolve"] > 0.0 and written["gaussian.check_purity"] > 0.0
        assert set(written).isdisjoint(manifest.timings_s)  # apart from the per-stage write times

    def test_layer_timings_are_summed_over_chunks(self, tmp_path, monkeypatch, pinned_blas):
        # a clock that ticks once per reading, and the chunks run in this process
        @contextmanager
        def in_process(workers):
            yield SimpleNamespace(map=lambda fn, items, chunksize: map(fn, items))

        ticks = iter(range(10**6))
        monkeypatch.setattr(runner_mod, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        monkeypatch.setattr(runner_mod, "_pool", in_process)
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        cfg = tiny_config(tmp_path)
        _, _, elapsed = runner_mod._run_time_points(cfg, ("state", "bands", "curves"))
        layers = ("model.evolve", "gaussian.check_purity", "correlations.bands", "correlations.curves")
        # the first chunk builds the pieces; the others find them cached and count 0
        assert elapsed == {"runner.simulation_pieces": 1.0, **dict.fromkeys(layers, float(cfg.n_times))}

    def test_reruns_are_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_config(a_dir), ("bands", "piplot", "peplot", "redundancy"))
        run_experiment(tiny_config(b_dir), ("bands", "piplot", "peplot", "redundancy"))
        da, db = digest_dir(a_dir), digest_dir(b_dir)
        assert da == db
        assert len(da) > 0

    def test_parallel_matches_serial_bitwise(self, tmp_path):
        a_dir, b_dir = tmp_path / "serial", tmp_path / "par"
        run_experiment(tiny_config(a_dir), ("piplot", "peplot"))
        run_experiment(tiny_config(b_dir, workers=3), ("piplot", "peplot"))
        assert digest_dir(a_dir) == digest_dir(b_dir)

    @pytest.mark.parametrize(
        "unit, samples",
        [
            pytest.param("oscillator", 3, id="oscillator"),
            pytest.param("band", 3, id="band"),
            pytest.param("oscillator", 5, id="oscillator-5"),
            pytest.param("band", 7, id="band-7"),
        ],
    )
    def test_single_time_point_bytes_independent_of_workers(self, tmp_path, unit, samples):
        # two workers cut the time point's samples into two slices of unequal size
        runs = {}
        for workers in (1, 2):
            cfg = tiny_config(
                tmp_path / str(workers), n_times=1, t_min=2.0, t_max=2.0, unit=unit, samples=samples, workers=workers
            )
            run_experiment(cfg, ("evolve", "bands", "piplot", "peplot", "redundancy"))
            runs[workers] = digest_dir(cfg.outdir)
        assert runs[1] == runs[2]
        assert len(runs[1]) == 8  # state, bands, two curve CSVs and sidecars, two redundancy files

    def test_counts_independent_of_workers(self, tmp_path):
        # two workers cut each time point into two slices, and either may evolve a point
        counts = [
            run_experiment(tiny_config(tmp_path / str(w), n_times=2, workers=w), ("piplot", "peplot")).counts
            for w in (1, 2)
        ]
        assert counts[0] == counts[1]

    def test_manifest_counts_every_spectrum(self, tmp_path, pinned_blas):
        cfg = tiny_config(tmp_path, n_times=2)
        manifest = run_experiment(cfg, ("bands", "piplot", "peplot"))
        _, bath, prop, cov0 = simulation_pieces(cfg)
        take_counts()
        for i, t in enumerate(cfg.times()):
            cov = evolve(prop, cov0, t)
            band_correlations(cov, band_partition(cfg.n_oscillators, cfg.n_bands, bath.frequencies))
            pi_pe_plots(cov, _sampler(cfg), t=t, t_index=i)
        assert manifest.counts == take_counts()
        assert manifest.counts["spectra"] > 0

        # two chunks of one time point count together what one pi_pe_plots of it counts
        t = float(cfg.times()[1])
        chunks = [_chunk_task((cfg, 1, t, ("curves",), part)) for part in _slices(cfg.samples, 2)]
        take_counts()
        pi_pe_plots(evolve(prop, cov0, t), _sampler(cfg), t=t, t_index=1)
        assert sum(c["counts"]["spectra"] for c in chunks) == take_counts()["spectra"]

    def test_redundancy_from_persisted_curves(self, tmp_path):
        cfg = tiny_config(tmp_path / "pipeline")
        run_experiment(cfg, ("piplot", "peplot", "redundancy"))
        curves = load_curves(cfg.outdir, cfg.run_id)
        assert len(curves) == cfg.n_times
        cfg2 = tiny_config(tmp_path / "reanalysis")
        manifest = run_experiment(cfg2, ("redundancy",), curves_dir=cfg.outdir)
        names = [f["name"] for f in manifest.files]
        assert names == [f"{cfg.run_id}_redundancy.csv"] + [
            f"{cfg.run_id}_redundancy_{i:03d}.json" for i in range(cfg.n_times)
        ]
        pipeline = digest_dir(cfg.outdir)
        assert digest_dir(cfg2.outdir) == {name: pipeline[name] for name in names}

    def test_analytic_estimate_reads_k_value(self, tmp_path):
        # analytic_r_e is the estimate at k(t) of analytic.k_value, and NaN where k = 0 (t = 0)
        cfg = tiny_config(tmp_path)
        _, _, prop, cov0 = simulation_pieces(cfg)
        times = cfg.times().tolist()
        curves = [pi_pe_plots(evolve(prop, cov0, t), _sampler(cfg), t=t, t_index=i) for i, t in enumerate(times)]
        rows = runner_mod._stage_files("redundancy", cfg, [], curves)[0][2]
        params = branch_params(cfg)
        assert [row[0] for row in rows] == times and times[0] == 0.0
        # the vector path on both sides: numpy's pow on a 0-d value may differ from it by 1 ulp
        want = redundancy_estimate_value(cfg.delta_e, k_value(times, params))
        assert np.isnan(rows[0][4]) and np.isnan(want[0])
        assert [row[4] for row in rows[1:]] == want[1:].tolist()

    def test_curves_dir_excludes_simulating_stages(self, tmp_path):
        cfg = tiny_config(tmp_path)
        for stage in ("evolve", "bands", "piplot", "peplot"):
            with pytest.raises(QbmError, match="curves"):
                run_experiment(cfg, (stage, "redundancy"), curves_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_no_pool_without_time_points(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "curves")
        run_experiment(cfg, ("piplot", "peplot"))

        def no_pool(*a, **k):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(runner_mod, "_pool", no_pool)
        out = tiny_config(tmp_path / "out")
        manifest = run_experiment(out, ("analytic",))
        assert [f["name"] for f in manifest.files] == ["t_analytic.csv"]
        manifest = run_experiment(out, ("redundancy", "compare"), curves_dir=cfg.outdir)
        assert len(manifest.files) == 1 + cfg.n_times + 2
        assert "simulate" not in manifest.timings_s

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        import qbmlab.runner as runner_mod

        def boom(*a, **k):
            raise RuntimeError("disk full")

        real_write = runner_mod._write_json
        calls = {"n": 0}

        def fail_second(*a, **k):
            calls["n"] += 1
            if calls["n"] >= 2:
                boom()
            return real_write(*a, **k)

        monkeypatch.setattr(runner_mod, "_write_json", fail_second)
        with pytest.raises(RuntimeError):
            run_experiment(cfg, ("piplot", "peplot"))
        leftovers = [n for n in os.listdir(tmp_path) if not n.endswith("_manifest.json")]
        assert leftovers == []

    def test_compare_summary_structure(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg, ("compare",))
        with open(tmp_path / f"{cfg.run_id}_compare_summary.json") as fh:
            summary = json.load(fh)
        assert set(summary["max_rel_dev_core"]) == {"mi", "neg"}
        assert summary["n_times"] == cfg.n_times
        with open(tmp_path / f"{cfg.run_id}_compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for col in ("t", "f", "numeric", "analytic", "rel_dev"):
                float(row[col])  # raises on a cell such as np.float64(0.35)
        t0_rows = [r for r in rows if float(r["t"]) == 0.0]
        assert t0_rows
        for row in t0_rows:
            assert float(row["analytic"]) == 0.0
            assert abs(float(row["numeric"])) < 1e-8
            assert row["below_analytic"] == "False"  # rounding below an analytic 0 is no deviation


class TestWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads under /proc (Linux)")
    def test_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with runner_mod._pool(2) as pool:
            reports = [pool.submit(_worker_report).result() for _ in range(4)]
        for pins, threads in reports:
            assert pins == {var: "1" for var in runner_mod._BLAS_THREAD_VARS}
            assert threads == 1
        assert "OPENBLAS_NUM_THREADS" not in os.environ  # the caller's environment is restored

    def test_unpinned_chunk_raises(self, tmp_path, pinned_blas, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        cfg = tiny_config(tmp_path)
        with pytest.raises(QbmError, match="OMP_NUM_THREADS is '4'"):
            _chunk_task((cfg, 0, 0.0, ("curves",), range(cfg.samples)))

    def test_forkserver_started_without_pins_fails_the_command(self, tmp_path):
        if runner_mod._START_METHOD != "forkserver":
            pytest.skip("no forkserver on this platform")
        # other code starts the forkserver first, so its workers load BLAS unpinned
        script = (
            "import multiprocessing, sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context('forkserver')) as pool:\n"
            "    pool.submit(abs, -1).result()\n"
            "from qbmlab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {k: v for k, v in child_env().items() if k not in runner_mod._BLAS_THREAD_VARS}
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, "piplot", "--profile", "desk", *TINY_DESK, "--outdir", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "numerical failure: worker BLAS is not pinned to one thread: OPENBLAS_NUM_THREADS" in proc.stderr
        assert not os.listdir(out)

    def test_forkserver_preloads_a_package_found_through_sys_path(self, tmp_path):
        if runner_mod._START_METHOD != "forkserver":
            pytest.skip("no forkserver on this platform")
        # qbmlab is importable only through a sys.path insert, as under pytest's
        # pythonpath; a worker that finds numpy and qbmlab.runner loaded got them
        # from the forkserver's preload, since nothing else imports them there
        src = os.path.dirname(os.path.dirname(runner_mod.__file__))
        probe = "sorted({'numpy', 'qbmlab.runner'} & set(__import__('sys').modules))"
        script = (
            "import os, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from qbmlab import runner\n"
            "with runner._pool(1) as pool:\n"
            f"    print(pool.submit(eval, {probe!r}).result())\n"
            "print(os.environ.get('PYTHONPATH'))\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # PYTHONPATH is restored
        assert proc.stdout.splitlines() == ["['numpy', 'qbmlab.runner']", "None"]

    def test_dead_worker_is_a_numerical_failure(self):
        # a worker that exits abruptly breaks the pool; _pool turns that into a QbmError (exit 3)
        with pytest.raises(QbmError, match="exited abruptly"), runner_mod._pool(1) as pool:
            pool.submit(os._exit, 1).result()

    def test_no_process_outlives_the_command(self, tmp_path):
        script = tmp_path / "killed_worker.py"
        script.write_text(_KILLED_WORKER_SCRIPT)
        argv = ["all", "--profile", "desk", *TINY_DESK, "--workers", "2", "--run-id", "pg"]
        # a command that succeeds, and one whose workers are killed at their first chunk (exit 3)
        for entry, outdir, code in ((["-m", "qbmlab.cli"], "ok", 0), ([str(script)], "killed", 3)):
            os.makedirs(tmp_path / outdir)
            proc = subprocess.Popen(
                [sys.executable, *entry, *argv, "--outdir", str(tmp_path / outdir)],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
            )
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == code, err
            # the command led a new process group: the forkserver, the resource
            # tracker and every worker belonged to it, and none is left
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        failure = [line for line in err.splitlines() if not line.startswith("warning: t_max")]  # N = 8 recurs early
        assert failure == ["numerical failure: a pool worker exited abruptly (killed, or out of memory)"]
        assert not os.listdir(tmp_path / "killed")


#: The CLI, with every pool worker killed at its first chunk: a worker imports the caller's main
#: module, and this one's top level replaces the runner's simulation_pieces there.
_KILLED_WORKER_SCRIPT = """
import os, signal, sys

from qbmlab import runner

runner.simulation_pieces = lambda config: os.kill(os.getpid(), signal.SIGKILL)

if __name__ == "__main__":
    from qbmlab.cli import main
    sys.exit(main(sys.argv[1:]))
"""


def _arrays_of(root) -> list[np.ndarray]:
    """Every array that owns its memory and is reachable from root through object references (types and modules aside)."""
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.base is None:
            arrays.append(obj)
        else:  # a view leads to its base
            stack.extend(gc.get_referents(obj))
    return arrays


def _pieces_seconds(outdir, run_id) -> float:
    with open(os.path.join(outdir, f"{run_id}_manifest.json")) as fh:
        return json.load(fh)["layer_timings_s"]["runner.simulation_pieces"]


class TestForkserverPieces:
    @pytest.mark.parametrize("error", [NegativeEigenvalue, EigensolveFailure, MemoryError])
    def test_failed_build_stores_no_pieces(self, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("propagator")

        cfg = tiny_config(tmp_path)
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        monkeypatch.setattr(runner_mod, "make_propagator", broken)
        with pytest.raises(error):
            simulation_pieces(cfg)
        assert runner_mod._PIECES == {}

    def test_unbuildable_physics_leaves_the_environment(self, tmp_path, monkeypatch):
        # a config built in Python is not validated: its bath spec raises in the worker, before any write
        monkeypatch.setenv("PYTHONPATH", "caller")
        for var in runner_mod._BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "3")
        before = dict(os.environ)
        with pytest.raises(DomainError):
            run_experiment(replace(tiny_config(tmp_path), cutoff=-1.0), ("evolve",))
        assert dict(os.environ) == before

    def test_pieces_are_read_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        _, bath, prop, cov0 = simulation_pieces(tiny_config(tmp_path))
        arrays = (bath.frequencies, bath.couplings, bath.masses, prop.eigenfrequencies, prop.eigenbasis,
                  prop.mass_scaling, cov0.variances)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array *= 1.0

    def test_full_pieces_hold_no_square_state(self, monkeypatch):
        # bytes, not RSS: sigma(0) is its 2(N + 1) variances, and the 601 x 601 eigenbasis is most of the rest
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        cfg = parse_config(overrides=dict(profile="full"), env={})
        arrays = _arrays_of(simulation_pieces(cfg))
        n_state = 2 * (cfg.n_oscillators + 1)
        assert len(arrays) == 7  # the bath's 3, the propagator's 3 and the variances
        assert all(array.size != n_state**2 for array in arrays)
        assert sum(array.nbytes for array in arrays) < 3.5e6

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_physics_in_one_process_write_fresh_bytes(self, tmp_path, workers):
        def argv(n_oscillators, outdir):
            return ["all", "--profile", "desk", "--n-oscillators", str(n_oscillators), "--n-times", "2",
                    "--n-bands", "2", "--samples", "3", "--workers", str(workers),
                    "--outdir", str(tmp_path / outdir), "--run-id", "seq"]

        # one process: 8 oscillators, then 9, then 8 again; then each physics in a fresh CLI process
        script = "import json, sys\nfrom qbmlab.cli import main\nassert [main(a) for a in json.loads(sys.argv[1])] == [0] * 3"
        runs = [argv(8, "a1"), argv(9, "b"), argv(8, "a2")]
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=child_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for n_oscillators, outdir in ((8, "fresh_a"), (9, "fresh_b")):
            proc = subprocess.run([sys.executable, "-m", "qbmlab.cli", *argv(n_oscillators, outdir)],
                                  env=child_env(), capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        fresh_a = digest_dir(tmp_path / "fresh_a")
        assert len(fresh_a) == 11  # state, bands, two curve CSVs and sidecars, three redundancy and two compare files
        assert digest_dir(tmp_path / "a1") == digest_dir(tmp_path / "a2") == fresh_a
        assert digest_dir(tmp_path / "b") == digest_dir(tmp_path / "fresh_b")
        # every run's workers build its own pieces: nothing carries from the run before
        for outdir in ("a1", "b", "a2", "fresh_a", "fresh_b"):
            assert _pieces_seconds(tmp_path / outdir, "seq") > 0.0

    def test_two_runs_leave_no_process(self, tmp_path):
        # two runs, then the resource tracker stopped as perfbench/run.py stops it: a pool that
        # outlived its run would hold the tracker's fd, and that stop would wait forever
        script = (
            "import sys\n"
            "from multiprocessing import resource_tracker\n"
            "from qbmlab.config import parse_config\n"
            "from qbmlab.runner import run_experiment\n"
            "for outdir in sys.argv[1:]:\n"
            "    config = parse_config(overrides=dict(profile='desk', n_oscillators=8, n_times=2, n_bands=2,\n"
            "                                         samples=2, workers=2, outdir=outdir), env={})\n"
            "    run_experiment(config, ('evolve', 'piplot'))\n"
            "stop = getattr(resource_tracker._resource_tracker, '_stop', None)\n"
            "if stop is not None:\n"
            "    stop()\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "a"), str(tmp_path / "b")],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, 9)
            proc.communicate()
            pytest.fail("two runs and the tracker's stop did not exit within 120 s")
        assert proc.returncode == 0, err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


#: the pool machinery that only a pool's start (runner._pool) or the forkserver's preload imports
_POOL_MODULES = ("concurrent.futures.process", "multiprocessing.forkserver", "multiprocessing.resource_tracker")


def _fresh_interpreter(script: str, **env) -> list[str]:
    """The stdout lines of script, run by a fresh interpreter without the BLAS variables, plus env."""
    base = {k: v for k, v in child_env().items() if k not in runner_mod._BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", script], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestCliProcess:
    def test_cli_import_leaves_the_pool_machinery_out(self):
        script = f"import sys\nimport qbmlab.cli\nprint(sorted(set({_POOL_MODULES!r}) & set(sys.modules)))"
        assert _fresh_interpreter(script) == ["[]"]

    def test_preload_imports_the_worker_loop(self):
        # the forkserver imports it once, and every worker it forks inherits it
        script = "import sys\nimport qbmlab._preload\nprint('concurrent.futures.process' in sys.modules)"
        assert _fresh_interpreter(script) == ["True"]

    def test_preload_builds_no_pieces(self):
        # the forkserver holds modules only: every worker builds its run's pieces itself
        script = "import qbmlab._preload\nfrom qbmlab import runner\nprint(runner._PIECES)"
        assert _fresh_interpreter(script) == ["{}"]

    @pytest.mark.parametrize("caller, expected", [(None, "1"), ("3", "3")])
    def test_cli_pins_unset_blas_variables(self, caller, expected):
        script = "import os\nimport qbmlab.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))"
        env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
        assert _fresh_interpreter(script, **env) == [expected]

    def test_cli_imported_after_numpy_leaves_the_environment(self):
        script = ("import os\nimport numpy\nimport qbmlab.cli\n"
                  f"print([os.environ.get(var) for var in {runner_mod._BLAS_THREAD_VARS!r}])")
        assert _fresh_interpreter(script) == ["[None, None, None]"]


class TestChunks:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_one_chunk_per_time_point_on_long_grids(self, workers):
        for n_times in (4 * workers, 4 * workers + 1, 40, 1000):
            assert _chunk_count(12, workers, n_times) == 1

    def test_few_time_points_split(self):
        assert _chunk_count(20, 2, 3) == 2  # desk-curves: six equal items for two workers
        assert _chunk_count(20, 2, 1) == 2
        assert _chunk_count(20, 8, 31) == 8
        assert _chunk_count(20, 1, 3) == 1  # one worker never splits
        assert _chunk_count(3, 8, 1) == 3  # at most one chunk per sample
        assert _chunk_count(1, 2, 1) == 1

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 8])
    def test_split_covers_the_plan_once(self, n_chunks):
        # the slices cut the sample indices in order; each is drawn at every grid point of the plan
        for samples in (n_chunks, 20, 23):
            slices = _slices(samples, n_chunks)
            assert len(slices) == n_chunks and all(slices)
            assert [i for part in slices for i in part] == list(range(samples))

    def test_split_balances_cost(self):
        # every draw of a sample index costs the same, so equal sizes balance the chunks
        for samples, n_chunks in ((20, 2), (20, 3), (23, 8), (5, 5)):
            sizes = [len(part) for part in _slices(samples, n_chunks)]
            assert max(sizes) - min(sizes) <= 1


class TestOnePath:
    def test_time_point_runs_on_arrays(self, tmp_path, monkeypatch, pinned_blas):
        # state, bands and curves of a time point call no object API, build
        # no CovarianceMatrix but the evolved state, and never read sigma(0) densely
        def forbidden(*args, **kwargs):
            raise AssertionError("a pipeline stage called the object API")

        def dense_sigma0(self):
            raise AssertionError("a pipeline stage read the dense sigma(0)")

        monkeypatch.setattr(model_mod.ProductState, "data", property(dense_sigma0))

        monkeypatch.setattr(gaussian_mod.ModeSubset, "of", forbidden)
        for name in ("partial_trace", "von_neumann_entropy", "log_negativity"):
            monkeypatch.setattr(gaussian_mod, name, forbidden)
            monkeypatch.setattr(correlations_mod, name, forbidden, raising=False)
        built, init, symmetric = [], gaussian_mod.CovarianceMatrix.__init__, gaussian_mod.CovarianceMatrix.symmetric

        def counted_init(self, data):
            built.append(data.shape)
            init(self, data)

        def counted_symmetric(data):
            built.append(data.shape)
            return symmetric(data)

        monkeypatch.setattr(gaussian_mod.CovarianceMatrix, "__init__", counted_init)
        monkeypatch.setattr(gaussian_mod.CovarianceMatrix, "symmetric", counted_symmetric)
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        cfg = tiny_config(tmp_path)
        wants = ("state", "bands", "curves")
        out = _chunk_task((cfg, 1, float(cfg.times()[1]), wants, range(cfg.samples)))
        assert {"state", "bands", "samples"} <= out.keys()
        assert built == [(62, 62)]

    def test_pipeline_takes_no_raw_spectrum(self, monkeypatch, pinned_blas):
        # H(S) and the f = 1 negativity read sqrt(det sigma_S); only the object API reaches _spectrum_of
        def raw_route(*args, **kwargs):
            raise AssertionError("a pipeline function reached gaussian._spectrum_of")

        assert not hasattr(correlations_mod, "_spectrum_of")
        monkeypatch.setattr(gaussian_mod, "_spectrum_of", raw_route)
        cfg = parse_config(overrides=dict(profile="desk"), env={})
        t_index, t = 20, float(cfg.times()[20])
        out = _chunk_task((cfg, t_index, t, ("state", "bands", "curves"), range(cfg.samples)))
        assert {"state", "bands", "samples"} <= out.keys()
        _, _, prop, cov0 = simulation_pieces(cfg)
        pi_pe_plots(evolve(prop, cov0, t), _sampler(cfg), t=t, t_index=t_index)


class TestStateDiagnostics:
    def test_state_csv_reads_the_purity_bound(self, tmp_path):
        cfg = tiny_config(tmp_path, squeezing=-5.0)
        run_experiment(cfg, ("evolve",))
        with open(tmp_path / "t_state.csv") as fh:
            rows = list(csv.DictReader(fh))
        _, _, prop, cov0 = simulation_pieces(cfg)
        assert [float(row["t"]) for row in rows] == cfg.times().tolist()
        for row in rows:
            bound = check_purity(evolve(prop, cov0, float(row["t"])))
            assert float(row["min_symplectic"]) == np.sqrt(max(0.25 - bound, 0.0))
            assert float(row["symmetry_defect"]) == 0.0

    @pytest.mark.parametrize("wants", [("state",), ("bands",)])
    def test_impure_state_raises_without_curves(self, tmp_path, pinned_blas, monkeypatch, wants):
        # pool workers fork from the forkserver and would not see the patch, so the chunk runs here
        def mixed(prop, cov0, t):
            return CovarianceMatrix(1.01 * evolve(prop, cov0, t).data)

        monkeypatch.setattr(runner_mod, "evolve", mixed)
        cfg = tiny_config(tmp_path)
        with pytest.raises(ImpureState):
            _chunk_task((cfg, 1, float(cfg.times()[1]), wants, range(cfg.samples)))


def test_benchmark_names_resolve():
    """Every qbmlab name that perfbench/tracing.py and perfbench/workloads.py read still exists."""
    names = {
        "config": ("RunConfig", "parse_config"),
        "model": ("discretize_bath", "make_propagator", "initial_covariance", "evolve"),
        "gaussian": ("ModeSubset", "partial_trace", "von_neumann_entropy", "log_negativity", "validate_state"),
        "correlations": ("partial_trace", "von_neumann_entropy", "pi_pe_plots", "band_correlations",
                         "band_partition", "FractionSampler"),
        "redundancy": ("build_report",),
        "runner": ("simulation_pieces", "branch_params", "load_curves", "usable_cpu_count", "run_experiment"),
        "cli": (),
    }
    missing = []
    for module, wanted in names.items():
        imported = importlib.import_module(f"qbmlab.{module}")
        missing += [f"{module}.{name}" for name in wanted if not hasattr(imported, name)]
    assert not missing


class TestBenchmarkContract:
    """What perfbench/workloads.py (model_of, checks.Oracle) and the traced chain do with sigma(0), on a tiny config."""

    @pytest.fixture
    def model(self, tmp_path):
        cfg = tiny_config(tmp_path, squeezing=-5.0)
        spec = cfg.bath_spec()
        bath = discretize_bath(spec)
        return cfg, spec, bath, initial_covariance(spec, bath, cfg.initial_state())

    def test_dense_sigma0_is_the_diagonal(self, model):
        cfg, spec, bath, cov0 = model
        init = cfg.initial_state()
        mw = bath.masses * bath.frequencies
        want = np.diag(np.concatenate([[init.delta_x**2, init.delta_p**2], np.column_stack((0.5 / mw, 0.5 * mw)).ravel()]))
        sigma0 = np.array(cov0.data)
        assert sigma0.shape == (62, 62)
        assert np.array_equal(sigma0, want)

    def test_evolve_at_zero_and_later(self, model):
        cfg, spec, bath, cov0 = model
        prop = make_propagator(spec, bath)
        assert np.array_equal(evolve(prop, cov0, 0.0).data, cov0.data)
        later = evolve(prop, cov0, float(cfg.times()[1]))
        assert later.n_modes == cov0.n_modes and np.all(np.isfinite(later.data))

    def test_total_energy_of_sigma0(self, model):
        _, spec, bath, cov0 = model
        want = 0.5 * float(np.sum(hamiltonian_matrix(spec, bath) * np.array(cov0.data)))
        assert total_energy(spec, bath, cov0) == pytest.approx(want, rel=1e-12)


class TestWriteCsv:
    def test_numpy_scalars_write_plain_values(self, tmp_path):
        path = tmp_path / "cells.csv"
        _write_csv(str(path), ["a", "b", "c", "d"], [[np.float64(0.1), np.bool_(True), np.int64(3), 0.25]])
        assert path.read_text() == "a,b,c,d\n0.1,True,3,0.25\n"


class TestBranchParams:
    def test_needs_no_propagator(self, monkeypatch):
        cfg = parse_config(overrides=dict(profile="desk"), env={})
        expected = branch_params(cfg)

        def no_propagator(*a, **k):
            raise AssertionError("branch_params built a propagator")

        # wherever the builder could reach it: the model that defines it and every module that imports it
        for module in (model_mod, runner_mod, config_mod):
            monkeypatch.setattr(module, "make_propagator", no_propagator, raising=False)
        monkeypatch.setattr(runner_mod, "_PIECES", {})
        got = branch_params(cfg)
        assert (got.r, got.omega_s, got.mass) == (expected.r, expected.omega_s, expected.mass)
        for field in ("frequencies", "couplings", "masses"):
            assert np.array_equal(getattr(got.bath, field), getattr(expected.bath, field))
        assert got.delta_x == expected.delta_x


class TestCli:
    def test_bands_subcommand(self, tmp_path, capsys):
        rc = main(
            [
                "bands",
                "--n-oscillators", "20",
                "--n-times", "3",
                "--t-max", "2",
                "--n-bands", "4",
                "--outdir", str(tmp_path),
                "--run-id", "clitest",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clitest_bands.csv" in out
        assert (tmp_path / "clitest_bands.csv").exists()

    def test_validation_exit_code(self, tmp_path, capsys):
        rc = main(["bands", "--cutoff", "-3", "--outdir", str(tmp_path)])
        assert rc == 2
        assert "cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, problem",
        [
            pytest.param(("--f-grid", "0.31,1"), "f_grid: every fraction must be k/150 with integer k >= 1",
                         id="oscillators"),
            pytest.param(("--unit", "band", "--n-bands", "7", "--f-grid", "0.5,1"),
                         "f_grid: every fraction must be k/7", id="bands"),
            pytest.param(("--unit", "band", "--n-bands", "1"), "n_bands: need at least two sampling units",
                         id="one-band"),
            pytest.param(("--n-oscillators", "1", "--n-bands", "1", "--t-max", "0.1"),
                         "n_oscillators: need at least two sampling units", id="one-oscillator"),
        ],
    )
    def test_grid_the_units_cannot_hold_exit_code(self, tmp_path, capsys, flags, problem):
        # a configuration error, found when the curves' grid is made, before any pool or file
        out = tmp_path / "out"
        rc = main(["piplot", "--profile", "desk", "--n-times", "1", *flags, "--outdir", str(out)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {problem}")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("flag", ["--unit", "--profile"])
    def test_unknown_choice_exit_code(self, tmp_path, capsys, flag):
        rc = main(["bands", flag, "foo", "--outdir", str(tmp_path / "out")])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: {flag[2:]}: ")
        assert not (tmp_path / "out").exists()

    def test_one_flag_per_field(self):
        subparsers = next(a for a in cli_mod.build_parser()._actions if a.dest == "command").choices
        for command, parser in subparsers.items():
            for field in fields(RunConfig):
                actions = [a for a in parser._actions if a.dest == field.name]
                assert [a.option_strings for a in actions] == [["--" + field.name.replace("_", "-")]], command
                # the flag passes text on; parse_config converts and checks it
                assert (actions[0].type, actions[0].choices) == (None, None)

    def test_command_table(self, tmp_path, monkeypatch):
        # the stages each subcommand hands over, which take --curves-dir, and the --help order
        expected = {
            "evolve": ("evolve",),
            "bands": ("bands",),
            "piplot": ("piplot",),
            "peplot": ("peplot",),
            "redundancy": ("piplot", "peplot", "redundancy"),
            "analytic": ("analytic",),
            "compare": ("compare",),
            "all": ("evolve", "bands", "piplot", "peplot", "redundancy", "compare"),
        }
        reuses = ("redundancy", "compare")
        parser = cli_mod.build_parser()
        assert "{" + ",".join(expected) + "}" in parser.format_help()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        assert list(subparsers) == list(expected)
        seen = []
        monkeypatch.setattr(
            cli_mod, "run_experiment",
            lambda config, stages, curves_dir=None: seen.append((stages, curves_dir)) or SimpleNamespace(files=[]),
        )
        (tmp_path / "c_compare_summary.json").write_text('{"max_rel_dev_core": {"mi": 0.0, "neg": 0.0}}')
        flags = ["--outdir", str(tmp_path), "--run-id", "c"]
        for command, stages in expected.items():
            assert any(a.dest == "curves_dir" for a in subparsers[command]._actions) == (command in reuses), command
            assert main([command, *flags]) == 0
            assert seen.pop() == (stages, None), command
        for command in reuses:
            assert main([command, "--curves-dir", str(tmp_path), *flags]) == 0
            assert seen.pop() == ((command,), str(tmp_path)), command

    def test_recurrence_warning(self, tmp_path, capsys):
        rc = main(
            [
                "evolve",
                "--n-oscillators", "10",
                "--n-bands", "5",
                "--cutoff", "20",
                "--t-max", "9",
                "--n-times", "2",
                "--samples", "1",
                "--outdir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "recurrence" in capsys.readouterr().err

    def test_analytic_subcommand(self, tmp_path):
        rc = main(
            [
                "analytic",
                "--n-oscillators", "30",
                "--exponent", "3",
                "--cutoff", "300",
                "--n-times", "3",
                "--t-max", "2",
                "--outdir", str(tmp_path),
                "--run-id", "ana",
            ]
        )
        assert rc == 0
        assert (tmp_path / "ana_analytic.csv").exists()

    def test_analytic_cells_parse_as_floats(self, tmp_path):
        rc = main(
            [
                "analytic",
                "--profile", "desk",
                "--n-times", "3",
                "--f-grid", "0.25,0.5,1.0",
                "--outdir", str(tmp_path),
                "--run-id", "cells",
            ]
        )
        assert rc == 0
        with open(tmp_path / "cells_analytic.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 9
        for row in rows:
            for cell in row:
                float(cell)  # raises on a cell such as np.float64(0.18)

    @pytest.mark.parametrize("squeezing", ["40", "80", "100"])
    def test_analytic_full_fraction_is_finite_at_large_squeezing(self, tmp_path, squeezing):
        # at r = 40 the desk k is above 5e16, where E(1) = arccosh(sqrt(1 + 8k)) is near 21, and
        # I(1) = 2 h(chi(1)) with chi(1) = sqrt(1/4 + 2k) above 3e8, where h(chi) = ln(chi) + 1 + O(chi^-2)
        rc = main(["analytic", "--profile", "desk", "--n-times", "4", "--f-grid", "0.5,1.0",
                   f"--squeezing={squeezing}", "--outdir", str(tmp_path), "--run-id", "big"])
        assert rc == 0
        with open(tmp_path / "big_analytic.csv") as fh:
            rows = [row for row in csv.DictReader(fh) if float(row["t"]) > 0.0]
        assert len(rows) == 6
        for row in rows:
            k = float(row["d_dx2"])
            assert k > 1e14
            if float(row["f"]) == 1.0:
                assert float(row["e_analytic"]) == pytest.approx(np.arccosh(np.sqrt(1.0 + 8.0 * k)), rel=1e-14)
                mi = float(row["mi_analytic"])
                assert mi > 0.0
                assert mi == pytest.approx(2.0 * (np.log(np.sqrt(0.25 + 2.0 * k)) + 1.0), rel=1e-14)

    def test_impure_state_exit_code(self, tmp_path, monkeypatch, capsys):
        def impure(*a, **k):
            raise ImpureState("global purity defect 1.0e-02 exceeds 1e-08 x scale 1.0e+00")

        monkeypatch.setattr(cli_mod, "run_experiment", impure)
        rc = main(["piplot", "--n-oscillators", "12", "--n-bands", "3", "--outdir", str(tmp_path)])
        assert rc == 3
        assert "global purity" in capsys.readouterr().err

    @pytest.mark.parametrize("squeezing", ["nan", "inf"])
    def test_non_finite_squeezing_exit_code(self, tmp_path, capsys, squeezing):
        out = tmp_path / "out"
        rc = main(["all", "--profile", "desk", *TINY_DESK, "--squeezing", squeezing, "--outdir", str(out)])
        assert rc == 2
        assert "squeezing: must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evolve", "analytic"])
    @pytest.mark.parametrize("squeezing", ["800", "-800"])
    def test_unrepresentable_squeezing_exit_code(self, tmp_path, capsys, command, squeezing):
        # e^800 overflows a float and e^-800 underflows to 0, so the squeezed variances would not exist
        out = tmp_path / "out"
        rc = main([command, "--profile", "desk", "--n-times", "2", f"--squeezing={squeezing}", "--outdir", str(out)])
        assert rc == 2
        assert "config error: squeezing: " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_exponent_notation_value(self, tmp_path, monkeypatch, capsys):
        # argparse alone reads -5e-1 and -inf as options and exits 2
        seen = []
        monkeypatch.setattr(cli_mod, "run_experiment", lambda config, *a, **k: seen.append(config) or SimpleNamespace(files=[]))
        assert main(["analytic", "--squeezing", "-5e-1", "--outdir", str(tmp_path)]) == 0
        assert seen[0].squeezing == -0.5
        assert main(["analytic", "--squeezing", "-inf", "--outdir", str(tmp_path)]) == 2
        assert "config error: squeezing: must be finite (got -inf)" in capsys.readouterr().err.splitlines()

    def test_overflowing_squeezing_exit_code(self, tmp_path, capsys):
        # r = 400 is finite, but e^(2r) overflows the state; the purity check stops the run
        out = tmp_path / "out"
        rc = main(["all", "--profile", "desk", *TINY_DESK, "--squeezing", "400", "--outdir", str(out)])
        assert rc == 3
        assert "global purity defect" in capsys.readouterr().err
        assert not os.listdir(out)

    def test_redundancy_from_curves_dir(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, run_id="reuse")
        run_experiment(cfg, ("piplot", "peplot"))
        out2 = tmp_path / "second"
        rc = main(
            [
                "redundancy",
                "--curves-dir", str(tmp_path),
                "--n-oscillators", "30",
                "--n-times", "4",
                "--t-max", "3.0",
                "--samples", "3",
                "--n-bands", "6",
                "--outdir", str(out2),
                "--run-id", "reuse",
            ]
        )
        assert rc == 0
        assert (out2 / "reuse_redundancy.csv").exists()

    def test_missing_curves_dir_exit_code(self, tmp_path, capsys):
        rc = main(
            [
                "redundancy",
                "--curves-dir", str(tmp_path / "nowhere"),
                "--n-oscillators", "30",
                "--n-bands", "6",
                "--outdir", str(tmp_path),
            ]
        )
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suffix, corrupt",
        [
            pytest.param("mi.json", lambda text: text[: len(text) // 2], id="truncated-sidecar"),
            pytest.param("neg.csv", lambda text: text.replace(",0.0,0.0,3,neg", ",x,0.0,3,neg", 1), id="non-numeric-mean"),
            pytest.param("mi.json", lambda text: json.dumps({**json.loads(text), "t_values": [-1.0, 1.0, 2.0, 3.0]}),
                         id="time-missing-from-sidecar"),
            pytest.param("neg.csv", lambda text: "".join(
                line for line in text.splitlines(keepends=True) if not line.startswith("3.0,")
            ), id="time-missing-from-csv"),
        ],
    )
    def test_malformed_curves_dir_exit_code(self, tmp_path, capsys, suffix, corrupt):
        cfg = tiny_config(tmp_path / "curves", run_id="bad")
        run_experiment(cfg, ("piplot", "peplot"))
        path = tmp_path / "curves" / f"bad_{suffix}"
        path.write_text(corrupt(path.read_text()))
        out = tmp_path / "out"
        flags = ["--n-oscillators", "30", "--n-times", "4", "--t-max", "3.0", "--samples", "3", "--n-bands", "6"]
        capsys.readouterr()
        rc = main(["redundancy", "--curves-dir", cfg.outdir, *flags, "--outdir", str(out), "--run-id", "bad"])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o error: {path}: "), err
        assert os.listdir(out) == []

    def test_curve_files_of_different_times(self, tmp_path):
        cfg = tiny_config(tmp_path, run_id="bad")
        run_experiment(cfg, ("piplot", "peplot"))
        csv_path, side_path = (tmp_path / f"bad_neg.{ext}" for ext in ("csv", "json"))
        csv_path.write_text("".join(line for line in csv_path.read_text().splitlines(keepends=True) if not line.startswith("3.0,")))
        side_path.write_text(json.dumps({**json.loads(side_path.read_text()), "t_values": [0.0, 1.0, 2.0], "h_system": [0.0] * 3}))
        with pytest.raises(OSError, match="only the mi file holds t = 3.0"):
            load_curves(cfg.outdir, "bad")

    def test_failed_reanalysis_leaves_no_output(self, tmp_path):
        cfg = tiny_config(tmp_path / "curves", run_id="fail")
        run_experiment(cfg, ("piplot", "peplot"))
        out = tmp_path / "out"
        (out / "fail_redundancy_001.json").mkdir(parents=True)
        rc = main(
            [
                "redundancy",
                "--curves-dir", cfg.outdir,
                "--n-oscillators", "30",
                "--n-times", "4",
                "--t-max", "3.0",
                "--samples", "3",
                "--n-bands", "6",
                "--outdir", str(out),
                "--run-id", "fail",
            ]
        )
        assert rc == 4
        left = [p.name for p in out.iterdir() if p.is_file() and p.name.startswith("fail_redundancy")]
        assert left == []

    @pytest.mark.parametrize("command", ["analytic", "compare", "redundancy"])
    def test_manifest_lists_every_printed_file(self, tmp_path, capsys, command):
        outdir = tmp_path / "run"
        flags = [
            "--n-oscillators", "30",
            "--n-times", "4",
            "--t-max", "3.0",
            "--samples", "3",
            "--n-bands", "6",
            "--outdir", str(outdir),
            "--run-id", "m",
        ]
        if command == "redundancy":
            # reanalyse into the directory that holds the curves, with other deficits
            run_experiment(tiny_config(outdir, run_id="m"), ("piplot", "peplot", "redundancy"))
            flags += ["--curves-dir", str(outdir), "--delta-e", "0.3"]
        capsys.readouterr()
        assert main([command, *flags]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith(str(outdir))]
        assert printed
        with open(outdir / "m_manifest.json") as fh:
            manifest = json.load(fh)
        listed = {entry["name"] for entry in manifest["files"]}
        assert {os.path.basename(p) for p in printed} <= listed
        for entry in manifest["files"]:
            data = (outdir / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"], entry["name"]
            assert len(data) == entry["bytes"], entry["name"]
        expected_dir = str(outdir) if command == "redundancy" else None
        assert manifest["config"]["curves_dir"] == expected_dir

    def test_compare_from_curves_dir(self, tmp_path, monkeypatch, capsys):
        flags = ["--n-oscillators", "30", "--n-times", "4", "--t-max", "3.0", "--samples", "3", "--n-bands", "6"]
        cfg = tiny_config(tmp_path / "curves", run_id="cmp")
        run_experiment(cfg, ("piplot", "peplot"))
        simulated = tiny_config(tmp_path / "simulated", run_id="cmp")
        run_experiment(simulated, ("compare",))

        def no_time_points(*a, **k):
            raise AssertionError("compare evaluated a time point")

        monkeypatch.setattr(runner_mod, "_run_time_points", no_time_points)
        out = tmp_path / "out"
        rc = main(["compare", "--curves-dir", cfg.outdir, *flags, "--outdir", str(out), "--run-id", "cmp"])
        assert rc == 0
        assert "max relative deviation" in capsys.readouterr().out
        assert digest_dir(out) == digest_dir(simulated.outdir)

    def test_curves_dir_of_other_physics_exit_code(self, tmp_path, capsys):
        # curves made at r = -5 with cutoff 20 are not reanalysed at r = 5 with cutoff 16
        cfg = tiny_config(tmp_path / "curves", run_id="c")
        run_experiment(cfg, ("piplot", "peplot"))
        flags = ["--n-oscillators", "30", "--n-times", "4", "--t-max", "3.0", "--samples", "3", "--n-bands", "6"]
        out = tmp_path / "out"
        for command in ("redundancy", "compare"):
            rc = main([command, "--curves-dir", cfg.outdir, *flags, "--squeezing=5", "--cutoff", "16",
                       "--outdir", str(out), "--run-id", "c"])
            assert rc == 2
            problems = capsys.readouterr().err.splitlines()
            assert [line.split(":")[:2] for line in problems] == [["config error", " cutoff"], ["config error", " squeezing"]]
            assert list(out.iterdir()) == []  # no file written

    def test_curves_dir_of_other_sampling_is_read(self, tmp_path, capsys):
        # the sampling fields (seed, samples, unit, n_bands), workers and the deficits are not physics
        cfg = tiny_config(tmp_path / "curves", run_id="c", samples=2, seed=99)
        run_experiment(cfg, ("piplot", "peplot"))
        flags = ["--n-oscillators", "30", "--n-times", "4", "--t-max", "3.0", "--n-bands", "5", "--samples", "7",
                 "--seed", "3", "--unit", "band", "--workers", "2", "--delta-e", "0.3", "--delta-i", "0.2"]
        for command in ("redundancy", "compare"):
            rc = main([command, "--curves-dir", cfg.outdir, *flags, "--outdir", str(tmp_path / command), "--run-id", "c"])
            assert rc == 0, capsys.readouterr().err

    def test_curves_dir_without_physics_exit_code(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "curves", run_id="c")
        run_experiment(cfg, ("piplot", "peplot"))
        sidecar = tmp_path / "curves" / "c_neg.json"
        payload = json.loads(sidecar.read_text())
        del payload["config"]["squeezing"]
        sidecar.write_text(json.dumps(payload))
        flags = ["--n-oscillators", "30", "--n-times", "4", "--t-max", "3.0", "--samples", "3", "--n-bands", "6"]
        rc = main(["redundancy", "--curves-dir", cfg.outdir, *flags, "--outdir", str(tmp_path / "out"), "--run-id", "c"])
        assert rc == 4
        assert "c_neg.json: cannot parse: KeyError" in capsys.readouterr().err

    def test_manifest_keeps_earlier_commands_files(self, tmp_path, capsys):
        flags = [*TINY_DESK, "--profile", "desk", "--outdir", str(tmp_path), "--run-id", "m"]
        assert main(["piplot", *flags]) == 0
        capsys.readouterr()
        assert main(["peplot", *flags]) == 0
        printed = [os.path.basename(p) for p in capsys.readouterr().out.split()]
        assert printed == ["m_neg.csv", "m_neg.json"]
        with open(tmp_path / "m_manifest.json") as fh:
            manifest = json.load(fh)
        assert [entry["name"] for entry in manifest["files"]] == ["m_mi.csv", "m_mi.json", "m_neg.csv", "m_neg.json"]
        for entry in manifest["files"]:
            data = (tmp_path / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"], entry["name"]
        assert manifest["stages"] == ["peplot"]

    def test_unreadable_manifest_is_replaced(self, tmp_path):
        cfg = tiny_config(tmp_path, run_id="m")
        (tmp_path / "m_manifest.json").write_text('{"files": [{"sha256": "no name"}]}')
        run_experiment(cfg, ("analytic",))
        with open(tmp_path / "m_manifest.json") as fh:
            assert [entry["name"] for entry in json.load(fh)["files"]] == ["m_analytic.csv"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBM_SEED", "777")
        cfg = parse_config(overrides={"seed": 1})
        assert cfg.seed == 777

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qbmlab.cli", "bands", "--n-oscillators", "12",
             "--n-times", "2", "--t-max", "1", "--n-bands", "3",
             "--outdir", str(tmp_path), "--run-id", "sub"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sub_bands.csv").exists()

    def test_data_bytes_independent_of_caller_blas_threads(self, tmp_path):
        # BLAS results depend on its thread count; workers pin it to one, so a
        # caller's multi-threaded setting, which the CLI's own process keeps,
        # must give the same bytes as the default (the CLI pins unset variables)
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        base_env = {k: v for k, v in child_env().items() if k not in thread_vars}
        digests = {}
        for label, extra in (("default", {}), ("single", {"OPENBLAS_NUM_THREADS": "1"}),
                             ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            outdir = tmp_path / label
            proc = subprocess.run(
                [sys.executable, "-m", "qbmlab.cli", "redundancy", "--profile", "desk",
                 "--t-min", "5", "--t-max", "5", "--n-times", "1", "--samples", "2",
                 "--outdir", str(outdir), "--run-id", "blas"],
                env={**base_env, **extra},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            digests[label] = digest_dir(outdir)
        assert digests["default"] == digests["single"] == digests["two"]
        assert len(digests["default"]) > 0
