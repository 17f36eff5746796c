import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest

import qbmlab.cli as cli_mod
import qbmlab.correlations as correlations_mod
import qbmlab.gaussian as gaussian_mod
import qbmlab.runner as runner_mod
from qbmlab.cli import main
from qbmlab.config import RunConfig, parse_config
from qbmlab.errors import ImpureState, QbmError
from qbmlab.correlations import band_correlations, band_partition, pi_pe_plots
from qbmlab.gaussian import CovarianceMatrix, check_purity, take_counts
from qbmlab.model import evolve
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
        layers = {"model.evolve", "gaussian.check_purity"} | ({"correlations.bands", "correlations.curves"} if len(stages) > 1 else set())
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
        cfg = tiny_config(tmp_path)
        _, _, elapsed = runner_mod._run_time_points(cfg, ("state", "bands", "curves"))
        assert elapsed == dict.fromkeys(("model.evolve", "gaussian.check_purity", "correlations.bands", "correlations.curves"), float(cfg.n_times))

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

        # two chunks of one time point: the state work counts once, in chunk 0
        t = float(cfg.times()[1])
        chunks = [_chunk_task((asdict(cfg), 1, t, ("curves",), part)) for part in _slices(cfg.samples, 2)]
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

        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", no_pool)
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
    def test_workers_run_one_blas_thread(self, monkeypatch):
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
            _chunk_task((asdict(cfg), 0, 0.0, ("curves",), range(cfg.samples)))

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
        assert proc.stdout.splitlines() == ["['numpy', 'qbmlab.runner']", "None"]  # and PYTHONPATH is restored

    def test_no_process_outlives_the_command(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "qbmlab.cli", "all", "--profile", "desk", *TINY_DESK, "--workers", "2",
             "--outdir", str(tmp_path), "--run-id", "pg"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
        )
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        # the command led a new process group: the forkserver, the resource
        # tracker and every worker belonged to it, and none is left
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


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
        # state, bands and curves of a time point call no object API and
        # build no CovarianceMatrix but the model's initial and evolved states
        def forbidden(*args, **kwargs):
            raise AssertionError("a pipeline stage called the object API")

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
        out = _chunk_task((asdict(cfg), 1, float(cfg.times()[1]), wants, range(cfg.samples)))
        assert {"state", "bands", "samples"} <= out.keys()
        assert built == [(62, 62), (62, 62)]


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
            _chunk_task((asdict(cfg), 1, float(cfg.times()[1]), wants, range(cfg.samples)))


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

        monkeypatch.setattr(runner_mod, "make_propagator", no_propagator)
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
        # BLAS results depend on its thread count; workers pin it to one, so
        # the caller's default (one thread per CPU) must give the same bytes
        thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        base_env = {k: v for k, v in child_env().items() if k not in thread_vars}
        digests = {}
        for label, extra in (("default", {}), ("single", {"OPENBLAS_NUM_THREADS": "1"})):
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
        assert digests["default"] == digests["single"]
        assert len(digests["default"]) > 0
