from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from qbmlab import cli
from qbmlab.config import RunConfig, parse_config, read_config_file
from qbmlab.errors import ValidationError

#: valid text for every run field, each different from the field's default
FIELD_TEXT = dict(
    exponent="3", cutoff="300", coupling="0.8", n_oscillators="60", omega_s="2.5", system_mass="2",
    bath_mass="0.5", squeezing="-3", t_min="0.5", t_max="2", n_times="3", seed="7", samples="4",
    unit="band", n_bands="6", f_grid="0.25, 0.5, 1", delta_e="0.3", delta_i="0.05", outdir="runs/probe",
    run_id="probe", workers="2",
)


class TestParseConfig:
    def test_empty_file_gives_full_scale_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path=str(path), env={})
        assert cfg.exponent == 0.5
        assert cfg.cutoff == 20.0
        assert cfg.coupling == 0.1
        assert cfg.omega_s == 3.0
        assert cfg.squeezing == -5.0
        assert cfg.n_oscillators == 600

    def test_desk_profile(self):
        cfg = parse_config(overrides={"profile": "desk"}, env={})
        assert cfg.n_oscillators == 150
        assert cfg.n_times == 40

    def test_negative_cutoff_names_field(self):
        with pytest.raises(ValidationError) as err:
            parse_config(overrides={"cutoff": -1.0}, env={})
        assert any(p.startswith("cutoff") for p in err.value.problems)

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ValidationError) as err:
            parse_config(
                overrides={"cutoff": -1.0, "samples": 0, "delta_e": 2.0}, env={}
            )
        fields = {p.split(":")[0] for p in err.value.problems}
        assert {"cutoff", "samples", "delta_e"} <= fields

    def test_flag_seed_beats_file_seed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 111\n")
        cfg = parse_config(path=str(path), overrides={"seed": 222}, env={})
        assert cfg.seed == 222

    def test_env_seed_beats_everything(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 111\n")
        cfg = parse_config(path=str(path), overrides={"seed": 222}, env={"QBM_SEED": "333"})
        assert cfg.seed == 333

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "exponent = 3.0\n"
            'unit = "band"\n'
            "n_bands = 12\n"
            "f_grid = 0.1, 0.5, 1.0\n"
        )
        cfg = parse_config(path=str(path), env={})
        assert cfg.exponent == 3.0
        assert cfg.unit == "band"
        assert cfg.n_bands == 12
        assert cfg.f_grid == (0.1, 0.5, 1.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cutoffs = 20\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path=str(path), env={})
        assert any("cutoffs" in p for p in err.value.problems)

    def test_run_id_deterministic(self):
        a = parse_config(env={})
        b = parse_config(env={})
        assert a.run_id == b.run_id
        c = parse_config(overrides={"seed": 999}, env={})
        assert c.run_id != a.run_id

    def test_default_run_ids_pinned(self):
        # the run id hashes the physics fields; a refactor of the field lists must not move it
        assert parse_config(overrides={"profile": "desk"}, env={}).run_id == "qbm_44e803acb0"
        assert parse_config(env={}).run_id == "qbm_2d52ba7134"

    def test_unsafe_run_id_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(overrides={"run_id": "bad/../id"}, env={})

    @pytest.mark.parametrize("key, value", [("squeezing", float("nan")), ("squeezing", float("inf")), ("coupling", float("inf"))])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(ValidationError) as err:
            parse_config(overrides={key: value}, env={})
        assert err.value.problems == [f"{key}: must be finite (got {value})"]

    @pytest.mark.parametrize(
        "overrides, part",
        [
            ({"squeezing": 800.0}, "squeezed variances"),
            ({"squeezing": -800.0}, "squeezed variances"),
            # sigma(0) fits, but the branch model's delta_x^2 = e^705 / (2 m Omega_S) does not
            ({"squeezing": -705.0, "system_mass": 1e-3, "omega_s": 1e-3}, "branch model's delta_x^2"),
        ],
    )
    def test_unrepresentable_squeezing_rejected(self, overrides, part):
        with pytest.raises(ValidationError) as err:
            parse_config(overrides=overrides, env={})
        [problem] = err.value.problems
        assert problem.startswith("squeezing: ") and part in problem

    def test_repeated_times_rejected(self):
        # curves are keyed by t: two time points at t = 1 would merge into one curve
        with pytest.raises(ValidationError) as err:
            parse_config(overrides={"t_min": 1.0, "t_max": 1.0, "n_times": 2}, env={})
        assert [p.split(":")[0] for p in err.value.problems] == ["t_max"]

    def test_single_time_may_repeat_bounds(self):
        cfg = parse_config(overrides={"t_min": 1.0, "t_max": 1.0, "n_times": 1}, env={})
        assert cfg.times().tolist() == [1.0]

    def test_unparsable_numbers_reported_not_raised(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_min = soon\nn_bands = many\nn_times = inf\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path=str(path), env={})
        assert {p.split(":")[0] for p in err.value.problems} == {"t_min", "n_bands", "n_times"}

    @pytest.mark.parametrize("line, field", [("samples = true", "samples"), ("n_times = 4.5", "n_times")])
    def test_integer_fields_take_integer_text(self, tmp_path, line, field):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValidationError) as err:
            parse_config(path=str(path), env={})
        assert [p.split(":")[0] for p in err.value.problems] == [field]

    @pytest.mark.parametrize(
        "value", [4.5, True, np.float64(4.5), np.True_], ids=["float", "bool", "numpy-float", "numpy-bool"]
    )
    def test_integer_fields_take_no_float_or_bool(self, value):
        # int() would run 4.5 as 4 times and True as 1 time
        with pytest.raises(ValidationError) as err:
            parse_config(overrides={"n_times": value}, env={})
        assert err.value.problems == [f"n_times: cannot interpret {value!r}"]
        for integer in (4, np.int64(4)):  # sweeps build overrides with np.arange
            n_times = parse_config(overrides={"n_times": integer}, env={}).n_times
            assert n_times == 4 and type(n_times) is int

    def test_one_fraction_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("f_grid = 0.5\n")
        assert parse_config(path=str(path), env={}).f_grid == (0.5,)

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_file_line_agree(self, tmp_path, monkeypatch, name):
        # both reach parse_config as text, so both take one conversion and one set of checks
        monkeypatch.delenv("QBM_SEED", raising=False)
        text = FIELD_TEXT[name]
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {text}\n")
        from_file = parse_config(path=str(path), env={})
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda config, *a, **k: seen.append(config) or SimpleNamespace(files=[]))
        assert cli.main(["evolve", "--" + name.replace("_", "-"), text]) == 0
        assert seen == [from_file]
        assert getattr(from_file, name) != getattr(parse_config(env={}), name)

    def test_times_grid(self):
        cfg = parse_config(overrides={"t_min": 1.0, "t_max": 3.0, "n_times": 5}, env={})
        assert cfg.times().tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


class TestConfigFileParser:
    def test_types(self, tmp_path):
        # values stay text; parse_config converts each by its field's type
        path = tmp_path / "kv.cfg"
        path.write_text('a = 1\nb = 2.5\nc = "text"\nd = plain\ne = true\n')
        got = read_config_file(str(path))
        assert got == {"a": "1", "b": "2.5", "c": "text", "d": "plain", "e": "true"}

    def test_hash_inside_quotes_is_text(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text('outdir = "out#1"  # comment\nrun_id = a # "b#c"\n')
        assert read_config_file(str(path)) == {"outdir": "out#1", "run_id": "a"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("not a pair\n")
        with pytest.raises(ValidationError):
            read_config_file(str(path))
