import pytest

from qbmlab.config import parse_config, read_config_file
from qbmlab.errors import ValidationError


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

    def test_unsafe_run_id_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(overrides={"run_id": "bad/../id"}, env={})

    @pytest.mark.parametrize("key, value", [("squeezing", float("nan")), ("squeezing", float("inf")), ("coupling", float("inf"))])
    def test_non_finite_value_rejected(self, key, value):
        with pytest.raises(ValidationError) as err:
            parse_config(overrides={key: value}, env={})
        assert err.value.problems == [f"{key}: must be finite (got {value})"]

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

    def test_times_grid(self):
        cfg = parse_config(overrides={"t_min": 1.0, "t_max": 3.0, "n_times": 5}, env={})
        assert cfg.times().tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


class TestConfigFileParser:
    def test_types(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text('a = 1\nb = 2.5\nc = "text"\nd = plain\ne = true\n')
        got = read_config_file(str(path))
        assert got == {"a": 1, "b": 2.5, "c": "text", "d": "plain", "e": True}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "kv.cfg"
        path.write_text("not a pair\n")
        with pytest.raises(ValidationError):
            read_config_file(str(path))
