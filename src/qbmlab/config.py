"""Run configuration: the run fields, config-file parsing, and validation.

``RunConfig`` declares each run field once: its type, its default, its
checks with the messages they print, and the help of its ``--flag``.  The
CLI flags and ``parse_config``'s conversion and checks are derived from it.

Configuration sources are merged with precedence
    QBM_SEED environment variable (seed only) > command-line flags >
    config file > profile defaults.
Flags and config-file values arrive as text.  Each value is converted once,
by its field's type, so an integer field takes integer text only, and is
checked once; typed values passed from Python take the same path, where
an integer field also takes a Python or numpy integer (not a bool, and not
a float).  The config file is flat ``key = value`` text; '#' starts a
comment outside a double-quoted value.  Every violated field is reported
at once.
"""

import hashlib
import json
import math
import operator
import os
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .analytic import BranchModelParams
from .errors import DomainError, ValidationError
from .model import BathSpec, SqueezedInitialState, discretize_bath

#: Fields that choose where and how a run executes, not what it computes;
#: the other fields of RunConfig form the physics key and the run id.
RUN_FIELDS = ("outdir", "run_id", "workers")

#: Profile overrides applied before file/flag values.
PROFILES = {
    "full": {},
    "desk": {"n_oscillators": 150, "n_times": 40},
}

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")
#: a line up to its first '#' outside double quotes
_BODY_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')

# A check is (ok, message): where ok(value) fails, "field: message" is
# reported, with the value formatted into message.
_POSITIVE = (lambda v: v > 0, "must be > 0 (got {!r})")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0 (got {!r})")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1 (got {!r})")
_DEFICIT = (lambda v: 0 < v < 1, "must lie in (0, 1) (got {!r})")


def _fractions(value) -> tuple[float, ...]:
    """f_grid from comma- or space-separated text, or from a sequence of numbers."""
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    return tuple(float(v) for v in value)


def _integer(value) -> int:
    """An integer field from integer text or an integer; int() would truncate a float and count a bool."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    return int(value) if isinstance(value, str) else operator.index(value)


def _field(default, help=None, *checks, parse=None, unparsable="cannot interpret {!r}"):
    """A run field: its default, --flag help and checks, and parse where the annotated type cannot convert it."""
    return field(default=default, metadata=dict(help=help, checks=checks, parse=parse, unparsable=unparsable))


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each field declares its default, --flag help and checks (see _field).

    The defaults are the baseline: a sub-Ohmic dissipative environment at full scale.
    """

    exponent: float = _field(0.5, "spectral density power (1 Ohmic, 0.5 sub-, 3 super-Ohmic)", _POSITIVE)
    cutoff: float = _field(20.0, "frequency cutoff", _POSITIVE)
    coupling: float = _field(0.1, "coupling rate gamma0", _NON_NEGATIVE)
    n_oscillators: int = _field(600, "bath size N", _AT_LEAST_ONE)
    omega_s: float = _field(3.0, "renormalized system frequency", _POSITIVE)
    system_mass: float = _field(1.0, None, _POSITIVE)
    bath_mass: float = _field(1.0, None, _POSITIVE)
    squeezing: float = _field(-5.0, "squeezing parameter r")
    t_min: float = _field(0.0, None, _NON_NEGATIVE)
    t_max: float = _field(10.0, None, _NON_NEGATIVE)
    n_times: int = _field(40, None, _AT_LEAST_ONE)
    seed: int = _field(12345, "sampler seed (QBM_SEED overrides)")
    samples: int = _field(20, "fraction samples per point", _AT_LEAST_ONE)
    unit: str = _field(
        "oscillator", "fraction sampling unit",
        (lambda v: v in ("oscillator", "band"), "must be 'oscillator' or 'band' (got {!r})"),
    )
    n_bands: int = _field(30, None, _AT_LEAST_ONE)
    f_grid: tuple[float, ...] | None = _field(
        None, "comma-separated fractions",
        (lambda grid: all(0 < f <= 1 for f in grid), "fractions must lie in (0, 1]"),
        (lambda grid: all(b > a for a, b in zip(grid, grid[1:])), "must be strictly increasing"),
        parse=_fractions, unparsable="cannot parse {!r} as a list of fractions",
    )
    delta_e: float = _field(0.2, "entanglement deficit", _DEFICIT)
    delta_i: float = _field(0.1, "information deficit", _DEFICIT)
    outdir: str = _field("out", "output directory")
    #: None until parse_config derives it from the physics key
    run_id: str = _field(None, "output file prefix", (lambda v: bool(_RUN_ID_RE.match(v)), "not filesystem-safe ({!r})"))
    workers: int = _field(
        1, "worker processes, each with single-threaded BLAS (bounded by the usable CPUs; 1 runs serially)", _AT_LEAST_ONE
    )

    def bath_spec(self) -> BathSpec:
        return BathSpec(
            exponent=self.exponent,
            cutoff=self.cutoff,
            coupling=self.coupling,
            n_oscillators=self.n_oscillators,
            omega_s=self.omega_s,
            system_mass=self.system_mass,
            bath_mass=self.bath_mass,
        )

    def physics(self) -> dict:
        """The fields that fix the simulated state: the bath spec's (which checks them) and the squeezing.

        Runs that agree on them share simulation pieces, and curves persisted
        by one can be reanalysed by the other, whatever their sampling fields
        and deficits.
        """
        return {**asdict(self.bath_spec()), "squeezing": self.squeezing}

    def branch_params(self) -> BranchModelParams:
        """Closed-form model parameters; they need the discretized bath only."""
        return BranchModelParams(self.squeezing, self.omega_s, discretize_bath(self.bath_spec()), self.system_mass)

    def initial_state(self) -> SqueezedInitialState:
        return SqueezedInitialState.from_r(self.squeezing, self.bath_spec())

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_times)

    def physics_key(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k not in RUN_FIELDS}


def _parse_value(raw: str) -> str:
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    return raw


def read_config_file(path: str) -> dict:
    """Parse flat ``key = value`` text into text values; '#' comments; quoted strings allowed."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = _BODY_RE.match(line).group().strip()
            if not body:
                continue
            if "=" not in body:
                raise ValidationError([f"{path}:{lineno}: expected 'key = value', got {body!r}"])
            key, raw = body.split("=", 1)
            out[key.strip()] = _parse_value(raw)
    return out


def default_run_id(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return "qbm_" + hashlib.sha256(blob).hexdigest()[:10]


def parse_config(
    path: str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Merge defaults, profile, file, flags and the QBM_SEED override.

    Raises ValidationError listing every violated field at once.
    """
    env = os.environ if env is None else env
    problems: list[str] = []

    file_values = read_config_file(path) if path else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    profile = overrides.get("profile", file_values.get("profile", "full"))
    if profile not in PROFILES:
        problems.append(f"profile: unknown profile {profile!r} (choose from {sorted(PROFILES)})")
        profile = "full"
    merged = {f.name: f.default for f in fields(RunConfig)} | PROFILES[profile]

    for source_name, values in (("config file", file_values), ("flags", overrides)):
        for key, val in values.items():
            if key in merged:
                merged[key] = val
            elif key != "profile":
                problems.append(f"{key}: unknown key (from {source_name})")

    if env.get("QBM_SEED"):
        try:
            merged["seed"] = int(env["QBM_SEED"])
        except ValueError:
            problems.append(f"seed: QBM_SEED={env['QBM_SEED']!r} is not an integer")

    parsed = set()
    for f in fields(RunConfig):
        value = merged[f.name]
        if value is None:
            continue
        try:
            value = merged[f.name] = (f.metadata["parse"] or (_integer if f.type is int else f.type))(value)
        except (TypeError, ValueError, OverflowError):
            problems.append(f"{f.name}: " + f.metadata["unparsable"].format(value))
            continue
        if f.type is float and not math.isfinite(value):
            problems.append(f"{f.name}: must be finite (got {value})")
            continue
        parsed.add(f.name)

    if merged["run_id"] is None:
        merged["run_id"] = default_run_id({k: v for k, v in merged.items() if k not in RUN_FIELDS})
        parsed.add("run_id")
    for f in fields(RunConfig):
        if f.name in parsed:
            value = merged[f.name]
            problems += [f"{f.name}: " + message.format(value) for ok, message in f.metadata["checks"] if not ok(value)]

    def check(cond: bool, message: str):
        if not cond:
            problems.append(message)

    if {"t_min", "t_max", "n_times"} <= parsed:
        check(merged["t_max"] >= merged["t_min"], "t_max: must be >= t_min")
        # curves are keyed by t, so repeated times would merge into one curve
        check(
            merged["n_times"] == 1 or merged["t_max"] != merged["t_min"],
            f"t_max: must be > t_min when n_times > 1 (got t_min = t_max = {merged['t_min']})",
        )
    if {"n_bands", "n_oscillators"} <= parsed:
        check(
            merged["n_bands"] <= merged["n_oscillators"],
            f"n_bands: must be <= n_oscillators (got {merged['n_bands']} > {merged['n_oscillators']})",
        )

    if problems:
        raise ValidationError(problems)
    config = RunConfig(**merged)
    try:  # sigma(0) and the branch model square spreads of order e^(|r| / 2), which may leave the float range
        config.initial_state()
        config.branch_params()
    except DomainError as exc:
        raise ValidationError([f"squeezing: {exc}"]) from exc
    return config
