"""Run configuration: defaults, config-file parsing, and validation.

Configuration sources are merged with precedence
    QBM_SEED environment variable (seed only) > command-line flags >
    config file > profile defaults.
The config file is flat ``key = value`` text; '#' starts a comment.
Every violated field is reported at once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .model import BathSpec, SqueezedInitialState

#: Baseline parameter set: sub-Ohmic dissipative environment at full scale.
BASE_DEFAULTS = dict(
    exponent=0.5,
    cutoff=20.0,
    coupling=0.1,
    n_oscillators=600,
    omega_s=3.0,
    system_mass=1.0,
    bath_mass=1.0,
    squeezing=-5.0,
    t_min=0.0,
    t_max=10.0,
    n_times=40,
    seed=12345,
    samples=20,
    unit="oscillator",
    n_bands=30,
    f_grid=None,
    delta_e=0.2,
    delta_i=0.1,
    outdir="out",
    run_id=None,
    workers=1,
)

#: Profile overrides applied before file/flag values.
PROFILES = {
    "full": {},
    "desk": {"n_oscillators": 150, "n_times": 40},
}

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class RunConfig:
    exponent: float
    cutoff: float
    coupling: float
    n_oscillators: int
    omega_s: float
    system_mass: float
    bath_mass: float
    squeezing: float
    t_min: float
    t_max: float
    n_times: int
    seed: int
    samples: int
    unit: str
    n_bands: int
    f_grid: tuple[float, ...] | None
    delta_e: float
    delta_i: float
    outdir: str
    run_id: str
    workers: int

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

    def initial_state(self) -> SqueezedInitialState:
        return SqueezedInitialState.from_r(self.squeezing, self.bath_spec())

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_times)

    def physics_key(self) -> dict:
        keys = (
            "exponent cutoff coupling n_oscillators omega_s system_mass bath_mass "
            "squeezing t_min t_max n_times seed samples unit n_bands f_grid delta_e delta_i"
        ).split()
        d = asdict(self)
        return {k: d[k] for k in keys}


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def read_config_file(path: str) -> dict:
    """Parse flat ``key = value`` text; '#' comments; quoted strings allowed."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValidationError([f"{path}:{lineno}: expected 'key = value', got {body!r}"])
            key, raw = body.split("=", 1)
            out[key.strip()] = _parse_value(raw)
    return out


def _coerce_f_grid(value) -> tuple[float, ...] | None:
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        value = [float(p) for p in parts]
    return tuple(float(v) for v in value)


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
    merged = dict(BASE_DEFAULTS)
    problems: list[str] = []

    file_values = read_config_file(path) if path else {}
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}

    profile = overrides.get("profile", file_values.get("profile", "full"))
    if profile not in PROFILES:
        problems.append(f"profile: unknown profile {profile!r} (choose from {sorted(PROFILES)})")
        profile = "full"
    merged.update(PROFILES[profile])

    known = set(BASE_DEFAULTS) | {"profile"}
    for source_name, values in (("config file", file_values), ("flags", overrides)):
        for key, val in values.items():
            if key not in known:
                problems.append(f"{key}: unknown key (from {source_name})")
            elif key != "profile":
                merged[key] = val

    if "QBM_SEED" in env and env["QBM_SEED"] != "":
        try:
            merged["seed"] = int(env["QBM_SEED"])
        except ValueError:
            problems.append(f"seed: QBM_SEED={env['QBM_SEED']!r} is not an integer")

    try:
        merged["f_grid"] = _coerce_f_grid(merged.get("f_grid"))
    except (TypeError, ValueError):
        problems.append(f"f_grid: cannot parse {merged.get('f_grid')!r} as a list of fractions")
        merged["f_grid"] = None

    def check(cond: bool, message: str):
        if not cond:
            problems.append(message)

    numeric = {
        "exponent": (float, lambda v: v > 0, "must be > 0"),
        "cutoff": (float, lambda v: v > 0, "must be > 0"),
        "coupling": (float, lambda v: v >= 0, "must be >= 0"),
        "n_oscillators": (int, lambda v: v >= 1, "must be >= 1"),
        "omega_s": (float, lambda v: v > 0, "must be > 0"),
        "system_mass": (float, lambda v: v > 0, "must be > 0"),
        "bath_mass": (float, lambda v: v > 0, "must be > 0"),
        "squeezing": (float, lambda v: True, ""),
        "t_min": (float, lambda v: v >= 0, "must be >= 0"),
        "t_max": (float, lambda v: v >= 0, "must be >= 0"),
        "n_times": (int, lambda v: v >= 1, "must be >= 1"),
        "seed": (int, lambda v: True, ""),
        "samples": (int, lambda v: v >= 1, "must be >= 1"),
        "n_bands": (int, lambda v: v >= 1, "must be >= 1"),
        "delta_e": (float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
        "delta_i": (float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
        "workers": (int, lambda v: v >= 1, "must be >= 1"),
    }
    parsed = set()
    for key, (cast, ok, msg) in numeric.items():
        try:
            merged[key] = cast(merged[key])
        except (TypeError, ValueError, OverflowError):
            problems.append(f"{key}: cannot interpret {merged[key]!r}")
            continue
        if cast is float and not math.isfinite(merged[key]):
            problems.append(f"{key}: must be finite (got {merged[key]})")
            continue
        parsed.add(key)
        check(ok(merged[key]), f"{key}: {msg} (got {merged[key]})")

    if {"t_min", "t_max", "n_times"} <= parsed:
        check(merged["t_max"] >= merged["t_min"], "t_max: must be >= t_min")
        # curves are keyed by t, so repeated times would merge into one curve
        check(
            merged["n_times"] == 1 or merged["t_max"] != merged["t_min"],
            f"t_max: must be > t_min when n_times > 1 (got t_min = t_max = {merged['t_min']})",
        )
    check(merged["unit"] in ("oscillator", "band"), f"unit: must be 'oscillator' or 'band' (got {merged['unit']!r})")
    if {"n_bands", "n_oscillators"} <= parsed:
        check(
            merged["n_bands"] <= merged["n_oscillators"],
            f"n_bands: must be <= n_oscillators (got {merged['n_bands']} > {merged['n_oscillators']})",
        )
    if merged["f_grid"] is not None:
        grid = merged["f_grid"]
        check(all(0 < f <= 1 for f in grid), "f_grid: fractions must lie in (0, 1]")
        check(all(b > a for a, b in zip(grid, grid[1:])), "f_grid: must be strictly increasing")

    if merged["run_id"] is None:
        merged["run_id"] = default_run_id({k: merged[k] for k in sorted(BASE_DEFAULTS) if k not in ("outdir", "run_id", "workers")})
    merged["run_id"] = str(merged["run_id"])
    check(bool(_RUN_ID_RE.match(merged["run_id"])), f"run_id: not filesystem-safe ({merged['run_id']!r})")

    if problems:
        raise ValidationError(problems)
    merged.pop("profile", None)
    return RunConfig(**merged)
