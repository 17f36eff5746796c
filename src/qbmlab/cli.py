"""Command-line interface.

Subcommands select pipeline stages; flags mirror the run configuration and
take precedence over the config file, which takes precedence over the
profile defaults.  QBM_SEED in the environment overrides the seed from any
source.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import BASE_DEFAULTS, parse_config
from .errors import QbmError, ValidationError
from .model import recurrence_time
from .runner import run_experiment

STAGE_COMMANDS = {
    "evolve": ("evolve",),
    "bands": ("bands",),
    "piplot": ("piplot",),
    "peplot": ("peplot",),
    "redundancy": ("piplot", "peplot", "redundancy"),
    "compare": ("compare",),
    "analytic": ("analytic",),
    "all": ("evolve", "bands", "piplot", "peplot", "redundancy", "compare"),
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="flat key = value config file")
    p.add_argument("--profile", choices=["full", "desk"], help="parameter profile")
    g = p.add_argument_group("model")
    g.add_argument("--exponent", type=float, help="spectral density power (1 Ohmic, 0.5 sub-, 3 super-Ohmic)")
    g.add_argument("--cutoff", type=float, help="frequency cutoff")
    g.add_argument("--coupling", type=float, help="coupling rate gamma0")
    g.add_argument("--n-oscillators", type=int, dest="n_oscillators", help="bath size N")
    g.add_argument("--omega-s", type=float, dest="omega_s", help="renormalized system frequency")
    g.add_argument("--squeezing", type=float, help="squeezing parameter r")
    g.add_argument("--system-mass", type=float, dest="system_mass")
    g.add_argument("--bath-mass", type=float, dest="bath_mass")
    g = p.add_argument_group("grids and sampling")
    g.add_argument("--t-min", type=float, dest="t_min")
    g.add_argument("--t-max", type=float, dest="t_max")
    g.add_argument("--n-times", type=int, dest="n_times")
    g.add_argument("--seed", type=int, help="sampler seed (QBM_SEED overrides)")
    g.add_argument("--samples", type=int, help="fraction samples per point")
    g.add_argument("--unit", choices=["oscillator", "band"], help="fraction sampling unit")
    g.add_argument("--n-bands", type=int, dest="n_bands")
    g.add_argument("--f-grid", dest="f_grid", help="comma-separated fractions")
    g = p.add_argument_group("redundancy and output")
    g.add_argument("--delta-e", type=float, dest="delta_e", help="entanglement deficit")
    g.add_argument("--delta-i", type=float, dest="delta_i", help="information deficit")
    g.add_argument("--outdir", help="output directory")
    g.add_argument("--run-id", dest="run_id", help="output file prefix")
    g.add_argument(
        "--workers",
        type=int,
        help="worker processes, each with single-threaded BLAS (bounded by the usable CPUs; 1 runs serially)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmlab",
        description="Decoherence-redundancy experiments for a Brownian oscillator in a discretized bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "evolve": "state diagnostics along the time grid (validity, energy, entropy)",
        "bands": "MI and entanglement between the system and frequency bands",
        "piplot": "averaged mutual-information curves over random fractions",
        "peplot": "averaged entanglement curves over random fractions",
        "redundancy": "R_E / R_I / I_NR reports (runs the curve stages first)",
        "analytic": "closed-form branch-model curves on the same grids",
        "compare": "numeric curves, simulated or read with --curves-dir, against the closed-form model",
        "all": "every stage in one run",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        _add_config_flags(p)
        if name in ("redundancy", "compare"):
            p.add_argument(
                "--curves-dir",
                dest="curves_dir",
                metavar="DIR",
                help="reuse persisted curve files from DIR instead of re-simulating",
            )
    return parser


def _warn_recurrence(config) -> None:
    guard = 0.5 * recurrence_time(config.bath_spec())
    if config.t_max > guard:
        print(
            f"warning: t_max = {config.t_max:g} exceeds half the bath recurrence time "
            f"(pi N / cutoff = {guard:g}); discrete-bath results are unreliable there",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k, None) for k in ("profile", *BASE_DEFAULTS)}
    try:
        config = parse_config(path=args.config, overrides=overrides)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4

    _warn_recurrence(config)
    curves_dir = getattr(args, "curves_dir", None) or None
    stages = (args.command,) if curves_dir else STAGE_COMMANDS[args.command]
    try:
        manifest = run_experiment(config, stages, curves_dir=curves_dir)
        for entry in manifest.files:
            print(os.path.join(config.outdir, entry["name"]))
        if args.command == "compare":
            with open(os.path.join(config.outdir, f"{config.run_id}_compare_summary.json"), encoding="utf-8") as fh:
                core = json.load(fh)["max_rel_dev_core"]
            print(f"max relative deviation on f in [0.1, 0.9]: mi {core['mi']:.4f}, neg {core['neg']:.4f}")
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except QbmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
