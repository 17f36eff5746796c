"""Command-line interface.

Subcommands select pipeline stages.  Each RunConfig field has one
``--kebab-name`` flag, whose text parse_config converts and checks as it
does a config-file value.  Flags take precedence over the config file,
which takes precedence over the profile defaults.  QBM_SEED in the
environment overrides the seed from any source.  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 I/O error.

The CLI's own process runs BLAS on one thread: importing this module before
numpy sets each BLAS thread variable that the caller left unset to 1.  It
runs no BLAS kernel whose result depends on the thread count (every
spectrum, evolve and purity check runs in a pinned pool worker), so the
bytes do not change; a second BLAS thread would only spin while the process
loads curves and writes files.  A process that has imported numpy already
keeps its environment.  Only the simulating stages start a pool, and only
they load the pool machinery (runner._pool).
"""

from __future__ import annotations

import os
import sys

from . import _BLAS_THREAD_VARS

if "numpy" not in sys.modules:  # BLAS reads the variables once, when numpy loads it
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

import argparse
import json
from dataclasses import fields

from .config import RunConfig, parse_config
from .errors import QbmError, ValidationError
from .model import recurrence_time
from .runner import run_experiment

#: (stages, help) of each subcommand, in --help order
COMMANDS = {
    "evolve": (("evolve",), "state diagnostics along the time grid (validity, energy, entropy)"),
    "bands": (("bands",), "MI and entanglement between the system and frequency bands"),
    "piplot": (("piplot",), "averaged mutual-information curves over random fractions"),
    "peplot": (("peplot",), "averaged entanglement curves over random fractions"),
    "redundancy": (("piplot", "peplot", "redundancy"), "R_E / R_I / I_NR reports (runs the curve stages first)"),
    "analytic": (
        ("analytic",),
        "closed-form branch-model curves on the time grid, at f_grid or else 50 fractions from 0.02 to 1",
    ),
    "compare": (("compare",), "numeric curves, simulated or read with --curves-dir, against the closed-form model"),
    "all": (("evolve", "bands", "piplot", "peplot", "redundancy", "compare"), "every stage in one run"),
}


#: the argument group that each of these run fields opens, in RunConfig's field order
_GROUPS = {"exponent": "model", "t_min": "grids and sampling", "delta_e": "redundancy and output"}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, --profile and one --kebab-name flag per RunConfig field, passed on as text."""
    p.add_argument("--config", metavar="PATH", help="flat key = value config file")
    p.add_argument("--profile", help="parameter profile")
    for f in fields(RunConfig):
        if f.name in _GROUPS:
            group = p.add_argument_group(_GROUPS[f.name])
        group.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f.metadata["help"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmlab",
        description="Decoherence-redundancy experiments for a Brownian oscillator in a discretized bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc) in COMMANDS.items():
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


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each ``--flag VALUE`` whose VALUE is a negative float written ``--flag=VALUE``.

    argparse reads -5e-1 and -inf as options, and -0.5 as a value.
    """
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and arg.startswith("-") and _is_float(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    overrides = {k: getattr(args, k) for k in ("profile", *(f.name for f in fields(RunConfig)))}
    curves_dir = getattr(args, "curves_dir", None) or None
    stages = (args.command,) if curves_dir else COMMANDS[args.command][0]
    try:
        config = parse_config(path=args.config, overrides=overrides)
        _warn_recurrence(config)
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
