"""qbmlab benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload desk-curves --seed 1 --seconds 15 --trace 0

Run it from the root of a qbmlab source checkout; the package is imported
from ./src and nothing needs installing.  With --trace 0 the last line of
standard output carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Work files go to ./.perfbench-work/.
See perfbench/README.md for the workloads and what each metric means.

This module imports only the standard library at top level: spawned worker
processes re-import it as their main module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one qbmlab workload.")
    parser.add_argument("--workload", required=True, choices=["desk-curves", "full-state", "reanalyse"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1 runs the traced run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qbmlab", "__init__.py")):
        print(f"perfbench: no qbmlab package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # CLI children and spawned workers import the package from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    try:
        if args.trace:
            from tracing import traced

            result = traced(workload)
        else:
            from measure import untraced

            result = untraced(workload, args.seconds)
    finally:
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """End and reap the helper process that spawn pools start, so none outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
