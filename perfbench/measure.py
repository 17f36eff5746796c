"""The untraced run: set-up several times, then whole rounds for the run length."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback

from checks import KNOWN_FAULT
from workloads import Op, Workload


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(op: Op) -> None:
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        op.child_rss_kib = op.run()
    except Exception:
        op.problems.append("failed: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
    op.wall = time.perf_counter() - t0
    op.cpu = cpu_seconds() - c0


def check(op: Op) -> None:
    """Check one operation's outputs; a raising check is a failed check."""
    if op.problems:
        return
    try:
        op.problems.extend(op.check())
    except Exception as exc:
        op.problems.append(f"check raised {type(exc).__name__}: {exc}")
    for problem in op.problems[:5]:
        print(f"{op.label}: {problem}", file=sys.stderr)


def peak_rss_mb(workload: Workload, ops: list[Op]) -> float:
    """Peak RSS of this process plus that of the operation's concurrent children.

    The children's figure is the largest peak of any one child (from wait4
    for CLI processes, from RUSAGE_CHILDREN for pool workers), times the
    number of children one operation runs at the same time.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    known = [op.child_rss_kib for op in ops if op.child_rss_kib is not None]
    child = max(known) if known else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workload.concurrent_children * child) / 1024.0


def run_rounds(workload: Workload, seconds: float) -> list[Op]:
    """Whole rounds until seconds have passed (at least one round)."""
    ops: list[Op] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for op in workload.round(index):
            timed(op)
            ops.append(op)
        index += 1
    return ops


def untraced(workload: Workload, seconds: float) -> dict:
    workload.prepare()
    setup_times = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    ops = run_rounds(workload, seconds)
    rss = peak_rss_mb(workload, ops)

    # timings count every operation that ran to its end, whatever its check
    # finds, so that mending a known fault does not change what is timed
    ran = [op for op in ops if not op.problems] or ops
    correct = verdict(workload, ops)
    points = sum(op.time_points for op in ran)
    wall = sum(op.wall for op in ran)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s": (statistics.median(op.wall for op in ran), "s"),
        "time_points_per_s": (points / wall, "1/s"),
        "cpu_s_per_time_point": (sum(op.cpu for op in ran) / points, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return result(correct, ops, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def verdict(workload: Workload, ops: list[Op]) -> bool:
    """Check set-up and every operation; true when only known faults failed."""
    setup_problems = workload.setup_problems()
    for problem in setup_problems[:5]:
        print(f"set-up: {problem}", file=sys.stderr)
    for op in ops:
        check(op)
    return not setup_problems and all(
        p.startswith(KNOWN_FAULT) for op in ops for p in op.problems
    )


def result(correct: bool, ops: list[Op], metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "metrics": metrics,
    }
