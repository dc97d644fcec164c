"""The profiling benchmark behind ``repro bench profile``.

Runs the seeded two-case solver workload (the two micro-benchmark
instances) down each hot path — fractional water-filling, the LP
relaxation, fractional rounding, and the rolling-horizon planner —
under a telemetry registry, and reports:

* **per-phase wall-time splits** — exact self/total seconds per span
  name from :func:`~repro.profile.phases.phase_breakdown`, plus each
  phase's *share* of its path's root-span time.  Shares, not absolute
  seconds, are what ``benchmarks/check_regression.py --profile`` gates:
  they survive CI machines of different speeds;
* **span coverage** — root-span seconds over measured wall seconds per
  path, and aggregated over the fractional/LP/rounding solve paths
  (the acceptance bar is ≥90%: the phase attribution must account for
  where the solve wall time actually went).

The output document is committed as ``benchmarks/BENCH_profile.json``
(the per-phase budget baseline ROADMAP item 2's vectorization PRs will
be measured against).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..algorithms import ApproxScheduler, round_fractional, solve_fractional
from ..exact import solve_lp_relaxation
from ..online.planner import RollingHorizonPlanner
from ..telemetry import MetricsRegistry, collector
from ..utils.fileio import atomic_write
from ..workloads import runtime_instance
from ..workloads.arrivals import PoissonArrivals
from .phases import phase_breakdown

__all__ = ["run_profile_bench", "SOLVE_PATHS", "WORKLOAD_CASES"]

#: The seeded two-case workload: the micro-benchmark instance plus a
#: smaller second case so per-phase shares are not a single-size artifact.
WORKLOAD_CASES: Tuple[Tuple[int, int, int], ...] = ((100, 5, 7), (60, 3, 11))

#: The solve paths whose spans must cover >=90% of the measured wall time.
SOLVE_PATHS = ("fractional", "lp", "rounding")


def _instances():
    return [runtime_instance(n, m, seed=seed) for n, m, seed in WORKLOAD_CASES]


def _planner_workload() -> Tuple[RollingHorizonPlanner, list]:
    instance = runtime_instance(40, 3, seed=7)
    planner = RollingHorizonPlanner(
        instance.cluster,
        ApproxScheduler(),
        window_seconds=1.0,
        power_cap_fraction=0.5,
    )
    arrivals = PoissonArrivals(rate_per_second=25.0, seed=13)
    return planner, arrivals.generate(4.0)


def _path_runners() -> Dict[str, Callable[[], None]]:
    """One zero-arg runner per profiled path (inputs prebuilt, unprofiled)."""
    instances = _instances()
    fractionals = [solve_fractional(instance)[0] for instance in instances]
    planner, requests = _planner_workload()
    return {
        "fractional": lambda: [solve_fractional(i) for i in instances],
        "lp": lambda: [solve_lp_relaxation(i) for i in instances],
        "rounding": lambda: [
            round_fractional(i, f) for i, f in zip(instances, fractionals)
        ],
        "planner": lambda: planner.run(requests),
    }


def _profile_path(runner: Callable[[], None], repeats: int) -> Dict[str, Any]:
    """Run one path under a registry; return wall, coverage and phase splits."""
    registry = MetricsRegistry()
    with collector(registry):
        began = time.perf_counter()
        for _ in range(repeats):
            runner()
        wall = time.perf_counter() - began
    snapshot = registry.snapshot()
    breakdown = phase_breakdown(snapshot)
    root_seconds = sum(
        float(s["duration"])
        for s in snapshot["spans"]
        if s.get("parent_id") is None and s.get("duration") is not None
    )
    phases = {
        name: {
            "count": entry["count"],
            "total_seconds": entry["total_seconds"],
            "self_seconds": entry["self_seconds"],
            "share": (entry["self_seconds"] / root_seconds) if root_seconds else 0.0,
        }
        for name, entry in sorted(breakdown.items())
    }
    return {
        "wall_seconds": wall,
        "span_seconds": root_seconds,
        "span_coverage": (root_seconds / wall) if wall else 0.0,
        "phases": phases,
    }


def run_profile_bench(
    *,
    out: Optional[str] = None,
    repeats: int = 3,
    stream: Any = None,
) -> Dict[str, Any]:
    """Run the profiling benchmark; write the report to ``out`` if given."""
    say = stream.write if stream is not None else (lambda _t: None)
    runners = _path_runners()
    paths: Dict[str, Any] = {}
    for path, runner in runners.items():
        runner()  # warm-up: imports, caches, allocator
        paths[path] = _profile_path(runner, repeats)
        say(
            f"{path:<12} wall {paths[path]['wall_seconds']:.4f}s  "
            f"span coverage {paths[path]['span_coverage']:.1%}  "
            f"{len(paths[path]['phases'])} phase(s)\n"
        )
    solve_wall = sum(paths[p]["wall_seconds"] for p in SOLVE_PATHS)
    solve_span = sum(paths[p]["span_seconds"] for p in SOLVE_PATHS)
    budgets = {
        f"{path}/{phase}": entry["share"]
        for path, doc in paths.items()
        for phase, entry in doc["phases"].items()
    }
    report: Dict[str, Any] = {
        "meta": {
            "workload": [list(case) for case in WORKLOAD_CASES],
            "repeats": repeats,
            "note": "shares are self_seconds / path root-span seconds; "
            "check_regression.py --profile gates on share regressions",
        },
        "paths": paths,
        "solve": {
            "paths": list(SOLVE_PATHS),
            "wall_seconds": solve_wall,
            "span_seconds": solve_span,
            "coverage": (solve_span / solve_wall) if solve_wall else 0.0,
        },
        "budgets": budgets,
    }
    if out:
        atomic_write(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
        say(f"report -> {out}\n")
    return report
