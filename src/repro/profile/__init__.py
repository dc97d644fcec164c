"""Performance attribution from telemetry spans.

The observability stack built by the rest of :mod:`repro` answers *what
happened* (metrics) and *what belonged together* (traces); this package
answers *where the time went*, from the same closed spans:

* :mod:`~repro.profile.phases` — exact per-phase wall-time splits
  (total / self / count) computed from closed telemetry spans, merged
  across shards for the cluster's ``/debug/profile``, and the
  attribution that ``repro bench profile`` turns into per-phase CI
  budgets;
* :mod:`~repro.profile.bench` — the seeded profiling benchmark behind
  ``repro bench profile`` and ``benchmarks/BENCH_profile.json``;
* :mod:`~repro.profile.top` — the ``repro top`` live cluster dashboard.

Function-level detail that spans do not name is one
``python -m cProfile`` away; no profiler runs in production.
"""

from .phases import hottest_phases, merge_phase_breakdowns, phase_breakdown

__all__ = [
    "phase_breakdown",
    "merge_phase_breakdowns",
    "hottest_phases",
]
