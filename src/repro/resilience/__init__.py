"""Fault-tolerant serving: fallback chains, replanning, degradation, admission.

The paper's schedules assume machines never fail and solvers always
return in time.  This subsystem gives the runtime paths a resilience
layer:

* :mod:`~repro.resilience.fallback` — :class:`FallbackChain` runs
  solvers under wall-clock deadlines and degrades MIP → LP → approx →
  greedy on timeout or error, recording the served tier in telemetry;
* :mod:`~repro.resilience.replan` — :func:`replay_with_replanning`
  re-batches unfinished work onto surviving machines against the
  remaining energy budget when an outage or slowdown strikes mid-plan;
* :mod:`~repro.resilience.degrade` — :class:`DegradationPolicy` maps
  energy pressure (budget-fraction watermarks) to tightened per-task
  work caps and, in extremis, shedding of the lowest-θ tasks;
* :mod:`~repro.resilience.admission` — :class:`AdmissionController`
  bounds the server's in-flight solves and trips a circuit breaker
  (503 + ``Retry-After``) when the fallback chain keeps failing.
"""

from .admission import AdmissionController, AdmissionDecision, BreakerState, CircuitBreaker
from .degrade import (
    DegradationPolicy,
    DegradeDecision,
    Watermark,
    cap_work,
    expand_times,
    truncate_accuracy,
)
from .fallback import DEFAULT_TIERS, FallbackChain, FallbackTier, run_with_deadline
from .replan import (
    ReplanComparison,
    ReplanReport,
    compare_replanning,
    replay_with_replanning,
    residual_accuracy,
)

__all__ = [
    "FallbackChain",
    "FallbackTier",
    "DEFAULT_TIERS",
    "run_with_deadline",
    "ReplanReport",
    "ReplanComparison",
    "replay_with_replanning",
    "compare_replanning",
    "residual_accuracy",
    "Watermark",
    "DegradationPolicy",
    "DegradeDecision",
    "truncate_accuracy",
    "cap_work",
    "expand_times",
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "BreakerState",
]
