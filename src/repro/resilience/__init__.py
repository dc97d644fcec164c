"""Fault-tolerant serving: fallback chains and admission.

The paper's schedules assume machines never fail and solvers always
return in time.  This subsystem gives the runtime paths a resilience
layer:

* :mod:`~repro.resilience.fallback` — :class:`FallbackChain` runs
  solvers under wall-clock deadlines and degrades MIP → LP → approx →
  greedy on timeout or error, recording the served tier in telemetry;
* :mod:`~repro.resilience.admission` — :class:`AdmissionController`
  bounds the server's in-flight solves and trips a circuit breaker
  (503 + ``Retry-After``) when the fallback chain keeps failing.

Failure-aware replanning lives in the serving loop itself:
:class:`~repro.simulator.online_sim.OnlineSimulation` with
``replan=True`` re-buffers the requests an outage destroyed into the
next window and plans only on surviving machines (``repro
resilience``).
"""

from .admission import AdmissionController, AdmissionDecision, BreakerState, CircuitBreaker
from .fallback import DEFAULT_TIERS, FallbackChain, FallbackTier, run_with_deadline

__all__ = [
    "FallbackChain",
    "FallbackTier",
    "DEFAULT_TIERS",
    "run_with_deadline",
    "AdmissionController",
    "AdmissionDecision",
    "CircuitBreaker",
    "BreakerState",
]
