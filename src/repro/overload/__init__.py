"""repro.overload — adaptive overload control for the cluster.

Closed-loop overload management built from three cooperating pieces:

* :mod:`repro.overload.signals` — per-shard queue-delay measurement
  (sojourn EWMA, windowed p99, optimistic service floors) and the
  conservative deadline check (never dooms a request an idle system
  would have served in time);
* :mod:`repro.overload.controller` — AIMD admission on measured queue
  delay with deterministic per-priority-class credit accumulators;
* :mod:`repro.overload.brownout` — the compression brownout ladder
  (normal → cap compression → force lowest-θ → shed best-effort),
  walked one rung at a time by a PID-style controller on p99 queue
  delay, coordinated cluster-wide through the rebalancer.

The open-loop load harness lives in :mod:`repro.overload.bench`
(``repro bench overload``).
"""

from .brownout import BROWNOUT_LADDER, BrownoutController, BrownoutLevel
from .controller import (
    PRIORITY_CLASSES,
    PRIORITY_ORDER,
    AdmitRateController,
    normalize_priority,
)
from .signals import QueueDelaySignal

__all__ = [
    "QueueDelaySignal",
    "AdmitRateController",
    "PRIORITY_CLASSES",
    "PRIORITY_ORDER",
    "normalize_priority",
    "BrownoutController",
    "BrownoutLevel",
    "BROWNOUT_LADDER",
    "bench_overload",
]


def __getattr__(name: str):  # pragma: no cover - thin lazy import
    if name == "bench_overload":
        from .bench import bench_overload

        return bench_overload
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
