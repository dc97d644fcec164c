"""repro.overload — adaptive overload control for the cluster.

Closed-loop overload management built from two cooperating pieces:

* :mod:`repro.overload.signals` — per-shard queue-delay measurement
  (sojourn statistics, optimistic service floors) and the conservative
  deadline check (never dooms a request an idle system would have
  served in time);
* :mod:`repro.overload.controller` — AIMD admission on measured queue
  delay with deterministic per-priority-class credit accumulators; the
  class exponents shed best-effort traffic first.

The open-loop load harness lives in :mod:`repro.overload.bench`
(``repro bench overload``).
"""

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
    "bench_overload",
]


def __getattr__(name: str):  # pragma: no cover - thin lazy import
    if name == "bench_overload":
        from .bench import bench_overload

        return bench_overload
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
