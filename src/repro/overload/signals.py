"""Live load signals: per-shard solve-queue sojourn statistics.

Every overload decision in this package — adaptive admission, deadline
shedding, the brownout ladder — is a function of *measured queue delay*,
not of static thresholds.  :class:`QueueDelaySignal` is the one place
those measurements live: the front-end records each request's **sojourn
time** (submit → settled result) and each window's **service time**
(worker solve seconds per request), and the signal maintains

* an EWMA of sojourn time (the smoothed delay ``/health`` reports),
* a sliding-window p99 of sojourn time (the tail the brownout
  controller regulates),
* sliding-window *floors* (minimum sojourn and minimum service time) —
  the optimistic estimates that make shedding conservative:
  :meth:`QueueDelaySignal.doomed` declares a request doomed only against
  the **best** case the shard has recently demonstrated, never against a
  congested average.

The windows are fixed-size ring buffers (bounded by construction — the
data plane must never grow a queue without a cap, see lint rule RL014)
and additionally **time-bounded**: samples older than
``max_age_seconds`` are ignored by every reader.  Without the age bound
a storm's sojourns would dominate the p99 long after the storm passed
and pin the brownout controller at its highest rung — the signal must
decay as fast as the queue it describes.  The clock is injectable so
every consumer is testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..utils.validation import check_positive

__all__ = ["QueueDelaySignal"]

#: Weight of the newest sojourn in the smoothed sojourn delay.
_EWMA_ALPHA = 0.2
#: Samples each ring window holds (the age bound usually bites first).
_WINDOW = 256


def _quantile(values: List[float], q: float) -> Optional[float]:
    """The q-quantile of ``values`` (nearest rank), ``None`` when empty."""
    if not values:
        return None
    values = sorted(values)
    return values[min(int(q * len(values)), len(values) - 1)]


class QueueDelaySignal:
    """Thread-safe sojourn/service statistics for one shard's solve queue.

    ``observe_sojourn`` takes the full in-cluster latency of one settled
    request (front-end queueing + worker queueing + solve);
    ``observe_service`` takes the pure solve time per request.  Queue
    delay is their difference in expectation, but the controllers mostly
    consume the sojourn directly — it is what the client experiences and
    what a deadline is spent against.
    """

    def __init__(
        self,
        *,
        max_age_seconds: float = 3.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_positive(max_age_seconds, "max_age_seconds")
        self.max_age_seconds = float(max_age_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        # (timestamp, value) rings; readers skip samples past max_age.
        self._sojourns: Deque[Tuple[float, float]] = deque(maxlen=_WINDOW)
        self._services: Deque[Tuple[float, float]] = deque(maxlen=_WINDOW)
        self._sojourn_ewma: Optional[float] = None
        self._samples = 0

    # -- recording ---------------------------------------------------------------

    def observe_sojourn(self, seconds: float) -> None:
        value = max(float(seconds), 0.0)
        if not math.isfinite(value):
            return
        now = self._clock()
        with self._lock:
            self._samples += 1
            self._sojourns.append((now, value))
            if self._sojourn_ewma is None:
                self._sojourn_ewma = value
            else:
                self._sojourn_ewma = _EWMA_ALPHA * value + (1.0 - _EWMA_ALPHA) * self._sojourn_ewma

    def observe_service(self, seconds: float) -> None:
        value = max(float(seconds), 0.0)
        if not math.isfinite(value):
            return
        now = self._clock()
        with self._lock:
            self._services.append((now, value))

    # -- reading -----------------------------------------------------------------

    def _fresh(self, samples: Deque[Tuple[float, float]], now: float) -> List[float]:
        """Values of the samples at most ``max_age_seconds`` old (lock held)."""
        cutoff = now - self.max_age_seconds
        return [value for at, value in samples if at >= cutoff]

    @property
    def samples(self) -> int:
        with self._lock:
            return self._samples

    @property
    def sojourn_ewma(self) -> Optional[float]:
        """Smoothed sojourn time (None until the first sample)."""
        with self._lock:
            return self._sojourn_ewma

    def sojourn_p99(self) -> Optional[float]:
        now = self._clock()
        with self._lock:
            return _quantile(self._fresh(self._sojourns, now), 0.99)

    def sojourn_floor(self) -> Optional[float]:
        """The best recently-demonstrated sojourn (optimistic queueing)."""
        now = self._clock()
        with self._lock:
            return min(self._fresh(self._sojourns, now), default=None)

    def service_floor(self) -> Optional[float]:
        """The best recently-demonstrated per-request solve time."""
        now = self._clock()
        with self._lock:
            return min(self._fresh(self._services, now), default=None)

    def doomed(self, remaining_seconds: Optional[float]) -> bool:
        """Is a request with this much deadline left *certain* to miss it?

        True only when the deadline has run out or the time left is below
        the service floor.  With no service samples yet only past-deadline
        requests are doomed.  The test is one-sided on purpose: a request
        an *idle* shard could still serve in time is never doomed.
        """
        if remaining_seconds is None:
            return False
        if remaining_seconds <= 0.0:
            return True
        floor = self.service_floor()
        return floor is not None and remaining_seconds < floor

    def service_mean(self) -> Optional[float]:
        now = self._clock()
        with self._lock:
            values = self._fresh(self._services, now)
        return sum(values) / len(values) if values else None

    def snapshot(self) -> Dict[str, Any]:
        now = self._clock()
        with self._lock:
            sojourns = self._fresh(self._sojourns, now)
            services = self._fresh(self._services, now)
            samples, ewma = self._samples, self._sojourn_ewma
        return {
            "samples": samples,
            "sojourn_ewma": ewma,
            "sojourn_p99": _quantile(sojourns, 0.99),
            "sojourn_floor": min(sojourns, default=None),
            "service_floor": min(services, default=None),
            "service_mean": sum(services) / len(services) if services else None,
        }

    def __repr__(self) -> str:
        return f"QueueDelaySignal(samples={self.samples}, ewma={self.sojourn_ewma})"
