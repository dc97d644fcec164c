"""Server-side admission control: bounded concurrency and a circuit breaker.

The HTTP scheduling service must protect itself the way any serving tier
does:

* **bounded in-flight solves** — each ``/solve`` takes a slot from a
  fixed pool; with the pool exhausted the request is rejected up front
  (HTTP 503 + ``Retry-After``) instead of queueing unboundedly behind
  slow solves;
* a **circuit breaker** — consecutive solver failures (timeouts,
  exhausted fallback chains, backend errors) trip the breaker *open*;
  while open, requests are rejected immediately without touching the
  solvers.  After ``reset_seconds`` one probe request is let through
  (*half-open*): success closes the breaker, failure re-opens it.

:class:`AdmissionController` bundles both; the server calls
:meth:`~AdmissionController.try_begin` before solving and
:meth:`~AdmissionController.finish` after.  The clock is injectable so
breaker timing is testable without sleeping.

Threading model
---------------

Both classes are called concurrently from the HTTP server's handler
threads (``ThreadingHTTPServer``).  Each protects its own state with a
single internal lock; no method holds both locks at once, so there is no
lock-ordering hazard between controller and breaker.  The admission
protocol is strict: an *admitted* ``try_begin`` must be paired with
exactly one ``finish``; a *rejected* one must not call ``finish``.  The
one cross-object subtlety is the half-open probe: ``try_begin`` may
consume the breaker's single probe slot via :meth:`CircuitBreaker.allow`
and then reject on capacity — it must hand the probe back
(:meth:`CircuitBreaker.cancel_probe`), otherwise no request would ever
reach a solver again and the breaker could never close.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..telemetry import get_collector
from ..utils.validation import check_positive, require

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "AdmissionDecision",
    "AdmissionController",
]


class BreakerState:
    """Breaker state names (plain strings, compared by identity)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a reset probe.

    Thread-safe; ``clock`` defaults to :func:`time.monotonic` and is
    injectable for tests.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        require(failure_threshold >= 1, f"failure_threshold must be >= 1, got {failure_threshold}")
        check_positive(reset_seconds, "reset_seconds")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False

    @property
    def state(self) -> str:
        """Current state, with open → half-open promotion applied."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == BreakerState.OPEN and self._clock() - self._opened_at >= self.reset_seconds:
            self._state = BreakerState.HALF_OPEN
            self._probe_outstanding = False
        return self._state

    def allow(self) -> bool:
        """Whether a request may proceed right now.

        In half-open state only the first caller gets through (the
        probe); further callers are rejected until the probe's verdict
        arrives via :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            state = self._state_locked()
            if state == BreakerState.CLOSED:
                return True
            if state == BreakerState.HALF_OPEN and not self._probe_outstanding:
                self._probe_outstanding = True
                return True
            return False

    def cancel_probe(self) -> None:
        """Return an unused half-open probe.

        For callers that took the probe via :meth:`allow` but then
        rejected the request downstream (e.g. on capacity) without ever
        running it: the probe produced no verdict, so the next request
        must be allowed to try again.
        """
        with self._lock:
            if self._state == BreakerState.HALF_OPEN:
                self._probe_outstanding = False

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._state = BreakerState.CLOSED
            self._probe_outstanding = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            was_probing = self._state != BreakerState.CLOSED
            if was_probing or self._consecutive_failures >= self.failure_threshold:
                self._state = BreakerState.OPEN
                self._opened_at = self._clock()
                self._probe_outstanding = False
                get_collector().counter("breaker_opened_total").inc()

    def retry_after(self) -> float:
        """Seconds until the next probe would be admitted (>= 0)."""
        with self._lock:
            if self._state != BreakerState.OPEN:
                return 0.0
            return max(self.reset_seconds - (self._clock() - self._opened_at), 0.0)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = "ok"  #: "ok" | "capacity" | "breaker_open"
    retry_after_seconds: float = 0.0


class AdmissionController:
    """Bounded in-flight solves plus a circuit breaker, for the server."""

    def __init__(
        self,
        *,
        max_in_flight: int = 8,
        breaker: Optional[CircuitBreaker] = None,
        retry_after_seconds: float = 1.0,
    ):
        require(max_in_flight >= 1, f"max_in_flight must be >= 1, got {max_in_flight}")
        check_positive(retry_after_seconds, "retry_after_seconds")
        self.max_in_flight = int(max_in_flight)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retry_after_seconds = float(retry_after_seconds)
        self._lock = threading.Lock()
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def try_begin(self) -> AdmissionDecision:
        """Claim a solve slot; a rejected request must NOT call finish()."""
        tele = get_collector()
        if not self.breaker.allow():
            tele.counter("admission_rejected_total", reason="breaker_open").inc()
            return AdmissionDecision(
                admitted=False,
                reason="breaker_open",
                retry_after_seconds=max(math.ceil(self.breaker.retry_after()), 1),
            )
        with self._lock:
            if self._in_flight >= self.max_in_flight:
                rejected = True
            else:
                rejected = False
                self._in_flight += 1
                tele.gauge("server_in_flight_solves").set(self._in_flight)
        if rejected:
            # allow() may have consumed the half-open probe; this request
            # never ran, so hand the probe back or the breaker jams.
            self.breaker.cancel_probe()
            tele.counter("admission_rejected_total", reason="capacity").inc()
            return AdmissionDecision(
                admitted=False,
                reason="capacity",
                retry_after_seconds=self.retry_after_seconds,
            )
        return AdmissionDecision(admitted=True)

    def finish(self, *, failure: bool = False) -> None:
        """Release the slot claimed by a successful try_begin()."""
        with self._lock:
            self._in_flight = max(self._in_flight - 1, 0)
            get_collector().gauge("server_in_flight_solves").set(self._in_flight)
        if failure:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
