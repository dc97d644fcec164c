"""Closed-loop admission: AIMD on queue delay, by priority class.

:class:`AdmitRateController` is a pure function of an injected clock and
the sojourn delays it is fed — no RNG, no wall-clock reads, so every
decision is reproducible under a seeded arrival trace.  It is
CoDel-flavoured: while the *minimum* sojourn delay per
``interval_seconds`` stays below ``target_delay_seconds`` every request
is admitted at full rate; once
even the interval minimum exceeds the target — every request of the
interval queued too long — the admit rate is cut multiplicatively (once
per interval, not per request: AIMD needs the queue to react before it
cuts again) and recovers additively (multiplicatively while clearly
healthy) once the queue drains.  The rate is enforced by
**deterministic per-class credit accumulators**: each class accrues
``rate ** priority_exponent`` credit per arrival and a request is
admitted when its class holds ≥ 1 credit.  Interactive traffic has the
smallest exponent so it sheds last; best-effort the largest so it sheds
first.  Over N arrivals the admitted fraction converges to exactly the
rate — no sampling noise.

Deadline shedding needs no controller of its own: it is
:meth:`~repro.overload.signals.QueueDelaySignal.doomed`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional

from ..utils.validation import check_positive, require

__all__ = [
    "PRIORITY_CLASSES",
    "PRIORITY_ORDER",
    "normalize_priority",
    "AdmitRateController",
]

#: Priority classes in shed order: best_effort sheds first, interactive last.
PRIORITY_CLASSES = ("interactive", "standard", "best_effort")

#: class name -> rank (0 = most protected).
PRIORITY_ORDER: Dict[str, int] = {name: rank for rank, name in enumerate(PRIORITY_CLASSES)}

#: class name -> exponent applied to the admit rate: effective admit
#: fraction for a class is ``rate ** exponent``, so higher exponents bite
#: harder as rate drops below 1.
_PRIORITY_EXPONENTS: Dict[str, float] = {
    "interactive": 0.5,
    "standard": 1.0,
    "best_effort": 2.0,
}


def normalize_priority(value: Optional[str]) -> str:
    """Map a request-supplied priority to a known class (default standard)."""
    if value in PRIORITY_ORDER:
        assert value is not None
        return value
    return "standard"


class AdmitRateController:
    """AIMD admit-rate controller driven by measured queue sojourn delay.

    ``observe(delay)`` feeds settled-request sojourns; ``admit(class)``
    answers whether the next arrival of that class gets in.  Thread-safe.
    """

    def __init__(
        self,
        *,
        target_delay_seconds: float = 0.5,
        interval_seconds: float = 0.25,
        decrease_factor: float = 0.7,
        increase_step: float = 0.1,
        min_rate: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_positive(target_delay_seconds, "target_delay_seconds")
        check_positive(interval_seconds, "interval_seconds")
        require(0.0 < decrease_factor < 1.0, f"decrease_factor must lie in (0, 1), got {decrease_factor}")
        check_positive(increase_step, "increase_step")
        require(0.0 < min_rate <= 1.0, f"min_rate must lie in (0, 1], got {min_rate}")
        self.target_delay_seconds = float(target_delay_seconds)
        self.interval_seconds = float(interval_seconds)
        self.decrease_factor = float(decrease_factor)
        self.increase_step = float(increase_step)
        self.min_rate = float(min_rate)
        self._clock = clock
        self._lock = threading.Lock()
        self._rate = 1.0
        self._last_adjust = clock()
        self._last_delay: Optional[float] = None
        self._interval_min: Optional[float] = None
        self._credits: Dict[str, float] = {name: 1.0 for name in PRIORITY_CLASSES}
        self._decreases = 0
        self._increases = 0

    # -- feedback ----------------------------------------------------------------

    def observe(self, delay_seconds: float) -> None:
        """Feed one settled request's sojourn delay; may adjust the rate.

        CoDel semantics: the controller tracks the **minimum** sojourn
        over each ``interval_seconds`` window and cuts only when even
        that minimum exceeded the target — i.e. when every request of
        the interval queued too long.  Judging by the minimum (not each
        raw sample) means stale backlog settling *after* a storm cannot
        keep the rate pinned down: one fresh request served quickly is
        proof the queue has drained.  Recovery is additive while
        healthy and multiplicative while *clearly* healthy (minimum
        below half the target), so the rate reopens in a couple of
        seconds instead of tens of intervals.
        """
        now = self._clock()
        with self._lock:
            self._last_delay = float(delay_seconds)
            if self._interval_min is None or delay_seconds < self._interval_min:
                self._interval_min = float(delay_seconds)
            if now - self._last_adjust < self.interval_seconds:
                return
            self._last_adjust = now
            interval_min = self._interval_min
            self._interval_min = None
            if interval_min > self.target_delay_seconds:
                self._rate = max(self._rate * self.decrease_factor, self.min_rate)
                self._decreases += 1
            elif self._rate < 1.0:
                grown = self._rate + self.increase_step
                if interval_min < 0.5 * self.target_delay_seconds:
                    grown = max(grown, self._rate * 1.5)
                self._rate = min(grown, 1.0)
                self._increases += 1

    # -- admission ---------------------------------------------------------------

    def admit(self, priority: Optional[str] = None) -> bool:
        """Whether the next arrival of this class is admitted.

        Deterministic: each class accrues ``rate ** exponent`` credit
        per arrival and spends 1.0 credit per admission, so the admitted
        fraction over any run of arrivals equals the effective rate
        exactly.
        """
        cls = normalize_priority(priority)
        exponent = _PRIORITY_EXPONENTS[cls]
        with self._lock:
            if self._rate >= 1.0:
                self._credits[cls] = 1.0
                return True
            effective = self._rate**exponent
            credit = self._credits[cls] + effective
            if credit >= 1.0:
                self._credits[cls] = credit - 1.0
                return True
            self._credits[cls] = credit
            return False

    # -- introspection -----------------------------------------------------------

    @property
    def rate(self) -> float:
        with self._lock:
            return self._rate

    def effective_rate(self, priority: Optional[str] = None) -> float:
        cls = normalize_priority(priority)
        with self._lock:
            return min(self._rate ** _PRIORITY_EXPONENTS[cls], 1.0)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rate": self._rate,
                "last_delay": self._last_delay,
                "target_delay_seconds": self.target_delay_seconds,
                "decreases": self._decreases,
                "increases": self._increases,
                "effective_rates": {
                    name: min(self._rate**exp, 1.0) for name, exp in _PRIORITY_EXPONENTS.items()
                },
            }
