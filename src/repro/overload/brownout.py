"""Compression brownout: degrade accuracy before availability.

The paper's tasks are *compressible* — each can run at a lower
compression level θ for less energy and less accuracy.  That gives an
overloaded cluster a response static admission control lacks: instead of
rejecting requests outright, serve everyone at reduced accuracy.  The
ladder has four levels, each strictly stronger than the last:

====  ==================  ===========================================
lvl   name                effect on dispatched work
====  ==================  ===========================================
0     ``normal``          none
1     ``cap_compression``  cap each task's work at 60% of its top level
2     ``force_lowest``     force every task to its lowest-θ variant
3     ``shed_best_effort`` level 2 + reject the best-effort class
====  ==================  ===========================================

Level transitions are decided by :class:`BrownoutController`, a
PID-style controller on the normalized p99 queue-delay error
``e = p99/target − 1``: the proportional term reacts to the current
tail, the (clamped) integral accumulates sustained overload, and the
derivative damps oscillation.  Pressure ≥ 1 escalates one level,
pressure ≤ 0 de-escalates one level — transitions are **single-step and
dwell-limited** (a level is held for at least ``min_dwell_seconds``) so
the cluster walks the ladder monotonically instead of thrashing between
extremes, and the whole cluster moves together because the front-end
runs one controller and stamps the level into every dispatched window.

Every transition is journaled by the owner (the cluster front-end) and
exported as ``overload_level`` / ``brownout_transitions_total``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..telemetry import get_collector
from ..utils.validation import check_positive

__all__ = ["BrownoutLevel", "BROWNOUT_LADDER", "BrownoutController"]

#: PID gains on the normalized error, and the bound on the integral term.
KP = 0.8
KI = 0.3
KD = 0.2
INTEGRAL_CLAMP = 3.0


@dataclass(frozen=True)
class BrownoutLevel:
    """One rung of the brownout ladder."""

    level: int
    name: str
    #: Fraction of each task's maximum work dispatched work is capped at
    #: (1.0 = no cap; the worker applies it via the degradation policy).
    work_cap_scale: float
    #: Force every task to its lowest compression level.
    force_lowest: bool = False
    #: Reject the best-effort priority class at admission.
    shed_best_effort: bool = False


#: The ladder, weakest to strongest.  Index == level.
BROWNOUT_LADDER: Tuple[BrownoutLevel, ...] = (
    BrownoutLevel(level=0, name="normal", work_cap_scale=1.0),
    BrownoutLevel(level=1, name="cap_compression", work_cap_scale=0.6),
    BrownoutLevel(level=2, name="force_lowest", work_cap_scale=0.35, force_lowest=True),
    BrownoutLevel(
        level=3,
        name="shed_best_effort",
        work_cap_scale=0.35,
        force_lowest=True,
        shed_best_effort=True,
    ),
)


class BrownoutController:
    """PID-style controller walking the brownout ladder one rung at a time.

    Call :meth:`update` periodically (the cluster rebalancer does, so
    all shards see one coordinated level) with the current cluster-wide
    p99 queue delay; read :attr:`level` anywhere.  ``on_transition`` is
    invoked (outside the lock) with ``(old_level, new_level, p99)`` on
    every change — the front-end uses it to journal transitions.
    """

    def __init__(
        self,
        *,
        target_p99_seconds: float = 1.0,
        min_dwell_seconds: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[int, int, float], None]] = None,
    ):
        check_positive(target_p99_seconds, "target_p99_seconds")
        check_positive(min_dwell_seconds, "min_dwell_seconds")
        self.target_p99_seconds = float(target_p99_seconds)
        self.min_dwell_seconds = float(min_dwell_seconds)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._level = 0
        self._integral = 0.0
        self._last_error: Optional[float] = None
        self._last_update: Optional[float] = None
        self._last_transition = clock()
        self._transitions: List[Dict[str, Any]] = []
        get_collector().gauge("overload_level").set(0)

    # -- reading -----------------------------------------------------------------

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def current(self) -> BrownoutLevel:
        return BROWNOUT_LADDER[self.level]

    def transitions(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._transitions)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            rung = BROWNOUT_LADDER[self._level]
            return {
                "level": self._level,
                "name": rung.name,
                "work_cap_scale": rung.work_cap_scale,
                "force_lowest": rung.force_lowest,
                "shed_best_effort": rung.shed_best_effort,
                "integral": self._integral,
                "last_error": self._last_error,
                "target_p99_seconds": self.target_p99_seconds,
                "transitions": len(self._transitions),
            }

    # -- control loop ------------------------------------------------------------

    def update(self, p99_seconds: Optional[float]) -> int:
        """Feed the current cluster-wide p99 queue delay; returns the level.

        ``None`` (no samples yet) reads as zero load and relaxes the
        controller toward level 0.
        """
        now = self._clock()
        p99 = max(float(p99_seconds), 0.0) if p99_seconds is not None else 0.0
        transition: Optional[Tuple[int, int]] = None
        with self._lock:
            error = p99 / self.target_p99_seconds - 1.0
            dt = (now - self._last_update) if self._last_update is not None else 0.0
            self._last_update = now
            self._integral += error * dt
            self._integral = max(min(self._integral, INTEGRAL_CLAMP), -INTEGRAL_CLAMP)
            derivative = 0.0
            if self._last_error is not None and dt > 0.0:
                derivative = (error - self._last_error) / dt
            self._last_error = error
            pressure = KP * error + KI * self._integral + KD * derivative

            dwelled = now - self._last_transition >= self.min_dwell_seconds
            new_level = self._level
            if pressure >= 1.0 and self._level < len(BROWNOUT_LADDER) - 1 and dwelled:
                new_level = self._level + 1  # single step, never a skip
                # Escalating resets the integral: the new rung must prove
                # itself insufficient before the controller climbs again.
                self._integral = 0.0
            elif pressure <= 0.0 and self._level > 0 and dwelled:
                new_level = self._level - 1
                self._integral = 0.0
            if new_level != self._level:
                transition = (self._level, new_level)
                self._level = new_level
                self._last_transition = now
                self._transitions.append(
                    {"at": now, "from": transition[0], "to": new_level, "p99": p99}
                )
            level = self._level
        tele = get_collector()
        tele.gauge("overload_level").set(level)
        if transition is not None:
            direction = "up" if transition[1] > transition[0] else "down"
            tele.counter("brownout_transitions_total", direction=direction).inc()
            if self._on_transition is not None:
                self._on_transition(transition[0], transition[1], p99)
        return level
