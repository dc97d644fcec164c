"""SLO targets and energy burn-rate monitoring.

Two complementary instruments for operating the scheduler as a service:

* :func:`evaluate` checks a telemetry snapshot against an
  :class:`SLOSpec` — p99 solve latency (from the
  ``span_duration_seconds`` histogram), a mean-accuracy floor and a
  deadline-miss-rate ceiling (from the planner / online-simulator
  counters) — and returns a pass/fail :class:`SLOReport` per objective;
* :class:`BurnRateMonitor` watches the *energy* budget the way SRE
  error-budget policies watch request budgets: the sustainable spend
  rate is ``B / horizon``, and the monitor alarms when the measured
  rate over a short window (**fast burn** — an incident; the budget
  dies in hours) or a long window (**slow burn** — a drift; it dies by
  end of horizon) exceeds its threshold multiple.

Both are pure functions of recorded data — no clocks are read here, so
replaying a journal through the monitor is deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..telemetry import MetricsRegistry
from ..utils.validation import check_positive, require

__all__ = [
    "SLOSpec",
    "SLOStatus",
    "SLOReport",
    "histogram_quantile",
    "evaluate",
    "BurnAlert",
    "BurnRateMonitor",
]

Snapshot = Dict[str, list]

#: (accuracy-sum counter, request-count counter) pairs understood by the
#: accuracy-floor objective; the first pair with traffic wins.
_ACCURACY_PAIRS = (
    ("planner_accuracy_total", "planner_requests_total"),
    ("online_sim_accuracy_total", "online_sim_requests_total"),
)

#: (on-time counter, request-count counter) pairs for the miss rate.
_ONTIME_PAIRS = (
    ("planner_on_time_total", "planner_requests_total"),
    ("online_sim_slo_met_total", "online_sim_requests_total"),
)


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives for the serving path.

    ``None`` disables an objective.  ``latency_span`` selects which span
    name's duration histogram the latency objective reads — the server's
    solve phase by default; use ``"planner.window.solve"`` for
    rolling-horizon runs, journaled or not.
    """

    p99_solve_latency: Optional[float] = None  # seconds
    accuracy_floor: Optional[float] = None  # mean accuracy in [0, 1]
    deadline_miss_rate: Optional[float] = None  # max fraction of misses
    #: Max p99 in-cluster queue sojourn (seconds) — reads the cluster
    #: front-end's ``frontend_queue_delay_seconds`` histogram, i.e. the
    #: quantity the overload controllers regulate.
    queue_delay_p99: Optional[float] = None
    latency_span: str = "server.solve"

    def __post_init__(self) -> None:
        if self.p99_solve_latency is not None:
            check_positive(self.p99_solve_latency, "p99_solve_latency")
        if self.accuracy_floor is not None:
            require(0.0 <= self.accuracy_floor <= 1.0, "accuracy_floor must lie in [0, 1]")
        if self.deadline_miss_rate is not None:
            require(0.0 <= self.deadline_miss_rate <= 1.0, "deadline_miss_rate must lie in [0, 1]")
        if self.queue_delay_p99 is not None:
            check_positive(self.queue_delay_p99, "queue_delay_p99")

    @property
    def empty(self) -> bool:
        return (
            self.p99_solve_latency is None
            and self.accuracy_floor is None
            and self.deadline_miss_rate is None
            and self.queue_delay_p99 is None
        )


@dataclass(frozen=True)
class SLOStatus:
    """Verdict for one objective.

    ``actual=None`` means the snapshot held no data for the objective;
    such objectives pass vacuously but are flagged in ``detail``.
    """

    objective: str  # "p99_solve_latency" | "accuracy_floor" | "deadline_miss_rate" | "queue_delay_p99"
    target: float
    actual: Optional[float]
    ok: bool
    detail: str


@dataclass(frozen=True)
class SLOReport:
    """Outcome of evaluating one snapshot against one spec."""

    statuses: Tuple[SLOStatus, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statuses)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "objectives": [
                {
                    "objective": s.objective,
                    "target": s.target,
                    "actual": s.actual,
                    "ok": s.ok,
                    "detail": s.detail,
                }
                for s in self.statuses
            ],
        }

    def summary(self) -> str:
        if not self.statuses:
            return "no SLO objectives configured"
        lines = []
        for s in self.statuses:
            mark = "OK " if s.ok else "FAIL"
            actual = "no data" if s.actual is None else f"{s.actual:.6g}"
            lines.append(f"[{mark}] {s.objective}: {actual} vs target {s.target:.6g} — {s.detail}")
        return "\n".join(lines)


# -- snapshot readers ---------------------------------------------------------------


def _snapshot(source: Union[MetricsRegistry, Snapshot]) -> Snapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


def _counter_sum(snap: Snapshot, name: str) -> float:
    return sum(
        float(m.get("value", 0.0))
        for m in snap.get("metrics", [])
        if m.get("kind") == "counter" and m.get("name") == name
    )


def _merged_histogram(
    snap: Snapshot, name: str, **label_filter: str
) -> Optional[Tuple[List[float], List[int]]]:
    """Merge matching histogram series into (bounds, per-bucket counts)."""
    bounds: Optional[List[float]] = None
    counts: Optional[List[int]] = None
    for m in snap.get("metrics", []):
        if m.get("kind") != "histogram" or m.get("name") != name:
            continue
        labels = m.get("labels") or {}
        if any(labels.get(k) != v for k, v in label_filter.items()):
            continue
        if bounds is None:
            bounds = list(m["buckets"])
            counts = list(m["bucket_counts"])
        elif list(m["buckets"]) == bounds:
            counts = [a + b for a, b in zip(counts, m["bucket_counts"])]
        # Series with different bucket bounds cannot be merged; skip them.
    if bounds is None or counts is None:
        return None
    return bounds, counts


def histogram_quantile(
    q: float, bounds: Sequence[float], bucket_counts: Sequence[int]
) -> float:
    """Estimate the ``q``-quantile from Prometheus-style buckets.

    ``bucket_counts`` are per-bucket (not cumulative) with the trailing
    +Inf slot, as in the registry snapshot.  Linear interpolation within
    the containing bucket, matching PromQL's ``histogram_quantile``;
    observations in the +Inf bucket clamp to the highest finite bound.
    Returns ``NaN`` on an empty histogram (no bounds, or every bucket
    count zero) — matching PromQL, where a quantile over no observations
    is not a number rather than a silent fall-through value.
    """
    require(0.0 <= q <= 1.0, f"quantile must lie in [0, 1], got {q}")
    if not bounds:
        return float("nan")
    total = sum(bucket_counts)
    if total == 0:
        return float("nan")
    rank = q * total
    cumulative = 0.0
    for k, count in enumerate(bucket_counts):
        if count == 0:
            continue
        if cumulative + count >= rank:
            upper = bounds[k] if k < len(bounds) else bounds[-1]
            if k >= len(bounds):  # +Inf bucket: clamp
                return float(bounds[-1])
            lower = bounds[k - 1] if k > 0 else 0.0
            frac = (rank - cumulative) / count
            return float(lower + frac * (upper - lower))
        cumulative += count
    return float(bounds[-1])


def evaluate(source: Union[MetricsRegistry, Snapshot], spec: SLOSpec) -> SLOReport:
    """Check a metrics snapshot against the spec, objective by objective."""
    snap = _snapshot(source)
    statuses: List[SLOStatus] = []

    if spec.p99_solve_latency is not None:
        merged = _merged_histogram(snap, "span_duration_seconds", span=spec.latency_span)
        actual = None
        if merged is not None:
            actual = histogram_quantile(0.99, merged[0], merged[1])
            if math.isnan(actual):
                actual = None  # empty histogram: no data, pass vacuously
        ok = actual is None or actual <= spec.p99_solve_latency
        detail = (
            f"no span_duration_seconds{{span={spec.latency_span!r}}} observations"
            if actual is None
            else f"p99 over {sum(merged[1])} solve(s)"
        )
        statuses.append(
            SLOStatus("p99_solve_latency", spec.p99_solve_latency, actual, ok, detail)
        )

    if spec.accuracy_floor is not None:
        actual = None
        detail = "no accuracy counters recorded"
        for acc_name, count_name in _ACCURACY_PAIRS:
            count = _counter_sum(snap, count_name)
            acc_sum = _counter_sum(snap, acc_name)
            if count > 0 and acc_sum > 0:
                actual = acc_sum / count
                detail = f"mean of {acc_name} over {count:g} request(s)"
                break
        ok = actual is None or actual >= spec.accuracy_floor
        statuses.append(SLOStatus("accuracy_floor", spec.accuracy_floor, actual, ok, detail))

    if spec.queue_delay_p99 is not None:
        merged = _merged_histogram(snap, "frontend_queue_delay_seconds")
        actual = None
        if merged is not None:
            actual = histogram_quantile(0.99, merged[0], merged[1])
            if math.isnan(actual):
                actual = None  # empty histogram: no data, pass vacuously
        ok = actual is None or actual <= spec.queue_delay_p99
        detail = (
            "no frontend_queue_delay_seconds observations"
            if actual is None
            else f"p99 sojourn over {sum(merged[1])} settled request(s), all shards"
        )
        statuses.append(SLOStatus("queue_delay_p99", spec.queue_delay_p99, actual, ok, detail))

    if spec.deadline_miss_rate is not None:
        actual = None
        detail = "no on-time counters recorded"
        for ontime_name, count_name in _ONTIME_PAIRS:
            count = _counter_sum(snap, count_name)
            if count > 0:
                actual = max(0.0, 1.0 - _counter_sum(snap, ontime_name) / count)
                detail = f"miss rate from {ontime_name} over {count:g} request(s)"
                break
        ok = actual is None or actual <= spec.deadline_miss_rate
        statuses.append(
            SLOStatus("deadline_miss_rate", spec.deadline_miss_rate, actual, ok, detail)
        )

    return SLOReport(tuple(statuses))


# -- energy burn rate ---------------------------------------------------------------


@dataclass(frozen=True)
class BurnAlert:
    """One burn-rate alert firing."""

    severity: str  # "fast" | "slow"
    at: float  # stream time the alert fired
    burn_rate: float  # multiples of the sustainable rate
    window: float  # seconds the rate was measured over
    threshold: float

    def __str__(self) -> str:
        return (
            f"{self.severity}-burn at t={self.at:g}s: spending {self.burn_rate:.2f}× the "
            f"sustainable rate over the last {self.window:g}s (threshold {self.threshold:g}×)"
        )


@dataclass
class BurnRateMonitor:
    """Multi-window burn-rate alerts over an energy budget.

    The sustainable rate is ``budget / horizon`` — the constant draw
    that lands spend exactly on budget at end of horizon.  Feed the
    monitor ``observe(t, cumulative_energy)`` samples (e.g. the online
    simulator's ledger after each window) and it measures the spend
    rate over a **fast** window (default ``horizon / 20``) and a
    **slow** window (default ``horizon / 4``):

    * fast burn ≥ ``fast_threshold`` (default 2×) — page-worthy: the
      budget empties in well under half the remaining horizon;
    * slow burn ≥ ``slow_threshold`` (default 1.2×) — ticket-worthy:
      a sustained drift that exhausts the budget before the horizon.

    Alerts latch per severity (one :class:`BurnAlert` each, kept in
    ``alerts``); ``burn_rate(window)`` and ``status()`` expose the raw
    numbers.  Early samples use the elapsed time when it is shorter
    than the window, so a budget blown in the first seconds still fires.
    """

    budget: float
    horizon: float
    fast_window: Optional[float] = None
    slow_window: Optional[float] = None
    fast_threshold: float = 2.0
    slow_threshold: float = 1.2
    start_time: float = 0.0
    start_energy: float = 0.0
    alerts: List[BurnAlert] = field(default_factory=list)
    _times: List[float] = field(default_factory=list, repr=False)
    _cums: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        check_positive(self.budget, "budget")
        check_positive(self.horizon, "horizon")
        if self.fast_window is None:
            self.fast_window = self.horizon / 20.0
        if self.slow_window is None:
            self.slow_window = self.horizon / 4.0
        check_positive(self.fast_window, "fast_window")
        check_positive(self.slow_window, "slow_window")
        check_positive(self.fast_threshold, "fast_threshold")
        check_positive(self.slow_threshold, "slow_threshold")
        self._times.append(float(self.start_time))
        self._cums.append(float(self.start_energy))

    # -- sampling --------------------------------------------------------------

    @property
    def sustainable_rate(self) -> float:
        """Watts that spend exactly the budget over the horizon."""
        return self.budget / self.horizon

    def observe(self, t: float, cumulative_energy: float) -> List[BurnAlert]:
        """Record a (time, cumulative spend) sample; returns alerts fired now."""
        t = float(t)
        cum = float(cumulative_energy)
        require(t >= self._times[-1], f"time went backwards: {t} < {self._times[-1]}")
        require(
            cum >= self._cums[-1] - 1e-9,
            f"cumulative energy decreased: {cum} < {self._cums[-1]}",
        )
        if t == self._times[-1]:
            self._cums[-1] = max(self._cums[-1], cum)
        else:
            self._times.append(t)
            self._cums.append(cum)
        fired: List[BurnAlert] = []
        for severity, window, threshold in (
            ("fast", self.fast_window, self.fast_threshold),
            ("slow", self.slow_window, self.slow_threshold),
        ):
            if any(a.severity == severity for a in self.alerts):
                continue  # latched
            burn = self.burn_rate(window, at=t)
            if burn >= threshold:
                alert = BurnAlert(severity, t, burn, window, threshold)
                self.alerts.append(alert)
                fired.append(alert)
        return fired

    def _cum_at(self, t: float) -> float:
        """Cumulative spend at ``t``, linear between samples (spend accrues
        across the interval a sample closes, not at its instant)."""
        if t <= self._times[0]:
            return self._cums[0]
        k = bisect_right(self._times, t) - 1
        if k + 1 >= len(self._times):
            return self._cums[k]
        t0, t1 = self._times[k], self._times[k + 1]
        return self._cums[k] + (self._cums[k + 1] - self._cums[k]) * (t - t0) / (t1 - t0)

    def burn_rate(self, window: float, *, at: Optional[float] = None) -> float:
        """Spend rate over the trailing ``window``, in sustainable-rate units.

        ``at`` defaults to the latest sample.  When less than ``window``
        has elapsed since ``start_time``, the elapsed span is used.
        """
        check_positive(window, "window")
        t = self._times[-1] if at is None else float(at)
        span = min(window, t - self.start_time)
        if span <= 0.0:
            return 0.0
        spent = self._cum_at(t) - self._cum_at(t - span)
        return (spent / span) / self.sustainable_rate

    # -- reporting -------------------------------------------------------------

    @property
    def spent(self) -> float:
        return self._cums[-1]

    @property
    def spent_fraction(self) -> float:
        return self.spent / self.budget

    def status(self) -> dict:
        """JSON-ready snapshot of the monitor (what ``/slo`` serves)."""
        t = self._times[-1]
        return {
            "budget": self.budget,
            "horizon": self.horizon,
            "spent": self.spent,
            "spent_fraction": self.spent_fraction,
            "sustainable_rate": self.sustainable_rate,
            "fast": {
                "window": self.fast_window,
                "threshold": self.fast_threshold,
                "burn_rate": self.burn_rate(self.fast_window, at=t),
            },
            "slow": {
                "window": self.slow_window,
                "threshold": self.slow_threshold,
                "burn_rate": self.burn_rate(self.slow_window, at=t),
            },
            "alerts": [
                {
                    "severity": a.severity,
                    "at": a.at,
                    "burn_rate": a.burn_rate,
                    "window": a.window,
                    "threshold": a.threshold,
                }
                for a in self.alerts
            ],
        }

    @property
    def exhausted(self) -> bool:
        """Whether cumulative spend has reached the budget."""
        return self.spent >= self.budget * (1.0 - 1e-12)

    def projected_exhaustion(self) -> Optional[float]:
        """Stream time at which the budget runs out at the slow-window rate.

        ``None`` when the current rate never exhausts it (or no spend yet).
        """
        rate = self.burn_rate(self.slow_window) * self.sustainable_rate
        if rate <= 0.0:
            return None
        remaining = self.budget - self.spent
        if remaining <= 0.0:
            return self._times[-1]
        return self._times[-1] + remaining / rate

    def __repr__(self) -> str:
        return (
            f"BurnRateMonitor(spent={self.spent:.4g}/{self.budget:.4g} J, "
            f"fast={self.burn_rate(self.fast_window):.2f}x, "
            f"slow={self.burn_rate(self.slow_window):.2f}x, "
            f"alerts={len(self.alerts)})"
        )
