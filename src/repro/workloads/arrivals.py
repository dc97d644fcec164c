"""Request arrival processes for the online-serving example.

The paper schedules a static batch of tasks; real MLaaS front-ends see a
*stream* of requests.  The online example replans with DSCT-EA-APPROX on
a rolling window, and this module provides the arrival substrates:

* :class:`PoissonArrivals` — homogeneous Poisson process;
* :class:`MMPPArrivals` — a 2-state Markov-modulated Poisson process
  (bursty traffic, the standard MLaaS load model).

Each arrival is a :class:`Request` carrying a relative latency SLO
(deadline offset) and a task-efficiency θ drawn from a configurable
range.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple


from ..utils.rng import SeedLike, ensure_rng
from ..utils.validation import check_positive, require

__all__ = ["Request", "PoissonArrivals", "MMPPArrivals", "window_batches"]


@dataclass(frozen=True)
class Request:
    """One inference request in the online stream."""

    arrival_time: float
    slo_seconds: float  # relative deadline (deadline = arrival + slo)
    theta_per_tflop: float

    @property
    def deadline(self) -> float:
        return self.arrival_time + self.slo_seconds


class PoissonArrivals:
    """Homogeneous Poisson arrivals with i.i.d. SLOs and efficiencies."""

    def __init__(
        self,
        rate_per_second: float,
        *,
        slo_range: Tuple[float, float] = (0.5, 2.0),
        theta_range: Tuple[float, float] = (0.1, 1.0),
        seed: SeedLike = None,
    ):
        check_positive(rate_per_second, "rate_per_second")
        require(0 < slo_range[0] <= slo_range[1], "slo_range must be positive and ordered")
        require(0 < theta_range[0] <= theta_range[1], "theta_range must be positive and ordered")
        self.rate = float(rate_per_second)
        self.slo_range = slo_range
        self.theta_range = theta_range
        self._rng = ensure_rng(seed)

    def generate(self, horizon_seconds: float) -> List[Request]:
        """All requests arriving in ``[0, horizon_seconds)``."""
        check_positive(horizon_seconds, "horizon_seconds")
        out: List[Request] = []
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / self.rate))
            if t >= horizon_seconds:
                return out
            out.append(
                Request(
                    arrival_time=t,
                    slo_seconds=float(self._rng.uniform(*self.slo_range)),
                    theta_per_tflop=float(self._rng.uniform(*self.theta_range)),
                )
            )


class MMPPArrivals:
    """2-state Markov-modulated Poisson process (calm / burst phases)."""

    def __init__(
        self,
        calm_rate: float,
        burst_rate: float,
        *,
        mean_phase_seconds: float = 10.0,
        slo_range: Tuple[float, float] = (0.5, 2.0),
        theta_range: Tuple[float, float] = (0.1, 1.0),
        seed: SeedLike = None,
    ):
        check_positive(calm_rate, "calm_rate")
        check_positive(burst_rate, "burst_rate")
        check_positive(mean_phase_seconds, "mean_phase_seconds")
        self.rates = (float(calm_rate), float(burst_rate))
        self.mean_phase = float(mean_phase_seconds)
        self.slo_range = slo_range
        self.theta_range = theta_range
        self._rng = ensure_rng(seed)

    def generate(self, horizon_seconds: float) -> List[Request]:
        """All requests arriving in ``[0, horizon_seconds)``."""
        check_positive(horizon_seconds, "horizon_seconds")
        out: List[Request] = []
        t, phase = 0.0, 0
        phase_end = float(self._rng.exponential(self.mean_phase))
        while t < horizon_seconds:
            t += float(self._rng.exponential(1.0 / self.rates[phase]))
            while t >= phase_end:
                phase = 1 - phase
                phase_end += float(self._rng.exponential(self.mean_phase))
            if t >= horizon_seconds:
                break
            out.append(
                Request(
                    arrival_time=t,
                    slo_seconds=float(self._rng.uniform(*self.slo_range)),
                    theta_per_tflop=float(self._rng.uniform(*self.theta_range)),
                )
            )
        return out


def window_batches(requests: List[Request], window_seconds: float) -> Iterator[tuple[float, List[Request]]]:
    """Group a request stream into planning windows.

    Yields ``(window_start, requests_in_window)`` for each window from 0
    to the last arrival; empty windows are skipped.  Window starts are
    accumulated (``start += window_seconds``) and each request is placed
    by bisection in one pass, so the cost is O(W + n log W), not O(n W); a
    batch keeps the requests' input order.
    """
    check_positive(window_seconds, "window_seconds")
    if not requests:
        return
    horizon = max(r.arrival_time for r in requests)
    starts: List[float] = []
    start = 0.0
    while start <= horizon:
        starts.append(start)
        start += window_seconds
    batches: Dict[int, List[Request]] = {}
    for request in requests:
        k = bisect_right(starts, request.arrival_time) - 1
        if k >= 0 and request.arrival_time < starts[k] + window_seconds:
            batches.setdefault(k, []).append(request)
    for k in sorted(batches):
        yield starts[k], batches[k]
