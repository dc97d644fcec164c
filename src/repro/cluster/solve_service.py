"""The one solve code path shared by the HTTP handler and cluster workers.

Before the cluster existed, :mod:`repro.server` built its scheduler and
enforced the per-request deadline inside the request handler — logic any
worker process would have had to copy.  :class:`SolveService` extracts
that path so the single-process server and every shard worker run the
*same* code: scheduler construction (with the optional fallback chain),
deadline enforcement, and the response payload shape.

The service is stateless and thread-safe: configuration is frozen at
construction and each :meth:`solve` call owns its scheduler instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Any, Dict, Mapping, Optional

from ..algorithms.base import Scheduler, SolveResult
from ..algorithms.registry import make_scheduler
from ..core.instance import ProblemInstance
from ..core.serialization import schedule_to_dict
from ..resilience.fallback import FallbackChain, run_with_deadline

__all__ = [
    "SolveServiceConfig",
    "SolveService",
    "solve_payload",
    "read_json_body",
    "BODY_READ_TIMEOUT_SECONDS",
]

#: Socket timeout of both HTTP front-ends' handlers (their ``timeout``
#: attribute).  A client that declares more ``Content-Length`` than it
#: sends gets a 408 once a read stalls this long, instead of holding the
#: handler thread until it hangs up.
BODY_READ_TIMEOUT_SECONDS = 2.0


@dataclass(frozen=True)
class SolveServiceConfig:
    """How requests are solved, wherever they are solved.

    ``solver_timeout`` bounds each solve's wall clock (seconds,
    ``None`` = unbounded); ``fallback`` serves every request through
    :meth:`FallbackChain.default` with the requested scheduler pinned
    to the front of the ladder.
    """

    solver_timeout: Optional[float] = None
    fallback: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"solver_timeout": self.solver_timeout, "fallback": self.fallback}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveServiceConfig":
        return cls(
            solver_timeout=data.get("solver_timeout"),
            fallback=bool(data.get("fallback", False)),
        )


class SolveService:
    """Build the scheduler and run one solve, under the configured guards."""

    def __init__(self, config: Optional[SolveServiceConfig] = None):
        self.config = config if config is not None else SolveServiceConfig()

    def build_scheduler(self, name: str) -> Scheduler:
        """The requested scheduler, wrapped in a fallback chain if enabled."""
        if self.config.fallback:
            return FallbackChain.default(
                deadline_seconds=self.config.solver_timeout, first=name
            )
        return make_scheduler(name)

    def solve(self, scheduler: Scheduler, instance: ProblemInstance) -> SolveResult:
        """One solve, under the per-request deadline when configured.

        A :class:`FallbackChain` applies its own per-tier deadlines; only
        bare schedulers get the outer :func:`run_with_deadline` wrapper.
        """
        timeout = self.config.solver_timeout
        if timeout is not None and not isinstance(scheduler, FallbackChain):
            return run_with_deadline(
                lambda: scheduler.solve_with_info(instance), timeout, solver=scheduler.name
            )
        return scheduler.solve_with_info(instance)

    def solve_named(self, name: str, instance: ProblemInstance) -> SolveResult:
        """Convenience: build the scheduler for ``name`` and solve."""
        return self.solve(self.build_scheduler(name), instance)


def solve_payload(
    scheduler_name: str,
    result: SolveResult,
    instance: ProblemInstance,
    *,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``/solve`` response document for one completed solve.

    One payload shape for the single-process server and every cluster
    worker, so clients cannot observe which topology served them.
    """
    schedule = result.schedule
    audit = schedule.feasibility()
    payload: Dict[str, Any] = {
        "scheduler": scheduler_name,
        "trace_id": trace_id,
        "schedule": schedule_to_dict(schedule, embed_instance=False),
        "metrics": {
            "mean_accuracy": schedule.mean_accuracy,
            "total_accuracy": schedule.total_accuracy,
            "energy_joules": schedule.total_energy,
            "budget_joules": instance.budget,
            "runtime_seconds": result.info.runtime_seconds,
        },
        "feasible": audit.feasible,
        "violations": [str(v) for v in audit.violations],
    }
    if "tier" in result.info.extra:
        payload["served_tier"] = result.info.extra["tier"]
    return payload


def read_json_body(headers: Mapping[str, str], rfile: IO[bytes]) -> Any:
    """Read and parse a ``POST /solve`` body (both HTTP front-ends).

    Raises ``ValueError`` for a malformed or negative ``Content-Length``
    and for a body that is not UTF-8 JSON.  A negative length must be
    refused before the read: ``rfile.read(-1)`` reads to EOF, which
    blocks the handler thread until the client hangs up.  A body shorter
    than its declared length raises ``TimeoutError`` once the socket's
    timeout (:data:`BODY_READ_TIMEOUT_SECONDS`) expires.
    """
    length = int(headers.get("Content-Length", "0"))
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    return json.loads(rfile.read(length).decode())
