"""The one request path of the single-process server and the cluster.

* :class:`SolveHandler` is the HTTP surface of both.  It reads the body
  and asks its backend to solve: the single process itself
  (:mod:`repro.server`) or a :class:`~repro.cluster.frontend.ClusterManager`.
* :class:`SolveStep` is what a solving process does with one request:
  parse the instance, build the scheduler, admit, solve under the
  deadline, journal the energy and build the response.  The server runs
  it on its handler thread; each shard worker runs it per window item.
* :class:`SolveService` builds the scheduler (with the optional fallback
  chain) and enforces the per-request deadline.

A request is checked before it is admitted: a malformed instance or an
unknown scheduler answers 400 without taking an admission slot, so a
client's mistake never counts against the solver's circuit breaker.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import KW_ONLY, dataclass, field
from http.server import BaseHTTPRequestHandler
from typing import IO, TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..algorithms.base import Scheduler, SolveResult
from ..algorithms.registry import available_schedulers, make_scheduler
from ..core.instance import ProblemInstance
from ..core.serialization import instance_from_dict, schedule_to_dict
from ..observe.tracing import valid_trace_id
from ..resilience.admission import AdmissionController
from ..resilience.fallback import FallbackChain, run_with_deadline
from ..telemetry import MetricsRegistry, new_trace_id
from ..utils.errors import FallbackExhaustedError, ReproError, SolverTimeoutError

if TYPE_CHECKING:
    from ..durability.solve_journal import SolveJournal

__all__ = [
    "SolveServiceConfig",
    "SolveService",
    "SolveStep",
    "SolveHandler",
    "error_doc",
    "solve_payload",
    "read_json_body",
    "BODY_READ_TIMEOUT_SECONDS",
    "PROMETHEUS_CONTENT_TYPE",
]

#: Socket timeout of both HTTP front-ends' handlers (their ``timeout``
#: attribute).  A client that declares more ``Content-Length`` than it
#: sends gets a 408 once a read stalls this long, instead of holding the
#: handler thread until it hangs up.
BODY_READ_TIMEOUT_SECONDS = 2.0

#: The Prometheus text exposition content type, including charset.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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


def error_doc(
    status: int, message: str, trace_id: Optional[str] = None, retry_after: Optional[float] = None
) -> Dict[str, Any]:
    """A failed request's response document (``retry_after`` >= 1 s)."""
    doc: Dict[str, Any] = {"status": status, "error": message, "trace_id": trace_id}
    if retry_after is not None:
        doc["retry_after"] = max(retry_after, 1.0)
    return doc


@dataclass
class SolveStep:
    """One ``/solve`` request, from instance document to response document.

    One step per solving process, holding its solve service, admission
    controller, telemetry registry and optional solve journal.  ``site``
    names its spans (``<site>.admission``, ``<site>.solve``,
    ``<site>.schedule``); ``labels`` are added to each.
    """

    service: SolveService
    admission: AdmissionController
    telemetry: MetricsRegistry
    _: KW_ONLY
    journal: Optional[SolveJournal] = None
    site: str = "server"
    labels: Mapping[str, str] = field(default_factory=dict)

    def run(
        self,
        name: str,
        instance_doc: Any,
        *,
        trace_id: Optional[str] = None,
        prepare: Optional[Callable[[ProblemInstance], ProblemInstance]] = None,
    ) -> Dict[str, Any]:
        """Parse, admit, solve and journal one request; returns the response.

        The document's ``status`` is the HTTP status; a 503 also carries
        ``retry_after``.  ``prepare`` rewrites the parsed instance before
        the solve (a shard clips its budget to the window's grant).  It
        never raises: a document the parser rejects answers 400, any other
        exception 500 with a short ``detail`` traceback, so no request can
        take down a shard worker.
        """
        tele = self.telemetry
        try:
            instance = instance_from_dict(instance_doc)
            if prepare is not None:
                instance = prepare(instance)
            scheduler = self.service.build_scheduler(name)
        except ReproError as exc:
            return error_doc(400, str(exc), trace_id)
        except (KeyError, TypeError, ValueError) as exc:
            # A document missing a field or holding a wrongly typed one.
            return error_doc(400, f"malformed instance document: {exc!r}", trace_id)
        except Exception as exc:  # noqa: BLE001 — no request may kill the process
            return _internal_error(exc, trace_id)
        with tele.span(f"{self.site}.admission", **self.labels):
            decision = self.admission.try_begin()
        if not decision.admitted:
            return error_doc(503, f"overloaded ({decision.reason})", trace_id, decision.retry_after_seconds)
        try:
            with tele.span(f"{self.site}.solve", **self.labels, scheduler=name):
                result = self.service.solve(scheduler, instance)
        except Exception as exc:  # noqa: BLE001 — the server must outlive any request
            # Record the failure BEFORE responding: a client retrying on the
            # 503 must observe the breaker state this failure produced.
            self.admission.finish(failure=True)
            if isinstance(exc, (SolverTimeoutError, FallbackExhaustedError)):
                return error_doc(503, f"solve timed out: {exc}", trace_id, self.admission.retry_after_seconds)
            if isinstance(exc, ReproError):
                return error_doc(500, f"solve failed: {exc}", trace_id)
            return _internal_error(exc, trace_id)
        self.admission.finish(failure=False)
        try:
            with tele.span(f"{self.site}.schedule", **self.labels):
                if self.journal is not None:
                    self.journal.record_solve(scheduler.name, result.schedule.total_energy, trace_id)
                payload = solve_payload(scheduler.name, result, instance, trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 — e.g. the journal's disk failed
            return _internal_error(exc, trace_id)
        payload["status"] = 200
        return payload


def _internal_error(exc: Exception, trace_id: Optional[str]) -> Dict[str, Any]:
    """A 500 document for an unexpected exception, with a short traceback."""
    doc = error_doc(500, f"internal error: {exc}", trace_id)
    doc["detail"] = traceback.format_exc(limit=3)
    return doc


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


class SolveHandler(BaseHTTPRequestHandler):
    """The HTTP surface of both servers; ``server.backend`` does the work.

    The backend answers ``health()``, ``metrics_text()``,
    ``trace_document(id)``, ``routes()`` (its own GET paths) and
    ``submit(...)`` (a response document with its ``status``); its
    ``metric_prefix`` names the ``<prefix>_requests_total`` and
    ``<prefix>_errors_total`` counters.
    """

    timeout = BODY_READ_TIMEOUT_SECONDS

    #: Trace id of the ``/solve`` request being handled; echoed back on
    #: every response while set.
    _trace_id: Optional[str] = None

    @property
    def _backend(self) -> Any:
        return self.server.backend  # type: ignore[attr-defined]

    def _count(self, metric: str, **labels: str) -> None:
        backend = self._backend
        backend.telemetry.counter(f"{backend.metric_prefix}_{metric}", **labels).inc()

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str, headers: Optional[dict] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id is not None:
            self.send_header("X-Repro-Trace-Id", self._trace_id)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Dict[str, Any], status: int = 200, headers: Optional[dict] = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json", headers)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = urlparse(self.path).path
        backend = self._backend
        self._count("requests_total", path=path)
        routes = backend.routes()
        if path == "/health":
            health = backend.health()
            health["version"] = __version__
            self._send_json(health, 200 if health["status"] == "ok" else 503)
        elif path == "/schedulers":
            self._send_json({"schedulers": available_schedulers()})
        elif path == "/metrics":
            self._send(200, backend.metrics_text().encode(), PROMETHEUS_CONTENT_TYPE)
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/") :]
            if valid_trace_id(trace_id) is None:
                self._send_json({"error": f"malformed trace id {trace_id!r}"}, 400)
                return
            document = backend.trace_document(trace_id)
            if document is None:
                self._send_json({"error": f"unknown trace {trace_id!r}"}, 404)
                return
            self._send_json(document)
        elif path in routes:
            self._send_json(routes[path]())
        else:
            self._send_json({"error": f"unknown path {path!r}"}, 404)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        # The broad catch is the outermost wall: whatever goes wrong in a
        # handler must come back as a JSON 500, never a dropped connection.
        try:
            self._do_post()
        except Exception as exc:  # noqa: BLE001 — serving boundary
            self._count("errors_total", status="500")
            try:
                self._send_json({"error": f"internal error: {exc}"}, 500)
            except OSError:
                pass  # client already gone
        finally:
            self._trace_id = None  # keep-alive connections reuse the handler

    def _do_post(self) -> None:
        parsed = urlparse(self.path)
        self._count("requests_total", path=parsed.path)
        if parsed.path != "/solve":
            self._send_json({"error": f"unknown path {parsed.path!r}"}, 404)
            return
        # The request's trace identity: honour a well-formed inbound
        # X-Repro-Trace-Id (cross-service propagation), mint one otherwise.
        trace_id = valid_trace_id(self.headers.get("X-Repro-Trace-Id")) or new_trace_id()
        self._trace_id = trace_id
        result = self._solve(parse_qs(parsed.query), trace_id)
        status = int(result.pop("status", 200))
        retry_after = result.pop("retry_after", None)
        headers = None if retry_after is None else {"Retry-After": str(int(max(float(retry_after), 1)))}
        if status >= 400:
            self._count("errors_total", status=str(status))
        if status == 408:
            # The stream stopped mid-body: never reuse this connection.
            self.close_connection = True
        self._send_json(result, status, headers)

    def _solve(self, params: Dict[str, Any], trace_id: str) -> Dict[str, Any]:
        raw_deadline = params.get("deadline", [None])[0]
        try:
            deadline = None if raw_deadline is None else float(raw_deadline)
        except ValueError:
            return error_doc(400, f"invalid deadline {raw_deadline!r}")
        try:
            data = read_json_body(self.headers, self.rfile)
        except TimeoutError:
            return error_doc(408, "request body incomplete")
        except (ValueError, UnicodeDecodeError) as exc:
            return error_doc(400, f"invalid JSON body: {exc}")
        return self._backend.submit(
            params.get("scheduler", ["approx"])[0],
            data,
            trace_id=trace_id,
            priority=params.get("priority", [None])[0],
            deadline_seconds=deadline,
        )
