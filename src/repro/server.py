"""A minimal HTTP scheduling service (stdlib only).

Turns the library into a local JSON-over-HTTP planner, the shape an
MLaaS control plane would embed:

* ``GET  /health``            — liveness and version;
* ``GET  /schedulers``        — registered method names;
* ``GET  /metrics``           — Prometheus text exposition of the
  server's telemetry registry (request counters, solve-phase spans);
* ``GET  /slo``               — the configured SLOs evaluated against
  the live registry (see :mod:`repro.observe.slo`);
* ``GET  /trace/<id>``        — one request's spans as Chrome/Perfetto
  ``trace_event`` JSON (load at https://ui.perfetto.dev);
* ``POST /solve?scheduler=X`` — body: an instance document (the
  ``repro.core.serialization`` format); response: the schedule document
  plus headline metrics and the feasibility audit.

Every ``/solve`` request runs under a trace: the ``X-Repro-Trace-Id``
request header (when well-formed) or a fresh id becomes the request's
trace id, is echoed back on the response, stamps every span the solve
opens (admission → solve → schedule), and is attached to the journal
record — so one id correlates the HTTP exchange, the flame graph at
``/trace/<id>`` and the durable ledger entry.

The serving path is guarded by :mod:`repro.resilience`: an
:class:`~repro.resilience.admission.AdmissionController` bounds
concurrent solves and trips a circuit breaker on repeated solver
failures (rejections answer ``503`` with a ``Retry-After`` header), an
optional per-request wall-clock deadline cancels runaway solves, and
``fallback=True`` degrades through cheaper solver tiers instead of
failing the request.

Intended for trusted local use (demos, integration tests, sidecars) —
there is no authentication; bind to localhost.

    python -m repro serve --port 8080 --solver-timeout 5 --fallback
    curl -s localhost:8080/health
    curl -s -X POST localhost:8080/solve?scheduler=approx -d @instance.json
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from . import __version__
from .algorithms.registry import available_schedulers
from .cluster.solve_service import (
    BODY_READ_TIMEOUT_SECONDS,
    SolveService,
    SolveServiceConfig,
    read_json_body,
    solve_payload,
)
from .core.serialization import instance_from_dict
from .observe.slo import SLOSpec, evaluate
from .observe.tracing import to_trace_events, trace_spans, valid_trace_id
from .resilience.admission import AdmissionController
from .telemetry import (
    MetricsRegistry,
    collector,
    export_file,
    new_trace_id,
    prometheus_text,
    trace_scope,
)
from .utils.errors import FallbackExhaustedError, ReproError, SolverTimeoutError

__all__ = ["make_server", "serve"]

#: The Prometheus text exposition content type, including charset.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _journal_solve(server, scheduler_name: str, energy: float, trace_id: Optional[str] = None) -> None:
    """Append one solve to the server's energy ledger (crash-safe).

    Handler threads race here, so the whole append-snapshot sequence runs
    under the server's journal lock; the journal's fsync policy makes the
    record durable before the response leaves the building.
    """
    journal = getattr(server, "journal", None)
    if journal is None:
        return
    with server.journal_lock:
        server.energy_spent += float(energy)
        record = {
            "type": "solve",
            "scheduler": scheduler_name,
            "energy": float(energy),
            "cum_energy": server.energy_spent,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        # The fsync under the lock is deliberate: cum_energy must be
        # strictly ordered in the ledger, so appends serialise here.
        journal.append(record)
        server.solves_since_snapshot += 1
        if server.snapshot_every > 0 and server.solves_since_snapshot >= server.snapshot_every:
            # Snapshot under the same lock: it must capture a settled ledger.
            server.snapshots.save(
                {
                    "meta": {"kind": "server"},
                    "windows": [],
                    "cum_energy": server.energy_spent,
                    "level": -1,
                },
                journal_records=journal.record_count,
            )
            server.solves_since_snapshot = 0


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro/{__version__}"
    timeout = BODY_READ_TIMEOUT_SECONDS

    # -- helpers ---------------------------------------------------------------

    #: Trace id of the request being handled (set by the solve route);
    #: echoed back on every response while set.
    _trace_id: Optional[str] = None

    def _send_json(self, payload: dict, status: int = 200, headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id is not None:
            self.send_header("X-Repro-Trace-Id", self._trace_id)
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, status: int, headers: Optional[dict] = None) -> None:
        self._send_json({"error": message}, status, headers)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- routes ----------------------------------------------------------------

    @property
    def _telemetry(self) -> MetricsRegistry:
        return self.server.telemetry  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        path = urlparse(self.path).path
        self._telemetry.counter("server_requests_total", path=path).inc()
        if path == "/health":
            payload = {"status": "ok", "version": __version__}
            if getattr(self.server, "journal", None) is not None:
                payload["energy_spent_joules"] = self.server.energy_spent  # type: ignore[attr-defined]
            self._send_json(payload)
        elif path == "/schedulers":
            self._send_json({"schedulers": available_schedulers()})
        elif path == "/metrics":
            body = prometheus_text(self._telemetry).encode()
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/slo":
            spec: SLOSpec = getattr(self.server, "slo", None) or SLOSpec()
            payload = evaluate(self._telemetry, spec).to_dict()
            payload["configured"] = not spec.empty
            self._send_json(payload)
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/") :]
            if valid_trace_id(trace_id) is None:
                self._send_error_json(f"malformed trace id {trace_id!r}", 400)
                return
            spans = trace_spans(self._telemetry, trace_id)
            if not spans:
                self._send_error_json(f"unknown trace {trace_id!r}", 404)
                return
            self._send_json(to_trace_events(spans, trace_id=trace_id))
        else:
            self._send_error_json(f"unknown path {path!r}", 404)

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        # The broad catch is the outermost wall: whatever goes wrong in a
        # handler must come back as a JSON 500, never a dropped connection.
        try:
            self._do_post()
        except Exception as exc:  # noqa: BLE001 — serving boundary
            self._telemetry.counter("server_errors_total", status="500").inc()
            try:
                self._send_error_json(f"internal error: {exc}", 500)
            except OSError:
                pass  # client already gone

    def _do_post(self) -> None:
        parsed = urlparse(self.path)
        tele = self._telemetry
        tele.counter("server_requests_total", path=parsed.path).inc()
        if parsed.path != "/solve":
            self._send_error_json(f"unknown path {parsed.path!r}", 404)
            return
        # The request's trace identity: honour a well-formed inbound
        # X-Repro-Trace-Id (cross-service propagation), mint one otherwise.
        # Echoed on every response from here on, including errors.
        trace_id = valid_trace_id(self.headers.get("X-Repro-Trace-Id")) or new_trace_id()
        self._trace_id = trace_id
        try:
            # Activate the server's registry for this handler thread so
            # every span and counter below lands in it, under the trace.
            with collector(tele), trace_scope(trace_id):
                with tele.span("server.request", path="/solve"):
                    self._solve_route(parsed, tele)
        finally:
            self._trace_id = None  # keep-alive connections reuse the handler

    def _solve_route(self, parsed, tele: MetricsRegistry) -> None:
        query = parse_qs(parsed.query)
        name = query.get("scheduler", ["approx"])[0]
        try:
            data = read_json_body(self.headers, self.rfile)
        except TimeoutError:
            tele.counter("server_errors_total", status="408").inc()
            # The stream stopped mid-body: never reuse this connection.
            self.close_connection = True
            self._send_error_json("request body incomplete", 408)
            return
        except (ValueError, UnicodeDecodeError) as exc:
            tele.counter("server_errors_total", status="400").inc()
            self._send_error_json(f"invalid JSON body: {exc}", 400)
            return
        try:
            instance = instance_from_dict(data)
            scheduler = self._build_scheduler(name)
        except ReproError as exc:
            tele.counter("server_errors_total", status="400").inc()
            self._send_error_json(str(exc), 400)
            return

        admission: AdmissionController = self.server.admission  # type: ignore[attr-defined]
        with tele.span("server.admission"):
            decision = admission.try_begin()
        if not decision.admitted:
            tele.counter("server_errors_total", status="503").inc()
            self._send_error_json(
                f"overloaded ({decision.reason})",
                503,
                headers={"Retry-After": str(int(max(decision.retry_after_seconds, 1)))},
            )
            return
        try:
            with tele.span("server.solve", scheduler=name):
                result = self._solve(scheduler, instance)
        except (SolverTimeoutError, FallbackExhaustedError) as exc:
            # Record the failure BEFORE responding: a client retrying on the
            # 503 must observe the breaker state this failure produced.
            admission.finish(failure=True)
            tele.counter("server_errors_total", status="503").inc()
            self._send_error_json(
                f"solve timed out: {exc}",
                503,
                headers={"Retry-After": str(int(max(admission.retry_after_seconds, 1)))},
            )
            return
        except ReproError as exc:
            admission.finish(failure=True)
            tele.counter("server_errors_total", status="500").inc()
            self._send_error_json(f"solve failed: {exc}", 500)
            return
        except Exception:
            admission.finish(failure=True)
            raise  # the outer wall answers with the JSON 500
        admission.finish(failure=False)
        with tele.span("server.schedule"):
            _journal_solve(self.server, scheduler.name, result.schedule.total_energy, self._trace_id)
            payload = solve_payload(scheduler.name, result, instance, trace_id=self._trace_id)
        self._send_json(payload)

    @property
    def _solve_service(self) -> SolveService:
        """The shared solve path (also run, identically, by cluster workers)."""
        return self.server.solve_service  # type: ignore[attr-defined]

    def _build_scheduler(self, name: str):
        return self._solve_service.build_scheduler(name)

    def _solve(self, scheduler, instance):
        return self._solve_service.solve(scheduler, instance)


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    verbose: bool = False,
    telemetry: Optional[MetricsRegistry] = None,
    admission: Optional[AdmissionController] = None,
    solver_timeout: Optional[float] = None,
    fallback: bool = False,
    journal_dir: Optional[str] = None,
    snapshot_every: int = 10,
    slo: Optional[SLOSpec] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; port 0 picks a free port.

    Every server carries a :class:`~repro.telemetry.MetricsRegistry`
    (``server.telemetry``; pass one to share it) that backs ``GET
    /metrics`` and collects per-request solve traces, plus an
    :class:`~repro.resilience.admission.AdmissionController`
    (``server.admission``) guarding ``POST /solve``.  ``solver_timeout``
    bounds each solve's wall clock (seconds); ``fallback`` serves every
    request through :meth:`FallbackChain.default` with the requested
    scheduler pinned to the front of the ladder.

    ``journal_dir`` makes the service durable: every served solve's
    energy is appended to a write-ahead log there (snapshot every
    ``snapshot_every`` solves), and on startup the previous incarnation's
    cumulative spend is recovered into ``server.energy_spent`` (surfaced
    on ``GET /health``) — a restarted server keeps its ledger.

    ``slo`` configures the targets ``GET /slo`` evaluates against the
    live registry (an empty spec answers with no objectives).
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.verbose = verbose  # type: ignore[attr-defined]
    server.telemetry = telemetry if telemetry is not None else MetricsRegistry()  # type: ignore[attr-defined]
    server.admission = admission if admission is not None else AdmissionController(max_in_flight=8)  # type: ignore[attr-defined]
    server.solver_timeout = solver_timeout  # type: ignore[attr-defined]
    server.fallback = fallback  # type: ignore[attr-defined]
    server.solve_service = SolveService(  # type: ignore[attr-defined]
        SolveServiceConfig(solver_timeout=solver_timeout, fallback=fallback)
    )
    server.slo = slo  # type: ignore[attr-defined]
    server.journal = None  # type: ignore[attr-defined]
    if journal_dir is not None:
        from .durability import JournalWriter, SnapshotStore, recover

        state = recover(journal_dir)
        server.journal = JournalWriter(journal_dir)  # type: ignore[attr-defined]
        server.snapshots = SnapshotStore(journal_dir)  # type: ignore[attr-defined]
        server.snapshot_every = int(snapshot_every)  # type: ignore[attr-defined]
        server.solves_since_snapshot = 0  # type: ignore[attr-defined]
        server.energy_spent = state.energy_spent  # type: ignore[attr-defined]
        server.journal_lock = threading.Lock()  # type: ignore[attr-defined]
        if state.total_records == 0:
            server.journal.append({"type": "run_start", "meta": {"kind": "server"}})  # type: ignore[attr-defined]
        else:
            server.journal.append({"type": "resume", "cum_energy": state.energy_spent})  # type: ignore[attr-defined]
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    metrics_out: Optional[str] = None,
    solver_timeout: Optional[float] = None,
    fallback: bool = False,
    max_in_flight: int = 8,
    journal_dir: Optional[str] = None,
    snapshot_every: int = 10,
    slo: Optional[SLOSpec] = None,
) -> None:
    """Run the service until interrupted (the CLI's ``serve`` command).

    ``metrics_out`` exports the accumulated telemetry on shutdown (the
    live view is always available at ``GET /metrics``).
    """
    server = make_server(
        host,
        port,
        verbose=True,
        admission=AdmissionController(max_in_flight=max_in_flight),
        solver_timeout=solver_timeout,
        fallback=fallback,
        journal_dir=journal_dir,
        snapshot_every=snapshot_every,
        slo=slo,
    )
    print(f"repro scheduling service on http://{host}:{server.server_address[1]}")
    print(f"methods: {', '.join(available_schedulers())}")
    if solver_timeout is not None or fallback:
        mode = "fallback chain" if fallback else "single solver"
        print(f"resilience: {mode}, solver timeout {solver_timeout or 'none'}, max in-flight {max_in_flight}")
    if journal_dir is not None:
        print(
            f"durability: journal at {journal_dir}, snapshot every {snapshot_every} solves, "
            f"recovered spend {server.energy_spent:.1f} J"  # type: ignore[attr-defined]
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if server.journal is not None:  # type: ignore[attr-defined]
            server.journal.close()  # type: ignore[attr-defined]
        if metrics_out is not None:
            path = export_file(server.telemetry, metrics_out)  # type: ignore[attr-defined]
            print(f"telemetry written to {path}")
