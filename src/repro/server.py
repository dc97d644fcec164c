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

The HTTP handler and the per-request solve step are the ones the
cluster runs too (:mod:`repro.cluster.solve_service`); this module only
supplies the single-process backend, which solves on the handler
thread.

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

from http.server import ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from . import __version__
from .algorithms.registry import available_schedulers
from .cluster.solve_service import SolveHandler, SolveService, SolveServiceConfig, SolveStep
from .durability.solve_journal import SolveJournal
from .observe.slo import SLOSpec, evaluate
from .observe.tracing import to_trace_events, trace_spans
from .resilience.admission import AdmissionController
from .telemetry import MetricsRegistry, collector, export_file, prometheus_text, trace_scope

__all__ = ["make_server", "serve"]


class _Handler(SolveHandler):
    server_version = f"repro/{__version__}"


class _LocalBackend:
    """The single process as the shared handler's backend: solves inline."""

    metric_prefix = "server"

    def __init__(self, step: SolveStep, slo: Optional[SLOSpec]):
        self.step = step
        self.telemetry = step.telemetry
        self.slo = slo

    def health(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"status": "ok"}
        if self.step.journal is not None:
            doc["energy_spent_joules"] = self.step.journal.energy_spent
        return doc

    def metrics_text(self) -> str:
        return prometheus_text(self.telemetry)

    def trace_document(self, trace_id: str) -> Optional[Dict[str, Any]]:
        spans = trace_spans(self.telemetry, trace_id)
        return to_trace_events(spans, trace_id=trace_id) if spans else None

    def routes(self) -> Dict[str, Callable[[], Dict[str, Any]]]:
        return {"/slo": self.slo_document}

    def slo_document(self) -> Dict[str, Any]:
        spec = self.slo or SLOSpec()
        doc = evaluate(self.telemetry, spec).to_dict()
        doc["configured"] = not spec.empty
        return doc

    def submit(
        self,
        scheduler: str,
        instance_doc: Any,
        *,
        trace_id: str,
        priority: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Solve on the handler thread.

        ``priority`` and ``deadline_seconds`` steer the cluster's queues;
        one process has none and ignores them.  The handler still answers
        400 to a malformed ``?deadline=`` here, as the cluster does, so a
        client cannot tell which topology served it.
        """
        tele = self.telemetry
        # Activate the server's registry for this handler thread so every
        # span and counter of the solve lands in it, under the trace.
        with collector(tele), trace_scope(trace_id), tele.span("server.request", path="/solve"):
            return self.step.run(scheduler, instance_doc, trace_id=trace_id)


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
    :class:`~repro.resilience.admission.AdmissionController` guarding
    ``POST /solve`` (pass one to share it).  ``solver_timeout``
    bounds each solve's wall clock (seconds); ``fallback`` serves every
    request through :meth:`FallbackChain.default` with the requested
    scheduler pinned to the front of the ladder.

    ``journal_dir`` makes the service durable: every served solve's
    energy is appended to a write-ahead log there (snapshot every
    ``snapshot_every`` solves), and on startup the previous incarnation's
    cumulative spend is recovered into ``server.journal`` (a
    :class:`~repro.durability.solve_journal.SolveJournal`; its spend is
    surfaced on ``GET /health``) — a restarted server keeps its ledger.

    ``slo`` configures the targets ``GET /slo`` evaluates against the
    live registry (an empty spec answers with no objectives).
    """
    telemetry = telemetry if telemetry is not None else MetricsRegistry()
    journal = None
    if journal_dir is not None:
        journal = SolveJournal(journal_dir, {"kind": "server"}, snapshot_every=snapshot_every)
    step = SolveStep(
        SolveService(SolveServiceConfig(solver_timeout=solver_timeout, fallback=fallback)),
        admission if admission is not None else AdmissionController(max_in_flight=8),
        telemetry,
        journal=journal,
    )
    server = ThreadingHTTPServer((host, port), _Handler)
    server.backend = _LocalBackend(step, slo)  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.telemetry = telemetry  # type: ignore[attr-defined]
    server.journal = journal  # type: ignore[attr-defined]
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
            f"recovered spend {server.journal.energy_spent:.1f} J"  # type: ignore[attr-defined]
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
