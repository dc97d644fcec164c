"""Scale-out serving: sharded, batched, multi-worker solving under one budget.

The single-process server (:mod:`repro.server`) solves one request at a
time inside one Python process.  This package turns the same service
into a small cluster while preserving the paper's core constraint — one
global energy budget ``B`` — across all of it:

* :mod:`repro.cluster.solve_service` — the one request path shared by
  the plain server and the cluster: the HTTP handler, and the solve step
  (parse, admit, solve under the deadline, journal, respond) that the
  plain server and every cluster worker run;
* :mod:`repro.cluster.router` — consistent-hash routing of requests to
  shards, walking past dead shards;
* :mod:`repro.cluster.batcher` — per-shard coalescing of requests into
  bounded solve windows (``max_batch`` / ``max_wait``);
* :mod:`repro.cluster.ledger` — the global budget split into per-shard
  energy *leases* (reserve/commit/release; demand-weighted rebalancing)
  plus :func:`~repro.cluster.ledger.audit_cluster`, the durable proof
  that the shards' journalled spends sum within ``B``;
* :mod:`repro.cluster.worker` — the shard worker process: own journal,
  telemetry registry, admission control and burn-rate monitor;
* :mod:`repro.cluster.frontend` — the control plane and HTTP front-end
  (:class:`~repro.cluster.frontend.ClusterManager`, whose one control
  thread detects worker deaths, restarts workers, sweeps stale windows,
  fires retries and rebalances leases;
  :func:`~repro.cluster.frontend.make_cluster_server`);
* :mod:`repro.cluster.bench` — the serving load benchmark behind
  ``repro bench serve``.

Quick start::

    config = ClusterConfig(shards=2, budget=500.0, journal_root="led/")
    with ClusterManager(config) as manager:
        result = manager.submit("approx", instance_doc)
    assert audit_cluster("led/", budget=500.0).certified
"""

from .batcher import PendingResult, QueueFullError, WindowBatcher
from .bench import bench_serve, run_load
from .frontend import ClusterConfig, ClusterManager, make_cluster_server, serve_cluster
from .ledger import ClusterAudit, EnergyLeaseLedger, ShardLease, audit_cluster
from .router import ConsistentHashRouter
from .solve_service import SolveService, SolveServiceConfig, SolveStep, solve_payload
from .worker import WorkerConfig, worker_main

__all__ = [
    "PendingResult",
    "QueueFullError",
    "WindowBatcher",
    "bench_serve",
    "run_load",
    "ClusterConfig",
    "ClusterManager",
    "make_cluster_server",
    "serve_cluster",
    "ClusterAudit",
    "EnergyLeaseLedger",
    "ShardLease",
    "audit_cluster",
    "ConsistentHashRouter",
    "SolveService",
    "SolveServiceConfig",
    "SolveStep",
    "solve_payload",
    "WorkerConfig",
    "worker_main",
]
