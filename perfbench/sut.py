"""The system under test, run by ``run.py`` in a process of its own.

    python3 perfbench/sut.py server  --journal DIR --out OUT [--trace]
    python3 perfbench/sut.py cluster --journal DIR --out OUT --shards N --budget B [--trace]
    python3 perfbench/sut.py online  --journal DIR --out OUT --verify FILE [--streams FILE] --seconds S
                                     [--trace] [--setup-only]

``server`` and ``cluster`` print ``READY <port>`` once they listen, then
serve until a ``STOP`` line arrives on stdin.  ``online`` prints
``FIRST <accuracy-sum>`` when its first window commits, then plans the
verification streams in full and the timed streams until ``--seconds``
have passed (``--setup-only`` stops after the first window).  Each writes a JSON
document of its own measurements to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import multiprocessing
import os
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _peak_mb_of(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _wait_for_stop() -> None:
    for line in sys.stdin:
        if line.strip() == "STOP":
            return


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def run_server(args) -> None:
    from repro.server import make_server
    from repro.telemetry import MetricsRegistry

    telemetry = MetricsRegistry()
    if args.trace:
        layers.install(fallback=telemetry)
    server = make_server(journal_dir=args.journal, telemetry=telemetry)
    thread = threading.Thread(target=server.serve_forever, name="perfbench-server", daemon=True)
    thread.start()
    _say(f"READY {server.server_address[1]}")
    _wait_for_stop()
    server.shutdown()
    server.server_close()
    thread.join()
    server.journal.close()
    out = {"rss_mb": _own_peak_mb()}
    if args.trace:
        out["trace"] = layers.decompose([telemetry.snapshot()])
        out["trace"]["front"] = layers.FRONT
    _write(args.out, out)


def run_cluster(args) -> None:
    from repro.cluster.frontend import ClusterConfig, ClusterManager, make_cluster_server

    manager = ClusterManager(
        ClusterConfig(shards=args.shards, budget=args.budget, journal_root=args.journal)
    )
    if args.trace:
        layers.install(fallback=manager.telemetry)
    manager.start()
    server = make_cluster_server(manager)
    thread = threading.Thread(target=server.serve_forever, name="perfbench-frontend", daemon=True)
    thread.start()
    _say(f"READY {server.server_address[1]}")
    _wait_for_stop()
    server.shutdown()
    server.server_close()
    thread.join()
    out: dict = {
        "rss_mb": _own_peak_mb() + sum(_peak_mb_of(p.pid) for p in multiprocessing.active_children()),
        "ledger_audit": manager.ledger.audit(),
    }
    if args.trace:
        profile = manager.profile_document()
        stats = manager.shard_stats()
        snapshots = [manager.telemetry.snapshot()]
        snapshots += [doc["telemetry"] for doc in stats.values() if doc is not None]
        out["trace"] = layers.decompose(snapshots)
        out["trace"]["front"] = layers.FRONT
        out["trace"]["phases"] = {
            name: entry
            for name, entry in profile["merged"]["phases"].items()
            if name.startswith(layers.PREFIX)
        }
    manager.stop()
    _write(args.out, out)


class _SetupDone(Exception):
    """Raised after the first committed window of a set-up-only launch."""


def run_online(args) -> None:
    from repro.algorithms.approx import ApproxScheduler
    from repro.core.serialization import cluster_from_dict
    from repro.durability.run import DurableRun
    from repro.online.planner import RollingHorizonPlanner
    from repro.telemetry import MetricsRegistry, collector, trace_scope
    from repro.workloads.arrivals import Request

    with open(args.verify) as fh:
        verify = json.load(fh)
    telemetry = MetricsRegistry()
    if args.trace:
        layers.install(fallback=telemetry)
    window_ms: list = []
    window_keys: list = []
    windows_planned = itertools.count()
    measuring = [False]
    first_committed = [False]
    inner = DurableRun._plan_window

    def timed_plan_window(run, *a, **k):
        # Traced: each window gets a trace scope of its own, which keys
        # its layer spans and its latency alike.
        key = f"{next(windows_planned):016x}"
        t0 = time.perf_counter()
        with trace_scope(key) if args.trace else contextlib.nullcontext():
            done, window = inner(run, *a, **k)
        if measuring[0]:
            window_ms.append(1e3 * (time.perf_counter() - t0))
            window_keys.append(key)
        elif not first_committed[0]:
            first_committed[0] = True
            _say(f"FIRST {sum(window.accuracies)!r}")
            if args.setup_only:
                raise _SetupDone
        return done, window

    DurableRun._plan_window = timed_plan_window
    planner = RollingHorizonPlanner(
        cluster_from_dict(verify["cluster"]),
        ApproxScheduler(),
        window_seconds=verify["window_seconds"],
        power_cap_fraction=verify["power_cap_fraction"],
    )
    out: dict = {"episodes": []}

    def episode(name: str, spec: dict, index: int):
        requests = [Request(arrival_time=t, slo_seconds=s, theta_per_tflop=th) for t, s, th in spec["episodes"][index]]
        journal = os.path.join(args.journal, f"{name}-{index:03d}")
        report = planner.run_durable(
            requests, journal, energy_budget=spec["energy_budget"], snapshot_every=5, fsync="always"
        )
        out["episodes"].append([name, index, journal])
        return report

    with collector(telemetry):
        accuracy = on_time = served = 0.0
        try:
            for index in range(len(verify["episodes"])):
                report = episode("verify", verify, index)
                accuracy += report.mean_accuracy * report.n_requests
                on_time += report.on_time_fraction * report.n_requests
                served += report.n_requests
        except _SetupDone:
            return
        out["mean_accuracy"] = accuracy / served
        out["on_time_share"] = on_time / served
        with open(args.streams) as fh:
            streams = json.load(fh)
        measuring[0] = True
        requests = 0
        start = time.perf_counter()
        for index in range(len(streams["episodes"])):
            if time.perf_counter() - start >= args.seconds:
                break
            requests += episode("streams", streams, index).n_requests
        out["elapsed_s"] = time.perf_counter() - start
    out["requests"] = requests
    out["window_ms"] = window_ms
    out["window_keys"] = window_keys
    out["rss_mb"] = _own_peak_mb()
    if args.trace:
        out["trace"] = layers.decompose([telemetry.snapshot()])
    _write(args.out, out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("server", "cluster", "online"))
    parser.add_argument("--journal", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--verify")
    parser.add_argument("--streams")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    {"server": run_server, "cluster": run_cluster, "online": run_online}[args.mode](args)


if __name__ == "__main__":
    main()
