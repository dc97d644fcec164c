"""The repository benchmark: one command per workload, audited answers.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``solve-large``    closed loop, 2 connections, ``POST /solve?scheduler=approx``
  on the single-process journaled server, n in [100, 160];
* ``serve-small``    open loop of Poisson arrivals at a fixed rate through at
  most 2 connections to the journaled cluster front-end, n in [4, 12];
* ``online-rolling`` the durable rolling-horizon planner (fsync always) over
  bursty MMPP request streams.

The system under test runs in processes of its own (``sut.py``); this
process generates every input from ``--seed`` before the timed phase,
drives the load, audits every answer and prints the metrics.  With
``--trace 1`` it runs the workload twice, untraced then traced, and
prints the per-layer table.  The last line of stdout is one JSON object.
``--workload serve-small --capacity`` instead measures the cluster's
closed-loop capacity, from which serve-small's fixed rate is set.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import report
from report import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")

NPROC = max(os.cpu_count() or 1, 1)
CONNECTIONS = min(2, NPROC)
SETUPS = 3  #: system launches per untraced run; setup_s is their median
#: Latency limit of one operation, per workload (slo_miss_share).
SLO_MS = {"solve-large": 1000.0, "serve-small": 50.0, "online-rolling": 2000.0}
#: About 40% of serve-small's two-connection closed-loop capacity, which
#: ``--capacity`` measures (77-80 rps on a 2-vCPU 2.1 GHz x86 host).
SERVE_SMALL_RPS = 31.0
#: A generator that sends later than this (p99) makes the run invalid.
MAX_LAG_MS = 50.0


def _fail(message: str, code: int = 2) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


# -- the system under test -------------------------------------------------------


class Sut:
    """One launch of ``sut.py``; its process group is always reaped."""

    def __init__(self, mode: str, workdir: str, tag: str, args: List[str]):
        self.journal = os.path.join(workdir, f"journal-{tag}")
        self.out = os.path.join(workdir, f"out-{tag}.json")
        self.stderr = open(os.path.join(workdir, f"stderr-{tag}.log"), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "sut.py"), mode, "--journal", self.journal, "--out", self.out, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
            start_new_session=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def expect(self, word: str, timeout: float = 120.0) -> str:
        """Block until the system prints ``<word> <rest>``; returns ``rest``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError(f"system did not print {word} within {timeout:.0f} s") from None
            if line is None:
                raise RuntimeError(f"system exited before printing {word}: {self.stderr_tail()}")
            if line.startswith(word + " "):
                return line[len(word) + 1 :]

    def stderr_tail(self) -> str:
        self.stderr.flush()
        with open(self.stderr.name) as fh:
            return fh.read()[-2000:]

    def finish(self, *, stop: bool, timeout: float = 150.0) -> Dict[str, Any]:
        """Ask the system to stop (or let it end) and read its report."""
        try:
            if stop and self.proc.stdin is not None:
                self.proc.stdin.write("STOP\n")
                self.proc.stdin.flush()
            code = self.proc.wait(timeout=timeout)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"system exited with {code}: {self.stderr_tail()}")
        if not os.path.exists(self.out):
            return {}
        with open(self.out) as fh:
            return json.load(fh)

    def kill(self) -> None:
        # The system and every worker it forked share one process group.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._reader.join(timeout=5.0)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self.stderr.close()


class Client:
    """One HTTP connection to the system (re-opened when the server closes it)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: bytes, trace_id: str) -> Tuple[int, Dict[str, Any]]:
        self.conn.request(
            "POST", path, body=body, headers={"Content-Type": "application/json", "X-Repro-Trace-Id": trace_id}
        )
        response = self.conn.getresponse()
        payload = json.loads(response.read() or b"{}")
        return response.status, payload

    def close(self) -> None:
        self.conn.close()


class Outcome:
    """One request sent during the timed phase.

    ``latency_ms`` counts from the request's due time, ``service_ms`` from
    its send; the difference is how long it waited in the generator for
    a free connection (nothing in a closed loop, where both coincide).
    """

    __slots__ = ("request", "status", "payload", "latency_ms", "service_ms", "lag_ms")

    def __init__(self, request, status: int, payload: Dict[str, Any], latency_ms: float, service_ms: float, lag_ms):
        self.request = request
        self.status = status
        self.payload = payload
        self.latency_ms = latency_ms
        self.service_ms = service_ms
        self.lag_ms = lag_ms


class LoadStats:
    """Peak number of sender threads; each holds at most one open connection."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.now = 0
        self.peak = 0

    def enter(self) -> None:
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)

    def leave(self) -> None:
        with self.lock:
            self.now -= 1


def drive(port: int, path: str, requests, stats: LoadStats, *, seconds: Optional[float] = None, offsets=None):
    """Send ``requests`` from ``CONNECTIONS`` sender threads, one connection each.

    Open loop when ``offsets`` is given: request i is due at ``start +
    offsets[i]`` and its latency counts from then, so waiting for a free
    connection is latency; ``lag_ms`` is how late an idle sender went
    out.  Closed loop otherwise: a sender sends its next request when the
    last returns, until ``seconds`` have passed.
    """
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    start = time.perf_counter() + (0.05 if offsets is not None else 0.0)
    deadline = start + seconds if seconds is not None else float("inf")
    cursor = iter(zip(requests, offsets if offsets is not None else [None] * len(requests)))
    ends: List[float] = []

    def sender() -> None:
        stats.enter()
        conn = Client(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    request, offset = next(cursor, (None, None))
                if request is None:
                    return
                due, lag = None, None
                if offset is not None:
                    due = start + offset
                    if time.perf_counter() < due:
                        time.sleep(max(due - time.perf_counter(), 0.0))
                        lag = 1e3 * (time.perf_counter() - due)
                sent = time.perf_counter()
                status, payload = conn.post(path, request.body, request.trace_id)
                done = time.perf_counter()
                latency = 1e3 * (done - (sent if due is None else due))
                with lock:
                    outcomes.append(Outcome(request, status, payload, latency, 1e3 * (done - sent), lag))
                    ends.append(done)
        finally:
            conn.close()
            stats.leave()

    threads = [threading.Thread(target=sender, name=f"perfbench-load-{i}") for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, (max(ends) if ends else time.perf_counter()) - start


# -- audits ------------------------------------------------------------------------


def audit_response(request, payload: Dict[str, Any], *, integral: bool) -> Optional[str]:
    """Rebuild the returned schedule against the instance that was sent."""
    from repro.core.serialization import schedule_from_dict

    instance = request.instance
    try:
        schedule = schedule_from_dict(payload["schedule"], instance)
    except Exception as exc:  # noqa: BLE001 — any malformed answer is an audit failure
        return f"request {request.index}: schedule does not rebuild: {exc}"
    audit = schedule.feasibility(integral=integral)
    if not audit.feasible:
        return f"request {request.index}: infeasible: {[str(v) for v in audit.violations][:3]}"
    if not payload.get("feasible", False):
        return f"request {request.index}: server reported infeasible"
    if schedule.total_energy > instance.budget * (1 + 1e-9) + 1e-9:
        return f"request {request.index}: energy {schedule.total_energy!r} exceeds B {instance.budget!r}"
    claimed = payload.get("metrics", {}).get("mean_accuracy")
    if claimed is None or abs(float(claimed) - schedule.mean_accuracy) > 1e-9:
        return f"request {request.index}: claimed accuracy {claimed!r} != rebuilt {schedule.mean_accuracy!r}"
    return None


def journal_violations(directory: str, budget: Optional[float]) -> List[str]:
    from repro.durability.recovery import audit, recover

    try:
        return [f"{directory}: {v}" for v in audit(recover(directory), budget=budget)]
    except Exception as exc:  # noqa: BLE001 — an unreadable journal fails the audit
        return [f"{directory}: recovery failed: {exc}"]


def code_digest() -> str:
    """Hash of the program and the benchmark: quality must repeat per digest."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "__")))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def check_quality_repeats(workload: str, seed: int, quality: Dict[str, float]) -> List[str]:
    """Quality figures must repeat exactly across runs of one code and seed."""
    path = os.path.join(RUNS, "quality.json")
    key = f"{workload}:{seed}:{code_digest()}"
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None:
        return [
            f"{name} changed between runs of the same code and seed: {previous.get(name)!r} -> {value!r}"
            for name, value in quality.items()
            if previous.get(name) != value
        ]
    known[key] = quality
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


# -- workloads ------------------------------------------------------------------------


class Run:
    """What one workload run measured."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.trace: Optional[Dict[str, Any]] = None
        #: Operation key -> (end-to-end ms, ms after the send) of the timed operations.
        self.timed: Dict[str, Tuple[float, float]] = {}
        self.load: Optional[LoadStats] = None
        self.audits: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _first_op(sut: Sut, request) -> Tuple[float, Dict[str, Any], int]:
    """Wait for the system to listen and answer its first request.

    Returns the set-up time (launch to first answer), the answer and the port.
    """
    port = int(sut.expect("READY"))
    conn = Client(port)
    try:
        status, payload = conn.post("/solve?scheduler=approx", request.body, request.trace_id)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"first request answered {status}: {payload}")
    return time.perf_counter() - sut.started, payload, port


def _setups(mode: str, workdir: str, args: List[str], first, launches: int, trace: bool):
    """Launch the system ``launches`` times; each time until its first answer.

    Returns the set-up times, the first answers, the last (still running)
    launch and its port.
    """
    times, firsts = [], []
    sut, port = None, 0
    for k in range(launches):
        sut = Sut(mode, workdir, f"{'t' if trace else 'u'}{k}", args + (["--trace"] if trace else []))
        try:
            elapsed, payload, port = _first_op(sut, first)
        except BaseException:
            sut.kill()
            raise
        times.append(elapsed)
        firsts.append(payload.get("metrics", {}).get("mean_accuracy"))
        if k < launches - 1:
            sut.finish(stop=True)
    return times, firsts, sut, port


def _http_metrics(run: Run, workload: str, outcomes: List[Outcome], elapsed: float, integral: bool) -> None:
    ok = [o for o in outcomes if o.status == 200]
    for outcome in ok:
        problem = audit_response(outcome.request, outcome.payload, integral=integral)
        if problem is not None:
            run.audits.append(problem)
    audit_failed = len(run.audits)
    run.attempted = len(outcomes)
    run.failed = len(outcomes) - len(ok) + audit_failed
    run.latencies = [o.latency_ms for o in outcomes]
    run.timed = {o.request.trace_id: (o.latency_ms, o.service_ms) for o in ok}
    slo = SLO_MS[workload]
    run.put("throughput_rps", (len(ok) - audit_failed) / elapsed, "1/s")
    run.put("error_share", run.failed / max(run.attempted, 1), "share")
    run.put(
        "slo_miss_share",
        (run.failed + sum(1 for o in ok if o.latency_ms > slo)) / max(run.attempted, 1),
        "share",
    )


def solve_large(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    from repro.exact.lp import solve_lp_relaxation

    import inputs

    run = Run()
    verification = inputs.solve_large(seed, 6, verification=True)
    pool = inputs.solve_large(seed, int(15 * seconds))
    launches = 1 if trace else SETUPS
    setup_times, firsts, sut, port = _setups("server", workdir, [], verification[0], launches, trace)
    try:
        conn = Client(port)
        answers = []
        try:
            for request in verification:
                if request.index != verification[0].index:
                    reply = conn.post("/solve?scheduler=approx", request.body, request.trace_id)
                    answers.append((request, "approx", reply))
            for request in verification:
                reply = conn.post("/solve?scheduler=fractional", request.body, request.trace_id + "f")
                answers.append((request, "fractional", reply))
        finally:
            conn.close()
        run.load = LoadStats()
        outcomes, elapsed = drive(port, "/solve?scheduler=approx", pool, run.load, seconds=seconds)
        out = sut.finish(stop=True)
    except BaseException:
        sut.kill()
        raise
    _http_metrics(run, "solve-large", outcomes, elapsed, integral=True)
    # Verification set: quality through the same path, audited the same way.
    totals, tasks, gaps = 0.0, 0, []
    for request, scheduler, (status, payload) in answers:
        if status != 200:
            run.audits.append(f"verification {request.index} ({scheduler}) answered {status}")
            continue
        problem = audit_response(request, payload, integral=scheduler == "approx")
        if problem is not None:
            run.audits.append(problem)
        if scheduler == "approx":
            totals += payload["metrics"]["total_accuracy"]
            tasks += request.instance.n_tasks
        else:
            _, optimum = solve_lp_relaxation(request.instance)
            gaps.append((optimum - payload["metrics"]["total_accuracy"]) / optimum)
    # The first answer of every launch is the approx solve of verification[0].
    first = verification[0]
    totals += firsts[-1] * first.instance.n_tasks
    tasks += first.instance.n_tasks
    if len(set(firsts)) != 1:
        run.errors.append(f"first answer differs across launches: {firsts}")
    served_budget = sum(o.request.instance.budget for o in outcomes) + 2 * sum(r.instance.budget for r in verification)
    for k in range(launches):
        journal = os.path.join(workdir, f"journal-{'t' if trace else 'u'}{k}")
        run.audits.extend(journal_violations(journal, served_budget))
    run.put("setup_s", statistics.median(setup_times), "s")
    run.put("latency_p50_ms", percentile(run.latencies, 0.50), "ms")
    # ~200 samples a run: p90 is the highest percentile with ten beyond it.
    run.put("latency_p90_ms", percentile(run.latencies, 0.90), "ms")
    run.put("mean_accuracy", totals / tasks, "accuracy")
    run.put("fr_gap_max", max(gaps), "share")
    run.put("rss_mb", out["rss_mb"], "MB")
    run.trace = out.get("trace")
    return run


def serve_small(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    from repro.cluster.ledger import audit_cluster

    import inputs

    run = Run()
    offsets = inputs.arrival_offsets(seed, SERVE_SMALL_RPS, seconds)
    verification = inputs.serve_small(seed, 48, verification=True)
    pool = inputs.serve_small(seed, len(offsets))
    # Finite, so every window runs the lease reserve/commit path; ten times
    # what the run can spend, so it never runs out.
    budget = 10.0 * sum(r.instance.budget for r in verification + pool)
    launches = 1 if trace else SETUPS
    args = ["--shards", str(NPROC), "--budget", repr(budget)]
    setup_times, firsts, sut, port = _setups("cluster", workdir, args, verification[0], launches, trace)
    try:
        conn = Client(port)
        answers = []
        try:
            for request in verification[1:]:
                answers.append((request, conn.post("/solve?scheduler=approx", request.body, request.trace_id)))
        finally:
            conn.close()
        run.load = LoadStats()
        outcomes, elapsed = drive(port, "/solve?scheduler=approx", pool, run.load, offsets=offsets)
        out = sut.finish(stop=True)
    except BaseException:
        sut.kill()
        raise
    _http_metrics(run, "serve-small", outcomes, elapsed, integral=True)
    first = verification[0]
    totals, tasks = firsts[-1] * first.instance.n_tasks, first.instance.n_tasks
    for request, (status, payload) in answers:
        if status != 200:
            run.audits.append(f"verification {request.index} answered {status}")
            continue
        problem = audit_response(request, payload, integral=True)
        if problem is not None:
            run.audits.append(problem)
        totals += payload["metrics"]["total_accuracy"]
        tasks += request.instance.n_tasks
    if len(set(firsts)) != 1:
        run.errors.append(f"first answer differs across launches: {firsts}")
    for k in range(launches):
        certificate = audit_cluster(os.path.join(workdir, f"journal-{'t' if trace else 'u'}{k}"), budget=budget)
        run.audits.extend(certificate.violations)
    run.audits.extend(f"live ledger: {v}" for v in out.get("ledger_audit", []))
    lags = [o.lag_ms for o in outcomes if o.lag_ms is not None]
    lag_p99 = percentile(lags, 0.99)
    if lag_p99 > MAX_LAG_MS:
        run.errors.append(f"load generator fell behind: lag p99 {lag_p99:.1f} ms > {MAX_LAG_MS} ms")
    run.put("setup_s", statistics.median(setup_times), "s")
    run.put("latency_p50_ms", percentile(run.latencies, 0.50), "ms")
    run.put("latency_p90_ms", percentile(run.latencies, 0.90), "ms")
    run.put("latency_p99_ms", percentile(run.latencies, 0.99), "ms")
    run.put("mean_accuracy", totals / tasks, "accuracy")
    run.put("rss_mb", out["rss_mb"], "MB")
    run.put("loadgen.lag_ms_p99", lag_p99, "ms")
    run.trace = out.get("trace")
    return run


def online_rolling(seed: int, seconds: float, trace: bool, workdir: str) -> Run:
    import inputs

    run = Run()
    # Quality comes from the first streams, planned in full by every
    # measured launch; the timed phase plans the rest until time is up.
    specs = {
        "verify": inputs.online_streams(seed, 3, verification=True),
        "streams": inputs.online_streams(seed, 1 + int(2 * seconds)),
    }
    for name, spec in specs.items():
        with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
            json.dump(spec, fh)
    launches = 1 if trace else SETUPS
    setup_times, firsts = [], []
    out: Dict[str, Any] = {}
    for k in range(launches):
        last = k == launches - 1
        args = ["--verify", os.path.join(workdir, "verify.json"), "--seconds", repr(seconds)]
        args += ["--streams", os.path.join(workdir, "streams.json")] if last else ["--setup-only"]
        args += ["--trace"] if trace else []
        sut = Sut("online", workdir, f"{'t' if trace else 'u'}{k}", args)
        try:
            firsts.append(sut.expect("FIRST"))
            setup_times.append(time.perf_counter() - sut.started)
            out = sut.finish(stop=False)
        except BaseException:
            sut.kill()
            raise
    if len(set(firsts)) != 1:
        run.errors.append(f"first window differs across launches: {firsts}")
    from repro.durability.recovery import recover

    for name, index, journal in out["episodes"]:
        spec = specs[name]
        run.audits.extend(journal_violations(journal, spec["energy_budget"]))
        expected = len({int(t // inputs.WINDOW_SECONDS) for t, _, _ in spec["episodes"][index]})
        committed = len(recover(journal).windows)
        if committed != expected:
            run.audits.append(f"{journal}: {committed} windows committed, stream has {expected}")
    windows = out["window_ms"]
    run.latencies = windows
    run.attempted = len(windows)
    run.failed = len(run.audits)
    slo = SLO_MS["online-rolling"]
    run.put("setup_s", statistics.median(setup_times), "s")
    run.put("throughput_rps", out["requests"] / out["elapsed_s"], "1/s")
    run.put("latency_p50_ms", percentile(windows, 0.50), "ms")
    run.put("latency_p90_ms", percentile(windows, 0.90), "ms")
    run.put("latency_p99_ms", percentile(windows, 0.99), "ms")
    run.put("error_share", run.failed / max(run.attempted, 1), "share")
    run.put("slo_miss_share", (run.failed + sum(1 for w in windows if w > slo)) / max(run.attempted, 1), "share")
    run.put("mean_accuracy", out["mean_accuracy"], "accuracy")
    run.put("on_time_share", out["on_time_share"], "share")
    run.put("rss_mb", out["rss_mb"], "MB")
    run.trace = out.get("trace")
    if run.trace is not None:
        run.timed = {key: (ms, ms) for key, ms in zip(out["window_keys"], windows)}
    return run


def serve_small_capacity(seed: int, seconds: float, workdir: str) -> Tuple[float, float]:
    """Closed-loop capacity of serve-small's cluster on ``CONNECTIONS`` connections.

    Returns the requests per second and the median latency; the open
    loop's fixed rate, ``SERVE_SMALL_RPS``, is set near 40% of it.
    """
    import inputs

    pool = inputs.serve_small(seed, int(200 * seconds))
    args = ["--shards", str(NPROC), "--budget", repr(10.0 * sum(r.instance.budget for r in pool))]
    _, _, sut, port = _setups("cluster", workdir, args, pool[0], 1, False)
    try:
        outcomes, elapsed = drive(port, "/solve?scheduler=approx", pool[1:], LoadStats(), seconds=seconds)
        sut.finish(stop=True)
    except BaseException:
        sut.kill()
        raise
    ok = [o for o in outcomes if o.status == 200]
    return len(ok) / elapsed, percentile([o.latency_ms for o in ok], 0.50)


WORKLOADS = {"solve-large": solve_large, "serve-small": serve_small, "online-rolling": online_rolling}
QUALITY = ("mean_accuracy", "fr_gap_max", "on_time_share")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--capacity", action="store_true", help="serve-small only: measure the closed-loop capacity and exit"
    )
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"the program's sources are missing: {SRC}/repro")
    sys.path.insert(0, SRC)

    contract = load_contract()
    os.makedirs(RUNS, exist_ok=True)
    workdir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    if args.capacity:
        if args.workload != "serve-small":
            _fail("--capacity measures serve-small only")
        try:
            rps, p50 = serve_small_capacity(args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"capacity_rps": rps, "latency_p50_ms": p50, "rate_at_40pct": 0.4 * rps}))
        return
    try:
        measured = WORKLOADS[args.workload](args.seed, args.seconds, False, workdir)
        traced = WORKLOADS[args.workload](args.seed, args.seconds, True, workdir) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    quality = {name: measured.metrics[name][0] for name in QUALITY if name in measured.metrics}
    errors = measured.errors + check_quality_repeats(args.workload, args.seed, quality)
    audits = list(measured.audits)
    if traced is not None:
        errors += traced.errors
        audits += traced.audits
        if any(traced.metrics[n][0] != v for n, v in quality.items()):
            errors.append("quality differs between the untraced and the traced run")
    layer_metrics = {}
    if traced is not None:
        layer_metrics = report.layer_metrics(args.workload, traced, measured)
        errors += report.phase_mismatches(traced.trace)
    report.print_tables(args.workload, measured, layer_metrics, audits, errors)
    metrics = {}
    if args.trace:
        # A layer the workload never enters reads 0.
        for entry in contract["per_layer"]:
            value, _ = layer_metrics.get(entry["name"], (0.0, entry["unit"]))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in contract["end_to_end"]:
            metrics[entry["name"]] = {"value": measured.metrics[entry["name"]][0], "unit": entry["unit"]}
    correct = not audits and not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "metrics": metrics,
            }
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
