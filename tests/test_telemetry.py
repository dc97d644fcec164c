"""The telemetry subsystem: registry semantics, activation, exporters,
the no-op fast path, and end-to-end CLI span collection."""

import json
import time

import pytest

from repro.cli import main
from repro.telemetry import (
    DEFAULT_BUCKETS,
    NOOP,
    MetricsRegistry,
    TelemetryError,
    active_collector,
    collector,
    detect_format,
    export_file,
    get_collector,
    load_file,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
    trace_scope,
    write_jsonl,
    write_prometheus,
)
from repro.utils.timing import Timer, repeat_call, time_call


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    counter = reg.counter("requests_total", path="/solve")
    counter.inc()
    counter.add(2)
    reg.counter("requests_total", path="/health").inc()
    reg.gauge("queue_depth").set(7)
    hist = reg.histogram("latency_seconds", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    with reg.span("outer", phase="demo"):
        with reg.span("inner"):
            pass
    return reg


class TestRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", kind="a")
        c.inc()
        c.add(2.5)
        assert c.value == 3.5
        # same name+labels -> same series; different label value -> new series
        assert reg.counter("hits_total", kind="a") is c
        assert reg.counter("hits_total", kind="b") is not c
        with pytest.raises(TelemetryError):
            c.add(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("temp")
        g.set(5.0)
        g.add(-2.0)
        assert g.value == 3.0

    def test_label_keys_must_be_consistent(self):
        reg = MetricsRegistry()
        reg.counter("x_total", solver="a")
        with pytest.raises(TelemetryError, match="label keys"):
            reg.counter("x_total", machine="b")

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("v")
        with pytest.raises(TelemetryError, match="already registered"):
            reg.gauge("v")

    def test_series_cardinality_overflow_degrades_not_raises(self):
        from repro.telemetry.registry import DROPPED_SERIES_METRIC, MAX_SERIES_PER_METRIC

        reg = MetricsRegistry()
        for i in range(MAX_SERIES_PER_METRIC):
            reg.counter("unbounded_total", i=i)
        # Past the cap: warn once, hand back a working detached series,
        # and count the drop — never raise on a hot path.
        with pytest.warns(RuntimeWarning, match="label combinations"):
            extra = reg.counter("unbounded_total", i="one too many")
        extra.inc()  # detached but functional
        assert extra.value == 1.0
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # second overflow must NOT warn again
            reg.counter("unbounded_total", i="two too many").inc()
        dropped = reg.counter(DROPPED_SERIES_METRIC, metric="unbounded_total")
        assert dropped.value == 2.0
        # The registered series are untouched and still retrievable.
        snap = reg.snapshot()
        names = [m["name"] for m in snap["metrics"]]
        assert names.count("unbounded_total") == MAX_SERIES_PER_METRIC
        assert DROPPED_SERIES_METRIC in names

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 50.0):
            h.observe(value)
        # bucket assignment: <=1.0, <=10.0, +Inf
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(56.5)
        assert h.mean == pytest.approx(56.5 / 4)
        assert (h.min, h.max) == (0.5, 50.0)
        assert h.cumulative_counts() == [2, 3, 4]

    def test_histogram_exemplar_tracks_worst_traced_observation(self):
        reg = MetricsRegistry()
        h = reg.histogram("delay", buckets=(1.0, 10.0))
        h.observe(99.0)  # no trace active: never an exemplar
        with trace_scope("trace-aa"):
            h.observe(2.0)
        with trace_scope("trace-bb"):
            h.observe(5.0)
        with trace_scope("trace-cc"):
            h.observe(1.0)  # smaller: keeps the worst
        assert (h.exemplar_value, h.exemplar_trace_id) == (5.0, "trace-bb")
        snap = reg.snapshot()
        (entry,) = [m for m in snap["metrics"] if m["name"] == "delay"]
        assert entry["exemplar"] == {"value": 5.0, "trace_id": "trace-bb"}

    def test_untraced_histogram_has_no_exemplar(self):
        reg = MetricsRegistry()
        reg.histogram("plain", buckets=(1.0,)).observe(0.5)
        (entry,) = reg.snapshot()["metrics"]
        assert "exemplar" not in entry

    def test_histogram_default_buckets_and_validation(self):
        reg = MetricsRegistry()
        assert reg.histogram("d").buckets == DEFAULT_BUCKETS
        with pytest.raises(TelemetryError):
            reg.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(TelemetryError):
            reg.histogram("empty", buckets=())

    def test_span_nesting_and_duration_histogram(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner", detail="x"):
                time.sleep(0.001)
        outer, inner = reg.spans
        assert (outer.name, outer.depth, outer.parent_id) == ("outer", 0, None)
        assert (inner.name, inner.depth, inner.parent_id) == ("inner", 1, outer.span_id)
        assert inner.duration >= 0.001
        assert outer.duration >= inner.duration
        assert reg.get("span_duration_seconds", span="inner").count == 1

    def test_timer_context(self):
        reg = MetricsRegistry()
        with reg.timer("phase_seconds", solver="x") as t:
            time.sleep(0.001)
        assert t.elapsed >= 0.001
        assert reg.get("phase_seconds", solver="x").count == 1

    def test_snapshot_shape(self):
        snap = sample_registry().snapshot()
        kinds = {m["kind"] for m in snap["metrics"]}
        assert kinds == {"counter", "gauge", "histogram"}
        assert len(snap["spans"]) == 2
        assert snap["spans"][1]["parent_id"] == snap["spans"][0]["span_id"]


class TestActivation:
    def test_noop_is_default(self):
        assert get_collector() is NOOP
        assert active_collector() is None

    def test_collector_activates_and_restores(self):
        with collector() as reg:
            assert get_collector() is reg
            assert active_collector() is reg
        assert get_collector() is NOOP

    def test_collector_nests(self):
        with collector() as outer:
            with collector() as inner:
                assert get_collector() is inner
            assert get_collector() is outer

    def test_existing_registry_can_be_activated(self):
        reg = MetricsRegistry()
        with collector(reg) as active:
            assert active is reg
            get_collector().counter("c").inc()
        assert reg.counter("c").value == 1

    def test_noop_accepts_all_calls(self):
        NOOP.counter("a", x=1).inc()
        NOOP.counter("a").add(3)
        NOOP.gauge("b").set(1.0)
        NOOP.histogram("c", buckets=(1,)).observe(2.0)
        with NOOP.span("s", k="v"):
            with NOOP.timer("t"):
                pass

    def test_noop_overhead_is_small(self):
        """The inactive path must stay near-free (acceptance criterion)."""
        iterations = 100_000

        start = time.perf_counter()
        for _ in range(iterations):
            tele = get_collector()
            tele.counter("x_total").inc()
            with tele.span("phase"):
                pass
        elapsed = time.perf_counter() - start
        # ~0.5 µs/op on commodity hardware; 10 µs is a 20x safety margin
        # against CI noise while still catching an accidentally-recording
        # default collector (which costs well over that).
        assert elapsed / iterations < 10e-6, f"no-op telemetry path too slow: {elapsed:.3f}s"


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        reg = sample_registry()
        path = write_jsonl(reg, tmp_path / "m.jsonl")
        assert read_jsonl(path) == reg.snapshot()

    def test_prometheus_round_trip(self, tmp_path):
        reg = sample_registry()
        path = write_prometheus(reg, tmp_path / "m.prom")
        back = {
            (m["name"], json.dumps(m["labels"], sort_keys=True)): m
            for m in parse_prometheus(path)["metrics"]
        }
        for m in reg.snapshot()["metrics"]:
            parsed = back[(m["name"], json.dumps(m["labels"], sort_keys=True))]
            assert parsed["kind"] == m["kind"]
            if m["kind"] == "histogram":
                assert parsed["buckets"] == m["buckets"]
                assert parsed["bucket_counts"] == m["bucket_counts"]
                assert parsed["count"] == m["count"]
                assert parsed["sum"] == pytest.approx(m["sum"])
            else:
                assert parsed["value"] == m["value"]

    def test_prometheus_text_shape(self):
        text = prometheus_text(sample_registry())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{path="/solve"} 3.0' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert "latency_seconds_count 4" in text

    def test_prometheus_exemplar_rides_its_bucket_line(self):
        reg = MetricsRegistry()
        h = reg.histogram("delay_seconds", buckets=(1.0, 10.0))
        with trace_scope("deadbeef01"):
            h.observe(5.0)  # falls in the le="10.0" bucket
        h.observe(0.5)
        text = prometheus_text(reg)
        lines = [line for line in text.splitlines() if "_bucket" in line]
        with_exemplar = [line for line in lines if "# {" in line]
        assert len(with_exemplar) == 1
        assert 'le="10.0"' in with_exemplar[0]
        assert '# {trace_id="deadbeef01"} 5' in with_exemplar[0]
        # And the parser reconstructs it.
        loaded = parse_prometheus(text)
        (entry,) = [m for m in loaded["metrics"] if m["name"] == "delay_seconds"]
        assert entry["exemplar"] == {"value": 5.0, "trace_id": "deadbeef01"}

    def test_format_detection_and_dispatch(self, tmp_path):
        assert detect_format("a.jsonl") == "jsonl"
        assert detect_format("a.csv") == "jsonl"  # no CSV exporter: the default
        assert detect_format("a.prom") == "prometheus"
        assert detect_format("a.unknown") == "jsonl"
        reg = sample_registry()
        for name in ("m.jsonl", "m.prom"):
            out = export_file(reg, tmp_path / name)
            loaded = load_file(out)
            assert loaded["metrics"], name
        with pytest.raises(TelemetryError):
            export_file(reg, tmp_path / "m.x", format="parquet")


class TestTimingIntegration:
    def test_timer_reports_into_active_collector(self):
        with collector() as reg:
            with Timer(metric="timed_seconds", solver="x") as t:
                time.sleep(0.001)
        series = reg.get("timed_seconds", solver="x")
        assert series.count == 1
        assert series.sum == pytest.approx(t.elapsed)

    def test_time_call_and_repeat_call_report(self):
        with collector() as reg:
            time_call(lambda: None, metric="call_seconds")
            repeat_call(lambda: None, repetitions=3, metric="call_seconds")
        assert reg.get("call_seconds").count == 4

    def test_timing_without_collector_is_untouched(self):
        with Timer() as t:
            pass
        assert t.elapsed >= 0
        result, elapsed = time_call(lambda: 42, metric="ignored_seconds")
        assert result == 42 and elapsed >= 0
        assert active_collector() is None


class TestInstrumentation:
    def test_solvers_emit_phase_spans(self):
        from repro.algorithms.approx import ApproxScheduler
        from repro.hardware import sample_uniform_cluster
        from repro.core.instance import ProblemInstance
        from repro.workloads import TaskGenConfig, generate_tasks

        cluster = sample_uniform_cluster(2, seed=0)
        tasks = generate_tasks(TaskGenConfig(n=6), cluster, seed=1)
        instance = ProblemInstance.with_beta(tasks, cluster, 0.5)
        with collector() as reg:
            ApproxScheduler().solve(instance)
        names = {s.name for s in reg.spans}
        for phase in (
            "approx.solve",
            "approx.round",
            "fractional.solve",
            "fractional.naive",
            "fractional.refine",
            "naive.segments",
            "naive.single_machine",
            "naive.water_fill",
        ):
            assert phase in names, phase
        assert reg.counter("solver_runs_total", solver="approx").value == 1
        # spans nest: fractional.solve sits under approx.solve
        by_id = {s.span_id: s for s in reg.spans}
        frac = next(s for s in reg.spans if s.name == "fractional.solve")
        assert by_id[frac.parent_id].name == "approx.solve"

    def test_cli_solve_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        assert main(["solve", "-n", "6", "-m", "2", "--seed", "3", "--metrics-out", str(out)]) == 0
        assert "telemetry written" in capsys.readouterr().out
        snap = load_file(out)
        kinds = {m["kind"] for m in snap["metrics"]}
        assert "counter" in kinds and "histogram" in kinds
        span_names = {s["name"] for s in snap["spans"]}
        assert {"fractional.naive", "fractional.refine", "approx.round"} <= span_names
        assert any(s["depth"] > 0 for s in snap["spans"])

    def test_cli_telemetry_inspection(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        assert main(["solve", "-n", "5", "-m", "2", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        assert main(["telemetry", str(out), "--spans", "5"]) == 0
        printed = capsys.readouterr().out
        assert "counters / gauges" in printed
        assert "histograms" in printed
        assert "spans" in printed
        assert "solver_runs_total" in printed

    def test_cli_compare_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(
            [
                "compare",
                "-n",
                "6",
                "-m",
                "2",
                "--schedulers",
                "approx",
                "edf-nocompression",
                "--metrics-out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# TYPE solver_runs_total counter" in text
        # The inspector must handle Prometheus files, whose histograms
        # carry no min/max (the exposition format has neither).
        capsys.readouterr()
        assert main(["telemetry", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "histograms" in printed

    def test_cli_telemetry_missing_file(self, tmp_path, capsys):
        code = main(["telemetry", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_telemetry_format_mismatch(self, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        assert main(["solve", "-n", "4", "-m", "2", "--metrics-out", str(out)]) == 0
        capsys.readouterr()
        code = main(["telemetry", str(out), "--format", "prometheus"])
        assert code == 2
        assert "does not parse as prometheus" in capsys.readouterr().err

    def test_planner_and_online_sim_emit_metrics(self, tmp_path):
        from repro.algorithms.approx import ApproxScheduler
        from repro.hardware import sample_uniform_cluster
        from repro.online.planner import RollingHorizonPlanner
        from repro.simulator.online_sim import OnlineSimulation
        from repro.workloads.arrivals import Request

        cluster = sample_uniform_cluster(2, seed=0)
        requests = [
            Request(arrival_time=0.1 * i, theta_per_tflop=0.5, slo_seconds=2.0) for i in range(6)
        ]
        planner = RollingHorizonPlanner(cluster, ApproxScheduler(), window_seconds=0.5)
        with collector() as reg:
            planner.run(requests)
        assert reg.counter("planner_requests_total").value == 6
        assert any(s.name == "planner.window" for s in reg.spans)
        # A journaled run is the same loop and emits the same family.
        with collector() as reg:
            planner.run_durable(requests, tmp_path, fsync="never")
        assert reg.counter("planner_requests_total").value == 6
        assert any(s.name == "planner.window" for s in reg.spans)

        sim = OnlineSimulation(cluster, ApproxScheduler(), window_seconds=0.5)
        with collector() as reg:
            sim.run(requests)
        assert reg.counter("online_sim_requests_total").value == 6
        assert reg.counter("sim_events_total").value > 0
        assert any(s.name == "online_sim.window.plan" for s in reg.spans)

    def test_server_metrics_endpoint(self):
        import threading
        import urllib.request

        from repro.server import make_server

        server = make_server(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/health") as resp:
                assert resp.status == 200
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as resp:
                text = resp.read().decode()
            assert "# TYPE server_requests_total counter" in text
            assert 'server_requests_total{path="/health"} 1.0' in text
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
