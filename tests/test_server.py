"""The local HTTP scheduling service."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import instance_to_dict, schedule_from_dict
from repro.server import make_server

from conftest import make_instance, post_status_with_content_length


@pytest.fixture(scope="module")
def base_url():
    server = make_server()
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()


def get(url):
    return json.load(urllib.request.urlopen(url, timeout=10))


def post(url, payload):
    body = json.dumps(payload).encode()
    req = urllib.request.Request(url, data=body, method="POST")
    return json.load(urllib.request.urlopen(req, timeout=30))


class TestRoutes:
    def test_health(self, base_url):
        resp = get(base_url + "/health")
        assert resp["status"] == "ok"
        assert "version" in resp

    def test_schedulers(self, base_url):
        resp = get(base_url + "/schedulers")
        assert "approx" in resp["schedulers"]

    def test_unknown_path_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base_url + "/nope")
        assert err.value.code == 404


class TestSolve:
    def test_solve_roundtrip(self, base_url):
        inst = make_instance(n=5, m=2, beta=0.4, seed=610)
        resp = post(base_url + "/solve?scheduler=approx", instance_to_dict(inst))
        assert resp["feasible"]
        assert resp["scheduler"] == "DSCT-EA-APPROX"
        sched = schedule_from_dict(resp["schedule"], inst)
        assert sched.mean_accuracy == pytest.approx(resp["metrics"]["mean_accuracy"])
        assert sched.total_energy <= inst.budget * (1 + 1e-9)

    def test_default_scheduler(self, base_url):
        inst = make_instance(n=4, m=2, beta=0.5, seed=611)
        resp = post(base_url + "/solve", instance_to_dict(inst))
        assert resp["scheduler"] == "DSCT-EA-APPROX"

    def test_alternative_scheduler(self, base_url):
        inst = make_instance(n=4, m=2, beta=0.5, seed=612)
        resp = post(base_url + "/solve?scheduler=edf-nocompression", instance_to_dict(inst))
        assert resp["scheduler"] == "EDF-NOCOMPRESSION"

    def test_bad_json_400(self, base_url):
        req = urllib.request.Request(base_url + "/solve", data=b"{nope", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_negative_content_length_400(self, base_url):
        # rfile.read(-1) would read to EOF: the handler must refuse the
        # length instead of waiting for a client that never hangs up.
        port = int(base_url.rsplit(":", 1)[1])
        assert post_status_with_content_length(port, -1) == 400

    def test_short_body_408(self, base_url):
        # A body shorter than its Content-Length must time out on the
        # handler's socket, not wait for the client to hang up.
        port = int(base_url.rsplit(":", 1)[1])
        assert post_status_with_content_length(port, 10) == 408

    def test_bad_document_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base_url + "/solve", {"format": "something"})
        assert err.value.code == 400

    def test_unknown_scheduler_400(self, base_url):
        inst = make_instance(n=3, m=2, beta=0.5, seed=613)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(base_url + "/solve?scheduler=warpdrive", instance_to_dict(inst))
        assert err.value.code == 400

    def test_concurrent_requests(self, base_url):
        """ThreadingHTTPServer: parallel solves do not corrupt each other."""
        inst = make_instance(n=5, m=2, beta=0.4, seed=614)
        doc = instance_to_dict(inst)
        results = [None] * 4

        def worker(i):
            results[i] = post(base_url + "/solve", doc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        accs = {r["metrics"]["mean_accuracy"] for r in results}
        assert len(accs) == 1  # identical deterministic answers


class TestObservability:
    """The observe surfaces: trace propagation, /trace, /slo, /metrics."""

    def post_raw(self, url, payload, headers=None):
        body = json.dumps(payload).encode()
        req = urllib.request.Request(url, data=body, method="POST", headers=headers or {})
        return urllib.request.urlopen(req, timeout=30)

    def test_metrics_prometheus_content_type(self, base_url):
        resp = urllib.request.urlopen(base_url + "/metrics", timeout=10)
        assert resp.headers.get("Content-Type") == "text/plain; version=0.0.4; charset=utf-8"

    def test_response_carries_trace_id(self, base_url):
        inst = make_instance(n=3, m=2, beta=0.5, seed=620)
        resp = self.post_raw(base_url + "/solve", instance_to_dict(inst))
        trace_id = resp.headers.get("X-Repro-Trace-Id")
        payload = json.load(resp)
        assert trace_id  # minted server-side when the client sends none
        assert payload["trace_id"] == trace_id

    def test_inbound_trace_id_propagates(self, base_url):
        inst = make_instance(n=3, m=2, beta=0.5, seed=621)
        resp = self.post_raw(
            base_url + "/solve",
            instance_to_dict(inst),
            headers={"X-Repro-Trace-Id": "feedc0de12345678"},
        )
        assert resp.headers.get("X-Repro-Trace-Id") == "feedc0de12345678"

    def test_trace_endpoint_returns_nested_trace_events(self, base_url):
        inst = make_instance(n=3, m=2, beta=0.5, seed=622)
        self.post_raw(
            base_url + "/solve",
            instance_to_dict(inst),
            headers={"X-Repro-Trace-Id": "abad1dea00000001"},
        )
        doc = get(base_url + "/trace/abad1dea00000001")
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        by_name = {e["name"]: e for e in events}
        root = by_name["server.request"]
        assert root["args"]["parent_id"] is None
        for child in ("server.admission", "server.solve", "server.schedule"):
            assert by_name[child]["args"]["parent_id"] == root["args"]["span_id"]
        # The solver ran *inside* server.solve.
        solver = next(e for e in events if e["name"].endswith(".solve") and e["name"] != "server.solve")
        assert solver["args"]["depth"] > by_name["server.solve"]["args"]["depth"]

    def test_trace_endpoint_unknown_and_malformed(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base_url + "/trace/ffffffffffffffff")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            get(base_url + "/trace/not%20hex!")
        assert err.value.code == 400

    def test_slo_endpoint_unconfigured(self, base_url):
        doc = get(base_url + "/slo")
        assert doc["configured"] is False
        assert doc["ok"] is True  # vacuous

    def test_slo_endpoint_configured(self):
        from repro.observe import SLOSpec

        server = make_server(slo=SLOSpec(p99_solve_latency=30.0))
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{port}"
            inst = make_instance(n=3, m=2, beta=0.5, seed=623)
            post(url + "/solve", instance_to_dict(inst))
            doc = get(url + "/slo")
            assert doc["configured"] is True
            assert doc["ok"] is True
            latency = next(s for s in doc["objectives"] if s["objective"] == "p99_solve_latency")
            assert latency["actual"] is not None and latency["actual"] < 30.0
        finally:
            server.shutdown()
            server.server_close()
