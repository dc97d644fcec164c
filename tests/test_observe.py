"""repro.observe tracing: trace identity, extraction, Perfetto export,
the HTML timeline, and trace ids surviving the exporter round trip."""

import json

import pytest

from repro.observe import (
    html_timeline,
    iter_trace_trees,
    start_trace,
    to_trace_events,
    trace_ids,
    trace_spans,
    valid_trace_id,
    write_html_timeline,
    write_trace_events,
)
from repro.telemetry import MetricsRegistry, collector, current_trace_id, load_file, export_file


def traced_registry(trace_id="deadbeefdeadbeef"):
    """A registry holding one three-span trace plus one untraced span."""
    reg = MetricsRegistry()
    with collector(reg):
        with reg.span("untraced"):
            pass
        with start_trace("request", trace_id=trace_id, path="/solve"):
            with reg.span("admission"):
                pass
            with reg.span("solve", scheduler="approx"):
                with reg.span("inner"):
                    pass
    return reg


class TestTraceIdentity:
    def test_start_trace_yields_valid_id(self):
        reg = MetricsRegistry()
        with collector(reg):
            with start_trace("t") as tid:
                assert valid_trace_id(tid) == tid
                assert current_trace_id() == tid
        assert current_trace_id() is None

    def test_nested_start_trace_reuses_active_id(self):
        reg = MetricsRegistry()
        with collector(reg):
            with start_trace("outer") as outer:
                with start_trace("inner") as inner:
                    assert inner == outer
        # Both spans exist, under the same trace.
        assert trace_ids(reg) == [outer]
        assert len(trace_spans(reg, outer)) == 2

    def test_explicit_trace_id_is_honoured(self):
        reg = MetricsRegistry()
        with collector(reg):
            with start_trace("t", trace_id="abcd1234") as tid:
                assert tid == "abcd1234"

    @pytest.mark.parametrize("bad", [None, "", "xyz", "abc", "no spaces!", "g" * 8, "a" * 65])
    def test_invalid_trace_ids_rejected(self, bad):
        assert valid_trace_id(bad) is None

    @pytest.mark.parametrize("good", ["abcd", "DEADbeef", "0123-4567-89ab", "f" * 64])
    def test_valid_trace_ids_accepted(self, good):
        assert valid_trace_id(good) == good

    def test_spans_carry_trace_id_and_nesting(self):
        reg = traced_registry("feed0000feed0000")
        spans = trace_spans(reg, "feed0000feed0000")
        assert [s["name"] for s in spans] == ["request", "admission", "solve", "inner"]
        assert all(s["trace_id"] == "feed0000feed0000" for s in spans)
        root = spans[0]
        assert root["parent_id"] is None
        assert spans[1]["parent_id"] == root["span_id"]
        assert spans[2]["parent_id"] == root["span_id"]
        assert spans[3]["parent_id"] == spans[2]["span_id"]
        # The untraced span is excluded from every trace view.
        assert all(s["name"] != "untraced" for s in trace_spans(reg))


class TestExtraction:
    def test_trace_ids_first_seen_order(self):
        reg = MetricsRegistry()
        with collector(reg):
            with start_trace("a", trace_id="aaaa0000"):
                pass
            with start_trace("b", trace_id="bbbb0000"):
                pass
        assert trace_ids(reg) == ["aaaa0000", "bbbb0000"]

    def test_works_on_snapshots_too(self):
        reg = traced_registry()
        snap = reg.snapshot()
        assert trace_ids(snap) == trace_ids(reg)
        assert trace_spans(snap, "deadbeefdeadbeef") == trace_spans(reg, "deadbeefdeadbeef")

    def test_registry_keeps_the_newest_spans(self, monkeypatch):
        from repro.telemetry import registry

        monkeypatch.setattr(registry, "MAX_SPANS", 4)
        reg = traced_registry()  # five spans: the untraced one is pushed out
        assert [s.name for s in reg.spans] == ["request", "admission", "solve", "inner"]
        assert reg.get("telemetry_spans_dropped_total").value == 1.0
        names = [s["name"] for s in trace_spans(reg, "deadbeefdeadbeef")]
        assert names == ["request", "admission", "solve", "inner"]
        with collector(reg):
            with start_trace("next", trace_id="feedfacefeedface"):
                pass
        assert reg.get("telemetry_spans_dropped_total").value == 2.0
        assert len(reg.snapshot()["spans"]) == 4
        names = [s["name"] for s in trace_spans(reg, "deadbeefdeadbeef")]
        assert names == ["admission", "solve", "inner"]

    def test_iter_trace_trees(self):
        reg = traced_registry()
        spans = trace_spans(reg, "deadbeefdeadbeef")
        trees = list(iter_trace_trees(spans))
        assert len(trees) == 1
        root, children = trees[0]
        assert root["name"] == "request"
        assert [c[0]["name"] for c in children] == ["admission", "solve"]
        solve_children = children[1][1]
        assert [c[0]["name"] for c in solve_children] == ["inner"]


class TestTraceEvents:
    def test_complete_events_with_microsecond_units(self):
        reg = traced_registry()
        spans = trace_spans(reg, "deadbeefdeadbeef")
        doc = to_trace_events(spans, trace_id="deadbeefdeadbeef")
        assert doc["otherData"]["trace_id"] == "deadbeefdeadbeef"
        assert len(doc["traceEvents"]) == 4
        for event, span in zip(doc["traceEvents"], spans):
            assert event["ph"] == "X"
            assert event["ts"] == pytest.approx(span["start"] * 1e6, abs=1e-2)
            assert event["dur"] == pytest.approx(span["duration"] * 1e6, abs=1e-2)
            assert event["args"]["span_id"] == span["span_id"]
            assert event["args"]["trace_id"] == "deadbeefdeadbeef"
        # Labels are carried through as string args.
        solve = next(e for e in doc["traceEvents"] if e["name"] == "solve")
        assert solve["args"]["scheduler"] == "approx"

    def test_write_trace_events_is_loadable_json(self, tmp_path):
        reg = traced_registry()
        spans = trace_spans(reg, "deadbeefdeadbeef")
        path = write_trace_events(spans, tmp_path / "trace.json", trace_id="deadbeefdeadbeef")
        doc = json.loads(path.read_text())
        assert {e["name"] for e in doc["traceEvents"]} == {"request", "admission", "solve", "inner"}

    def test_open_span_marked_unfinished(self):
        doc = to_trace_events(
            [
                {
                    "span_id": 0,
                    "parent_id": None,
                    "name": "open",
                    "depth": 0,
                    "start": 1.0,
                    "duration": None,
                    "labels": {},
                    "trace_id": "abcd",
                }
            ]
        )
        event = doc["traceEvents"][0]
        assert event["dur"] == 0.0
        assert event["args"]["unfinished"] is True


class TestExporterRoundTrip:
    @pytest.mark.parametrize("suffix", [".jsonl"])
    def test_trace_survives_export(self, tmp_path, suffix):
        reg = traced_registry("cafe1234cafe1234")
        path = export_file(reg, tmp_path / f"metrics{suffix}")
        snap = load_file(path)
        assert trace_ids(snap) == ["cafe1234cafe1234"]
        loaded = trace_spans(snap, "cafe1234cafe1234")
        original = trace_spans(reg, "cafe1234cafe1234")
        assert [s["name"] for s in loaded] == [s["name"] for s in original]
        assert [s["parent_id"] for s in loaded] == [s["parent_id"] for s in original]
        assert all(s["trace_id"] == "cafe1234cafe1234" for s in loaded)


class TestHtmlTimeline:
    def test_report_contains_spans_and_escapes(self, tmp_path):
        reg = MetricsRegistry()
        with collector(reg):
            with start_trace("request", trace_id="abcd0000"):
                with reg.span("solve", note="<script>alert(1)</script>"):
                    pass
        spans = trace_spans(reg, "abcd0000")
        html = html_timeline(spans, trace_id="abcd0000")
        assert "request" in html and "solve" in html
        assert "abcd0000" in html
        assert "<script>alert(1)</script>" not in html  # escaped
        assert "&lt;script&gt;" in html
        path = write_html_timeline(spans, tmp_path / "t.html", trace_id="abcd0000")
        assert path.read_text().startswith("<!DOCTYPE html>")
