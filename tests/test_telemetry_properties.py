"""Property tests: telemetry snapshots survive every exporter round trip.

JSONL is lossless; the Prometheus exposition format is lossless
modulo what the format cannot carry (spans, histogram min/max).  Label
*values* are adversarial on purpose — quotes, newlines, commas and
backslashes are exactly what breaks naive text escaping.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observe.slo import _merged_histogram, histogram_quantile
from repro.telemetry import (
    MetricsRegistry,
    collector,
    read_jsonl,
    trace_scope,
    write_jsonl,
    write_prometheus,
    parse_prometheus,
    prometheus_text,
)

# Names must be Prometheus-safe so the .prom trip is comparable; the
# JSONL trip doesn't care but shares the strategy for simplicity.
names = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)
label_keys = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
# Hostile label values: quotes, commas, newlines, backslashes, equals,
# braces — everything the Prometheus escaper must cope with.
label_values = st.text(
    alphabet='abcXYZ0189 ",\n\\={}[]#\'', min_size=0, max_size=10
)
finite = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def registries(draw):
    """A registry with random counters, gauges, histograms and spans."""
    reg = MetricsRegistry()
    metric_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    for i, name in enumerate(metric_names):
        kind = draw(st.sampled_from(["counter", "gauge", "histogram"]))
        keys = draw(st.lists(label_keys, min_size=0, max_size=2, unique=True))
        for _ in range(draw(st.integers(1, 3))):
            labels = {k: draw(label_values) for k in keys}
            series_name = f"m{i}_{name}"  # kinds must not clash across names
            if kind == "counter":
                reg.counter(series_name, **labels).add(draw(finite))
            elif kind == "gauge":
                reg.gauge(series_name, **labels).set(draw(finite) - 5e11)
            else:
                hist = reg.histogram(series_name, buckets=(0.1, 1.0, 10.0), **labels)
                for value in draw(st.lists(finite, min_size=1, max_size=4)):
                    hist.observe(value)
    if draw(st.booleans()):
        with collector(reg), trace_scope("abcd1234abcd1234"):
            with reg.span("outer", note=draw(label_values)):
                with reg.span("inner"):
                    pass
    return reg


def canonical_metrics(snap, *, drop_extremes=False):
    """Order-independent, comparable rendering of the metric series."""
    out = []
    for m in snap["metrics"]:
        entry = dict(m)
        if drop_extremes:
            entry.pop("min", None)
            entry.pop("max", None)
        entry["labels"] = tuple(sorted(entry["labels"].items()))
        if entry.get("exemplar"):
            exemplar = entry["exemplar"]
            entry["exemplar"] = (float(exemplar["value"]), exemplar["trace_id"])
        if "buckets" in entry:
            entry["buckets"] = tuple(float(b) for b in entry["buckets"])
            entry["bucket_counts"] = tuple(int(c) for c in entry["bucket_counts"])
            entry["count"] = int(entry["count"])
            entry["sum"] = float(entry["sum"])
        else:
            entry["value"] = float(entry["value"])
        out.append(tuple(sorted(entry.items())))
    return sorted(out)


def canonical_spans(snap):
    out = []
    for s in snap["spans"]:
        entry = dict(s)
        entry["labels"] = tuple(sorted(entry["labels"].items()))
        out.append(tuple(sorted(entry.items())))
    return sorted(out)


@settings(max_examples=40, deadline=None)
@given(reg=registries())
def test_jsonl_round_trip_is_lossless(reg, tmp_path_factory):
    path = tmp_path_factory.mktemp("jsonl") / "metrics.jsonl"
    snap = reg.snapshot()
    write_jsonl(snap, path)
    loaded = read_jsonl(path)
    assert canonical_metrics(loaded) == canonical_metrics(snap)
    assert canonical_spans(loaded) == canonical_spans(snap)


@settings(max_examples=40, deadline=None)
@given(reg=registries())
def test_prometheus_round_trip_is_lossless_modulo_spans(reg, tmp_path_factory):
    path = tmp_path_factory.mktemp("prom") / "metrics.prom"
    snap = reg.snapshot()
    write_prometheus(snap, path)
    loaded = parse_prometheus(path)
    # Spans and histogram min/max cannot ride the exposition format.
    assert loaded["spans"] == []
    assert canonical_metrics(loaded, drop_extremes=True) == canonical_metrics(
        snap, drop_extremes=True
    )


BOUNDS = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(
    shard_obs=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            min_size=0,
            max_size=20,
        ),
        min_size=1,
        max_size=4,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_merged_shard_quantile_matches_concatenated_observations(shard_obs, q):
    """Merging N shard histograms then taking the quantile agrees with the
    quantile over the *concatenated* observations to within one bucket
    width (the histogram's irreducible resolution).  Observations above
    the top finite bound clamp to it, as ``histogram_quantile`` does."""
    reg = MetricsRegistry()
    for shard, observations in enumerate(shard_obs):
        hist = reg.histogram(
            "queue_delay_seconds", buckets=BOUNDS, shard=f"shard-{shard:02d}"
        )
        for value in observations:
            hist.observe(value)
    bounds, counts = _merged_histogram(reg.snapshot(), "queue_delay_seconds")
    estimate = histogram_quantile(q, bounds, counts)

    combined = sorted(min(v, BOUNDS[-1]) for obs in shard_obs for v in obs)
    if not combined:
        assert math.isnan(estimate)
        return
    rank = q * len(combined)
    index = min(max(math.ceil(rank) - 1, 0), len(combined) - 1)
    truth = combined[index]
    at = next(k for k, bound in enumerate(BOUNDS) if truth <= bound)
    width = BOUNDS[at] - (BOUNDS[at - 1] if at > 0 else 0.0)
    assert abs(estimate - truth) <= width + 1e-9


@settings(max_examples=20, deadline=None)
@given(value=label_values)
def test_prometheus_label_escaping_round_trips(value):
    reg = MetricsRegistry()
    reg.counter("escaped_total", v=value).inc()
    loaded = parse_prometheus(prometheus_text(reg))
    (metric,) = [m for m in loaded["metrics"] if m["name"] == "escaped_total"]
    assert metric["labels"]["v"] == value
    assert metric["value"] == 1.0
