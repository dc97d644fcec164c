"""Serialize a metrics registry — JSON-lines and Prometheus text.

Both exporters work from the plain-data
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` shape and
each has a matching parser, so a written file reads back to the same
snapshot (Prometheus, a metrics-only wire format, round-trips every
counter/gauge/histogram but drops spans and histogram min/max).

Every writer renders the full document in memory and publishes it with
:func:`repro.utils.fileio.atomic_write` (temp file + fsync + rename), so
a crash mid-export leaves either the previous file or the new one —
never a truncated half-written export.

Format is normally inferred from the file suffix via
:func:`export_file` / :func:`load_file`:

========================  ==========
suffix                    format
========================  ==========
``.jsonl`` / ``.json``    JSON-lines
``.prom`` / ``.txt``      Prometheus
========================  ==========
"""

from __future__ import annotations

import io
import json
import re
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..utils.fileio import atomic_write
from .registry import MetricsRegistry, TelemetryError

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "write_prometheus",
    "parse_prometheus",
    "export_file",
    "load_file",
    "detect_format",
]

Snapshot = Dict[str, list]

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$")
# OpenMetrics exemplar suffix (` # {trace_id="..."} 0.42`).  Stripped
# *before* the line regex runs.  The labelset must be well-formed
# `key="escaped"` pairs — label *values* in the main labelset may contain
# `#`/`{`/`}` unescaped but never a bare `"`, so this cannot fire inside
# one.
_PROM_EXEMPLAR_RE = re.compile(
    r"\s+#\s+\{(?P<labels>[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*)\}\s+(?P<value>\S+)$"
)
_PROM_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _snap(source: Union[MetricsRegistry, Snapshot]) -> Snapshot:
    return source.snapshot() if isinstance(source, MetricsRegistry) else source


# -- JSON-lines ------------------------------------------------------------------


def write_jsonl(source: Union[MetricsRegistry, Snapshot], path: Union[str, Path]) -> Path:
    """One JSON object per metric series and per span."""
    snap = _snap(source)
    out = io.StringIO()
    for entry in snap["metrics"]:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    for span in snap["spans"]:
        out.write(json.dumps({"kind": "span", **span}, sort_keys=True) + "\n")
    return atomic_write(path, out.getvalue())


def read_jsonl(path: Union[str, Path]) -> Snapshot:
    """Parse a JSON-lines export back into a snapshot."""
    metrics: List[dict] = []
    spans: List[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        if entry.get("kind") == "span":
            entry.pop("kind")
            spans.append(entry)
        else:
            metrics.append(entry)
    return {"metrics": metrics, "spans": spans}


# -- Prometheus text format ------------------------------------------------------


def _prom_name(name: str) -> str:
    name = _PROM_NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    parts = []
    for key in sorted(merged):
        value = str(merged[key]).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{_prom_name(key)}="{value}"')
    return "{" + ",".join(parts) + "}"


def _prom_float(value: float) -> str:
    return repr(float(value))


def write_prometheus(source: Union[MetricsRegistry, Snapshot], path: Union[str, Path]) -> Path:
    """Prometheus exposition text (metrics only; spans are not exported)."""
    return atomic_write(path, prometheus_text(source))


def _exemplar_suffix(entry: dict, bucket_index: int, n_bounds: int) -> str:
    """OpenMetrics exemplar suffix for the bucket line it falls in."""
    exemplar = entry.get("exemplar")
    if not exemplar:
        return ""
    value = float(exemplar["value"])
    target = min(bisect_left(entry["buckets"], value), n_bounds)
    if target != bucket_index:
        return ""
    labels = _prom_labels({"trace_id": exemplar["trace_id"]})
    return f" # {labels} {_prom_float(value)}"


def prometheus_text(source: Union[MetricsRegistry, Snapshot]) -> str:
    """Render the snapshot in Prometheus text exposition format.

    Series are emitted sorted by metric name then label items, so output
    is deterministic regardless of registration order (stable diffs,
    golden tests).  Histogram exemplars ride the bucket line containing
    the exemplar observation, OpenMetrics-style.
    """
    snap = _snap(source)
    out = io.StringIO()
    typed: set = set()
    ordered = sorted(
        snap["metrics"], key=lambda e: (e["name"], sorted(e["labels"].items()))
    )
    for entry in ordered:
        name = _prom_name(entry["name"])
        labels = entry["labels"]
        if name not in typed:
            out.write(f"# TYPE {name} {entry['kind']}\n")
            typed.add(name)
        if entry["kind"] == "histogram":
            n_bounds = len(entry["buckets"])
            cumulative = 0
            for k, (bound, count) in enumerate(zip(entry["buckets"], entry["bucket_counts"])):
                cumulative += count
                out.write(
                    f"{name}_bucket{_prom_labels(labels, {'le': _prom_float(bound)})} "
                    f"{cumulative}{_exemplar_suffix(entry, k, n_bounds)}\n"
                )
            cumulative += entry["bucket_counts"][-1]
            out.write(
                f'{name}_bucket{_prom_labels(labels, {"le": "+Inf"})} '
                f"{cumulative}{_exemplar_suffix(entry, n_bounds, n_bounds)}\n"
            )
            out.write(f"{name}_sum{_prom_labels(labels)} {_prom_float(entry['sum'])}\n")
            out.write(f"{name}_count{_prom_labels(labels)} {entry['count']}\n")
        else:
            out.write(f"{name}{_prom_labels(labels)} {_prom_float(entry['value'])}\n")
    return out.getvalue()


def _parse_prom_labels(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    for match in _PROM_LABEL_RE.finditer(text):
        value = match.group("value")
        value = value.replace(r"\n", "\n").replace(r"\"", '"').replace(r"\\", "\\")
        labels[match.group("key")] = value
    return labels


def parse_prometheus(path_or_text: Union[str, Path]) -> Snapshot:
    """Parse exposition text (a path or the text itself) into a snapshot.

    Histograms are re-assembled from their ``_bucket``/``_sum``/``_count``
    series; spans and histogram min/max are not part of the wire format.
    """
    if isinstance(path_or_text, Path) or "\n" not in str(path_or_text) and Path(str(path_or_text)).exists():
        text = Path(path_or_text).read_text(encoding="utf-8")
    else:
        text = str(path_or_text)

    kinds: Dict[str, str] = {}
    scalars: List[dict] = []
    # histogram assembly: (name, labels-json) -> partial entry
    partial: Dict[tuple, dict] = {}

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                kinds[parts[2]] = parts[3]
            continue
        exemplar = None
        exemplar_match = _PROM_EXEMPLAR_RE.search(line)
        if exemplar_match is not None:
            exemplar = {
                "value": float(exemplar_match.group("value")),
                "trace_id": _parse_prom_labels(exemplar_match.group("labels")).get("trace_id"),
            }
            line = line[: exemplar_match.start()]
        match = _PROM_LINE_RE.match(line)
        if not match:
            raise TelemetryError(f"unparseable Prometheus line: {line!r}")
        name = match.group("name")
        labels = _parse_prom_labels(match.group("labels"))
        value = float(match.group("value").replace("+Inf", "inf"))
        base, suffix = name, None
        for cand in ("_bucket", "_sum", "_count"):
            if name.endswith(cand) and kinds.get(name[: -len(cand)]) == "histogram":
                base, suffix = name[: -len(cand)], cand
                break
        if suffix is None:
            scalars.append(
                {"kind": kinds.get(name, "gauge"), "name": name, "labels": labels, "value": value}
            )
            continue
        le = labels.pop("le", None)
        key = (base, json.dumps(labels, sort_keys=True))
        entry = partial.setdefault(
            key,
            {"kind": "histogram", "name": base, "labels": labels, "buckets": [], "cumulative": []},
        )
        if suffix == "_bucket":
            if le != "+Inf":
                entry["buckets"].append(float(le))
            entry["cumulative"].append(int(value))
            if exemplar is not None:
                entry["exemplar"] = exemplar
        elif suffix == "_sum":
            entry["sum"] = value
        else:
            entry["count"] = int(value)

    metrics: List[dict] = list(scalars)
    for entry in partial.values():
        cumulative = entry.pop("cumulative")
        counts = [cumulative[0]] if cumulative else []
        counts.extend(b - a for a, b in zip(cumulative, cumulative[1:]))
        entry["bucket_counts"] = counts
        entry.setdefault("sum", 0.0)
        entry.setdefault("count", cumulative[-1] if cumulative else 0)
        metrics.append(entry)
    return {"metrics": metrics, "spans": []}


# -- auto-dispatch ---------------------------------------------------------------

_FORMATS = {
    ".jsonl": "jsonl",
    ".json": "jsonl",
    ".prom": "prometheus",
    ".txt": "prometheus",
    ".prometheus": "prometheus",
}


def detect_format(path: Union[str, Path]) -> str:
    """Map a file suffix to an exporter name (default: jsonl)."""
    return _FORMATS.get(Path(path).suffix.lower(), "jsonl")


def export_file(
    source: Union[MetricsRegistry, Snapshot], path: Union[str, Path], format: Optional[str] = None
) -> Path:
    """Write ``source`` to ``path`` in ``format`` (inferred when omitted)."""
    fmt = format or detect_format(path)
    if fmt == "jsonl":
        return write_jsonl(source, path)
    if fmt == "prometheus":
        return write_prometheus(source, path)
    raise TelemetryError(f"unknown telemetry export format {fmt!r}")


def load_file(path: Union[str, Path], format: Optional[str] = None) -> Snapshot:
    """Read ``path`` back into a snapshot (format inferred when omitted)."""
    fmt = format or detect_format(path)
    if fmt == "jsonl":
        return read_jsonl(path)
    if fmt == "prometheus":
        return parse_prometheus(Path(path))
    raise TelemetryError(f"unknown telemetry export format {fmt!r}")
