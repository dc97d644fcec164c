"""``repro top`` — a live terminal dashboard for a running cluster.

One screenful, refreshed in place, answering the operator's first
questions without leaving the terminal:

* **shard table** — per shard: up/down, restarts, solve throughput
  (qps, from the delta of solve-span counts between refreshes), queue
  delay p99, admit rate, and energy-lease utilization;
* **budget line** — global budget, total spend, rebalance count;
* **hottest phases** — the top-5 phases by span self time, merged
  across the front-end and every shard (``/debug/profile``).

Everything renders from three HTTP endpoints the front-end already
serves (``/health``, ``/metrics``, ``/debug/profile``) — the dashboard
is a pure client and works against any reachable cluster.  In loop mode
the screen repaints with ANSI clear/home and ``q`` quits; ``--once``
renders a single frame with no escape codes (scriptable, and what the
pty test drives).
"""

from __future__ import annotations

import io
import json
import select
import sys
import time
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ..telemetry import parse_prometheus
from ..utils.errors import ReproError

__all__ = ["ClusterTop", "run_top"]

_CLEAR = "\x1b[H\x1b[2J"


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1.0:
        return f"{value * 1000:.1f}ms"
    return f"{value:.2f}s"


def _fmt_pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.0%}"


class ClusterTop:
    """Poll a cluster front-end and render dashboard frames."""

    def __init__(self, base_url: str, *, interval: float = 1.0, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.interval = float(interval)
        self.timeout = float(timeout)
        #: previous (monotonic time, per-shard solve count) for qps deltas
        self._last_counts: Optional[Tuple[float, Dict[str, int]]] = None

    # -- data plane ------------------------------------------------------------

    def _get(self, path: str) -> bytes:
        with urllib.request.urlopen(self.base_url + path, timeout=self.timeout) as response:
            return response.read()

    def _solve_counts(self, metrics_text: str) -> Dict[str, int]:
        """Per-shard completed-solve counts from the exposition text."""
        counts: Dict[str, int] = {}
        for entry in parse_prometheus(metrics_text)["metrics"]:
            labels = entry.get("labels", {})
            if (
                entry.get("kind") == "histogram"
                and entry.get("name") == "span_duration_seconds"
                and labels.get("span") == "worker.solve"
                and "shard" in labels
            ):
                counts[labels["shard"]] = counts.get(labels["shard"], 0) + int(entry.get("count", 0))
        return counts

    def sample(self) -> Dict[str, Any]:
        """One poll of the cluster: health, qps deltas, hottest phases."""
        health = json.loads(self._get("/health"))
        counts = self._solve_counts(self._get("/metrics").decode())
        now = time.monotonic()
        qps: Dict[str, Optional[float]] = {shard: None for shard in counts}
        if self._last_counts is not None:
            then, previous = self._last_counts
            elapsed = max(now - then, 1e-9)
            for shard, count in counts.items():
                qps[shard] = max(count - previous.get(shard, 0), 0) / elapsed
        self._last_counts = (now, counts)
        profile = json.loads(self._get("/debug/profile"))
        return {"health": health, "qps": qps, "profile": profile}

    # -- rendering -------------------------------------------------------------

    def render(self, state: Dict[str, Any]) -> str:
        health = state["health"]
        qps = state["qps"]
        overload = health.get("overload", {})
        ledger = health.get("ledger", {})
        out = io.StringIO()
        out.write(
            f"repro top — {self.base_url}   status: {health.get('status', '?')}   "
            f"refresh: {self.interval:g}s   [q quits]\n\n"
        )
        out.write(
            f"{'SHARD':<12}{'STATE':<7}{'RESTARTS':<10}{'QPS':<8}"
            f"{'QUEUE P99':<12}{'ADMIT':<8}{'LEASE UTIL':<12}\n"
        )
        shard_overload = overload.get("shards", {})
        lease_rows = ledger.get("shards", {})
        for shard, shard_state in sorted(health.get("shards", {}).items()):
            signal = shard_overload.get(shard, {}).get("queue_delay", {})
            admit = shard_overload.get(shard, {}).get("admit_rate")
            lease = lease_rows.get(shard, {})
            util = None
            if lease.get("lease"):
                util = (lease.get("spent", 0.0) + lease.get("reserved", 0.0)) / lease["lease"]
            rate = qps.get(shard)
            out.write(
                f"{shard:<12}{shard_state:<7}"
                f"{health.get('restarts', {}).get(shard, 0):<10}"
                f"{('-' if rate is None else f'{rate:.1f}'):<8}"
                f"{_fmt_seconds(signal.get('sojourn_p99')):<12}"
                f"{_fmt_pct(admit):<8}"
                f"{_fmt_pct(util):<12}\n"
            )
        budget = ledger.get("budget")
        if budget is not None:
            spent = float(ledger.get("total_spent", 0.0))
            out.write(
                f"\nbudget: {budget:.1f} J   spent: {spent:.1f} J "
                f"({spent / budget:.1%})   rebalances: {ledger.get('rebalances', 0)}\n"
            )
        else:
            out.write("\nbudget: unbounded\n")
        hottest = state["profile"].get("merged", {}).get("hottest", [])
        out.write("\nHOTTEST PHASES (self seconds, cluster-wide)\n")
        if not hottest:
            out.write("  (no closed spans yet)\n")
        for row in hottest[:5]:
            out.write(
                f"  {row['phase']:<28}{row.get('self_seconds', 0.0):>10.3f}s"
                f"  ({int(row.get('count', 0))} span(s))\n"
            )
        phases = state["profile"].get("merged", {}).get("phases", {})
        out.write(
            f"\nspans: {sum(int(e.get('count', 0)) for e in phases.values())} closed across "
            f"{len(state['profile'].get('shards', {}))} shard(s) and the front-end\n"
        )
        return out.getvalue()

    # -- the loop --------------------------------------------------------------

    def run(self, *, once: bool = False, max_frames: Optional[int] = None, stream: Any = None) -> int:
        """Render frames until ``q``/EOF/interrupt; returns an exit code."""
        out = stream if stream is not None else sys.stdout
        frames = 0
        try:
            while True:
                frame = self.render(self.sample())
                if once:
                    out.write(frame)
                    out.flush()
                    return 0
                out.write(_CLEAR + frame)
                out.flush()
                frames += 1
                if max_frames is not None and frames >= max_frames:
                    return 0
                if self._wait_for_quit(self.interval):
                    return 0
        except KeyboardInterrupt:
            return 0
        except (OSError, ValueError, ReproError) as exc:
            out.write(f"repro top: {exc}\n")
            return 1

    @staticmethod
    def _wait_for_quit(interval: float) -> bool:
        """Sleep one refresh; ``True`` means the user pressed ``q``."""
        if not sys.stdin.isatty():
            time.sleep(interval)
            return False
        ready, _, _ = select.select([sys.stdin], [], [], interval)
        if not ready:
            return False
        pressed = sys.stdin.read(1)
        return pressed in ("q", "Q", "")


def run_top(
    base_url: str,
    *,
    interval: float = 1.0,
    once: bool = False,
    max_frames: Optional[int] = None,
    stream: Any = None,
) -> int:
    """CLI entry: run the dashboard, in cbreak mode when on a tty."""
    top = ClusterTop(base_url, interval=interval)
    if once or not sys.stdin.isatty():
        return top.run(once=once, max_frames=max_frames, stream=stream)
    try:
        import termios
        import tty
    except ImportError:  # pragma: no cover — non-POSIX terminal
        return top.run(max_frames=max_frames, stream=stream)
    fd = sys.stdin.fileno()
    saved = termios.tcgetattr(fd)
    try:
        tty.setcbreak(fd)  # unbuffered 'q', no Enter needed
        return top.run(max_frames=max_frames, stream=stream)
    finally:
        termios.tcsetattr(fd, termios.TCSADRAIN, saved)
