"""The rolling-horizon serving loop; crash-safe and resumable when journaled.

:class:`DurableRun` is the library's one buffer-per-window serving loop
(:class:`~repro.online.planner.RollingHorizonPlanner` configures it).
With ``journal_dir=None`` it writes nothing.  Given a directory, every
step is journaled to a write-ahead log *before* it takes effect, state
is checkpointed every few windows, and a restarted run picks up exactly
where the crash left off:

1. the requests entering a window are journaled as one columnar
   ``arrivals`` record (ids, arrival times, SLOs, efficiencies);
2. the window's plan intent is journaled (``window_plan``) — a crash
   mid-solve leaves a plan without a commit, and the window is simply
   re-solved on resume;
3. the realised shares, per-task work caps and cumulative energy spend
   are journaled (``window_done``) — only then is the window *committed*.

The global budget ``B`` is paced: window ``k`` of ``K`` is granted
``min(cap, max(B − spent, 0) / (K − k))``, where ``cap`` is the
power-cap grant and ``spent`` the committed spend before it.  The
accuracy curves are concave in work, so an even spread of what is left
beats spending early and starving the last windows.  ``K`` is journaled
in the ``run_start`` metadata, and the spend is the recovered ledger,
so a resumed run derives the same grants.

A window costs two journal commits.  Its ``arrivals`` and
``window_plan`` records are one :meth:`JournalWriter.group
<repro.durability.journal.JournalWriter.group>`, committed before the
solve (nothing acts on them earlier); ``window_done`` is a lone append,
committed before the window returns.

Each ``window_done`` is encoded once.  The run keeps its payload bytes
(:attr:`DurableWindow.record`), and a snapshot splices them into the
canonical JSON of the state instead of re-encoding every committed
window, so a window's bookkeeping costs O(window), not O(run).

Because planning is deterministic given the instance (all seeds flow
through :mod:`repro.utils.rng` and every scheduler here is
deterministic), a resumed run replays committed windows from the
journal verbatim and re-solves the remainder into *bit-identical*
outcomes — the equivalence :mod:`repro.durability.crashtest` enforces.
JSON round-trips floats exactly (shortest-repr), so replayed energies
and accuracies compare equal with ``==``, not approximately.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..algorithms.base import Scheduler
from ..core.machine import Cluster
from ..core.serialization import cluster_to_dict
from ..online.planner import on_time_count, window_instance
from ..telemetry import ensure_trace, get_collector
from ..utils.errors import RecoveryError
from ..utils.validation import check_positive, require
from ..workloads.arrivals import Request, window_batches
from .journal import JournalWriter, encode_payload
from .recovery import RecoveredState, certify, recover
from .snapshot import SnapshotStore

__all__ = ["DurableWindow", "DurableReport", "DurableRun"]

_REQUEST_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500)
_ENERGY_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class DurableWindow:
    """One committed planning window (solved live or replayed)."""

    index: int
    start: float
    ids: tuple  #: request ids (position in the arrival-sorted stream), EDF order
    accuracies: tuple  #: realised per-request accuracy, EDF order
    flops: tuple  #: realised per-request work, EDF order
    on_time: int
    energy: float
    cum_energy: float  #: cumulative spend *after* this window (the ledger)
    replayed: bool = False  #: restored from the journal rather than solved
    #: the ``window_done`` payload (canonical JSON) that committed the window;
    #: empty when the run journals nothing
    record: bytes = field(default=b"", repr=False, compare=False)

    @property
    def n_requests(self) -> int:
        return len(self.ids)

    def _outcome_key(self) -> tuple:
        """Every field that defines the window's outcome, replay-invariant."""
        return (
            self.index,
            self.start,
            self.ids,
            self.accuracies,
            self.flops,
            self.on_time,
            self.energy,
            self.cum_energy,
        )

    def same_outcome(self, other: "DurableWindow") -> bool:
        """Exact outcome equality, ignoring how the window was obtained.

        Deliberately bit-exact on the float fields: deterministic resume
        promises the *identical* result, not a close one — tolerance here
        would mask replay divergence (the bug class crashtest exists for).
        """
        return self._outcome_key() == other._outcome_key()


@dataclass(frozen=True)
class DurableReport:
    """Aggregate outcome of a durable run (possibly spanning restarts)."""

    windows: tuple
    energy_budget: Optional[float]

    @property
    def n_requests(self) -> int:
        return sum(w.n_requests for w in self.windows)

    @property
    def mean_accuracy(self) -> float:
        n = self.n_requests
        if n == 0:
            return 0.0
        return sum(sum(w.accuracies) for w in self.windows) / n

    @property
    def on_time_fraction(self) -> float:
        n = self.n_requests
        if n == 0:
            return 0.0
        return sum(w.on_time for w in self.windows) / n

    @property
    def total_energy(self) -> float:
        return self.windows[-1].cum_energy if self.windows else 0.0

    @property
    def replayed_windows(self) -> int:
        return sum(w.replayed for w in self.windows)

    def same_outcome(self, other: "DurableReport") -> bool:
        """Window-by-window exact equality (the crash-test criterion)."""
        return len(self.windows) == len(other.windows) and all(
            a.same_outcome(b) for a, b in zip(self.windows, other.windows)
        )


class _NullJournal(contextlib.nullcontext):
    """The journal of a run that writes nothing (``journal_dir=None``)."""

    record_count = 0

    def append(self, event) -> None:
        pass


class DurableRun:
    """Window-by-window serving; journaled, snapshotted and resumable on request.

    ``journal_dir=None`` writes nothing.  An empty directory starts a
    fresh run; one holding a (possibly crash-truncated) journal is
    recovered, certified against the energy budget, and *continued* —
    committed windows are replayed from the log, the rest are solved.

    ``window_seconds`` and ``power_cap_fraction`` set the per-window
    grant (:attr:`window_budget`); ``energy_budget`` caps cumulative
    spend across *all* windows (and restarts — that is the point) and is
    paced evenly over the windows left, ``snapshot_every`` checkpoints
    state every N committed windows, ``fsync`` selects the journal's
    durability barrier (see :class:`~repro.durability.journal.JournalWriter`).
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        journal_dir: Optional[Union[str, Path]],
        *,
        window_seconds: float = 2.0,
        power_cap_fraction: float = 0.5,
        energy_budget: Optional[float] = None,
        snapshot_every: int = 5,
        fsync: str = "always",
        meta: Optional[Dict[str, Any]] = None,
    ):
        check_positive(window_seconds, "window_seconds")
        require(power_cap_fraction > 0, "power_cap_fraction must be > 0")
        require(snapshot_every >= 1, f"snapshot_every must be >= 1, got {snapshot_every}")
        if energy_budget is not None:
            check_positive(energy_budget, "energy_budget")
        self.cluster = cluster
        self.scheduler = scheduler
        self.journal_dir = None if journal_dir is None else Path(journal_dir)
        self.window_seconds = float(window_seconds)
        self.power_cap_fraction = float(power_cap_fraction)
        self.energy_budget = energy_budget
        self.snapshot_every = int(snapshot_every)
        self.fsync = fsync
        self.extra_meta = dict(meta or {})

    @property
    def window_budget(self) -> float:
        """Power-cap energy grant (J) per window, before global-budget pacing."""
        return self.power_cap_fraction * self.window_seconds * self.cluster.total_power

    def _run_meta(self, n_requests: int, n_windows: int) -> Dict[str, Any]:
        return {
            "scheduler": self.scheduler.name,
            "window_seconds": self.window_seconds,
            "power_cap_fraction": self.power_cap_fraction,
            "energy_budget": self.energy_budget,
            "n_requests": n_requests,
            "windows": n_windows,
            "machines": cluster_to_dict(self.cluster),
            **self.extra_meta,
        }

    @staticmethod
    def _check_meta(recovered: RecoveredState, meta: Dict[str, Any]) -> None:
        """A resumed run must be the *same* run, or determinism is fiction.

        The whole ``run_start`` metadata is compared, in journaled (JSON
        round-tripped) form, so the cluster and the caller's extra keys
        match their journaled copies exactly.
        """
        expected, have = json.loads(json.dumps(meta)), recovered.meta
        for key in [*expected, *(k for k in have if k not in expected)]:
            if have.get(key) != expected.get(key):
                raise RecoveryError(
                    f"journal was written by a different run: {key} is {have.get(key)!r}, "
                    f"this run has {expected.get(key)!r}"
                )

    @staticmethod
    def _window(data: Dict[str, Any], *, replayed: bool, record: bytes) -> DurableWindow:
        """The window the ``window_done`` ``data``, encoded as ``record``, commits."""
        return DurableWindow(
            index=int(data["window"]),
            start=float(data["start"]),
            ids=tuple(int(i) for i in data["ids"]),
            accuracies=tuple(float(a) for a in data["accuracies"]),
            flops=tuple(float(f) for f in data["flops"]),
            on_time=int(data["on_time"]),
            energy=float(data["energy"]),
            cum_energy=float(data["cum_energy"]),
            replayed=replayed,
            record=record,
        )

    def run(self, requests: Sequence[Request]) -> DurableReport:
        """Serve the stream under one trace; a journaled run resumes from its journal."""
        ordered = sorted(requests, key=lambda r: r.arrival_time)
        ids = {id(r): i for i, r in enumerate(ordered)}
        batches = list(window_batches(ordered, self.window_seconds))
        tele = get_collector()
        journaled = self.journal_dir is not None
        journal = JournalWriter(self.journal_dir, fsync=self.fsync) if journaled else _NullJournal()

        with ensure_trace(), tele.span("planner.run"), journal:
            store = SnapshotStore(self.journal_dir, fsync=self.fsync != "never") if journaled else None
            windows: List[DurableWindow] = []
            cum_energy = 0.0
            next_window = 0
            # A run that writes nothing needs no metadata to write.
            meta = self._run_meta(len(ordered), len(batches)) if journaled else None

            if journal.record_count > 0:
                recovered = certify(recover(self.journal_dir), budget=self.energy_budget)
                self._check_meta(recovered, meta)
                windows = [self._window(w, replayed=True, record=encode_payload(w)) for w in recovered.windows]
                cum_energy = recovered.energy_spent
                next_window = recovered.next_window
                journal.append(
                    {
                        "type": "resume",
                        "next_window": next_window,
                        "recovered_records": recovered.total_records,
                        "recovered_energy": cum_energy,
                    }
                )
                tele.counter("durable_resumes_total").inc()
            else:
                journal.append({"type": "run_start", "meta": meta})

            # Windows before next_window committed before the crash and were
            # replayed above.
            for index in range(next_window, len(batches)):
                start, batch = batches[index]
                with tele.span("planner.window", window=str(index)):
                    _, window = self._plan_window(journal, index, start, batch, ids, cum_energy, len(batches) - index)
                cum_energy = window.cum_energy
                windows.append(window)
                tele.counter("planner_windows_total").inc()
                tele.counter("planner_requests_total").add(window.n_requests)
                tele.counter("planner_on_time_total").add(window.on_time)
                tele.counter("planner_accuracy_total").add(sum(window.accuracies))
                tele.histogram("planner_window_requests", buckets=_REQUEST_BUCKETS).observe(window.n_requests)
                tele.histogram("planner_window_energy_joules", buckets=_ENERGY_BUCKETS).observe(window.energy)
                if store is not None and (index + 1) % self.snapshot_every == 0:
                    # The state's canonical JSON, spliced: "windows" sorts
                    # after the other keys, and each window is its record.
                    head = encode_payload({"cum_energy": cum_energy, "meta": meta})
                    state = head[:-1] + b',"windows":[' + b",".join(w.record for w in windows) + b"]}"
                    store.save(state, journal_records=journal.record_count)

            journal.append({"type": "run_end", "windows": len(windows), "cum_energy": cum_energy})
        return DurableReport(tuple(windows), self.energy_budget)

    # -- one window ------------------------------------------------------------

    def _plan_window(
        self,
        journal: JournalWriter,
        index: int,
        start: float,
        batch: List[Request],
        ids: Dict[int, int],
        cum_energy: float,
        windows_left: int,
    ):
        tele = get_collector()
        grant = self.window_budget
        if self.energy_budget is not None:
            grant = min(grant, max(self.energy_budget - cum_energy, 0.0) / windows_left)
        order, instance = window_instance(batch, start, self.cluster, grant)
        ordered_ids = [ids[id(batch[i])] for i in order]

        # A window with no grant left is shed whole, but still committed
        # so the ledger stays contiguous across restarts.
        solve = grant > 0.0
        journaled = self.journal_dir is not None
        # One commit for the pre-solve records: recovery acts on neither
        # of them, so they only need to be durable before the solve starts.
        if journaled:
            with journal.group():
                journal.append(
                    {
                        "type": "arrivals",
                        "window": index,
                        "ids": [ids[id(request)] for request in batch],
                        "t": [request.arrival_time for request in batch],
                        "slo": [request.slo_seconds for request in batch],
                        "theta": [request.theta_per_tflop for request in batch],
                    }
                )
                if solve:
                    journal.append(
                        {"type": "window_plan", "window": index, "start": start, "ids": ordered_ids, "grant": grant}
                    )

        flops, accuracies = np.zeros(len(batch)), np.zeros(len(batch))
        on_time, energy = 0, 0.0
        if solve:
            with tele.span("planner.window.solve"):
                schedule = self.scheduler.solve(instance)
            flops, accuracies = schedule.task_flops, schedule.task_accuracies
            on_time = on_time_count(schedule, instance.tasks.deadlines)
            energy = float(schedule.total_energy)
        else:
            tele.counter("durable_exhausted_windows_total").inc()
        done = {
            "type": "window_done",
            "window": index,
            "start": start,
            "ids": ordered_ids,
            "thetas": [batch[i].theta_per_tflop for i in order],
            "deadlines": instance.tasks.deadlines.tolist(),
            "flops": flops.tolist(),
            "accuracies": accuracies.tolist(),
            "caps": instance.tasks.f_max.tolist(),
            "shed": [] if solve else ordered_ids,
            "on_time": on_time,
            "energy": energy,
            "cum_energy": cum_energy + energy,
        }
        record = b""
        if journaled:
            record = encode_payload(done)
            journal.append(record)
        return done, self._window(done, replayed=False, record=record)
