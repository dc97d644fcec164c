"""Deterministic, seeded chaos timelines.

A chaos campaign must be *reproducible*: the same seed has to produce
the same faults, against the same targets, in the same order — or a
failing soak run cannot be replayed and debugged.  :class:`ChaosSchedule`
is therefore a pure function of its parameters: a ``random.Random(seed)``
stream drives every choice (kind, shard, trigger point, magnitude) and
nothing else does.  Wall clocks never enter the timeline; every event
triggers on a deterministic *operation count* at its injection site
(the k-th solve window a shard handles, the k-th lease release, the k-th
rebalance cycle), so the fault interleaving is a property of the
workload, not of scheduler jitter.

Fault taxonomy
--------------

=====================  ======================  =================================
kind                   site                    effect
=====================  ======================  =================================
``worker_kill``        ``worker.window``       SIGKILL the shard worker process
``worker_exit``        ``worker.window``       worker exits cleanly, no ack
``worker_stall``       ``worker.window``       injected latency before solving
``reply_drop``         ``worker.window``       window solved, reply never sent
``journal_torn_write``  ``worker.window``      partial WAL record, then death
``lease_release_delay``  ``frontend.lease_release``  delay a crashed grant's release
``clock_skew``         ``ledger.rebalance``    skew the rebalance cadence
``arrival_burst``      ``frontend.submit``     synthetic best-effort arrival burst
=====================  ======================  =================================

``worker.window`` events count a shard's solve-window envelopes;
``frontend.lease_release`` counts grant releases on the shard's death
path; ``clock_skew`` counts rebalance cycles (shard-less: the ledger is
global); ``frontend.submit`` counts client submissions routed to the
shard, and an ``arrival_burst`` magnitude is the number of synthetic
best-effort requests injected — exercising AIMD admission and the
deadline check under a reproducible load spike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..utils.validation import require

__all__ = [
    "FAULT_KINDS",
    "WORKER_SITE",
    "RELEASE_SITE",
    "REBALANCE_SITE",
    "SUBMIT_SITE",
    "site_of",
    "ChaosEvent",
    "ChaosSchedule",
]

WORKER_SITE = "worker.window"
RELEASE_SITE = "frontend.lease_release"
REBALANCE_SITE = "ledger.rebalance"
SUBMIT_SITE = "frontend.submit"

#: kind -> (site, is_fatal_to_worker)
_KIND_TABLE: Dict[str, Tuple[str, bool]] = {
    "worker_kill": (WORKER_SITE, True),
    "worker_exit": (WORKER_SITE, True),
    "worker_stall": (WORKER_SITE, False),
    "reply_drop": (WORKER_SITE, False),
    "journal_torn_write": (WORKER_SITE, True),
    "lease_release_delay": (RELEASE_SITE, False),
    "clock_skew": (REBALANCE_SITE, False),
    "arrival_burst": (SUBMIT_SITE, False),
}

FAULT_KINDS: Tuple[str, ...] = tuple(_KIND_TABLE)

#: Magnitude ranges drawn per kind: stall and release-delay seconds,
#: signed rebalance skew seconds, and synthetic burst request counts.
STALL_SECONDS: Tuple[float, float] = (0.05, 0.4)
DELAY_SECONDS: Tuple[float, float] = (0.02, 0.2)
SKEW_SECONDS: Tuple[float, float] = (-0.5, 0.5)
BURST_REQUESTS: Tuple[int, int] = (3, 12)


def site_of(kind: str) -> str:
    """The injection site a fault kind fires at."""
    require(kind in _KIND_TABLE, f"unknown fault kind {kind!r}; known: {', '.join(FAULT_KINDS)}")
    return _KIND_TABLE[kind][0]


@dataclass(frozen=True)
class ChaosEvent:
    """One planned fault: *what* happens *where* on the *k-th* operation.

    ``at_op`` is 1-based: the event fires when its site's operation
    counter (for its shard) reaches ``at_op``.  ``magnitude`` is
    kind-specific — stall/delay seconds, or signed skew seconds.
    Instances are plain frozen data so they pickle across the process
    boundary into shard workers.
    """

    seq: int  #: position in the generated timeline (stable tiebreak)
    kind: str
    site: str
    shard: Optional[str]  #: target shard; ``None`` for global sites
    at_op: int
    magnitude: float = 0.0

    @property
    def fatal(self) -> bool:
        """Does this fault end the worker process?"""
        return _KIND_TABLE[self.kind][1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "site": self.site,
            "shard": self.shard,
            "at_op": self.at_op,
            "magnitude": self.magnitude,
        }

    def describe(self) -> str:
        target = self.shard if self.shard is not None else "<global>"
        extra = f" ({self.magnitude:+.3f}s)" if self.magnitude else ""
        return f"#{self.seq} {self.kind} @ {target} op {self.at_op}{extra}"


class ChaosSchedule:
    """A seeded, reproducible fault timeline over a shard topology.

    The same ``(seed, shards, kinds, n_events, max_op)`` always
    yields the identical event tuple — asserted by the test suite and
    relied on by ``repro chaos soak``'s replayable campaigns.  At most
    one *fatal* fault is planned per shard (a dead worker fires nothing
    further; restarted workers run chaos-free so campaigns terminate).
    """

    def __init__(
        self,
        seed: int,
        shards: Sequence[str],
        *,
        kinds: Sequence[str] = FAULT_KINDS,
        n_events: int = 8,
        max_op: int = 20,
    ):
        require(len(shards) >= 1, "a chaos schedule needs at least one shard")
        require(n_events >= 0, f"n_events must be >= 0, got {n_events}")
        require(max_op >= 1, f"max_op must be >= 1, got {max_op}")
        unknown = [k for k in kinds if k not in _KIND_TABLE]
        require(not unknown, f"unknown fault kind(s): {', '.join(map(repr, unknown))}")
        self.seed = int(seed)
        self.shards = tuple(str(s) for s in shards)
        self.kinds = tuple(kinds)
        rng = random.Random(self.seed)
        events: List[ChaosEvent] = []
        doomed: set = set()  # shards already assigned a fatal fault
        for seq in range(int(n_events)):
            kind = rng.choice(list(self.kinds))
            site, fatal = _KIND_TABLE[kind]
            shard: Optional[str] = None
            if site != REBALANCE_SITE:
                shard = rng.choice(list(self.shards))
                if fatal and shard in doomed:
                    kind, fatal = "worker_stall", False
                    site = WORKER_SITE
                if fatal:
                    doomed.add(shard)
            at_op = rng.randint(1, int(max_op))
            if kind in ("worker_stall",):
                magnitude = rng.uniform(*STALL_SECONDS)
            elif kind == "lease_release_delay":
                magnitude = rng.uniform(*DELAY_SECONDS)
            elif kind == "clock_skew":
                magnitude = rng.uniform(*SKEW_SECONDS)
            elif kind == "arrival_burst":
                magnitude = float(rng.randint(*BURST_REQUESTS))
            else:
                magnitude = 0.0
            events.append(
                ChaosEvent(seq=seq, kind=kind, site=site, shard=shard, at_op=at_op, magnitude=magnitude)
            )
        self.events: Tuple[ChaosEvent, ...] = tuple(events)

    @classmethod
    def from_events(cls, events: Sequence[ChaosEvent]) -> "ChaosSchedule":
        """A hand-crafted schedule (tests, targeted reproductions)."""
        schedule = cls.__new__(cls)
        schedule.seed = -1
        schedule.shards = tuple(sorted({e.shard for e in events if e.shard is not None}))
        schedule.kinds = tuple(sorted({e.kind for e in events}))
        schedule.events = tuple(events)
        return schedule

    def events_for(self, site: str, shard: Optional[str] = None) -> Tuple[ChaosEvent, ...]:
        """The events firing at one site (for one shard), by trigger order."""
        chosen = [
            e
            for e in self.events
            if e.site == site and (e.shard is None or shard is None or e.shard == shard)
        ]
        chosen.sort(key=lambda e: (e.at_op, e.seq))
        return tuple(chosen)

    def timeline(self) -> List[Dict[str, Any]]:
        """The full planned timeline as plain dicts (journal/report form)."""
        return [e.to_dict() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChaosSchedule) and self.events == other.events

    def __repr__(self) -> str:
        return (
            f"ChaosSchedule(seed={self.seed}, shards={len(self.shards)}, "
            f"events={len(self.events)})"
        )
