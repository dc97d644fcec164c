"""The global energy budget B, split into per-shard leases.

The paper's DSCT-EA model has *one* budget ``B``; a sharded cluster has
many spenders.  The ledger preserves the global guarantee by
apportioning ``B`` into per-shard **leases** and enforcing, at all
times and for every interleaving of operations::

    for every shard s:   spent_s + reserved_s <= lease_s
    globally:            sum(lease_s) <= B

Since realised spend never exceeds its reservation, the two lines
compose into the paper's invariant — ``sum(spent_s) <= B`` at every
prefix of cluster history, no matter how shard spends interleave.

The spend protocol is reserve/commit: the front-end *reserves* headroom
from a shard's lease before dispatching a batch (the grant caps what
the worker may burn), the worker solves within the grant, and the
actual spend is *committed* back (releasing the unused remainder).  A
worker that dies mid-window has its grant *released* — reserved but
unspent energy returns to the lease, so a crash never leaks budget.

:meth:`EnergyLeaseLedger.rebalance` is the elasticity: unspent,
unreserved headroom is pooled and re-granted in proportion to each
shard's spend since the previous rebalance (demand-weighted, with an
equal-share floor so an idle shard is never starved to zero).  The
rebalance moves only *free* headroom and therefore preserves both
invariant lines by construction.

Every shard worker additionally journals its spends to its own
write-ahead log; :func:`audit_cluster` recovers each shard ledger with
:mod:`repro.durability` and certifies the per-shard chains plus the
global ``sum(spent) <= B`` — the durable proof of the split.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..durability.journal import read_events
from ..durability.recovery import audit as durability_audit
from ..durability.recovery import recover
from ..telemetry import get_collector
from ..utils.errors import ValidationError
from ..utils.validation import check_nonnegative, check_positive, require

__all__ = ["ShardLease", "EnergyLeaseLedger", "ClusterAudit", "audit_cluster"]

#: Relative slack for float comparisons on energy sums.
_REL_TOL = 1e-9


def _tol(reference: float) -> float:
    return _REL_TOL * max(abs(reference), 1.0)


@dataclass
class ShardLease:
    """One shard's slice of the global budget (mutable ledger row)."""

    shard: str
    lease: float  #: the shard's cap (J); spent + reserved never exceed it
    spent: float = 0.0  #: committed spend (J), monotone
    reserved: float = 0.0  #: granted but not yet committed (J)
    spent_since_rebalance: float = 0.0  #: demand signal for the rebalance
    denied: int = 0  #: reservations clipped to zero by an exhausted lease
    epoch: int = 0  #: fencing token; bumped on every shard restart

    @property
    def headroom(self) -> float:
        """Free lease capacity: what a new reservation may take."""
        return max(self.lease - self.spent - self.reserved, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "lease": self.lease,
            "spent": self.spent,
            "reserved": self.reserved,
            "headroom": self.headroom,
            "denied": self.denied,
            "epoch": self.epoch,
        }


class EnergyLeaseLedger:
    """Thread-safe apportionment of the global budget across shards.

    ``budget=None`` disables enforcement (every reservation is granted
    in full) — the cluster then behaves like independent servers.
    """

    def __init__(
        self,
        budget: Optional[float],
        shard_ids: Sequence[str],
        *,
        min_share: float = 0.05,
    ):
        require(len(shard_ids) >= 1, "ledger needs at least one shard")
        require(len(set(shard_ids)) == len(shard_ids), "shard ids must be unique")
        require(0.0 <= min_share <= 1.0 / len(shard_ids), "min_share must fit every shard")
        if budget is not None:
            check_positive(budget, "budget")
        self.budget = None if budget is None else float(budget)
        self.min_share = float(min_share)
        self._lock = threading.Lock()
        initial = (self.budget or 0.0) / len(shard_ids)
        self._shards: Dict[str, ShardLease] = {
            str(s): ShardLease(shard=str(s), lease=initial) for s in shard_ids
        }
        self.rebalances = 0
        self.stale_commits = 0  #: stale-epoch commits/releases rejected, total

    # -- the spend protocol ----------------------------------------------------

    def _row(self, shard: str) -> ShardLease:
        try:
            return self._shards[shard]
        except KeyError:
            raise ValidationError(f"unknown shard {shard!r}") from None

    def reserve(self, shard: str, amount: float) -> float:
        """Claim up to ``amount`` J of the shard's headroom; returns the grant.

        The grant may be smaller than asked (down to 0.0 on an exhausted
        lease) — the caller dispatches with whatever it got and the
        worker sheds past it.
        """
        check_nonnegative(amount, "amount")
        with self._lock:
            row = self._row(shard)
            if self.budget is None:
                return float(amount)
            grant = min(float(amount), row.headroom)
            row.reserved += grant
            if grant <= 0.0 < amount:
                row.denied += 1
                get_collector().counter("lease_denials_total", shard=shard).inc()
            return grant

    def commit(self, shard: str, grant: float, spend: float, *, epoch: Optional[int] = None) -> bool:
        """Settle a reservation: record ``spend`` and release the remainder.

        ``epoch`` fences zombies: a commit carrying an epoch older than
        the shard's current one belongs to a worker generation that was
        declared dead (its reservations were dropped and its journalled
        spend re-absorbed by recovery) — applying it would double-spend.
        Stale commits are rejected, counted, and reported by returning
        ``False``; current-epoch commits apply and return ``True``.
        """
        check_nonnegative(grant, "grant")
        check_nonnegative(spend, "spend")
        if spend > grant + _tol(grant):
            raise ValidationError(
                f"shard {shard!r} spent {spend!r} J against a {grant!r} J grant — "
                "the worker overran its lease"
            )
        with self._lock:
            row = self._row(shard)
            if epoch is not None and epoch != row.epoch:
                self.stale_commits += 1
                stale = True
            else:
                stale = False
                row.spent += float(spend)
                row.spent_since_rebalance += float(spend)
                if self.budget is not None:
                    row.reserved = max(row.reserved - float(grant), 0.0)
        if stale:
            get_collector().counter("lease_stale_commits_total", shard=shard).inc()
            return False
        get_collector().counter("lease_commits_total", shard=shard).inc()
        return True

    def release(self, shard: str, grant: float, *, epoch: Optional[int] = None) -> None:
        """Return an entire unspent grant (worker died before committing).

        A stale-epoch release is a no-op: the epoch bump that fenced the
        grant already dropped every reservation of its generation.
        """
        check_nonnegative(grant, "grant")
        if self.budget is None:
            return
        with self._lock:
            row = self._row(shard)
            if epoch is not None and epoch != row.epoch:
                self.stale_commits += 1
                return
            row.reserved = max(row.reserved - float(grant), 0.0)

    # -- epoch fencing -----------------------------------------------------------

    def epoch_of(self, shard: str) -> int:
        """The shard's current lease epoch (stamp reservations with it)."""
        with self._lock:
            return self._row(shard).epoch

    def bump_epoch(self, shard: str) -> int:
        """Fence a shard generation: next epoch, all its reservations dropped.

        Called when a shard worker is declared dead, *before* its
        replacement starts.  Every outstanding grant of the old epoch is
        returned to the lease in one step; any commit or release that
        later arrives from the fenced generation is rejected by its
        stale epoch — a restarted shard's stale grants can never
        double-spend.
        """
        with self._lock:
            row = self._row(shard)
            row.epoch += 1
            row.reserved = 0.0
            epoch = row.epoch
        get_collector().counter("lease_epoch_bumps_total", shard=shard).inc()
        return epoch


    # -- rebalancing -----------------------------------------------------------

    def rebalance(self) -> Dict[str, float]:
        """Reclaim free headroom and re-grant it demand-weighted.

        Each lease shrinks to its committed floor (``spent + reserved``)
        and the pooled free energy is redistributed: a ``min_share``
        equal slice each, the rest proportional to spend since the last
        rebalance.  Returns the new lease map.  Both ledger invariants
        are preserved because only free headroom moves.
        """
        with self._lock:
            if self.budget is None:
                return {s: math.inf for s in self._shards}
            rows = list(self._shards.values())
            pool = sum(row.headroom for row in rows)
            demand_total = sum(row.spent_since_rebalance for row in rows)
            floor = self.min_share * pool
            flexible = pool - floor * len(rows)
            for row in rows:
                if demand_total > 0.0:
                    share = flexible * (row.spent_since_rebalance / demand_total)
                else:
                    share = flexible / len(rows)
                row.lease = row.spent + row.reserved + floor + share
                row.spent_since_rebalance = 0.0
            self.rebalances += 1
            leases = {row.shard: row.lease for row in rows}
        get_collector().counter("lease_rebalances_total").inc()
        return leases

    # -- inspection / invariants -----------------------------------------------

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shards)

    @property
    def total_spent(self) -> float:
        with self._lock:
            return sum(row.spent for row in self._shards.values())

    def lease_of(self, shard: str) -> float:
        with self._lock:
            return self._row(shard).lease

    def spent_of(self, shard: str) -> float:
        with self._lock:
            return self._row(shard).spent

    def audit(self) -> List[str]:
        """Invariant violations in the live ledger (empty list: sound)."""
        violations: List[str] = []
        with self._lock:
            rows = list(self._shards.values())
            for row in rows:
                if row.spent < -_tol(row.spent):
                    violations.append(f"shard {row.shard}: negative spend {row.spent!r}")
                if self.budget is not None and row.spent + row.reserved > row.lease + _tol(row.lease):
                    violations.append(
                        f"shard {row.shard}: spent {row.spent!r} + reserved {row.reserved!r} "
                        f"exceeds lease {row.lease!r}"
                    )
            if self.budget is not None:
                total_lease = sum(row.lease for row in rows)
                if total_lease > self.budget + _tol(self.budget):
                    violations.append(
                        f"sum of leases {total_lease!r} exceeds budget {self.budget!r}"
                    )
        return violations

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "budget": self.budget,
                "total_spent": sum(row.spent for row in self._shards.values()),
                "rebalances": self.rebalances,
                "shards": {s: row.to_dict() for s, row in self._shards.items()},
            }

    def __repr__(self) -> str:
        return (
            f"EnergyLeaseLedger(budget={self.budget}, shards={len(self._shards)}, "
            f"spent={self.total_spent:.3g})"
        )


# -- durable audit across shard journals ---------------------------------------


@dataclass(frozen=True)
class ClusterAudit:
    """Outcome of auditing every shard's write-ahead ledger against B."""

    budget: Optional[float]
    shard_spend: Dict[str, float]
    violations: List[str]

    @property
    def total_spent(self) -> float:
        return sum(self.shard_spend.values())

    @property
    def certified(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "CERTIFIED" if self.certified else f"{len(self.violations)} violation(s)"
        budget = "unbounded" if self.budget is None else f"{self.budget:.1f} J"
        return (
            f"cluster energy audit: {state} — "
            f"{self.total_spent:.1f} J across {len(self.shard_spend)} shard(s), budget {budget}"
        )


def audit_cluster(
    journal_root: Union[str, Path], *, budget: Optional[float] = None
) -> ClusterAudit:
    """Certify the cluster's durable ledgers against the global budget.

    Recovers every ``shard-*`` journal under ``journal_root`` with
    :func:`repro.durability.recover`, runs the standard durability audit
    on each, re-derives each shard's cumulative-spend chain from its raw
    ``solve`` records (``cum_k = cum_{k-1} + energy_k``, energies
    non-negative), and finally checks ``sum(spent) <= B``.  Because each
    shard chain is monotone, the final-sum check covers every prefix of
    any interleaving of shard histories — the global prefix-spend proof.
    """
    root = Path(journal_root)
    shard_dirs = sorted(p for p in root.iterdir() if p.is_dir() and p.name.startswith("shard-")) if root.is_dir() else []
    violations: List[str] = []
    shard_spend: Dict[str, float] = {}
    if not shard_dirs:
        violations.append(f"{root}: no shard-* journal directories found")
    for shard_dir in shard_dirs:
        shard = shard_dir.name
        state = recover(shard_dir)
        violations.extend(f"{shard}: {v}" for v in durability_audit(state))
        cum = 0.0
        for event in read_events(shard_dir):
            if event.get("type") != "solve":
                continue
            energy = float(event.get("energy", 0.0))
            recorded = float(event.get("cum_energy", cum + energy))
            if energy < -_tol(energy):
                violations.append(f"{shard}: negative solve energy {energy!r}")
            if abs(recorded - (cum + energy)) > _tol(recorded):
                violations.append(
                    f"{shard}: cumulative-spend chain broken "
                    f"({cum!r} + {energy!r} != {recorded!r})"
                )
            cum = recorded
        if abs(cum - state.energy_spent) > _tol(cum):
            violations.append(
                f"{shard}: recovered spend {state.energy_spent!r} disagrees with "
                f"replayed chain {cum!r}"
            )
        shard_spend[shard] = cum
    total = sum(shard_spend.values())
    if budget is not None and total > float(budget) + _tol(float(budget)):
        violations.append(f"total shard spend {total!r} exceeds global budget {float(budget)!r}")
    return ClusterAudit(budget=budget, shard_spend=shard_spend, violations=violations)
