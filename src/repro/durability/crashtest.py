"""Crash-injection harness: kill a run at any journal byte, prove recovery.

The only credible evidence for crash-safety is adversarial: take a
reference run, simulate a crash at an *arbitrary byte offset* of its
write-ahead log (including mid-record torn writes), recover, resume,
and demand the resumed run be **identical** to the uninterrupted one —
window by window, bit by bit — while never exceeding the energy budget
``B``.  :func:`run_crash_test` automates that over many random kill
points; ``repro crashtest`` exposes it on the CLI and CI runs it as a
smoke test.

A kill at offset ``k`` is simulated by truncating the journal's segment
files to their first ``k`` bytes (later segments vanish entirely) and
keeping only snapshots that were on disk by then — exactly the disk
state an ill-timed ``kill -9`` leaves behind under the journal's
append-then-apply discipline.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

from ..algorithms.registry import make_scheduler
from ..hardware import sample_uniform_cluster
from ..telemetry import get_collector
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive, require
from ..workloads.arrivals import PoissonArrivals
from .journal import decode_stream, journal_segments
from .recovery import certify, recover
from .run import DurableRun
from .snapshot import SnapshotStore

__all__ = ["CrashTestConfig", "KillOutcome", "CrashTestResult", "run_crash_test"]


@dataclass(frozen=True)
class CrashTestConfig:
    """Parameters of one crash-injection campaign."""

    kills: int = 25  #: random kill points (one is forced mid-record)
    seed: int = 0
    machines: int = 3
    rate: float = 6.0  #: Poisson arrival rate (req/s)
    horizon: float = 10.0  #: stream length (s)
    window_seconds: float = 2.0
    power_cap_fraction: float = 0.5
    budget_fraction: float = 0.35  #: B as a fraction of horizon × total power
    scheduler: str = "approx"
    snapshot_every: int = 2

    def __post_init__(self) -> None:
        require(self.kills >= 1, f"kills must be >= 1, got {self.kills}")
        check_positive(self.rate, "rate")
        check_positive(self.horizon, "horizon")


@dataclass(frozen=True)
class KillOutcome:
    """What one simulated crash + recovery + resume produced."""

    offset: int  #: journal byte offset the process "died" at
    mid_record: bool  #: the kill tore a record in half
    records_recovered: int  #: committed records surviving in the prefix
    passed: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class CrashTestResult:
    """Outcome of a whole campaign."""

    config: CrashTestConfig
    journal_bytes: int  #: reference journal size (the kill space)
    reference_windows: int
    reference_energy: float
    energy_budget: float
    outcomes: tuple = ()

    @property
    def n_kills(self) -> int:
        return len(self.outcomes)

    @property
    def n_passed(self) -> int:
        return sum(o.passed for o in self.outcomes)

    @property
    def passed(self) -> bool:
        return self.n_passed == self.n_kills

    def summary(self) -> str:
        lines = [
            f"crash test: {self.n_passed}/{self.n_kills} kills recovered identically "
            f"(journal {self.journal_bytes} bytes, {self.reference_windows} windows, "
            f"energy {self.reference_energy:.1f} J <= budget {self.energy_budget:.1f} J)"
        ]
        for outcome in self.outcomes:
            if not outcome.passed:
                lines.append(
                    f"  FAIL at byte {outcome.offset}"
                    f"{' (mid-record)' if outcome.mid_record else ''}: {outcome.error}"
                )
        return "\n".join(lines)


def _truncate_journal(source: Path, target: Path, offset: int) -> int:
    """Write the first ``offset`` journal bytes of ``source`` into ``target``.

    Returns the number of complete records surviving the cut.
    """
    target.mkdir(parents=True, exist_ok=True)
    remaining = offset
    records = 0
    for segment in journal_segments(source):
        if remaining <= 0:
            break
        data = segment.read_bytes()
        take = min(len(data), remaining)
        # Simulating the crash: the torn, non-atomic write is the test.
        (target / segment.name).write_bytes(data[:take])  # repro: noqa[RL003]
        records += len(decode_stream(data[:take])[0])
        remaining -= take
    return records


def _copy_eligible_snapshots(source: Path, target: Path, max_records: int) -> int:
    """Copy snapshots that existed on disk by the kill point."""
    store = SnapshotStore(source)
    copied = 0
    for path in store.paths():
        try:
            document = store.load(path)
        except (OSError, ValueError):
            continue
        if document["journal_records"] <= max_records:
            shutil.copy2(path, target / path.name)
            copied += 1
    return copied


def run_crash_test(
    config: Optional[CrashTestConfig] = None,
    *,
    workdir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CrashTestResult:
    """Run the full campaign; see the module docstring for the protocol."""
    config = config or CrashTestConfig()
    say = progress or (lambda _msg: None)
    base = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="repro-crashtest-"))
    base.mkdir(parents=True, exist_ok=True)
    tele = get_collector()

    cluster = sample_uniform_cluster(config.machines, seed=config.seed)
    requests = PoissonArrivals(config.rate, seed=config.seed + 1).generate(config.horizon)
    budget = config.budget_fraction * config.horizon * cluster.total_power

    def make_run(directory: Path) -> DurableRun:
        return DurableRun(
            cluster,
            make_scheduler(config.scheduler),
            directory,
            window_seconds=config.window_seconds,
            power_cap_fraction=config.power_cap_fraction,
            energy_budget=budget,
            snapshot_every=config.snapshot_every,
            fsync="never",  # crashes are simulated by byte truncation
            meta={"seed": config.seed, "rate": config.rate, "horizon": config.horizon},
        )

    reference_dir = base / "reference"
    say(f"reference run ({len(requests)} requests) -> {reference_dir}")
    reference = make_run(reference_dir).run(requests)
    segments = journal_segments(reference_dir)
    stream = b"".join(p.read_bytes() for p in segments)
    total = len(stream)
    require(
        total > config.kills + 1,
        f"reference journal ({total} bytes) is too small for {config.kills} distinct kill points",
    )

    # Kill offsets: uniform over the journal, plus one guaranteed torn
    # write — a cut inside some record's payload near the middle.
    rng = ensure_rng(config.seed + 2)
    record_starts = _record_offsets(stream)
    middle = record_starts[len(record_starts) // 2]
    torn = min(middle + 25, total - 1)  # inside that record's payload
    offsets = {torn}
    while len(offsets) < config.kills:
        offsets.add(int(rng.integers(1, total)))
    outcomes: List[KillOutcome] = []
    for i, offset in enumerate(sorted(offsets)):
        kill_dir = base / f"kill-{i:03d}"
        mid_record = offset not in record_starts and offset != total
        error: Optional[str] = None
        try:
            records = _truncate_journal(reference_dir, kill_dir, offset)
            _copy_eligible_snapshots(reference_dir, kill_dir, records)
            state = certify(recover(kill_dir), budget=budget)
            resumed = make_run(kill_dir).run(requests)
            if not resumed.same_outcome(reference):
                error = (
                    f"resumed run diverged: {resumed.replayed_windows} replayed, "
                    f"{len(resumed.windows)} vs {len(reference.windows)} windows, "
                    f"energy {resumed.total_energy!r} vs {reference.total_energy!r}"
                )
            elif resumed.total_energy > budget * (1 + 1e-9):
                error = f"resumed energy {resumed.total_energy!r} exceeds budget {budget!r}"
            passed = error is None
            outcomes.append(
                KillOutcome(
                    offset=offset,
                    mid_record=mid_record,
                    records_recovered=state.total_records,
                    passed=passed,
                    error=error,
                )
            )
        except Exception as exc:  # noqa: BLE001 — harness boundary: report, don't die
            outcomes.append(
                KillOutcome(offset=offset, mid_record=mid_record, records_recovered=0, passed=False, error=f"{type(exc).__name__}: {exc}")
            )
        say(f"kill {i + 1}/{config.kills} at byte {offset}: {'ok' if outcomes[-1].passed else 'FAIL'}")

    tele.counter("crashtest_kills_total").add(len(outcomes))
    tele.counter("crashtest_failures_total").add(sum(not o.passed for o in outcomes))
    return CrashTestResult(
        config=config,
        journal_bytes=total,
        reference_windows=len(reference.windows),
        reference_energy=reference.total_energy,
        energy_budget=budget,
        outcomes=tuple(outcomes),
    )


def _record_offsets(stream: bytes) -> List[int]:
    """Byte offsets where each committed record starts."""
    offsets: List[int] = []
    position = 0
    _, valid = decode_stream(stream)
    while position < valid:
        offsets.append(position)
        length = int(stream[position : position + 8], 16)
        position += 18 + length + 1  # header + payload + newline
    return offsets
