"""Crash-safe journaling, snapshots, deterministic recovery, crash tests."""

import json
import os
import threading
import urllib.request
import zlib

import numpy as np
import pytest

from repro.algorithms.registry import make_scheduler
from repro.core import instance_to_dict
from repro.durability import journal as journal_module
from repro.durability import (
    CrashTestConfig,
    DurableRun,
    JournalWriter,
    SnapshotStore,
    audit,
    certify,
    decode_stream,
    encode_record,
    journal_segments,
    read_events,
    recover,
    repair,
    run_crash_test,
)
from repro.hardware import sample_uniform_cluster
from repro.online.planner import RollingHorizonPlanner, window_instance
from repro.telemetry import MetricsRegistry, collector
from repro.utils import atomic_write
from repro.utils.errors import JournalCorruptError, RecoveryError, ValidationError
from repro.workloads.arrivals import PoissonArrivals

from conftest import make_instance


@pytest.fixture(scope="module")
def cluster():
    return sample_uniform_cluster(3, seed=0)


@pytest.fixture(scope="module")
def requests():
    return PoissonArrivals(6.0, seed=1).generate(8.0)


def make_durable(cluster, journal_dir, *, budget=None, **kwargs):
    return DurableRun(
        cluster,
        make_scheduler("approx"),
        journal_dir,
        energy_budget=budget,
        snapshot_every=kwargs.pop("snapshot_every", 2),
        fsync="never",
        **kwargs,
    )


# -- journal framing -------------------------------------------------------------


class TestJournalFraming:
    def test_round_trip(self):
        events = [{"type": "a", "x": 1}, {"type": "b", "y": [1.5, None, "z"]}]
        blob = b"".join(encode_record(e) for e in events)
        decoded, consumed = decode_stream(blob)
        assert decoded == events
        assert consumed == len(blob)

    def test_torn_tail_stops_cleanly(self):
        blob = encode_record({"type": "a"}) + encode_record({"type": "b"})
        for cut in range(len(blob)):
            decoded, consumed = decode_stream(blob[:cut])
            assert consumed <= cut
            assert decoded == [{"type": "a"}, {"type": "b"}][: len(decoded)]

    def test_corrupt_checksum_rejected(self):
        blob = bytearray(encode_record({"type": "a", "value": 123}))
        blob[-5] ^= 0x01  # flip a payload bit; crc no longer matches
        decoded, consumed = decode_stream(bytes(blob))
        assert decoded == [] and consumed == 0

    def test_header_must_be_hex(self):
        decoded, consumed = decode_stream(b"+0000010 00000000 {}\n")
        assert decoded == [] and consumed == 0

    def test_checksum_is_crc32_of_payload(self):
        record = encode_record({"k": 1})
        payload = record[18:-1]
        assert int(record[9:17], 16) == zlib.crc32(payload)


class TestJournalWriter:
    def test_append_and_read(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            assert journal.append({"type": "one"}) == 0
            assert journal.append({"type": "two"}) == 1
            assert journal.record_count == 2
        assert read_events(tmp_path) == [{"type": "one"}, {"type": "two"}]

    def test_rotation_creates_segments(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never", segment_max_bytes=64) as journal:
            for i in range(10):
                journal.append({"type": "filler", "i": i})
        assert len(journal_segments(tmp_path)) > 1
        assert [e["i"] for e in read_events(tmp_path)] == list(range(10))

    def test_reopen_appends_after_existing(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "first"})
        with JournalWriter(tmp_path, fsync="never") as journal:
            assert journal.record_count == 1
            journal.append({"type": "second"})
        assert [e["type"] for e in read_events(tmp_path)] == ["first", "second"]

    def test_open_repairs_torn_tail(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "keep"})
            journal.append({"type": "torn", "pad": "x" * 50})
        segment = journal_segments(tmp_path)[-1]
        segment.write_bytes(segment.read_bytes()[:-20])  # tear the tail
        with JournalWriter(tmp_path, fsync="never") as journal:
            assert journal.record_count == 1
            journal.append({"type": "after"})
        assert [e["type"] for e in read_events(tmp_path)] == ["keep", "after"]

    def test_mid_file_corruption_refuses_repair(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "a", "pad": "x" * 30})
            journal.append({"type": "b"})
        segment = journal_segments(tmp_path)[-1]
        data = bytearray(segment.read_bytes())
        data[25] ^= 0x01  # corrupt the FIRST record; valid data follows
        segment.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            repair(tmp_path)

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            JournalWriter(tmp_path, fsync="sometimes")


@pytest.fixture
def fsyncs(monkeypatch):
    """Count the journal's fsync calls (they still reach the disk)."""
    calls = []

    def counting(fd):
        calls.append(fd)
        real_fsync(fd)

    real_fsync = os.fsync
    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return calls


class TestJournalGroup:
    def test_group_commits_once(self, tmp_path, fsyncs):
        with JournalWriter(tmp_path, fsync="always") as journal:
            fsyncs.clear()  # opening syncs the new segment's directory entry
            with journal.group():
                for i in range(5):
                    assert journal.append({"type": "a", "i": i}) == i
                assert fsyncs == [] and journal.record_count == 5
            assert len(fsyncs) == 1
            journal.append({"type": "lone"})
            assert len(fsyncs) == 2
        assert [e.get("i") for e in read_events(tmp_path)] == [0, 1, 2, 3, 4, None]

    def test_group_writes_the_same_bytes(self, tmp_path):
        events = [{"type": "a", "i": i} for i in range(4)]
        with JournalWriter(tmp_path / "one", fsync="always") as journal:
            for event in events:
                journal.append(event)
        with JournalWriter(tmp_path / "group", fsync="always") as journal:
            with journal.group():
                for event in events:
                    journal.append(event)
        one, group = journal_segments(tmp_path / "one"), journal_segments(tmp_path / "group")
        assert [p.read_bytes() for p in one] == [p.read_bytes() for p in group]

    def test_exception_inside_group_still_commits(self, tmp_path, fsyncs):
        with JournalWriter(tmp_path, fsync="always") as journal:
            fsyncs.clear()
            with pytest.raises(RuntimeError):
                with journal.group():
                    journal.append({"type": "a"})
                    journal.append({"type": "b"})
                    raise RuntimeError("solver blew up")
            assert len(fsyncs) == 1
            assert [e["type"] for e in read_events(tmp_path)] == ["a", "b"]
            journal.append({"type": "c"})  # the writer stays usable
            with journal.group():
                journal.append({"type": "d"})
            assert len(fsyncs) == 3
        assert [e["type"] for e in read_events(tmp_path)] == ["a", "b", "c", "d"]

    def test_nested_group_raises(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            with journal.group():
                with pytest.raises(ValidationError, match="nested"):
                    with journal.group():
                        pass
                journal.append({"type": "still-grouped"})
            with journal.group():
                journal.append({"type": "again"})
        assert [e["type"] for e in read_events(tmp_path)] == ["still-grouped", "again"]

    def test_rotation_inside_a_group(self, tmp_path):
        with JournalWriter(tmp_path, fsync="always", segment_max_bytes=64) as journal:
            with journal.group():
                for i in range(6):
                    journal.append({"type": "filler", "i": i})
            assert journal.record_count == 6
        assert len(journal_segments(tmp_path)) > 1
        assert [e["i"] for e in read_events(tmp_path)] == list(range(6))

    def test_sync_metrics(self, tmp_path):
        registry = MetricsRegistry()
        with collector(registry):
            with JournalWriter(tmp_path, fsync="always") as journal:
                with journal.group():
                    journal.append({"type": "a"})
                    journal.append({"type": "b"})
                journal.append({"type": "c"})
                journal.sync()
        # group exit, the lone append, sync() and close()
        assert registry.counter("journal_syncs_total").value == 4
        assert registry.get("journal_sync_seconds").count == 4
        assert registry.counter("journal_records_total").value == 3


# -- snapshots -------------------------------------------------------------------


class TestSnapshotStore:
    def test_save_and_latest(self, tmp_path):
        store = SnapshotStore(tmp_path, fsync=False)
        store.save({"cum_energy": 1.0}, journal_records=3)
        store.save({"cum_energy": 2.0}, journal_records=7)
        latest = store.latest()
        assert latest["journal_records"] == 7
        assert latest["state"]["cum_energy"] == 2.0

    def test_latest_respects_journal_length(self, tmp_path):
        store = SnapshotStore(tmp_path, fsync=False)
        store.save({"cum_energy": 1.0}, journal_records=3)
        store.save({"cum_energy": 2.0}, journal_records=7)
        # Only 5 journal records survived the crash: the newer snapshot
        # describes a future that no longer exists and must be skipped.
        assert store.latest(max_journal_records=5)["journal_records"] == 3
        assert store.latest(max_journal_records=1) is None

    def test_keep_prunes_old_snapshots(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2, fsync=False)
        for i in range(5):
            store.save({"i": i}, journal_records=i)
        assert len(store.paths()) == 2

    def test_unreadable_snapshot_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path, fsync=False)
        store.save({"cum_energy": 1.0}, journal_records=3)
        newer = store.save({"cum_energy": 2.0}, journal_records=5)
        newer.write_text("{ not json")
        assert store.latest()["journal_records"] == 3


# -- recovery and certification --------------------------------------------------


class TestRecovery:
    def test_empty_directory_is_pristine(self, tmp_path):
        state = recover(tmp_path)
        assert state.windows == () and state.energy_spent == 0.0
        assert state.next_window == 0 and not state.used_snapshot
        assert audit(state) == []

    def test_folds_events(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "run_start", "meta": {"energy_budget": 10.0}})
            journal.append({"type": "window_done", "window": 0, "start": 0.0, "energy": 3.0, "cum_energy": 3.0})
            journal.append({"type": "window_done", "window": 1, "start": 2.0, "energy": 4.0, "cum_energy": 7.0})
        state = recover(tmp_path)
        assert state.meta["energy_budget"] == 10.0
        assert state.energy_spent == 7.0
        assert state.next_window == 2
        certify(state)

    def test_duplicate_window_keeps_first(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "window_done", "window": 0, "start": 0.0, "energy": 3.0, "cum_energy": 3.0})
            journal.append({"type": "window_done", "window": 0, "start": 0.0, "energy": 9.0, "cum_energy": 9.0})
        state = recover(tmp_path)
        assert len(state.windows) == 1
        assert state.windows[0]["energy"] == 3.0

    def test_snapshot_bounds_replay(self, tmp_path):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "run_start", "meta": {}})
            journal.append({"type": "window_done", "window": 0, "start": 0.0, "energy": 1.0, "cum_energy": 1.0})
            SnapshotStore(tmp_path, fsync=False).save(
                {"meta": {}, "windows": [{"window": 0, "energy": 1.0, "cum_energy": 1.0}], "cum_energy": 1.0},
                journal_records=journal.record_count,
            )
            journal.append({"type": "window_done", "window": 1, "start": 2.0, "energy": 2.0, "cum_energy": 3.0})
        state = recover(tmp_path)
        assert state.used_snapshot and state.replayed_records == 1
        assert state.energy_spent == 3.0 and state.next_window == 2

    @pytest.mark.parametrize(
        "window, expectation",
        [
            ({"window": 0, "energy": 5.0, "cum_energy": 5.0}, "exceeds budget"),
            ({"window": 0, "energy": -1.0, "cum_energy": -1.0}, "negative energy"),
            ({"window": 1, "energy": 1.0, "cum_energy": 1.0}, "gap"),
            ({"window": 0, "energy": 1.0, "cum_energy": 2.5}, "chain broken"),
            ({"window": 0, "energy": 1.0, "cum_energy": 1.0, "deadlines": [2.0, 1.0], "flops": [0.0, 0.0]}, "deadline-ordered"),
            ({"window": 0, "energy": 1.0, "cum_energy": 1.0, "deadlines": [1.0], "flops": [9.0], "caps": [2.0]}, "exceeds its cap"),
        ],
    )
    def test_audit_flags_violations(self, tmp_path, window, expectation):
        with JournalWriter(tmp_path, fsync="never") as journal:
            journal.append({"type": "window_done", **window})
        violations = audit(recover(tmp_path), budget=4.0)
        assert violations and expectation in " ".join(violations)
        with pytest.raises(RecoveryError):
            certify(recover(tmp_path), budget=4.0)


# -- the durable serving loop ----------------------------------------------------


class TestDurableRun:
    def test_fresh_run_serves_and_journals(self, cluster, requests, tmp_path):
        budget = 0.35 * 8.0 * cluster.total_power
        report = make_durable(cluster, tmp_path, budget=budget).run(requests)
        assert report.n_requests == len(requests)
        assert report.total_energy <= budget * (1 + 1e-9)
        assert report.replayed_windows == 0
        certify(recover(tmp_path), budget=budget)

    def test_completed_run_replays_identically(self, cluster, requests, tmp_path):
        budget = 0.35 * 8.0 * cluster.total_power
        first = make_durable(cluster, tmp_path, budget=budget).run(requests)
        again = make_durable(cluster, tmp_path, budget=budget).run(requests)
        assert again.same_outcome(first)
        assert again.replayed_windows == len(again.windows)

    def test_resume_after_truncation_is_bit_identical(self, cluster, requests, tmp_path):
        budget = 0.35 * 8.0 * cluster.total_power
        ref_dir, cut_dir = tmp_path / "ref", tmp_path / "cut"
        reference = make_durable(cluster, ref_dir, budget=budget).run(requests)
        # Crash halfway through the journal: later segments vanish too.
        cut_dir.mkdir()
        stream = b"".join(p.read_bytes() for p in journal_segments(ref_dir))
        (cut_dir / "wal-00000000.log").write_bytes(stream[: len(stream) // 2])
        resumed = make_durable(cluster, cut_dir, budget=budget).run(requests)
        assert resumed.same_outcome(reference)
        assert 0 < resumed.replayed_windows < len(resumed.windows)

    def test_meta_mismatch_refuses_resume(self, cluster, requests, tmp_path):
        make_durable(cluster, tmp_path).run(requests)
        other = DurableRun(
            cluster, make_scheduler("edf-3levels"), tmp_path, fsync="never"
        )
        with pytest.raises(RecoveryError, match="different run"):
            other.run(requests)

    @pytest.mark.parametrize("changed", ["machines", "rate"])
    def test_resume_refuses_another_cluster_or_meta(self, cluster, requests, tmp_path, changed):
        budget = 0.35 * 8.0 * cluster.total_power
        reference = make_durable(cluster, tmp_path / "ref", budget=budget, meta={"rate": 6.0}).run(requests)
        stream = b"".join(p.read_bytes() for p in journal_segments(tmp_path / "ref"))
        (tmp_path / "cut").mkdir()
        (tmp_path / "cut" / "wal-00000000.log").write_bytes(stream[: len(stream) // 3])
        assert recover(tmp_path / "cut").next_window < len(reference.windows)
        if changed == "machines":
            other = sample_uniform_cluster(6, seed=0)  # the fixture's cluster has 3
            resumed = make_durable(other, tmp_path / "cut", budget=budget, meta={"rate": 6.0})
        else:
            resumed = make_durable(cluster, tmp_path / "cut", budget=budget, meta={"rate": 6.001})
        with pytest.raises(RecoveryError, match=f"different run: {changed}"):
            resumed.run(requests)

    def test_grants_pace_a_binding_budget(self, cluster, requests, tmp_path):
        budget = 0.35 * 8.0 * cluster.total_power
        run = make_durable(cluster, tmp_path, budget=budget)
        report = run.run(requests)
        events = read_events(tmp_path)
        n_windows = events[0]["meta"]["windows"]
        assert n_windows == len(report.windows)
        spent = 0.0
        grants = []
        for event in events:
            if event["type"] == "window_plan":
                left = n_windows - event["window"]
                assert event["grant"] == min(run.window_budget, (budget - spent) / left)
                grants.append(event["grant"])
            elif event["type"] == "window_done":
                spent = event["cum_energy"]
        assert len(grants) == n_windows and max(grants) < run.window_budget  # the budget binds
        assert report.total_energy <= budget * (1 + 1e-9)
        certify(recover(tmp_path), budget=budget)

    @pytest.mark.parametrize("slack", [1.0, 2.0])
    def test_ample_budget_plans_as_no_budget(self, cluster, requests, tmp_path, slack):
        capped = make_durable(cluster, tmp_path / "capped").run(requests)
        budget = slack * make_durable(cluster, tmp_path).window_budget * len(capped.windows)
        paced = make_durable(cluster, tmp_path / "paced", budget=budget).run(requests)
        assert paced.same_outcome(capped)

    def test_starvation_budget_is_paced_over_windows(self, cluster, requests, tmp_path):
        budget = 0.05 * 8.0 * cluster.total_power  # starvation budget
        report = make_durable(cluster, tmp_path, budget=budget).run(requests)
        grants = [e["grant"] for e in read_events(tmp_path) if e["type"] == "window_plan"]
        # Every window solves, on an even share of the budget.
        assert len(grants) == len(report.windows) == 4
        assert grants == pytest.approx([budget / 4] * 4, rel=1e-12)
        assert all(w.energy > 0.0 for w in report.windows)
        assert report.total_energy <= budget * (1 + 1e-9)
        certify(recover(tmp_path), budget=budget)

    def test_parent_format_journal_recovers_but_refuses_resume(self, cluster, requests, tmp_path):
        """A journal of the watermark-ladder era: ``degrade`` records, ``level`` fields."""
        budget = 0.35 * 8.0 * cluster.total_power
        make_durable(cluster, tmp_path / "ref", budget=budget).run(requests)
        legacy = []
        for event in read_events(tmp_path / "ref"):
            event = {k: v for k, v in event.items() if k != "trace_id"}
            if event["type"] == "run_start":
                meta = {k: v for k, v in event["meta"].items() if k != "windows"}
                event["meta"] = {**meta, "degradation": {"watermarks": [{"budget_fraction": 0.7}]}}
            elif event["type"] in ("window_plan", "window_done"):
                event["level"] = -1 if event["window"] < 2 else 0
            if event["type"] == "arrivals" and event["window"] == 2:
                legacy.append({"type": "degrade", "window": 2, "level": 0, "work_cap_scale": 0.75})
            legacy.append(event)
        dones = [i for i, e in enumerate(legacy) if e["type"] == "window_done"]
        journal_dir = tmp_path / "legacy"
        journal_dir.mkdir()
        (journal_dir / "wal-00000001.log").write_bytes(b"".join(encode_record(e) for e in legacy))
        # A snapshot of the first two windows, with the old state's level.
        state = {"meta": legacy[0]["meta"], "windows": [legacy[i] for i in dones[:2]], "level": -1}
        state["cum_energy"] = state["windows"][-1]["cum_energy"]
        SnapshotStore(journal_dir, fsync=False).save(state, journal_records=dones[1] + 1)

        state = certify(recover(journal_dir), budget=budget)
        assert state.used_snapshot and state.counts["degrade"] == 1 and state.next_window == 4
        with pytest.raises(RecoveryError, match="different run: windows"):
            make_durable(cluster, journal_dir, budget=budget).run(requests)

    def test_planner_run_durable_delegates(self, cluster, requests, tmp_path):
        planner = RollingHorizonPlanner(cluster, make_scheduler("approx"))
        report = planner.run_durable(requests, tmp_path, fsync="never")
        assert report.n_requests == len(requests)
        assert recover(tmp_path).meta["scheduler"] == make_scheduler("approx").name


class TestDurableWindowCommits:
    def one_window(self, n=14):
        """A burst of ``n`` requests inside one 2 s window."""
        requests = PoissonArrivals(40.0, seed=11).generate(2.0)[:n]
        assert len(requests) == n
        return requests

    def test_window_costs_two_fsyncs(self, cluster, tmp_path, fsyncs):
        requests = self.one_window()
        budget = 0.35 * 8.0 * cluster.total_power
        run = DurableRun(cluster, make_scheduler("approx"), tmp_path, energy_budget=budget, fsync="always")
        ids = {id(r): i for i, r in enumerate(requests)}
        registry = MetricsRegistry()
        with JournalWriter(tmp_path, fsync="always") as journal:
            before = len(fsyncs)
            with collector(registry):
                run._plan_window(journal, 0, 0.0, requests, ids, 0.0, 4)
            assert len(fsyncs) - before == 2
        assert registry.counter("journal_syncs_total").value == 2
        assert registry.get("journal_sync_seconds").count == 2
        assert registry.counter("journal_records_total").value == 3
        kinds = [e["type"] for e in read_events(tmp_path)]
        assert kinds == ["arrivals", "window_plan", "window_done"]

    def test_exhausted_window_costs_two_fsyncs(self, cluster, tmp_path, fsyncs):
        requests = self.one_window()
        budget = 1.0
        run = DurableRun(cluster, make_scheduler("approx"), tmp_path, energy_budget=budget, fsync="always")
        ids = {id(r): i for i, r in enumerate(requests)}
        with JournalWriter(tmp_path, fsync="always") as journal:
            before = len(fsyncs)
            done, window = run._plan_window(journal, 0, 0.0, requests, ids, budget, 2)
            assert len(fsyncs) - before == 2 and window.energy == 0.0
        events = read_events(tmp_path)
        assert [e["type"] for e in events] == ["arrivals", "window_done"]
        assert {k: v for k, v in events[-1].items() if k != "trace_id"} == done
        # Nothing planned, nothing spent.
        n = len(requests)
        _, instance = window_instance(requests, 0.0, cluster, 0.0)
        assert done["flops"] == done["accuracies"] == [0.0] * n
        assert sorted(done["ids"]) == list(range(n)) and done["shed"] == done["ids"]
        assert done["caps"] == instance.tasks.f_max.tolist()
        assert done["deadlines"] == instance.tasks.deadlines.tolist()
        assert (done["on_time"], done["energy"], done["cum_energy"]) == (0, 0.0, budget)
        assert window.cum_energy == budget

    def test_truncation_inside_a_grouped_window_recovers_the_committed_prefix(
        self, cluster, requests, tmp_path
    ):
        budget = 0.35 * 8.0 * cluster.total_power
        reference = make_durable(cluster, tmp_path / "ref", budget=budget).run(requests)
        stream = b"".join(p.read_bytes() for p in journal_segments(tmp_path / "ref"))
        events, consumed = decode_stream(stream)
        assert consumed == len(stream)
        ends = np.cumsum([len(encode_record(e)) for e in events]).tolist()
        # Window 1's group: from the end of window 0's commit to the end of
        # window 1's plan.
        kinds = [e["type"] for e in events]
        first_done = kinds.index("window_done")
        plan = next(i for i, e in enumerate(events) if e["type"] == "window_plan" and e["window"] == 1)
        group_start, group_end = ends[first_done], ends[plan]
        assert plan - first_done >= 2  # the window's arrivals record and its plan
        cut_dir = tmp_path / "cut"
        cut_dir.mkdir()
        segment = cut_dir / "wal-00000001.log"
        for offset in range(group_start, group_end + 1):
            segment.write_bytes(stream[:offset])
            state = certify(recover(cut_dir), budget=budget)
            assert state.next_window == 1
            assert state.energy_spent == reference.windows[0].cum_energy
        for offset in (group_start, (group_start + group_end) // 2, group_end):
            resume_dir = tmp_path / f"resume-{offset}"
            resume_dir.mkdir()
            (resume_dir / "wal-00000001.log").write_bytes(stream[:offset])
            resumed = make_durable(cluster, resume_dir, budget=budget).run(requests)
            assert resumed.same_outcome(reference)
            assert resumed.replayed_windows == 1


def per_request_arrivals(events):
    """The same history in the older layout: one ``arrival`` record per request."""
    out = []
    for event in events:
        if event["type"] != "arrivals":
            out.append(event)
            continue
        columns = zip(event["ids"], event["t"], event["slo"], event["theta"])
        out.extend({"type": "arrival", "id": i, "t": t, "slo": s, "theta": th} for i, t, s, th in columns)
    return out


class TestEncodedWindowRecords:
    """Window records are encoded once; snapshots splice them."""

    @pytest.fixture
    def budget(self, cluster):
        return 0.35 * 8.0 * cluster.total_power

    def test_every_snapshot_is_canonical_json_of_its_document(
        self, cluster, requests, budget, tmp_path, monkeypatch
    ):
        written = []
        save = SnapshotStore.save

        def capture(store, state, *, journal_records):
            path = save(store, state, journal_records=journal_records)
            written.append((path.read_bytes(), store.load(path)))
            return path

        monkeypatch.setattr(SnapshotStore, "save", capture)
        reference = make_durable(cluster, tmp_path / "ref", budget=budget, snapshot_every=1).run(
            requests
        )
        # A resumed run re-encodes the windows it recovered.
        stream = b"".join(p.read_bytes() for p in journal_segments(tmp_path / "ref"))
        (tmp_path / "cut").mkdir()
        (tmp_path / "cut" / "wal-00000001.log").write_bytes(stream[: len(stream) // 2])
        resumed = make_durable(cluster, tmp_path / "cut", budget=budget, snapshot_every=1).run(
            requests
        )
        assert resumed.same_outcome(reference) and resumed.replayed_windows > 0
        assert len(written) == len(reference.windows) + len(resumed.windows) - resumed.replayed_windows

        dones = [e for e in read_events(tmp_path / "ref") if e["type"] == "window_done"]
        for data, document in written:
            assert data == json.dumps(document, sort_keys=True, separators=(",", ":")).encode("ascii")
            state = document["state"]
            assert state["windows"] == dones[: len(state["windows"])]
            assert state["cum_energy"] == state["windows"][-1]["cum_energy"]
            assert state["meta"]["n_requests"] == len(requests)

    def test_recover_gives_the_same_windows_without_the_snapshots(self, cluster, requests, budget, tmp_path):
        make_durable(cluster, tmp_path / "run", budget=budget).run(requests)
        bare = tmp_path / "bare"
        bare.mkdir()
        for segment in journal_segments(tmp_path / "run"):
            (bare / segment.name).write_bytes(segment.read_bytes())
        snapshotted, replayed = recover(tmp_path / "run"), recover(bare)
        assert snapshotted.used_snapshot and not replayed.used_snapshot
        assert snapshotted.windows == replayed.windows
        assert (snapshotted.energy_spent, snapshotted.next_window) == (replayed.energy_spent, replayed.next_window)

    def test_journal_with_per_request_arrival_records_recovers_and_resumes(
        self, cluster, requests, budget, tmp_path
    ):
        reference = make_durable(cluster, tmp_path / "ref", budget=budget).run(requests)
        legacy = per_request_arrivals(read_events(tmp_path / "ref"))
        dones = [i for i, e in enumerate(legacy) if e["type"] == "window_done"]
        # Three committed windows, the first two also in a snapshot
        # written with the older, spaced JSON encoding.
        journal_dir = tmp_path / "legacy"
        journal_dir.mkdir()
        (journal_dir / "wal-00000001.log").write_bytes(b"".join(encode_record(e) for e in legacy[: dones[2] + 1]))
        last = legacy[dones[1]]
        document = {
            "format": "repro.snapshot",
            "version": 1,
            "journal_records": dones[1] + 1,
            "state": {
                "meta": legacy[0]["meta"],
                "windows": [legacy[i] for i in dones[:2]],
                "cum_energy": last["cum_energy"],
            },
        }
        (journal_dir / "snapshot-00000001.json").write_text(json.dumps(document, sort_keys=True))

        state = certify(recover(journal_dir), budget=budget)
        assert state.used_snapshot and state.next_window == 3
        assert state.counts["arrival"] > 1 and "arrivals" not in state.counts
        assert state.energy_spent == reference.windows[2].cum_energy
        resumed = make_durable(cluster, journal_dir, budget=budget).run(requests)
        assert resumed.same_outcome(reference) and resumed.replayed_windows == 3
        certify(recover(journal_dir), budget=budget)


# -- the online simulator's journal ----------------------------------------------


class TestDurableServer:
    def _spend_one_incarnation(self, journal_dir, body, expect_prev):
        from repro.server import make_server

        server = make_server(port=0, journal_dir=str(journal_dir), snapshot_every=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            health = json.load(urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=30))
            assert health["energy_spent_joules"] == pytest.approx(expect_prev)
            for _ in range(3):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/solve?scheduler=approx", data=body, method="POST"
                )
                urllib.request.urlopen(request, timeout=30).read()
            health = json.load(urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=30))
            return health["energy_spent_joules"]
        finally:
            server.shutdown()
            server.server_close()
            server.journal.close()

    def test_ledger_survives_restart(self, tmp_path):
        inst = make_instance(n=6, m=2, beta=0.5, seed=900)
        body = json.dumps(instance_to_dict(inst)).encode()
        first = self._spend_one_incarnation(tmp_path, body, 0.0)
        assert first > 0
        second = self._spend_one_incarnation(tmp_path, body, first)
        assert second == pytest.approx(2 * first)
        state = recover(tmp_path)
        assert state.energy_spent == pytest.approx(second)
        assert state.used_snapshot  # snapshots bound the replay


# -- crash injection -------------------------------------------------------------


class TestCrashTest:
    def test_small_campaign_passes(self, tmp_path):
        config = CrashTestConfig(kills=5, horizon=6.0, rate=5.0)
        result = run_crash_test(config, workdir=tmp_path)
        assert result.passed, result.summary()
        assert result.n_kills == 5
        assert any(o.mid_record for o in result.outcomes)
        assert "5/5" in result.summary()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            CrashTestConfig(kills=0)


# -- atomic writes ---------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write(target, "first")
        atomic_write(target, "second")
        assert target.read_text() == "second"
        assert list(tmp_path.iterdir()) == [target]  # no temp litter

    def test_serialization_goes_through_atomic_write(self, tmp_path):
        from repro.core.serialization import load_instance, save_instance

        inst = make_instance(n=4, m=2, beta=0.5, seed=901)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert len(loaded.tasks) == 4
        assert list(tmp_path.iterdir()) == [path]

    def test_exporters_leave_no_temp_files(self, tmp_path):
        from repro.telemetry import MetricsRegistry, export_file

        registry = MetricsRegistry()
        registry.counter("x").inc()
        for suffix in ("jsonl", "prom"):
            path = export_file(registry, tmp_path / f"m.{suffix}")
            assert path.exists()
        assert len(list(tmp_path.iterdir())) == 2


# -- the CLI ---------------------------------------------------------------------


class TestDurabilityCLI:
    def test_online_plain(self, capsys):
        from repro.cli import main

        code = main(["online", "--horizon", "6", "--rate", "5"])
        assert code == 0
        assert "served" in capsys.readouterr().out
        # Pinned byte for byte: the plain run is the durable loop without a journal.
        assert main(["online", "--horizon", "30", "--rate", "8", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            "served 232 requests in 15 windows (approx)\n"
            "mean accuracy 0.5134, on-time 90.5%\n"
            "energy 10211.7 J\n"
        )

    def test_online_durable_and_resume(self, capsys, tmp_path):
        from repro.cli import main

        args = ["online", "--horizon", "6", "--rate", "5", "--journal-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "journal at" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "resumed interrupted run" in second

    @pytest.mark.parametrize(
        "flags, key", [(["--rate", "6.001"], "rate"), (["--rate", "6", "--budget-fraction", "0.5"], "energy_budget")]
    )
    def test_online_resume_of_another_run_is_an_error(self, capsys, tmp_path, flags, key):
        from repro.cli import main

        args = ["online", "--horizon", "12", "--journal-dir", str(tmp_path)]
        assert main([*args, "--rate", "6"]) == 0
        capsys.readouterr()
        assert main([*args, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: journal was written by a different run: {key} is ")
        assert "Traceback" not in captured.err and "served" not in captured.out

    def test_online_budget_fraction_needs_journal_dir(self, capsys):
        """Only the durable run has a global budget; a plain run must not drop the flag."""
        from repro.cli import main

        assert main(["online", "--horizon", "12", "--rate", "6", "--budget-fraction", "0.01"]) == 2
        captured = capsys.readouterr()
        assert "--journal-dir" in captured.err
        assert "served" not in captured.out

    def test_crashtest_command(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            ["crashtest", "--kills", "3", "--horizon", "5", "--rate", "5", "--workdir", str(tmp_path), "-v"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 kills recovered identically" in out
