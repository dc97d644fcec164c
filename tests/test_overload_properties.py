"""Property tests for overload control against the energy-lease ledger.

The claim under test is the refund guarantee: for *any* interleaving of
admissions, serves, doomed sheds (pre-reserve), post-reserve failures
(full refund) and rebalances, the global spend never exceeds the budget
``B`` — shed work never spends from the shared budget, and a refunded
grant restores exactly the headroom it took.  Alongside it, the two
controller safety properties: the deadline shedder never drops a
request an idle system could have served in time, and the deterministic
credit accumulator admits exactly its effective rate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import EnergyLeaseLedger
from repro.overload import AdmitRateController, QueueDelaySignal

SHARDS = ["shard-00", "shard-01"]

_PRIORITIES = st.sampled_from(["interactive", "standard", "best_effort"])

# One front-end event: (kind, shard index, ask fraction, spend fraction).
_EVENTS = st.one_of(
    # Admitted and served: reserve a grant, commit a spent fraction of it.
    st.tuples(
        st.just("serve"),
        st.integers(min_value=0, max_value=len(SHARDS) - 1),
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    # Shed before dispatch (doomed / admit-rate): the request
    # never reaches the ledger at all — refund by construction.
    st.tuples(
        st.just("shed_pre_reserve"),
        st.integers(min_value=0, max_value=len(SHARDS) - 1),
        st.just(0.0),
        st.just(0.0),
    ),
    # Reserved, then the dispatch failed (queue full, worker gone):
    # the entire unspent grant is refunded.
    st.tuples(
        st.just("shed_post_reserve"),
        st.integers(min_value=0, max_value=len(SHARDS) - 1),
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
        st.just(0.0),
    ),
    st.tuples(st.just("rebalance"), st.just(0), st.just(0.0), st.just(0.0)),
)


@settings(max_examples=80, deadline=None)
@given(budget=st.floats(min_value=1.0, max_value=1e6), events=st.lists(_EVENTS, max_size=80))
def test_shed_admit_interleavings_never_overspend(budget, events):
    """Σ spent ≤ B after every prefix, and refunds restore exact headroom."""
    ledger = EnergyLeaseLedger(budget, SHARDS)
    for kind, index, ask_fraction, spend_fraction in events:
        shard = SHARDS[index]
        if kind == "serve":
            grant = ledger.reserve(shard, ask_fraction * budget)
            ledger.commit(shard, grant, spend_fraction * grant)
        elif kind == "shed_pre_reserve":
            # A doomed request is shed before _reserve_for runs: the
            # ledger must be untouched — same totals, same headroom.
            before = (ledger.total_spent, ledger.to_dict())
            after = (ledger.total_spent, ledger.to_dict())
            assert before == after
        elif kind == "shed_post_reserve":
            spent_before = ledger.total_spent
            grant = ledger.reserve(shard, ask_fraction * budget)
            ledger.release(shard, grant)
            assert ledger.total_spent == spent_before  # full refund
        else:
            leases = ledger.rebalance()
            assert sum(leases.values()) <= budget * (1 + 1e-9)
        assert ledger.total_spent <= budget * (1 + 1e-9)
        assert ledger.audit() == []


@settings(max_examples=80, deadline=None)
@given(
    services=st.lists(
        st.floats(min_value=1e-6, max_value=10.0, allow_nan=False), min_size=1, max_size=32
    ),
    sojourns=st.lists(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False), max_size=32
    ),
    margin=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_shedder_never_drops_idle_feasible_requests(services, sojourns, margin):
    """Any remaining budget >= the idle service floor is never shed,
    no matter how congested the observed sojourns say the shard is."""
    signal = QueueDelaySignal(clock=lambda: 0.0)
    for value in services:
        signal.observe_service(value)
    for value in sojourns:
        signal.observe_sojourn(value)
    floor = min(services)
    assert not signal.doomed(floor + margin)
    assert signal.doomed(0.0)


@settings(max_examples=60, deadline=None)
@given(
    cuts=st.integers(min_value=0, max_value=12),
    trials=st.integers(min_value=1, max_value=500),
    priority=_PRIORITIES,
)
def test_credit_admission_matches_effective_rate(cuts, trials, priority):
    """Admitted count over N arrivals tracks N * rate**exponent within
    the single admission the accumulator's starting credit is worth."""
    clock = {"now": 0.0}
    ctl = AdmitRateController(
        interval_seconds=1.0, decrease_factor=0.5, clock=lambda: clock["now"]
    )
    for _ in range(cuts):
        clock["now"] += 1.1
        ctl.observe(ctl.target_delay_seconds * 10)
    admitted = sum(1 for _ in range(trials) if ctl.admit(priority))
    expected = trials * ctl.effective_rate(priority)
    assert abs(admitted - expected) <= 1.0
