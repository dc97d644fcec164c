"""Algorithm 5 — DSCT-EA-APPROX: rounding, guarantees, feasibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.approx import ApproxScheduler, round_fractional
from repro.algorithms.fractional import solve_fractional
from repro.algorithms.guarantees import performance_guarantee
from repro.hardware import sample_uniform_cluster
from repro.online.planner import window_instance
from repro.workloads.arrivals import PoissonArrivals, window_batches

from conftest import make_instance


class TestRounding:
    def test_integral(self):
        inst = make_instance(n=10, m=3, beta=0.5, seed=31)
        sched = ApproxScheduler().solve(inst)
        assert sched.is_integral

    def test_feasible_including_assignment(self):
        inst = make_instance(n=10, m=3, beta=0.5, seed=31)
        sched = ApproxScheduler().solve(inst)
        assert sched.feasibility(integral=True).feasible

    def test_upper_bounded_by_fractional(self):
        inst = make_instance(n=10, m=3, beta=0.5, seed=32)
        frac, _ = solve_fractional(inst)
        approx = round_fractional(inst, frac)
        assert approx.total_accuracy <= frac.total_accuracy + 1e-9

    def test_guarantee_lower_bound(self):
        for seed in range(10):
            inst = make_instance(n=8, m=3, beta=0.5, seed=40 + seed)
            frac, _ = solve_fractional(inst)
            approx = round_fractional(inst, frac)
            g = performance_guarantee(inst)
            assert approx.total_accuracy >= frac.total_accuracy - g - 1e-9

    def test_loads_capped_by_fractional_profile(self):
        inst = make_instance(n=10, m=3, beta=0.5, seed=33)
        frac, _ = solve_fractional(inst)
        approx = round_fractional(inst, frac)
        assert np.all(approx.machine_loads <= frac.machine_loads * (1 + 1e-9) + 1e-12)

    def test_energy_within_budget(self):
        inst = make_instance(n=10, m=3, beta=0.3, seed=34)
        sched = ApproxScheduler().solve(inst)
        assert sched.total_energy <= inst.budget * (1 + 1e-9)

    def test_zero_budget(self):
        inst = make_instance(n=5, m=2, beta=1.0, seed=35)
        inst = type(inst)(inst.tasks, inst.cluster, 0.0)
        sched = ApproxScheduler().solve(inst)
        assert np.allclose(sched.times, 0.0)

    def test_single_machine_rounding_matches_fractional(self):
        """With m = 1 the fractional solution is already integral."""
        inst = make_instance(n=8, m=1, beta=0.6, seed=36)
        frac, _ = solve_fractional(inst)
        approx = round_fractional(inst, frac)
        assert approx.total_accuracy == pytest.approx(frac.total_accuracy, rel=1e-9)

    def test_cut_and_shift_repairs_deadlines(self):
        """Rounded schedules always meet deadlines, even under tight ρ."""
        inst = make_instance(n=12, m=3, beta=0.8, rho=0.05, seed=37)
        sched = ApproxScheduler().solve(inst)
        completion = sched.completion_times
        for r in range(inst.n_machines):
            assert np.all(completion[:, r] <= inst.tasks.deadlines + 1e-9)

    def test_work_cap_respected_after_rounding(self):
        inst = make_instance(n=10, m=3, beta=1.0, rho=2.0, seed=38)
        sched = ApproxScheduler().solve(inst)
        assert np.all(sched.task_flops <= inst.tasks.f_max * (1 + 1e-9))

    def test_scheduler_info(self):
        inst = make_instance(n=5, m=2, beta=0.5, seed=39)
        result = ApproxScheduler().solve_with_info(inst)
        assert result.info.solver == "DSCT-EA-APPROX"
        assert result.info.extra["fractional_accuracy"] >= result.schedule.total_accuracy - 1e-9

    def test_no_refine_variant(self):
        inst = make_instance(n=6, m=2, beta=0.5, seed=39)
        a = ApproxScheduler(refine=True).solve(inst)
        b = ApproxScheduler(refine=False).solve(inst)
        assert b.feasibility(integral=True).feasible
        assert isinstance(a.total_accuracy, float) and isinstance(b.total_accuracy, float)


@pytest.mark.xfail(
    strict=True,
    reason="Algorithm 5 keeps the times its rounding walk produces; re-timing the "
    "assignment optimally (ROADMAP item 4) is what makes accuracy monotone in the budget",
)
def test_more_budget_never_lowers_approx_accuracy():
    """The durable run's 4.0 s window, at its paced grant and at its power-cap grant."""
    cluster = sample_uniform_cluster(3, seed=0)
    requests = PoissonArrivals(6.0, seed=1).generate(8.0)
    batch = dict(window_batches(requests, 2.0))[4.0]
    power = cluster.total_power
    # B = 0.35 x 8 s x P paced over 4 windows, then a 0.5 x 2 s x P power cap.
    low_grant, high_grant = 0.35 * 8.0 * power / 4, 0.5 * 2.0 * power
    _, low = window_instance(batch, 4.0, cluster, low_grant)
    _, high = window_instance(batch, 4.0, cluster, high_grant)
    low_sched, high_sched = ApproxScheduler().solve(low), ApproxScheduler().solve(high)
    bound, _ = solve_fractional(high)
    # Both rounded schedules are feasible; the larger grant is not even spent.
    assert high_sched.total_energy < low_grant
    assert high_sched.total_accuracy <= bound.total_accuracy
    assert high_sched.total_accuracy >= low_sched.total_accuracy


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(1, 10),
    st.integers(1, 4),
    st.floats(0.05, 1.2),
    st.floats(0.05, 1.8),
)
def test_property_approx_sandwich(seed, n, m, beta, rho):
    """OPT − G ≤ SOL ≤ OPT (Eq. 13) plus full feasibility, any instance."""
    inst = make_instance(n=n, m=m, beta=beta, rho=rho, seed=seed)
    frac, _ = solve_fractional(inst)
    approx = round_fractional(inst, frac)
    assert approx.feasibility(integral=True).feasible
    g = performance_guarantee(inst)
    assert approx.total_accuracy <= frac.total_accuracy + 1e-9
    assert approx.total_accuracy >= frac.total_accuracy - g - 1e-9
