"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``solve``
    Generate a synthetic instance (paper parameterisation: n, m, β, ρ,
    θ-range) and schedule it with any registered method; prints the
    schedule summary, the simulator audit and optionally a Gantt chart.
``compare``
    Run several methods on the same instance and print one row each.
``figures``
    Regenerate paper tables/figures by name (or ``all``).
``catalog``
    Print the Fig. 1 GPU catalog and its efficiency/speed trend.
``schedulers``
    List registered scheduling methods.
``validate``
    Cross-check DSCT-EA-FR-OPT against the exact LP on random instances
    (the library's own optimality audit; useful after modifications).
``serve``
    Run the local JSON-over-HTTP scheduling service (see repro.server);
    ``--solver-timeout``/``--fallback``/``--max-in-flight`` arm the
    resilience layer (admission control, deadlines, fallback chain) and
    ``--journal-dir`` makes the energy ledger crash-safe (recovered and
    reported on restart).
``cluster``
    Run the sharded multi-worker serving front-end (see repro.cluster):
    requests are consistent-hash routed to worker processes, coalesced
    into bounded solve windows, and the global energy budget ``--budget``
    is split into per-shard leases with demand-weighted rebalancing;
    ``--journal-root`` gives every shard a crash-safe energy ledger that
    ``repro.cluster.audit_cluster`` certifies against the budget.
``bench serve``
    Serving benchmark: drive the same closed/open-loop load through a
    single process and an N-shard cluster, report throughput and
    p50/p90/p99 latency for both, and write the comparison (plus
    per-shard energy spend and the budget audit) to
    ``benchmarks/BENCH_serve.json``.
``bench profile``
    Profiling benchmark: run the seeded two-case workload down the
    fractional/LP/rounding/planner paths under telemetry, record the
    per-phase wall-time splits and span coverage to
    ``benchmarks/BENCH_profile.json``
    (``benchmarks/check_regression.py --profile`` gates CI on the
    recorded per-phase budgets).
``top``
    Live terminal dashboard for a running cluster: per-shard qps, queue
    delay p99, admit rate, energy-lease utilization, and the top-5
    hottest phases by span self time — refreshed in place (``q`` quits;
    ``--once`` prints a single frame).
``online``
    Rolling-horizon serving of a Poisson stream; with ``--journal-dir``
    the run is durable (write-ahead journal + snapshots) and *resumes*
    an interrupted run deterministically (see repro.durability).
``crashtest``
    Crash-injection campaign: kill a durable run at random journal byte
    offsets (mid-record included), recover, resume, and require the
    outcome to be identical to the uninterrupted run with energy within
    budget.  Exit code 0 iff every kill point passes.
``chaos soak`` / ``chaos timeline``
    Cluster-level chaos (see repro.chaos): ``soak`` runs N seeded
    fault-injection campaigns (worker SIGKILL/exit, stalls, dropped
    replies, torn journal writes, lease-release delays, rebalance clock
    skew) against live clusters and certifies the energy-budget,
    at-most-once and liveness invariants after each; ``timeline``
    prints a seed's planned fault schedule without running anything.
    Exit code 0 iff every campaign certifies.
``robustness``
    Failure-injection sweeps: ``--sweep outage`` (most-loaded machine
    dies mid-horizon) or ``--sweep slowdown`` (uniform throttling).
``resilience``
    Online-serving outage demo comparing the stale plan against
    failure-aware replanning (see repro.resilience).
``report``
    Regenerate the full reproduction report into one Markdown file.
``telemetry``
    Inspect a metrics file written by ``--metrics-out`` (counters,
    histograms and the solver-phase span tree).
``trace``
    Extract request traces from a metrics file or a running server and
    export them as Chrome/Perfetto ``trace_event`` JSON or a
    self-contained HTML timeline (see repro.observe).
``slo``
    Evaluate a metrics file against SLO targets (p99 solve latency,
    accuracy floor, deadline-miss rate) and optionally replay a
    durability journal through the energy burn-rate monitor.
``explain``
    Decision provenance: attribute every task's compression level to
    its binding constraint (deadline / energy / work cap / none) using
    LP shadow prices, and price +1 J and +1 s of slack.
``lint``
    Domain-aware static analysis (see repro.lint): unit-dimension
    checking, float-equality and atomic-write rules, concurrency-safety
    lints, and scheduling-invariant conventions; ``--select/--ignore``
    filter rules, ``--format json`` is machine-readable, exit code 1
    means findings.

``solve``, ``compare`` and ``serve`` accept ``--metrics-out PATH``:
the run executes under an active telemetry collector and the collected
metrics/spans are exported to PATH (format from the suffix: ``.jsonl``
or ``.prom``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .algorithms.registry import available_schedulers, make_scheduler
from .core.instance import ProblemInstance
from .experiments import (
    EnergyGainConfig,
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
    Table1Config,
    run_energy_gain,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4_machines,
    run_fig4_tasks,
    run_fig5,
    run_fig6,
    run_table1,
)
from .experiments.records import ResultTable
from .hardware import sample_uniform_cluster
from .simulator import ClusterSimulator, PowerModel
from .workloads import TaskGenConfig, generate_tasks

__all__ = ["main", "build_parser"]


def _make_instance(args: argparse.Namespace) -> ProblemInstance:
    cluster = sample_uniform_cluster(args.machines, seed=args.seed)
    config = TaskGenConfig(
        n=args.tasks,
        theta_range=(args.theta_min, args.theta_max),
        rho=args.rho,
    )
    tasks = generate_tasks(config, cluster, seed=args.seed + 1 if args.seed is not None else None)
    return ProblemInstance.with_beta(tasks, cluster, args.beta)


def _add_metrics_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="collect telemetry and export it here (.jsonl/.prom)",
    )


@contextlib.contextmanager
def _metrics_scope(args: argparse.Namespace) -> Iterator[None]:
    """Collect and export telemetry when ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if path is None:
        yield
        return
    from .telemetry import collector, ensure_trace, export_file

    # The whole command runs under one trace (reused if already active),
    # so every exported capture is `repro trace`-able.
    with collector() as registry, ensure_trace():
        yield
    out = export_file(registry, path)
    print(f"telemetry written to {out}")


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tasks", "-n", type=int, default=50, help="number of tasks")
    parser.add_argument("--machines", "-m", type=int, default=3, help="number of machines")
    parser.add_argument("--beta", type=float, default=0.5, help="energy budget ratio β")
    parser.add_argument("--rho", type=float, default=0.5, help="deadline tolerance ρ")
    parser.add_argument("--theta-min", type=float, default=0.1, help="min task efficiency θ")
    parser.add_argument("--theta-max", type=float, default=1.0, help="max task efficiency θ")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _cmd_solve(args: argparse.Namespace) -> int:
    with _metrics_scope(args):
        return _run_solve(args)


def _run_solve(args: argparse.Namespace) -> int:
    if args.load is not None:
        import json

        from .core.serialization import instance_from_dict

        data = json.loads(Path(args.load).read_text())
        # Accept either an instance document or a schedule document with
        # an embedded instance (as written by `solve --save`).
        if data.get("format") == "repro.schedule" and "instance" in data:
            data = data["instance"]
        instance = instance_from_dict(data)
    else:
        instance = _make_instance(args)
    if args.fallback:
        from .resilience import FallbackChain

        scheduler = FallbackChain.default(deadline_seconds=args.solver_timeout, first=args.scheduler)
        result = scheduler.solve_with_info(instance)
    else:
        scheduler = make_scheduler(args.scheduler)
        if args.solver_timeout is not None:
            from .resilience import run_with_deadline

            result = run_with_deadline(
                lambda: scheduler.solve_with_info(instance), args.solver_timeout, solver=scheduler.name
            )
        else:
            result = scheduler.solve_with_info(instance)
    schedule = result.schedule
    report = ClusterSimulator(
        instance,
        power_model=PowerModel(instance.cluster, idle_fraction=args.idle_fraction, account_idle=args.idle_fraction > 0),
    ).run(schedule)
    print(f"instance: {instance}")
    print(f"method:   {scheduler.name}" + (f"  ({result.info.runtime_seconds:.4f}s)" if result.info.runtime_seconds else ""))
    if "tier" in result.info.extra:
        print(f"served by fallback tier: {result.info.extra['tier']} (index {result.info.extra['tier_index']})")
    print(report.summary())
    audit = schedule.feasibility()
    print(f"model feasibility: {audit.summary()}")
    if args.gantt:
        print(report.trace.gantt())
    if args.analyze:
        from .core.analysis import format_analysis

        print(format_analysis(schedule))
    if args.save is not None:
        from .core.serialization import save_schedule

        save_schedule(schedule, args.save)
        print(f"schedule saved to {args.save}")
    return 0 if audit.feasible else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    with _metrics_scope(args):
        return _run_compare(args)


def _run_compare(args: argparse.Namespace) -> int:
    instance = _make_instance(args)
    table = ResultTable(
        title=f"method comparison on {instance}",
        columns=["method", "mean_accuracy", "energy_J", "budget_used_pct", "runtime_s"],
    )
    for name in args.schedulers:
        scheduler = make_scheduler(name)
        result = scheduler.solve_with_info(instance)
        sched = result.schedule
        table.add_row(
            scheduler.name,
            sched.mean_accuracy,
            sched.total_energy,
            100.0 * sched.total_energy / instance.budget if instance.budget else 0.0,
            result.info.runtime_seconds or 0.0,
        )
    print(table.format())
    return 0


_FIGURE_RUNNERS = {
    "fig1": lambda scale: run_fig1(),
    "fig2": lambda scale: run_fig2(),
    "fig3": lambda scale: run_fig3(
        Fig3Config() if scale == "paper" else Fig3Config(mu_values=(5.0, 10.0, 20.0), repetitions=5, n=40, m=3)
    ),
    "fig4a": lambda scale: run_fig4_tasks(
        Fig4Config() if scale == "paper" else Fig4Config(task_counts=(10, 20, 30), repetitions=1, time_limit=10.0, fixed_m=3)
    ),
    "fig4b": lambda scale: run_fig4_machines(
        Fig4Config() if scale == "paper" else Fig4Config(machine_counts=(2, 4), fixed_n=20, repetitions=1, time_limit=10.0)
    ),
    "table1": lambda scale: run_table1(
        Table1Config() if scale == "paper" else Table1Config(task_counts=(100, 200), repetitions=1)
    ),
    "fig5": lambda scale: run_fig5(Fig5Config() if scale == "paper" else Fig5Config(n=40, repetitions=2)),
    "gain": lambda scale: run_energy_gain(
        EnergyGainConfig() if scale == "paper" else EnergyGainConfig(n=40, repetitions=2)
    ),
    "fig6a": lambda scale: run_fig6("uniform", Fig6Config() if scale == "paper" else Fig6Config(n=40, repetitions=2)),
    "fig6b": lambda scale: run_fig6("earliest", Fig6Config() if scale == "paper" else Fig6Config(n=40, repetitions=2)),
}


def _cmd_figures(args: argparse.Namespace) -> int:
    names = list(_FIGURE_RUNNERS) if "all" in args.names else args.names
    unknown = [n for n in names if n not in _FIGURE_RUNNERS]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; known: {', '.join(_FIGURE_RUNNERS)}", file=sys.stderr)
        return 2
    for name in names:
        table = _FIGURE_RUNNERS[name](args.scale)
        print(table.format())
        print()
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            table.to_csv(args.out / f"{name}.csv")
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    print(run_fig1().format())
    return 0


def _cmd_schedulers(_args: argparse.Namespace) -> int:
    for name in available_schedulers():
        print(name)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ReportConfig, write_report

    path = write_report(
        args.out,
        ReportConfig(scale=args.scale),
        progress=lambda label: print(f"  running {label} ..."),
    )
    print(f"report written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .observe import SLOSpec
    from .server import serve

    slo = SLOSpec(
        p99_solve_latency=args.slo_p99,
        accuracy_floor=args.slo_accuracy_floor,
        deadline_miss_rate=args.slo_miss_rate,
    )
    serve(
        args.host,
        args.port,
        metrics_out=args.metrics_out,
        solver_timeout=args.solver_timeout,
        fallback=args.fallback,
        max_in_flight=args.max_in_flight,
        journal_dir=str(args.journal_dir) if args.journal_dir is not None else None,
        snapshot_every=args.snapshot_every,
        slo=None if slo.empty else slo,
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import ClusterConfig, serve_cluster

    config = ClusterConfig(
        shards=args.shards,
        budget=args.budget,
        journal_root=str(args.journal_root) if args.journal_root is not None else None,
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait / 1000.0,
        solver_timeout=args.solver_timeout,
        fallback=args.fallback,
        rebalance_seconds=args.rebalance_seconds,
        queue_target_seconds=args.queue_target,
        max_queue_per_shard=args.max_queue,
        adaptive_lifo=args.adaptive_lifo,
    )
    serve_cluster(args.host, args.port, config=config)
    return 0


def _cmd_bench_overload(args: argparse.Namespace) -> int:
    from .overload.bench import bench_overload

    report = bench_overload(
        str(args.out),
        shards=args.shards,
        scheduler=args.scheduler,
        n_tasks=args.tasks,
        n_machines=args.machines,
        beta=args.beta,
        budget=args.budget,
        journal_root=str(args.journal_root) if args.journal_root is not None else None,
        seed=args.seed,
        calibrate_seconds=args.calibrate,
        phase_seconds=args.phase_seconds,
        concurrency=args.concurrency,
        deadline_seconds=args.deadline,
        queue_target_seconds=args.queue_target,
        recovery_settle_seconds=args.settle,
        min_recovery=args.min_recovery,
    )
    audit = report.get("audit")
    audited = audit is None or audit["certified"]
    return 0 if report["recovered"] and audited and report["doomed_dispatched"] == 0 else 1


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from .cluster import bench_serve

    report = bench_serve(
        str(args.out),
        shards=args.shards,
        duration=args.duration,
        concurrency=args.concurrency,
        rate=args.rate,
        scheduler=args.scheduler,
        n_tasks=args.tasks,
        n_machines=args.machines,
        beta=args.beta,
        budget=args.budget,
        journal_root=str(args.journal_root) if args.journal_root is not None else None,
        max_batch=args.max_batch,
        max_wait_seconds=args.max_wait / 1000.0,
        seed=args.seed,
        skip_single=args.skip_single,
    )
    audit = report.get("audit")
    return 0 if audit is None or audit["certified"] else 1


def _cmd_bench_profile(args: argparse.Namespace) -> int:
    from .profile.bench import run_profile_bench

    report = run_profile_bench(out=str(args.out), repeats=args.repeats, stream=sys.stdout)
    solve_coverage = report["solve"]["coverage"]
    if solve_coverage < 0.9:
        print(f"FAIL: solve span coverage {solve_coverage:.1%} (need >= 90%)", file=sys.stderr)
        return 1
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from .profile.top import run_top

    return run_top(
        args.url,
        interval=args.interval,
        once=args.once,
        max_frames=args.frames,
    )


def _cmd_online(args: argparse.Namespace) -> int:
    """Durable (or plain) rolling-horizon serving of a Poisson stream."""
    with _metrics_scope(args):
        return _run_online(args)


def _run_online(args: argparse.Namespace) -> int:
    from .online.planner import RollingHorizonPlanner
    from .utils.errors import RecoveryError
    from .workloads.arrivals import PoissonArrivals

    if args.journal_dir is None and args.budget_fraction is not None:
        # Only the durable run carries a global budget.
        print("error: --budget-fraction needs --journal-dir", file=sys.stderr)
        return 2
    cluster = sample_uniform_cluster(args.machines, seed=args.seed)
    requests = PoissonArrivals(args.rate, seed=args.seed + 1).generate(args.horizon)
    if not requests:
        print("the arrival process generated no requests; raise --rate or --horizon", file=sys.stderr)
        return 2
    planner = RollingHorizonPlanner(
        cluster,
        make_scheduler(args.scheduler),
        window_seconds=args.window,
        power_cap_fraction=args.power_cap_fraction,
    )
    if args.journal_dir is None:
        report = planner.run(requests)
        print(f"served {report.n_requests} requests in {len(report.windows)} windows ({args.scheduler})")
        print(f"mean accuracy {report.mean_accuracy:.4f}, on-time {100.0 * report.on_time_fraction:.1f}%")
        print(f"energy {report.total_energy:.1f} J")
        return 0

    budget_fraction = 0.35 if args.budget_fraction is None else args.budget_fraction
    budget = budget_fraction * args.horizon * cluster.total_power
    try:
        report = planner.run_durable(
            requests,
            args.journal_dir,
            energy_budget=budget,
            snapshot_every=args.snapshot_every,
            meta={"seed": args.seed, "rate": args.rate, "horizon": args.horizon},
        )
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"served {report.n_requests} requests in {len(report.windows)} windows ({args.scheduler})")
    if report.replayed_windows:
        print(f"resumed interrupted run: {report.replayed_windows} windows replayed from the journal")
    print(f"mean accuracy {report.mean_accuracy:.4f}, on-time {100.0 * report.on_time_fraction:.1f}%")
    print(f"energy {report.total_energy:.1f} J of budget {budget:.1f} J")
    print(f"journal at {args.journal_dir} (snapshot every {args.snapshot_every} windows)")
    return 0 if report.total_energy <= budget * (1 + 1e-9) else 1


def _cmd_crashtest(args: argparse.Namespace) -> int:
    """Crash-injection campaign over the durable serving loop."""
    from .durability.crashtest import CrashTestConfig, run_crash_test

    config = CrashTestConfig(
        kills=args.kills,
        seed=args.seed,
        machines=args.machines,
        rate=args.rate,
        horizon=args.horizon,
        window_seconds=args.window,
        scheduler=args.scheduler,
        snapshot_every=args.snapshot_every,
    )
    result = run_crash_test(
        config,
        workdir=args.workdir,
        progress=print if args.verbose else None,
    )
    print(result.summary())
    return 0 if result.passed else 1


def _cmd_chaos_soak(args: argparse.Namespace) -> int:
    """Seeded chaos campaigns against live clusters; exit 1 on violations."""
    import json as _json

    from .chaos import run_soak
    from .utils.fileio import atomic_write

    seeds = args.seed_list if args.seed_list else list(range(args.seed, args.seed + args.seeds))
    out_root = args.out
    if out_root is None:
        import tempfile

        out_root = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    report = run_soak(
        seeds,
        out_root,
        shards=args.shards,
        budget=args.budget,
        requests=args.requests,
        n_events=args.events,
        max_op=args.max_op,
        scheduler=args.scheduler,
        request_timeout_seconds=args.request_timeout,
        min_resolve_rate=args.min_resolve_rate,
        progress=print,
    )
    atomic_write(Path(out_root) / "soak_report.json", _json.dumps(report.to_dict(), indent=2))
    print(report.summary())
    print(f"campaign artifacts (shard ledgers + chaos journals) under {out_root}")
    if not report.ok:
        for violation in report.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos_timeline(args: argparse.Namespace) -> int:
    """Print a seed's planned fault timeline (no cluster is started)."""
    from .chaos import ChaosSchedule

    shard_ids = [f"shard-{i:02d}" for i in range(args.shards)]
    schedule = ChaosSchedule(args.seed, shard_ids, n_events=args.events, max_op=args.max_op)
    print(f"chaos timeline for seed {args.seed} over {args.shards} shard(s):")
    for event in schedule.events:
        print(f"  {event.describe()}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments.robustness import RobustnessConfig, run_outage_sweep, run_slowdown_sweep

    config = RobustnessConfig(
        n=args.tasks, m=args.machines, beta=args.beta, repetitions=args.repetitions, seed=args.seed
    )
    runner = run_outage_sweep if args.sweep == "outage" else run_slowdown_sweep
    table = runner(config)
    print(table.format())
    if args.out is not None:
        table.to_csv(args.out)
        print(f"csv written to {args.out}")
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    """The headline resilience demo: stale plan vs failure-aware replanning."""
    with _metrics_scope(args):
        return _run_resilience(args)


def _run_resilience(args: argparse.Namespace) -> int:
    from .experiments.records import ResultTable
    from .simulator.failures import FailureModel, Outage
    from .simulator.online_sim import OnlineSimulation
    from .workloads.arrivals import PoissonArrivals

    cluster = sample_uniform_cluster(args.machines, seed=args.seed)
    requests = PoissonArrivals(args.rate, seed=args.seed + 1).generate(args.horizon)
    if not requests:
        print("the arrival process generated no requests; raise --rate or --horizon", file=sys.stderr)
        return 2
    # The most efficient machine carries the most planned load under the
    # paper's energy-greedy policies, so killing machine 0 mid-stream is
    # the worst single outage.
    failures = FailureModel(outages=(Outage(machine=0, at=args.outage_at * args.horizon),))
    scheduler = make_scheduler(args.scheduler)

    def run(replan: bool):
        sim = OnlineSimulation(
            cluster,
            scheduler,
            window_seconds=args.window,
            failures=failures,
            replan=replan,
        )
        return sim.run(requests)

    stale, aware = run(False), run(True)
    table = ResultTable(
        title=(
            f"Resilience — outage of machine 0 at t={args.outage_at * args.horizon:.1f}s, "
            f"{len(requests)} requests over {args.horizon:.0f}s ({scheduler.name})"
        ),
        columns=["mode", "mean_accuracy", "served_pct", "slo_pct", "disrupted", "energy_J"],
    )
    for mode, rep in (("stale plan", stale), ("replanned", aware)):
        table.add_row(
            mode,
            rep.mean_accuracy,
            100.0 * rep.served_fraction,
            100.0 * rep.slo_attainment,
            rep.disrupted_count,
            rep.energy,
        )
    recovered = aware.mean_accuracy - stale.mean_accuracy
    table.notes.append(
        f"replanning recovered {recovered:.4g} mean accuracy "
        f"({100.0 * recovered / max(stale.mean_accuracy, 1e-12):.1f}% over the stale plan)"
    )
    print(table.format())
    if args.out is not None:
        table.to_csv(args.out)
        print(f"csv written to {args.out}")
    return 0 if aware.mean_accuracy >= stale.mean_accuracy else 1


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Summarise an exported metrics file: series tables + span tree."""
    from .telemetry import TelemetryError, load_file

    try:
        snap = load_file(args.path, format=args.format)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except (TelemetryError, ValueError, KeyError) as exc:
        fmt = args.format or "auto-detected"
        print(f"error: {args.path} does not parse as {fmt} telemetry: {exc}", file=sys.stderr)
        return 2
    # Deterministic inspector output: series sort by (name, labels), so
    # two inspections of the same capture diff clean regardless of
    # registration order.
    by_series = lambda m: (m["name"], sorted(m["labels"].items()))  # noqa: E731
    scalars = sorted(
        (m for m in snap["metrics"] if m["kind"] in ("counter", "gauge")), key=by_series
    )
    histograms = sorted(
        (m for m in snap["metrics"] if m["kind"] == "histogram"), key=by_series
    )
    spans = snap["spans"]

    if scalars:
        print(f"-- counters / gauges ({len(scalars)} series)")
        for m in scalars:
            print(f"  {m['kind']:<8} {m['name']}{_format_labels(m['labels'])} = {m['value']:g}")
    if histograms:
        print(f"-- histograms ({len(histograms)} series)")
        for m in histograms:
            mean = m["sum"] / m["count"] if m["count"] else 0.0
            # Prometheus exposition carries no min/max, so they may be absent.
            has_extremes = m.get("count") and m.get("min") is not None and m.get("max") is not None
            extremes = f"  min={m['min']:.6g} max={m['max']:.6g}" if has_extremes else ""
            exemplar = m.get("exemplar")
            linked = (
                f"  exemplar={exemplar['value']:.6g} trace={exemplar['trace_id']}"
                if exemplar
                else ""
            )
            print(
                f"  {m['name']}{_format_labels(m['labels'])}: "
                f"count={m['count']} sum={m['sum']:.6g} mean={mean:.6g}{extremes}{linked}"
            )
    if spans:
        shown = spans if args.spans is None else spans[: args.spans]
        print(f"-- spans ({len(spans)} recorded, showing {len(shown)})")
        for s in shown:
            duration = "open" if s["duration"] is None else f"{s['duration'] * 1e3:.3f} ms"
            indent = "  " * s["depth"]
            print(f"  {s['start']:9.4f}s  {indent}{s['name']}{_format_labels(s['labels'])}  {duration}")
    if not (scalars or histograms or spans):
        print("(no telemetry in file)")
    return 0


def _load_trace_snapshot(args: argparse.Namespace) -> Optional[dict]:
    """The span snapshot behind ``repro trace``: a file or a live server."""
    source = str(args.source)
    if source.startswith(("http://", "https://")):
        import json as _json
        from urllib.request import urlopen

        if args.trace_id is None:
            print("error: a server source needs --trace-id (ids are per request)", file=sys.stderr)
            return None
        with urlopen(f"{source.rstrip('/')}/trace/{args.trace_id}") as resp:
            document = _json.loads(resp.read().decode())
        # Back-convert trace_event JSON into the span-dict shape the
        # exporters consume, so every output path below works uniformly.
        spans = [
            {
                "span_id": e["args"]["span_id"],
                "parent_id": e["args"].get("parent_id"),
                "name": e["name"],
                "depth": e["args"].get("depth", 0),
                "start": e["ts"] / 1e6,
                "duration": None if e["args"].get("unfinished") else e["dur"] / 1e6,
                "labels": {
                    k: v
                    for k, v in e["args"].items()
                    if k not in ("span_id", "parent_id", "depth", "trace_id", "unfinished")
                },
                "trace_id": e["args"].get("trace_id", args.trace_id),
            }
            for e in document.get("traceEvents", [])
        ]
        return {"metrics": [], "spans": spans}
    from .telemetry import TelemetryError, load_file

    try:
        return load_file(args.source, format=args.format)
    except OSError as exc:
        print(f"error: cannot read {args.source}: {exc}", file=sys.stderr)
        return None
    except (TelemetryError, ValueError, KeyError) as exc:
        print(f"error: {args.source} does not parse as telemetry: {exc}", file=sys.stderr)
        return None


def _cmd_trace(args: argparse.Namespace) -> int:
    """Export one trace (or list the traces) from a snapshot or server."""
    from .observe import trace_ids, trace_spans, write_html_timeline, write_trace_events

    snap = _load_trace_snapshot(args)
    if snap is None:
        return 2
    ids = trace_ids(snap)
    if args.list:
        if not ids:
            print("(no traced spans)")
        for tid in ids:
            print(f"{tid}  ({len(trace_spans(snap, tid))} spans)")
        return 0
    trace_id = args.trace_id
    if trace_id is None:
        if len(ids) == 1:
            trace_id = ids[0]
        elif not ids:
            print("error: the source holds no traced spans", file=sys.stderr)
            return 2
        else:
            print(
                f"error: {len(ids)} traces present; pick one with --trace-id "
                f"(see --list)",
                file=sys.stderr,
            )
            return 2
    spans = trace_spans(snap, trace_id)
    if not spans:
        print(f"error: no spans for trace {trace_id!r}", file=sys.stderr)
        return 2
    wrote = False
    if args.out is not None:
        path = write_trace_events(spans, args.out, trace_id=trace_id)
        print(f"trace_event JSON written to {path} (load at https://ui.perfetto.dev)")
        wrote = True
    if args.html is not None:
        path = write_html_timeline(spans, args.html, trace_id=trace_id)
        print(f"HTML timeline written to {path}")
        wrote = True
    if not wrote:
        print(f"trace {trace_id} — {len(spans)} span(s)")
        for s in spans:
            duration = "open" if s["duration"] is None else f"{s['duration'] * 1e3:.3f} ms"
            indent = "  " * s["depth"]
            print(f"  {s['start']:9.4f}s  {indent}{s['name']}{_format_labels(s['labels'])}  {duration}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate a metrics file against SLO targets; optional burn replay."""
    from .observe import BurnRateMonitor, SLOSpec, evaluate
    from .telemetry import TelemetryError, load_file

    spec = SLOSpec(
        p99_solve_latency=args.p99,
        accuracy_floor=args.accuracy_floor,
        deadline_miss_rate=args.miss_rate,
        queue_delay_p99=args.queue_delay_p99,
        latency_span=args.latency_span,
    )
    failed = False
    if args.path is not None:
        try:
            snap = load_file(args.path, format=args.format)
        except OSError as exc:
            print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
            return 2
        except (TelemetryError, ValueError, KeyError) as exc:
            print(f"error: {args.path} does not parse as telemetry: {exc}", file=sys.stderr)
            return 2
        if spec.empty:
            print(
                "no SLO targets given (use --p99 / --accuracy-floor / "
                "--miss-rate / --queue-delay-p99)"
            )
        else:
            report = evaluate(snap, spec)
            print(report.summary())
            failed = failed or not report.ok

    if args.journal_dir is not None:
        if args.budget is None or args.horizon is None:
            print("error: --journal-dir needs --budget and --horizon", file=sys.stderr)
            return 2
        from .durability import read_events

        events = read_events(args.journal_dir)
        if not events:
            print(f"error: no journal records under {args.journal_dir}", file=sys.stderr)
            return 2
        monitor = BurnRateMonitor(budget=args.budget, horizon=args.horizon)
        # A window's spend accrues while it runs, so its cumulative total
        # is stamped at the window's close, not its start.
        meta = next((e.get("meta", {}) for e in events if e.get("type") == "run_start"), {})
        window_seconds = float(meta.get("window_seconds", 0.0))
        samples = 0
        for event in events:
            if event.get("type") == "window_done" and "cum_energy" in event:
                closed_at = float(event["start"]) + window_seconds
                for alert in monitor.observe(closed_at, float(event["cum_energy"])):
                    print(f"ALERT {alert}")
                    failed = True
                samples += 1
        print(
            f"burn-rate replay over {samples} ledger sample(s): "
            f"spent {monitor.spent:.1f}/{monitor.budget:.1f} J "
            f"({100.0 * monitor.spent_fraction:.1f}%), "
            f"fast {monitor.burn_rate(monitor.fast_window):.2f}x, "
            f"slow {monitor.burn_rate(monitor.slow_window):.2f}x sustainable"
        )
        eta = monitor.projected_exhaustion()
        if eta is not None and not monitor.exhausted:
            print(f"projected exhaustion at t={eta:.1f}s (horizon {args.horizon:g}s)")

    if args.path is None and args.journal_dir is None:
        print("error: give a metrics file and/or --journal-dir", file=sys.stderr)
        return 2
    return 1 if failed else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Decision provenance for one instance (LP duals when available)."""
    import json as _json

    from .observe import explain_instance, explain_schedule

    if args.load is not None:
        from .core.serialization import instance_from_dict

        data = _json.loads(Path(args.load).read_text())
        if data.get("format") == "repro.schedule" and "instance" in data:
            data = data["instance"]
        instance = instance_from_dict(data)
    else:
        instance = _make_instance(args)
    if args.scheduler == "lp":
        report = explain_instance(instance)
    else:
        schedule = make_scheduler(args.scheduler).solve(instance)
        if args.duals:
            from .exact.lp import solve_lp_with_duals

            _, _, duals = solve_lp_with_duals(instance)
            report = explain_schedule(schedule, duals)
        else:
            report = explain_schedule(schedule)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the repro.lint static analyzer (exit 1 on findings)."""
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_validate(args: argparse.Namespace) -> int:
    """Audit FR-OPT against the exact LP on random instances."""
    import numpy as np

    from .algorithms.fractional import solve_fractional
    from .exact.lp import solve_lp_relaxation
    from .workloads import TaskGenConfig, generate_tasks

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    failures = 0
    for i in range(args.instances):
        n = int(rng.integers(2, args.max_tasks + 1))
        m = int(rng.integers(1, args.max_machines + 1))
        beta = float(rng.uniform(0.05, 1.2))
        rho = float(rng.uniform(0.1, 1.8))
        cluster = sample_uniform_cluster(m, seed=int(rng.integers(1 << 31)))
        tasks = generate_tasks(
            TaskGenConfig(n=n, theta_range=(0.1, 2.0), rho=rho),
            cluster,
            seed=int(rng.integers(1 << 31)),
        )
        instance = ProblemInstance.with_beta(tasks, cluster, beta)
        frac, _ = solve_fractional(instance, thorough=args.thorough)
        _, lp_obj = solve_lp_relaxation(instance)
        rel = (lp_obj - frac.total_accuracy) / max(lp_obj, 1e-12)
        worst = max(worst, rel)
        if rel > args.tolerance:
            failures += 1
            print(f"  instance {i}: n={n} m={m} beta={beta:.2f} rho={rho:.2f} rel gap {rel:.2e}")
    print(
        f"validated {args.instances} instances: worst relative gap {worst:.2e}, "
        f"{failures} beyond tolerance {args.tolerance:.0e}"
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSCT-EA: energy-aware scheduling of compressible ML inference tasks (ICPP'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="schedule one synthetic instance")
    _add_instance_args(p_solve)
    p_solve.add_argument("--scheduler", default="approx", help="method name (see `schedulers`)")
    p_solve.add_argument("--idle-fraction", type=float, default=0.0, help="idle power fraction for the simulator")
    p_solve.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    p_solve.add_argument("--analyze", action="store_true", help="print compression/energy analytics")
    p_solve.add_argument("--save", type=Path, default=None, help="save the schedule (with instance) as JSON")
    p_solve.add_argument("--load", type=Path, default=None, help="load the instance from a JSON file instead of generating")
    p_solve.add_argument(
        "--solver-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for the solve (SolverTimeoutError past it)",
    )
    p_solve.add_argument(
        "--fallback",
        action="store_true",
        help="serve through the MIP→LP→approx→greedy fallback chain (with --scheduler pinned first)",
    )
    _add_metrics_arg(p_solve)
    p_solve.set_defaults(fn=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="compare methods on one instance")
    _add_instance_args(p_cmp)
    p_cmp.add_argument(
        "--schedulers",
        nargs="+",
        default=["fractional", "approx", "edf-3levels", "edf-nocompression"],
        help="method names to compare",
    )
    _add_metrics_arg(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    p_fig.add_argument("names", nargs="+", help=f"figure names or 'all' ({', '.join(_FIGURE_RUNNERS)})")
    p_fig.add_argument("--scale", choices=("default", "paper"), default="default")
    p_fig.add_argument("--out", type=Path, default=None, help="CSV output directory")
    p_fig.set_defaults(fn=_cmd_figures)

    p_cat = sub.add_parser("catalog", help="print the GPU catalog (Fig. 1)")
    p_cat.set_defaults(fn=_cmd_catalog)

    p_sch = sub.add_parser("schedulers", help="list registered methods")
    p_sch.set_defaults(fn=_cmd_schedulers)

    p_val = sub.add_parser("validate", help="audit FR-OPT vs the exact LP on random instances")
    p_val.add_argument("--instances", type=int, default=50)
    p_val.add_argument("--max-tasks", type=int, default=12)
    p_val.add_argument("--max-machines", type=int, default=5)
    p_val.add_argument("--tolerance", type=float, default=2e-3)
    p_val.add_argument("--thorough", action="store_true", help="use the exhaustive profile polish")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=_cmd_validate)

    p_rep = sub.add_parser("report", help="write the full reproduction report (Markdown)")
    p_rep.add_argument("--out", type=Path, default=Path("reproduction_report.md"))
    p_rep.add_argument("--scale", choices=("smoke", "default", "paper"), default="default")
    p_rep.set_defaults(fn=_cmd_report)

    p_srv = sub.add_parser("serve", help="run the local HTTP scheduling service")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8080)
    p_srv.add_argument(
        "--solver-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request solver wall-clock deadline (503 past it)",
    )
    p_srv.add_argument(
        "--fallback",
        action="store_true",
        help="serve every request through the fallback chain (requested scheduler first)",
    )
    p_srv.add_argument("--max-in-flight", type=int, default=8, help="concurrent solve bound (503 beyond it)")
    p_srv.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal every solve's energy here; a restarted server recovers its ledger",
    )
    p_srv.add_argument(
        "--snapshot-every", type=int, default=10, help="snapshot the ledger every N solves"
    )
    p_srv.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="SLO target: p99 solve latency (reported on /slo)",
    )
    p_srv.add_argument(
        "--slo-accuracy-floor",
        type=float,
        default=None,
        metavar="ACC",
        help="SLO target: mean served accuracy floor (reported on /slo)",
    )
    p_srv.add_argument(
        "--slo-miss-rate",
        type=float,
        default=None,
        metavar="FRACTION",
        help="SLO target: max deadline-miss rate (reported on /slo)",
    )
    _add_metrics_arg(p_srv)
    p_srv.set_defaults(fn=_cmd_serve)

    p_clu = sub.add_parser(
        "cluster", help="run the sharded multi-worker serving front-end (see repro.cluster)"
    )
    p_clu.add_argument("--host", default="127.0.0.1")
    p_clu.add_argument("--port", type=int, default=8080)
    p_clu.add_argument("--shards", type=int, default=2, help="number of worker processes")
    p_clu.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="JOULES",
        help="global energy budget B, split into per-shard leases (unbounded if omitted)",
    )
    p_clu.add_argument(
        "--journal-root",
        type=Path,
        default=None,
        metavar="DIR",
        help="per-shard write-ahead energy ledgers under DIR/shard-NN (auditable)",
    )
    p_clu.add_argument("--max-batch", type=int, default=8, help="max requests coalesced per solve window")
    p_clu.add_argument(
        "--max-wait", type=float, default=10.0, metavar="MS", help="cap on a request's wait while its shard is busy"
    )
    p_clu.add_argument(
        "--solver-timeout", type=float, default=None, metavar="SECONDS", help="per-request solver deadline"
    )
    p_clu.add_argument("--fallback", action="store_true", help="serve through the fallback chain")
    p_clu.add_argument(
        "--rebalance-seconds", type=float, default=2.0, help="period of the lease rebalance"
    )
    p_clu.add_argument(
        "--queue-target",
        type=float,
        default=None,
        metavar="SECONDS",
        help="adaptive admission: AIMD the admit rate when queue delay exceeds this",
    )
    p_clu.add_argument(
        "--max-queue", type=int, default=1024, help="bounded per-shard request queue"
    )
    p_clu.add_argument(
        "--adaptive-lifo",
        action="store_true",
        help="newest-first dequeue within each priority class under overload",
    )
    p_clu.set_defaults(fn=_cmd_cluster)

    p_top = sub.add_parser("top", help="live terminal dashboard for a running cluster")
    p_top.add_argument("url", help="cluster front-end base URL (http://host:port)")
    p_top.add_argument("--interval", type=float, default=1.0, help="refresh period (s)")
    p_top.add_argument("--once", action="store_true", help="print one frame and exit (no ANSI)")
    p_top.add_argument(
        "--frames", type=int, default=None, metavar="N", help="exit after N refreshes"
    )
    p_top.set_defaults(fn=_cmd_top)

    p_ben = sub.add_parser("bench", help="serving benchmarks (see repro.cluster.bench)")
    ben_sub = p_ben.add_subparsers(dest="bench_command", required=True)
    p_bsv = ben_sub.add_parser(
        "serve", help="load-generate against one process and an N-shard cluster; write BENCH_serve.json"
    )
    p_bsv.add_argument("--out", type=Path, default=Path("benchmarks/BENCH_serve.json"))
    p_bsv.add_argument("--shards", type=int, default=4, help="cluster size to benchmark")
    p_bsv.add_argument("--duration", type=float, default=5.0, help="seconds of load per side")
    p_bsv.add_argument("--concurrency", type=int, default=8, help="closed-loop client count")
    p_bsv.add_argument(
        "--rate", type=float, default=None, metavar="RPS", help="open-loop Poisson arrivals instead of closed loop"
    )
    p_bsv.add_argument("--scheduler", default="approx")
    p_bsv.add_argument("--tasks", "-n", type=int, default=20, help="tasks per request instance")
    p_bsv.add_argument("--machines", "-m", type=int, default=4, help="machines per request instance")
    p_bsv.add_argument("--beta", type=float, default=0.5, help="energy budget ratio β of the instance")
    p_bsv.add_argument(
        "--budget", type=float, default=None, metavar="JOULES", help="global cluster budget for the run"
    )
    p_bsv.add_argument(
        "--journal-root", type=Path, default=None, metavar="DIR", help="shard ledgers here (enables the audit)"
    )
    p_bsv.add_argument("--max-batch", type=int, default=8)
    p_bsv.add_argument("--max-wait", type=float, default=5.0, metavar="MS")
    p_bsv.add_argument("--seed", type=int, default=0)
    p_bsv.add_argument("--skip-single", action="store_true", help="skip the single-process baseline")
    p_bsv.set_defaults(fn=_cmd_bench_serve)

    p_bov = ben_sub.add_parser(
        "overload",
        help="seeded ramp/spike/sustained overload campaign; write BENCH_overload.json",
    )
    p_bov.add_argument("--out", type=Path, default=Path("benchmarks/BENCH_overload.json"))
    p_bov.add_argument("--shards", type=int, default=2, help="cluster size to stress")
    p_bov.add_argument("--scheduler", default="approx")
    p_bov.add_argument("--tasks", "-n", type=int, default=10, help="tasks per request instance")
    p_bov.add_argument("--machines", "-m", type=int, default=3, help="machines per request instance")
    p_bov.add_argument("--beta", type=float, default=0.5, help="energy budget ratio β of the instance")
    p_bov.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="JOULES",
        help="global cluster budget (default: auto-sized to the campaign when --journal-root is set)",
    )
    p_bov.add_argument(
        "--journal-root", type=Path, default=None, metavar="DIR", help="shard ledgers here (enables the audit)"
    )
    p_bov.add_argument("--seed", type=int, default=0, help="seeds the arrival schedule and priority mix")
    p_bov.add_argument("--calibrate", type=float, default=2.0, metavar="SECONDS", help="capacity calibration burst")
    p_bov.add_argument("--phase-seconds", type=float, default=4.0, help="duration of each load phase")
    p_bov.add_argument("--concurrency", type=int, default=8, help="calibration client count")
    p_bov.add_argument("--deadline", type=float, default=2.0, metavar="SECONDS", help="per-request deadline")
    p_bov.add_argument(
        "--queue-target", type=float, default=0.25, metavar="SECONDS", help="AIMD queue-delay target"
    )
    p_bov.add_argument(
        "--settle",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="controller relaxation window at recovery start (loaded, unmeasured)",
    )
    p_bov.add_argument(
        "--min-recovery", type=float, default=0.95, help="required post-spike goodput fraction of baseline"
    )
    p_bov.set_defaults(fn=_cmd_bench_overload)

    p_bpr = ben_sub.add_parser(
        "profile",
        help="per-phase wall-time splits + span coverage; write BENCH_profile.json",
    )
    p_bpr.add_argument("--out", type=Path, default=Path("benchmarks/BENCH_profile.json"))
    p_bpr.add_argument("--repeats", type=int, default=3, help="timed repetitions per path")
    p_bpr.set_defaults(fn=_cmd_bench_profile)

    p_onl = sub.add_parser(
        "online", help="rolling-horizon serving of a Poisson stream (durable with --journal-dir)"
    )
    p_onl.add_argument("--machines", "-m", type=int, default=3)
    p_onl.add_argument("--rate", type=float, default=6.0, help="Poisson arrival rate (req/s)")
    p_onl.add_argument("--horizon", type=float, default=12.0, help="stream length (s)")
    p_onl.add_argument("--window", type=float, default=2.0, help="planning window (s)")
    p_onl.add_argument("--power-cap-fraction", type=float, default=0.5, help="window energy cap (per-window β)")
    p_onl.add_argument(
        "--budget-fraction",
        type=float,
        default=None,
        help="global budget B as a fraction of horizon × total power (needs --journal-dir; default 0.35)",
    )
    p_onl.add_argument("--scheduler", default="approx", help="planning method (see `schedulers`)")
    p_onl.add_argument("--seed", type=int, default=0)
    p_onl.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="run durably: journal + snapshots here, resume an interrupted run",
    )
    p_onl.add_argument("--snapshot-every", type=int, default=5, help="snapshot every N windows")
    _add_metrics_arg(p_onl)
    p_onl.set_defaults(fn=_cmd_online)

    p_cra = sub.add_parser(
        "crashtest", help="crash-injection campaign: kill/recover/resume must be identical"
    )
    p_cra.add_argument("--kills", type=int, default=25, help="random kill points (one forced mid-record)")
    p_cra.add_argument("--seed", type=int, default=0)
    p_cra.add_argument("--machines", "-m", type=int, default=3)
    p_cra.add_argument("--rate", type=float, default=6.0, help="Poisson arrival rate (req/s)")
    p_cra.add_argument("--horizon", type=float, default=10.0, help="stream length (s)")
    p_cra.add_argument("--window", type=float, default=2.0, help="planning window (s)")
    p_cra.add_argument("--scheduler", default="approx")
    p_cra.add_argument("--snapshot-every", type=int, default=2, help="snapshot every N windows")
    p_cra.add_argument("--workdir", type=Path, default=None, help="keep campaign artifacts here")
    p_cra.add_argument("--verbose", "-v", action="store_true", help="print per-kill progress")
    p_cra.set_defaults(fn=_cmd_crashtest)

    p_cha = sub.add_parser(
        "chaos", help="deterministic cluster fault injection (see repro.chaos)"
    )
    cha_sub = p_cha.add_subparsers(dest="chaos_command", required=True)
    p_csk = cha_sub.add_parser(
        "soak", help="run N seeded chaos campaigns and certify the budget/liveness invariants"
    )
    p_csk.add_argument("--shards", type=int, default=2, help="cluster size per campaign")
    p_csk.add_argument("--seeds", type=int, default=3, help="number of campaigns (seeds seed..seed+N-1)")
    p_csk.add_argument("--seed", type=int, default=0, help="first campaign seed")
    p_csk.add_argument(
        "--seed-list", type=int, nargs="+", default=None, metavar="S", help="explicit campaign seeds (overrides --seeds/--seed)"
    )
    p_csk.add_argument("--budget", type=float, default=150_000.0, metavar="JOULES", help="global budget B per campaign")
    p_csk.add_argument("--requests", type=int, default=30, help="solve requests per campaign")
    p_csk.add_argument("--events", type=int, default=6, help="planned faults per campaign")
    p_csk.add_argument("--max-op", type=int, default=12, help="latest trigger point (per-site operation count)")
    p_csk.add_argument("--scheduler", default="approx")
    p_csk.add_argument(
        "--request-timeout", type=float, default=10.0, metavar="SECONDS", help="per-request cluster timeout"
    )
    p_csk.add_argument(
        "--min-resolve-rate", type=float, default=0.99, help="required fraction of requests resolving (result or 503)"
    )
    p_csk.add_argument(
        "--out", type=Path, default=None, metavar="DIR", help="keep campaign artifacts here (default: temp dir)"
    )
    p_csk.set_defaults(fn=_cmd_chaos_soak)
    p_ctl = cha_sub.add_parser("timeline", help="print a seed's planned fault timeline")
    p_ctl.add_argument("--seed", type=int, default=0)
    p_ctl.add_argument("--shards", type=int, default=2)
    p_ctl.add_argument("--events", type=int, default=6)
    p_ctl.add_argument("--max-op", type=int, default=12)
    p_ctl.set_defaults(fn=_cmd_chaos_timeline)

    p_rob = sub.add_parser("robustness", help="failure-injection sweeps (outage / slowdown)")
    p_rob.add_argument("--sweep", choices=("outage", "slowdown"), required=True)
    p_rob.add_argument("--tasks", "-n", type=int, default=50, help="tasks per instance")
    p_rob.add_argument("--machines", "-m", type=int, default=3, help="machines per instance")
    p_rob.add_argument("--beta", type=float, default=0.5, help="energy budget ratio β")
    p_rob.add_argument("--repetitions", type=int, default=5)
    p_rob.add_argument("--seed", type=int, default=2024)
    p_rob.add_argument("--out", type=Path, default=None, help="also write the table as CSV")
    p_rob.set_defaults(fn=_cmd_robustness)

    p_res = sub.add_parser(
        "resilience", help="online-serving outage demo: stale plan vs failure-aware replanning"
    )
    p_res.add_argument("--machines", "-m", type=int, default=3)
    p_res.add_argument("--rate", type=float, default=6.0, help="Poisson arrival rate (req/s)")
    p_res.add_argument("--horizon", type=float, default=12.0, help="stream length (s)")
    p_res.add_argument("--window", type=float, default=2.0, help="planning window (s)")
    p_res.add_argument(
        "--outage-at", type=float, default=0.4, help="outage instant as a fraction of the horizon"
    )
    p_res.add_argument("--scheduler", default="approx", help="planning method (see `schedulers`)")
    p_res.add_argument("--seed", type=int, default=7)
    p_res.add_argument("--out", type=Path, default=None, help="also write the table as CSV")
    _add_metrics_arg(p_res)
    p_res.set_defaults(fn=_cmd_resilience)

    p_tel = sub.add_parser("telemetry", help="inspect a metrics file written by --metrics-out")
    p_tel.add_argument("path", type=Path, help="metrics file (.jsonl/.prom)")
    p_tel.add_argument(
        "--format",
        choices=("jsonl", "prometheus"),
        default=None,
        help="override format detection by suffix",
    )
    p_tel.add_argument("--spans", type=int, default=None, help="show at most N spans")
    p_tel.set_defaults(fn=_cmd_telemetry)

    p_trc = sub.add_parser(
        "trace", help="export request traces as Perfetto trace_event JSON or an HTML timeline"
    )
    p_trc.add_argument(
        "source",
        help="metrics file written by --metrics-out, or a server base URL (http://host:port)",
    )
    p_trc.add_argument("--trace-id", default=None, help="trace to extract (required for a server source)")
    p_trc.add_argument("--list", action="store_true", help="list the trace ids in the source and exit")
    p_trc.add_argument("--out", type=Path, default=None, metavar="PATH", help="write trace_event JSON here")
    p_trc.add_argument("--html", type=Path, default=None, metavar="PATH", help="write an HTML timeline here")
    p_trc.add_argument(
        "--format",
        choices=("jsonl", "prometheus"),
        default=None,
        help="override file-format detection by suffix",
    )
    p_trc.set_defaults(fn=_cmd_trace)

    p_slo = sub.add_parser(
        "slo", help="evaluate SLO targets on a metrics file; replay a journal through the burn monitor"
    )
    p_slo.add_argument("path", nargs="?", type=Path, default=None, help="metrics file (.jsonl/.prom)")
    p_slo.add_argument("--p99", type=float, default=None, metavar="SECONDS", help="p99 solve latency target")
    p_slo.add_argument("--accuracy-floor", type=float, default=None, metavar="ACC", help="mean accuracy floor")
    p_slo.add_argument(
        "--miss-rate", type=float, default=None, metavar="FRACTION", help="max deadline-miss rate"
    )
    p_slo.add_argument(
        "--queue-delay-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="max p99 cluster queue sojourn (frontend_queue_delay_seconds)",
    )
    p_slo.add_argument(
        "--latency-span", default="server.solve", help="span name measured for the latency SLO"
    )
    p_slo.add_argument(
        "--format",
        choices=("jsonl", "prometheus"),
        default=None,
        help="override file-format detection by suffix",
    )
    p_slo.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="replay this durability journal's energy ledger through the burn-rate monitor",
    )
    p_slo.add_argument("--budget", type=float, default=None, metavar="JOULES", help="energy budget B for the replay")
    p_slo.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS", help="horizon the budget must last"
    )
    p_slo.set_defaults(fn=_cmd_slo)

    p_lnt = sub.add_parser(
        "lint", help="domain-aware static analysis (units, concurrency, invariants)"
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p_lnt)
    p_lnt.set_defaults(fn=_cmd_lint)

    p_exp = sub.add_parser(
        "explain", help="decision provenance: why each task got its compression level"
    )
    _add_instance_args(p_exp)
    p_exp.add_argument(
        "--scheduler",
        default="lp",
        help="method to explain; 'lp' (default) uses exact shadow prices",
    )
    p_exp.add_argument(
        "--duals",
        action="store_true",
        help="with a non-LP scheduler, still price constraints with the LP's duals",
    )
    p_exp.add_argument("--load", type=Path, default=None, help="load the instance from a JSON file instead of generating")
    p_exp.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_exp.set_defaults(fn=_cmd_explain)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
