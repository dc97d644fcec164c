"""The CI benchmark regression gate.

Compares a pytest-benchmark run (``--benchmark-json`` output) against the
committed baseline ``benchmarks/BENCH_baseline.json`` and **fails** (exit
1) when any benchmark's mean slows down beyond the threshold (default
1.25x, i.e. a >25% regression).  Benchmarks missing from the baseline are
reported but never gate — new benchmarks land first, get a baseline
second.

With ``--overload`` the gate also (or instead) checks an overload-bench
report (``repro bench overload`` output): post-spike goodput must
recover to at least ``--min-recovery`` of the pre-spike baseline, no
doomed request may reach a worker, and when the run journaled, the
ledger audit must certify Σ spent ≤ B.

With ``--profile`` the gate checks a profiling-bench report (``repro
bench profile`` output) against the committed per-phase budgets in
``benchmarks/BENCH_profile.json``: each phase's *share* of its path's
wall time may grow at most ``--threshold``-fold over the baseline share
(shares — not absolute seconds — survive CI machines of different
speeds), and solve-path span coverage must stay >= 90%.  Phases below a 5% baseline share never gate
(noise), and phases new to the run are reported but ungated.

With ``--lint-runtime`` the gate re-runs the analyzer commands recorded
in ``benchmarks/BENCH_lint.json`` (``repro lint src`` and ``repro lint
src tests``, each applying every rule) and fails when any run exits
non-zero or exceeds ``--lint-factor`` times (default 2x) its committed
``wall_s`` budget — the backstop against an accidentally quadratic rule
landing unnoticed.

Usage::

    python benchmarks/check_regression.py BENCH_current.json \
        --baseline benchmarks/BENCH_baseline.json --threshold 1.25
    python benchmarks/check_regression.py \
        --overload benchmarks/BENCH_overload.json --min-recovery 0.95
    python benchmarks/check_regression.py \
        --profile BENCH_profile_current.json \
        --profile-baseline benchmarks/BENCH_profile.json
    python benchmarks/check_regression.py \
        --lint-runtime benchmarks/BENCH_lint.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path


def compare(current_path: str, baseline_path: str, threshold: float) -> int:
    baseline = json.loads(Path(baseline_path).read_text())["benchmarks"]
    document = json.loads(Path(current_path).read_text())
    current = {bench["name"]: bench["stats"] for bench in document["benchmarks"]}

    failures = []
    print(f"{'benchmark':<36} {'baseline':>10} {'current':>10} {'ratio':>8}  gate")
    for name, stats in sorted(current.items()):
        reference = baseline.get(name, {}).get("mean_s")
        mean = stats["mean"]
        if reference is None:
            print(f"{name:<36} {'—':>10} {mean:>10.4f} {'n/a':>8}  new (ungated)")
            continue
        ratio = mean / reference
        verdict = "ok" if ratio <= threshold else f"FAIL (> {threshold:.2f}x)"
        print(f"{name:<36} {reference:>10.4f} {mean:>10.4f} {ratio:>7.2f}x  {verdict}")
        if ratio > threshold:
            failures.append((name, ratio))

    stale = sorted(set(baseline) - set(current))
    for name in stale:
        print(f"{name:<36} {baseline[name]['mean_s']:>10.4f} {'—':>10} {'n/a':>8}  missing from run")

    if failures:
        worst = max(failures, key=lambda item: item[1])
        print(
            f"\nREGRESSION: {len(failures)} benchmark(s) beyond {threshold:.2f}x "
            f"(worst: {worst[0]} at {worst[1]:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(current)} benchmark(s) within {threshold:.2f}x of baseline")
    return 0


def check_overload(path: str, min_recovery: float) -> int:
    """Gate an overload-bench report: recovery, shed discipline, audit."""
    report = json.loads(Path(path).read_text())
    failures = []

    fraction = float(report.get("recovery_fraction", 0.0))
    verdict = "ok" if fraction >= min_recovery else f"FAIL (< {min_recovery:.0%})"
    print(f"{'goodput recovery':<36} {fraction:>9.1%} vs {min_recovery:>7.0%}  {verdict}")
    if fraction < min_recovery:
        failures.append(f"goodput recovered only {fraction:.1%} (bar {min_recovery:.0%})")

    doomed = int(report.get("doomed_dispatched", 0))
    print(f"{'doomed requests dispatched':<36} {doomed:>9d} vs {0:>7d}  "
          f"{'ok' if doomed == 0 else 'FAIL (must be 0)'}")
    if doomed != 0:
        failures.append(f"{doomed} certain-miss request(s) reached a worker")

    audit = report.get("audit")
    if audit is not None:
        certified = bool(audit.get("certified"))
        spent = audit.get("total_spent_joules")
        budget = audit.get("budget_joules")
        detail = f"{spent:.0f} J of {budget:.0f} J" if budget else f"{spent:.0f} J, unbounded"
        print(f"{'ledger audit':<36} {detail:>22}  {'ok' if certified else 'FAIL (violations)'}")
        if not certified:
            failures.append(
                f"ledger audit found {len(audit.get('violations', []))} violation(s)"
            )
    else:
        print(f"{'ledger audit':<36} {'—':>22}  n/a (unjournaled run)")

    if failures:
        print(f"\nOVERLOAD GATE: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print("\noverload gate passed")
    return 0


#: Baseline shares below this never gate: a phase that was 2% of its
#: path can triple on scheduler jitter alone without meaning anything.
MIN_GATED_SHARE = 0.05


def check_profile(current_path: str, baseline_path: str, threshold: float) -> int:
    """Gate a profiling-bench report on per-phase share regressions."""
    current = json.loads(Path(current_path).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    base_budgets = baseline.get("budgets", {})
    cur_budgets = current.get("budgets", {})
    failures = []

    print(f"{'path/phase':<44} {'baseline':>9} {'current':>9} {'ratio':>7}  gate")
    for key in sorted(cur_budgets):
        share = float(cur_budgets[key])
        reference = base_budgets.get(key)
        if reference is None:
            print(f"{key:<44} {'—':>9} {share:>8.1%} {'n/a':>7}  new (ungated)")
            continue
        reference = float(reference)
        if reference < MIN_GATED_SHARE:
            print(f"{key:<44} {reference:>8.1%} {share:>8.1%} {'n/a':>7}  below floor (ungated)")
            continue
        ratio = share / reference
        verdict = "ok" if ratio <= threshold else f"FAIL (> {threshold:.2f}x)"
        print(f"{key:<44} {reference:>8.1%} {share:>8.1%} {ratio:>6.2f}x  {verdict}")
        if ratio > threshold:
            failures.append(f"{key} share grew {ratio:.2f}x ({reference:.1%} -> {share:.1%})")

    coverage = float(current.get("solve", {}).get("coverage", 0.0))
    print(f"{'solve span coverage':<44} {'90%':>9} {coverage:>8.1%} {'':>7}  "
          f"{'ok' if coverage >= 0.9 else 'FAIL (< 90%)'}")
    if coverage < 0.9:
        failures.append(f"solve span coverage fell to {coverage:.1%} (bar 90%)")

    if failures:
        print(f"\nPROFILE GATE: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print(f"\nprofile gate passed ({len(cur_budgets)} phase budget(s) checked)")
    return 0


def check_lint_runtime(baseline_path: str, factor: float) -> int:
    """Gate the analyzer's own wall time against its committed budget."""
    baseline = json.loads(Path(baseline_path).read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    failures = []
    print(f"{'lint run':<28} {'budget':>8} {'limit':>8} {'wall':>8}  gate")
    for name, spec in sorted(baseline.get("runs", {}).items()):
        budget = float(spec["wall_s"])
        limit = budget * factor
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *spec["args"]], env=env, capture_output=True, text=True
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"{name:<28} {budget:>7.1f}s {limit:>7.1f}s {wall:>7.1f}s  FAIL (exit {proc.returncode})")
            tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
            for line in tail:
                print(f"    {line}")
            failures.append(f"{name} exited {proc.returncode}")
            continue
        verdict = "ok" if wall <= limit else f"FAIL (> {factor:.1f}x budget)"
        print(f"{name:<28} {budget:>7.1f}s {limit:>7.1f}s {wall:>7.1f}s  {verdict}")
        if wall > limit:
            failures.append(f"{name} took {wall:.1f}s (limit {limit:.1f}s)")
    if failures:
        print(f"\nLINT RUNTIME GATE: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print("\nlint runtime gate passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", nargs="?", help="pytest-benchmark JSON of the run under test"
    )
    parser.add_argument(
        "--baseline", default="benchmarks/BENCH_baseline.json", help="committed baseline JSON"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="max tolerated current/baseline mean ratio (default 1.25 = +25%%)",
    )
    parser.add_argument(
        "--overload", help="`repro bench overload` report JSON to gate on goodput recovery"
    )
    parser.add_argument(
        "--min-recovery",
        type=float,
        default=0.95,
        help="min post-spike/baseline goodput fraction for --overload (default 0.95)",
    )
    parser.add_argument(
        "--profile", help="`repro bench profile` report JSON to gate on per-phase budgets"
    )
    parser.add_argument(
        "--profile-baseline",
        default="benchmarks/BENCH_profile.json",
        help="committed per-phase budget baseline for --profile",
    )
    parser.add_argument(
        "--lint-runtime",
        help="committed lint wall-time budgets (benchmarks/BENCH_lint.json) to gate against",
    )
    parser.add_argument(
        "--lint-factor",
        type=float,
        default=2.0,
        help="max tolerated wall/budget ratio for --lint-runtime (default 2.0)",
    )
    args = parser.parse_args(argv)
    if (
        args.current is None
        and args.overload is None
        and args.profile is None
        and args.lint_runtime is None
    ):
        parser.error(
            "nothing to gate: pass a benchmark JSON, --overload, --profile, and/or --lint-runtime"
        )
    exit_code = 0
    if args.current is not None:
        exit_code |= compare(args.current, args.baseline, args.threshold)
    if args.overload is not None:
        exit_code |= check_overload(args.overload, args.min_recovery)
    if args.profile is not None:
        exit_code |= check_profile(args.profile, args.profile_baseline, args.threshold)
    if args.lint_runtime is not None:
        exit_code |= check_lint_runtime(args.lint_runtime, args.lint_factor)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
