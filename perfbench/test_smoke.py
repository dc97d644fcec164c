"""Smoke test of the benchmark: every workload, briefly, traced.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs for two seconds untraced and two traced.  The test
checks that every end-to-end metric of BENCHMARK.json prints with its
unit, that the last line carries every per-layer metric with its unit,
that the audits ran and passed, and that the load generator stayed
within ``nproc`` threads and connections.  A last case checks that the
benchmark refuses to run, printing no result, without the program's
sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)


def _run(cwd: str, workload: str, seconds: int = 2, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_workload_prints_every_metric(workload):
    done = _run(ROOT, workload)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for entry in CONTRACT["per_layer"]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    table = "\n".join(lines[:-1])
    for entry in CONTRACT["end_to_end"]:
        assert re.search(rf"^{re.escape(entry['name'])}\s+\S+\s+{re.escape(entry['unit'])}$", table, re.M), entry
    assert "audits: all passed" in table
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert 0.95 <= coverage <= 1.0 + 1e-9
    generator = re.search(r"load generator: (\d+) threads, (\d+) connections", table)
    if generator is not None:
        nproc = os.cpu_count() or 1
        assert int(generator.group(1)) <= nproc and int(generator.group(2)) <= nproc


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    done = _run(str(tmp_path), CONTRACT["workloads"][0]["name"], trace=0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
