"""Seeded inputs of the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same documents, byte for byte.  Instance mixes are stratified (each
consecutive block of requests covers the same grid of sizes, clusters
and budget ratios), so two seeds differ in task details, not in how
much work a run holds.

The verification sets, on which quality is measured, are the same for
every seed (``verification=True``): quality then compares exactly
between runs and between commits, and only the load varies with the
seed.  They are drawn from their own random streams, so they never
coincide with a load instance.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

from repro.core.instance import ProblemInstance
from repro.core.serialization import cluster_to_dict, instance_to_dict
from repro.hardware.sampling import sample_uniform_cluster
from repro.workloads.arrivals import MMPPArrivals
from repro.workloads.generator import TaskGenConfig, generate_tasks

BETAS = (0.3, 0.5, 0.8)
THETA_RANGE = (0.1, 1.0)

#: solve-large: the 4 fixed clusters, m = 5..8, the same for every seed.
LARGE_CLUSTERS = [sample_uniform_cluster(m, seed=1000 + m) for m in (5, 6, 7, 8)]

#: online-rolling: the fixed 4-machine cluster and the stream shape.
ONLINE_CLUSTER = sample_uniform_cluster(4, seed=4004)
WINDOW_SECONDS = 2.0
POWER_CAP_FRACTION = 0.5
EPISODE_SECONDS = 60.0  # 30 planning windows per stream


class Request:
    """One generated instance: the document sent and the instance it encodes."""

    __slots__ = ("index", "instance", "body", "trace_id")

    def __init__(self, index: int, instance: ProblemInstance, trace_id: str):
        self.index = index
        self.instance = instance
        self.body = json.dumps(instance_to_dict(instance)).encode()
        self.trace_id = trace_id


def _rng(seed: int, verification: bool, workload: int, index: int) -> np.random.Generator:
    key = [1, 0] if verification else [0, int(seed)]
    return np.random.default_rng(key + [workload, index])


def _trace_id(seed: int, verification: bool, index: int) -> str:
    return f"{0xFFFFFFFF if verification else seed & 0x7FFFFFFF:08x}{index:08x}"


def solve_large(seed: int, count: int, *, verification: bool = False) -> List[Request]:
    """n in [100, 160], m in [5, 8] from the fixed clusters, beta in {0.3, 0.5, 0.8}."""
    out = []
    for i in range(count):
        cluster = LARGE_CLUSTERS[i % 4]
        beta = BETAS[(i // 4) % 3]
        n = 100 + (23 * i) % 61
        rng = _rng(seed, verification, 1, i)
        tasks = generate_tasks(TaskGenConfig(n=n, theta_range=THETA_RANGE), cluster, seed=rng)
        instance = ProblemInstance.with_beta(tasks, cluster, beta)
        out.append(Request(i, instance, _trace_id(seed, verification, i)))
    return out


def serve_small(seed: int, count: int, *, verification: bool = False) -> List[Request]:
    """n in [4, 12], m in [2, 3], each instance on its own sampled cluster."""
    out = []
    for i in range(count):
        rng = _rng(seed, verification, 2, i)
        cluster = sample_uniform_cluster(2 + i % 2, seed=rng)
        n = 4 + (5 * i) % 9
        tasks = generate_tasks(TaskGenConfig(n=n, theta_range=THETA_RANGE), cluster, seed=rng)
        instance = ProblemInstance.with_beta(tasks, cluster, BETAS[(i // 2) % 3])
        out.append(Request(i, instance, _trace_id(seed, verification, i)))
    return out


def arrival_offsets(seed: int, rate: float, seconds: float) -> List[float]:
    """Poisson arrivals at ``rate`` over ``seconds``, conditioned on their count.

    Given N arrivals in [0, T), a Poisson process places them as sorted
    uniform draws; fixing N = rate * T keeps the offered load identical
    across seeds while the spacing stays Poisson.
    """
    count = max(int(round(rate * seconds)), 1)
    return sorted(float(x) for x in _rng(seed, False, 3, 0).uniform(0.0, seconds, size=count))


def online_streams(seed: int, count: int, *, verification: bool = False) -> Dict[str, Any]:
    """``count`` bursty MMPP request streams.

    Calm phases arrive at 20/s and bursts at 60/s, so a 2 s window holds
    40-120 requests; phases last 2 s on average, so windows mix both
    and window sizes spread smoothly between the two rates.  SLOs are
    0.5-2 s.
    """
    streams = []
    for k in range(count):
        arrivals = MMPPArrivals(
            20.0,
            60.0,
            mean_phase_seconds=2.0,
            slo_range=(0.5, 2.0),
            theta_range=THETA_RANGE,
            seed=_rng(seed, verification, 4, k),
        ).generate(EPISODE_SECONDS)
        streams.append([[r.arrival_time, r.slo_seconds, r.theta_per_tflop] for r in arrivals])
    window_budget = POWER_CAP_FRACTION * WINDOW_SECONDS * ONLINE_CLUSTER.total_power
    return {
        "cluster": cluster_to_dict(ONLINE_CLUSTER),
        "window_seconds": WINDOW_SECONDS,
        "power_cap_fraction": POWER_CAP_FRACTION,
        # Finite, so recovery certifies every stream against it, and twice
        # what the stream's windows can spend, so it never binds.
        "energy_budget": 2.0 * window_budget * (EPISODE_SECONDS / WINDOW_SECONDS + 1),
        "episodes": streams,
    }
