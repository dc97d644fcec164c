"""Shared fixtures and instance factories for the test suite."""

from __future__ import annotations

import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Deterministic property testing: the same examples every run, so the
# suite's pass/fail status is reproducible across machines and reruns.
settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.core import (
    Cluster,
    ExponentialAccuracy,
    Machine,
    PiecewiseLinearAccuracy,
    ProblemInstance,
    Task,
    TaskSet,
    fit_piecewise,
)
from repro.utils import units


def make_cluster(m=3, seed=0, speed_range=(1.0, 20.0), eff_range=(5.0, 60.0)):
    """Random cluster in the paper's parameter ranges."""
    rng = np.random.default_rng(seed)
    return Cluster(
        [
            Machine.from_tflops(float(rng.uniform(*speed_range)), float(rng.uniform(*eff_range)))
            for _ in range(m)
        ]
    )


def make_tasks(n=8, seed=0, theta_range=(0.1, 2.0), deadline_range=(0.5, 3.0), n_segments=5):
    """Random tasks with exponential-fit piecewise accuracy functions."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(n):
        theta = float(rng.uniform(*theta_range)) / units.TERA
        pla = fit_piecewise(ExponentialAccuracy(theta), n_segments)
        tasks.append(Task(deadline=float(rng.uniform(*deadline_range)), accuracy=pla))
    return TaskSet(tasks)


def make_instance(n=8, m=3, beta=0.5, rho=0.5, seed=1, theta_range=(0.1, 2.0), n_segments=5):
    """Random instance with a target deadline tolerance and budget ratio."""
    rng = np.random.default_rng(seed)
    cluster = make_cluster(m, seed=rng.integers(1 << 31))
    tasks = make_tasks(
        n, seed=rng.integers(1 << 31), theta_range=theta_range, n_segments=n_segments
    )
    scale = rho * tasks.total_f_max / (tasks.d_max * cluster.total_speed)
    tasks = TaskSet([Task(t.deadline * scale, t.accuracy) for t in tasks])
    return ProblemInstance.with_beta(tasks, cluster, beta)


def simple_pla(slopes=(2e-13, 1e-13), widths=(1e12, 2e12), a_min=0.0):
    """Small hand-built piecewise-linear accuracy function."""
    return PiecewiseLinearAccuracy.from_slopes(list(slopes), list(widths), a_min)


@pytest.fixture
def cluster():
    return make_cluster()


@pytest.fixture
def tasks():
    return make_tasks()


@pytest.fixture
def instance():
    return make_instance()


def post_status_with_content_length(port, content_length, timeout=5.0):
    """Status code of a raw ``POST /solve`` that never closes its socket.

    The declared ``Content-Length`` is sent as given and no body
    follows, so a server that waits for the client to hang up never
    answers: ``recv`` times out instead of returning a status line.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            (
                "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {content_length}\r\n\r\n"
            ).encode()
        )
        status_line = sock.recv(4096).split(b"\r\n", 1)[0]
    return int(status_line.split()[1])
