"""Helpers the benchmark modules import by name.

They live here, not in ``conftest.py``: ``tests/`` has a ``conftest.py``
of its own, and one pytest run over both directories binds the module
name ``conftest`` to only one of them.  Fixtures and hooks stay in
``benchmarks/conftest.py``.

Set ``REPRO_PAPER_SCALE=1`` to run the sweeps at the full published
parameters (much slower: 100 repetitions, 60 s MIP limit, n up to 500).
"""

from __future__ import annotations

import os

#: True when the full published parameters were requested.
PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0", "false")


def run_once(benchmark, fn):
    """Run a full experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
