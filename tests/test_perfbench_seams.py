"""The repo benchmark's layer tracing still finds every seam it patches.

``perfbench/layers.py`` wraps named functions and methods of the program
(handler classes, ``ClusterManager`` methods, ``SolveService.solve``,
``JournalWriter.append``, ...).  A rename breaks its traced runs; this
check catches that in the unit suite.  It installs the wrappers in a
subprocess, so the patches never reach this test process.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_layers_install():
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]; "
        "import layers; layers.install()"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
