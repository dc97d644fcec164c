"""repro.lint — domain-aware static analysis for the DSCT-EA codebase.

Generic linters see Python; they do not see the *physics*.  DSCT-EA
correctness hinges on arithmetic Python cannot type-check — FLOPs,
joules, seconds and their ratios (s_r, P_r, E_r = s_r/P_r) flow through
every solver as plain ``float`` — and on serving-stack disciplines
(crash-safe writes, monotonic clocks, trace propagation, bounded
waits and queues, settled energy grants) that are enforced only by
convention.  This package encodes those conventions as machine-checked
AST rules:

Domain rules
    ========  =====================================================
    RL001     unit-dimension mismatch (adding seconds to joules,
              double-converting through :mod:`repro.utils.units`)
    RL002     float ``==``/``!=`` on energy/accuracy/time values
    RL003     non-atomic state-file write (use ``utils.atomic_write``)
    RL004     ``time.time()`` in scheduling/timeout paths
              (wall clocks jump; use ``time.monotonic()``)
    RL005     raw power-of-ten scale factor (use the units helpers)
    ========  =====================================================

Concurrency rules
    ========  =====================================================
    RL012     ``threading.Thread`` target that drops the ambient
              trace/collector context (silent trace-id loss)
    RL013     unbounded ``queue.get()``/``process.join()`` in the
              cluster data plane (hangs on a SIGKILLed peer)
    RL014     unbounded ``Queue()``/``deque()`` in the cluster and
              overload data plane (stored overload collapse)
    ========  =====================================================

Whole-program rules (joined over every file of the run)
    ========  =====================================================
    RL017     energy-grant leak: a ``reserve()``/``_reserve_for()``
              grant that can miss ``commit()``/``release()`` on some
              CFG path — exception edges included
    RL018     unit-dimension mismatch across a call boundary
              (seconds passed into a ``budget`` parameter)
    ========  =====================================================

Every run is one pass: each file is parsed once, walked once by the
per-file rules, and summarised (:mod:`repro.lint.flow`) into dataflow
facts — symbol tables, per-function CFGs with explicit exception edges,
call records — which are joined into a project-wide call graph for the
whole-program rules.

Any finding can be suppressed per line with ``# repro: noqa[RL001]``
(or blanket ``# repro: noqa``); see :mod:`repro.lint.suppress`.

Entry points: :func:`lint_paths` / :func:`lint_source` for programmatic
use, ``repro lint`` (see :mod:`repro.lint.cli`) for the command line.
"""

from __future__ import annotations

from .engine import LintEngine, lint_file, lint_paths, lint_source
from .finding import Finding, Severity
from .registry import RuleRegistry, all_rules, get_rule, register_rule
from .reporters import render_json, render_sarif, render_text
from .rules import Rule
from .suppress import SuppressionIndex

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SuppressionIndex",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
]
