"""Whole-program rules: energy-grant leaks and cross-call units.

These rules consume the :class:`~repro.lint.flow.program.Program` the
engine joins on every run — they see every analysed file's
summaries at once, so they catch exactly the bug classes a one-file AST
walk cannot:

* **RL017** — an ``EnergyLeaseLedger`` grant that can miss its
  ``commit()``/``release()`` on some CFG path.  Every leaked grant is
  headroom the ledger believes is still spoken for — the budget
  invariant Σ spent ≤ B survives, but the cluster serves ever less of
  B.  Exception edges are where these hide (a runtime test never takes
  them); the prover in :mod:`repro.lint.flow.summaries` walks them
  explicitly.
* **RL018** — a unit-dimension error *across* a call boundary: the
  caller passes seconds into a parameter named ``budget`` (joules).
  RL001 checks expressions; this rule checks signatures.

Both are scoped to production sources (``tests/`` excluded): tests
exercise the ledger API half-settled on purpose.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from . import Rule
from ..finding import Severity
from ..registry import register_rule

if TYPE_CHECKING:
    from ..finding import Finding
    from ..flow.program import Program

__all__ = ["GrantLeakRule", "InterproceduralUnitsRule"]

_TEST_EXCLUDES = ("tests/*", "*/tests/*", "test_*", "*/test_*")


@register_rule
class GrantLeakRule(Rule):
    """RL017 — every reserved energy grant must settle on every path."""

    code = "RL017"
    name = "energy-grant-leak"
    rationale = (
        "The ledger's budget proof (sum spent <= B) counts a reservation "
        "as spoken-for until commit() or release() returns it; a grant "
        "variable that can reach function exit — especially via an "
        "exception edge no runtime test ever takes — leaks that headroom "
        "forever, and the cluster quietly serves less and less of B (the "
        "phantom-reservation failure repro.chaos hunts at runtime).  This "
        "rule is the static counterpart: the CFG prover must show every "
        "reserve()/_reserve_for() grant reaches a settle, an explicit "
        "hand-off, or a guarded release on *all* paths."
    )
    severity = Severity.ERROR
    whole_program = True
    exclude = _TEST_EXCLUDES

    def visit_program(self, program: "Program") -> Iterator["Finding"]:
        for func in program.functions():
            if not func.grant_leaks:
                continue
            display, rel = program.location(func.qualname)
            if not self.applies_to(rel):
                continue
            for leak in func.grant_leaks:
                if leak.path_kind == "discarded":
                    message = (
                        f"grant from {leak.reserve_text} is discarded — bind it "
                        f"and commit()/release() it on every path"
                    )
                else:
                    path = (
                        "an exception path (no runtime test takes it)"
                        if leak.path_kind == "exception"
                        else "a normal path"
                    )
                    message = (
                        f"energy grant {leak.variable!r} from {leak.reserve_text} "
                        f"can leak on {path}: reserved here but neither "
                        f"committed nor released after line {leak.leak_line} — "
                        f"settle it in a finally/except or hand it off explicitly"
                    )
                yield self.program_finding(display, leak.line, leak.col, message)


@register_rule
class InterproceduralUnitsRule(Rule):
    """RL018 — argument dimensions must match the callee's parameter names."""

    code = "RL018"
    name = "cross-call-unit-mismatch"
    rationale = (
        "RL001 catches `deadline + energy` inside one expression, but the "
        "same bug crossing a call boundary — passing a duration where the "
        "callee's parameter is named `budget` (joules) — is invisible to a "
        "per-file walk.  Parameter names in this codebase carry their unit "
        "(the RL001 name tables); when the caller's inferred argument "
        "dimension contradicts the callee parameter's named dimension, one "
        "side is wrong."
    )
    severity = Severity.ERROR
    whole_program = True
    exclude = _TEST_EXCLUDES

    def visit_program(self, program: "Program") -> Iterator["Finding"]:
        from .domain import dim_name

        for mismatch in program.dim_mismatches():
            display, rel = program.location(mismatch.caller)
            if not self.applies_to(rel):
                continue
            callee_name = mismatch.callee.rsplit(".", 1)[-1]
            yield self.program_finding(
                display,
                mismatch.record.line,
                mismatch.record.col,
                f"{mismatch.arg_label} of {callee_name}() is "
                f"{dim_name(mismatch.arg_dim)} but parameter "
                f"{mismatch.param!r} expects {dim_name(mismatch.param_dim)}",
            )
