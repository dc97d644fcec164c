"""Whole-program rules: lock cycles, grant leaks, units, transitive blocking.

These rules consume the :class:`~repro.lint.flow.program.Program` the
engine joins on every run — they see every analysed file's
summaries at once, so they catch exactly the bug classes a one-file AST
walk cannot:

* **RL016** — a cycle in the cross-module lock-order graph.  Thread 1
  takes A then (through any call chain) B while thread 2 takes B then
  A: a deadlock that no single file contains.
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
* **RL019** — blocking work reached *transitively* from a lock-held
  region.  RL011 flags ``fsync`` under ``with lock:`` in the same
  file; this rule flags ``with lock: self._flush()`` where ``_flush``
  (or anything it calls, bounded depth) fsyncs.

All four are scoped to production sources (``tests/`` excluded): tests
exercise the ledger API half-settled on purpose, and their helper
locks/queues model failures rather than serve requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from . import Rule
from ..finding import Severity
from ..registry import register_rule

if TYPE_CHECKING:
    from ..finding import Finding
    from ..flow.program import Program

__all__ = [
    "LockOrderCycleRule",
    "GrantLeakRule",
    "InterproceduralUnitsRule",
    "TransitiveBlockingRule",
]

_TEST_EXCLUDES = ("tests/*", "*/tests/*", "test_*", "*/test_*")


def _short(lock: str) -> str:
    """A readable lock label: last three dotted components."""
    return ".".join(lock.split(".")[-3:])


@register_rule
class LockOrderCycleRule(Rule):
    """RL016 — the program's lock-order graph must be acyclic."""

    code = "RL016"
    name = "lock-order-cycle"
    rationale = (
        "Two threads acquiring the same pair of locks in opposite orders "
        "deadlock the moment their critical sections overlap — and the two "
        "orders almost never sit in one file (frontend holds its handle "
        "lock while the ledger takes its own; a ledger callback reaching "
        "back into the frontend closes the loop).  The whole-program lock "
        "graph — nodes are canonical lock ids, an edge A→B means B is "
        "acquired (possibly through calls) while A is held — must stay "
        "acyclic; a reentrant self-loop on a non-reentrant Lock is the "
        "same bug with one thread."
    )
    severity = Severity.ERROR
    whole_program = True
    exclude = _TEST_EXCLUDES

    def visit_program(self, program: "Program") -> Iterator["Finding"]:
        for cycle in program.lock_cycles():
            witness = cycle.edges[0]
            display, rel = program.location(witness.function)
            if not self.applies_to(rel):
                continue
            order = " -> ".join(_short(lock) for lock in (*cycle.locks, cycle.locks[0]))
            sites = "; ".join(
                f"{_short(e.outer)} held while acquiring {_short(e.inner)} in "
                f"{e.function.rsplit('.', 1)[-1]}()"
                + (f" via {e.via.rsplit('.', 1)[-1]}()" if e.via else "")
                for e in cycle.edges
            )
            yield self.program_finding(
                display,
                witness.line,
                0,
                f"lock-order cycle {order}: {sites} — acquire these locks in "
                f"one global order (or merge the critical sections)",
            )


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


@register_rule
class TransitiveBlockingRule(Rule):
    """RL019 — a callee that blocks is still blocking under the caller's lock."""

    code = "RL019"
    name = "transitive-blocking-under-lock"
    rationale = (
        "Moving an fsync into a helper does not un-convoy the lock that is "
        "held while the helper runs — it just moves the blocking call out "
        "of RL011's single-file sight.  This rule follows the call graph "
        "(bounded depth) from every call made inside `with lock:` and "
        "flags lock-held call chains that end in fsync/solve/sleep/network "
        "I/O.  The fix is the same as RL011's: compute outside, publish "
        "under the lock — or justify the serialisation with a noqa."
    )
    severity = Severity.ERROR
    whole_program = True
    exclude = _TEST_EXCLUDES

    def visit_program(self, program: "Program") -> Iterator["Finding"]:
        for chain in program.blocking_under_lock():
            display, rel = program.location(chain.caller)
            if not self.applies_to(rel):
                continue
            path = " -> ".join(
                q.rsplit(".", 1)[-1] + "()" for q in (chain.caller, *chain.chain)
            )
            yield self.program_finding(
                display,
                chain.record.line,
                chain.record.col,
                f"call chain {path} blocks ({chain.reason}) while "
                f"{_short(chain.locks[-1])} is held — move the blocking work "
                f"outside the critical section",
            )
