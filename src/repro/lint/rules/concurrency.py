"""Concurrency rules: trace-context propagation and bounded waits/queues.

The serving stack (server handler threads, deadline worker threads, the
cluster's worker processes and queues) relies on three disciplines that
nothing but these rules enforces:

* a ``threading.Thread`` target must carry the ambient context (RL012)
  — ``ContextVar``\\ s do not cross thread starts, so a bare target
  silently drops the active trace id and telemetry collector (the PR 4
  worker-thread bug class);
* in the cluster data plane every cross-process wait must be bounded
  (RL013) — a ``queue.get()`` or ``process.join()`` without a timeout
  hangs the caller forever once the peer is SIGKILLed, which is exactly
  the failure mode :mod:`repro.chaos` injects on purpose;
* in the cluster/overload data plane every in-memory queue must be
  bounded by construction (RL014) — an unbounded ``queue.Queue()`` or
  ``deque()`` is where overload collapse hides: arrivals outpace
  service, the backlog grows without limit, and by the time anything
  sheds, every queued request is already doomed (the metastable-failure
  ingredient :mod:`repro.overload` exists to remove).
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator, Optional

from . import Rule
from ..finding import Severity
from ..registry import register_rule

if TYPE_CHECKING:
    from ..engine import LintContext
    from ..finding import Finding

__all__ = [
    "ThreadContextRule",
    "UnboundedClusterWaitRule",
    "UnboundedQueueRule",
]


def _expr_text(node: ast.expr) -> str:
    """Canonical text of a receiver expression (for matching/reporting)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover — unparse is total on valid trees
        return "<expr>"


# -- RL012: thread targets that drop the trace context -------------------------

#: Tokens proving the spawn site propagates context to the worker.
_CONTEXT_TOKENS = ("copy_context", "trace_scope", "ensure_trace")


@register_rule
class ThreadContextRule(Rule):
    """RL012 — ``ContextVar``\\ s do not cross ``Thread(target=...)``."""

    code = "RL012"
    name = "thread-target-drops-trace-context"
    rationale = (
        "The active telemetry collector and trace id live in ContextVars, "
        "which a new thread does NOT inherit — a bare Thread target records "
        "spans into the void and loses the request's trace id (the PR 4 "
        "worker-thread bug).  Run the target under "
        "contextvars.copy_context().run(...), or open trace_scope()/"
        "ensure_trace() inside the worker."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    include = ("*/repro/*", "repro/*")
    exclude = ("*/repro/telemetry/*",)

    def visit(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        func = node.func
        is_thread = (isinstance(func, ast.Name) and func.id == "Thread") or (
            isinstance(func, ast.Attribute)
            and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
        )
        if not is_thread:
            return
        if not any(kw.arg == "target" for kw in node.keywords):
            return
        enclosing = ctx.enclosing_function(node)
        haystack = ctx.segment(enclosing) if enclosing is not None else ctx.source
        if any(token in haystack for token in _CONTEXT_TOKENS):
            return
        yield self.finding(
            ctx,
            node,
            "Thread target drops the ambient trace/collector context; run it "
            "via contextvars.copy_context().run(...) or open trace_scope()/"
            "ensure_trace() in the worker",
        )


# -- RL013: unbounded cross-process waits in the cluster data plane ------------

#: Receivers that denote request/reply queues (mp.Queue plumbing).
_QUEUE_RECEIVER = re.compile(r"queue|requests|replies|inbox|mailbox|\bq$", re.IGNORECASE)

#: Receivers that denote worker processes or their dispatcher threads.
_PROCESS_RECEIVER = re.compile(r"process|proc$|worker|dispatcher|child", re.IGNORECASE)


def _bounded_wait(call: ast.Call, *, queue_get: bool) -> bool:
    """Does this ``.get``/``.join`` call carry an explicit bound?"""
    for kw in call.keywords:
        if kw.arg == "timeout":
            # ``timeout=None`` is spelled-out unboundedness, still flagged.
            return not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
    if queue_get:
        # Queue.get(block, timeout): 2 positionals bound it; get(False)
        # never blocks at all.
        if len(call.args) >= 2:
            return True
        return (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value is False
        )
    # join(timeout) positionally.
    return len(call.args) >= 1


@register_rule
class UnboundedClusterWaitRule(Rule):
    """RL013 — an unbounded wait on a dead peer hangs the cluster forever."""

    code = "RL013"
    name = "unbounded-cluster-wait"
    rationale = (
        "A worker SIGKILLed mid-window (the repro.chaos failure model) "
        "never puts a reply and never exits its queue feeder — so a "
        "`queue.get()` or `process.join()` without a timeout blocks its "
        "caller forever, turning one shard death into a hung front-end.  "
        "Every cross-process wait in repro.cluster must be bounded: pass "
        "timeout= (and loop if you must wait indefinitely) or use "
        "get_nowait() for opportunistic drains."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    include = ("*/repro/cluster/*", "repro/cluster/*")

    def visit(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = _expr_text(func.value)
        if func.attr == "get" and _QUEUE_RECEIVER.search(receiver):
            if not _bounded_wait(node, queue_get=True):
                yield self.finding(
                    ctx,
                    node,
                    f"unbounded {receiver}.get(); a SIGKILLed peer never "
                    f"replies — pass timeout= (loop to keep waiting) or use "
                    f"get_nowait()",
                )
        elif func.attr == "join" and _PROCESS_RECEIVER.search(receiver):
            if not _bounded_wait(node, queue_get=False):
                yield self.finding(
                    ctx,
                    node,
                    f"unbounded {receiver}.join(); a wedged worker never "
                    f"exits — pass timeout= and escalate (terminate/kill) "
                    f"on expiry",
                )


# -- RL014: unbounded in-memory queues in the overload data plane --------------

#: Thread-queue classes that accept (and default away) a maxsize bound.
_SIZED_QUEUE_CLASSES = {"Queue", "LifoQueue", "PriorityQueue"}

#: Module receivers whose queue classes this rule recognises.  An
#: ``mp_context.Queue()`` (pipe-backed, flow-controlled by the OS) is
#: deliberately NOT matched — only the in-process containers where an
#: unbounded backlog silently accumulates.
_QUEUE_MODULES = {"queue", "collections"}


def _positive_int_constant(node: ast.expr) -> Optional[bool]:
    """True/False for a constant bound, None for a runtime expression."""
    if not isinstance(node, ast.Constant):
        return None  # a computed bound gets the benefit of the doubt
    value = node.value
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _queue_call_bounded(call: ast.Call) -> bool:
    """Does ``Queue(...)`` carry a positive maxsize (kw or positional)?"""
    for kw in call.keywords:
        if kw.arg == "maxsize":
            verdict = _positive_int_constant(kw.value)
            return True if verdict is None else verdict
    if call.args:
        verdict = _positive_int_constant(call.args[0])
        return True if verdict is None else verdict
    return False  # Queue() defaults to maxsize=0: unbounded


def _deque_call_bounded(call: ast.Call) -> bool:
    """Does ``deque(...)`` carry a positive maxlen (kw or 2nd positional)?"""
    for kw in call.keywords:
        if kw.arg == "maxlen":
            verdict = _positive_int_constant(kw.value)
            return True if verdict is None else verdict
    if len(call.args) >= 2:
        verdict = _positive_int_constant(call.args[1])
        return True if verdict is None else verdict
    return False


@register_rule
class UnboundedQueueRule(Rule):
    """RL014 — an unbounded in-memory queue is stored overload collapse."""

    code = "RL014"
    name = "unbounded-data-plane-queue"
    rationale = (
        "In the serving data plane an unbounded queue.Queue() or deque() "
        "converts overload into memory growth and stale work: arrivals "
        "outpace service, the backlog grows without limit, and every "
        "queued request is doomed long before it is dequeued — the "
        "metastable-failure ingredient the overload controllers exist to "
        "remove.  Bound it (Queue(maxsize=N) / deque(maxlen=N)) and shed "
        "at the bound, where the client can still be told 503."
    )
    severity = Severity.ERROR
    node_types = (ast.Call,)
    include = (
        "*/repro/cluster/*",
        "repro/cluster/*",
        "*/repro/overload/*",
        "repro/overload/*",
    )

    def visit(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _QUEUE_MODULES
        ):
            name = func.attr
        else:
            return
        if name == "SimpleQueue":
            yield self.finding(
                ctx,
                node,
                "SimpleQueue cannot be bounded; use Queue(maxsize=N) so the "
                "data plane sheds at a cap instead of accumulating backlog",
            )
        elif name in _SIZED_QUEUE_CLASSES and not _queue_call_bounded(node):
            yield self.finding(
                ctx,
                node,
                f"unbounded {name}(); pass a positive maxsize= and shed "
                f"(503) when full — backlog beyond the cap is doomed work",
            )
        elif name == "deque" and not _deque_call_bounded(node):
            yield self.finding(
                ctx,
                node,
                "unbounded deque(); pass a positive maxlen= so the window "
                "drops oldest entries instead of growing without limit",
            )
