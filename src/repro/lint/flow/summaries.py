"""Per-function dataflow summaries — the unit the whole-program rules consume.

Everything expensive happens here, once per file: CFG construction, the
energy-grant leak proof (RL017's engine) and call records with inferred
argument dimensions (RL018's raw material).  A :class:`FunctionSummary`
is a plain record of the results, so the program-level joins
(:mod:`.program`) stay cheap.

The grant-leak analysis proves, per reservation site, that the grant
variable reaches a ``commit()``/``release()`` on **every** CFG path —
normal and exceptional.  States per path: *pending* (reserved, not yet
settled), *settled* (a commit/release call mentions the grant — also
accepted at an ``if`` that guards a settle with the grant in its test,
the ``if grant is not None: release(grant)`` idiom), *escaped* (the
grant is returned, stored into a container/attribute, or passed to a
non-settling call — responsibility moves elsewhere, but only on the
*normal* edge: if the escaping statement raises, the hand-off never
happened and the grant is still pending).  A path that reaches ``EXIT``
or ``RAISE`` while pending is a leak.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..rules.concurrency import _expr_text
from ..rules.domain import _NAME_DIMS, Dim, build_env, infer_dim
from .cfg import CFG, build_cfg
from .symbols import ModuleDecl, build_module_decl

__all__ = [
    "CallRecord",
    "GrantLeak",
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
]

#: Receivers whose ``.reserve()`` hands out an energy grant.
_LEDGER_RECEIVER = re.compile(r"ledger|lease", re.IGNORECASE)

#: Method/function names that *produce* a grant.
_RESERVE_HELPERS = {"_reserve_for"}

#: Method names that settle a grant (return it to the ledger's books).
_SETTLE_METHODS = {"commit", "release"}


@dataclass
class CallRecord:
    """One call site, with everything the program-level rules need."""

    line: int
    col: int
    #: Dotted name parts as written (``("self", "_reserve_for")``).
    parts: Tuple[str, ...]
    #: Inferred dimension per positional argument (None = unknown/poly).
    arg_dims: Tuple[Optional[Dim], ...] = ()
    #: Inferred dimension per keyword argument.
    kwarg_dims: Tuple[Tuple[str, Optional[Dim]], ...] = ()


@dataclass
class GrantLeak:
    """One reservation whose grant provably misses a settle on some path."""

    line: int
    col: int
    variable: str
    reserve_text: str
    #: ``"exception"`` / ``"normal"`` / ``"discarded"``.
    path_kind: str
    #: Line of the statement whose edge left the function still pending.
    leak_line: int


@dataclass
class FunctionSummary:
    """Everything cross-file rules need to know about one function."""

    qualname: str
    module: str
    line: int
    calls: List[CallRecord] = field(default_factory=list)
    #: Grant-leak proofs that failed (RL017 raw material).
    grant_leaks: List[GrantLeak] = field(default_factory=list)
    #: Dimensions of named parameters (from the unit-name tables).
    param_dims: Tuple[Tuple[str, Optional[Dim]], ...] = ()


@dataclass
class ModuleSummary:
    """One file's declarations plus all its function summaries."""

    decl: ModuleDecl
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


def _dotted_parts(func: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` → ``("a","b","c")``; None for computed callees."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# -- the per-function walk -----------------------------------------------------


class _FunctionWalker(ast.NodeVisitor):
    """Collect the call records of one function body (not nested defs)."""

    def __init__(self, env: Dict[str, Dim]) -> None:
        self.env = env
        self.calls: List[CallRecord] = []

    # Nested scopes run later, elsewhere: never descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return

    def visit_Call(self, node: ast.Call) -> None:
        parts = _dotted_parts(node.func)
        if parts is not None:
            arg_dims: List[Optional[Dim]] = []
            for arg in node.args:
                dim = infer_dim(arg, self.env)
                arg_dims.append(dim if isinstance(dim, tuple) else None)
            kwarg_dims: List[Tuple[str, Optional[Dim]]] = []
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                dim = infer_dim(kw.value, self.env)
                kwarg_dims.append((kw.arg, dim if isinstance(dim, tuple) else None))
            self.calls.append(
                CallRecord(
                    line=node.lineno,
                    col=node.col_offset,
                    parts=parts,
                    arg_dims=tuple(arg_dims),
                    kwarg_dims=tuple(kwarg_dims),
                )
            )
        self.generic_visit(node)


# -- the grant-leak prover -----------------------------------------------------


def _reserve_call(value: ast.expr) -> Optional[str]:
    """The reserve text when ``value`` is a grant-producing call."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    if isinstance(func, ast.Attribute):
        if func.attr == "reserve" and _LEDGER_RECEIVER.search(_expr_text(func.value)):
            return f"{_expr_text(func.value)}.reserve()"
        if func.attr in _RESERVE_HELPERS:
            return f"{_expr_text(func.value)}.{func.attr}()"
    elif isinstance(func, ast.Name) and func.id in _RESERVE_HELPERS:
        return f"{func.id}()"
    return None


def _names_in(expr: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _is_settle_call(call: ast.Call, names: FrozenSet[str]) -> bool:
    """A ``commit``/``release`` call with the grant among its arguments."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr in _SETTLE_METHODS):
        return False
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        if _names_in(arg) & names:
            return True
    return False


def _stmt_calls(stmt: ast.stmt) -> List[ast.Call]:
    """All calls textually inside ``stmt``, skipping nested scopes."""
    calls: List[ast.Call] = []
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return calls


def _settles(stmt: ast.stmt, names: FrozenSet[str]) -> bool:
    return any(_is_settle_call(call, names) for call in _stmt_calls(stmt))


def _guard_settles(stmt: ast.stmt, names: FrozenSet[str]) -> bool:
    """``if grant...: <settle(grant)>`` — settlement guarded on the grant.

    Path-insensitively accepting the guard is sound here: the test
    mentions the grant precisely because no grant exists on the other
    arm, so there is nothing left to settle there.
    """
    if not isinstance(stmt, ast.If):
        return False
    if not (_names_in(stmt.test) & names):
        return False
    return any(_settles(s, names) for s in stmt.body + stmt.orelse)


def _assigned_names(stmt: ast.stmt) -> Set[str]:
    """Plain-name targets this statement (re)binds."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
        targets = [stmt.target]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
    names: Set[str] = set()
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    return names


def _escapes(stmt: ast.stmt, names: FrozenSet[str]) -> bool:
    """The grant leaves this function's hands on the normal edge."""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and bool(_names_in(stmt.value) & names)
    # Stored into an attribute or container: someone else now owns it.
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        value = stmt.value
        if value is not None and _names_in(value) & names:
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    return True
    # Passed to a call that is not a settle (a helper that commits later).
    for call in _stmt_calls(stmt):
        if _is_settle_call(call, names):
            continue
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if _names_in(arg) & names:
                return True
    return False


def _taints(stmt: ast.stmt, names: FrozenSet[str]) -> Set[str]:
    """New aliases: plain-name targets assigned from the grant."""
    if not isinstance(stmt, ast.Assign) or not (_names_in(stmt.value) & names):
        return set()
    new: Set[str] = set()
    for target in stmt.targets:
        if isinstance(target, ast.Name):
            new.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                if isinstance(el, ast.Name):
                    new.add(el.id)
    return new


def _prove_grants(func: ast.FunctionDef | ast.AsyncFunctionDef, cfg: CFG) -> List[GrantLeak]:
    """Every reservation that can reach EXIT/RAISE without settling."""
    leaks: List[GrantLeak] = []
    for node in cfg.statement_nodes():
        stmt = node.stmt
        if isinstance(stmt, ast.Expr):
            reserve_text = _reserve_call(stmt.value)
            if reserve_text is not None:
                leaks.append(
                    GrantLeak(
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        variable="<discarded>",
                        reserve_text=reserve_text,
                        path_kind="discarded",
                        leak_line=stmt.lineno,
                    )
                )
            continue
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        reserve_text = _reserve_call(stmt.value)
        if reserve_text is None:
            continue
        leak = _walk_grant(cfg, node.index, target.id, reserve_text, stmt)
        if leak is not None:
            leaks.append(leak)
    return leaks


def _walk_grant(
    cfg: CFG,
    reserve_index: int,
    variable: str,
    reserve_text: str,
    reserve_stmt: ast.stmt,
) -> Optional[GrantLeak]:
    """BFS all paths from one reservation; first pending EXIT/RAISE wins.

    Exception paths are reported preferentially — they are the ones a
    runtime test never exercises.
    """
    start_names = frozenset({variable})
    # (node, names); the reserve's own exception edge carries no grant.
    queue: List[Tuple[int, FrozenSet[str], int]] = [
        (dst, start_names, cfg.node(reserve_index).line)
        for dst, kind in cfg.successors(reserve_index)
        if kind == "normal"
    ]
    seen: Set[Tuple[int, FrozenSet[str]]] = set()
    normal_leak: Optional[GrantLeak] = None
    while queue:
        index, names, from_line = queue.pop(0)
        if (index, names) in seen:
            continue
        seen.add((index, names))
        node = cfg.node(index)
        if index == cfg.raise_exit:
            return GrantLeak(
                line=reserve_stmt.lineno,
                col=reserve_stmt.col_offset,
                variable=variable,
                reserve_text=reserve_text,
                path_kind="exception",
                leak_line=from_line,
            )
        if index == cfg.exit:
            if normal_leak is None:
                normal_leak = GrantLeak(
                    line=reserve_stmt.lineno,
                    col=reserve_stmt.col_offset,
                    variable=variable,
                    reserve_text=reserve_text,
                    path_kind="normal",
                    leak_line=from_line,
                )
            continue
        stmt = node.stmt
        next_names = names
        escaped_here = False
        if stmt is not None and not isinstance(stmt, ast.ExceptHandler):
            if _settles(stmt, names) or _guard_settles(stmt, names):
                continue
            rebound = _assigned_names(stmt)
            if variable in rebound:
                # The grant variable is overwritten: this reservation's
                # obligation ends here (a fresh reserve starts its own walk).
                continue
            escaped_here = _escapes(stmt, names)
            tainted = _taints(stmt, names)
            if tainted:
                next_names = frozenset(names | tainted)
        line = node.line or from_line
        for dst, kind in cfg.successors(index):
            if escaped_here and kind == "normal":
                continue  # hand-off happened; the normal path is covered
            queue.append((dst, next_names if kind == "normal" else names, line))
    return normal_leak


# -- module summarisation ------------------------------------------------------


def _functions_of(tree: ast.Module) -> List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, Optional[str]]]:
    """Top-level and method definitions with their class context."""
    out: List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, Optional[str]]] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((stmt, None))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((sub, stmt.name))
    return out


def _param_dims(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Tuple[Tuple[str, Optional[Dim]], ...]:
    names = [a.arg for a in func.args.posonlyargs + func.args.args]
    return tuple((name, _NAME_DIMS.get(name)) for name in names)


def summarize_module(tree: ast.Module, rel_path: str, display_path: str) -> ModuleSummary:
    """Parse-tree → declarations + per-function summaries for one file."""
    decl = build_module_decl(tree, rel_path, display_path)
    summary = ModuleSummary(decl=decl)
    for func, class_name in _functions_of(tree):
        qualname = (
            f"{decl.name}.{class_name}.{func.name}" if class_name else f"{decl.name}.{func.name}"
        )
        walker = _FunctionWalker(build_env(func))
        for stmt in func.body:
            walker.visit(stmt)
        cfg = build_cfg(func)
        summary.functions[qualname] = FunctionSummary(
            qualname=qualname,
            module=decl.name,
            line=func.lineno,
            calls=walker.calls,
            grant_leaks=_prove_grants(func, cfg),
            param_dims=_param_dims(func),
        )
    return summary
