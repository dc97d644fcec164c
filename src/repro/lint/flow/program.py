"""The whole-program view: per-file summaries joined per run.

:class:`Program` owns the symbol table, the call graph, and the derived
facts the interprocedural rules consume — the cross-module lock-order
graph (RL016), transitive blocking reachability (RL019), grant-leak
collection (RL017) and argument/parameter dimension joins (RL018).
Everything here is computed from :class:`~.summaries.ModuleSummary`
objects alone; it is cheap (graph walks over small summaries, with
symbol resolution by indexed suffix lookup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import CallGraph
from .summaries import CallRecord, FunctionSummary, ModuleSummary
from .symbols import SymbolTable

__all__ = ["Program", "LockEdge", "LockCycle", "BlockingChain", "DimMismatch"]


@dataclass(frozen=True)
class LockEdge:
    """``outer`` is held while ``inner`` is acquired, at a concrete site."""

    outer: str
    inner: str
    function: str  #: qualname of the function the acquisition happens in
    line: int
    via: Optional[str] = None  #: callee qualname when the edge crosses a call


@dataclass(frozen=True)
class LockCycle:
    """A cycle in the lock-order graph, with one witness edge per hop."""

    locks: Tuple[str, ...]
    edges: Tuple[LockEdge, ...]


@dataclass(frozen=True)
class BlockingChain:
    """A call path from a lock-held site to a blocking operation."""

    record: CallRecord  #: the call made while holding the lock
    caller: str  #: qualname holding the lock
    locks: Tuple[str, ...]
    chain: Tuple[str, ...]  #: qualnames from first callee to the blocker
    reason: str  #: the blocking operation (RL011 vocabulary)
    blocking_line: int


@dataclass(frozen=True)
class DimMismatch:
    """An argument whose dimension contradicts the parameter's name."""

    caller: str
    record: CallRecord
    callee: str
    param: str
    arg_label: str  #: ``"argument 2"`` or ``"keyword 'budget'"``
    arg_dim: Tuple[int, int, int, int]
    param_dim: Tuple[int, int, int, int]


class Program:
    """Summaries of every analysed file, joined and queryable."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        #: module name → its summary.
        self.summaries = summaries
        self.symtab = SymbolTable([s.decl for s in summaries.values()])
        self.callgraph = CallGraph.build(self.symtab, summaries.values())
        self._functions: Dict[str, FunctionSummary] = {}
        for module_summary in summaries.values():
            self._functions.update(module_summary.functions)
        self._lock_memo: Dict[str, Tuple[str, ...]] = {}
        self._blocking_memo: Dict[str, Optional[Tuple[Tuple[str, ...], str, int]]] = {}

    # -- locations -----------------------------------------------------------

    def function(self, qualname: str) -> Optional[FunctionSummary]:
        return self._functions.get(qualname)

    def functions(self) -> Iterator[FunctionSummary]:
        yield from self._functions.values()

    def location(self, qualname_or_module: str) -> Tuple[str, str]:
        """``(display_path, rel_path)`` of a function's (or module's) file."""
        module = qualname_or_module
        while module and module not in self.summaries:
            module = module.rpartition(".")[0]
        if module:
            decl = self.summaries[module].decl
            return decl.display_path, decl.rel_path
        return qualname_or_module, qualname_or_module

    # -- RL016: the lock-order graph -----------------------------------------

    def transitive_locks(self, qualname: str) -> Tuple[str, ...]:
        """Locks acquired by ``qualname`` or anything it (boundedly) calls."""
        memo = self._lock_memo.get(qualname)
        if memo is not None:
            return memo
        locks: Set[str] = set()
        func = self._functions.get(qualname)
        if func is not None:
            locks.update(func.locks_acquired)
        for callee in self.callgraph.reachable(qualname):
            callee_func = self._functions.get(callee)
            if callee_func is not None:
                locks.update(callee_func.locks_acquired)
        result = tuple(sorted(locks))
        self._lock_memo[qualname] = result
        return result

    def lock_edges(self) -> List[LockEdge]:
        """Every ordered pair: a lock acquired while another is held."""
        edges: List[LockEdge] = []
        for func in self._functions.values():
            for outer, inner, line in func.lock_pairs:
                edges.append(LockEdge(outer=outer, inner=inner, function=func.qualname, line=line))
            for callee, record in self.callgraph.callees(func.qualname):
                if not record.under_locks:
                    continue
                inner_locks = set(self.transitive_locks(callee))
                callee_func = self._functions.get(callee)
                if callee_func is not None:
                    inner_locks.update(callee_func.locks_acquired)
                for outer in record.under_locks:
                    for inner in sorted(inner_locks):
                        edges.append(
                            LockEdge(
                                outer=outer,
                                inner=inner,
                                function=func.qualname,
                                line=record.line,
                                via=callee,
                            )
                        )
        return edges

    def lock_cycles(self) -> List[LockCycle]:
        """Cycles in the lock-order graph (including reentrant self-loops)."""
        edges = self.lock_edges()
        adjacency: Dict[str, Dict[str, LockEdge]] = {}
        for edge in edges:
            adjacency.setdefault(edge.outer, {}).setdefault(edge.inner, edge)
        cycles: List[LockCycle] = []
        reported: Set[Tuple[str, ...]] = set()
        for start in sorted(adjacency):
            path = self._find_cycle(adjacency, start)
            if path is None:
                continue
            canonical = self._canonical(path)
            if canonical in reported:
                continue
            reported.add(canonical)
            hops = [
                adjacency[path[i]][path[(i + 1) % len(path)]] for i in range(len(path))
            ]
            cycles.append(LockCycle(locks=tuple(path), edges=tuple(hops)))
        return cycles

    @staticmethod
    def _canonical(path: List[str]) -> Tuple[str, ...]:
        pivot = path.index(min(path))
        return tuple(path[pivot:] + path[:pivot])

    @staticmethod
    def _find_cycle(
        adjacency: Dict[str, Dict[str, LockEdge]], start: str
    ) -> Optional[List[str]]:
        """A simple cycle through ``start``, if one exists (DFS)."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            for nxt in sorted(adjacency.get(node, {})):
                if nxt == start:
                    return path
                if nxt in seen or nxt in path:
                    continue
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
        return None

    # -- RL019: transitive blocking ------------------------------------------

    def blocking_path(
        self, qualname: str, *, _depth: int = 0
    ) -> Optional[Tuple[Tuple[str, ...], str, int]]:
        """``(chain, reason, line)`` from ``qualname`` to a blocking call."""
        if qualname in self._blocking_memo:
            return self._blocking_memo[qualname]
        self._blocking_memo[qualname] = None  # cycle guard
        result: Optional[Tuple[Tuple[str, ...], str, int]] = None
        func = self._functions.get(qualname)
        if func is not None:
            for record in func.calls:
                if record.blocking is not None:
                    result = ((qualname,), record.blocking, record.line)
                    break
            if result is None and _depth < 4:
                for callee, _record in self.callgraph.callees(qualname):
                    sub = self.blocking_path(callee, _depth=_depth + 1)
                    if sub is not None:
                        chain, reason, line = sub
                        result = ((qualname, *chain), reason, line)
                        break
        self._blocking_memo[qualname] = result
        return result

    def blocking_under_lock(self) -> List[BlockingChain]:
        """Calls made under a lock whose *callees* block (RL011 can't see)."""
        chains: List[BlockingChain] = []
        for func in self._functions.values():
            for callee, record in self.callgraph.callees(func.qualname):
                if not record.under_locks or record.blocking is not None:
                    continue  # direct blocking under lock is RL011's finding
                sub = self.blocking_path(callee)
                if sub is None:
                    continue
                chain, reason, line = sub
                chains.append(
                    BlockingChain(
                        record=record,
                        caller=func.qualname,
                        locks=record.under_locks,
                        chain=chain,
                        reason=reason,
                        blocking_line=line,
                    )
                )
        return chains

    # -- RL018: interprocedural dimensions -----------------------------------

    def dim_mismatches(self) -> List[DimMismatch]:
        """Call arguments whose inferred dimension contradicts the callee."""
        mismatches: List[DimMismatch] = []
        for func in self._functions.values():
            for callee, record in self.callgraph.callees(func.qualname):
                callee_func = self._functions.get(callee)
                if callee_func is None:
                    continue
                params = list(callee_func.param_dims)
                if params and params[0][0] in ("self", "cls"):
                    params = params[1:]
                for index, arg_dim in enumerate(record.arg_dims):
                    if arg_dim is None or index >= len(params):
                        continue
                    pname, pdim = params[index]
                    if pdim is not None and pdim != arg_dim:
                        mismatches.append(
                            DimMismatch(
                                caller=func.qualname,
                                record=record,
                                callee=callee,
                                param=pname,
                                arg_label=f"argument {index + 1}",
                                arg_dim=arg_dim,
                                param_dim=pdim,
                            )
                        )
                declared = dict(callee_func.param_dims)
                for kw_name, kw_dim in record.kwarg_dims:
                    if kw_dim is None:
                        continue
                    pdim = declared.get(kw_name)
                    if pdim is not None and pdim != kw_dim:
                        mismatches.append(
                            DimMismatch(
                                caller=func.qualname,
                                record=record,
                                callee=callee,
                                param=kw_name,
                                arg_label=f"keyword {kw_name!r}",
                                arg_dim=kw_dim,
                                param_dim=pdim,
                            )
                        )
        return mismatches
