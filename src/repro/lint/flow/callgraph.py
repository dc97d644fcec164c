"""The project call graph: call records resolved against the symbol table.

Resolution is deliberately conservative — an edge exists only when the
callee is *known*:

* ``self.m(...)`` → the enclosing class's method (base classes walked);
* ``self.attr.m(...)`` → the method of the class ``self.attr`` was
  constructed as (``self.attr = ClassName(...)`` in the class body);
* ``f(...)`` / ``mod.f(...)`` → through the module's imports;
* ``obj.m(...)`` on an untyped receiver → only when exactly **one**
  class in the whole program defines a method ``m`` (unique-method
  fallback) — ambiguity yields no edge rather than a wrong one.

Unresolved calls simply contribute nothing; the interprocedural rules
built on top (RL018) under-approximate instead of guessing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .summaries import CallRecord, FunctionSummary, ModuleSummary
from .symbols import SymbolTable

__all__ = ["CallGraph"]

#: Method names too generic for the unique-method fallback: one class
#: defining ``append`` must not capture every ``list.append`` call.
_GENERIC_METHODS = {
    "append", "add", "get", "put", "pop", "items", "values", "keys",
    "close", "join", "start", "run", "update", "copy", "clear", "extend",
    "remove", "discard", "sort", "index", "count", "write", "read",
    "flush", "release", "acquire", "set", "inc", "dec", "observe",
    "info", "debug", "warning", "error", "send", "recv", "wait", "notify",
}


class CallGraph:
    """caller qualname → resolved (callee qualname, call record) pairs."""

    def __init__(self, symtab: SymbolTable) -> None:
        self.symtab = symtab
        self.edges: Dict[str, List[Tuple[str, CallRecord]]] = {}

    @classmethod
    def build(cls, symtab: SymbolTable, summaries: Iterable[ModuleSummary]) -> "CallGraph":
        graph = cls(symtab)
        for module_summary in summaries:
            for func in module_summary.functions.values():
                for record in func.calls:
                    callee = graph.resolve_call(func, record)
                    if callee is not None:
                        graph.edges.setdefault(func.qualname, []).append((callee, record))
        return graph

    def callees(self, qualname: str) -> List[Tuple[str, CallRecord]]:
        return list(self.edges.get(qualname, ()))

    # -- resolution ----------------------------------------------------------

    def resolve_call(self, caller: FunctionSummary, record: CallRecord) -> Optional[str]:
        """The callee qualname of one call site, or ``None`` if unknown."""
        parts = record.parts
        symtab = self.symtab
        own_class = self._class_of(caller)
        if parts[0] == "self" and own_class is not None:
            if len(parts) == 2:
                return symtab.class_method(own_class, parts[1])
            if len(parts) == 3:
                # self.attr.m(): type the attribute through the class body.
                cls = symtab.classes.get(own_class)
                attr_ref = cls.attr_types.get(parts[1]) if cls is not None else None
                if attr_ref is not None:
                    attr_class = symtab.resolve_class(caller.module, attr_ref)
                    if attr_class is not None:
                        return symtab.class_method(attr_class, parts[2])
                return self._unique_method(parts[2])
            return None
        if len(parts) == 1:
            return symtab.resolve_function(caller.module, parts[0])
        resolved = symtab.resolve_function(caller.module, ".".join(parts))
        if resolved is not None:
            return resolved
        # ``alias.m()`` where the alias names a class (from m import C; C.make()).
        if len(parts) == 2:
            klass = symtab.resolve_class(caller.module, parts[0])
            if klass is not None:
                return symtab.class_method(klass, parts[1])
            return self._unique_method(parts[1])
        return None

    def _class_of(self, func: FunctionSummary) -> Optional[str]:
        qual = func.qualname
        prefix, _, _name = qual.rpartition(".")
        if prefix == func.module:
            return None  # module-level function
        return prefix

    def _unique_method(self, name: str) -> Optional[str]:
        if name in _GENERIC_METHODS:
            return None
        candidates = self.symtab.method_candidates(name)
        return candidates[0] if len(candidates) == 1 else None
