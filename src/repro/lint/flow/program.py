"""The whole-program view: per-file summaries joined per run.

:class:`Program` owns the symbol table, the call graph, and the derived
facts the interprocedural rules consume — grant-leak collection (RL017)
and argument/parameter dimension joins (RL018).  Everything here is
computed from :class:`~.summaries.ModuleSummary` objects alone; it is
cheap (one pass over the call edges, with symbol resolution by indexed
suffix lookup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from .callgraph import CallGraph
from .summaries import CallRecord, FunctionSummary, ModuleSummary
from .symbols import SymbolTable

__all__ = ["Program", "DimMismatch"]


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

    # -- locations -----------------------------------------------------------

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
