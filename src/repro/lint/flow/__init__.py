"""Whole-program dataflow for :mod:`repro.lint`.

The per-file rules (RL001–RL014) see one AST at a time; this package
gives rules the *program*: a project-wide symbol table and call graph
(:mod:`.symbols`, :mod:`.callgraph`), a per-function control-flow graph
with explicit exception edges (:mod:`.cfg`), and per-function dataflow
summaries (:mod:`.summaries`) that interprocedural rules consume.

The division of labour is deliberate:

* everything *per-file* — CFG construction, the grant-leak proof,
  call-site dimension inference — happens once per file, on the tree
  the per-file rules already walked, and is recorded in a
  :class:`~.summaries.FunctionSummary`;
* everything *cross-file* — import resolution, call-graph edges,
  argument/parameter dimension joins — happens in
  :class:`~.program.Program` from those summaries alone, never from the
  trees.
"""

from .callgraph import CallGraph
from .cfg import CFG, build_cfg
from .program import Program
from .summaries import FunctionSummary, ModuleSummary, summarize_module
from .symbols import FunctionDecl, ModuleDecl, SymbolTable, module_name_for

__all__ = [
    "CFG",
    "build_cfg",
    "CallGraph",
    "Program",
    "FunctionSummary",
    "ModuleSummary",
    "summarize_module",
    "FunctionDecl",
    "ModuleDecl",
    "SymbolTable",
    "module_name_for",
]
