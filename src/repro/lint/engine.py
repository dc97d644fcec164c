"""The analysis engine: one parse per file, then the whole program.

:class:`LintEngine` owns the rule set (already select/ignore-filtered)
and turns sources into findings.  Every entry point — one source, one
file, directory trees — runs the same routine.  Per file it

1. reads and parses the source (a syntax error becomes a single
   ``RL000`` finding — a file the analyzer cannot parse must fail the
   gate, not silently pass it) and tokenizes it once for its
   ``# repro: noqa[...]`` comments;
2. builds a :class:`LintContext` — parent links, enclosing-function
   lookup, source segments — shared by every rule;
3. walks the tree **once**, dispatching each node to the rules
   subscribed to its type;
4. summarises the same tree for the whole-program rules
   (:func:`~repro.lint.flow.summaries.summarize_module`).

The summaries are then joined into a
:class:`~repro.lint.flow.program.Program` — for a single source, just
its own module — and each ``whole_program`` rule (RL017, RL018) runs
once over the join.  Findings on a line carrying a matching suppression
comment are dropped, and the rest come back sorted by location, so
output is deterministic.  A suppression naming no registered rule is an
``RL000`` finding of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type, Union

from .finding import Finding, Severity
from .flow.program import Program
from .flow.summaries import ModuleSummary, summarize_module
from .registry import all_rules
from .suppress import SuppressionIndex

__all__ = ["LintContext", "LintEngine", "lint_source", "lint_file", "lint_paths"]

#: Directory names never descended into when expanding path arguments.
#: ``lint_fixtures`` holds the known-bad corpus the rule tests feed
#: through :func:`lint_source` — linting it directly would fail the gate
#: by design.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist", "lint_fixtures"}


class LintContext:
    """Per-file facts shared by every rule during one walk."""

    def __init__(self, source: str, tree: ast.Module, display_path: str, rel_path: str) -> None:
        self.source = source
        self.tree = tree
        #: Path as shown in findings (as the user spelled it).
        self.display_path = display_path
        #: Normalised posix path used for rule scoping (``applies_to``).
        self.rel_path = rel_path
        #: Scratch space rules may memoise per-file work in (namespaced keys).
        self.cache: Dict[str, object] = {}
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents from the immediate one up to the module, in order."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]]:
        """The innermost function/lambda containing ``node``, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return anc
        return None

    def segment(self, node: ast.AST) -> str:
        """Exact source text of ``node`` (empty when unavailable)."""
        return ast.get_source_segment(self.source, node) or ""


class LintEngine:
    """Run a (filtered) rule set over sources, files and directory trees."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self.rules = all_rules(select, ignore)
        #: Every registered code, selected or not: what a ``noqa`` may name.
        self.known_codes = frozenset(rule.code for rule in all_rules())

    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Findings for one in-memory source (the test-fixture entry point)."""
        return self._lint([(path, source)])

    def lint_file(self, path: Union[str, Path]) -> List[Finding]:
        """Findings for one file; unreadable files surface as ``RL000``."""
        return self._lint([(str(path), None)])

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> List[Finding]:
        """Findings for files and/or directory trees, sorted by location."""
        return self._lint((str(path), None) for path in _expand(paths))

    def _lint(self, sources: Iterable[Tuple[str, Optional[str]]]) -> List[Finding]:
        """The one pass: ``(display path, source)`` pairs → sorted findings.

        A ``None`` source is read from the display path.
        """
        program_rules = [rule for rule in self.rules if rule.whole_program]
        findings: List[Finding] = []
        summaries: Dict[str, ModuleSummary] = {}
        suppressions: Dict[str, SuppressionIndex] = {}
        for display, source in sources:
            if source is None:
                try:
                    source = Path(display).read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    findings.append(_rl000(display, 1, 0, f"cannot read file: {exc}"))
                    continue
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as exc:
                findings.append(
                    _rl000(display, exc.lineno or 1, (exc.offset or 1) - 1, f"syntax error: {exc.msg}")
                )
                continue
            rel = _normalise(display)
            suppression = SuppressionIndex.from_source(source)
            suppressions[display] = suppression
            findings.extend(
                _rl000(display, line, 0, f"suppression names unknown rule {code}")
                for line, code in suppression.unknown_codes(self.known_codes)
            )
            ctx = LintContext(source, tree, display_path=display, rel_path=rel)
            findings.extend(
                f for f in self._walk(ctx) if not suppression.is_suppressed(f.line, f.code)
            )
            if program_rules:
                summary = summarize_module(tree, rel, display)
                summaries[summary.decl.name] = summary
        program = Program(summaries)
        for rule in program_rules:
            for finding in rule.visit_program(program):
                index = suppressions.get(finding.path)
                if index is not None and index.is_suppressed(finding.line, finding.code):
                    continue
                findings.append(finding)
        return sorted(findings)

    def _walk(self, ctx: LintContext) -> List[Finding]:
        """One walk of ``ctx.tree``, each node dispatched to its rules."""
        dispatch: Dict[Type[ast.AST], List] = {}
        for rule in self.rules:
            if rule.applies_to(ctx.rel_path):
                for node_type in rule.node_types:
                    dispatch.setdefault(node_type, []).append(rule)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        return findings


def _rl000(path: str, line: int, col: int, message: str) -> Finding:
    """The finding for a file the analyzer cannot read or parse, or a stale ``noqa``."""
    return Finding(
        path=path, line=line, col=col, code="RL000", message=message, severity=Severity.ERROR
    )


def _normalise(path: str) -> str:
    """Posix-style path with leading ``./`` noise removed, for scoping."""
    rel = Path(path).as_posix()
    while rel.startswith("./"):
        rel = rel[2:]
    return rel


def _expand(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Arguments → ordered, de-duplicated ``.py`` files."""
    seen = set()
    for path in paths:
        p = Path(path)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(
                f
                for f in p.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in f.parts)
            )
        else:
            candidates = [p]
        for f in candidates:
            if f not in seen:
                seen.add(f)
                yield f


# -- module-level conveniences (the public API most callers want) --------------


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string with the (filtered) built-in rule set."""
    return LintEngine(select, ignore).lint_source(source, path)


def lint_file(
    path: Union[str, Path],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one file with the (filtered) built-in rule set."""
    return LintEngine(select, ignore).lint_file(path)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint files/trees with the (filtered) built-in rule set."""
    return LintEngine(select, ignore).lint_paths(paths)
