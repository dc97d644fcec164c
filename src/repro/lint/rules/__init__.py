"""Rule base class and the built-in rule imports.

A rule is a small visitor fragment: it declares the AST node types it
wants (``node_types``), the paths it applies to (``include``/
``exclude`` glob patterns over posix-style relative paths), and yields
:class:`~repro.lint.finding.Finding` objects from :meth:`Rule.visit`.
The engine walks each file's AST exactly once and dispatches every node
to the rules subscribed to its type — adding a rule never adds a walk.

Path scoping is part of a rule's *definition*, not ad-hoc config: RL003
only polices modules that persist state, RL004 only scheduling/timeout
paths, RL002 skips ``tests/`` (determinism suites assert exact float
equality on purpose).  The catalog in ``docs/static-analysis.md``
documents every scope with its rationale.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import TYPE_CHECKING, ClassVar, Iterator, Optional, Sequence, Tuple, Type

from ..finding import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from ..engine import LintContext
    from ..flow.program import Program

__all__ = ["Rule"]


class Rule:
    """Base class for lint rules; subclass and :func:`register_rule` it."""

    #: Unique id, ``RL`` + 3 digits (``RL00x`` domain, ``RL01x`` concurrency).
    code: ClassVar[str] = ""
    #: Short kebab-case name used in reports and docs.
    name: ClassVar[str] = ""
    #: One-paragraph why-this-matters (rendered into the rule catalog).
    rationale: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    #: AST node classes dispatched to :meth:`visit`.
    node_types: ClassVar[Tuple[Type[ast.AST], ...]] = ()
    #: Glob patterns (posix relative paths) the rule applies to; ``None`` = all.
    include: ClassVar[Optional[Sequence[str]]] = None
    #: Glob patterns the rule never applies to (wins over ``include``).
    exclude: ClassVar[Sequence[str]] = ()
    #: Whole-program rules run once per *run* (``visit_program``) over
    #: the joined summaries of every file, instead of per node.
    whole_program: ClassVar[bool] = False

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on ``rel_path`` (posix, repo-relative)."""
        if any(fnmatch.fnmatch(rel_path, pat) for pat in self.exclude):
            return False
        if self.include is None:
            return True
        return any(fnmatch.fnmatch(rel_path, pat) for pat in self.include)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        return iter(())

    def visit_program(self, program: "Program") -> Iterator[Finding]:
        """Yield findings for the whole program (``whole_program`` rules)."""
        return iter(())

    def program_finding(self, path: str, line: int, col: int, message: str) -> Finding:
        """Build a finding at an explicit location (whole-program rules)."""
        return Finding(
            path=path,
            line=max(line, 1),
            col=max(col, 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node`` with this rule's identity."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )


# Imported for their registration side effects (must follow Rule's
# definition — all modules subclass it).
from . import concurrency, domain, whole_program  # noqa: E402,F401
