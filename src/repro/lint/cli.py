"""The ``repro lint`` command (also ``python -m repro.lint``).

Usage::

    repro lint src tests                 # lint trees with every rule
    repro lint src --select RL013,RL014  # the cluster data-plane rules only
    repro lint src --ignore RL002,RL005  # drop the warnings
    repro lint src --format json         # machine-readable output
    repro lint src --format sarif        # SARIF 2.1.0 (PR annotations)
    repro lint --list-rules              # the rule catalog, one line each

Exit codes: 0 clean, 1 findings, 2 usage/configuration error — the same
contract as ruff, so CI gates compose.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..utils.errors import ValidationError
from .engine import LintEngine
from .registry import all_rules
from .reporters import render_json, render_sarif, render_text

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``lint`` arguments on ``parser`` (shared with repro.cli)."""
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories (default: src)")
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes/prefixes to run (e.g. RL001,RL01)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes/prefixes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--no-statistics",
        action="store_true",
        help="text format: omit the per-rule tally",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the (filtered) rule catalog and exit",
    )


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part for part in (p.strip() for p in raw.split(",")) if part]


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the process exit code."""
    try:
        select, ignore = _split(args.select), _split(args.ignore)
        if args.list_rules:
            for rule in sorted(all_rules(select, ignore), key=lambda r: r.code):
                print(f"{rule.code}  {rule.name} [{rule.severity}]")
            return 0
        engine = LintEngine(select, ignore)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = engine.lint_paths(args.paths)
    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, engine.rules))
    else:
        print(render_text(findings, statistics=not args.no_statistics))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="domain-aware static analysis for the DSCT-EA codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
