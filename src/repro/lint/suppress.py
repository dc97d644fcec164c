"""Per-line suppression: ``# repro: noqa`` and ``# repro: noqa[RL001,RL013]``.

Suppressions are deliberate, auditable exceptions — the syntax is
namespaced (``repro:``) so it cannot collide with flake8/ruff ``noqa``
handling, and the bracketed form is preferred: a blanket ``# repro:
noqa`` silences *every* rule on the line and should be rare.

A suppression applies to the *logical* line the violation is reported
on.  For multi-line statements put the comment on the line the rule
flags (the line of the offending expression, which :mod:`ast` reports).

A bracketed code that names no registered rule is itself reported (as
``RL000``): a marker left behind by a deleted rule would otherwise stay
silently valid and hide whatever a later rule of that code flags.
"""

from __future__ import annotations

import re
import tokenize
from io import StringIO
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

__all__ = ["SuppressionIndex", "NOQA_PATTERN"]

#: Matches ``repro: noqa`` with an optional ``[RL001, RL002]`` rule list.
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<codes>[A-Z0-9,\s]+)\])?",
    re.IGNORECASE,
)

#: Sentinel rule-set meaning "every rule" (the blanket form).
_ALL: FrozenSet[str] = frozenset({"*"})


class SuppressionIndex:
    """Per-file map of line number → suppressed rule codes.

    Built once per file from the token stream (comments never reach the
    AST, so they must be collected separately).  Falling back to a
    regex scan keeps suppression working even for sources the tokenizer
    rejects in exotic ways.
    """

    def __init__(self, line_codes: Dict[int, FrozenSet[str]]) -> None:
        self._line_codes = line_codes

    @classmethod
    def from_source(cls, source: str) -> "SuppressionIndex":
        line_codes: Dict[int, FrozenSet[str]] = {}
        try:
            tokens = tokenize.generate_tokens(StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                codes = _parse_comment(tok.string)
                if codes is not None:
                    line_codes[tok.start[0]] = line_codes.get(tok.start[0], frozenset()) | codes
        except (tokenize.TokenError, IndentationError, SyntaxError):
            for lineno, line in enumerate(source.splitlines(), start=1):
                codes = _parse_comment(line)
                if codes is not None:
                    line_codes[lineno] = codes
        return cls(line_codes)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when rule ``code`` is silenced on 1-based ``line``."""
        codes = self._line_codes.get(line)
        if codes is None:
            return False
        return codes is _ALL or "*" in codes or code.upper() in codes

    def unknown_codes(self, known: Iterable[str]) -> List[Tuple[int, str]]:
        """``(line, code)`` for every bracketed code not in ``known``, in order."""
        allowed = frozenset(known) | _ALL
        return [
            (line, code)
            for line, codes in sorted(self._line_codes.items())
            for code in sorted(codes - allowed)
        ]


def _parse_comment(text: str) -> Optional[FrozenSet[str]]:
    """The rule codes a comment suppresses, or ``None`` for no directive."""
    match = NOQA_PATTERN.search(text)
    if match is None:
        return None
    raw = match.group("codes")
    if raw is None:
        return _ALL
    codes = frozenset(c.strip().upper() for c in raw.split(",") if c.strip())
    return codes if codes else _ALL
