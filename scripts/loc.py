#!/usr/bin/env python3
"""Print the size of the nvqpt package, per module and in total.

Two counts per module:
  - lines: physical lines, as `wc -l` counts them;
  - code: lines that hold a token and are neither blank, a comment alone,
    nor part of a docstring (a string literal standing as its own statement).

Usage: python scripts/loc.py

Uses the standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nvqpt"
NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment or layout, outside docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> None:
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")


if __name__ == "__main__":
    main()
