"""Count the code lines of each module of ``src/shiftmorita``.

A line counts when it holds a token other than a comment, a newline, an
indent or a dedent, and it is not part of a docstring: a string literal
that is the first statement of a module, class or function.  A token that
spans several lines (a multi-line string) holds each of them.

    python tools/code_lines.py [PACKAGE_DIR]

prints one line per module and the total; the directory defaults to
``src/shiftmorita`` next to this script's parent directory.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers covered by every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as f:
        source = f.read()
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines: set[int] = set()
    for tok in tokens:
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "shiftmorita"
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
