"""List the executable lines of a package that a pytest run never ran.

    python tools/line_coverage.py [PACKAGE_DIR [PYTEST_ARG ...]]

runs pytest in this process with a line tracer (``sys.settrace``) on the
package's ``.py`` files, then prints one ``path:line: source`` line per
executable line that never ran, and a total.  The package directory
defaults to ``src/shiftmorita`` next to this script's parent directory,
and its parent directory goes first on ``sys.path``; the pytest arguments
default to none (pytest's own configuration picks the tests).  The exit
status is pytest's.

A line is executable when the compiled module has bytecode on it.  Lines
of ``def`` and ``class`` statements (decorators and signatures included),
imports and docstrings are not listed: they run at import or not at all.
A test can switch the tracer off (``sys.settrace(None)``), so it is set
again before each test's setup and call.  Code that runs in another
thread or another process is not seen.  A traced run is several times
slower than a plain one.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

from code_lines import docstring_lines

HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def skipped_lines(tree: ast.Module) -> set[int]:
    """Docstrings, imports, and def and class statements up to their body."""
    lines = docstring_lines(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, HEADERS):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines.update(range(first, max(node.body[0].lineno, node.lineno + 1)))
    return lines


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object of the module has bytecode on, less
    ``skipped_lines``."""
    source = path.read_text()
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines - skipped_lines(ast.parse(source))


class LineTracer:
    """Records (file, line) for every line run in the watched files."""

    def __init__(self, files: set[str]):
        self.files = files
        self.watched: dict[str, bool] = {}
        self.hits: set[tuple[str, int]] = set()

    def arm(self) -> None:
        sys.settrace(self.trace_call)

    def trace_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self.watched:
            self.watched[name] = str(Path(name).resolve()) in self.files
        return self.trace_line if self.watched[name] else None

    def trace_line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.trace_line

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.arm()


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "shiftmorita"
    package = Path(argv[0] if argv else default).resolve()
    sys.path.insert(0, str(package.parent))
    # read before the run, so that the lines are those of the code traced
    modules = {str(p): (p.name, p.read_text().splitlines(), executable_lines(p))
               for p in sorted(package.glob("*.py"))}
    tracer = LineTracer(set(modules))
    tracer.arm()
    try:
        status = pytest.main(argv[1:], plugins=[tracer])
    finally:
        sys.settrace(None)
    ran = {(str(Path(f).resolve()), line) for f, line in tracer.hits}
    total = 0
    for path, (name, source, lines) in modules.items():
        for line in sorted(lines):
            if (path, line) not in ran:
                total += 1
                print(f"{package.name}/{name}:{line}: {source[line - 1].strip()}")
    print(f"{total} executable lines of {package.name} never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
