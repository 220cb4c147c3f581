"""``tools/line_coverage.py``, run as a script on a fixture package and a
fixture test directory."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"

MODULE = '''"""A module docstring."""

from functools import lru_cache

LIMIT = 3


@lru_cache(maxsize=None)
def size(x,
         y=0):
    """A docstring
    over two lines."""
    if x + y > LIMIT:
        return "big"
    return "small"


def never():
    total = 0
    for i in range(3):
        total += i
    return total


class Box:
    """A class docstring."""

    SIDE = 2

    def area(self):
        return self.SIDE * \\
            self.SIDE
'''

TESTS = '''import sys

from pkg.mod import Box, size


def test_small():
    assert size(1) == "small"


def test_switches_the_tracer_off():
    sys.settrace(None)


def test_big_after_the_tracer_was_switched_off():
    assert size(5) == "big"
'''


def test_lists_the_lines_no_test_ran(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(MODULE)
    tests = tmp_path / "checks"
    tests.mkdir()
    (tests / "test_mod.py").write_text(TESTS)
    run = subprocess.run(
        [sys.executable, str(TOOL), str(pkg), "-q", "-p", "no:cacheprovider", str(tests)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    report = [line for line in run.stdout.splitlines() if line.startswith("pkg/")]
    # the lines of never() and of Box.area; not the def, class, import,
    # decorator or docstring lines, and not the "big" branch, which the
    # tracer sees again after a test switched it off
    assert report == [
        "pkg/mod.py:19: total = 0",
        "pkg/mod.py:20: for i in range(3):",
        "pkg/mod.py:21: total += i",
        "pkg/mod.py:22: return total",
        "pkg/mod.py:31: return self.SIDE * \\",
        "pkg/mod.py:32: self.SIDE",
    ], run.stdout
    assert run.stdout.splitlines()[-1] == "6 executable lines of pkg never ran"
