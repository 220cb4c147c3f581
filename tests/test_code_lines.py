"""``tools/code_lines.py``, the code-line count that the project's notes
quote, run as a script on a fixture package."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 7 code lines: the import, both lines of the string assigned to a name,
# the class and def lines, and both lines of the continued return; the
# docstrings, comments and blank lines are not counted
WITH_EVERYTHING = '''"""A module docstring
over two lines."""

import os  # a trailing comment

TEXT = """a multi-line string
assigned to a name"""


class A:
    """A class docstring."""

    def f(self):
        """A function docstring,
        over two lines."""
        # a comment on its own line
        return 1 + \\
            2
'''

# 3 code lines: a string that is not a function's first statement is code
LATE_STRING = '''def g():
    x = 1
    "not a docstring"
'''


def test_counts_each_module_and_sums_them(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "everything.py").write_text(WITH_EVERYTHING)
    (pkg / "late.py").write_text(LATE_STRING)
    (pkg / "only_doc.py").write_text('"""Nothing but a docstring."""\n\n# and a comment\n')
    (pkg / "notes.txt").write_text("x = 1\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(pkg)], capture_output=True, text=True, check=True
    ).stdout
    counts = dict((name, int(n)) for name, n in map(str.split, out.splitlines()))
    total = counts.pop("total")
    assert counts == {"everything": 7, "late": 3, "only_doc": 0}
    assert total == sum(counts.values())
