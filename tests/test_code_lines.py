"""The code-line counter in tools/ that reports the size of src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts as its line


# a comment line
class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return self.size[0] * len(text)
'''


def test_counts_code_lines_only():
    # import, class, `size = (` and its three lines, def, both lines of
    # `text`, return: 10; docstrings, comments and blank lines do not count
    assert _load_tool().code_lines(SOURCE) == 10
