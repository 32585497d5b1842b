"""The pure part of the tools/ report of src/ lines that tier-1 never runs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("unreached_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''import math


def sign(x):
    # a comment is not code
    if x < 0:
        raise ValueError(
            "negative"
        )

    return math.copysign(1, x)
'''


def test_lists_code_lines_that_never_ran():
    tool = _load_tool()
    assert tool.executable_lines(SOURCE) == {1, 4, 6, 7, 8, 11}
    # the import, the def, the test and the return ran; the raise did not,
    # and each line of it is listed
    counts = {1: 1, 4: 1, 6: 2, 11: 2}
    assert tool.unreached(SOURCE, counts) == [7, 8]
    assert tool.unreached(SOURCE, {}) == [1, 4, 6, 7, 8, 11]
