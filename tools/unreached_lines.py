"""Report the lines of src/fedsim that the tier-1 tests never execute.

Runs the tier-1 suite under the standard library's `trace` line counter,
started before `fedsim` is imported so that module-level lines count too,
and counts the lines of worker threads as well. Then prints one
`file:line: source` row for each line of src/fedsim that holds code and
ran zero times, and exits with pytest's exit code. It is a report, not a
gate. Usage, from the repository root:

    python3 tools/unreached_lines.py [extra pytest arguments]

A traced run is several times slower than a plain one, so a test with a
wall-clock bound (gate 01 allows 1 s) can fail under it.
"""

from __future__ import annotations

import sys
import threading
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fedsim"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines of `source` that its compiled code runs: each line on which
    an instruction of the module or of a function or class inside it starts."""
    lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def unreached(source: str, counts: dict[int, int], filename: str = "<source>") -> list[int]:
    """The code lines of `source`, in order, whose count in `counts` (line
    number to times run) is zero or absent."""
    return sorted(line for line in executable_lines(source, filename) if not counts.get(line))


def _traced_pytest(args: list[str]) -> tuple[int, dict[tuple[str, int], int]]:
    """Pytest's exit code for `args` and the (file, line) counts of the run."""
    # no ignoredirs: `trace` caches its ignore decision per module basename,
    # so an ignored package's __init__.py would hide fedsim's
    tracer = trace.Trace(count=1, trace=0)
    threading.settrace(tracer.globaltrace)  # the round's worker threads
    try:
        # nothing has imported fedsim yet, so its module-level lines count
        code = tracer.runfunc(pytest.main, args)
    finally:
        threading.settrace(None)
    return int(code), tracer.results().counts


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    exit_code, counts = _traced_pytest(TIER1_ARGS + argv)
    per_file: dict[Path, dict[int, int]] = {}
    for (filename, line), count in counts.items():
        per_file.setdefault(Path(filename).resolve(), {})[line] = count
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = unreached(source, per_file.get(path, {}), str(path))
        total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{total} code lines of {PACKAGE.relative_to(ROOT)} never ran")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
