"""The stage accounting of the tools/ report of per-stage heap peaks."""

import importlib.util
import tracemalloc
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "heap_peaks.py"
MB = 1_000_000


def _load_tool():
    spec = importlib.util.spec_from_file_location("heap_peaks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_nested_stage_counts_towards_both():
    tool = _load_tool()
    stages = types.SimpleNamespace()
    stages.inner = lambda: len(bytearray(2 * MB))

    def outer():
        kept = bytearray(MB)
        len(bytearray(3 * MB))  # a 3 MB temporary, gone before the inner stage
        stages.inner()
        return kept

    stages.outer = outer
    tracemalloc.start()
    try:
        with tool.HeapPeaks(((stages, "outer"), (stages, "inner"))) as heap:
            kept = stages.outer()
            stages.inner()
    finally:
        tracemalloc.stop()
    assert stages.outer is outer  # the originals are back
    [outer_peak] = heap.peaks["outer"]
    # 1 MB kept and the 3 MB temporary, although the inner stage resets
    # tracemalloc's peak; the second inner call starts above the kept 1 MB
    assert 4 * MB <= outer_peak < 4 * MB + 50_000
    assert len(heap.peaks["inner"]) == 2
    assert all(2 * MB <= p < 2 * MB + 50_000 for p in heap.peaks["inner"])
    assert len(kept) == MB
