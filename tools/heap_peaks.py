"""Report how far each stage of a round raises the Python heap.

Runs the experiment of a JSON config file (without writing its output
files) under the standard library's `tracemalloc`, which sees numpy's array
buffers, and prints one row per round stage: its call count and the largest
and median peak of traced memory above the memory traced at the call's
start, in MB. Persistent arrays allocated before a stage starts do not
count; what a stage allocates and keeps does. It is a report, not a gate.
Usage, from the repository root:

    python3 tools/heap_peaks.py configs/trend.json

The stages are found by wrapping module-level names where the round loop
looks them up (`fedsim.harness.run_round` and the names `run_round` calls
from `fedsim.federation`), as the benchmark's tracer does, so `src/` is
left as it is. A stage nested in another, such as `aggregate_fedavg` inside
`aggregate_ddfl`, counts towards both. Calls made on a pool thread are not
measured on their own: their heap counts towards the stage open on the
thread that runs the round.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import threading
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedsim import federation, harness  # noqa: E402

# (module, attribute); the module is where the round loop looks the name up
STAGES = (
    (harness, "run_round"),
    (federation, "dispense"),
    (federation, "accumulate"),
    (federation, "local_train"),
    (federation, "aggregate_ddfl"),
    (federation, "aggregate_fedavg"),
    (federation, "evaluate"),
    (federation, "bank_divergence"),
)


class HeapPeaks:
    """Per-call heap peaks of wrapped names, in bytes; a context manager
    that wraps on entry and puts the originals back on exit. Start
    `tracemalloc` before a wrapped name is called."""

    def __init__(self, stages=STAGES):
        self.stages = stages
        self.peaks: dict[str, list[int]] = defaultdict(list)
        self._open: list[list[int]] = []  # [traced at start, peak before a reset]
        self._thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "HeapPeaks":
        for module, attr in self.stages:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        def measured(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            if self._open:  # the reset below must not lose the enclosing stage's peak
                self._open[-1][1] = max(self._open[-1][1], peak)
            tracemalloc.reset_peak()
            self._open.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                start, held = self._open.pop()
                self.peaks[name].append(max(held, tracemalloc.get_traced_memory()[1]) - start)

        return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="JSON config file, as `fedsim run --config` takes")
    args = parser.parse_args(argv)
    cfg = dataclasses.replace(harness.load_config(args.config), output_dir=None)
    tracemalloc.start()
    try:
        with HeapPeaks() as heap:
            harness.run_experiment(cfg)
    finally:
        tracemalloc.stop()
    print(f"{'stage':18s} {'calls':>6s} {'max MB':>9s} {'median MB':>10s}")
    for _, name in STAGES:
        peaks = heap.peaks[name]
        if peaks:
            print(
                f"{name:18s} {len(peaks):6d} {max(peaks) / 1e6:9.3f} "
                f"{statistics.median(peaks) / 1e6:10.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
