"""Span tracer for the benchmark's traced run.

The tracer replaces module-level names in `fedsim` with timing wrappers for
the length of one experiment and puts the originals back afterwards. It
works from outside the package: a name is wrapped where its caller looks it
up (for example `fedsim.federation.local_train`, not `fedsim.nn.local_train`),
so only calls made by the round loop are traced.

Spans are kept in memory as [name, start, end, parent, round] and written
out when the run ends. Work that runs in the round's worker threads has no
enclosing span in its own thread, so its parent is the open `run_round` span.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

ROUND = "federation.run_round"
EVAL_LOCAL = "nn.evaluate.local"
EVAL_TEST = "nn.evaluate.test"
SETUP = {
    "data.load_s": "data.load_dataset",
    "partition.split_s": "partition.split_global_queue",
    "partition.partition_s": "partition.partition",
}

# (module, attribute, span name); the module is where the caller looks the name up.
TRACED = (
    ("fedsim.harness", "run_round", ROUND),
    ("fedsim.harness", "weight_divergence", "analysis.weight_divergence"),
    ("fedsim.harness", "bias_term", "analysis.bias_term"),
    ("fedsim.harness", "_load_dataset", "data.load_dataset"),
    ("fedsim.harness", "split_global_queue", "partition.split_global_queue"),
    ("fedsim.harness", "partition", "partition.partition"),
    ("fedsim.harness", "init_model", "nn.init_model"),
    ("fedsim.federation", "dispense", "partition.dispense"),
    ("fedsim.federation", "accumulate", "partition.accumulate"),
    ("fedsim.federation", "local_train", "nn.local_train"),
    ("fedsim.federation", "evaluate", None),  # named per call: device or test data
    ("fedsim.federation", "aggregate_ddfl", "federation.aggregate_ddfl"),
    ("fedsim.federation", "aggregate_fedavg", "federation.aggregate_fedavg"),
    ("fedsim.partition", "concat_sets", "data.concat_sets"),
)
COUNTED_VECTORS = ("fedsim.nn", "fedsim.federation", "fedsim.analysis")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Spans and counters for one experiment; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, int | None], float] = defaultdict(float)
        self.round: int | None = None
        self.round_span: list | None = None
        self.test_set = None
        self.workers = 1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in TRACED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, attr, name))
        for module_name in COUNTED_VECTORS:
            module = sys.modules[module_name]
            self._saved.append((module, "ParamVector", module.ParamVector))
            module.ParamVector = self._counting(module.ParamVector)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[(key, self.round)] += amount

    def _counting(self, cls):
        def build(*args, **kwargs):
            self.count("vectors")
            return cls(*args, **kwargs)

        return build

    def _before(self, attr: str, args) -> None:
        if attr == "run_round":
            state, cfg = args
            self.round = state.round_index
            self.test_set = cfg.test_set
            self.workers = cfg.workers

    def _after(self, attr: str, args, result) -> None:
        if attr == "concat_sets":
            self.count("concat_bytes", result.features.nbytes + result.labels.nbytes)
        elif attr == "dispense":
            self.count("dispense_samples", sum(len(seg) for seg in result[0]))
        elif attr == "local_train":
            self.count("train_samples", len(args[1]) * args[2].local_epochs)

    def _wrapper(self, fn, attr: str, name: str | None):
        local = self._local
        spans = self.spans
        is_round = name == ROUND

        def traced(*args, **kwargs):
            self._before(attr, args)
            span_name = name or (EVAL_TEST if args[1] is self.test_set else EVAL_LOCAL)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self.round_span
            span = [span_name, time.perf_counter(), None, parent, self.round]
            spans.append(span)
            stack.append(span)
            if is_round:
                self.round_span = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_round:
                    self.round_span = None
            self._after(attr, args, result)
            return result

        return traced

    def layer_rows(self, returned_at: float) -> tuple[dict, list[dict]]:
        """Set-up seconds by metric, and one dict of per-layer figures per round.

        `returned_at` is when `run_experiment` returned; it closes the last
        round, as the next round's start closes every other one.
        """
        setup = {
            metric: sum(s[2] - s[1] for s in self.spans if s[0] == name and s[4] is None)
            for metric, name in SETUP.items()
        }
        by_round: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                by_round[span[4]].append(span)
        starts = sorted((s[1], s[4]) for s in self.spans if s[0] == ROUND)
        ends = [t for t, _ in starts[1:]] + [returned_at]
        rows = []
        for (start, r), wall_end in zip(starts, ends):
            spans = by_round[r]
            round_span = next(s for s in spans if s[0] == ROUND)

            def busy(name, spans=spans):
                return sum(s[2] - s[1] for s in spans if s[0] == name)

            children = [s for s in spans if s[3] is round_span]
            trains = [s for s in spans if s[0] == "nn.local_train"]
            window = max(s[2] for s in trains) - min(s[1] for s in trains)
            round_s = round_span[2] - round_span[1]
            analysis_s = busy("analysis.weight_divergence") + busy("analysis.bias_term")
            train_s = busy("nn.local_train")
            rows.append(
                {
                    "data.concat_mb": self.counts[("concat_bytes", r)] / 1e6,
                    "partition.dispense_ms": busy("partition.dispense") * 1e3,
                    "partition.dispense_samples": self.counts[("dispense_samples", r)],
                    "partition.accumulate_ms": busy("partition.accumulate") * 1e3,
                    "nn.local_train_ms": train_s * 1e3,
                    "nn.local_train_calls": float(len(trains)),
                    "nn.local_eval_ms": busy(EVAL_LOCAL) * 1e3,
                    "nn.test_eval_ms": busy(EVAL_TEST) * 1e3,
                    "params.vectors_built": self.counts[("vectors", r)],
                    "federation.round_ms": round_s * 1e3,
                    "federation.self_ms": (
                        round_s - covered((s[1], s[2]) for s in children)
                    ) * 1e3,
                    "federation.aggregate_ms": sum(
                        s[2] - s[1] for s in children if s[0].startswith("federation.aggregate")
                    ) * 1e3,
                    "federation.fanout_eff": train_s / (self.workers * window),
                    "analysis.divergence_ms": busy("analysis.weight_divergence") * 1e3,
                    "analysis.bias_ms": busy("analysis.bias_term") * 1e3,
                    "harness.self_ms": (wall_end - start - round_s - analysis_s) * 1e3,
                    "_train_s": train_s,
                    "_train_samples": self.counts[("train_samples", r)],
                }
            )
        return setup, rows

    def write(self, fh, experiment: int) -> None:
        """Append spans as tab-separated rows: experiment, id, name, start, end,
        parent id, round."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        for i, (name, start, end, parent, r) in enumerate(self.spans):
            parent_id = "" if parent is None else ids[id(parent)]
            round_text = "" if r is None else r
            fh.write(f"{experiment}\t{i}\t{name}\t{start!r}\t{end!r}\t{parent_id}\t{round_text}\n")
