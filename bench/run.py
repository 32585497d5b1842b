"""fedsim benchmark: times whole experiments and, in a traced run, each layer.

Usage, from the repository root:

    python3 bench/run.py --workload many_devices --seed 1 --seconds 45 --trace 0

A run repeats one workload's experiment, under seeds derived from --seed,
for at least --seconds and at least the workload's minimum repetitions. It
checks every experiment's output, prints a short report, and prints as its
last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. `--smoke` shrinks every workload for the benchmark's own test;
`--record` writes the output digests of the given seed into golden.json.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the thread count changes both speed and the
# bytes of metrics.csv (see README.md).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
sys.dont_write_bytecode = True
if not (ROOT / "src" / "fedsim").is_dir():
    sys.exit(f"bench/run.py: no fedsim sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fedsim  # noqa: E402
from fedsim import harness  # noqa: E402
from fedsim.data import LabeledSet  # noqa: E402
from fedsim.nn import ModelSpec, gradient, init_model, predict_proba  # noqa: E402

from spans import Tracer  # noqa: E402

# The acceptance gates' trend config (tests/test_acceptance.py, TREND_CONFIG).
TREND = dict(
    dataset="synthetic",
    dataset_params={"num_classes": 10, "per_class": 125, "input_dim": 16, "spread": 0.2},
    devices=10,
    rounds=50,
    local_epochs=1,
    batch_size=20,
    learning_rate=0.5,
    queue_fraction=0.1,
    selection_fraction=0.9,
    partition_mode="one_class",
    hidden_dims=(32,),
)
# metrics.csv sha256 prefixes of TREND at seed 1, as the ROADMAP records them.
SELF_TEST = {"fedavg_count": "0a99cebac506e358", "ddfl_entropy": "eb2a8629213f7c81"}


@dataclass(frozen=True)
class Workload:
    config: dict
    distinct: int  # experiment seeds per run; final_accuracy is their median
    min_reps: int  # experiments per run at least; cycles through the seeds
    smoke: dict  # config overrides for the smoke size


WORKLOADS = {
    "trend": Workload(
        config=dict(TREND, aggregator="ddfl_entropy", workers=1),
        distinct=10,
        min_reps=20,
        smoke=dict(rounds=3),
    ),
    "mnist_shape": Workload(
        config=dict(
            dataset="synthetic",
            dataset_params={"num_classes": 10, "per_class": 3000, "input_dim": 784, "spread": 0.3},
            devices=10,
            rounds=10,
            batch_size=50,
            learning_rate=0.01,
            partition_mode="iid",
            hidden_dims=(128,),
            aggregator="fedavg_count",
            workers=2,
        ),
        distinct=4,
        min_reps=4,
        smoke=dict(
            rounds=2,
            dataset_params={"num_classes": 10, "per_class": 200, "input_dim": 784, "spread": 0.3},
        ),
    ),
    "many_devices": Workload(
        config=dict(
            dataset="synthetic",
            dataset_params={"num_classes": 10, "per_class": 2500, "input_dim": 16, "spread": 0.3},
            devices=1000,
            rounds=10,
            learning_rate=1.0,
            queue_fraction=0.3,
            segment_size=4,
            partition_mode="iid",
            aggregator="ddfl_entropy",
            workers=1,
        ),
        distinct=4,
        min_reps=4,
        smoke=dict(
            rounds=2,
            devices=100,
            dataset_params={"num_classes": 10, "per_class": 250, "input_dim": 16, "spread": 0.3},
        ),
    ),
}
MAX_MEASURE_S = 100.0  # stop repeating here even below min_reps, to end within 180 s


@dataclass
class Experiment:
    seed: int
    setup_s: float = math.nan
    run_s: float = math.nan
    returned_at: float = math.nan
    round_s: list = field(default_factory=list)
    samples: int = 0
    sha256: str = ""
    final_accuracy: float = math.nan
    problems: list = field(default_factory=list)


class RoundClock:
    """Wraps `fedsim.harness.run_round` to timestamp round starts."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples = 0

    def __enter__(self) -> "RoundClock":
        self._original = original = harness.run_round

        def timed(state, cfg):
            self.starts.append(time.perf_counter())
            new_state, report = original(state, cfg)
            self.samples += sum(len(d.data) for d in new_state.devices) * cfg.local_epochs
            return new_state, report

        harness.run_round = timed
        return self

    def __exit__(self, *exc) -> None:
        harness.run_round = self._original


def metrics_check(out_dir: Path, rounds: int) -> tuple[str, float, list[str]]:
    """sha256 of metrics.csv, final accuracy, and what is wrong with the output."""
    raw = (out_dir / "metrics.csv").read_bytes()
    rows = raw.decode("ascii").splitlines()[1:]
    problems = []
    if len(rows) != rounds:
        problems.append(f"metrics.csv has {len(rows)} rows for {rounds} rounds")
    for row in rows:
        values = [float(v) for v in row.split(",")[1:-1]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metric in round {row.split(',')[0]}")
    summary = dict(
        line.split(" = ", 1)
        for line in (out_dir / "summary.txt").read_text(encoding="ascii").splitlines()
    )
    accuracy = float(summary["final_accuracy"])
    if rows and accuracy != float(rows[-1].split(",")[1]):
        problems.append("summary.txt final_accuracy differs from the last metrics row")
    if not 0.0 <= accuracy <= 1.0:
        problems.append(f"final_accuracy {accuracy} outside [0, 1]")
    return hashlib.sha256(raw).hexdigest(), accuracy, problems


def run_one(config: dict, seed: int, hooks=None) -> Experiment:
    """One `run_experiment` call under `hooks` (a RoundClock by default);
    exceptions become problems."""
    hooks = hooks or RoundClock()
    exp = Experiment(seed)
    out_dir = Path(tempfile.mkdtemp(dir=WORK))
    cfg = fedsim.ExperimentConfig(**config, seed=seed, output_dir=str(out_dir))
    gc.collect()
    try:
        with hooks:
            started = time.perf_counter()
            fedsim.run_experiment(cfg)
            returned = time.perf_counter()
        exp.run_s = returned - started
        exp.returned_at = returned
        if isinstance(hooks, RoundClock):
            exp.setup_s = hooks.starts[0] - started
            exp.round_s = [b - a for a, b in zip(hooks.starts, hooks.starts[1:] + [returned])]
            exp.samples = hooks.samples
        exp.sha256, exp.final_accuracy, exp.problems = metrics_check(out_dir, cfg.rounds)
    except Exception:  # a failed experiment is counted, and the run goes on
        exp.problems = ["raised:\n" + traceback.format_exc()]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return exp


def self_test() -> list[Experiment]:
    """Trend acceptance config at seed 1 against the recorded golden prefixes."""
    exps = []
    for aggregator, prefix in SELF_TEST.items():
        exp = run_one(dict(TREND, aggregator=aggregator), 1)
        if not exp.sha256.startswith(prefix):
            exp.problems.append(f"self-test {aggregator}: sha256 {exp.sha256[:16]} != {prefix}")
        exps.append(exp)
    return exps


def nearest_rank(values: list[float], rank: int, n_min: int) -> float:
    """Value at percentile rank/n_min of `values` (nearest-rank method)."""
    ordered = sorted(values)
    return ordered[math.ceil(rank / n_min * len(ordered)) - 1]


def microbench(config: dict, seed: int) -> dict:
    """Warm per-call medians of `gradient` and `predict_proba`, in microseconds."""
    cfg = fedsim.ExperimentConfig(**config)
    dim, classes = cfg.dataset_params["input_dim"], cfg.dataset_params["num_classes"]
    model = init_model(ModelSpec(dim, cfg.hidden_dims, classes, cfg.activation), seed)
    rng = np.random.default_rng(seed)
    batch = LabeledSet(
        rng.random((cfg.batch_size, dim)), rng.integers(0, classes, cfg.batch_size), classes
    )
    out = {}
    for metric, call in (
        ("nn.gradient_us", lambda: gradient(model, batch, cfg.activation)),
        ("nn.forward_us", lambda: predict_proba(model, batch.features, cfg.activation)),
    ):
        times = []
        for i in range(220):
            started = time.perf_counter()
            call()
            if i >= 20:
                times.append(time.perf_counter() - started)
        out[metric] = statistics.median(times) * 1e6
    return out


def machine_info() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"machine: {platform.platform()}, {os.cpu_count()} cpus, python "
        f"{platform.python_version()}, numpy {np.__version__}, blas {blas.get('name')} "
        f"{blas.get('version')}, blas threads {BLAS_THREADS}"
    )


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def check_experiments(exps: list[Experiment], golden: dict) -> None:
    """Add golden and repeat mismatches to each experiment's problems."""
    first: dict[int, str] = {}
    for exp in exps:
        if not exp.sha256:
            continue
        known = golden.get(str(exp.seed))
        if known is not None and (not exp.sha256.startswith(known[0]) or exp.final_accuracy != known[1]):
            exp.problems.append(
                f"seed {exp.seed}: sha256 {exp.sha256[:16]} accuracy {exp.final_accuracy} "
                f"!= golden {known[0]} {known[1]}"
            )
        if first.setdefault(exp.seed, exp.sha256) != exp.sha256:
            exp.problems.append(f"seed {exp.seed}: metrics.csv differs between repeats")


def end_to_end(work: Workload, exps: list[Experiment], failed: int, attempted: int) -> dict:
    good = [e for e in exps if not e.problems]
    rounds = [t for e in good for t in e.round_s]
    n_min = work.config["rounds"] * work.min_reps
    rank = max(1, n_min - 10)
    print(
        f"rounds: {len(rounds)} samples; round_ms_tail is p{100 * rank / n_min:.1f} "
        f"(at least 10 rounds beyond it from {n_min} rounds)"
    )
    firsts = [e.final_accuracy for e in good[: work.distinct]]
    return {
        "setup_s": (statistics.median(e.setup_s for e in good), "s"),
        # A mean: the time a sweep pays per experiment.
        "run_s": (statistics.fmean(e.run_s for e in good), "s"),
        "round_ms_p50": (statistics.median(rounds) * 1e3, "ms"),
        "round_ms_tail": (nearest_rank(rounds, rank, n_min) * 1e3, "ms"),
        "train_samples_per_s": (sum(e.samples for e in good) / sum(rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "final_accuracy": (statistics.median(firsts), "fraction"),
        "success_rate": (1.0 - failed / attempted, "fraction"),
    }


PER_LAYER_UNITS = {
    "data.load_s": "s",
    "data.concat_mb": "MB",
    "partition.split_s": "s",
    "partition.partition_s": "s",
    "partition.dispense_ms": "ms",
    "partition.dispense_samples": "count",
    "partition.accumulate_ms": "ms",
    "nn.local_train_ms": "ms",
    "nn.local_train_calls": "count",
    "nn.train_us_per_sample": "us",
    "nn.local_eval_ms": "ms",
    "nn.test_eval_ms": "ms",
    "nn.gradient_us": "us",
    "nn.forward_us": "us",
    "params.vectors_built": "count",
    "federation.round_ms": "ms",
    "federation.self_ms": "ms",
    "federation.aggregate_ms": "ms",
    "federation.fanout_eff": "fraction",
    "analysis.divergence_ms": "ms",
    "analysis.bias_ms": "ms",
    "harness.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def per_layer(setups: list[dict], rows: list[dict], plain: list[Experiment],
              traced: list[Experiment], micro: dict) -> dict:
    """Set-up figures as medians over traced experiments, round figures as
    means over traced rounds."""
    values = {m: statistics.median(s[m] for s in setups) for m in setups[0]}
    for metric in rows[0]:
        if not metric.startswith("_"):
            values[metric] = statistics.fmean(r[metric] for r in rows)
    values["nn.train_us_per_sample"] = (
        sum(r["_train_s"] for r in rows) / sum(r["_train_samples"] for r in rows) * 1e6
    )
    values.update(micro)
    plain_s = statistics.median(e.run_s for e in plain)
    traced_s = statistics.median(e.run_s for e in traced)
    values["trace.overhead_pct"] = (traced_s - plain_s) / plain_s * 100.0
    return {m: (values[m], unit) for m, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload")
    parser.add_argument("--record", action="store_true", help="update golden.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    work = WORKLOADS[args.workload]
    if args.smoke:
        work = dataclasses.replace(
            work, config={**work.config, **work.smoke}, distinct=1, min_reps=2
        )
    config = work.config
    seeds = [args.seed * 100 + i for i in range(work.distinct)]
    WORK.mkdir(exist_ok=True)
    print(machine_info())
    print(f"workload {args.workload}: seed {args.seed}, experiment seeds {seeds}")
    print(f"config: {json.dumps(config, sort_keys=True)}")
    if config["workers"] * BLAS_THREADS > (os.cpu_count() or 1):
        print(f"note: workers x blas threads exceeds {os.cpu_count()} cpus")

    all_golden = load_golden()
    if args.record:
        entries = all_golden.setdefault(args.workload, {})
        for seed in seeds:
            exp = run_one(config, seed)
            if exp.problems:
                print("\n".join(exp.problems), file=sys.stderr)
                return 1
            entries[str(seed)] = [exp.sha256[:16], exp.final_accuracy]
        GOLDEN.write_text(json.dumps(all_golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(seeds)} digests for {args.workload}")
        return 0

    # The warm-up grows the heap and fills caches as an earlier experiment of
    # a sweep would; it is checked, and it repeats the first seed, but it is
    # not timed.
    checked = self_test() + [run_one(config, seeds[0])]
    plain: list[Experiment] = []
    traced: list[tuple[Experiment, Tracer]] = []
    # A traced repetition runs a plain and a traced experiment.
    min_reps = work.min_reps // 2 if args.trace else work.min_reps
    started = time.perf_counter()
    rep = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and rep >= min_reps):
            break
        seed = seeds[rep % len(seeds)]
        plain.append(run_one(config, seed))
        if args.trace:
            tracer = Tracer()
            traced.append((run_one(config, seed, tracer), tracer))
        rep += 1

    golden = {} if args.smoke else all_golden.get(args.workload, {})
    check_experiments(checked[len(SELF_TEST):] + plain + [exp for exp, _ in traced], golden)
    checked += plain + [exp for exp, _ in traced]
    problems = [p for exp in checked for p in exp.problems]
    failed = sum(1 for exp in checked if exp.problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"checked {len(checked)} experiments ({len(SELF_TEST)} self-test, 1 warm-up): {failed} failed")
    print("run_s by experiment: " + " ".join(f"{e.run_s:.3f}" for e in plain))
    print("metrics.csv sha256: " + ", ".join(
        f"{seed}={sha}" for seed, sha in sorted({(e.seed, e.sha256[:16]) for e in plain})
    ))

    if args.trace:
        good = [(exp, tracer) for exp, tracer in traced if not exp.problems]
        if not good or all(e.problems for e in plain):
            print("no traced pair succeeded", file=sys.stderr)
            return 1
        span_file = WORK / f"spans_{args.workload}_seed{args.seed}.tsv"
        with span_file.open("w", encoding="ascii") as fh:
            fh.write("experiment\tid\tname\tstart\tend\tparent\tround\n")
            for i, (_, tracer) in enumerate(traced):
                tracer.write(fh, i)
        print(f"spans written to {span_file.relative_to(ROOT)}")
        layers = [tracer.layer_rows(exp.returned_at) for exp, tracer in good]
        metrics = per_layer(
            [setup for setup, _ in layers],
            [row for _, rows in layers for row in rows],
            [e for e in plain if not e.problems],
            [exp for exp, _ in good],
            microbench(config, args.seed),
        )
    else:
        if all(e.problems for e in plain):
            print("no experiment succeeded", file=sys.stderr)
            return 1
        metrics = end_to_end(work, plain, failed, len(checked))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
