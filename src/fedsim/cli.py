"""Command-line interface: run, sweep, plot.

Exit codes: 0 success, 1 `ConfigInvalid` (a bad config value, flag, grid or
plot kind, or a config, grid or rows file that cannot be read or parsed),
2 `DatasetError` (a missing or malformed dataset file, or a label
outside the dataset's classes), 3 any other
exception (`NumericalDivergence`, or a runtime failure).

Each file a user names is read by one reader per format:
`harness.read_text` and `harness.read_json_object` for config, grid and rows
files (any fault in reading or parsing one exits 1), and the `data` loaders
for dataset files (a missing or malformed one, or one holding a label
outside the dataset's classes, exits 2).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .errors import ConfigInvalid, DatasetError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # bad flags are configuration errors, not argparse's default exit code 2
    def error(self, message):
        raise ConfigInvalid(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedsim",
        description="Federated-learning simulator with a dynamic server data "
        "queue and entropy-weighted aggregation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument(
        "--aggregator",
        help="override the config aggregator; takes any name the config accepts",
    )
    run.add_argument("--out", help="override the config output directory")

    sweep = sub.add_parser("sweep", help="run a grid of settings, both aggregators")
    sweep.add_argument("--config", required=True, help="JSON base config file")
    sweep.add_argument("--grid", required=True, help="JSON grid file")
    sweep.add_argument("--out", help="override the config output directory")

    plot = sub.add_parser("plot", help="emit plot-ready data from a metrics file")
    plot.add_argument("--rows", required=True, help="input CSV produced by a run")
    plot.add_argument("--kind", required=True, choices=list(harness.PLOT_KINDS))
    plot.add_argument("--out", help="output path (defaults next to the input)")

    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.aggregator is not None:
        cfg.aggregator = args.aggregator
    if args.out is not None:
        cfg.output_dir = args.out
    # normalised first, so the default directory names the canonical aggregator
    cfg = harness.validate_config(cfg)
    if cfg.output_dir is None:
        cfg.output_dir = f"runs/{cfg.dataset}_{cfg.aggregator}_seed{cfg.seed}"
    result = harness.run_experiment(cfg)
    print(f"wrote {result.output_dir}")
    print(f"final accuracy: {result.summary['final_accuracy']:.4f}")
    print(f"best accuracy:  {result.summary['best_accuracy']:.4f} "
          f"(round {result.summary['best_round']})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config)
    if args.out is not None:
        cfg.output_dir = args.out
    if cfg.output_dir is None:
        cfg.output_dir = "runs/sweep"
    table = harness.run_sweep(cfg, harness.read_json_object(args.grid, "grid"))
    print(harness.format_sweep_table(table))
    return EXIT_OK


def _cmd_plot(args) -> int:
    out = harness.emit_plot_data(args.rows, args.kind, args.out)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_plot(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
