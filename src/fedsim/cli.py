"""Command-line interface: run, sweep.

`fedsim run --config config.json` runs one experiment, and
`fedsim sweep --config base.json --grid grid.json --out DIR` runs every
setting of the grid under each of its named arms (see `harness.run_sweep`),
for example `configs/attribution_grid.json` on `configs/trend.json`, and
prints the `sweep_table.csv` it wrote in DIR, read back from there.

`errors` lists the exit code of each failure and the one reader of each
input file format. Flags override config values with `dataclasses.replace`,
which checks the new config as loading checks the file's, so a bad flag
value exits 1, as a bad value in the file does.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

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

    sweep = sub.add_parser("sweep", help="run listed settings under named arms")
    sweep.add_argument("--config", required=True, help="JSON base config file")
    sweep.add_argument(
        "--grid",
        required=True,
        help='JSON grid file; each setting runs under each arm, e.g. {"settings": [{}, '
        '{"local_epochs": 5}], "arms": {"fedavg": {"aggregator": "fedavg_count"}, "ddfl": {}}}',
    )
    sweep.add_argument("--out", help="override the config output directory")

    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    flags = {"seed": args.seed, "aggregator": args.aggregator, "output_dir": args.out}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    if cfg.output_dir is None:
        default = f"runs/{cfg.dataset}_{cfg.aggregator}_seed{cfg.seed}"
        cfg = dataclasses.replace(cfg, output_dir=default)
    result = harness.run_experiment(cfg)
    print(f"wrote {result.output_dir}")
    print(f"final accuracy: {result.summary['final_accuracy']:.4f}")
    print(f"best accuracy:  {result.summary['best_accuracy']:.4f} "
          f"(round {result.summary['best_round']})")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config)
    out = cfg.output_dir if args.out is None else args.out
    cfg = dataclasses.replace(cfg, output_dir="runs/sweep" if out is None else out)
    harness.run_sweep(cfg, harness.read_json_object(args.grid, "grid"))
    print((Path(cfg.output_dir) / "sweep_table.csv").read_text(encoding="ascii"), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
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
