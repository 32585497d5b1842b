import json
import re

import pytest

from fedsim.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_OK, EXIT_RUNTIME, main


DATASET_PARAMS = {"num_classes": 4, "per_class": 25, "input_dim": 6, "spread": 0.2}


def write_config(tmp_path, **overrides):
    config = {
        "dataset": "synthetic",
        "dataset_params": DATASET_PARAMS,
        "devices": 4,
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": 8,
        "learning_rate": 0.3,
        "queue_fraction": 0.2,
        "selection_fraction": 0.9,
        "partition_mode": "one_class",
        "aggregator": "ddfl",
        "hidden_dims": [6],
        "seed": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# (key, value) pairs that must fail at load time with a config error naming the
# key; "dataset_params.k" sets key k of dataset_params
INVALID_VALUES = [
    ("rounds", 0),
    ("hidden_dims", "32"),
    ("hidden_dims", [32.0]),
    ("seed", 1.5),
    ("selection_fraction", True),
    ("devices", True),
    ("devices", "10"),
    ("rounds", 2.0),
    ("learning_rate", "0.1"),
    ("learning_rate", float("nan")),
    ("segment_size", 1.5),
    ("dataset_params.input_dim", 16.9),
    ("dataset_params.per_class", "40"),
    ("dataset_params.spread", float("nan")),
    ("dataset_params.spread", -0.1),
    ("dataset_params.num_classes", True),
    ("dataset_params.num_classes", 1),
    ("dataset_params.per_class", 2.5),
    ("dataset_params.per_class", 1),
    ("dataset_params.input_dim", 1),
    # infeasible for the 64 residual samples of 4 classes that the base config leaves
    ("devices", 3),
    ("devices", 200),
    ("queue_fraction", 0.999),
    ("aggregator", []),
    ("output_dir", 5),
    ("data_dir", 7),
    ("trace_dispense", "no"),
]


class TestRunCommand:
    def test_success(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "metrics.csv").is_file()
        assert "final accuracy" in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--out", str(out),
            "--seed", "9", "--aggregator", "fedavg",
        ])
        assert code == EXIT_OK
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["seed"] == 9
        assert resolved["aggregator"] == "fedavg_count"

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_invalid_config_value(self, tmp_path, capsys):
        for key, value in INVALID_VALUES:
            section, _, param = key.partition(".")
            if param:
                config = write_config(tmp_path, **{section: {**DATASET_PARAMS, param: value}})
            else:
                config = write_config(tmp_path, **{key: value})
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG, (key, value)
            assert (param or key) in capsys.readouterr().err, (key, value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blow_up(self, tmp_path, capsys):
        # tanh saturates, so its parameters stay finite near 1e200 and the
        # divergence overflows; relu's parameters themselves overflow
        for activation, learning_rate, cause in (
            ("tanh", 1e200, "weight divergence is not finite"),
            ("relu", 1e300, "trained to non-finite parameters"),
        ):
            config = write_config(
                tmp_path, activation=activation, learning_rate=learning_rate
            )
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
            assert code == EXIT_RUNTIME, activation
            err = capsys.readouterr().err
            assert re.search(r"round \d+: device \d+ " + cause, err), err

    def test_dataset_params_on_a_real_dataset(self, tmp_path, capsys):
        # they would be ignored: the loaders take none, so the run rejects them
        # before it looks for the files
        for dataset in ("mnist", "cifar10", "cifar100"):
            config = write_config(
                tmp_path, dataset=dataset, data_dir=str(tmp_path), dataset_params={"bogus": 1}
            )
            assert main(["run", "--config", str(config)]) == EXIT_CONFIG, dataset
            assert "dataset_params" in capsys.readouterr().err, dataset
            config = write_config(
                tmp_path, dataset=dataset, data_dir=str(tmp_path), dataset_params={}
            )
            assert main(["run", "--config", str(config)]) == EXIT_DATASET, dataset

    def test_missing_dataset_dir(self, tmp_path):
        config = write_config(
            tmp_path, dataset="mnist", data_dir=str(tmp_path / "nowhere"), dataset_params={}
        )
        assert main(["run", "--config", str(config)]) == EXIT_DATASET

    def test_unknown_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--bogus"]) == EXIT_CONFIG


class TestSweepCommand:
    def test_success(self, tmp_path, capsys):
        config = write_config(tmp_path, rounds=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"local_epochs": [1]}))
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", str(config), "--grid", str(grid), "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "sweep_table.csv").is_file()
        assert "boost" in capsys.readouterr().out

    def test_bad_grid(self, tmp_path):
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"batch_size": [1]}))
        assert main(["sweep", "--config", str(config), "--grid", str(grid)]) == EXIT_CONFIG

    def test_missing_grid_file(self, tmp_path):
        config = write_config(tmp_path)
        missing = tmp_path / "grid.json"
        assert main(["sweep", "--config", str(config), "--grid", str(missing)]) == EXIT_CONFIG


class TestPlotCommand:
    def test_success(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
        code = main(["plot", "--rows", str(out / "metrics.csv"), "--kind", "accuracy_curve"])
        assert code == EXIT_OK
        assert (out / "metrics_accuracy_curve.csv").is_file()

    def test_unknown_kind_is_config_error(self, tmp_path):
        assert main(["plot", "--rows", "x.csv", "--kind", "scatter"]) == EXIT_CONFIG

    def test_missing_rows_file_is_runtime_error(self, tmp_path):
        missing = tmp_path / "rows.csv"
        code = main(["plot", "--rows", str(missing), "--kind", "accuracy_curve"])
        assert code == EXIT_RUNTIME
