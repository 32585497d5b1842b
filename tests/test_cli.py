import hashlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

from fedsim.cli import EXIT_CONFIG, EXIT_DATASET, EXIT_OK, EXIT_RUNTIME, main
from inputs import (
    BASE_CONFIG, CONFIGS, INVALID_VALUES, write_cifar, write_config, write_idx, write_mnist,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_script_resolves_to_main():
    # the installed `fedsim` command calls what pyproject.toml names
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert pkgutil.resolve_name(scripts["fedsim"]) is main


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

    def test_aggregator_flag_takes_every_config_name(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["run", "--config", str(config), "--out", str(out), "--aggregator"]
        assert main([*argv, "ddfl_entropy"]) == EXIT_OK
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["aggregator"] == "ddfl_entropy"
        capsys.readouterr()
        assert main([*argv, "median"]) == EXIT_CONFIG
        assert "aggregator" in capsys.readouterr().err

    def test_bad_config_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG

    def test_invalid_config_value(self, tmp_path, capsys):
        for key, value in INVALID_VALUES:
            section, _, param = key.partition(".")
            if param:
                params = {**BASE_CONFIG["dataset_params"], param: value}
                config = write_config(tmp_path, **{section: params})
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

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_output_dir_that_cannot_be_a_directory(self, tmp_path, capsys, where):
        config = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "a file" else blocker / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output_dir" in err and str(out) in err

    def test_output_dir_that_cannot_hold_a_run_file(self, tmp_path, capsys):
        # a directory where timings.csv goes: the run stops before its first
        # round, and closes metrics.csv, opened before it, with its header
        config = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "timings.csv").mkdir(parents=True)
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output_dir" in err and "timings.csv" in err
        assert (out / "metrics.csv").read_text().startswith("round_index,test_accuracy,")

    def test_output_dir_that_cannot_hold_the_summary(self, tmp_path, capsys):
        # summary.txt is written after the last round but opened before the
        # first, so the run fails with no round trained: metrics.csv holds
        # only its header
        config = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
        assert "summary.txt" in capsys.readouterr().err
        assert (out / "metrics.csv").read_text().count("\n") == 1

    def test_unknown_flag(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--bogus"]) == EXIT_CONFIG

    def test_unknown_command(self, capsys):
        assert main(["plot", "--rows", "metrics.csv"]) == EXIT_CONFIG
        assert "plot" in capsys.readouterr().err

    def test_default_directory_names_the_canonical_aggregator(self, tmp_path, monkeypatch):
        # the same run, aggregator given by alias on the flag or in the file
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, aggregator="fedavg")
        assert main(["run", "--config", str(config), "--aggregator", "ddfl"]) == EXIT_OK
        assert main(["run", "--config", str(write_config(tmp_path))]) == EXIT_OK
        runs = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert runs == ["synthetic_ddfl_entropy_seed3"]


ARMS = {"fedavg": {"aggregator": "fedavg_count"}, "ddfl": {"aggregator": "ddfl_entropy"}}


def write_grid(tmp_path, settings=({},), arms=None):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"settings": list(settings), "arms": ARMS if arms is None else arms}))
    return path


def sweep_command(config, grid, out):
    return ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(out)]


def assert_wrote_nothing(out):
    assert not list(out.glob("setting_*"))
    assert not (out / "sweep_table.csv").exists()


# grids that `fedsim sweep` refuses before it writes anything, and the words
# its error gives for each
REFUSED_GRIDS = {
    "an unknown top-level key": ({"settings": [{}], "arms": ARMS, "seeds": [1]}, "seeds"),
    "no arms key": ({"settings": [{}]}, "arms"),
    "empty settings": ({"settings": [], "arms": ARMS}, "settings"),
    "empty arms": ({"settings": [{}], "arms": {}}, "arms"),
    "arms not an object": ({"settings": [{}], "arms": [{}]}, "arms"),
    "a setting not an object": ({"settings": [{}, [1]], "arms": ARMS}, "setting 2"),
    "an arm not an object": ({"settings": [{}], "arms": {"a": "fedavg"}}, "arm a"),
    **{
        f"fixed key {key}": ({"settings": [{}, {key: value}], "arms": ARMS}, key)
        for key, value in [
            ("dataset", "synthetic"), ("dataset_params", {}), ("data_dir", "data"),
            ("seed", 4), ("output_dir", "elsewhere"),
        ]
    },
    "an unknown key": ({"settings": [{}], "arms": {"a": {"bogus": 1}}}, "bogus"),
    "a key in both a setting and an arm": (
        {"settings": [{"local_epochs": 1}], "arms": {"a": {"local_epochs": 2}}}, "local_epochs"
    ),
    **{
        f"arm name {name!r}": ({"settings": [{}], "arms": {name: {}}}, repr(name))
        for name in ["../x", "", "a b", "a/b", "\u00e9"]
    },
    "an arm's bad value": ({"settings": [{}], "arms": {"a": {"learning_rate": -1.0}}}, "learning_rate"),
    # each run's split is checked, not only each setting's
    "an arm's split the data cannot support": (
        {"settings": [{}], "arms": {"a": {}, "b": {"queue_fraction": 0.999}}}, "queue_fraction"
    ),
}


class TestSweepCommand:
    def test_success(self, tmp_path, capsys):
        config = write_config(tmp_path, rounds=1)
        out = tmp_path / "sweep"
        assert main(sweep_command(config, write_grid(tmp_path), out)) == EXIT_OK
        table = (out / "sweep_table.csv").read_text()
        # stdout is the table file's text
        assert capsys.readouterr().out == table
        lines = table.splitlines()
        assert lines[0] == "setting,arm,final_accuracy,best_accuracy,final_mean_entropy"
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "fedavg"], ["1", "ddfl"]]

    def test_bad_grid(self, tmp_path, capsys):
        # the grid file of earlier versions: parallel lists of values
        config = write_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"local_epochs": [1, 2]}))
        out = tmp_path / "sweep"
        assert main(sweep_command(config, grid, out)) == EXIT_CONFIG
        assert "local_epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", list(REFUSED_GRIDS))
    def test_refused_grid(self, tmp_path, capsys, fault):
        grid, words = REFUSED_GRIDS[fault]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out = tmp_path / "sweep"
        assert main(sweep_command(write_config(tmp_path, rounds=1), path, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert words in err, err
        assert_wrote_nothing(out)

    def test_missing_grid_file(self, tmp_path):
        config = write_config(tmp_path)
        missing = tmp_path / "grid.json"
        assert main(["sweep", "--config", str(config), "--grid", str(missing)]) == EXIT_CONFIG

    def test_every_setting_is_checked_before_the_first_run(self, tmp_path, capsys):
        config = write_config(tmp_path, rounds=1)
        grid = write_grid(tmp_path, settings=[{"local_epochs": 1}, {"local_epochs": 0}])
        out = tmp_path / "sweep"
        assert main(sweep_command(config, grid, out)) == EXIT_CONFIG
        assert "local_epochs" in capsys.readouterr().err
        assert_wrote_nothing(out)

    def test_a_setting_the_data_cannot_support_stops_the_sweep_before_the_first_run(
        self, tmp_path, capsys
    ):
        # 0.999 is a valid fraction, but it leaves no samples for the devices
        config = write_config(tmp_path, rounds=1)
        grid = write_grid(tmp_path, settings=[{"queue_fraction": 0.2}, {"queue_fraction": 0.999}])
        out = tmp_path / "sweep"
        assert main(sweep_command(config, grid, out)) == EXIT_CONFIG
        assert "queue_fraction" in capsys.readouterr().err
        assert_wrote_nothing(out)

    @pytest.mark.parametrize("where", ["a file", "under a file"])
    def test_output_dir_that_cannot_hold_the_sweep(self, tmp_path, capsys, where):
        config = write_config(tmp_path, rounds=1)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if where == "a file" else blocker / "out"
        assert main(sweep_command(config, write_grid(tmp_path), out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output_dir" in err and str(out) in err

    def test_a_directory_that_holds_a_sweep_table_is_refused(self, tmp_path, capsys):
        # a second sweep there would leave the first one's run directories
        # beside a table that does not list them
        config = write_config(tmp_path, rounds=1)
        out = tmp_path / "sweep"
        assert main(sweep_command(config, write_grid(tmp_path), out)) == EXIT_OK
        capsys.readouterr()
        table = (out / "sweep_table.csv").read_bytes()
        grid = write_grid(tmp_path, arms={"fedavg": {"aggregator": "fedavg_count"}})
        assert main(sweep_command(config, grid, out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output_dir" in err and str(out) in err and "sweep_table.csv" in err
        assert (out / "sweep_table.csv").read_bytes() == table
        assert sorted(p.name for p in out.iterdir()) == [
            "setting_01_ddfl", "setting_01_fedavg", "sweep_table.csv"
        ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_diverging_run_keeps_the_rows_of_finished_runs(self, tmp_path, capsys):
        # the arm that blows up as `TestRunCommand.test_numerical_blow_up`'s
        # tanh run does, after the other arm's run has finished
        arms = {"fine": {}, "blows_up": {"activation": "tanh", "learning_rate": 1e200}}
        config = write_config(tmp_path, rounds=1)
        out = tmp_path / "sweep"
        assert main(sweep_command(config, write_grid(tmp_path, arms=arms), out)) == EXIT_RUNTIME
        assert "weight divergence is not finite" in capsys.readouterr().err
        lines = (out / "sweep_table.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1,fine,")
        assert (out / "setting_01_fine" / "summary.txt").is_file()
        assert not (out / "setting_01_blows_up" / "summary.txt").exists()

    def test_committed_example(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        command = sweep_command(CONFIGS / "trend.json", CONFIGS / "attribution_grid.json", out)
        assert main(command) == EXIT_OK
        # the trend prefixes `tests/test_acceptance.py` pins (gate 11)
        for name, golden in [("count_no_queue", "0a99cebac506e358"), ("ddfl", "eb2a8629213f7c81")]:
            metrics = (out / f"setting_01_{name}" / "metrics.csv").read_bytes()
            assert hashlib.sha256(metrics).hexdigest()[:16] == golden, name
        table = (out / "sweep_table.csv").read_bytes()
        assert capsys.readouterr().out.encode() == table
        assert hashlib.sha256(table).hexdigest()[:16] == "bc02d5db69bd1619"


# ways a config or grid file can be unusable as a whole; each writes the
# file at `path`, or leaves it absent
FILE_FAULTS = {
    "missing": lambda path: None,
    "a directory": lambda path: path.mkdir(),
    "undecodable bytes": lambda path: path.write_bytes(b'{"seed": "\xff"}'),
    "not JSON": lambda path: path.write_text("{broken"),
    "not a JSON object": lambda path: path.write_text("[1, 2]"),
    "JSON too deep to parse": lambda path: path.write_text("[" * 100_000),
    "an integer too long to parse": lambda path: path.write_text('{"seed": ' + "9" * 5000 + "}"),
}


def command(kind, tmp_path, path):
    """The arguments of the command that reads `path` as its `kind` file."""
    out = str(tmp_path / "out")
    if kind == "config":
        return ["run", "--config", str(path), "--out", out]
    config = write_config(tmp_path, rounds=1)
    return ["sweep", "--config", str(config), "--grid", str(path), "--out", out]


# ways an IDX file can be malformed, and the words the error gives for each
IDX_FAULTS = {
    "short header": (lambda raw: raw[:6], "header needs"),
    "bad magic": (lambda raw: b"\x00\x00\x08\x02" + raw[4:], "magic"),
    "truncated data": (lambda raw: raw[:-1], "bytes, found"),
    # a count of 0 and no data; byte 3 of the magic is the number of sizes
    "no items": (lambda raw: raw[:4] + bytes(4) + raw[8 : 4 + 4 * raw[3]], "holds no items"),
}


class TestInputFiles:
    """Each file a user names, spoilt in each way that applies to it: the
    command exits with the file's error code and names the file."""

    @pytest.mark.parametrize(
        "kind, fault", [(kind, fault) for kind in ("config", "grid") for fault in FILE_FAULTS]
    )
    def test_unusable_file(self, tmp_path, capsys, kind, fault):
        path = tmp_path / f"{kind}.input"
        FILE_FAULTS[fault](path)
        assert main(command(kind, tmp_path, path)) == EXIT_CONFIG
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2, "12", None, {"epochs": [1]}])
    def test_grid_value_that_is_not_a_list(self, tmp_path, capsys, value):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"settings": value, "arms": ARMS}))
        assert main(command("grid", tmp_path, path)) == EXIT_CONFIG
        assert "grid settings must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["train-images-idx3-ubyte", "train-labels-idx1-ubyte"])
    @pytest.mark.parametrize("fault", list(IDX_FAULTS))
    def test_malformed_idx_file(self, tmp_path, capsys, name, fault):
        data_dir = write_mnist(tmp_path / "mnist")
        spoil, words = IDX_FAULTS[fault]
        path = data_dir / name
        path.write_bytes(spoil(path.read_bytes()))
        config = write_config(tmp_path, dataset="mnist", data_dir=str(data_dir), dataset_params={})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_DATASET
        err = capsys.readouterr().err
        assert name in err and words in err, err

    def test_empty_test_set(self, tmp_path, capsys):
        data_dir = write_mnist(tmp_path / "mnist", test_labels=[])
        config = write_config(tmp_path, dataset="mnist", data_dir=str(data_dir), dataset_params={})
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_DATASET
        assert "t10k-images-idx3-ubyte: holds no items" in capsys.readouterr().err
        assert not out.exists()

    def test_image_and_label_counts_differ(self, tmp_path, capsys):
        data_dir = write_mnist(tmp_path / "mnist")
        write_idx(data_dir / "train-labels-idx1-ubyte", [0, 1, 0])
        config = write_config(tmp_path, dataset="mnist", data_dir=str(data_dir), dataset_params={})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_DATASET
        err = capsys.readouterr().err
        assert "train-images-idx3-ubyte" in err and "train-labels-idx1-ubyte" in err, err

    @pytest.mark.parametrize(
        "dataset, name, offset, label",
        [
            ("mnist", "train-labels-idx1-ubyte", 9, 10),  # the second label byte
            ("cifar10", "data_batch_1.bin", 3073, 10),  # the second record's label
            ("cifar100", "train.bin", 3074 + 1, 100),  # the second record's fine label
        ],
    )
    def test_label_outside_the_classes(self, tmp_path, capsys, dataset, name, offset, label):
        if dataset == "mnist":
            data_dir = write_mnist(tmp_path / dataset)
        else:
            data_dir = write_cifar(tmp_path / dataset, dataset)
        path = data_dir / name
        raw = bytearray(path.read_bytes())
        raw[offset] = label
        path.write_bytes(bytes(raw))
        config = write_config(tmp_path, dataset=dataset, data_dir=str(data_dir), dataset_params={})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_DATASET
        err = capsys.readouterr().err
        assert f"{name}: label {label} is not below" in err, err
