import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from fedsim import harness, nn
from fedsim.errors import ConfigInvalid
from fedsim.harness import (
    ExperimentConfig,
    derived_segment_size,
    format_sweep_table,
    load_config,
    run_experiment,
    run_sweep,
)
from test_cli import INVALID_VALUES


def tiny_config(**overrides):
    cfg = ExperimentConfig(
        dataset="synthetic",
        dataset_params={"num_classes": 4, "per_class": 25, "input_dim": 6, "spread": 0.2},
        devices=4,
        rounds=3,
        local_epochs=1,
        batch_size=8,
        learning_rate=0.3,
        queue_fraction=0.2,
        selection_fraction=0.9,
        partition_mode="one_class",
        aggregator="ddfl_entropy",
        hidden_dims=(6,),
        seed=5,
    )
    return dataclasses.replace(cfg, **overrides)


def ranges(sizes):
    """The train calls of one round over consecutive devices in ranges of
    `sizes`, as the `train_calls` fixture records them."""
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    return [(a, n, a == 0) for a, n in zip(starts, sizes)]


class TestConfig:
    # invalid values, each rejected when the config is made
    BAD_VALUES = [
        dict(aggregator="median"),
        dict(dataset="imagenet"),
        dict(partition_mode="dirichlet"),
        dict(rounds=0),
        dict(devices=0),
        dict(batch_size=0),
        dict(local_epochs=0),
        dict(activation="sigmoid"),
        dict(learning_rate=-1.0),
        dict(queue_fraction=1.0),
        dict(queue_fraction=-0.1),
        dict(selection_fraction=0.0),
        dict(selection_fraction=1.5),
        dict(segment_size=-1),
        dict(seed=-1),
        dict(workers=0),
        dict(hidden_dims=(0,)),
        dict(dataset="mnist", dataset_params={}),  # no data_dir
        dict(workers=65),  # a round would start a thread per worker
    ]

    def test_aliases_normalize(self):
        assert tiny_config(aggregator="ddfl").aggregator == "ddfl_entropy"
        assert tiny_config(aggregator="fedavg").aggregator == "fedavg_count"
        assert tiny_config(hidden_dims=[6, 3]).hidden_dims == (6, 3)

    def test_rejects_bad_values(self):
        for overrides in self.BAD_VALUES:
            with pytest.raises(ConfigInvalid, match=next(iter(overrides))):
                tiny_config(**overrides)

    def test_every_field_has_a_bad_value(self):
        # a new config field must arrive with a check and a row that shows it
        covered = {key.partition(".")[0] for key, _ in INVALID_VALUES}
        covered.update(key for overrides in self.BAD_VALUES for key in overrides)
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields - covered == set()

    def test_frozen(self):
        cfg = tiny_config()
        for f in dataclasses.fields(ExperimentConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_equal_configs_hash_equal(self):
        cfg = tiny_config(aggregator="ddfl", hidden_dims=[6])
        params = dict(reversed(list(cfg.dataset_params.items())))
        same = tiny_config(aggregator="ddfl_entropy", hidden_dims=(6,), dataset_params=params)
        assert same == cfg and hash(same) == hash(cfg)
        assert hash(ExperimentConfig()) == hash(ExperimentConfig())
        runs = {cfg: "a", dataclasses.replace(cfg, seed=cfg.seed + 1): "b"}
        assert runs[same] == "a" and len(runs) == 2

    def test_dataset_params_are_a_copy(self, tmp_path):
        # a change to the caller's dict after the checks cannot reach the run
        params = {"num_classes": 4, "per_class": 25, "input_dim": 6, "spread": 0.2}
        cfg = tiny_config(dataset_params=params, output_dir=str(tmp_path / "a"))
        params["input_dim"] = 0
        run_experiment(cfg)
        run_experiment(tiny_config(output_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_dataset_params_are_read_only(self):
        cfg = tiny_config()
        for config in (cfg, dataclasses.replace(cfg, seed=6)):
            with pytest.raises(TypeError):
                config.dataset_params["input_dim"] = 0
            assert config.dataset_params["input_dim"] == 6

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "synthetic", "bogus": 1}))
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dataset": "synthetic", "rounds": 7, "seed": 3}))
        cfg = load_config(path)
        assert cfg.rounds == 7 and cfg.seed == 3

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_config(path)
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "missing.json")


class TestDerivedSegmentSize:
    def test_explicit_value_wins(self):
        assert derived_segment_size(tiny_config(segment_size=9), 100) == 9

    def test_baseline_defaults_to_zero(self):
        cfg = tiny_config(aggregator="fedavg_count")
        assert derived_segment_size(cfg, 100) == 0
        # the alias names the same aggregator, so it defaults the same way
        assert derived_segment_size(ExperimentConfig(aggregator="fedavg"), 1000) == 0

    def test_entropy_aggregator_spreads_pool_over_run(self):
        cfg = tiny_config(devices=10, rounds=100)
        assert derived_segment_size(cfg, 6000) == 6

    def test_small_pool_still_dispenses(self):
        cfg = tiny_config(devices=10, rounds=50)
        assert derived_segment_size(cfg, 100) == 1
        assert derived_segment_size(cfg, 0) == 0


class TestRunExperiment:
    def test_row_count_and_files(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "run"))
        result = run_experiment(cfg)
        assert len(result.rows) == 3
        assert [r.round_index for r in result.rows] == [0, 1, 2]
        out = result.output_dir
        for name in (
            "metrics.csv",
            "timings.csv",
            "device_entropy.csv",
            "divergence_layers.csv",
            "summary.txt",
            "config_resolved.json",
        ):
            assert (out / name).is_file()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 1 + 3
        assert metrics[0].startswith("round_index,test_accuracy,mean_loss")

    def test_config_echo_includes_derived_values(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        resolved = json.loads((tmp_path / "run" / "config_resolved.json").read_text())
        assert resolved["segment_size"] >= 1
        assert resolved["input_dim"] == 6
        assert resolved["num_classes"] == 4
        assert resolved["aggregator"] == "ddfl_entropy"

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = tiny_config(output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("metrics.csv", "device_entropy.csv", "divergence_layers.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(devices=16, hidden_dims=(256,)), dict(devices=7, partition_mode="iid")],
    )
    def test_block_width_does_not_change_outputs(
        self, tmp_path, monkeypatch, train_calls, overrides
    ):
        # one device per sub-block, the default sub-blocks, and each call in
        # as few sub-blocks as its shard sizes allow, each with 1 to 3
        # workers; the one_class devices all hold shards of one size, while
        # 64 residual samples dealt to 7 iid devices give one 10 and six 9s.
        # A round makes one call per worker on consecutive ids with about
        # equal sample counts, the call holding device 0 on its own thread.
        per_worker = {
            4: {1: [4], 2: [2, 2], 3: [1, 1, 2]},
            16: {1: [16], 2: [8, 8], 3: [5, 5, 6]},
            7: {1: [7], 2: [3, 4], 3: [2, 2, 3]},
        }[overrides.get("devices", 4)]
        outputs = set()
        for budget in (1, nn._BLOCK_FLOATS, 2**40):
            monkeypatch.setattr(nn, "_BLOCK_FLOATS", budget)
            for workers in (1, 2, 3):
                train_calls.clear()
                out = tmp_path / f"budget_{budget}_w{workers}"
                run_experiment(tiny_config(output_dir=str(out), workers=workers, **overrides))
                assert sorted(train_calls) == sorted(ranges(per_worker[workers]) * 3)
                outputs.add(tuple(
                    (out / name).read_bytes() for name in ("metrics.csv", "divergence_layers.csv")
                ))
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "aggregator, digests",
        [
            ("fedavg_count", {"divergence_layers.csv": "afdd8523fd1f1a9b",
                              "device_entropy.csv": "49f99aee624cccf5",
                              "summary.txt": "f3062afcd961f92e"}),
            ("ddfl_entropy", {"divergence_layers.csv": "6541aed7f2c7c093",
                              "device_entropy.csv": "4096dd5b9a88360b",
                              "summary.txt": "61fd481c5b20518e"}),
        ],
    )
    def test_trend_side_files_are_pinned(self, tmp_path, aggregator, digests):
        # sha256 prefixes of the files beside metrics.csv, for the acceptance
        # gates' trend config at seed 1 (test_criterion_11 pins metrics.csv);
        # summary.txt holds no wall-clock figure, so it is pinned too
        cfg = ExperimentConfig(
            dataset_params={"num_classes": 10, "per_class": 125, "input_dim": 16, "spread": 0.2},
            devices=10,
            rounds=50,
            batch_size=20,
            learning_rate=0.5,
            queue_fraction=0.1,
            selection_fraction=0.9,
            partition_mode="one_class",
            aggregator=aggregator,
            hidden_dims=(32,),
            seed=1,
            output_dir=str(tmp_path),
        )
        run_experiment(cfg)
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in digests
        }
        assert got == digests

    @pytest.mark.parametrize("aggregator", ["fedavg_count", "ddfl_entropy"])
    def test_peak_memory_below_twice_the_features(self, aggregator):
        # the train and test matrices are the only copies of the samples: the
        # queue, the residual and each device's data index into the train set
        cfg = tiny_config(
            dataset_params={"num_classes": 10, "per_class": 500, "input_dim": 256, "spread": 0.3},
            devices=10,
            rounds=2,
            aggregator=aggregator,
        )
        feature_bytes = (4000 + 1000) * 256 * 8
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * feature_bytes, peak / feature_bytes

    def test_summary_contents(self):
        result = run_experiment(tiny_config())
        summary = result.summary
        assert summary["rounds"] == 3
        assert 0.0 <= summary["final_accuracy"] <= 1.0
        assert summary["best_accuracy"] >= summary["final_accuracy"] - 1e-12
        assert summary["segment_size"] >= 1

    def test_bias_norm_equals_divergence_column(self):
        result = run_experiment(tiny_config())
        for row in result.rows:
            assert row.mean_bias_norm == pytest.approx(
                row.mean_weight_divergence, abs=1e-12
            )

    def test_dispense_trace(self, tmp_path):
        cfg = tiny_config(output_dir=str(tmp_path / "run"), trace_dispense=True)
        run_experiment(cfg)
        lines = (tmp_path / "run" / "dispense_trace.jsonl").read_text().splitlines()
        assert len(lines) == 3 * 4  # rounds * devices
        record = json.loads(lines[0])
        assert set(record) == {"round", "device", "sample_indices"}

    def test_in_memory_run_without_output_dir(self):
        result = run_experiment(tiny_config(output_dir=None))
        assert result.output_dir is None
        assert len(result.rows) == 3


# the two aggregators as arms, each named after its aggregator
AGGREGATOR_ARMS = {name: {"aggregator": name} for name in ("fedavg_count", "ddfl_entropy")}


class TestRunSweep:
    def test_single_cell_runs_both_aggregators(self, tmp_path):
        base = tiny_config(output_dir=str(tmp_path / "sweep"), rounds=2)
        table = run_sweep(base, {"settings": [{}], "arms": AGGREGATOR_ARMS})
        assert [(row["setting"], row["arm"]) for row in table] == [
            (1, "fedavg_count"), (1, "ddfl_entropy")
        ]
        for row in table:
            summary = (tmp_path / "sweep" / f"setting_01_{row['arm']}" / "summary.txt").read_text()
            assert f"final_accuracy = {row['final_accuracy']}\n" in summary
        text = (tmp_path / "sweep" / "sweep_table.csv").read_text(encoding="ascii")
        assert text == format_sweep_table(table)

    def test_one_grid_writes_one_table(self, tmp_path):
        grid = {"settings": [{"local_epochs": 1}, {"local_epochs": 2}], "arms": AGGREGATOR_ARMS}
        tables = []
        for name in ("a", "b"):
            run_sweep(tiny_config(output_dir=str(tmp_path / name), rounds=2), grid)
            tables.append((tmp_path / name / "sweep_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_one_load_serves_every_run(self, tmp_path, monkeypatch):
        loads = []
        load = harness._load_dataset

        def counted(cfg):
            loads.append(cfg)
            return load(cfg)

        monkeypatch.setattr(harness, "_load_dataset", counted)
        base = tiny_config(output_dir=str(tmp_path / "sweep"), rounds=2)
        settings = [
            {"local_epochs": 1, "queue_fraction": 0.1}, {"local_epochs": 2, "queue_fraction": 0.2}
        ]
        run_sweep(base, {"settings": settings, "arms": AGGREGATOR_ARMS})
        assert len(loads) == 1
        # each run is the run its config gives on its own
        for i, setting in enumerate(settings, start=1):
            for aggregator in AGGREGATOR_ARMS:
                name = f"setting_{i:02d}_{aggregator}"
                alone = tmp_path / "alone" / name
                run_experiment(
                    dataclasses.replace(
                        base, aggregator=aggregator, **setting, output_dir=str(alone)
                    )
                )
                swept = tmp_path / "sweep" / name
                assert (swept / "metrics.csv").read_bytes() == (alone / "metrics.csv").read_bytes()

    def test_each_row_is_on_disk_when_the_next_run_starts(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep"
        lines_seen = []
        run = harness._run

        def recorded(cfg, train, test):
            lines_seen.append((out / "sweep_table.csv").read_text().count("\n"))
            return run(cfg, train, test)

        monkeypatch.setattr(harness, "_run", recorded)
        grid = {"settings": [{}, {"local_epochs": 2}], "arms": AGGREGATOR_ARMS}
        run_sweep(tiny_config(output_dir=str(out), rounds=1), grid)
        # the header, then one more row before each run
        assert lines_seen == [1, 2, 3, 4]

    def test_six_settings_make_twelve_runs(self, tmp_path):
        base = tiny_config(output_dir=str(tmp_path / "sweep"), rounds=1)
        settings = [
            {"local_epochs": e, "queue_fraction": q, "selection_fraction": s}
            for e, q, s in [(5, 0.1, 0.8), (1, 0.1, 0.9), (5, 0.2, 0.8), (5, 0.2, 0.9),
                            (5, 0.5, 0.8), (1, 0.5, 0.9)]
        ]
        table = run_sweep(base, {"settings": settings, "arms": AGGREGATOR_ARMS})
        assert len(table) == 12
        run_dirs = [p for p in (tmp_path / "sweep").iterdir() if p.is_dir()]
        assert len(run_dirs) == 12

    def test_empty_grid_rejected(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = tiny_config(output_dir=str(out))
        for grid, words in [
            ({}, "grid keys"),
            ({"settings": [], "arms": AGGREGATOR_ARMS}, "settings"),
            ({"settings": [{}], "arms": {}}, "arms"),
        ]:
            with pytest.raises(ConfigInvalid, match=words):
                run_sweep(cfg, grid)
        assert not out.exists()

    def test_format_table(self):
        table = [
            {"setting": 1, "arm": "a", "final_accuracy": 0.5, "best_accuracy": 0.625,
             "final_mean_entropy": 0.25},
            {"setting": 2, "arm": "b-2", "final_accuracy": 1.0, "best_accuracy": 1.0,
             "final_mean_entropy": 0.0},
        ]
        assert format_sweep_table(table) == (
            "setting,arm,final_accuracy,best_accuracy,final_mean_entropy\n"
            "1,a,0.5,0.625,0.25\n"
            "2,b-2,1.0,1.0,0.0\n"
        )
