"""The exception types the CLI tells apart, and the exit code of each.

    ConfigInvalid        1  a config value, flag or grid is invalid, a
                            config or grid file is unreadable or malformed,
                            or the output_dir cannot be made a directory
    DatasetError         2  a dataset file is missing, malformed or empty,
                            or holds a label outside the dataset's classes
    any other exception  3  NumericalDivergence, or a ValueError from a bad
                            argument inside the package

Outside input is checked at one boundary, and code past it trusts what
reaches it. Files a user names are read by one reader per format:
`harness.read_json_object` for config and grid files, and the `data`
loaders for dataset files.
Config values are then checked once, when a `config.ExperimentConfig` is
made (it is frozen, so it stays valid, and so is `federation.RoundConfig`,
which extends it), and grids by `harness.run_sweep`: a grid's shape, its
arm names and the keys each setting and arm sets are checked, every run's
config is made, and every run's queue split and partition are made before
the first run.
"""


class ConfigInvalid(Exception):
    """A config value is invalid; the message names its key."""


class DatasetError(Exception):
    """A dataset file is missing, truncated, not in the expected format,
    holds no items or holds a label outside the dataset's classes."""


class NumericalDivergence(Exception):
    """A model or a metric computed from it stopped being finite; the message
    names the round and the device."""
