"""The exception types the CLI tells apart, and the exit code of each.

    ConfigInvalid        1  a config value, flag or grid is invalid, a
                            config or grid file is unreadable or malformed,
                            or the output_dir cannot be made a directory
    DatasetError         2  a dataset file is missing or malformed, or
                            holds a label outside the dataset's classes
    any other exception  3  NumericalDivergence, or a ValueError from a bad
                            argument inside the package

Outside input is checked at one boundary, and code past it trusts what
reaches it. Files a user names are read by one reader per format:
`harness.read_json_object` for config and grid files, and the `data`
loaders for dataset files.
Config values are then checked once, when a `config.ExperimentConfig` is
made (it is frozen, so it stays valid, and so is `federation.RoundConfig`,
which extends it), and grids by `harness.run_sweep`, which also makes
every setting's queue split and partition before the first run.
"""


class ConfigInvalid(Exception):
    """A config value is invalid; the message names its key."""


class DatasetError(Exception):
    """A dataset file is missing, truncated, not in the expected format or
    holds a label outside the dataset's classes."""


class NumericalDivergence(Exception):
    """A model or a metric computed from it stopped being finite; the message
    names the round and the device."""
