"""The exception types the CLI tells apart, and the exit code of each.

    ConfigInvalid        1  a config value, flag, grid or plot request is
                            invalid, or a config, grid or rows file is
                            unreadable or malformed
    DatasetError         2  a dataset file is missing or malformed, or
                            holds a label outside the dataset's classes
    any other exception  3  NumericalDivergence, or a ValueError from a bad
                            argument inside the package

Outside input is checked at one boundary, and code past it trusts what
reaches it. Files a user names are read by one reader per format:
`harness.read_text` (and `harness.read_json_object` on top of it) for
config, grid and rows files, and the `data` loaders for dataset files.
Config values are then checked once, when a `harness.ExperimentConfig` is
made (it is frozen, so it stays valid), and grids by `harness.run_sweep`,
which also makes every setting's queue split and partition before the
first run.
"""


class ConfigInvalid(Exception):
    """A config value is invalid; the message names its key."""


class DatasetError(Exception):
    """A dataset file is missing, truncated, not in the expected format or
    holds a label outside the dataset's classes."""


class NumericalDivergence(Exception):
    """A model or a metric computed from it stopped being finite; the message
    names the round and the device."""
