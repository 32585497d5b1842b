"""The exception types the CLI tells apart, and the exit code of each.

    ConfigInvalid        1  a config value, flag, grid or plot request is invalid
    DatasetError         2  a dataset file is missing or malformed
    any other exception  3  NumericalDivergence, or a ValueError from a bad
                            argument inside the package

Config values are checked once, by `harness.validate_config`, and dataset
bytes by the loaders; code past those two trusts what reaches it.
"""


class ConfigInvalid(Exception):
    """A config value is invalid; the message names its key."""


class DatasetError(Exception):
    """A dataset file is missing, truncated or not in the expected format."""


class NumericalDivergence(Exception):
    """A model or a metric computed from it stopped being finite; the message
    names the round and the device."""
