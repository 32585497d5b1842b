"""Exception types raised across the package."""


class Error(Exception):
    """Base class for all fedsim errors."""


class EmptyDataset(Error):
    pass


class DimensionMismatch(Error):
    pass


class LayoutMismatch(Error):
    pass


class BadMagic(Error):
    pass


class TruncatedFile(Error):
    pass


class CountMismatch(Error):
    pass


class UnknownVariant(Error):
    pass


class InvalidParam(Error):
    pass


class InvalidGamma(Error):
    pass


class TooFewSamples(Error):
    pass


class InfeasibleOneClass(Error):
    pass


class EmptyHistogram(Error):
    pass


class NoReports(Error):
    pass


class ZeroTotalWeight(Error):
    pass


class EmptyInput(Error):
    pass


class ZeroMean(Error):
    pass


class LengthMismatch(Error):
    pass


class InvalidInputs(Error):
    pass


class ConfigInvalid(Error):
    pass


class DatasetMissing(Error):
    pass


class NumericalDivergence(Error):
    """A model or a metric computed from it stopped being finite.

    `shard` is the position of the offending shard when `local_train`
    raises it, so the round loop can name the device.
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard
