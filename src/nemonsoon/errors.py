"""Exception types shared across the package."""


class NemonsoonError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # Exception pickles as cls(*args), which hands a subclass's formatted
        # message to its own __init__; rebuilding from args and attributes
        # keeps the type, attributes and str() of an error raised in a worker.
        return _rebuild, (type(self), self.args), self.__dict__


def _rebuild(cls, args):
    err = cls.__new__(cls)
    err.args = args
    return err


class ConfigError(NemonsoonError):
    """A flag, config file or areas file given by the user is invalid."""


class FormatError(NemonsoonError):
    """Malformed on-disk artifact (bad header field, truncated payload, ...)."""


class EmptyAreaError(NemonsoonError):
    """An area covers no grid cells at the given resolution."""


class NoOceanCellsError(NemonsoonError):
    """An area covers grid cells, but all of them are land."""


class ZeroVarianceError(NemonsoonError):
    """A series that must be standardized or correlated is constant."""


class InsufficientSeasonSamplesError(NemonsoonError):
    """A seasonal subset has too few points for a correlation."""


class NoObservationsError(NemonsoonError):
    """A calendar month has no observed values to impute from."""

    def __init__(self, month: int):
        self.month = month
        super().__init__(f"no observed values for calendar month {month}")


class DegenerateColumnError(NemonsoonError):
    """A feature column has zero variance and cannot be standardized."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"feature column {column!r} has zero variance")


class InvalidInitialAreasError(NemonsoonError):
    """The configured initial areas violate the environment constraints."""


class EpisodeOverError(NemonsoonError):
    """step() was called after the episode terminated."""


class NonFiniteLossError(NemonsoonError):
    """A training loss became NaN or infinite."""


class ShapeMismatchError(NemonsoonError):
    """Array shapes inconsistent with the configured model."""


class SkippedCluster(NemonsoonError):
    """Cluster excluded from the ablation: the candidate index fails the
    correlation bar on the training fold."""

    def __init__(self, cluster_id, reason: str):
        self.cluster_id = cluster_id
        self.reason = reason
        super().__init__(f"cluster {cluster_id} skipped: {reason}")
