"""Exception types shared across the package."""


class SizeMismatchError(ValueError):
    """A grid function does not match the grid's collocation count."""


class InvalidCutoffError(ValueError):
    """A spectral projection cutoff exceeds the Nyquist range."""


class UndefinedRadiusError(ValueError):
    """The analyticity-radius fit band contains too few usable coefficients."""


class InvalidContourError(ValueError):
    """A lifted contour has a non-finite or non-positive height."""


class DegenerateGeometryError(RuntimeError):
    """The chord-arc ratio fell below the configured floor.

    Attributes:
        pair: index pair (i, j) realizing the offending ratio, or None.
        ratio: the offending chord-arc ratio.
        lifted: True when the sweep that met the floor ran on a lifted
            contour (the generalized Rayleigh-Taylor monitor's), False on
            the flat interface (an rhs stage's).
    """

    def __init__(self, message, pair=None, ratio=None, lifted=False):
        super().__init__(message)
        self.pair = pair
        self.ratio = ratio
        self.lifted = lifted


class DegenerateParametrizationError(RuntimeError):
    """The tangent norm of an interface parametrization vanishes."""


class ScheduleDomainError(ValueError):
    """A height-schedule evaluator was called outside its time domain."""


class InvalidFamilyError(ValueError):
    """Turnover-family parameters violate the sign conditions at the origin."""


class BlowupError(RuntimeError):
    """Non-finite coefficients appeared during time integration."""


class ConfigError(ValueError):
    """A scenario configuration failed to parse or validate."""


class SnapshotError(ValueError):
    """A snapshot file is corrupt, truncated, or has the wrong version."""
