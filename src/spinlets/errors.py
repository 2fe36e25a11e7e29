"""Exception hierarchy shared by all spinlets modules."""


class SpinletsError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRangeError(SpinletsError):
    """Wigner index |m| or |n| exceeds the degree l."""


class InvalidDegreeError(SpinletsError):
    """Degree l is below the minimum admissible for the given spin/model."""


class InvalidBandwidthError(SpinletsError):
    """Needlet bandwidth B must be > 1."""


class ResourceLimitError(SpinletsError):
    """A requested grid or harmonic table would exceed its configured cap."""


class EmptyObservedRegionError(SpinletsError):
    """No pixel survives the mask (after dilation)."""


class EmptyRegionError(SpinletsError):
    """A region (or its eps-interior) contains no pixels, or regions overlap."""


class BandLimitExceededError(SpinletsError):
    """Grid exactness degree cannot support the requested needlet level."""


class CoverageGapError(SpinletsError):
    """Provided needlet levels do not cover some requested degree."""


class InvalidChannelCountError(SpinletsError):
    """Too few detector channels for the requested estimator."""


class MissingNoiseModelError(SpinletsError):
    """Auto-power estimator requires one noise spectrum per channel."""


class NonpositiveVarianceError(SpinletsError):
    """A standardization step received a variance <= 0."""


class TooFewBlocksError(SpinletsError):
    """Subsampling needs at least 8 blocks of at least 16 pixels each."""


class TooFewLevelsError(SpinletsError):
    """Variance-slope fit needs at least 4 needlet levels."""


class TooFewSamplesError(SpinletsError):
    """Normality diagnostics need at least 100 samples."""


class MaskedFlagMismatchError(SpinletsError):
    """Estimator received coefficients with the wrong masked flag."""


class InvalidMaskFileError(SpinletsError):
    """A mask file is empty, its header is malformed or does not match the
    grid, or a line is not a pixel index of its grid; names file and field."""


class InvalidAlmFileError(SpinletsError):
    """A SALM file has a bad magic, version, band limit or payload size;
    names the file and the field."""


class InvalidCoefficientFileError(SpinletsError):
    """An SNBC file has a short header, bad magic or version, another grid or
    a payload of the wrong size; names the file and the field."""


class ReplicateFailuresError(SpinletsError, RuntimeError):
    """More Monte Carlo replicates failed than the failure budget allows."""


class SelfCheckError(SpinletsError):
    """A numerical self-check failed (non-real cross power, Hausman identity)."""


class InvalidConfigError(SpinletsError):
    """Config file or CLI flag failed validation; message names the field."""
