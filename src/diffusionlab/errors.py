"""Exception types raised by the public operations.

Each type carries the CLI's exit code for its failure family: 2
configuration, 3 data, 4 numeric (the default), 5 model head. A class
exists only if no other class with the same exit code already states its
meaning; a new check raises the class that names its failure, with a
message that says which value broke which rule.
"""


class DiffusionLabError(Exception):
    """Base class for all diffusionlab errors."""

    exit_code = 4


# a file the operating system cannot open or read counts as a data error
OS_ERROR_EXIT_CODE = 3


# 2: configuration
class ConfigError(DiffusionLabError):
    """A config key, flag or call parameter that is unknown, does not parse,
    or lies outside its allowed values: step counts, stride plans, offsets,
    the eta noise budget, batch splits, embedding and window sizes."""
    exit_code = 2


# 3: data
class ShapeMismatch(DiffusionLabError):
    """Array shapes, dimensions or lengths incompatible with the operation."""
    exit_code = 3


class OutOfRange(DiffusionLabError):
    """A value, count or size outside its admissible range: off the byte
    grid, not strictly positive, too few samples, past an element cap."""
    exit_code = 3


class BadMagic(DiffusionLabError):
    """File magic number or format version not recognized."""
    exit_code = 3


class TruncatedFile(DiffusionLabError):
    """File length differs from what its header promises."""
    exit_code = 3


class BadMetadata(DiffusionLabError):
    """Checkpoint metadata not UTF-8 JSON, lacking or mistyping a key, or
    describing a model or schedule that cannot be built."""
    exit_code = 3


class DataExhausted(DiffusionLabError):
    """Finite data source ran out of samples."""
    exit_code = 3


# 4: numerics
class NonScalarOutput(DiffusionLabError):
    """grad target must evaluate to a single scalar."""


class NotSymmetric(DiffusionLabError):
    """Matrix expected to be symmetric within tolerance."""


class IndefiniteMatrix(DiffusionLabError):
    """Matrix has an eigenvalue below the negative tolerance."""


class SingularCovariance(DiffusionLabError):
    """Covariance singular or not positive definite, or a variance not > 0."""


class StepOutOfRange(DiffusionLabError):
    """Step index outside the valid range for the operation."""


class NonFiniteLoss(DiffusionLabError):
    """Training loss became NaN or infinite."""


class NonFiniteSample(DiffusionLabError):
    """A sampling step left a chain's state NaN or infinite."""


# 5: model head
class ConditioningMismatch(DiffusionLabError):
    """Conditioning input absent, unexpected, or of the wrong shape."""
    exit_code = 5


class HeadMismatch(DiffusionLabError):
    """Model head incompatible with the requested loss or sampler."""
    exit_code = 5
