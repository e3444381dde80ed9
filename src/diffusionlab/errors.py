"""Exception types raised by the public operations.

Every contract violation has a named type so callers can tell
configuration mistakes, data problems, and numeric failures apart without
parsing messages. Each type carries the CLI's exit code for its failure
family: 2 configuration, 3 data, 4 numeric (the default), 5 model head.
"""


class DiffusionLabError(Exception):
    """Base class for all diffusionlab errors."""

    exit_code = 4


# a file the operating system cannot open or read counts as a data error
OS_ERROR_EXIT_CODE = 3


# numerics
class NonScalarOutput(DiffusionLabError):
    """grad target must evaluate to a single scalar."""


class NotSymmetric(DiffusionLabError):
    """Matrix expected to be symmetric within tolerance."""


class IndefiniteMatrix(DiffusionLabError):
    """Matrix has an eigenvalue below the negative tolerance."""


class NotConverged(DiffusionLabError):
    """An iterative solve stopped at its iteration cap above its tolerance."""


# schedule
class StepCountTooSmall(DiffusionLabError):
    """Schedules need at least two steps."""
    exit_code = 2


class OffsetOutOfRange(DiffusionLabError):
    """Cosine schedule offset must lie in (0, 1)."""
    exit_code = 2


class InvalidK(DiffusionLabError):
    """Sampling step count must satisfy 2 <= K <= T."""
    exit_code = 2


# gaussian
class SingularCovariance(DiffusionLabError):
    """Covariance is singular or not positive definite."""


class DimensionMismatch(DiffusionLabError):
    """Incompatible dimensions between means, covariances, or maps."""
    exit_code = 3


# forward
class StepOutOfRange(DiffusionLabError):
    """Step index outside the valid range for the operation."""


class OffGridInput(DiffusionLabError):
    """Value expected on the 256-level grid over [-1, 1]."""
    exit_code = 3


class NonpositiveVariance(DiffusionLabError):
    """Variance must be strictly positive."""


# denoiser
class DegenerateEmbedding(DiffusionLabError):
    """Time embedding needs at least two sine/cosine frequency pairs."""


class ShapeMismatch(DiffusionLabError):
    """Array shapes incompatible with the operation."""
    exit_code = 3


class ConditioningMismatch(DiffusionLabError):
    """Conditioning input absent, unexpected, or of the wrong shape."""
    exit_code = 5


# training
class NotDualHead(DiffusionLabError):
    """Operation requires a noise+variance model."""
    exit_code = 5


class LengthMismatch(DiffusionLabError):
    """Parameter and gradient vectors must have equal length."""
    exit_code = 3


class NonFiniteLoss(DiffusionLabError):
    """Training loss became NaN or infinite."""


class DataExhausted(DiffusionLabError):
    """Finite data source ran out of samples."""
    exit_code = 3


# sampler
class HeadMismatch(DiffusionLabError):
    """Model head incompatible with the requested sampler."""
    exit_code = 5


class InvalidPlan(DiffusionLabError):
    """Stride plan inconsistent with the schedule."""
    exit_code = 2


class SigmaConstraintViolated(DiffusionLabError):
    """Per-step sigma exceeds the admissible bound."""
    exit_code = 2


class NonFiniteSample(DiffusionLabError):
    """A sampling step left a chain's state NaN or infinite."""


# metrics
class NonpositiveEntry(DiffusionLabError):
    """Discrete distributions must have strictly positive entries."""
    exit_code = 3


class EmptyBatch(DiffusionLabError):
    """Score batching produced an empty batch."""
    exit_code = 2


class TooFewSamples(DiffusionLabError):
    """Sample covariance needs at least two samples."""
    exit_code = 3


class BadWindow(DiffusionLabError):
    """Window size must tile the image exactly."""


# data
class NoCenters(DiffusionLabError):
    """Mixture needs at least one center."""
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


class DimensionOverflow(DiffusionLabError):
    """IDX dimensions exceed the desk-scale element budget."""
    exit_code = 3


class OutOfRange(DiffusionLabError):
    """Value outside its admissible range."""
    exit_code = 3


# cli
class ConfigError(DiffusionLabError):
    """Invalid or unknown configuration key/value."""
    exit_code = 2
