"""Exception types raised by the public operations.

Every contract violation has a named type so callers (and the CLI exit-code
mapping) can tell configuration mistakes, data problems, and numeric
failures apart without parsing messages.
"""


class DiffusionLabError(Exception):
    """Base class for all diffusionlab errors."""


# numerics
class NonScalarOutput(DiffusionLabError):
    """grad target must evaluate to a single scalar."""


class UnsupportedPrimitive(DiffusionLabError):
    """An operation outside the supported differentiable primitive set."""


class NotSymmetric(DiffusionLabError):
    """Matrix expected to be symmetric within tolerance."""


class IndefiniteMatrix(DiffusionLabError):
    """Matrix has an eigenvalue below the negative tolerance."""


# schedule
class StepCountTooSmall(DiffusionLabError):
    """Schedules need at least two steps."""


class OffsetOutOfRange(DiffusionLabError):
    """Cosine schedule offset must lie in (0, 1)."""


class InvalidK(DiffusionLabError):
    """Sampling step count must satisfy 2 <= K <= T."""


# gaussian
class SingularCovariance(DiffusionLabError):
    """Covariance is singular or not positive definite."""


class DimensionMismatch(DiffusionLabError):
    """Incompatible dimensions between means, covariances, or maps."""


# forward
class StepOutOfRange(DiffusionLabError):
    """Step index outside the valid range for the operation."""


class OffGridInput(DiffusionLabError):
    """Value expected on the 256-level grid over [-1, 1]."""


class NonpositiveVariance(DiffusionLabError):
    """Variance must be strictly positive."""


# denoiser
class DegenerateEmbedding(DiffusionLabError):
    """Time embedding needs at least two sine/cosine frequency pairs."""


class ShapeMismatch(DiffusionLabError):
    """Array shapes incompatible with the operation."""


class ConditioningMismatch(DiffusionLabError):
    """Conditioning input absent, unexpected, or of the wrong shape."""


# training
class NotDualHead(DiffusionLabError):
    """Operation requires a noise+variance model."""


class LengthMismatch(DiffusionLabError):
    """Parameter and gradient vectors must have equal length."""


class DataExhausted(DiffusionLabError):
    """Finite data source ran out of samples."""


# sampler
class HeadMismatch(DiffusionLabError):
    """Model head incompatible with the requested sampler."""


class InvalidPlan(DiffusionLabError):
    """Stride plan inconsistent with the schedule."""


class SigmaConstraintViolated(DiffusionLabError):
    """Per-step sigma exceeds the admissible bound."""


# metrics
class NonpositiveEntry(DiffusionLabError):
    """Discrete distributions must have strictly positive entries."""


class EmptyBatch(DiffusionLabError):
    """Score batching produced an empty batch."""


class TooFewSamples(DiffusionLabError):
    """Sample covariance needs at least two samples."""


class BadWindow(DiffusionLabError):
    """Window size must tile the image exactly."""


# data
class NoCenters(DiffusionLabError):
    """Mixture needs at least one center."""


class BadMagic(DiffusionLabError):
    """IDX file magic number not recognized."""


class TruncatedFile(DiffusionLabError):
    """File shorter than its header promises."""


class BadMetadata(DiffusionLabError):
    """Checkpoint metadata not UTF-8 JSON, lacking or mistyping a key, or
    describing a model or schedule that cannot be built."""


class DimensionOverflow(DiffusionLabError):
    """IDX dimensions exceed the desk-scale element budget."""


class OutOfRange(DiffusionLabError):
    """Value outside its admissible range."""


# cli
class ConfigError(DiffusionLabError):
    """Invalid or unknown configuration key/value."""
