"""Exception hierarchy. Every failure mode raised by the library derives
from CoherlabError so callers can catch one type at the CLI boundary."""


class CoherlabError(Exception):
    """Base class for all coherlab errors."""


class NonHermitianError(CoherlabError):
    """Matrix fails the Hermitian symmetry check."""


class NoConvergenceError(CoherlabError):
    """Iterative eigensolver / SVD did not converge."""


class BadSubsystemError(CoherlabError):
    """Subsystem index set is empty, duplicated, or out of range."""


class BadDimensionError(CoherlabError):
    """Dimension argument outside the supported range."""


class BadRankError(CoherlabError):
    """Requested rank exceeds the total dimension (or is < 1)."""


class InvalidStateError(CoherlabError):
    """State construction violated an invariant (hermiticity, positivity,
    trace, or norm); the message names the invariant and the magnitude."""


class InvalidCoefficientsError(InvalidStateError):
    """Coefficient matrix for a maximally correlated state is not a
    valid density matrix."""


class DimensionMismatchError(CoherlabError):
    """Operator/state shapes are incompatible."""


class IncompleteChannelError(CoherlabError):
    """Kraus family fails the completeness condition sum K' K = 1."""


class NotIncoherentError(CoherlabError):
    """An operator required to be incoherent maps some basis state to a
    superposition."""


class SingularNormalizerError(CoherlabError):
    """Completion normalizer sum R' R is singular (some column never hit)."""


class IncoherenceViolationError(CoherlabError):
    """A protocol round flagged as incoherent used a coherent Kraus operator."""


class EnsembleMismatchError(CoherlabError):
    """Supplied pure-state ensemble does not average to the target state."""


class NotMaximallyCorrelatedError(CoherlabError):
    """State is not supported on the |ii> diagonal subspace."""


class NotSQIError(CoherlabError):
    """Channel is not separable quantum-incoherent."""


class NotSIError(CoherlabError):
    """Channel is not separable incoherent."""


class DimensionTooLargeError(CoherlabError):
    """Input exceeds the size limit of a routine whose cost grows steeply
    with the dimension: the QI oracle (``ORACLE_MAX_DIM``) or the
    coherence-of-assistance ascent (``ASSIST_MAX_DIM``)."""


class InternalConsistencyError(CoherlabError):
    """A quantity that must be non-negative came out below -1e-9."""
