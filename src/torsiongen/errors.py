"""Exception types shared across the toolkit.

Every concrete error derives from exactly one of two bases, and the CLI maps
the base to its exit code: `DomainError` (exit 2) for input the caller can
fix, `VerificationFailure` (exit 1) when the toolkit could not establish
the claim.
"""


class TorsionGenError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TorsionGenError):
    """The input is outside what the toolkit accepts (exit code 2)."""


class VerificationFailure(TorsionGenError):
    """The claim could not be established (exit code 1)."""


class MalformedCycle(DomainError):
    pass


class PointOutOfRange(DomainError):
    pass


class RepeatedPoint(DomainError):
    pass


class DegreeMismatch(DomainError):
    pass


class EmptyGeneratorList(DomainError):
    pass


class InvalidParams(DomainError):
    pass


class OverlapError(DomainError):
    pass


class RangeError(DomainError):
    pass


class OddK(DomainError):
    pass


class SearchExhausted(VerificationFailure):
    pass


class CaseUndefined(DomainError):
    pass


class InvalidDecomposition(DomainError):
    pass


class UnsupportedK(DomainError):
    pass


class PlusOneUnsupported(DomainError):
    pass


class ZeroVector(DomainError):
    pass


class TooLarge(DomainError):
    pass


class MissingLanternData(DomainError):
    pass


class HypothesisFailure(VerificationFailure):
    pass


class RewriteStepInvalid(VerificationFailure):
    pass


class InvalidSampler(DomainError):
    pass


class TrialsZero(DomainError):
    pass
