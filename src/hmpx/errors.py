"""Exception hierarchy shared by all hmpx modules."""


class HmpxError(Exception):
    """Base class for all errors raised by hmpx."""


# --- model validation ---

class NonSquare(HmpxError):
    """Input matrix is not square (or is smaller than 2x2)."""


class RowSumViolation(HmpxError):
    """A row sum deviates from its required value by more than 1e-9."""


class NonPositiveEntry(HmpxError):
    """A transition-matrix entry is zero or negative."""


class SignViolation(HmpxError):
    """A noise generator has a nonnegative diagonal or negative off-diagonal."""


class EpsilonOutOfRange(HmpxError):
    """A noise level is not finite or lies outside [0, epsilon_max]."""


# --- jet arithmetic ---

class OrderMismatch(HmpxError):
    """Univariate jets of different truncation orders were combined."""


class ConfigMismatch(HmpxError):
    """Multivariate jets with different (nvars, cap) configurations were combined."""


class NonPositiveConstantTerm(HmpxError):
    """log() of a jet whose constant term is not strictly positive."""


class DegreeExceedsCap(HmpxError):
    """A requested exponent vector exceeds the multijet degree cap."""


# --- enumeration engine ---

class BudgetExceeded(HmpxError):
    """An enumeration of s**N sequences would exceed the configured budget."""


class ProfileLengthMismatch(HmpxError):
    """A per-site noise profile does not match the sequence length."""


class UnreachableSequence(HmpxError):
    """A sequence probability collapsed to zero, or is too small for the
    walk to take its log to a finite value.  A strictly positive
    transition matrix makes no probability exactly zero, so it signals a
    probability beyond float range or internal corruption."""


# --- series / verification ---

class SettlingViolation(HmpxError):
    """Coefficients that the settling guarantee makes equal disagree beyond
    tolerance; the computation or the model must be broken."""


class HypothesisNotMet(HmpxError):
    """A lemma verifier was called on an instance outside the lemma's hypothesis."""
