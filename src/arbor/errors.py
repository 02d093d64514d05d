"""Exception types shared across the library."""

from __future__ import annotations

__all__ = [
    "ArborError",
    "InvalidVertexError",
    "NotATreeError",
    "UnknownFixtureError",
    "IncompleteKnowledgeError",
    "BudgetExhaustedError",
    "SearchTooLargeError",
    "DegenerateImageError",
    "NoBranchStructureError",
    "UnsupportedStructureError",
    "InsufficientDepthError",
    "DeclaredBoundsRefutedError",
    # SandwichViolationError is left out: sandwich_check raises it only when
    # the library's own contraction breaks its stretch bound, a defect no
    # caller can act on beyond what catching ArborError gives.
]


class ArborError(Exception):
    """Base class for every library-specific error."""


class InvalidVertexError(ArborError, IndexError):
    """A vertex id outside the host's range was used."""


class NotATreeError(ArborError, ValueError):
    """The input violates a tree requirement; the message names the violation."""


class UnknownFixtureError(ArborError, ValueError):
    """An unrecognized fixture name or parameter list."""


class IncompleteKnowledgeError(ArborError):
    """The answer depends on vertices beyond the explored region."""


class BudgetExhaustedError(IncompleteKnowledgeError):
    """Exploration hit its vertex or step budget before the answer was decided."""


class SearchTooLargeError(ArborError):
    """An exhaustive enumeration exceeded its work guard."""


class DegenerateImageError(ArborError):
    """The subset lies inside a single chain interior, so its contraction image is empty."""


class SandwichViolationError(ArborError):
    """A subset and its chain-contracted image break the sandwich inequalities, so the contraction is wrong."""


class NoBranchStructureError(ArborError):
    """Chain contraction needs at least one vertex of degree other than 2."""


class UnsupportedStructureError(ArborError):
    """The host's local shape violates a structural assumption of the operation."""


class InsufficientDepthError(ArborError, ValueError):
    """A truncation deeper than the sampled horizon was requested (and the sample is not extinct)."""


class DeclaredBoundsRefutedError(ArborError):
    """A user-declared global bound contradicts an in-scope observation.

    The concrete counterexample (a subset, chain, or vertex) is attached so
    reports can show what failed.
    """

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample
